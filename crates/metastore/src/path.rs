//! Normalized absolute paths.
//!
//! Cloud object names have no real path semantics, so the metadata layer
//! defines its own: absolute, `/`-separated, no empty or `.`/`..`
//! components. Normalization happens once at the boundary; everything
//! downstream works with [`NormPath`] and cannot hold a malformed path.
//!
//! A `NormPath` is a shared string: parsing a path that is already
//! normal allocates it once, and every clone after that — a dirty mark,
//! a cache key, a hot-read counter — shares it.

use std::sync::Arc;

use crate::{MetaError, Result};

/// An absolute, normalized path ("/", "/a", "/a/b").
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NormPath(Arc<str>);

impl NormPath {
    /// The root directory.
    pub fn root() -> Self {
        NormPath(Arc::from("/"))
    }

    /// Parses and normalizes. Accepts optional trailing slashes; rejects
    /// relative paths, empty components, `.` and `..`.
    pub fn parse(raw: &str) -> Result<Self> {
        if !raw.starts_with('/') {
            return Err(MetaError::BadPath(raw.to_string()));
        }
        // Already normal — every component non-empty and neither `.`
        // nor `..` — is the common case: one allocation, the shared copy.
        if raw.len() > 1 && raw[1..].split('/').all(|c| !matches!(c, "" | "." | "..")) {
            return Ok(NormPath(Arc::from(raw)));
        }
        let mut out = String::with_capacity(raw.len());
        for comp in raw.split('/') {
            match comp {
                "" => {} // leading slash / doubled slash / trailing slash
                "." | ".." => return Err(MetaError::BadPath(raw.to_string())),
                c => {
                    out.push('/');
                    out.push_str(c);
                }
            }
        }
        if out.is_empty() {
            return Ok(NormPath::root());
        }
        Ok(NormPath(out.into()))
    }

    /// The path as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Whether this is the root.
    pub fn is_root(&self) -> bool {
        &*self.0 == "/"
    }

    /// Path components, root yielding none.
    pub fn components(&self) -> impl Iterator<Item = &str> {
        self.0.split('/').filter(|c| !c.is_empty())
    }

    /// Parent directory; root's parent is root.
    pub fn parent(&self) -> NormPath {
        NormPath(Arc::from(self.parent_str()))
    }

    /// [`parent`](Self::parent) as a borrowed slice of this path — what
    /// directory-keyed lookups use, so finding a file's directory
    /// allocates nothing.
    pub fn parent_str(&self) -> &str {
        match self.0.rfind('/') {
            Some(0) => "/",
            Some(i) => &self.0[..i],
            None => unreachable!("normalized paths contain '/'"),
        }
    }

    /// Final component; `None` for root.
    pub fn file_name(&self) -> Option<&str> {
        if self.is_root() {
            None
        } else {
            self.0.rsplit('/').next()
        }
    }

    /// Appends a single component.
    pub fn join(&self, name: &str) -> Result<NormPath> {
        if name.is_empty() || name.contains('/') || name == "." || name == ".." {
            return Err(MetaError::BadPath(name.to_string()));
        }
        let base = if self.is_root() { "" } else { self.as_str() };
        let mut joined = String::with_capacity(base.len() + 1 + name.len());
        joined.push_str(base);
        joined.push('/');
        joined.push_str(name);
        Ok(NormPath(joined.into()))
    }
}

/// A `NormPath` compares, orders and hashes exactly as its string (the
/// derives above are the newtype's), so maps keyed by directory can be
/// probed with a borrowed `&str`.
impl std::borrow::Borrow<str> for NormPath {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for NormPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::str::FromStr for NormPath {
    type Err = MetaError;
    fn from_str(s: &str) -> Result<Self> {
        NormPath::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_normalizes_slashes() {
        assert_eq!(NormPath::parse("/a/b").unwrap().as_str(), "/a/b");
        assert_eq!(NormPath::parse("/a/b/").unwrap().as_str(), "/a/b");
        assert_eq!(NormPath::parse("//a///b").unwrap().as_str(), "/a/b");
        assert_eq!(NormPath::parse("/").unwrap().as_str(), "/");
        assert_eq!(NormPath::parse("///").unwrap().as_str(), "/");
    }

    #[test]
    fn parse_keeps_normal_paths_and_shares_clones() {
        for normal in ["/a", "/a/b", "/usr/local/bin", "/x.y/..z/.w"] {
            assert_eq!(NormPath::parse(normal).unwrap().as_str(), normal);
        }
        let p = NormPath::parse("/a/b").unwrap();
        assert!(std::ptr::eq(p.as_str(), p.clone().as_str()), "a clone shares the string");
    }

    #[test]
    fn parse_rejects_bad_paths() {
        for bad in ["", "a/b", "relative", "/a/./b", "/a/../b", "./x"] {
            assert!(NormPath::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parent_and_file_name() {
        let p = NormPath::parse("/a/b/c").unwrap();
        assert_eq!(p.file_name(), Some("c"));
        assert_eq!(p.parent().as_str(), "/a/b");
        assert_eq!(p.parent().parent().as_str(), "/a");
        assert_eq!(p.parent().parent().parent().as_str(), "/");
        assert_eq!(NormPath::root().parent().as_str(), "/");
        assert_eq!(NormPath::root().file_name(), None);
        for path in ["/", "/a", "/a/b", "/a/b/c"] {
            let p = NormPath::parse(path).unwrap();
            assert_eq!(p.parent_str(), p.parent().as_str());
        }
    }

    #[test]
    fn join_builds_children() {
        let root = NormPath::root();
        let a = root.join("a").unwrap();
        assert_eq!(a.as_str(), "/a");
        let ab = a.join("b").unwrap();
        assert_eq!(ab.as_str(), "/a/b");
        assert!(a.join("x/y").is_err());
        assert!(a.join("").is_err());
        assert!(a.join("..").is_err());
    }

    #[test]
    fn components_iterate_in_order() {
        let p = NormPath::parse("/usr/local/bin").unwrap();
        let comps: Vec<&str> = p.components().collect();
        assert_eq!(comps, vec!["usr", "local", "bin"]);
        assert_eq!(NormPath::root().components().count(), 0);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = [
            NormPath::parse("/b").unwrap(),
            NormPath::parse("/a/z").unwrap(),
            NormPath::parse("/a").unwrap(),
        ];
        v.sort();
        let strs: Vec<&str> = v.iter().map(|p| p.as_str()).collect();
        assert_eq!(strs, vec!["/a", "/a/z", "/b"]);
    }
}
