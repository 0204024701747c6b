//! The file-system operation vocabulary workload generators emit and
//! scheme drivers consume.

/// One logical file-system operation against a Cloud-of-Clouds scheme.
///
/// Paths are plain strings here (workload generators know nothing about
/// the metadata layer); the driver normalizes them at the boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsOp {
    /// Create a file of `size` bytes.
    Create {
        /// Absolute path.
        path: String,
        /// File size in bytes.
        size: u64,
    },
    /// Read a whole file.
    Read {
        /// Absolute path.
        path: String,
    },
    /// Overwrite `len` bytes at `offset` (the small-update case that
    /// produces RAID5 write amplification).
    Update {
        /// Absolute path.
        path: String,
        /// Byte offset of the update.
        offset: u64,
        /// Bytes rewritten.
        len: u64,
    },
    /// Delete a file.
    Delete {
        /// Absolute path.
        path: String,
    },
    /// List a directory (a metadata-only access).
    ListDir {
        /// Absolute directory path.
        path: String,
    },
}

impl FsOp {
    /// The path the op touches.
    pub fn path(&self) -> &str {
        match self {
            FsOp::Create { path, .. }
            | FsOp::Read { path }
            | FsOp::Update { path, .. }
            | FsOp::Delete { path }
            | FsOp::ListDir { path } => path,
        }
    }

    /// Whether the op writes (mutates state).
    pub fn is_write(&self) -> bool {
        matches!(self, FsOp::Create { .. } | FsOp::Update { .. } | FsOp::Delete { .. })
    }

    /// Logical payload bytes the op moves (0 for metadata-only ops;
    /// reads report the file size at replay time, so 0 here).
    pub fn payload_bytes(&self) -> u64 {
        match self {
            FsOp::Create { size, .. } => *size,
            FsOp::Update { len, .. } => *len,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_accessor_covers_all_variants() {
        let ops = [
            FsOp::Create { path: "/a".into(), size: 1 },
            FsOp::Read { path: "/b".into() },
            FsOp::Update { path: "/c".into(), offset: 0, len: 1 },
            FsOp::Delete { path: "/d".into() },
            FsOp::ListDir { path: "/e".into() },
        ];
        let paths: Vec<&str> = ops.iter().map(|o| o.path()).collect();
        assert_eq!(paths, vec!["/a", "/b", "/c", "/d", "/e"]);
    }

    #[test]
    fn write_classification() {
        assert!(FsOp::Create { path: "/a".into(), size: 1 }.is_write());
        assert!(FsOp::Update { path: "/a".into(), offset: 0, len: 1 }.is_write());
        assert!(FsOp::Delete { path: "/a".into() }.is_write());
        assert!(!FsOp::Read { path: "/a".into() }.is_write());
        assert!(!FsOp::ListDir { path: "/a".into() }.is_write());
    }

    #[test]
    fn payload_bytes() {
        assert_eq!(FsOp::Create { path: "/a".into(), size: 9 }.payload_bytes(), 9);
        assert_eq!(FsOp::Update { path: "/a".into(), offset: 5, len: 3 }.payload_bytes(), 3);
        assert_eq!(FsOp::Read { path: "/a".into() }.payload_bytes(), 0);
    }
}
