//! The experiment harness: [`paper`] (the paper's evaluation, one
//! function per section) and the plumbing the binaries share. Every
//! binary prints what it measured *and* writes a JSON record under
//! `target/experiments/`.

use std::io::Write;
use std::path::PathBuf;

use hyrd_telemetry::json::{self, ToJson};

pub mod paper;

/// Directory experiment outputs land in.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Writes an experiment's JSON record.
pub fn write_json<T: ToJson + ?Sized>(name: &str, value: &T) {
    let path = experiments_dir().join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path).expect("create experiment file");
    let body = json::to_string_pretty(value);
    f.write_all(body.as_bytes()).expect("write experiment");
    println!("\n[written {}]", path.display());
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Parses `--<flag> N` from the process arguments, falling back to a
/// default. Shared by the binaries that take `--jobs`, `--weeks`, …
pub fn flag_usize(flag: &str, default: usize) -> usize {
    let needle = format!("--{flag}");
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == needle {
            return args
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{needle} expects an unsigned integer"));
        }
        if let Some(v) = a.strip_prefix(&format!("{needle}=")) {
            return v.parse().unwrap_or_else(|_| panic!("{needle} expects an unsigned integer"));
        }
    }
    default
}

/// Formats seconds human-readably.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

hyrd_telemetry::json_struct! {
    /// A labelled series for JSON output.
    #[derive(Debug)]
    pub struct Series {
        /// Series label (scheme or provider name).
        pub label: String,
        /// Values in x-axis order.
        pub values: Vec<f64>,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyrd_telemetry::{Document, Value};

    #[test]
    fn experiments_dir_exists_and_json_roundtrips() {
        let s = Series { label: "t".into(), values: vec![1.0, 2.5] };
        write_json("self-test", &[s]);
        let body = std::fs::read_to_string(experiments_dir().join("self-test.json")).unwrap();
        assert!(body.contains("\"label\": \"t\""));
        let doc = hyrd_telemetry::parse_document(&body).expect("the record is a JSON document");
        let Document::Array(series) = doc else { panic!("expected an array: {doc:?}") };
        assert_eq!(series[0].get("label"), Some(&Document::Scalar(Value::Str("t".into()))));
        let values = vec![Document::Scalar(Value::U64(1)), Document::Scalar(Value::F64(2.5))];
        assert_eq!(series[0].get("values"), Some(&Document::Array(values)));
    }

    #[test]
    fn secs_formats() {
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.500s");
    }
}
