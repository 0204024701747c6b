//! Offline stand-in for `serde_json`: the entry points exist and fail.
//!
//! Nothing the benchmark runs goes through JSON serde — `MetadataBlock`
//! falls back to `from_slice` only for blocks without a binary magic,
//! which a running `Hyrd` never writes — so every call returns
//! [`Error`] instead of pretending.

use std::fmt;

use serde::de::DeserializeOwned;
use serde::Serialize;

/// The one error this stand-in produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(&'static str);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde_json stand-in: {} is not supported offline", self.0)
    }
}

impl std::error::Error for Error {}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

pub fn to_vec<T: ?Sized + Serialize>(_value: &T) -> Result<Vec<u8>> {
    Err(Error("to_vec"))
}

pub fn to_string<T: ?Sized + Serialize>(_value: &T) -> Result<String> {
    Err(Error("to_string"))
}

pub fn to_string_pretty<T: ?Sized + Serialize>(_value: &T) -> Result<String> {
    Err(Error("to_string_pretty"))
}

pub fn from_slice<T: DeserializeOwned>(_bytes: &[u8]) -> Result<T> {
    Err(Error("from_slice"))
}

pub fn from_str<T: DeserializeOwned>(_text: &str) -> Result<T> {
    Err(Error("from_str"))
}
