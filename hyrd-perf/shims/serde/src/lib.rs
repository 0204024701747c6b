//! Offline stand-in for `serde`.
//!
//! The HyRD request path never serializes through serde (metadata blocks
//! use the binary `HYM2`/`HYD1` codecs, traces are hand-rolled JSON), but
//! most types derive `Serialize`/`Deserialize` for the report writers in
//! `hyrd-bench`. Here the traits are markers implemented for every type
//! and the derives expand to nothing, which is enough for everything the
//! benchmark links.

/// Marker: every type "serializes".
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker: every sized type "deserializes".
pub trait Deserialize<'de>: Sized {}
impl<'de, T> Deserialize<'de> for T {}

pub mod de {
    pub use super::Deserialize;

    /// Marker mirroring `serde::de::DeserializeOwned`.
    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}
}

pub mod ser {
    pub use super::Serialize;
}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
