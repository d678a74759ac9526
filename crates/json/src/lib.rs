#![warn(missing_docs)]

//! Dependency-free JSON support for the MAGIC workspace.
//!
//! The reproduction persists checkpoints and experiment results as JSON.
//! The build environment is fully offline, so instead of `serde_json`
//! this crate provides the small subset the workspace needs: a [`Value`]
//! tree, a strict parser ([`from_str`]), compact and pretty writers, and
//! a [`json!`] construction macro mirroring the `serde_json::json!`
//! surface the experiment binaries use.
//!
//! # Example
//!
//! ```
//! use magic_json::{json, from_str};
//!
//! let v = json!({ "name": "magic", "scores": [1, 2.5, null] });
//! let text = v.to_string();
//! let back = from_str(&text).unwrap();
//! assert_eq!(back["name"].as_str(), Some("magic"));
//! assert_eq!(back["scores"][1].as_f64(), Some(2.5));
//! ```

mod macros;
mod parse;
mod value;
mod write;

pub use parse::{from_str, ParseError, MAX_DEPTH};
pub use value::{Map, ToJson, Value};
pub use write::{to_string, to_string_pretty};
