//! The JSON value tree and conversions into it.

use std::fmt;
use std::ops::Index;

/// A parsed or constructed JSON document.
///
/// Numbers are stored as `f64`, which covers every value the workspace
/// serializes (f32 weights, counts far below 2^53, scores).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// JSON `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Map),
}

/// An insertion-ordered string-keyed map (the object variant's payload).
///
/// Experiment results are diffed as text, so object key order must be
/// stable and match construction order — a plain vector of pairs gives
/// that with no hashing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Creates an empty map.
    pub fn new() -> Self {
        Map::default()
    }

    /// Inserts `value` under `key`, replacing (in place) any existing
    /// entry with the same key. Returns the previous value, if any.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) -> Option<Value> {
        let key = key.into();
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// The value stored under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        let mut map = Map::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

static NULL: Value = Value::Null;

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The payload as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The key-value map, if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Object field lookup that tolerates non-objects (returns `None`).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

impl Index<&str> for Value {
    type Output = Value;

    /// `value["key"]`, yielding `Null` for missing keys or non-objects —
    /// matching the forgiving indexing style of `serde_json`.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Value {
    type Output = Value;

    /// `value[i]`, yielding `Null` out of bounds or for non-arrays.
    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::write::to_string(self))
    }
}

/// Conversion into a [`Value`], used by the [`crate::json!`] macro for
/// interpolated Rust expressions.
///
/// Implementations take `&self` so the macro can interpolate fields of
/// borrowed structs without moving them.
pub trait ToJson {
    /// Converts to a JSON value.
    fn to_json(&self) -> Value;
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl ToJson for Map {
    fn to_json(&self) -> Value {
        Value::Object(self.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

macro_rules! impl_to_json_number {
    ($($t:ty),*) => {
        $(impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Number(*self as f64)
            }
        })*
    };
}

impl_to_json_number!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, f32, f64);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_insertion_order_and_replaces() {
        let mut m = Map::new();
        m.insert("b", Value::Number(1.0));
        m.insert("a", Value::Number(2.0));
        m.insert("b", Value::Number(3.0));
        let keys: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["b", "a"]);
        assert_eq!(m.get("b"), Some(&Value::Number(3.0)));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn indexing_missing_keys_yields_null() {
        let v = Value::Object(Map::new());
        assert!(v["missing"]["deeper"].is_null());
        assert!(v[3].is_null());
    }

    #[test]
    fn as_u64_rejects_fractional_and_negative() {
        assert_eq!(Value::Number(3.0).as_u64(), Some(3));
        assert_eq!(Value::Number(3.5).as_u64(), None);
        assert_eq!(Value::Number(-1.0).as_u64(), None);
    }

    #[test]
    fn string_comparison_with_str() {
        let v = Value::String("magic-model-v1".into());
        assert!(v == "magic-model-v1");
        assert!(v != "other");
        assert!(Value::Null != "magic-model-v1");
    }

    #[test]
    fn option_interpolates_as_null() {
        assert_eq!(None::<f64>.to_json(), Value::Null);
        assert_eq!(Some(1.5f64).to_json(), Value::Number(1.5));
    }
}
