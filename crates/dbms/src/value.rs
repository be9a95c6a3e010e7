//! Typed values, rows and keys for the in-memory storage engine.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A typed column value.
#[derive(Debug, Clone, PartialEq, PartialOrd, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float (prices, weights). Not allowed in keys.
    Float(f64),
    /// UTF-8 string (identifiers, SKUs, status fields).
    Str(String),
}

impl Value {
    /// Estimated in-memory size in bytes, used for migration-chunk
    /// accounting and data-distribution statistics.
    pub fn size_estimate(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => 24 + s.len(),
        }
    }

    /// Serialises the value into a stable byte form for hashing.
    pub fn hash_bytes(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Bool(b) => out.extend_from_slice(&[1, *b as u8]),
            Value::Int(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(3);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(4);
                out.extend_from_slice(s.as_bytes());
            }
        }
    }

    /// The string inside, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer inside, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A primary or partitioning key: an ordered tuple of key-safe values.
///
/// Floats are rejected from keys (no total order / hash stability).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Key(Vec<KeyValue>);

/// A value usable inside a key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum KeyValue {
    /// Integer key component.
    Int(i64),
    /// String key component.
    Str(String),
}

impl KeyValue {
    fn hash_bytes(&self, out: &mut Vec<u8>) {
        match self {
            KeyValue::Int(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_le_bytes());
            }
            KeyValue::Str(s) => {
                out.push(4);
                // Keys are tiny; the serialised format caps strings at 4 GiB.
                #[allow(clippy::cast_possible_truncation)]
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }

    /// Runs `f` over the stable hash bytes of this component without
    /// heap-allocating for the common case (integer keys and strings up to
    /// 59 bytes fit a stack buffer). Produces exactly the bytes
    /// [`Key::routing_bytes`] would for a single-component key — the
    /// allocation-free routing path of the per-transaction hot loop.
    pub fn with_hash_bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        match self {
            KeyValue::Int(i) => {
                let mut buf = [0u8; 9];
                buf[0] = 2;
                buf[1..9].copy_from_slice(&i.to_le_bytes());
                f(&buf)
            }
            KeyValue::Str(s) if s.len() <= 59 => {
                let mut buf = [0u8; 64];
                buf[0] = 4;
                // Keys are tiny; the serialised format caps strings at 4 GiB.
                #[allow(clippy::cast_possible_truncation)]
                buf[1..5].copy_from_slice(&(s.len() as u32).to_le_bytes());
                buf[5..5 + s.len()].copy_from_slice(s.as_bytes());
                f(&buf[..5 + s.len()])
            }
            KeyValue::Str(_) => {
                let mut out = Vec::new();
                self.hash_bytes(&mut out);
                f(&out)
            }
        }
    }

    /// Estimated in-memory size in bytes.
    pub fn size_estimate(&self) -> usize {
        match self {
            KeyValue::Int(_) => 8,
            KeyValue::Str(s) => 24 + s.len(),
        }
    }
}

impl Key {
    /// Builds a key from components.
    ///
    /// # Panics
    /// Panics if `parts` is empty.
    pub fn new(parts: Vec<KeyValue>) -> Self {
        assert!(!parts.is_empty(), "keys must have at least one component");
        Key(parts)
    }

    /// Single-component string key.
    pub fn str(s: impl Into<String>) -> Self {
        Key(vec![KeyValue::Str(s.into())])
    }

    /// Single-component integer key.
    pub fn int(i: i64) -> Self {
        Key(vec![KeyValue::Int(i)])
    }

    /// Composite key of a string and an integer (e.g. `(cart_id, line)`).
    pub fn str_int(s: impl Into<String>, i: i64) -> Self {
        Key(vec![KeyValue::Str(s.into()), KeyValue::Int(i)])
    }

    /// The key components.
    pub fn parts(&self) -> &[KeyValue] {
        &self.0
    }

    /// The first component — by convention the partitioning-key column for
    /// the B2W schema (cart id, checkout id, SKU).
    pub fn routing_part(&self) -> &KeyValue {
        &self.0[0]
    }

    /// Stable bytes of the *first* component, used for partition routing.
    pub fn routing_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.0[0].hash_bytes(&mut out);
        out
    }

    /// Whether `self` starts with the components of `prefix`.
    pub fn starts_with(&self, prefix: &Key) -> bool {
        self.0.len() >= prefix.0.len() && self.0[..prefix.0.len()] == prefix.0[..]
    }

    /// Estimated in-memory size in bytes.
    pub fn size_estimate(&self) -> usize {
        self.0.iter().map(KeyValue::size_estimate).sum()
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match p {
                KeyValue::Int(v) => write!(f, "{v}")?,
                KeyValue::Str(v) => write!(f, "'{v}'")?,
            }
        }
        write!(f, ")")
    }
}

/// A row: a tuple of column values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row(pub Vec<Value>);

impl Row {
    /// Estimated in-memory size in bytes.
    pub fn size_estimate(&self) -> usize {
        16 + self.0.iter().map(Value::size_estimate).sum::<usize>()
    }

    /// Column accessor.
    pub fn get(&self, col: usize) -> &Value {
        &self.0[col]
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the row has no columns.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_ordering_supports_prefix_scans() {
        let a = Key::str_int("cart-1", 1);
        let b = Key::str_int("cart-1", 2);
        let c = Key::str_int("cart-2", 1);
        assert!(a < b && b < c);
        let prefix = Key::str("cart-1");
        assert!(a.starts_with(&prefix));
        assert!(b.starts_with(&prefix));
        assert!(!c.starts_with(&prefix));
    }

    #[test]
    fn routing_bytes_depend_only_on_first_component() {
        let a = Key::str_int("cart-1", 1);
        let b = Key::str_int("cart-1", 99);
        assert_eq!(a.routing_bytes(), b.routing_bytes());
        let c = Key::str_int("cart-2", 1);
        assert_ne!(a.routing_bytes(), c.routing_bytes());
    }

    #[test]
    fn value_size_estimates_are_sane() {
        assert_eq!(Value::Int(7).size_estimate(), 8);
        assert!(Value::Str("abcdef".into()).size_estimate() > 6);
        let row = Row(vec![Value::Int(1), Value::Str("x".into())]);
        assert!(row.size_estimate() > 8);
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Str("s".into()).as_str(), Some("s"));
        assert_eq!(Value::Int(5).as_str(), None);
    }

    #[test]
    fn hash_bytes_distinguish_types() {
        let mut a = Vec::new();
        Value::Int(1).hash_bytes(&mut a);
        let mut b = Vec::new();
        Value::Bool(true).hash_bytes(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Key::str_int("c", 2).to_string(), "('c', 2)");
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_key_rejected() {
        let _ = Key::new(vec![]);
    }
}
