//! Content-addressed cache keys: a canonical, field-order-independent
//! encoding hashed with FNV-1a 128.

use relm_common::durable::canonicalize;
use relm_common::hash::Fnv128;
use serde::Serialize;
use std::fmt;

/// A 128-bit content hash identifying one evaluation.
///
/// Two keys are equal exactly when they were built from the same
/// namespace and the same set of `(name, value)` fields — regardless of
/// the order the fields were added in, and regardless of the order object
/// keys appear in any nested value (see [`canonical_json`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EvalKey {
    hi: u64,
    lo: u64,
}

impl EvalKey {
    /// Rebuilds a key from its two halves (used by the persistent store).
    pub fn from_halves(hi: u64, lo: u64) -> Self {
        EvalKey { hi, lo }
    }

    /// The key as a fixed-width 32-character lowercase hex string — the
    /// on-disk representation (the vendored JSON stack has no 128-bit
    /// integers).
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parses a key from its [`EvalKey::hex`] form.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(EvalKey { hi, lo })
    }

    /// The shard this key maps to in an `n`-shard map.
    pub(crate) fn shard(&self, n: usize) -> usize {
        ((self.lo ^ self.hi) % n as u64) as usize
    }
}

impl fmt::Display for EvalKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// Serializes a value to canonical JSON: nested object keys are sorted
/// (recursively, by [`canonicalize`]), so two values that differ only in
/// field order encode — and therefore hash — identically. Arrays keep
/// their element order; order is semantic there.
pub fn canonical_json(value: &impl Serialize) -> String {
    canonicalize(&value.to_value()).to_string()
}

/// Separator fed between a field's name and its encoding: an unambiguous
/// framing byte that cannot appear inside either (both are JSON text).
const NAME_SEP: u8 = 0x1f;
/// Separator fed after each field.
const FIELD_SEP: u8 = 0x1e;

/// Builds an [`EvalKey`] from named, serializable components.
///
/// The builder collects `(name, canonical JSON)` pairs, sorts them by
/// name, and hashes the result — so the key is independent of the order
/// `field` calls were made in. Field names within one key should be
/// unique; duplicate names hash both occurrences.
///
/// ```
/// use relm_evalcache::KeyBuilder;
/// let a = KeyBuilder::new("demo")
///     .field("seed", &42u64)
///     .field("workload", &"wordcount".to_string())
///     .finish();
/// let b = KeyBuilder::new("demo")
///     .field("workload", &"wordcount".to_string())
///     .field("seed", &42u64)
///     .finish();
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct KeyBuilder {
    namespace: String,
    fields: Vec<(String, String)>,
}

impl KeyBuilder {
    /// Starts a key in `namespace` — include a version tag (for example
    /// `"tuning-env/v1"`) so a change to what the key covers can never
    /// collide with entries hashed under the old layout.
    pub fn new(namespace: &str) -> Self {
        KeyBuilder {
            namespace: namespace.to_string(),
            fields: Vec::new(),
        }
    }

    /// Adds one named component to the key.
    pub fn field(mut self, name: &str, value: &impl Serialize) -> Self {
        self.fields.push((name.to_string(), canonical_json(value)));
        self
    }

    /// Hashes the collected fields into the key.
    pub fn finish(mut self) -> EvalKey {
        self.fields.sort();
        let mut h = Fnv128::new();
        h.write_str(&self.namespace);
        h.write_bytes(&[FIELD_SEP]);
        for (name, encoding) in &self.fields {
            h.write_str(name);
            h.write_bytes(&[NAME_SEP]);
            h.write_str(encoding);
            h.write_bytes(&[FIELD_SEP]);
        }
        let digest = h.finish();
        EvalKey {
            hi: (digest >> 64) as u64,
            lo: digest as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Map, Value};

    #[test]
    fn hex_round_trips() {
        let key = KeyBuilder::new("t").field("x", &1u64).finish();
        assert_eq!(EvalKey::from_hex(&key.hex()), Some(key));
        assert_eq!(key.hex().len(), 32);
    }

    #[test]
    fn from_hex_rejects_malformed() {
        assert_eq!(EvalKey::from_hex(""), None);
        assert_eq!(EvalKey::from_hex(&"g".repeat(32)), None);
        assert_eq!(EvalKey::from_hex(&"0".repeat(31)), None);
        assert_eq!(EvalKey::from_hex(&"0".repeat(33)), None);
    }

    #[test]
    fn namespaces_partition_keys() {
        let a = KeyBuilder::new("a").field("x", &1u64).finish();
        let b = KeyBuilder::new("b").field("x", &1u64).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn field_names_matter() {
        let a = KeyBuilder::new("t").field("x", &1u64).finish();
        let b = KeyBuilder::new("t").field("y", &1u64).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn nested_object_key_order_is_canonicalized() {
        let mut ab = Map::new();
        ab.insert("a", Value::Number(serde::Number::U64(1)));
        ab.insert("b", Value::Number(serde::Number::U64(2)));
        let mut ba = Map::new();
        ba.insert("b", Value::Number(serde::Number::U64(2)));
        ba.insert("a", Value::Number(serde::Number::U64(1)));
        let ka = KeyBuilder::new("t").field("o", &Value::Object(ab)).finish();
        let kb = KeyBuilder::new("t").field("o", &Value::Object(ba)).finish();
        assert_eq!(ka, kb);
    }

    #[test]
    fn array_order_is_semantic() {
        let a = KeyBuilder::new("t").field("v", &vec![1u64, 2]).finish();
        let b = KeyBuilder::new("t").field("v", &vec![2u64, 1]).finish();
        assert_ne!(a, b);
    }
}
