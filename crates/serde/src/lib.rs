//! An offline, dependency-free subset of `serde` with the same surface the
//! rest of this workspace uses: `#[derive(Serialize, Deserialize)]`,
//! `#[serde(transparent)]`, and JSON text round-trips via the sibling
//! `serde_json` facade.
//!
//! Unlike upstream serde's zero-copy visitor architecture, this subset pivots
//! every serialization through an owned [`Value`] tree — simpler, fully
//! deterministic (object keys keep insertion order), and fast enough for the
//! profiles and telemetry this workspace serializes. The build environment
//! has no access to crates.io, so the workspace resolves `serde`,
//! `serde_json` and `proptest` to these in-tree implementations via path
//! dependencies.

mod text;
mod value;

pub use serde_derive::{Deserialize, Serialize};
pub use text::{parse, write_escaped};
pub use value::{Map, Number, Value};

use std::fmt;

/// Serialization/deserialization error: a human-readable message describing
/// the first mismatch encountered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Creates an error from a message.
    pub fn msg(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }

    /// Standard "expected X, found Y" shape.
    pub fn expected(what: &str, found: &Value) -> Self {
        Error(format!("expected {what}, found {}", found.kind()))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// A value that can be converted into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` to a [`Value`].
    fn to_value(&self) -> Value;
}

/// A value that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a [`Value`], or explains why it cannot.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Looks up and deserializes a required object field (derive helper).
pub fn field<T: Deserialize>(m: &Map, key: &str) -> Result<T, Error> {
    match m.get(key) {
        Some(v) => T::from_value(v).map_err(|e| Error(format!("field `{key}`: {e}"))),
        None => Err(Error(format!("missing field `{key}`"))),
    }
}

// ---------------------------------------------------------------------------
// Serialize impls
// ---------------------------------------------------------------------------

macro_rules! impl_ser_de_int {
    ($($t:ty => $variant:ident as $prim:ty),* $(,)?) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::$variant(*self as $prim))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match v {
                    Value::Number(n) => *n,
                    _ => return Err(Error::expected(stringify!($t), v)),
                };
                let out = match n {
                    Number::U64(x) => <$t>::try_from(x)
                        .map_err(|_| Error::msg(format!("{x} out of range for {}", stringify!($t)))),
                    Number::I64(x) => <$t>::try_from(x)
                        .map_err(|_| Error::msg(format!("{x} out of range for {}", stringify!($t)))),
                    Number::F64(_) => Err(Error::expected(stringify!($t), v)),
                };
                out
            }
        }
    )*};
}

impl_ser_de_int! {
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64, u64 => U64 as u64,
    usize => U64 as u64,
    i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64, i64 => I64 as i64,
    isize => I64 as i64,
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F64(*self))
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Number(n) => Ok(n.as_f64()),
            _ => Err(Error::expected("number", v)),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F64(*self as f64))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::expected("boolean", v)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s.clone()),
            _ => Err(Error::expected("string", v)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = String::from_value(v)?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::msg("expected single-character string")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(Error::expected("array", v)),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error::msg(format!("expected array of length {N}, found {len}")))
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident . $idx:tt),+)),* $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                match v {
                    Value::Array(items) if items.len() == LEN => {
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    Value::Array(items) => Err(Error::msg(format!(
                        "expected array of length {LEN}, found {}",
                        items.len()
                    ))),
                    _ => Err(Error::expected("array", v)),
                }
            }
        }
    )*};
}

impl_tuple! {
    (A.0),
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
    (A.0, B.1, C.2, D.3, E.4, F.5),
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        for v in [0.0f64, -1.5, 1e300, 0.1 + 0.2] {
            let text = v.to_value().to_string();
            let back = f64::from_value(&parse(&text).unwrap()).unwrap();
            assert_eq!(v, back, "f64 {v} round-trips exactly");
        }
        assert_eq!(u64::from_value(&u64::MAX.to_value()).unwrap(), u64::MAX);
        assert_eq!(i64::from_value(&i64::MIN.to_value()).unwrap(), i64::MIN);
        assert_eq!(
            String::from_value(&"a\"b\\c\n".to_value()).unwrap(),
            "a\"b\\c\n"
        );
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1u32, 2.5f64), (3, 4.5)];
        let back = Vec::<(u32, f64)>::from_value(&v.to_value()).unwrap();
        assert_eq!(v, back);
        let arr = [1.0f64, 2.0, 3.0];
        let back: [f64; 3] = Deserialize::from_value(&arr.to_value()).unwrap();
        assert_eq!(arr, back);
        assert_eq!(Option::<f64>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(
            Option::<f64>::from_value(&1.0.to_value()).unwrap(),
            Some(1.0)
        );
    }

    #[test]
    fn missing_field_reports_key() {
        let m = Map::new();
        let err = field::<f64>(&m, "runtime").unwrap_err();
        assert!(err.to_string().contains("runtime"));
    }
}
