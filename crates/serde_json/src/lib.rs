//! JSON facade over the in-tree [`serde`] subset, mirroring the parts of
//! `serde_json`'s API this workspace uses.

pub use serde::{Error, Map, Number, Value};

/// Serializes a value to compact JSON text, written straight from the
/// typed value ([`serde::Serialize::write_json`]) without a tree.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

/// Serializes a value to indented JSON text.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    pretty(&mut out, &value.to_value(), 0);
    Ok(out)
}

/// Parses JSON text into any deserializable type.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    T::from_value(&serde::parse(text)?)
}

/// Converts a value into a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Rebuilds a typed value from a [`Value`] tree.
pub fn from_value<T: serde::Deserialize>(value: &Value) -> Result<T, Error> {
    T::from_value(value)
}

/// Appends `v` with each member of a non-empty container on its own line,
/// indented two spaces per level; empty containers and scalars are written
/// compact.
fn pretty(out: &mut String, v: &Value, indent: usize) {
    let pad = "  ".repeat(indent + 1);
    let member = |out: &mut String, i: usize| {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&pad);
    };
    let close = match v {
        Value::Array(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                member(out, i);
                pretty(out, item, indent + 1);
            }
            ']'
        }
        Value::Object(m) if !m.is_empty() => {
            out.push('{');
            for (i, (k, item)) in m.iter().enumerate() {
                member(out, i);
                serde::write_escaped(out, k);
                out.push_str(": ");
                pretty(out, item, indent + 1);
            }
            '}'
        }
        scalar => return serde::Serialize::write_json(scalar, out),
    };
    out.push('\n');
    out.push_str(&pad[2..]);
    out.push(close);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_text() {
        let v = vec![1.5f64, 2.25, -3.0];
        let text = to_string(&v).unwrap();
        let back: Vec<f64> = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn pretty_output_reparses() {
        let text = r#"{"a":[1,2],"b":{"c":true},"d":[]}"#;
        let v: Value = from_str(text).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(
            pretty,
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {\n    \"c\": true\n  },\n  \"d\": []\n}"
        );
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(v, back);
        assert_eq!(to_string_pretty(&Value::Null).unwrap(), "null");
    }
}
