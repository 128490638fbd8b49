//! `Serialize::write_json` writes exactly the bytes of printing the tree
//! `to_value` builds, for every impl in the crate and every shape the
//! derive supports.

use serde::{Deserialize, Serialize, Value};

/// Writes `x` both ways, asserts the bytes agree, and returns them.
fn written<T: Serialize + ?Sized>(x: &T) -> String {
    let mut direct = String::new();
    x.write_json(&mut direct);
    assert_eq!(direct, x.to_value().to_string(), "writer and tree disagree");
    direct
}

#[test]
fn floats_keep_their_text() {
    assert_eq!(written(&f64::NAN), "null");
    assert_eq!(written(&f64::INFINITY), "null");
    assert_eq!(written(&f64::NEG_INFINITY), "null");
    assert_eq!(written(&-0.0f64), "-0");
    assert_eq!(written(&0.0f64), "0");
    assert_eq!(written(&1e300f64), format!("{}", 1e300f64));
    assert_eq!(written(&(0.1f64 + 0.2)), "0.30000000000000004");
    assert_eq!(written(&5e-324f64), format!("{}", 5e-324f64));
    assert_eq!(written(&1.5f32), "1.5");
    assert_eq!(written(&f32::NAN), "null");
}

#[test]
fn integers_keep_their_text() {
    assert_eq!(written(&u64::MAX), "18446744073709551615");
    assert_eq!(written(&i64::MIN), "-9223372036854775808");
    assert_eq!(written(&i64::MAX), "9223372036854775807");
    assert_eq!(written(&0u8), "0");
    assert_eq!(written(&-7i8), "-7");
    assert_eq!(written(&u32::MAX), "4294967295");
    assert_eq!(written(&usize::MAX), usize::MAX.to_string());
    assert_eq!(written(&isize::MIN), isize::MIN.to_string());
    assert_eq!(written(&-1i16), "-1");
}

#[test]
fn strings_escape_like_the_tree() {
    let controls: String = (0u8..0x20).map(char::from).collect();
    written(&controls);
    for s in [
        "",
        "plain",
        "\"",
        "\\",
        "\u{7f}",
        "é€😀𝄞",
        "a\"b\\c\nd\u{1}é",
    ] {
        written(s);
        written(&s.to_string());
    }
    for c in ['"', '\\', '\n', '\u{0}', '\u{1f}', '\u{7f}', 'é', '😀'] {
        written(&c);
    }
    assert_eq!(written("tab\there"), "\"tab\\there\"");
    assert_eq!(written(&true), "true");
    assert_eq!(written(&false), "false");
}

#[test]
fn containers_and_options() {
    assert_eq!(written(&Vec::<u32>::new()), "[]");
    assert_eq!(written(&[0u8; 0]), "[]");
    assert_eq!(written(&[1.5f64, -0.0][..]), "[1.5,-0]");
    assert_eq!(written(&[[1u8, 2], [3, 4]]), "[[1,2],[3,4]]");
    assert_eq!(written(&Some(Some(3u32))), "3");
    assert_eq!(written(&Some(None::<u32>)), "null");
    assert_eq!(written(&None::<Option<u32>>), "null");
    assert_eq!(written(&vec![Some(1u8), None]), "[1,null]");
    assert_eq!(written(&Box::new(2u8)), "2");
    assert_eq!(written(&&"ref"), "\"ref\"");
    assert_eq!(written(&(1u8,)), "[1]");
    assert_eq!(written(&(1u8, "b", 2.5f64)), "[1,\"b\",2.5]");
    written(&(1u8, 2u16, 3u32, 4u64, 5i8, -6i64));
    written(&vec![(String::from("k"), vec![Some(1.0f64), None])]);
    let tree: Value = serde::parse(r#"{"a":[1,-2,3.5,"x\n",true,null],"b":{},"c":[]}"#).unwrap();
    assert_eq!(
        written(&tree),
        r#"{"a":[1,-2,3.5,"x\n",true,null],"b":{},"c":[]}"#
    );
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Newtype(f64);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair(u32, String);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Empty {}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Named<T> {
    first: T,
    second: Option<Vec<Newtype>>,
    unit: Unit,
    pair: Pair,
    empty: Empty,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Plain,
    One(u8),
    Two(i64, Option<f64>),
    Fields { x: f64, name: String },
    NoFields {},
    Nested(Box<Shape>),
}

#[test]
fn derived_shapes_match_the_tree() {
    assert_eq!(written(&Unit), "null");
    assert_eq!(written(&Newtype(-0.0)), "-0");
    assert_eq!(written(&Pair(7, "q\"".into())), "[7,\"q\\\"\"]");
    assert_eq!(written(&Empty {}), "{}");
    let named = Named {
        first: 1u64,
        second: Some(vec![Newtype(0.5), Newtype(f64::NAN)]),
        unit: Unit,
        pair: Pair(0, String::new()),
        empty: Empty {},
    };
    assert_eq!(
        written(&named),
        r#"{"first":1,"second":[0.5,null],"unit":null,"pair":[0,""],"empty":{}}"#
    );
    let none = Named {
        first: "s",
        second: None,
        unit: Unit,
        pair: Pair(1, "é".into()),
        empty: Empty {},
    };
    written(&none);
    let shapes = [
        (Shape::Plain, r#""Plain""#),
        (Shape::One(3), r#"{"One":3}"#),
        (Shape::Two(-1, None), r#"{"Two":[-1,null]}"#),
        (
            Shape::Fields {
                x: 2.5,
                name: "\u{1}".into(),
            },
            r#"{"Fields":{"x":2.5,"name":"\u0001"}}"#,
        ),
        (Shape::NoFields {}, r#"{"NoFields":{}}"#),
        (
            Shape::Nested(Box::new(Shape::One(1))),
            r#"{"Nested":{"One":1}}"#,
        ),
    ];
    for (shape, want) in &shapes {
        let text = written(shape);
        assert_eq!(&text, want);
        let back = Shape::from_value(&serde::parse(&text).unwrap()).unwrap();
        assert_eq!(&back, shape);
    }
    written(&Shape::Two(i64::MIN, Some(1e300)));
    written(&shapes.into_iter().map(|(s, _)| s).collect::<Vec<_>>());
}
