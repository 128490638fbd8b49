//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the in-tree serde
//! subset.
//!
//! The registry is unreachable in this build environment, so `syn`/`quote`
//! are unavailable; the input item is parsed directly from the
//! `proc_macro::TokenStream` and the generated impl is assembled as source
//! text. Supported shapes cover everything this workspace derives:
//!
//! * structs with named fields (including plain type generics, e.g.
//!   `Timeline<T>`),
//! * newtype/tuple structs (newtypes serialize transparently, matching both
//!   upstream serde's newtype behavior and `#[serde(transparent)]`),
//! * enums with unit, tuple, and struct variants (externally tagged:
//!   `"Variant"` or `{"Variant": ...}`).

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Serialize,
    Deserialize,
}

struct Field {
    name: String,
}

enum Body {
    /// `struct S;`
    Unit,
    /// `struct S { a: A, b: B }`
    Named(Vec<Field>),
    /// `struct S(A, B);` — arity recorded.
    Tuple(usize),
    /// `enum E { ... }`
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    body: VariantBody,
}

enum VariantBody {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Item {
    name: String,
    generics: Vec<String>,
    body: Body,
}

fn expand(input: TokenStream, mode: Mode) -> TokenStream {
    let item = parse_item(input);
    let source = match mode {
        Mode::Serialize => gen_serialize(&item),
        Mode::Deserialize => gen_deserialize(&item),
    };
    source.parse().expect("generated impl parses")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0usize;

    skip_attrs_and_vis(&tokens, &mut i);

    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        t => panic!("expected `struct` or `enum`, found {t}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        t => panic!("expected item name, found {t}"),
    };
    i += 1;

    let generics = parse_generics(&tokens, &mut i);

    let body = match kind.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Body::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Body::Unit,
            t => panic!("unsupported struct body: {t:?}"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Enum(parse_variants(g.stream()))
            }
            t => panic!("expected enum body, found {t:?}"),
        },
        other => panic!("cannot derive for `{other}` items"),
    };

    Item {
        name,
        generics,
        body,
    }
}

/// Skips outer attributes (`#[...]`, including doc comments) and visibility.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 2; // `#` + bracketed group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        *i += 1; // pub(crate) etc.
                    }
                }
            }
            _ => break,
        }
    }
}

/// Parses `<A, B, ...>` after the item name, returning the plain type-param
/// names. Bounds, lifetimes, defaults, and const params are not needed by
/// this workspace and are rejected loudly rather than silently mis-derived.
fn parse_generics(tokens: &[TokenTree], i: &mut usize) -> Vec<String> {
    let mut params = Vec::new();
    let Some(TokenTree::Punct(p)) = tokens.get(*i) else {
        return params;
    };
    if p.as_char() != '<' {
        return params;
    }
    *i += 1;
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '>' => {
                *i += 1;
                return params;
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => *i += 1,
            Some(TokenTree::Ident(id)) => {
                params.push(id.to_string());
                *i += 1;
            }
            t => panic!("unsupported generic parameter: {t:?}"),
        }
    }
}

/// Parses `name: Type, ...` (with per-field attributes and visibility).
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            t => panic!("expected field name, found {t}"),
        };
        i += 1;
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
            t => panic!("expected `:` after field `{name}`, found {t}"),
        }
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
        i += 1; // past the comma (or end)
        fields.push(Field { name });
    }
    fields
}

/// Counts the fields of a tuple struct/variant (top-level commas + 1).
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut count = 1usize;
    let mut saw_trailing_comma = false;
    for (idx, t) in tokens.iter().enumerate() {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                if idx + 1 == tokens.len() {
                    saw_trailing_comma = true;
                } else {
                    count += 1;
                }
            }
            _ => {}
        }
    }
    let _ = saw_trailing_comma;
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            t => panic!("expected variant name, found {t}"),
        };
        i += 1;
        let body = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantBody::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantBody::Tuple(count_tuple_fields(g.stream()))
            }
            _ => VariantBody::Unit,
        };
        // Skip a discriminant (`= expr`) and the separating comma.
        while i < tokens.len() {
            if let TokenTree::Punct(p) = &tokens[i] {
                if p.as_char() == ',' {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
        variants.push(Variant { name, body });
    }
    variants
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

/// `impl<A: Bound, B: Bound> Trait for Name<A, B>` header pieces.
fn impl_header(item: &Item, bound: &str) -> (String, String) {
    if item.generics.is_empty() {
        (String::new(), item.name.clone())
    } else {
        let params: Vec<String> = item
            .generics
            .iter()
            .map(|g| format!("{g}: {bound}"))
            .collect();
        (
            format!("<{}>", params.join(", ")),
            format!("{}<{}>", item.name, item.generics.join(", ")),
        )
    }
}

fn gen_serialize(item: &Item) -> String {
    let (generics, ty) = impl_header(item, "::serde::Serialize");
    let body = match &item.body {
        Body::Unit => "::serde::Value::Null".to_string(),
        Body::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Body::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", items.join(", "))
        }
        Body::Named(fields) => {
            let mut s = String::from("let mut __m = ::serde::Map::new();\n");
            for f in fields {
                s.push_str(&format!(
                    "__m.insert(\"{0}\", ::serde::Serialize::to_value(&self.{0}));\n",
                    f.name
                ));
            }
            s.push_str("::serde::Value::Object(__m)");
            s
        }
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.body {
                    VariantBody::Unit => arms.push_str(&format!(
                        "Self::{vname} => ::serde::Value::String(\"{vname}\".to_string()),\n"
                    )),
                    VariantBody::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let inner = if *n == 1 {
                            "::serde::Serialize::to_value(__f0)".to_string()
                        } else {
                            let items: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_value({b})"))
                                .collect();
                            format!("::serde::Value::Array(vec![{}])", items.join(", "))
                        };
                        arms.push_str(&format!(
                            "Self::{vname}({binds}) => {{\n\
                             let mut __o = ::serde::Map::new();\n\
                             __o.insert(\"{vname}\", {inner});\n\
                             ::serde::Value::Object(__o)\n}}\n",
                            binds = binds.join(", "),
                        ));
                    }
                    VariantBody::Named(fields) => {
                        let binds: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
                        let mut inner = String::from("let mut __m = ::serde::Map::new();\n");
                        for f in fields {
                            inner.push_str(&format!(
                                "__m.insert(\"{0}\", ::serde::Serialize::to_value({0}));\n",
                                f.name
                            ));
                        }
                        arms.push_str(&format!(
                            "Self::{vname} {{ {binds} }} => {{\n\
                             {inner}\
                             let mut __o = ::serde::Map::new();\n\
                             __o.insert(\"{vname}\", ::serde::Value::Object(__m));\n\
                             ::serde::Value::Object(__o)\n}}\n",
                            binds = binds.join(", "),
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    let write = gen_write_json(item);
    format!(
        "#[automatically_derived]\n\
         impl{generics} ::serde::Serialize for {ty} {{\n\
         fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n\
         fn write_json(&self, __out: &mut ::std::string::String) {{\n{write}\n}}\n}}\n"
    )
}

/// Statements that append `literal` (JSON text, escaped for a Rust string
/// literal by `{:?}`) to `__out`.
fn push_literal(literal: &str) -> String {
    format!("__out.push_str({literal:?});\n")
}

/// Statements that write a JSON container: `open`, then each member's
/// value (an expression of reference type) after its prefix, then
/// `close`. Each prefix is a compile-time literal: `,` before all but the
/// first member, then an object member's `"field":`.
fn write_members<'a>(
    open: char,
    members: impl Iterator<Item = (Option<&'a str>, String)>,
    close: char,
) -> String {
    let mut s = String::new();
    let mut text = String::from(open);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            text.push(',');
        }
        if let Some(key) = key {
            text.push_str(&format!("\"{key}\":"));
        }
        s.push_str(&push_literal(&text));
        s.push_str(&format!(
            "::serde::Serialize::write_json({value}, __out);\n"
        ));
        text.clear();
    }
    text.push(close);
    s.push_str(&push_literal(&text));
    s
}

/// The body of the derived `write_json`: the same bytes as printing the
/// tree `to_value` builds, written without building it.
fn gen_write_json(item: &Item) -> String {
    match &item.body {
        Body::Unit => push_literal("null"),
        Body::Tuple(1) => "::serde::Serialize::write_json(&self.0, __out);".to_string(),
        Body::Tuple(n) => write_members('[', (0..*n).map(|i| (None, format!("&self.{i}"))), ']'),
        Body::Named(fields) => write_members(
            '{',
            fields
                .iter()
                .map(|f| (Some(f.name.as_str()), format!("&self.{}", f.name))),
            '}',
        ),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.body {
                    VariantBody::Unit => arms.push_str(&format!(
                        "Self::{vname} => {{ {} }}\n",
                        push_literal(&format!("\"{vname}\""))
                    )),
                    VariantBody::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let inner = if *n == 1 {
                            "::serde::Serialize::write_json(__f0, __out);\n".to_string()
                        } else {
                            write_members('[', binds.iter().map(|b| (None, b.clone())), ']')
                        };
                        arms.push_str(&format!(
                            "Self::{vname}({binds}) => {{\n{open}{inner}{close}}}\n",
                            binds = binds.join(", "),
                            open = push_literal(&format!("{{\"{vname}\":")),
                            close = push_literal("}"),
                        ));
                    }
                    VariantBody::Named(fields) => {
                        let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let inner = write_members(
                            '{',
                            binds.iter().map(|b| (Some(*b), b.to_string())),
                            '}',
                        );
                        arms.push_str(&format!(
                            "Self::{vname} {{ {binds} }} => {{\n{open}{inner}{close}}}\n",
                            binds = binds.join(", "),
                            open = push_literal(&format!("{{\"{vname}\":")),
                            close = push_literal("}"),
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    let (generics, ty) = impl_header(item, "::serde::Deserialize");
    let name = &item.name;
    let body = match &item.body {
        Body::Unit => format!("{{ let _ = __v; Ok({name}) }}"),
        Body::Tuple(1) => {
            format!("Ok({name}(::serde::Deserialize::from_value(__v)?))")
        }
        Body::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&__items[{i}])?"))
                .collect();
            format!(
                "match __v {{\n\
                 ::serde::Value::Array(__items) if __items.len() == {n} => \
                 Ok({name}({items})),\n\
                 __other => Err(::serde::Error::expected(\"array of length {n}\", __other)),\n}}",
                items = items.join(", ")
            )
        }
        Body::Named(fields) => {
            let items: Vec<String> = fields
                .iter()
                .map(|f| format!("{0}: ::serde::field(__m, \"{0}\")?", f.name))
                .collect();
            format!(
                "match __v {{\n\
                 ::serde::Value::Object(__m) => Ok({name} {{ {items} }}),\n\
                 __other => Err(::serde::Error::expected(\"object\", __other)),\n}}",
                items = items.join(", ")
            )
        }
        Body::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.body {
                    VariantBody::Unit => {
                        unit_arms.push_str(&format!("\"{vname}\" => Ok(Self::{vname}),\n"))
                    }
                    VariantBody::Tuple(n) => {
                        let inner = if *n == 1 {
                            format!("Ok(Self::{vname}(::serde::Deserialize::from_value(__inner)?))")
                        } else {
                            let items: Vec<String> = (0..*n)
                                .map(|i| {
                                    format!("::serde::Deserialize::from_value(&__items[{i}])?")
                                })
                                .collect();
                            format!(
                                "match __inner {{\n\
                                 ::serde::Value::Array(__items) if __items.len() == {n} => \
                                 Ok(Self::{vname}({items})),\n\
                                 __other => Err(::serde::Error::expected(\
                                 \"array of length {n}\", __other)),\n}}",
                                items = items.join(", ")
                            )
                        };
                        data_arms.push_str(&format!("\"{vname}\" => {{ {inner} }}\n"));
                    }
                    VariantBody::Named(fields) => {
                        let items: Vec<String> = fields
                            .iter()
                            .map(|f| format!("{0}: ::serde::field(__m, \"{0}\")?", f.name))
                            .collect();
                        data_arms.push_str(&format!(
                            "\"{vname}\" => match __inner {{\n\
                             ::serde::Value::Object(__m) => \
                             Ok(Self::{vname} {{ {items} }}),\n\
                             __other => Err(::serde::Error::expected(\"object\", __other)),\n}}\n",
                            items = items.join(", ")
                        ));
                    }
                }
            }
            format!(
                "match __v {{\n\
                 ::serde::Value::String(__s) => match __s.as_str() {{\n\
                 {unit_arms}\
                 __other => Err(::serde::Error::msg(\
                 format!(\"unknown {name} variant `{{__other}}`\"))),\n}},\n\
                 ::serde::Value::Object(__o) if __o.len() == 1 => {{\n\
                 let (__tag, __inner) = __o.iter().next().expect(\"len checked\");\n\
                 let _ = __inner;\n\
                 match __tag.as_str() {{\n\
                 {data_arms}\
                 __other => Err(::serde::Error::msg(\
                 format!(\"unknown {name} variant `{{__other}}`\"))),\n}}\n}}\n\
                 __other => Err(::serde::Error::expected(\"{name} variant\", __other)),\n}}"
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl{generics} ::serde::Deserialize for {ty} {{\n\
         fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
         {body}\n}}\n}}\n"
    )
}
