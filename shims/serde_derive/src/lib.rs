//! Offline shim for serde's derive macros.
//!
//! Parses the derive input with the built-in `proc_macro` API (no `syn` /
//! `quote`, which are unavailable offline) and supports exactly the shapes
//! present in this workspace:
//!
//! * structs with named fields → JSON objects (field order preserved),
//! * tuple structs with one field (newtypes) → the inner value,
//! * tuple structs with several fields → JSON arrays,
//! * enums whose variants are all unit variants → JSON strings.
//!
//! `Deserialize` is derived for structs with named fields only: every field
//! is read through `serde::de::field` (an absent or null `Option` is
//! `None`, any other absent field is an error naming the type and field),
//! or through `serde::de::field_or_default` when marked
//! `#[serde(default)]`. Unknown keys are ignored.
//!
//! Anything else (generics, data-carrying enum variants, other `serde`
//! attributes) produces a `compile_error!` naming the unsupported
//! construct, so a future change fails loudly instead of serializing
//! garbage.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One field of a named-field struct.
struct Field {
    name: String,
    /// Marked `#[serde(default)]`: absent reads as `Default::default()`.
    default: bool,
}

enum Shape {
    /// Named-field struct with its fields in declaration order.
    Struct(Vec<Field>),
    /// Tuple struct with the given number of fields.
    Tuple(usize),
    /// Unit struct (no fields).
    Unit,
    /// Enum whose variants are all unit variants.
    Enum(Vec<String>),
}

struct Item {
    name: String,
    shape: Shape,
}

fn err(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

/// Skips one attribute (`#` followed by a bracket group) if present.
/// Returns true when an attribute was consumed.
fn skip_attr(tokens: &[TokenTree], i: &mut usize) -> bool {
    if let Some(TokenTree::Punct(p)) = tokens.get(*i) {
        if p.as_char() == '#' {
            if let Some(TokenTree::Group(g)) = tokens.get(*i + 1) {
                if g.delimiter() == Delimiter::Bracket {
                    *i += 2;
                    return true;
                }
            }
        }
    }
    false
}

/// Skips a visibility qualifier (`pub`, optionally followed by `(...)`).
fn skip_vis(tokens: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = tokens.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    while skip_attr(&tokens, &mut i) {}
    skip_vis(&tokens, &mut i);

    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, found {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected a type name, found {other:?}")),
    };
    i += 1;

    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "the serde shim derive does not support generic type `{name}`"
            ));
        }
    }

    match kind.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                Ok(Item {
                    name,
                    shape: Shape::Struct(fields),
                })
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = count_tuple_fields(g.stream());
                Ok(Item {
                    name,
                    shape: Shape::Tuple(arity),
                })
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Ok(Item {
                name,
                shape: Shape::Unit,
            }),
            other => Err(format!("unsupported struct body for `{name}`: {other:?}")),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let variants = parse_unit_variants(&name, g.stream())?;
                Ok(Item {
                    name,
                    shape: Shape::Enum(variants),
                })
            }
            other => Err(format!("unsupported enum body for `{name}`: {other:?}")),
        },
        other => Err(format!("cannot derive serde traits for a `{other}` item")),
    }
}

/// Whether the attribute just before `tokens[i]` (a `#` and its bracket
/// group) is `#[serde(default)]`; any other `serde` attribute is an error.
fn serde_default(tokens: &[TokenTree], i: usize) -> Result<bool, String> {
    let Some(TokenTree::Group(attr)) = tokens.get(i - 1) else {
        return Ok(false);
    };
    let inner: Vec<String> = attr.stream().into_iter().map(|t| t.to_string()).collect();
    match inner.first().map(String::as_str) {
        Some("serde") if inner.get(1).map(String::as_str) == Some("(default)") => Ok(true),
        Some("serde") => Err(format!(
            "the serde shim derive supports only `#[serde(default)]`, not `#[{}]`",
            inner.join("")
        )),
        _ => Ok(false),
    }
}

/// Extracts the fields of a named-field struct body, skipping attributes
/// other than `#[serde(default)]`, visibility and types (commas nested in
/// `<...>` or groups do not split).
fn parse_named_fields(body: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let mut default = false;
        while skip_attr(&tokens, &mut i) {
            default |= serde_default(&tokens, i)?;
        }
        skip_vis(&tokens, &mut i);
        let field = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => return Err(format!("expected a field name, found {other:?}")),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => {
                return Err(format!(
                    "expected `:` after field `{field}`, found {other:?}"
                ))
            }
        }
        // Skip the type: advance to the next top-level comma, tracking angle
        // bracket depth (type-level `< >`; groups are single token trees).
        let mut angle = 0i32;
        while let Some(tt) = tokens.get(i) {
            match tt {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        i += 1; // past the comma (or the end)
        fields.push(Field {
            name: field,
            default,
        });
    }
    Ok(fields)
}

/// Counts the fields of a tuple struct body (top-level commas only).
fn count_tuple_fields(body: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut angle = 0i32;
    let mut fields = 1;
    let mut trailing_comma = false;
    for (idx, tt) in tokens.iter().enumerate() {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                if idx + 1 == tokens.len() {
                    trailing_comma = true;
                } else {
                    fields += 1;
                }
            }
            _ => {}
        }
    }
    let _ = trailing_comma;
    fields
}

/// Extracts variant names from an enum body, requiring every variant to be
/// a unit variant.
fn parse_unit_variants(enum_name: &str, body: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while skip_attr(&tokens, &mut i) {}
        let variant = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => return Err(format!("expected a variant name, found {other:?}")),
        };
        i += 1;
        match tokens.get(i) {
            None => {}
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            Some(TokenTree::Group(_)) => {
                return Err(format!(
                    "the serde shim derive only supports unit variants; \
                     `{enum_name}::{variant}` carries data"
                ));
            }
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                return Err(format!(
                    "the serde shim derive does not support explicit discriminants \
                     (`{enum_name}::{variant}`)"
                ));
            }
            other => return Err(format!("unexpected token after variant: {other:?}")),
        }
        variants.push(variant);
    }
    Ok(variants)
}

/// `#[derive(Serialize)]`: emits an `impl serde::Serialize` mapping the type
/// onto the shim's JSON value model.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(e) => return err(&e),
    };
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(fields) => {
            let pushes: String = fields
                .iter()
                .map(|Field { name: f, .. }| {
                    format!(
                        "__fields.push(({f:?}.to_string(), \
                         serde::Serialize::to_json(&self.{f})));"
                    )
                })
                .collect();
            format!(
                "let mut __fields: Vec<(String, serde::Value)> = Vec::new();\
                 {pushes}\
                 serde::Value::Object(__fields)"
            )
        }
        Shape::Tuple(1) => "serde::Serialize::to_json(&self.0)".to_string(),
        Shape::Tuple(arity) => {
            let items: Vec<String> = (0..*arity)
                .map(|i| format!("serde::Serialize::to_json(&self.{i})"))
                .collect();
            format!("serde::Value::Array(vec![{}])", items.join(", "))
        }
        Shape::Unit => "serde::Value::Null".to_string(),
        Shape::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| format!("{name}::{v} => serde::Value::Str({v:?}.to_string()),"))
                .collect();
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl serde::Serialize for {name} {{\
             fn to_json(&self) -> serde::Value {{ {body} }}\
         }}"
    )
    .parse()
    .unwrap()
}

/// `#[derive(Deserialize)]`: emits an `impl serde::Deserialize` reading a
/// named-field struct back from the JSON object its `Serialize` derive
/// writes.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(e) => return err(&e),
    };
    let name = &item.name;
    let Shape::Struct(fields) = &item.shape else {
        return err(&format!(
            "the serde shim derives Deserialize only for structs with named fields, not `{name}`"
        ));
    };
    let reads: String = fields
        .iter()
        .map(|Field { name: f, default }| {
            let read = if *default {
                "field_or_default"
            } else {
                "field"
            };
            format!("{f}: serde::de::{read}(value, {name:?}, {f:?})?,")
        })
        .collect();
    format!(
        "impl serde::Deserialize for {name} {{\
             fn from_json(value: &serde::Value) -> Result<Self, String> {{\
                 serde::de::object(value, {name:?})?;\
                 Ok({name} {{ {reads} }})\
             }}\
         }}"
    )
    .parse()
    .unwrap()
}
