//! Offline shim for the `serde` facade.
//!
//! Implements the exact surface this workspace consumes: the
//! [`Serialize`]/[`Deserialize`] traits, their derive macros (re-exported
//! from the companion `serde_derive` shim) and a JSON-shaped [`Value`] data
//! model that `serde_json::to_string_pretty` renders. See `shims/README.md`.

pub use serde_derive::{Deserialize, Serialize};

/// A JSON value: the serialization data model of the shim.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer (covers every signed width up to `i128`).
    Int(i128),
    /// Unsigned integer.
    Uint(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object value (`None` for non-objects and
    /// missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Uint(u) => Some(*u),
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a signed integer, if losslessly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => i64::try_from(*i).ok(),
            Value::Uint(u) => i64::try_from(*u).ok(),
            _ => None,
        }
    }

    /// The value as a float (integers convert; strings do not).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Uint(u) => Some(*u as f64),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object's `(key, value)` pairs in document order.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Whether the value is JSON `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Types that can serialize themselves into the JSON [`Value`] model.
pub trait Serialize {
    /// Converts `self` to a JSON value.
    fn to_json(&self) -> Value;
}

impl Serialize for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

/// Types that can read themselves back from the JSON [`Value`] model: the
/// mirror of [`Serialize::to_json`]. `#[derive(Deserialize)]` implements it
/// for structs with named fields (see [`de`]); the primitives, `Option`,
/// `Vec` and pairs are implemented here.
pub trait Deserialize: Sized {
    /// Reads a value of the type from `value`.
    ///
    /// # Errors
    ///
    /// Returns a one-line description of what does not fit, naming the
    /// type and field for derived impls.
    fn from_json(value: &Value) -> Result<Self, String>;
}

/// The helpers `#[derive(Deserialize)]` expands to, also used by the
/// hand-written impls.
pub mod de {
    use super::{Deserialize, Value};

    /// The error for a value that is not the `expected` kind.
    pub(crate) fn mismatch(expected: &str, value: &Value) -> String {
        let found = match value {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Int(_) | Value::Uint(_) | Value::Float(_) => "a number",
            Value::Str(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        };
        format!("expected {expected}, found {found}")
    }

    /// Checks that `value`, read as type `ty`, is an object.
    ///
    /// # Errors
    ///
    /// Names `ty` and the kind found.
    pub fn object(value: &Value, ty: &str) -> Result<(), String> {
        match value {
            Value::Object(_) => Ok(()),
            other => Err(format!("{ty}: {}", mismatch("an object", other))),
        }
    }

    /// Reads field `key` of the object `value` as part of type `ty`. An
    /// absent field reads as `null`, so an `Option` field reads `None` and
    /// any other field is missing. Unknown keys are never looked at.
    ///
    /// # Errors
    ///
    /// Names `ty` and `key`, then what does not fit.
    pub fn field<T: Deserialize>(value: &Value, ty: &str, key: &str) -> Result<T, String> {
        match value.get(key) {
            Some(v) => T::from_json(v).map_err(|e| format!("{ty}.{key}: {e}")),
            None => T::from_json(&Value::Null).map_err(|_| format!("{ty} is missing `{key}`")),
        }
    }

    /// Like [`field`], but an absent field reads as `T::default()`
    /// (`#[serde(default)]`).
    ///
    /// # Errors
    ///
    /// As [`field`], for a field that is present.
    pub fn field_or_default<T: Deserialize + Default>(
        value: &Value,
        ty: &str,
        key: &str,
    ) -> Result<T, String> {
        match value.get(key) {
            Some(_) => field(value, ty, key),
            None => Ok(T::default()),
        }
    }
}

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Value {
                Value::Uint(*self as u64)
            }
        }
    )*};
}

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
    )*};
}

ser_uint!(u8, u16, u32, u64, usize);
ser_int!(i8, i16, i32, i64, i128, isize);

/// Types read with one [`Value`] accessor.
macro_rules! de_via {
    ($($t:ty => $accessor:ident, $expected:literal;)*) => {$(
        impl Deserialize for $t {
            fn from_json(value: &Value) -> Result<Self, String> {
                value.$accessor().ok_or_else(|| de::mismatch($expected, value))
            }
        }
    )*};
}

de_via! {
    u64 => as_u64, "an unsigned integer";
    i64 => as_i64, "a 64-bit integer";
    f64 => as_f64, "a number";
    bool => as_bool, "a boolean";
}

/// Narrower unsigned integers: a `u64` that must fit.
macro_rules! de_narrow_uint {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_json(value: &Value) -> Result<Self, String> {
                let wide = u64::from_json(value)?;
                <$t>::try_from(wide).map_err(|_| format!("{wide} does not fit {}", stringify!($t)))
            }
        }
    )*};
}

de_narrow_uint!(u32, usize);

impl Serialize for f64 {
    fn to_json(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for f32 {
    fn to_json(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Serialize for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_json(value: &Value) -> Result<Self, String> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| de::mismatch("a string", value))
    }
}

impl Serialize for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json(value: &Value) -> Result<Self, String> {
        match value {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json(value: &Value) -> Result<Self, String> {
        let items = value
            .as_array()
            .ok_or_else(|| de::mismatch("an array", value))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_json(value: &Value) -> Result<Self, String> {
        match value.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            Some(items) => Err(format!("expected a pair, found {} items", items.len())),
            None => Err(de::mismatch("a pair", value)),
        }
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_serialize() {
        assert_eq!(7u64.to_json(), Value::Uint(7));
        assert_eq!((-3i128).to_json(), Value::Int(-3));
        assert_eq!(true.to_json(), Value::Bool(true));
        assert_eq!(None::<u64>.to_json(), Value::Null);
        assert_eq!(
            vec![1u32, 2].to_json(),
            Value::Array(vec![Value::Uint(1), Value::Uint(2)])
        );
        assert_eq!(
            (1usize, 2usize).to_json(),
            Value::Array(vec![Value::Uint(1), Value::Uint(2)])
        );
    }

    #[test]
    fn primitives_deserialize_with_range_checks() {
        assert_eq!(u64::from_json(&Value::Int(7)), Ok(7));
        assert!(u64::from_json(&Value::Int(-1)).is_err());
        assert!(u64::from_json(&Value::Float(1.5)).is_err());
        assert_eq!(
            u32::from_json(&Value::Uint(u64::from(u32::MAX))),
            Ok(u32::MAX)
        );
        assert_eq!(
            u32::from_json(&Value::Uint(1 << 32)),
            Err("4294967296 does not fit u32".to_string())
        );
        assert_eq!(usize::from_json(&Value::Uint(3)), Ok(3));
        assert_eq!(i64::from_json(&Value::Int(-3)), Ok(-3));
        assert!(i64::from_json(&Value::Uint(u64::MAX)).is_err());
        assert_eq!(f64::from_json(&Value::Uint(2)), Ok(2.0));
        assert_eq!(
            bool::from_json(&Value::Str("true".into())),
            Err("expected a boolean, found a string".to_string())
        );
        assert_eq!(Option::<u64>::from_json(&Value::Null), Ok(None));
        assert_eq!(Option::<u64>::from_json(&Value::Uint(4)), Ok(Some(4)));
        let list = Value::Array(vec![Value::Uint(1), Value::Str("x".into())]);
        assert_eq!(
            Vec::<u64>::from_json(&list),
            Err("[1]: expected an unsigned integer, found a string".to_string())
        );
        let pair = Value::Array(vec![Value::Str("a".into()), Value::Int(-2)]);
        assert_eq!(<(String, i64)>::from_json(&pair), Ok(("a".to_string(), -2)));
        assert!(<(u64, u64)>::from_json(&Value::Array(vec![Value::Uint(1)])).is_err());
    }

    #[test]
    fn fields_name_the_type_and_key() {
        let object = Value::Object(vec![("a".into(), Value::Str("x".into()))]);
        assert_eq!(
            de::field::<u64>(&object, "T", "a"),
            Err("T.a: expected an unsigned integer, found a string".to_string())
        );
        assert_eq!(
            de::field::<u64>(&object, "T", "b"),
            Err("T is missing `b`".to_string())
        );
        assert_eq!(de::field::<Option<u64>>(&object, "T", "b"), Ok(None));
        assert_eq!(de::field_or_default::<bool>(&object, "T", "b"), Ok(false));
        assert!(de::field_or_default::<u64>(&object, "T", "a").is_err());
        assert!(de::object(&Value::Null, "T")
            .unwrap_err()
            .starts_with("T: "));
    }
}
