//! Offline stand-in for `serde`.
//!
//! The real serde models serialization as a visitor over a generic data
//! model; this shim collapses that to a concrete JSON-shaped [`Value`]
//! tree, which is all the workspace needs (its only format is JSON via
//! the sibling `serde_json` shim). The public surface kept compatible:
//!
//! * `use serde::{Serialize, Deserialize};` imports both the traits and
//!   the derive macros (same-name trick as real serde's `derive` feature);
//! * derived structs serialize as objects keyed by field name, enums as
//!   externally tagged values (unit variants as bare strings) — matching
//!   the wire format the topology round-trip tests pin down.

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped value: the concrete data model every `Serialize` /
/// `Deserialize` implementation converts through.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` (also the encoding of `None` and non-finite floats).
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer (used when the value exceeds `i64::MAX`).
    U64(u64),
    /// Floating-point number.
    F64(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Arr(Vec<Value>),
    /// JSON object; insertion order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A short name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) | Value::U64(_) | Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

/// Deserialization failure: a human-readable path + expectation.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

impl DeError {
    /// Builds an error for a type mismatch.
    pub fn expected(what: &str, got: &Value) -> Self {
        DeError(format!("expected {what}, found {}", got.kind()))
    }
}

/// Conversion into the [`Value`] data model.
pub trait Serialize {
    /// Serializes `self` as a [`Value`] tree.
    fn to_value(&self) -> Value;
}

/// Conversion from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a [`Value`] tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

/// Derive-macro helper: extracts and deserializes one named struct field.
pub fn de_field<T: Deserialize>(v: &Value, strukt: &str, field: &str) -> Result<T, DeError> {
    match v.get(field) {
        Some(inner) => T::from_value(inner).map_err(|e| DeError(format!("{strukt}.{field}: {e}"))),
        None => Err(DeError(format!("{strukt}: missing field {field:?}"))),
    }
}

/// Derive-macro helper: deserializes an already-extracted field value,
/// labelling errors with the `struct.field` path (the `#[serde(default)]`
/// counterpart of [`de_field`], which takes the containing object).
pub fn de_field_val<T: Deserialize>(
    inner: &Value,
    strukt: &str,
    field: &str,
) -> Result<T, DeError> {
    T::from_value(inner).map_err(|e| DeError(format!("{strukt}.{field}: {e}")))
}

/// Derive-macro helper behind `#[serde(deny_unknown_fields)]`: rejects any
/// object key that matches no declared field, so typos in hand-written
/// JSON fail loudly instead of silently taking a default.
pub fn check_unknown_fields(v: &Value, strukt: &str, known: &[&str]) -> Result<(), DeError> {
    if let Value::Obj(fields) = v {
        for (key, _) in fields {
            if !known.contains(&key.as_str()) {
                return Err(DeError(format!(
                    "{strukt}: unknown field {key:?} (expected one of {known:?})"
                )));
            }
        }
    }
    Ok(())
}

/// Derive-macro helper: extracts and deserializes one tuple element.
pub fn de_element<T: Deserialize>(items: &[Value], strukt: &str, idx: usize) -> Result<T, DeError> {
    match items.get(idx) {
        Some(inner) => T::from_value(inner).map_err(|e| DeError(format!("{strukt}[{idx}]: {e}"))),
        None => Err(DeError(format!("{strukt}: missing element {idx}"))),
    }
}

// ---- primitive impls -------------------------------------------------------

macro_rules! ser_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::I64(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let wide: i64 = match *v {
                    Value::I64(n) => n,
                    Value::U64(n) => i64::try_from(n)
                        .map_err(|_| DeError(format!("integer {n} out of range")))?,
                    Value::F64(n) if n.fract() == 0.0 && n.abs() < 9.0e18 => n as i64,
                    ref other => return Err(DeError::expected("integer", other)),
                };
                <$t>::try_from(wide).map_err(|_| DeError(format!("integer {wide} out of range")))
            }
        }
    )*};
}
ser_signed!(i8, i16, i32, i64, isize);

/// `2^64`, exact in an `f64`: the least float an unsigned field rejects,
/// so the `as u64` below never saturates.
const U64_END: f64 = 18_446_744_073_709_551_616.0;

macro_rules! ser_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let wide = *self as u64;
                if wide <= i64::MAX as u64 { Value::I64(wide as i64) } else { Value::U64(wide) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let wide: u64 = match *v {
                    Value::U64(n) => n,
                    Value::I64(n) => u64::try_from(n)
                        .map_err(|_| DeError(format!("integer {n} out of range")))?,
                    Value::F64(n) if n.fract() == 0.0 && (0.0..U64_END).contains(&n) => n as u64,
                    Value::F64(n) if n.fract() == 0.0 => {
                        return Err(DeError(format!("integer {n:.0} out of range")))
                    }
                    ref other => return Err(DeError::expected("integer", other)),
                };
                <$t>::try_from(wide).map_err(|_| DeError(format!("integer {wide} out of range")))
            }
        }
    )*};
}
ser_unsigned!(u8, u16, u32, u64, usize);

macro_rules! ser_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let x = *self as f64;
                if x.is_finite() { Value::F64(x) } else { Value::Null }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match *v {
                    Value::F64(n) => Ok(n as $t),
                    Value::I64(n) => Ok(n as $t),
                    Value::U64(n) => Ok(n as $t),
                    // Round-trip of the non-finite → null encoding above.
                    Value::Null => Ok(<$t>::NAN),
                    ref other => Err(DeError::expected("number", other)),
                }
            }
        }
    )*};
}
ser_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", other)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(DeError::expected("single-character string", other)),
        }
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", other)),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(x) => x.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Arr(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("array", other)),
        }
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Arr(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Arr(items) => Ok(($(de_element::<$t>(items, "tuple", $n)?,)+)),
                    other => Err(DeError::expected("array", other)),
                }
            }
        }
    )*};
}
ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(f64::from_value(&f64::INFINITY.to_value()).unwrap().is_nan());
        assert_eq!(
            Vec::<u8>::from_value(&vec![1u8, 2, 3].to_value()).unwrap(),
            vec![1, 2, 3]
        );
        assert_eq!(Option::<f64>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(
            <(f64, u32)>::from_value(&(2.5f64, 9u32).to_value()).unwrap(),
            (2.5, 9)
        );
    }

    #[test]
    fn errors_name_the_problem() {
        let err = u32::from_value(&Value::Str("x".into())).unwrap_err();
        assert!(err.to_string().contains("expected integer"));
        let err = de_field::<u32>(&Value::Obj(vec![]), "Spec", "m").unwrap_err();
        assert!(err.to_string().contains("missing field"));
    }

    #[test]
    fn float_integers_at_or_above_2_pow_64_are_errors() {
        assert!(u64::from_value(&Value::F64(U64_END)).is_err());
        let err = u64::from_value(&Value::F64(1.89e19)).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        assert!(usize::from_value(&Value::F64(1.89e19)).is_err());
        assert_eq!(
            u64::from_value(&Value::F64(1.8e19)).unwrap(),
            18_000_000_000_000_000_000
        );
    }
}
