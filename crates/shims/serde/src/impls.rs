//! `Serialize` / `Deserialize` implementations for the std types that appear in the
//! workspace's serialized state.

use crate::value::{Number, Value};
use crate::{Deserialize, Error, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::Hash;
use std::sync::Arc;

fn type_error(expected: &str, found: &Value) -> Error {
    Error::custom(format!("expected {expected}, found {}", found.kind_name()))
}

// --- booleans and characters -------------------------------------------------------

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(type_error("bool", other)),
        }
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<'de> Deserialize<'de> for char {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::String(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(type_error("single-character string", other)),
        }
    }
}

// --- integers ----------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::U64(*self as u64))
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let number = match value {
                    Value::Number(n) => n,
                    other => return Err(type_error(stringify!($t), other)),
                };
                number
                    .as_u64()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| {
                        Error::custom(format!(
                            "number {number:?} out of range for {}",
                            stringify!($t)
                        ))
                    })
            }
        }
    )*};
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 {
                    Value::Number(Number::U64(n as u64))
                } else {
                    Value::Number(Number::I64(n))
                }
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let number = match value {
                    Value::Number(n) => n,
                    other => return Err(type_error(stringify!($t), other)),
                };
                number
                    .as_i64()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| {
                        Error::custom(format!(
                            "number {number:?} out of range for {}",
                            stringify!($t)
                        ))
                    })
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8, i16, i32, i64, isize);

// --- floats ------------------------------------------------------------------------

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::F64(*self as f64))
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::Number(n) => Ok(n.as_f64() as $t),
                    // serde_json emits non-finite floats as null.
                    Value::Null => Ok(<$t>::NAN),
                    other => Err(type_error(stringify!($t), other)),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

// --- strings -----------------------------------------------------------------------

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl<'de> Deserialize<'de> for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::String(s) => Ok(s.clone()),
            other => Err(type_error("string", other)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

/// Deserializing `&'static str` leaks the string. This only exists so that error
/// enums carrying `&'static str` diagnostics (e.g. `MpiError::Unsupported`) can derive
/// `Deserialize`; such values are tiny and deserialized at most a handful of times.
impl<'de> Deserialize<'de> for &'static str {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::String(s) => Ok(Box::leak(s.clone().into_boxed_str())),
            other => Err(type_error("string", other)),
        }
    }
}

// --- containers --------------------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        T::from_value(value).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Arc<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        T::from_value(value).map(Arc::new)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(type_error("array", other)),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::from_value(value)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error::custom(format!("expected array of length {N}, found {len}")))
    }
}

macro_rules! impl_tuple {
    ($($name:ident : $index:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$index.to_value()),+])
            }
        }
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                const LEN: usize = 0 $(+ { let _ = $index; 1 })+;
                match value {
                    Value::Array(items) if items.len() == LEN => {
                        Ok(($($name::from_value(&items[$index])?,)+))
                    }
                    other => Err(type_error("tuple array", other)),
                }
            }
        }
    };
}

impl_tuple!(A: 0, B: 1);
impl_tuple!(A: 0, B: 1, C: 2);
impl_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

// --- maps and sets -----------------------------------------------------------------

/// Map keys serializable as JSON object keys (strings and integers, as in serde_json).
pub trait MapKey: Sized {
    /// Render the key as an object-key string.
    fn to_key(&self) -> String;
    /// Parse the key back from an object-key string.
    fn from_key(key: &str) -> Result<Self, Error>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(key: &str) -> Result<Self, Error> {
        Ok(key.to_string())
    }
}

macro_rules! impl_int_key {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(key: &str) -> Result<Self, Error> {
                key.parse().map_err(|_| {
                    Error::custom(format!("invalid {} map key {key:?}", stringify!($t)))
                })
            }
        }
    )*};
}

impl_int_key!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K: MapKey + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_value()))
                .collect(),
        )
    }
}

impl<'de, K: MapKey + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Object(entries) => entries
                .iter()
                .map(|(k, v)| Ok((K::from_key(k)?, V::from_value(v)?)))
                .collect(),
            other => Err(type_error("object", other)),
        }
    }
}

impl<K: MapKey + Eq + Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        // Sort keys for deterministic output.
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_key(), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::object(entries)
    }
}

impl<'de, K: MapKey + Eq + Hash, V: Deserialize<'de>> Deserialize<'de> for HashMap<K, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Object(entries) => entries
                .iter()
                .map(|(k, v)| Ok((K::from_key(k)?, V::from_value(v)?)))
                .collect(),
            other => Err(type_error("object", other)),
        }
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<'de, T: Deserialize<'de> + Ord> Deserialize<'de> for BTreeSet<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(type_error("array", other)),
        }
    }
}

impl<T: Serialize + Eq + Hash + Ord> Serialize for HashSet<T> {
    fn to_value(&self) -> Value {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort();
        Value::Array(items.into_iter().map(Serialize::to_value).collect())
    }
}

impl<'de, T: Deserialize<'de> + Eq + Hash> Deserialize<'de> for HashSet<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(type_error("array", other)),
        }
    }
}

// --- references --------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}
