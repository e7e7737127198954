//! Runtime values stored in environment tuples.
//!
//! SGL is dynamically typed at the value level: attributes hold integers,
//! floating point numbers, booleans or (rarely) interned strings.  Arithmetic
//! follows the usual numeric promotion rules (`Int` op `Float` → `Float`).

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::error::{EnvError, Result};

/// A single runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer. Keys, players, hit points, cooldowns.
    Int(i64),
    /// 64-bit float. Positions, movement vectors, aggregate results.
    Float(f64),
    /// Boolean. Conditions materialised into attributes.
    Bool(bool),
    /// Interned string. Categorical data such as a unit-type name.
    Str(Arc<str>),
}

impl Value {
    /// Build a string value from anything string-like.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// True if the value is numeric (`Int` or `Float`).
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_))
    }

    /// Interpret the value as a float, coercing integers and booleans.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            Value::Bool(b) => Ok(if *b { 1.0 } else { 0.0 }),
            Value::Str(s) => Err(EnvError::TypeError(format!(
                "cannot read `{s}` as a number"
            ))),
        }
    }

    /// Interpret the value as an integer, truncating floats.
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Float(f) => Ok(*f as i64),
            Value::Bool(b) => Ok(i64::from(*b)),
            Value::Str(s) => Err(EnvError::TypeError(format!(
                "cannot read `{s}` as an integer"
            ))),
        }
    }

    /// Interpret the value as a boolean. Numbers are truthy when non-zero.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            Value::Int(i) => Ok(*i != 0),
            Value::Float(f) => Ok(*f != 0.0),
            Value::Str(s) => Err(EnvError::TypeError(format!(
                "cannot read `{s}` as a boolean"
            ))),
        }
    }

    /// Borrow the string payload, if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn numeric_pair(&self, other: &Value, op: &str) -> Result<(f64, f64)> {
        if !self.is_numeric() && !matches!(self, Value::Bool(_)) {
            return Err(EnvError::TypeError(format!(
                "left operand of `{op}` is not numeric"
            )));
        }
        if !other.is_numeric() && !matches!(other, Value::Bool(_)) {
            return Err(EnvError::TypeError(format!(
                "right operand of `{op}` is not numeric"
            )));
        }
        Ok((self.as_f64()?, other.as_f64()?))
    }

    fn both_int(&self, other: &Value) -> Option<(i64, i64)> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some((*a, *b)),
            _ => None,
        }
    }

    /// `self + other` with numeric promotion.
    pub fn add(&self, other: &Value) -> Result<Value> {
        if let Some((a, b)) = self.both_int(other) {
            return Ok(Value::Int(a.wrapping_add(b)));
        }
        let (a, b) = self.numeric_pair(other, "+")?;
        Ok(Value::Float(a + b))
    }

    /// `self - other` with numeric promotion.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        if let Some((a, b)) = self.both_int(other) {
            return Ok(Value::Int(a.wrapping_sub(b)));
        }
        let (a, b) = self.numeric_pair(other, "-")?;
        Ok(Value::Float(a - b))
    }

    /// `self * other` with numeric promotion.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        if let Some((a, b)) = self.both_int(other) {
            return Ok(Value::Int(a.wrapping_mul(b)));
        }
        let (a, b) = self.numeric_pair(other, "*")?;
        Ok(Value::Float(a * b))
    }

    /// `self / other`. Integer division stays integral; division by zero errors.
    pub fn div(&self, other: &Value) -> Result<Value> {
        if let Some((a, b)) = self.both_int(other) {
            if b == 0 {
                return Err(EnvError::Arithmetic("integer division by zero".into()));
            }
            return Ok(Value::Int(a / b));
        }
        let (a, b) = self.numeric_pair(other, "/")?;
        if b == 0.0 {
            return Err(EnvError::Arithmetic("division by zero".into()));
        }
        Ok(Value::Float(a / b))
    }

    /// `self mod other`, defined on integers (floats are truncated first).
    pub fn rem(&self, other: &Value) -> Result<Value> {
        let a = self.as_i64()?;
        let b = other.as_i64()?;
        if b == 0 {
            return Err(EnvError::Arithmetic("modulo by zero".into()));
        }
        Ok(Value::Int(a.rem_euclid(b)))
    }

    /// Numeric negation.
    pub fn neg(&self) -> Result<Value> {
        match self {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(EnvError::TypeError(format!("cannot negate {other}"))),
        }
    }

    /// Pointwise minimum of two values (numeric comparison).
    pub fn min_value(&self, other: &Value) -> Result<Value> {
        Ok(if self.compare(other)? == Ordering::Greater {
            other.clone()
        } else {
            self.clone()
        })
    }

    /// Pointwise maximum of two values (numeric comparison).
    pub fn max_value(&self, other: &Value) -> Result<Value> {
        Ok(if self.compare(other)? == Ordering::Less {
            other.clone()
        } else {
            self.clone()
        })
    }

    /// Total comparison between values.  Numbers compare numerically, strings
    /// lexicographically; mixing strings and numbers is a type error.
    pub fn compare(&self, other: &Value) -> Result<Ordering> {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => Ok(a.cmp(b)),
            (Value::Str(_), _) | (_, Value::Str(_)) => Err(EnvError::TypeError(
                "cannot compare a string with a number".into(),
            )),
            _ => {
                let a = self.as_f64()?;
                let b = other.as_f64()?;
                Ok(a.partial_cmp(&b).unwrap_or(Ordering::Equal))
            }
        }
    }

    /// Partial comparison used by SGL's ordering conditions (`<`, `<=`, `>`,
    /// `>=`): like [`Value::compare`], but a NaN operand is unordered
    /// (`None`), so every ordering condition on it is false — the same
    /// semantics as IEEE comparison, and the one the spatial indexes apply
    /// when they keep NaN positions out of every rectangle.
    pub fn partial_compare(&self, other: &Value) -> Result<Option<Ordering>> {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => Ok(Some(a.cmp(b))),
            (Value::Str(_), _) | (_, Value::Str(_)) => Err(EnvError::TypeError(
                "cannot compare a string with a number".into(),
            )),
            _ => Ok(self.as_f64()?.partial_cmp(&other.as_f64()?)),
        }
    }

    /// Equality used by SGL conditions (numeric equality across Int/Float).
    pub fn loose_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Str(_), _) | (_, Value::Str(_)) => false,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => match (self.as_f64(), other.as_f64()) {
                (Ok(a), Ok(b)) => a == b,
                _ => false,
            },
        }
    }

    /// Absolute value of a numeric value.
    pub fn abs(&self) -> Result<Value> {
        match self {
            Value::Int(i) => Ok(Value::Int(i.abs())),
            Value::Float(f) => Ok(Value::Float(f.abs())),
            other => Err(EnvError::TypeError(format!("cannot take abs of {other}"))),
        }
    }

    /// Square root, always a float.
    pub fn sqrt(&self) -> Result<Value> {
        let v = self.as_f64()?;
        if v < 0.0 {
            return Err(EnvError::Arithmetic(format!("sqrt of negative value {v}")));
        }
        Ok(Value::Float(v.sqrt()))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.loose_eq(other)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
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

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_arithmetic_stays_integral() {
        let a = Value::Int(7);
        let b = Value::Int(3);
        assert_eq!(a.add(&b).unwrap(), Value::Int(10));
        assert_eq!(a.sub(&b).unwrap(), Value::Int(4));
        assert_eq!(a.mul(&b).unwrap(), Value::Int(21));
        assert_eq!(a.div(&b).unwrap(), Value::Int(2));
        assert_eq!(a.rem(&b).unwrap(), Value::Int(1));
    }

    #[test]
    fn mixed_arithmetic_promotes_to_float() {
        let a = Value::Int(7);
        let b = Value::Float(2.0);
        assert_eq!(a.add(&b).unwrap(), Value::Float(9.0));
        assert_eq!(a.div(&b).unwrap(), Value::Float(3.5));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
        assert!(Value::Float(1.0).div(&Value::Float(0.0)).is_err());
        assert!(Value::Int(1).rem(&Value::Int(0)).is_err());
    }

    #[test]
    fn rem_is_euclidean() {
        assert_eq!(Value::Int(-7).rem(&Value::Int(3)).unwrap(), Value::Int(2));
    }

    #[test]
    fn comparisons_cross_numeric_types() {
        assert_eq!(
            Value::Int(3).compare(&Value::Float(3.0)).unwrap(),
            Ordering::Equal
        );
        assert_eq!(
            Value::Int(2).compare(&Value::Float(3.5)).unwrap(),
            Ordering::Less
        );
        assert!(Value::str("a").compare(&Value::Int(1)).is_err());
        assert_eq!(
            Value::str("a").compare(&Value::str("b")).unwrap(),
            Ordering::Less
        );
    }

    #[test]
    fn nan_is_unordered_under_partial_comparison() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.partial_compare(&Value::Int(1)).unwrap(), None);
        assert_eq!(Value::Int(1).partial_compare(&nan).unwrap(), None);
        assert_eq!(
            Value::Int(2).partial_compare(&Value::Float(3.5)).unwrap(),
            Some(Ordering::Less)
        );
        assert!(Value::str("a").partial_compare(&Value::Int(1)).is_err());
        // The total comparison (used by min/max combine) is unchanged.
        assert_eq!(nan.compare(&Value::Int(1)).unwrap(), Ordering::Equal);
    }

    #[test]
    fn min_max_follow_comparison() {
        let lo = Value::Int(1);
        let hi = Value::Float(2.5);
        assert_eq!(lo.min_value(&hi).unwrap(), Value::Int(1));
        assert_eq!(lo.max_value(&hi).unwrap(), Value::Float(2.5));
    }

    #[test]
    fn loose_equality() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_ne!(Value::Int(2), Value::str("2"));
        assert_eq!(Value::str("knight"), Value::str("knight"));
        assert_eq!(Value::Bool(true), Value::Bool(true));
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::Bool(true).as_f64().unwrap(), 1.0);
        assert_eq!(Value::Float(3.7).as_i64().unwrap(), 3);
        assert!(Value::Float(0.0).as_bool().is_ok());
        assert!(!Value::Float(0.0).as_bool().unwrap());
        assert!(Value::str("x").as_f64().is_err());
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Int(1).as_str(), None);
    }

    #[test]
    fn unary_helpers() {
        assert_eq!(Value::Int(-4).abs().unwrap(), Value::Int(4));
        assert_eq!(Value::Float(2.25).sqrt().unwrap(), Value::Float(1.5));
        assert!(Value::Float(-1.0).sqrt().is_err());
        assert_eq!(Value::Int(5).neg().unwrap(), Value::Int(-5));
        assert!(Value::str("a").neg().is_err());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Bool(false).to_string(), "false");
        assert_eq!(Value::str("orc").to_string(), "\"orc\"");
    }

    #[test]
    fn conversions_from_rust_types() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(1.5f64), Value::Float(1.5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("elf"), Value::str("elf"));
    }
}
