//! Span and event field values.

/// A field value attached to a span or instant event: exactly what one
/// flight-recorder slot word can hold. Integers and bools travel as the
/// word itself (an `i64` as its two's-complement bits, a bool as 0/1);
/// a `&'static str` — a stage, outcome or violation kind — travels as
/// its interned name id. There is no conversion from an owned `String`
/// or a float, so a span site cannot record what the ring would drop:
///
/// ```compile_fail
/// let winner = String::from("greedy");
/// let _span = chronus_trace::span!("engine.plan", winner = winner);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldValue {
    /// An integer or bool, as the slot word.
    U64(u64),
    /// A static name.
    Str(&'static str),
}

impl FieldValue {
    /// Encodes the value as a JSON literal (strings escaped).
    pub(crate) fn to_json(self) -> String {
        match self {
            FieldValue::U64(v) => v.to_string(),
            FieldValue::Str(s) => crate::json::string(s),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v.into())
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::from(i64::from(v))
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::U64(v.into())
    }
}
impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_json() {
        assert_eq!(FieldValue::from(3u32), FieldValue::U64(3));
        assert_eq!(FieldValue::from(-3i32), FieldValue::U64(-3i64 as u64));
        assert_eq!(FieldValue::from(true).to_json(), "1");
        assert_eq!(FieldValue::from("a\"b").to_json(), "\"a\\\"b\"");
        assert_eq!(FieldValue::from(7usize).to_json(), "7");
    }
}
