//! Runtime values of interval-record fields.
//!
//! A field is either a single element or "a vector field with a vector
//! counter followed by the data elements of the same type and size"
//! (§2.3.2). [`Value`] is the decoded in-memory form; encoding and decoding
//! are driven by the owning [`crate::profile::FieldSpec`].

use ute_core::codec::{ByteReader, ByteWriter};
use ute_core::error::{Result, UteError};

use crate::datatype::FieldType;

/// A decoded field value.
///
/// The vector variants box their payloads so a `Value` is 24 bytes
/// instead of 32: values travel by the hundred-thousand inside the
/// [`crate::record::Interval`]s that the converter's matcher and decoded
/// readers sort and collect, where element size is memory traffic. Scalars — the
/// overwhelming majority — never touch the heap either way.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Any unsigned scalar (U8/U16/U32/U64), widened.
    Uint(u64),
    /// Signed 64-bit scalar.
    Int(i64),
    /// Floating-point scalar.
    Float(f64),
    /// A `Char` vector decoded as UTF-8 text.
    Str(Box<str>),
    /// A vector of unsigned scalars, widened.
    UintVec(Box<[u64]>),
    /// A vector of floats.
    FloatVec(Box<[f64]>),
}

impl Value {
    /// The value as an unsigned integer, if it is one.
    pub fn as_uint(&self) -> Option<u64> {
        match self {
            Value::Uint(v) => Some(*v),
            Value::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a signed integer, widening unsigned when it fits.
    /// Mirrors the paper's `getItemByName` returning a `long long`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Uint(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a float (ints convert).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Uint(v) => Some(*v as f64),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as text, if it is a string field.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this is a vector value.
    pub fn is_vector(&self) -> bool {
        matches!(self, Value::Str(_) | Value::UintVec(_) | Value::FloatVec(_))
    }
}

fn write_counter(w: &mut ByteWriter, counter_len: u8, n: usize) -> Result<()> {
    match counter_len {
        1 => {
            if n > u8::MAX as usize {
                return Err(UteError::Invalid(format!(
                    "vector of {n} overflows u8 counter"
                )));
            }
            w.put_u8(n as u8);
        }
        2 => {
            if n > u16::MAX as usize {
                return Err(UteError::Invalid(format!(
                    "vector of {n} overflows u16 counter"
                )));
            }
            w.put_u16(n as u16);
        }
        4 => w.put_u32(n as u32),
        other => {
            return Err(UteError::Invalid(format!(
                "unsupported vector counter length {other}"
            )))
        }
    }
    Ok(())
}

fn read_counter(r: &mut ByteReader<'_>, counter_len: u8) -> Result<usize> {
    Ok(match counter_len {
        1 => r.get_u8()? as usize,
        2 => r.get_u16()? as usize,
        4 => r.get_u32()? as usize,
        other => {
            return Err(UteError::corrupt(format!(
                "unsupported vector counter length {other}"
            )))
        }
    })
}

fn write_scalar(w: &mut ByteWriter, ftype: FieldType, v: &Value) -> Result<()> {
    match (ftype, v) {
        (FieldType::U8, Value::Uint(x)) => w.put_u8(*x as u8),
        (FieldType::U16, Value::Uint(x)) => w.put_u16(*x as u16),
        (FieldType::U32, Value::Uint(x)) => w.put_u32(*x as u32),
        (FieldType::U64, Value::Uint(x)) => w.put_u64(*x),
        (FieldType::I64, Value::Int(x)) => w.put_i64(*x),
        (FieldType::F64, Value::Float(x)) => w.put_f64(*x),
        (FieldType::Char, Value::Uint(x)) => w.put_u8(*x as u8),
        (t, v) => {
            return Err(UteError::Invalid(format!(
                "value {v:?} does not fit field type {t:?}"
            )))
        }
    }
    Ok(())
}

fn read_scalar(r: &mut ByteReader<'_>, ftype: FieldType) -> Result<Value> {
    Ok(match ftype {
        FieldType::U8 | FieldType::Char => Value::Uint(r.get_u8()? as u64),
        FieldType::U16 => Value::Uint(r.get_u16()? as u64),
        FieldType::U32 => Value::Uint(r.get_u32()? as u64),
        FieldType::U64 => Value::Uint(r.get_u64()?),
        FieldType::I64 => Value::Int(r.get_i64()?),
        FieldType::F64 => Value::Float(r.get_f64()?),
    })
}

/// Encodes a value under a field's (type, vector, counter) description.
pub fn encode_value(
    w: &mut ByteWriter,
    ftype: FieldType,
    vector: bool,
    counter_len: u8,
    v: &Value,
) -> Result<()> {
    if !vector {
        return write_scalar(w, ftype, v);
    }
    match (ftype, v) {
        (FieldType::Char, Value::Str(s)) => {
            write_counter(w, counter_len, s.len())?;
            w.put_bytes(s.as_bytes());
        }
        (FieldType::F64, Value::FloatVec(xs)) => {
            write_counter(w, counter_len, xs.len())?;
            for x in xs {
                w.put_f64(*x);
            }
        }
        (t, Value::UintVec(xs)) if !matches!(t, FieldType::F64 | FieldType::I64) => {
            write_counter(w, counter_len, xs.len())?;
            for x in xs {
                write_scalar(w, t, &Value::Uint(*x))?;
            }
        }
        (t, v) => {
            return Err(UteError::Invalid(format!(
                "vector value {v:?} does not fit field type {t:?}"
            )))
        }
    }
    Ok(())
}

/// Decodes a value under a field's (type, vector, counter) description.
pub fn decode_value(
    r: &mut ByteReader<'_>,
    ftype: FieldType,
    vector: bool,
    counter_len: u8,
) -> Result<Value> {
    if !vector {
        return read_scalar(r, ftype);
    }
    let n = read_counter(r, counter_len)?;
    match ftype {
        FieldType::Char => {
            let pos = r.pos();
            let bytes = r.get_bytes(n)?;
            let s = String::from_utf8(bytes.to_vec())
                .map_err(|_| UteError::corrupt_at("char vector: invalid utf-8", pos))?;
            Ok(Value::Str(s.into()))
        }
        FieldType::F64 => {
            let mut xs = Vec::with_capacity(ute_core::codec::clamped_capacity(n, 8, r.remaining()));
            for _ in 0..n {
                xs.push(r.get_f64()?);
            }
            Ok(Value::FloatVec(xs.into()))
        }
        t => {
            let mut xs = Vec::with_capacity(ute_core::codec::clamped_capacity(
                n,
                t.elem_len() as usize,
                r.remaining(),
            ));
            for _ in 0..n {
                match read_scalar(r, t)? {
                    Value::Uint(x) => xs.push(x),
                    other => {
                        return Err(UteError::corrupt(format!(
                            "unexpected element {other:?} in uint vector"
                        )))
                    }
                }
            }
            Ok(Value::UintVec(xs.into()))
        }
    }
}

/// Encoded size of a value under a field description, used by the writer
/// to size record-length prefixes.
pub fn encoded_len(ftype: FieldType, vector: bool, counter_len: u8, v: &Value) -> usize {
    if !vector {
        return ftype.elem_len() as usize;
    }
    let n = match v {
        Value::Str(s) => s.len(),
        Value::UintVec(xs) => xs.len(),
        Value::FloatVec(xs) => xs.len(),
        _ => 1,
    };
    counter_len as usize + n * ftype.elem_len() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(ftype: FieldType, vector: bool, counter_len: u8, v: Value) {
        let mut w = ByteWriter::new();
        encode_value(&mut w, ftype, vector, counter_len, &v).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(
            bytes.len(),
            encoded_len(ftype, vector, counter_len, &v),
            "length mismatch for {v:?}"
        );
        let mut r = ByteReader::new(&bytes);
        let back = decode_value(&mut r, ftype, vector, counter_len).unwrap();
        assert_eq!(back, v);
        assert!(r.is_empty());
    }

    #[test]
    fn scalar_round_trips() {
        round_trip(FieldType::U8, false, 0, Value::Uint(200));
        round_trip(FieldType::U16, false, 0, Value::Uint(65000));
        round_trip(FieldType::U32, false, 0, Value::Uint(4_000_000_000));
        round_trip(FieldType::U64, false, 0, Value::Uint(u64::MAX));
        round_trip(FieldType::I64, false, 0, Value::Int(-123456789));
        round_trip(FieldType::F64, false, 0, Value::Float(3.5));
    }

    #[test]
    fn vector_round_trips() {
        round_trip(FieldType::Char, true, 2, Value::Str("msgSizeSent".into()));
        round_trip(
            FieldType::U64,
            true,
            1,
            Value::UintVec(vec![1, 2, 3].into()),
        );
        round_trip(FieldType::U16, true, 4, Value::UintVec(vec![9; 100].into()));
        round_trip(
            FieldType::F64,
            true,
            2,
            Value::FloatVec(vec![1.5, -2.5].into()),
        );
        round_trip(FieldType::U32, true, 1, Value::UintVec(Vec::new().into()));
    }

    #[test]
    fn counter_overflow_rejected() {
        let mut w = ByteWriter::new();
        let big = Value::UintVec(vec![0; 300].into());
        assert!(encode_value(&mut w, FieldType::U8, true, 1, &big).is_err());
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut w = ByteWriter::new();
        assert!(encode_value(&mut w, FieldType::U32, false, 0, &Value::Float(1.0)).is_err());
        assert!(encode_value(&mut w, FieldType::F64, true, 2, &Value::Str("x".into())).is_err());
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Uint(7).as_int(), Some(7));
        assert_eq!(Value::Uint(u64::MAX).as_int(), None);
        assert_eq!(Value::Int(-1).as_uint(), None);
        assert_eq!(Value::Int(5).as_uint(), Some(5));
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::Uint(2).as_float(), Some(2.0));
        assert_eq!(Value::Str("a".into()).as_str(), Some("a"));
        assert!(Value::Str("a".into()).is_vector());
        assert!(!Value::Uint(0).is_vector());
    }
}
