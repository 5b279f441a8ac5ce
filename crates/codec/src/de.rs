//! Deserializer from the MAGE wire format back into Rust values.

// The per-value path carries `#[inline]`: the workspace builds without LTO,
// so an uninlined codec function is a cross-crate call per element. The
// lint keeps exported items inlined but does not see private helpers
// such as `take_u64`; those carry `#[inline]` by hand.
#![warn(clippy::missing_inline_in_public_items)]

use serde::de::{
    self, Deserialize, DeserializeSeed, EnumAccess, IntoDeserializer, MapAccess, SeqAccess,
    VariantAccess, Visitor,
};

use crate::error::DecodeError;
use crate::varint;

/// Deserializes a value of type `T` from `input`, requiring the entire buffer
/// to be consumed.
///
/// # Errors
///
/// Returns [`DecodeError::TrailingBytes`] when `input` holds more than one
/// value, plus any structural decoding error.
///
/// # Examples
///
/// ```
/// let bytes = mage_codec::to_bytes(&vec![1u16, 2, 3]).unwrap();
/// let v: Vec<u16> = mage_codec::from_bytes(&bytes).unwrap();
/// assert_eq!(v, vec![1, 2, 3]);
/// ```
#[inline]
pub fn from_bytes<'de, T: Deserialize<'de>>(input: &'de [u8]) -> Result<T, DecodeError> {
    let mut de = Deserializer::new(input);
    let value = T::deserialize(&mut de)?;
    let rest = de.remaining();
    if rest == 0 {
        Ok(value)
    } else {
        Err(DecodeError::TrailingBytes(rest))
    }
}

/// Deserializes a value of type `T` from the front of `input`, returning the
/// value and the number of bytes consumed.
///
/// Useful when several values are framed back-to-back in one payload.
///
/// # Errors
///
/// Returns any structural decoding error; trailing bytes are not an error.
#[inline]
pub fn from_bytes_prefix<'de, T: Deserialize<'de>>(
    input: &'de [u8],
) -> Result<(T, usize), DecodeError> {
    let mut de = Deserializer::new(input);
    let value = T::deserialize(&mut de)?;
    Ok((value, input.len() - de.remaining()))
}

/// Streaming deserializer over a byte slice.
pub struct Deserializer<'de> {
    input: &'de [u8],
    pos: usize,
}

impl<'de> Deserializer<'de> {
    /// Creates a deserializer reading from the front of `input`.
    #[inline]
    pub fn new(input: &'de [u8]) -> Self {
        Deserializer { input, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'de [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof);
        }
        let slice = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    #[inline]
    fn take_byte(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    fn take_u64(&mut self) -> Result<u64, DecodeError> {
        let (value, used) = varint::decode_u64(&self.input[self.pos..])?;
        self.pos += used;
        Ok(value)
    }

    #[inline]
    fn take_i64(&mut self) -> Result<i64, DecodeError> {
        let (value, used) = varint::decode_i64(&self.input[self.pos..])?;
        self.pos += used;
        Ok(value)
    }

    #[inline]
    fn take_len(&mut self) -> Result<usize, DecodeError> {
        let raw = self.take_u64()?;
        usize::try_from(raw).map_err(|_| DecodeError::IntegerOutOfRange)
    }

    #[inline]
    fn take_str(&mut self) -> Result<&'de str, DecodeError> {
        let len = self.take_len()?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| DecodeError::InvalidUtf8)
    }
}

macro_rules! deserialize_unsigned {
    ($method:ident, $visit:ident, $ty:ty) => {
        #[inline]
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, DecodeError> {
            let raw = self.take_u64()?;
            let narrowed = <$ty>::try_from(raw).map_err(|_| DecodeError::IntegerOutOfRange)?;
            visitor.$visit(narrowed)
        }
    };
}

macro_rules! deserialize_signed {
    ($method:ident, $visit:ident, $ty:ty) => {
        #[inline]
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, DecodeError> {
            let raw = self.take_i64()?;
            let narrowed = <$ty>::try_from(raw).map_err(|_| DecodeError::IntegerOutOfRange)?;
            visitor.$visit(narrowed)
        }
    };
}

impl<'de> de::Deserializer<'de> for &mut Deserializer<'de> {
    type Error = DecodeError;

    #[inline]
    fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, DecodeError> {
        Err(DecodeError::NotSelfDescribing)
    }

    #[inline]
    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, DecodeError> {
        match self.take_byte()? {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            other => Err(DecodeError::InvalidBool(other)),
        }
    }

    deserialize_unsigned!(deserialize_u8, visit_u8, u8);
    deserialize_unsigned!(deserialize_u16, visit_u16, u16);
    deserialize_unsigned!(deserialize_u32, visit_u32, u32);
    deserialize_signed!(deserialize_i8, visit_i8, i8);
    deserialize_signed!(deserialize_i16, visit_i16, i16);
    deserialize_signed!(deserialize_i32, visit_i32, i32);

    #[inline]
    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, DecodeError> {
        let raw = self.take_u64()?;
        visitor.visit_u64(raw)
    }

    #[inline]
    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, DecodeError> {
        let raw = self.take_i64()?;
        visitor.visit_i64(raw)
    }

    #[inline]
    fn deserialize_u128<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, DecodeError> {
        let high = self.take_u64()?;
        let low = self.take_u64()?;
        visitor.visit_u128((u128::from(high) << 64) | u128::from(low))
    }

    #[inline]
    fn deserialize_i128<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, DecodeError> {
        let high = self.take_i64()?;
        let low = self.take_u64()?;
        visitor.visit_i128((i128::from(high) << 64) | i128::from(low))
    }

    #[inline]
    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, DecodeError> {
        let bytes = self.take(4)?;
        visitor.visit_f32(f32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    #[inline]
    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, DecodeError> {
        let bytes = self.take(8)?;
        visitor.visit_f64(f64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    #[inline]
    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, DecodeError> {
        let raw = self.take_u64()?;
        let code = u32::try_from(raw).map_err(|_| DecodeError::IntegerOutOfRange)?;
        let ch = char::from_u32(code).ok_or(DecodeError::InvalidChar(code))?;
        visitor.visit_char(ch)
    }

    #[inline]
    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, DecodeError> {
        visitor.visit_borrowed_str(self.take_str()?)
    }

    #[inline]
    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, DecodeError> {
        self.deserialize_str(visitor)
    }

    #[inline]
    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, DecodeError> {
        let len = self.take_len()?;
        visitor.visit_borrowed_bytes(self.take(len)?)
    }

    #[inline]
    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, DecodeError> {
        self.deserialize_bytes(visitor)
    }

    #[inline]
    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, DecodeError> {
        match self.take_byte()? {
            0 => visitor.visit_none(),
            1 => visitor.visit_some(self),
            other => Err(DecodeError::InvalidOptionTag(other)),
        }
    }

    #[inline]
    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, DecodeError> {
        visitor.visit_unit()
    }

    #[inline]
    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, DecodeError> {
        visitor.visit_unit()
    }

    #[inline]
    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, DecodeError> {
        visitor.visit_newtype_struct(self)
    }

    #[inline]
    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, DecodeError> {
        let len = self.take_len()?;
        visitor.visit_seq(CountedAccess {
            de: self,
            left: len,
        })
    }

    #[inline]
    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, DecodeError> {
        visitor.visit_seq(CountedAccess {
            de: self,
            left: len,
        })
    }

    #[inline]
    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, DecodeError> {
        self.deserialize_tuple(len, visitor)
    }

    #[inline]
    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, DecodeError> {
        let len = self.take_len()?;
        visitor.visit_map(CountedAccess {
            de: self,
            left: len,
        })
    }

    #[inline]
    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, DecodeError> {
        visitor.visit_seq(CountedAccess {
            de: self,
            left: fields.len(),
        })
    }

    #[inline]
    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, DecodeError> {
        visitor.visit_enum(Enum { de: self })
    }

    #[inline]
    fn deserialize_identifier<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, DecodeError> {
        Err(DecodeError::NotSelfDescribing)
    }

    #[inline]
    fn deserialize_ignored_any<V: Visitor<'de>>(
        self,
        _visitor: V,
    ) -> Result<V::Value, DecodeError> {
        Err(DecodeError::NotSelfDescribing)
    }

    #[inline]
    fn is_human_readable(&self) -> bool {
        false
    }
}

struct CountedAccess<'a, 'de> {
    de: &'a mut Deserializer<'de>,
    left: usize,
}

impl<'de> SeqAccess<'de> for CountedAccess<'_, 'de> {
    type Error = DecodeError;

    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, DecodeError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

impl<'de> MapAccess<'de> for CountedAccess<'_, 'de> {
    type Error = DecodeError;

    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, DecodeError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn next_value_seed<V: DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, DecodeError> {
        seed.deserialize(&mut *self.de)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

struct Enum<'a, 'de> {
    de: &'a mut Deserializer<'de>,
}

impl<'de> EnumAccess<'de> for Enum<'_, 'de> {
    type Error = DecodeError;
    type Variant = Self;

    fn variant_seed<V: DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self), DecodeError> {
        let index = self.de.take_u64()?;
        let index = u32::try_from(index).map_err(|_| DecodeError::IntegerOutOfRange)?;
        let value = seed.deserialize(index.into_deserializer())?;
        Ok((value, self))
    }
}

impl<'de> VariantAccess<'de> for Enum<'_, 'de> {
    type Error = DecodeError;

    fn unit_variant(self) -> Result<(), DecodeError> {
        Ok(())
    }

    fn newtype_variant_seed<T: DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, DecodeError> {
        seed.deserialize(self.de)
    }

    fn tuple_variant<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, DecodeError> {
        visitor.visit_seq(CountedAccess {
            de: self.de,
            left: len,
        })
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, DecodeError> {
        visitor.visit_seq(CountedAccess {
            de: self.de,
            left: fields.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_bytes;

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&7u8).unwrap();
        bytes.push(0);
        let err = from_bytes::<u8>(&bytes).unwrap_err();
        assert_eq!(err, DecodeError::TrailingBytes(1));
    }

    #[test]
    fn prefix_decoding_reports_consumed() {
        let mut bytes = to_bytes("hi").unwrap();
        bytes.extend_from_slice(&[9, 9]);
        let (s, used): (String, usize) = from_bytes_prefix(&bytes).unwrap();
        assert_eq!(s, "hi");
        assert_eq!(used, 3);
    }

    #[test]
    fn narrowing_out_of_range_fails() {
        let bytes = to_bytes(&300u64).unwrap();
        assert_eq!(
            from_bytes::<u8>(&bytes).unwrap_err(),
            DecodeError::IntegerOutOfRange
        );
    }

    #[test]
    fn invalid_bool_detected() {
        assert_eq!(
            from_bytes::<bool>(&[2]).unwrap_err(),
            DecodeError::InvalidBool(2)
        );
    }

    #[test]
    fn invalid_utf8_detected() {
        let bytes = vec![2, 0xFF, 0xFE];
        assert_eq!(
            from_bytes::<String>(&bytes).unwrap_err(),
            DecodeError::InvalidUtf8
        );
    }

    #[test]
    fn invalid_char_detected() {
        let bytes = to_bytes(&0xD800u32).unwrap();
        assert_eq!(
            from_bytes::<char>(&bytes).unwrap_err(),
            DecodeError::InvalidChar(0xD800)
        );
    }

    #[test]
    fn borrowed_str_zero_copy() {
        let bytes = to_bytes("borrowed").unwrap();
        let s: &str = from_bytes(&bytes).unwrap();
        assert_eq!(s, "borrowed");
    }

    #[test]
    fn option_tag_validation() {
        assert_eq!(
            from_bytes::<Option<u8>>(&[3]).unwrap_err(),
            DecodeError::InvalidOptionTag(3)
        );
    }

    #[test]
    fn eof_mid_value() {
        let bytes = vec![5, b'a'];
        assert_eq!(
            from_bytes::<String>(&bytes).unwrap_err(),
            DecodeError::UnexpectedEof
        );
    }
}
