//! LEB128-style variable-length integers with zigzag encoding for signed
//! values.
//!
//! Every integer on the MAGE wire is a varint: small magnitudes (the common
//! case for call ids, lengths and enum discriminants) cost one byte, and the
//! encoding is byte-order independent, which keeps the wire format portable
//! across the simulated heterogeneous hosts.

// The per-value path carries `#[inline]`: the workspace builds without LTO,
// so an uninlined varint function is a cross-crate call per element. Every
// function here is exported, so the lint covers the whole module.
#![warn(clippy::missing_inline_in_public_items)]

use crate::error::DecodeError;

/// Maximum number of bytes a varint-encoded `u64` can occupy.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends `value` to `out` as an unsigned LEB128 varint.
///
/// # Examples
///
/// ```
/// let mut buf = Vec::new();
/// mage_codec::varint::encode_u64(300, &mut buf);
/// assert_eq!(buf, vec![0xAC, 0x02]);
/// ```
#[inline]
pub fn encode_u64(mut value: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes an unsigned LEB128 varint from the front of `input`.
///
/// Returns the decoded value and the number of bytes consumed.
///
/// # Errors
///
/// Returns [`DecodeError::UnexpectedEof`] if `input` ends mid-varint and
/// [`DecodeError::VarintOverflow`] if the encoding does not fit in 64 bits.
#[inline]
pub fn decode_u64(input: &[u8]) -> Result<(u64, usize), DecodeError> {
    let mut value: u64 = 0;
    let mut shift: u32 = 0;
    for (i, &byte) in input.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return Err(DecodeError::VarintOverflow);
        }
        let bits = u64::from(byte & 0x7F);
        if shift == 63 && bits > 1 {
            return Err(DecodeError::VarintOverflow);
        }
        value |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(DecodeError::UnexpectedEof)
}

/// Zigzag-maps a signed integer onto an unsigned one so small magnitudes of
/// either sign encode compactly.
#[inline]
pub fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Appends `value` to `out` as a zigzag-encoded varint.
#[inline]
pub fn encode_i64(value: i64, out: &mut Vec<u8>) {
    encode_u64(zigzag(value), out);
}

/// Decodes a zigzag varint from the front of `input`.
///
/// # Errors
///
/// Propagates the errors of [`decode_u64`].
#[inline]
pub fn decode_i64(input: &[u8]) -> Result<(i64, usize), DecodeError> {
    let (raw, used) = decode_u64(input)?;
    Ok((unzigzag(raw), used))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_u(value: u64) {
        let mut buf = Vec::new();
        encode_u64(value, &mut buf);
        let (decoded, used) = decode_u64(&buf).expect("decode");
        assert_eq!(decoded, value);
        assert_eq!(used, buf.len());
    }

    fn roundtrip_i(value: i64) {
        let mut buf = Vec::new();
        encode_i64(value, &mut buf);
        let (decoded, used) = decode_i64(&buf).expect("decode");
        assert_eq!(decoded, value);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn small_values_take_one_byte() {
        for v in 0..128u64 {
            let mut buf = Vec::new();
            encode_u64(v, &mut buf);
            assert_eq!(buf.len(), 1, "value {v}");
        }
    }

    #[test]
    fn unsigned_roundtrip_boundaries() {
        for v in [0, 1, 127, 128, 255, 256, 16383, 16384, u64::MAX] {
            roundtrip_u(v);
        }
    }

    #[test]
    fn signed_roundtrip_boundaries() {
        for v in [0, -1, 1, -64, 63, 64, -65, i64::MIN, i64::MAX] {
            roundtrip_i(v);
        }
    }

    #[test]
    fn zigzag_maps_small_magnitudes_low() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    fn truncated_input_is_eof() {
        let mut buf = Vec::new();
        encode_u64(u64::MAX, &mut buf);
        buf.pop();
        assert!(matches!(decode_u64(&buf), Err(DecodeError::UnexpectedEof)));
    }

    #[test]
    fn empty_input_is_eof() {
        assert!(matches!(decode_u64(&[]), Err(DecodeError::UnexpectedEof)));
    }

    #[test]
    fn oversized_varint_overflows() {
        let buf = [0xFFu8; 11];
        assert!(matches!(decode_u64(&buf), Err(DecodeError::VarintOverflow)));
    }

    #[test]
    fn tenth_byte_overflow_detected() {
        // 10 continuation bytes whose final byte carries more than one bit.
        let mut buf = [0x80u8; 10];
        buf[9] = 0x7F;
        assert!(matches!(decode_u64(&buf), Err(DecodeError::VarintOverflow)));
    }

    #[test]
    fn decode_reports_consumed_length() {
        let mut buf = Vec::new();
        encode_u64(300, &mut buf);
        buf.extend_from_slice(&[0xAA, 0xBB]);
        let (v, used) = decode_u64(&buf).unwrap();
        assert_eq!(v, 300);
        assert_eq!(used, 2);
    }
}
