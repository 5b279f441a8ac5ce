//! Zero-copy frame reading over reference-counted buffers.
//!
//! The serde path in this crate already borrows `&str`/`&[u8]` from the
//! input slice; [`FrameReader`] adds the missing piece for network frames:
//! extracting a *ref-counted* [`Bytes`] sub-range (for example an RMI
//! argument payload) that outlives the read without copying — the slice
//! shares the frame's allocation.
//!
//! Writers are ordinary `Vec<u8>` scratch buffers fed through
//! [`to_bytes_in`](crate::to_bytes_in) and the varint helpers; reusing one
//! scratch buffer per node keeps steady-state encoding allocation-free.

// The per-value path carries `#[inline]`: the workspace builds without LTO,
// so an uninlined codec function is a cross-crate call per element. The
// lint keeps exported items inlined but does not see private helpers
// such as `take`; those carry `#[inline]` by hand.
#![warn(clippy::missing_inline_in_public_items)]

use bytes::Bytes;

use crate::error::DecodeError;
use crate::varint;

/// A cursor over one received frame.
///
/// All reads advance the cursor; numeric reads copy out scalars, while
/// [`FrameReader::read_str`] borrows from the frame and
/// [`FrameReader::read_bytes`] returns a ref-counted slice of it.
pub struct FrameReader<'a> {
    frame: &'a Bytes,
    pos: usize,
}

impl<'a> FrameReader<'a> {
    /// Starts reading at the front of `frame`.
    #[inline]
    pub fn new(frame: &'a Bytes) -> Self {
        FrameReader { frame, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.frame.len() - self.pos
    }

    /// Whether the whole frame has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof);
        }
        let slice = &self.frame.as_slice()[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a LEB128 varint.
    #[inline]
    pub fn read_u64(&mut self) -> Result<u64, DecodeError> {
        let (value, used) = varint::decode_u64(&self.frame.as_slice()[self.pos..])?;
        self.pos += used;
        Ok(value)
    }

    /// Reads a varint and narrows it to `u32`.
    #[inline]
    pub fn read_u32(&mut self) -> Result<u32, DecodeError> {
        u32::try_from(self.read_u64()?).map_err(|_| DecodeError::IntegerOutOfRange)
    }

    /// Reads a varint length prefix.
    #[inline]
    pub fn read_len(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.read_u64()?).map_err(|_| DecodeError::IntegerOutOfRange)
    }

    /// Reads a length-prefixed UTF-8 string, borrowing from the frame.
    #[inline]
    pub fn read_str(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.read_len()?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| DecodeError::InvalidUtf8)
    }

    /// Reads a length-prefixed byte payload as a ref-counted slice of the
    /// frame — no copy; the result shares the frame's allocation.
    #[inline]
    pub fn read_bytes(&mut self) -> Result<Bytes, DecodeError> {
        let len = self.read_len()?;
        if self.remaining() < len {
            return Err(DecodeError::UnexpectedEof);
        }
        let slice = self.frame.slice(self.pos..self.pos + len);
        self.pos += len;
        Ok(slice)
    }
}

/// Appends a length-prefixed byte payload to a scratch buffer (the inverse
/// of [`FrameReader::read_bytes`]).
#[inline]
pub fn write_bytes(out: &mut Vec<u8>, payload: &[u8]) {
    varint::encode_u64(payload.len() as u64, out);
    out.extend_from_slice(payload);
}

/// Appends a length-prefixed UTF-8 string (the inverse of
/// [`FrameReader::read_str`]).
#[inline]
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    write_bytes(out, s.as_bytes());
}

/// Appends a LEB128 varint.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, v: u64) {
    varint::encode_u64(v, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_frame() {
        let mut buf = Vec::new();
        buf.push(0xA2);
        write_u64(&mut buf, 300);
        write_str(&mut buf, "geoData");
        write_bytes(&mut buf, &[9, 8, 7]);
        let frame = Bytes::from(buf);

        let mut r = FrameReader::new(&frame);
        assert_eq!(r.read_u8().unwrap(), 0xA2);
        assert_eq!(r.read_u64().unwrap(), 300);
        assert_eq!(r.read_str().unwrap(), "geoData");
        let payload = r.read_bytes().unwrap();
        assert_eq!(payload.as_slice(), &[9, 8, 7]);
        assert!(r.is_empty());
    }

    #[test]
    fn read_bytes_shares_the_frame_allocation() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, &[1, 2, 3, 4]);
        let frame = Bytes::from(buf);
        let mut r = FrameReader::new(&frame);
        let payload = r.read_bytes().unwrap();
        assert_eq!(payload.as_slice().as_ptr(), frame.as_slice()[1..].as_ptr());
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, &[1, 2, 3, 4]);
        buf.truncate(3);
        let frame = Bytes::from(buf);
        let mut r = FrameReader::new(&frame);
        assert_eq!(r.read_bytes().unwrap_err(), DecodeError::UnexpectedEof);
    }

    #[test]
    fn invalid_utf8_is_detected() {
        let frame = Bytes::from(vec![2, 0xFF, 0xFE]);
        let mut r = FrameReader::new(&frame);
        assert_eq!(r.read_str().unwrap_err(), DecodeError::InvalidUtf8);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        // Length prefix claims u64::MAX bytes.
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        let frame = Bytes::from(buf);
        let mut r = FrameReader::new(&frame);
        assert_eq!(r.read_bytes().unwrap_err(), DecodeError::UnexpectedEof);
    }
}
