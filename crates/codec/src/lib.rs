//! Compact binary marshalling for MAGE.
//!
//! The paper's MAGE runtime rides on Java RMI, whose parameter marshalling is
//! Java object serialization. This crate is the Rust stand-in: a small,
//! non-self-describing binary [serde](https://serde.rs) format used for every
//! payload that crosses a (simulated) namespace boundary — method arguments,
//! results, migrated object state and class descriptors.
//!
//! Format summary:
//!
//! * unsigned integers: LEB128 varints; signed integers: zigzag varints
//! * `f32`/`f64`: little-endian IEEE-754 bytes
//! * `bool` and `Option` tags: one byte (`0`/`1`)
//! * strings, byte strings, sequences, maps: varint length prefix
//!   (a `Vec<u8>` is a sequence, one varint per byte; wrap bulk bytes in
//!   [`ByteBuf`] to encode them as a byte string, one raw copy)
//! * structs and tuples: fields back-to-back, no framing
//! * enums: varint variant index followed by the payload
//!
//! The format is *not* self-describing: decoding drives from the target type,
//! exactly like an RMI skeleton unmarshalling against a known method
//! signature.
//!
//! # Inlining
//!
//! Serde drives this crate once per value, so a `Vec<u8>` of object state
//! calls `deserialize_u8` once per byte. The workspace builds without LTO,
//! so a non-generic function here that lacks `#[inline]` stays a
//! cross-crate call from every caller's monomorphized serde code. The
//! decode path (the `deserialize_*` methods and their cursor helpers),
//! the [`varint`] functions and the [`frame`] readers and writers
//! therefore carry `#[inline]`, and `clippy::missing_inline_in_public_items`
//! keeps their exported part that way. This cut the decode of a 1 KiB
//! state about threefold (13.3 to 4.4 µs in the benchmark's traced codec
//! row) with no wire byte changed (`tests/roundtrip.rs` pins the bytes).
//!
//! The serializer is not inlined yet. Doing so halves encode time too, but
//! makes the checkpoint-heavy `durable_failover` benchmark fast enough
//! that its peak RSS, which grows with the rounds the harness keeps,
//! passes the benchmark's 15% bound (ROADMAP item 2).
//!
//! # Examples
//!
//! ```
//! use serde::{Deserialize, Serialize};
//!
//! #[derive(Serialize, Deserialize, PartialEq, Debug)]
//! struct GeoSample { sensor: String, depth_m: u32, porosity: f64 }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sample = GeoSample { sensor: "sensor1".into(), depth_m: 1200, porosity: 0.31 };
//! let wire = mage_codec::to_bytes(&sample)?;
//! let back: GeoSample = mage_codec::from_bytes(&wire)?;
//! assert_eq!(back, sample);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod frame;
pub mod varint;

mod byte_buf;
mod de;
mod ser;

pub use byte_buf::ByteBuf;
pub use de::{from_bytes, from_bytes_prefix, Deserializer};
pub use error::{DecodeError, EncodeError};
pub use frame::FrameReader;
pub use ser::{to_bytes, to_bytes_in};
