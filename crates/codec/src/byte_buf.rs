//! Owned byte buffers that travel as one raw copy.

use std::fmt;
use std::ops::Deref;

use serde::de::{self, Deserialize, Deserializer, Visitor};
use serde::ser::{Serialize, Serializer};

/// An owned byte vector encoded as a length varint followed by the raw
/// bytes — the layout a borrowed `&[u8]` decodes from.
///
/// A plain `Vec<u8>` goes through serde's sequence path: one varint per
/// element, so every byte `>= 0x80` takes two bytes on the wire and each
/// is decoded on its own. Wrap opaque bulk bytes (object state, class
/// code) in a `ByteBuf` to ship them as one copy instead.
///
/// # Examples
///
/// ```
/// use mage_codec::ByteBuf;
///
/// let state = ByteBuf(vec![0xFF; 4]);
/// let wire = mage_codec::to_bytes(&state).unwrap();
/// assert_eq!(wire, [4, 0xFF, 0xFF, 0xFF, 0xFF]);
/// assert_eq!(mage_codec::from_bytes::<ByteBuf>(&wire).unwrap(), state);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteBuf(pub Vec<u8>);

impl Deref for ByteBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl Serialize for ByteBuf {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(&self.0)
    }
}

impl<'de> Deserialize<'de> for ByteBuf {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct ByteBufVisitor;
        impl<'de> Visitor<'de> for ByteBufVisitor {
            type Value = ByteBuf;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a byte buffer")
            }
            fn visit_bytes<E: de::Error>(self, v: &[u8]) -> Result<ByteBuf, E> {
                Ok(ByteBuf(v.to_vec()))
            }
        }
        deserializer.deserialize_bytes(ByteBufVisitor)
    }
}
