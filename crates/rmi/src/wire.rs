//! Wire messages exchanged by RMI endpoints.
//!
//! Every datagram is one [`WireMsg`]. `object` and `method` travel as
//! interned [`NameId`]s with the backing string attached only on first use
//! per peer ([`NameRef`]), `args`/results are ref-counted [`Bytes`] slices
//! of the received frame (zero copy on decode), and encoding goes through a
//! caller-supplied scratch buffer (zero steady-state allocation beyond the
//! frame itself). A frame whose leading byte is not [`MAGIC_V2_EPOCH`] is
//! rejected.
//!
//! The current v2 revision ([`MAGIC_V2_EPOCH`]) carries incarnation
//! epochs in every frame header: each message states its sender's epoch
//! (a boot counter bumped on every crash), and responses additionally
//! echo the epoch the request claimed, so a reply addressed to a previous
//! incarnation of the caller is discarded instead of colliding with the
//! fresh incarnation's call-id space. Endpoints learn peer restarts from
//! these fields alone — no out-of-band failure oracle. The epoch-less v2
//! header ([`MAGIC_V2`]) is rejected with a version error.

use bytes::Bytes;
use mage_codec::frame::{write_bytes, write_str, write_u64};
use mage_codec::{DecodeError, FrameReader};

use crate::error::Fault;
use crate::symbols::NameId;

/// First byte of the original (epoch-less) v2 frame revision. No longer
/// produced or accepted: decoding a frame with this header yields a
/// version error, so mixed deployments fail fast instead of misreading
/// epoch fields as payload.
pub const MAGIC_V2: u8 = 0xA2;

/// First byte of every current v2 frame (the epoch-carrying revision).
/// Distinct from [`MAGIC_V2`] so the epoch-less revision is rejected by
/// version, not by misparse.
pub const MAGIC_V2_EPOCH: u8 = 0xA3;

const KIND_CALL_REQ: u8 = 0;
const KIND_CALL_RSP: u8 = 1;

/// An interned name on the wire: the id always, the string only the first
/// time this id travels to a given peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameRef {
    /// The interned id.
    pub id: NameId,
    /// The backing string, present on first use per (sender, receiver)
    /// pair so the receiver can learn the binding.
    pub name: Option<String>,
}

impl NameRef {
    /// A bare id (the steady-state form).
    pub fn id(id: NameId) -> Self {
        NameRef { id, name: None }
    }

    /// An id with its first-use string attached.
    pub fn first_use(id: NameId, name: &str) -> Self {
        NameRef {
            id,
            name: Some(name.to_owned()),
        }
    }

    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DecodeError> {
        let id = NameId::from_raw(r.read_u32()?);
        let name = match r.read_u8()? {
            0 => None,
            1 => Some(r.read_str()?.to_owned()),
            other => return Err(DecodeError::InvalidOptionTag(other)),
        };
        Ok(NameRef { id, name })
    }
}

/// A v2 datagram between two endpoints.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// A method invocation request.
    CallReq {
        /// Client-unique call id (also the dedup key on the server).
        call_id: u64,
        /// Sender incarnation at send time. Receivers learn peer restarts
        /// from this field alone.
        sender_epoch: u64,
        /// Interned name the target object is bound under.
        object: NameRef,
        /// Interned method name.
        method: NameRef,
        /// Marshalled arguments; on decode, a zero-copy slice of the frame.
        args: Bytes,
    },
    /// The response to a [`WireMsg::CallReq`].
    CallRsp {
        /// Echoed call id.
        call_id: u64,
        /// Responder incarnation at send time.
        sender_epoch: u64,
        /// Echo of the request's `sender_epoch`: lets the caller discard a
        /// reply addressed to a previous incarnation of itself (whose
        /// call-id space the fresh incarnation reuses from zero).
        req_epoch: u64,
        /// Marshalled result (zero-copy slice on decode) or server fault.
        result: Result<Bytes, Fault>,
    },
}

/// Encodes a v2 call request from borrowed parts into `scratch` (cleared
/// first) and returns the finished frame — the frame buffer is the only
/// allocation. `object_name`/`method_name` ride along only on first use.
#[allow(clippy::too_many_arguments)]
pub fn encode_call_req(
    scratch: &mut Vec<u8>,
    call_id: u64,
    sender_epoch: u64,
    object: NameId,
    object_name: Option<&str>,
    method: NameId,
    method_name: Option<&str>,
    args: &[u8],
) -> Bytes {
    scratch.clear();
    scratch.push(MAGIC_V2_EPOCH);
    scratch.push(KIND_CALL_REQ);
    write_u64(scratch, call_id);
    write_u64(scratch, sender_epoch);
    encode_name(scratch, object, object_name);
    encode_name(scratch, method, method_name);
    write_bytes(scratch, args);
    Bytes::copy_from_slice(scratch)
}

/// Encodes a v2 call response from borrowed parts (see
/// [`encode_call_req`]).
pub fn encode_call_rsp(
    scratch: &mut Vec<u8>,
    call_id: u64,
    sender_epoch: u64,
    req_epoch: u64,
    result: Result<&[u8], &Fault>,
) -> Bytes {
    scratch.clear();
    scratch.push(MAGIC_V2_EPOCH);
    scratch.push(KIND_CALL_RSP);
    write_u64(scratch, call_id);
    write_u64(scratch, sender_epoch);
    write_u64(scratch, req_epoch);
    match result {
        Ok(payload) => {
            scratch.push(0);
            write_bytes(scratch, payload);
        }
        Err(fault) => {
            scratch.push(1);
            let fault_bytes = mage_codec::to_bytes(fault).expect("faults always encode");
            write_bytes(scratch, &fault_bytes);
        }
    }
    Bytes::copy_from_slice(scratch)
}

fn encode_name(out: &mut Vec<u8>, id: NameId, name: Option<&str>) {
    write_u64(out, u64::from(id.as_raw()));
    match name {
        Some(name) => {
            out.push(1);
            write_str(out, name);
        }
        None => out.push(0),
    }
}

impl WireMsg {
    /// Encodes this message into `scratch` (cleared first) and returns the
    /// finished frame. The only allocation is the frame's own buffer;
    /// reusing `scratch` across calls amortises everything else.
    pub fn encode_with(&self, scratch: &mut Vec<u8>) -> Bytes {
        match self {
            WireMsg::CallReq {
                call_id,
                sender_epoch,
                object,
                method,
                args,
            } => encode_call_req(
                scratch,
                *call_id,
                *sender_epoch,
                object.id,
                object.name.as_deref(),
                method.id,
                method.name.as_deref(),
                args,
            ),
            WireMsg::CallRsp {
                call_id,
                sender_epoch,
                req_epoch,
                result,
            } => encode_call_rsp(
                scratch,
                *call_id,
                *sender_epoch,
                *req_epoch,
                result.as_ref().map(|b| b.as_slice()),
            ),
        }
    }

    /// Encodes into a fresh scratch buffer (tests and cold paths).
    pub fn encode(&self) -> Bytes {
        self.encode_with(&mut Vec::with_capacity(64))
    }

    /// Decodes a v2 frame. Argument and result payloads are returned as
    /// ref-counted slices of `frame` — no bytes are copied.
    ///
    /// # Errors
    ///
    /// Returns a codec error for truncated, malformed or non-v2 frames.
    pub fn decode(frame: &Bytes) -> Result<Self, DecodeError> {
        let mut r = FrameReader::new(frame);
        let magic = r.read_u8()?;
        if magic == MAGIC_V2 {
            return Err(DecodeError::Message(format!(
                "unsupported wire version: epoch-less v2 header {MAGIC_V2:#04x} \
                 (this endpoint requires the epoch-carrying revision {MAGIC_V2_EPOCH:#04x})"
            )));
        }
        if magic != MAGIC_V2_EPOCH {
            return Err(DecodeError::Message(format!(
                "not a v2 frame (leading byte {magic:#04x}, expected {MAGIC_V2_EPOCH:#04x})"
            )));
        }
        let msg = match r.read_u8()? {
            KIND_CALL_REQ => WireMsg::CallReq {
                call_id: r.read_u64()?,
                sender_epoch: r.read_u64()?,
                object: NameRef::decode(&mut r)?,
                method: NameRef::decode(&mut r)?,
                args: r.read_bytes()?,
            },
            KIND_CALL_RSP => {
                let call_id = r.read_u64()?;
                let sender_epoch = r.read_u64()?;
                let req_epoch = r.read_u64()?;
                let result = match r.read_u8()? {
                    0 => Ok(r.read_bytes()?),
                    1 => {
                        let fault_bytes = r.read_bytes()?;
                        Err(mage_codec::from_bytes::<Fault>(&fault_bytes)?)
                    }
                    other => return Err(DecodeError::InvalidOptionTag(other)),
                };
                WireMsg::CallRsp {
                    call_id,
                    sender_epoch,
                    req_epoch,
                    result,
                }
            }
            other => {
                return Err(DecodeError::Message(format!(
                    "unknown v2 message kind {other:#04x}"
                )))
            }
        };
        if r.is_empty() {
            Ok(msg)
        } else {
            Err(DecodeError::TrailingBytes(r.remaining()))
        }
    }

    /// The call id carried by this message.
    pub fn call_id(&self) -> u64 {
        match self {
            WireMsg::CallReq { call_id, .. } | WireMsg::CallRsp { call_id, .. } => *call_id,
        }
    }

    /// The sender incarnation stamped into this frame.
    pub fn sender_epoch(&self) -> u64 {
        match self {
            WireMsg::CallReq { sender_epoch, .. } | WireMsg::CallRsp { sender_epoch, .. } => {
                *sender_epoch
            }
        }
    }

    /// A static label for metrics — free to produce. Rich labels (with
    /// object/method names) are only materialised when tracing is on; see
    /// [`call_label`].
    pub fn label(&self) -> &'static str {
        match self {
            WireMsg::CallReq { .. } => "call",
            WireMsg::CallRsp { result: Ok(_), .. } => "rsp:ok",
            WireMsg::CallRsp { result: Err(_), .. } => "rsp:fault",
        }
    }
}

/// Builds the rich trace label for a call: `"call:<object>.<method>"`.
/// Only worth its allocation when the world is tracing.
pub fn call_label(object: &str, method: &str) -> String {
    format!("call:{object}.{method}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v2_call_req_roundtrips_with_first_use_names() {
        let msg = WireMsg::CallReq {
            call_id: 42,
            sender_epoch: 7,
            object: NameRef::first_use(NameId::from_raw(3), "geoData"),
            method: NameRef::id(NameId::from_raw(9)),
            args: Bytes::from(vec![1, 2, 3]),
        };
        let frame = msg.encode();
        assert_eq!(WireMsg::decode(&frame).unwrap(), msg);
        assert_eq!(msg.sender_epoch(), 7);
    }

    #[test]
    fn v2_args_decode_zero_copy() {
        let msg = WireMsg::CallReq {
            call_id: 1,
            sender_epoch: 0,
            object: NameRef::id(NameId::from_raw(0)),
            method: NameRef::id(NameId::from_raw(1)),
            args: Bytes::from(vec![5; 32]),
        };
        let frame = msg.encode();
        let WireMsg::CallReq { args, .. } = WireMsg::decode(&frame).unwrap() else {
            panic!("wrong kind");
        };
        // The decoded args point into the frame's allocation.
        let frame_slice = frame.as_slice();
        let args_ptr = args.as_slice().as_ptr() as usize;
        let frame_range =
            frame_slice.as_ptr() as usize..frame_slice.as_ptr() as usize + frame_slice.len();
        assert!(
            frame_range.contains(&args_ptr),
            "args must borrow the frame"
        );
    }

    #[test]
    fn v2_rsp_roundtrips_both_arms() {
        let ok = WireMsg::CallRsp {
            call_id: 7,
            sender_epoch: 2,
            req_epoch: 5,
            result: Ok(Bytes::from(vec![9])),
        };
        let fault = WireMsg::CallRsp {
            call_id: 8,
            sender_epoch: 0,
            req_epoch: 0,
            result: Err(Fault::ClassMissing("C".into())),
        };
        assert_eq!(WireMsg::decode(&ok.encode()).unwrap(), ok);
        assert_eq!(WireMsg::decode(&fault.encode()).unwrap(), fault);
    }

    #[test]
    fn epoch_less_v2_header_is_rejected_by_version() {
        let mut frame = WireMsg::CallReq {
            call_id: 3,
            sender_epoch: 0,
            object: NameRef::id(NameId::from_raw(0)),
            method: NameRef::id(NameId::from_raw(1)),
            args: Bytes::new(),
        }
        .encode()
        .to_vec();
        frame[0] = MAGIC_V2;
        let err = WireMsg::decode(&Bytes::from(frame)).expect_err("old header must be rejected");
        let msg = err.to_string();
        assert!(msg.contains("unsupported wire version"), "got {msg}");
    }

    #[test]
    fn v2_truncated_frames_error_not_panic() {
        let frame = WireMsg::CallReq {
            call_id: 3,
            sender_epoch: u64::MAX,
            object: NameRef::first_use(NameId::from_raw(0), "obj"),
            method: NameRef::id(NameId::from_raw(1)),
            args: Bytes::from(vec![1, 2, 3, 4]),
        }
        .encode();
        for cut in 0..frame.len() {
            let truncated = frame.slice(..cut);
            assert!(
                WireMsg::decode(&truncated).is_err(),
                "truncation at {cut} must error"
            );
        }
    }
}
