//! A migrating or remotely created object's state crosses the wire as one
//! raw copy: the `mage.receive` and `mage.instantiate` requests grow by
//! the snapshot's size plus a small fixed header, not by two bytes for
//! every state byte `>= 0x80`, and the receiving class factory sees the
//! exact bytes that left.

use mage_codec::ByteBuf;
use mage_core::attribute::Rev;
use mage_core::class::Method;
use mage_core::object::{args_as, result_from};
use mage_core::{ClassDef, MobileEnv, MobileObject, ObjectSpec, Runtime};
use mage_rmi::Fault;
use mage_sim::TraceEvent;

/// Fixed per-request overhead allowed beyond the snapshot: the frame
/// header and the non-state fields of the argument struct.
const HEADER_ALLOWANCE: u64 = 64;

const CHECKSUM: Method<(), u64> = Method::new("checksum");

/// An opaque blob: its state is a [`ByteBuf`], so a snapshot is the
/// blob's bytes behind a length prefix.
struct Blob(ByteBuf);

impl MobileObject for Blob {
    fn class_name(&self) -> &str {
        "Blob"
    }

    fn snapshot(&self) -> Result<Vec<u8>, Fault> {
        result_from(&self.0)
    }

    fn invoke(
        &mut self,
        method: &str,
        _args: &[u8],
        _env: &mut MobileEnv<'_>,
    ) -> Result<Vec<u8>, Fault> {
        match method {
            "checksum" => result_from(&checksum(&self.0)),
            other => Err(Fault::NoSuchMethod {
                object: "blob".into(),
                method: other.into(),
            }),
        }
    }
}

fn blob_class() -> ClassDef {
    ClassDef::new("Blob", 512, |state| Ok(Box::new(Blob(args_as(state)?))))
}

/// Position-weighted, so a reordered, truncated or re-encoded byte shows.
fn checksum(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .zip(1u64..)
        .map(|(&b, i)| i * u64::from(b))
        .sum()
}

/// 4 KiB whose every byte is `>= 0x80`: the worst case for a per-byte
/// varint encoding, which would take two bytes for each.
fn high_bytes() -> ByteBuf {
    ByteBuf((0..4096u32).map(|i| 0x80 | (i % 128) as u8).collect())
}

fn runtime() -> Runtime {
    let mut rt = Runtime::builder()
        .fast()
        .nodes(["lab", "remote"])
        .class(blob_class())
        .trace(true)
        .build();
    rt.deploy_class("Blob", "lab").unwrap();
    rt.deploy_class("Blob", "remote").unwrap();
    rt
}

/// Byte sizes of every traced request sent under `label`.
fn request_sizes(rt: &Runtime, label: &str) -> Vec<u64> {
    rt.world()
        .trace()
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Send {
                label: l, bytes, ..
            } if l == label => Some(*bytes),
            _ => None,
        })
        .collect()
}

fn assert_raw_sized(rt: &Runtime, label: &str, snapshot: u64) {
    let sizes = request_sizes(rt, label);
    assert!(!sizes.is_empty(), "no {label} request was traced");
    for size in sizes {
        assert!(
            size <= snapshot + HEADER_ALLOWANCE,
            "{label} carried {size} B for a {snapshot} B snapshot"
        );
    }
}

#[test]
fn moved_state_ships_as_one_raw_copy() {
    let mut rt = runtime();
    let state = high_bytes();
    let snapshot = mage_codec::to_bytes(&state).unwrap().len() as u64;
    let lab = rt.session("lab").unwrap();
    lab.create(ObjectSpec::new("blob").class("Blob").state(&state))
        .unwrap();
    rt.world_mut().trace_mut().clear();

    let (stub, sum) = lab
        .bind_invoke(&Rev::new("Blob", "blob", "remote"), CHECKSUM, &())
        .unwrap();
    assert_eq!(stub.location(), rt.node_id("remote").unwrap());
    assert_raw_sized(&rt, "call:mage.receive", snapshot);
    assert_eq!(sum, Some(checksum(&state)), "state arrived altered");
}

#[test]
fn remotely_created_state_ships_as_one_raw_copy() {
    let mut rt = runtime();
    let state = high_bytes();
    let snapshot = mage_codec::to_bytes(&state).unwrap().len() as u64;
    rt.world_mut().trace_mut().clear();

    let lab = rt.session("lab").unwrap();
    let handle = lab
        .create(
            ObjectSpec::new("blob")
                .class("Blob")
                .state(&state)
                .mobility(Rev::new("Blob", "blob", "remote")),
        )
        .unwrap();
    assert_eq!(handle.location(), rt.node_id("remote").unwrap());
    assert_raw_sized(&rt, "call:mage.instantiate", snapshot);
    let sum = lab.call(handle.stub(), CHECKSUM, &()).unwrap();
    assert_eq!(sum, checksum(&state), "state arrived altered");
}
