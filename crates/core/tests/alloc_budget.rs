//! Allocation budgets of the two steady-state call paths.
//!
//! A counting global allocator tallies the heap allocations (and
//! reallocations) made by the current thread, so the budgets hold however
//! the test harness schedules other tests. After warm-up, a
//! `Session::call` through an `Rpc` stub must average at most 16
//! allocations, and a raw `mage_rmi::drive_call` round trip at most 6:
//! the driver hands its node a typed command and takes a typed completion
//! back, with no encoding in between.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mage_core::attribute::Rpc;
use mage_core::workload_support::{methods, test_object_class};
use mage_core::{ObjectSpec, Runtime};
use mage_rmi::{client_endpoint, drive_call, server_endpoint, Config, Fault, ObjectEnv};
use mage_sim::{LinkSpec, Network, World};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations made while the thread is being torn down
    // are not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every operation is delegated to `System` unchanged; the counter
// is a thread-local statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr`/`layout` come from `System`; the caller upholds
        // the `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP: usize = 200;
const CALLS: usize = 1000;

/// Mean allocations per call of `op` over [`CALLS`] calls, after
/// [`WARMUP`] untimed ones.
fn allocs_per_call(mut op: impl FnMut()) -> f64 {
    for _ in 0..WARMUP {
        op();
    }
    let before = ALLOCS.with(Cell::get);
    for _ in 0..CALLS {
        op();
    }
    (ALLOCS.with(Cell::get) - before) as f64 / CALLS as f64
}

#[test]
fn session_call_on_an_rpc_stub_stays_within_16_allocations() {
    let mut rt = Runtime::builder()
        .seed(101)
        .nodes(["h0", "h1"])
        .class(test_object_class())
        .build();
    rt.deploy_class("TestObject", "h1").unwrap();
    rt.session("h1")
        .unwrap()
        .create(ObjectSpec::new("counter").class("TestObject"))
        .unwrap();
    let client = rt.session("h0").unwrap();
    let stub = client
        .bind(&Rpc::new("TestObject", "counter", "h1"))
        .unwrap();
    let mut expected = 0;
    let per_call = allocs_per_call(|| {
        expected += 1;
        assert_eq!(client.call(&stub, methods::INC, &()).unwrap(), expected);
    });
    assert!(
        per_call <= 16.0,
        "Session::call averaged {per_call} allocations"
    );
}

#[test]
fn raw_drive_call_stays_within_6_allocations() {
    let mut world = World::with_network(101, Network::new(LinkSpec::ethernet_10mbps()));
    let client = world.add_node("client", client_endpoint(Config::default()));
    let server = world.add_node(
        "server",
        server_endpoint(
            Config::default(),
            "counter",
            Box::new(|_m: &str, _args: &[u8], _e: &mut ObjectEnv<'_>| {
                mage_rmi::encode_args(&1i64).map_err(|e| Fault::App(e.to_string()))
            }),
        ),
    );
    let args = mage_codec::to_bytes(&()).unwrap();
    let per_call = allocs_per_call(|| {
        let out = drive_call(&mut world, client, server, "counter", "inc", args.clone())
            .unwrap()
            .unwrap();
        assert_eq!(mage_rmi::decode_result::<i64>(&out).unwrap(), 1);
    });
    assert!(
        per_call <= 6.0,
        "drive_call averaged {per_call} allocations"
    );
}
