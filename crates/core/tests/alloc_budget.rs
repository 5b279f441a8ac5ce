//! Allocation budgets of the steady-state call paths.
//!
//! A counting global allocator tallies the heap allocations (and
//! reallocations) made by the current thread, by size, so the budgets
//! hold however the test harness schedules other tests. After warm-up:
//!
//! * a `Session::call` through an `Rpc` stub makes at most 3
//!   allocations: the request frame, the reply frame and the object's
//!   `result_from` `Vec`. The op's command box is recycled through the
//!   session's spare slot, service arguments are encoded into the node's
//!   scratch buffer, and exec tasks sit unboxed in the task table;
//! * four outstanding `call_async`s waited together make at most 3.75
//!   per call: the same 3, plus the op cells of the three ops beyond the
//!   first. Four ops in flight hold four cells at once, and the session
//!   keeps one spare;
//! * a raw `mage_rmi::drive_call` round trip makes at most 4: the
//!   driver hands its node a typed command and takes a typed completion
//!   back, with no encoding in between, and the command's box is
//!   recycled from one call to the next;
//! * an unguarded REV `bind_invoke` that moves a small object to a third
//!   node makes at most 15, over two round trips: the act to the host and
//!   the move's `receive`, which carries the invocation.
//!
//! A budget that fails prints the allocations per call by size, so the
//! site that regressed can be named without a backtrace probe: 32 B is a
//! request or reply frame, 64 B the object's `result_from` `Vec` or a
//! service call's encoded arguments, 168 B an op cell, 56 B a boxed
//! completion and 368 B a boxed exec task.
//!
//! The last two tests check that no per-op state outlives bursts of
//! concurrent ops, some abandoned unwaited, or a wait that runs out of
//! event budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

use mage_core::attribute::{Rev, Rpc};
use mage_core::workload_support::{methods, test_object_class};
use mage_core::{MageNode, ObjectSpec, Runtime, Session, Stub};
use mage_rmi::{client_endpoint, drive_call, server_endpoint, Config, Endpoint, Fault, ObjectEnv};
use mage_sim::{LinkSpec, Network, SimDuration, World};

struct CountingAlloc;

/// Size classes of the histogram: exact in 8 B steps up to 512 B, then
/// one class for everything larger.
const SIZE_CLASSES: usize = 66;

thread_local! {
    /// Blocks allocated and not yet freed by this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static BY_SIZE: [Cell<u64>; SIZE_CLASSES] = const { [const { Cell::new(0) }; SIZE_CLASSES] };
}

fn size_class(size: usize) -> usize {
    size.div_ceil(8).min(SIZE_CLASSES - 1)
}

fn bump(size: usize) {
    // `try_with`: allocations made while the thread is being torn down
    // are not counted.
    let _ = BY_SIZE.try_with(|sizes| {
        let slot = &sizes[size_class(size)];
        slot.set(slot.get() + 1);
    });
}

fn live_delta(by: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + by));
}

// SAFETY: every operation is delegated to `System` unchanged; the
// counters are thread-local statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        live_delta(1);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_delta(-1);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        // SAFETY: `ptr`/`layout` come from `System`; the caller upholds
        // the `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Untimed calls before a measurement: enough for the server's reply
/// cache (one retry horizon of replies) to reach its steady size.
const WARMUP: usize = 400;
const CALLS: usize = 1000;

/// Allowance per call for hash-table growth: std's tables grow at points
/// that depend on their random hash seeds, so a rare growth allocation
/// can land in a measured stretch of a run.
const GROWTH_SLACK: f64 = 0.01;

/// Allocations per call of a measured stretch, overall and by size.
struct Tally {
    per_call: f64,
    by_size: Vec<(usize, f64)>,
}

impl std::fmt::Display for Tally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut sizes = String::new();
        for (class, n) in &self.by_size {
            let label = if *class == SIZE_CLASSES - 1 {
                format!(">{} B", 8 * (SIZE_CLASSES - 2))
            } else {
                format!("{} B", 8 * class)
            };
            let _ = write!(sizes, " {label}: {n:.3};");
        }
        write!(
            f,
            "{:.3} allocations per call (by size:{sizes})",
            self.per_call
        )
    }
}

/// This thread's allocations so far, by size class.
fn snapshot() -> [u64; SIZE_CLASSES] {
    BY_SIZE.with(|sizes| std::array::from_fn(|i| sizes[i].get()))
}

/// Allocations per call of `op`, which makes `calls_per_op` calls, over
/// [`CALLS`] calls after [`WARMUP`] untimed ones.
fn allocs_per_call(calls_per_op: usize, mut op: impl FnMut()) -> Tally {
    for _ in 0..WARMUP / calls_per_op {
        op();
    }
    let before = snapshot();
    for _ in 0..CALLS / calls_per_op {
        op();
    }
    let after = snapshot();
    let calls = (CALLS / calls_per_op * calls_per_op) as f64;
    let by_size: Vec<(usize, f64)> = (0..SIZE_CLASSES)
        .filter(|&i| after[i] > before[i])
        .map(|i| (i, (after[i] - before[i]) as f64 / calls))
        .collect();
    Tally {
        per_call: by_size.iter().map(|(_, n)| n).sum(),
        by_size,
    }
}

/// A client session on `h0` with an `Rpc` stub to a counter on `h1`.
fn rpc_counter() -> (Runtime, Session, Stub) {
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
    (rt, client, stub)
}

#[test]
fn session_call_on_an_rpc_stub_stays_within_3_allocations() {
    let (_rt, client, stub) = rpc_counter();
    let mut expected = 0;
    let tally = allocs_per_call(1, || {
        expected += 1;
        assert_eq!(client.call(&stub, methods::INC, &()).unwrap(), expected);
    });
    assert!(
        tally.per_call <= 3.0 + GROWTH_SLACK,
        "Session::call: {tally}"
    );
}

#[test]
fn four_outstanding_call_asyncs_stay_within_3_75_allocations_per_call() {
    let (_rt, client, stub) = rpc_counter();
    let mut expected = 0;
    let tally = allocs_per_call(4, || {
        let pending: [_; 4] =
            std::array::from_fn(|_| client.call_async(&stub, methods::INC, &()).unwrap());
        for p in pending {
            expected += 1;
            assert_eq!(p.wait().unwrap(), expected);
        }
    });
    assert!(
        tally.per_call <= 3.75 + GROWTH_SLACK,
        "4 x call_async: {tally}"
    );
}

#[test]
fn raw_drive_call_stays_within_4_allocations() {
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
    let tally = allocs_per_call(1, || {
        let out = drive_call(&mut world, client, server, "counter", "inc", args.clone())
            .unwrap()
            .unwrap();
        assert_eq!(mage_rmi::decode_result::<i64>(&out).unwrap(), 1);
    });
    assert!(tally.per_call <= 4.0 + GROWTH_SLACK, "drive_call: {tally}");
}

/// Two round trips: the act to the host, and the receive carrying the
/// invocation, whose result rides back through both replies. The act
/// followed by a separate invoke made 18 allocations per bind.
#[test]
fn unguarded_rev_bind_invoke_to_a_third_node_stays_within_15_allocations() {
    let mut rt = Runtime::builder()
        .seed(101)
        .nodes(["c", "h", "t"])
        .class(test_object_class())
        .build();
    for node in ["c", "h", "t"] {
        rt.deploy_class("TestObject", node).unwrap();
    }
    rt.session("h")
        .unwrap()
        .create(ObjectSpec::new("counter").class("TestObject"))
        .unwrap();
    let client = rt.session("c").unwrap();
    let there = Rev::new("TestObject", "counter", "t");
    let back = Rev::new("TestObject", "counter", "h");
    let mut expected = 0;
    let tally = allocs_per_call(2, || {
        for attr in [&there, &back] {
            expected += 1;
            let (_, v) = client.bind_invoke(attr, methods::INC, &()).unwrap();
            assert_eq!(v, Some(expected));
        }
    });
    assert!(
        tally.per_call <= 15.0 + GROWTH_SLACK,
        "REV bind_invoke: {tally}"
    );
}

/// Issues `k` concurrent `call_async`s and drops every third `Pending`
/// unwaited (the world forgets its op), then waits on the rest.
fn burst(client: &Session, stub: &Stub, k: usize) {
    let pending: Vec<_> = (0..k)
        .map(|_| client.call_async(stub, methods::INC, &()).unwrap())
        .collect();
    for (i, p) in pending.into_iter().enumerate() {
        if i % 3 == 0 {
            drop(p);
        } else {
            p.wait().unwrap();
        }
    }
}

/// Runs `rt` to idle, then lets one retry horizon pass and makes one
/// more call, whose arrival expires the replies the server still keeps
/// for retries. Returns the blocks this thread holds afterwards.
fn settle(rt: &mut Runtime, client: &Session, stub: &Stub) -> i64 {
    rt.run_until_idle().unwrap();
    rt.advance(SimDuration::from_secs(2)).unwrap();
    client.call(stub, methods::INC, &()).unwrap();
    rt.run_until_idle().unwrap();
    for name in ["h0", "h1"] {
        let id = rt.node_id(name).unwrap();
        let mut world = rt.world_mut();
        let node = world.actor_mut::<Endpoint<MageNode>>(id).unwrap().app_mut();
        assert_eq!(node.tasks_in_flight(), 0, "{name} keeps tasks");
        assert_eq!(node.ops_in_flight(), 0, "{name} keeps op cells");
    }
    LIVE.with(Cell::get)
}

#[test]
fn bursts_with_forgotten_ops_leave_no_per_op_state() {
    let (mut rt, client, stub) = rpc_counter();
    burst(&client, &stub, 4);
    let base = settle(&mut rt, &client, &stub);
    for k in [4, 16, 64] {
        burst(&client, &stub, k);
        // Whatever `k`, the node's task and op tables drain, forgotten
        // ops' cells are freed, and the session keeps one spare cell: the
        // blocks left held do not grow with the burst.
        assert_eq!(
            settle(&mut rt, &client, &stub),
            base,
            "a burst of {k} left blocks behind"
        );
    }
}

#[test]
fn a_wait_that_runs_out_of_budget_abandons_its_op() {
    let (mut rt, client, stub) = rpc_counter();
    let base = settle(&mut rt, &client, &stub);
    rt.world_mut().set_event_budget(1);
    assert!(client.call(&stub, methods::INC, &()).is_err());
    rt.world_mut().set_event_budget(1_000_000);
    // The call completes while the world settles; its cell is dropped,
    // not kept for a wait that will never come.
    assert_eq!(settle(&mut rt, &client, &stub), base);
}
