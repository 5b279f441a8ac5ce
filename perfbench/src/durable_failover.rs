//! `durable_failover`: four clients each keep one operation outstanding
//! against four `Durability::Replicated` objects (1 KiB state) whose
//! primaries live on `h1` and `h2` and whose backup home is `h0`. The mix
//! is writes (`INC`), reads (`GET`) and lock→INC→unlock cycles contending
//! on one hot object. At fixed points the benchmark drains to quiescence
//! and crashes one primary host; the first operation on each object the
//! crash took down is served through the restore path, then the host
//! restarts, the objects move back to it and every client rebinds.

use std::time::Instant;

use mage_core::attribute::{Cle, Rev};
use mage_core::{Durability, LockKind, ObjectHandle, ObjectSpec, Pending, Runtime, Session, Stub};

use crate::blob::{self, Blob, CLASS, GET, INC};
use crate::harness::{Mode, OpLog, Round, Window};
use crate::layers::Shape;
use crate::migrate_mix::host;
use crate::stats::Rng;
use crate::Workload;

const HOSTS: usize = 4;
const CLIENTS: usize = 4;
const OBJECTS: usize = 4;
const STATE_BYTES: usize = 1024;
/// Operations per round.
const OPS: usize = 4_800;
/// A crash every this many operations.
const CRASH_EVERY: usize = 400;
/// The client that drives recovery and move-back (on `h3`, never crashed).
const ADMIN: usize = 3;
/// The object lock cycles contend on.
const HOT: usize = 0;
const REPLICATED: Durability = Durability::Replicated { backups: 1 };

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Inc(usize),
    Get(usize),
    /// lock → INC → unlock on one object.
    Cycle(usize),
    /// Drain to quiescence, then crash this primary host.
    Crash(usize),
}

/// Primary host of object `i`: `d0`,`d1` on `h1`; `d2`,`d3` on `h2`.
fn primary(i: usize) -> usize {
    1 + i / 2
}

fn object(i: usize) -> String {
    format!("d{i}")
}

/// A client's in-flight operation.
enum Stage {
    Idle,
    Call {
        pending: Pending<i64>,
        obj: usize,
        inc: bool,
        /// INCs on `obj` completed when this op was issued.
        floor: i64,
    },
    Lock(Pending<LockKind>, usize),
    CycleInc(Pending<i64>, usize, i64),
    Unlock(Pending<()>),
}

/// Issue-time clocks of a client's current operation.
#[derive(Clone, Copy)]
struct Started {
    wall: Instant,
    virt_us: u64,
}

pub struct DurableFailover {
    rt: Runtime,
    sessions: Vec<Session>,
    /// `stubs[client][object]`.
    stubs: Vec<Vec<Stub>>,
}

/// Output bookkeeping shared by the loop and its checks.
struct Books {
    /// INCs completed per object.
    done: [i64; OBJECTS],
    /// INCs issued per object.
    issued: [i64; OBJECTS],
    /// Highest value each client has read or written per object.
    seen: [[i64; OBJECTS]; CLIENTS],
}

impl Books {
    /// Checks a completed INC (`inc`) or GET against what was issued and
    /// completed around it; returns whether it is consistent.
    fn complete(&mut self, client: usize, obj: usize, inc: bool, floor: i64, v: i64) -> bool {
        let ok = if inc {
            v > floor && v <= self.issued[obj]
        } else {
            v >= floor && v <= self.issued[obj]
        } && v >= self.seen[client][obj];
        if inc {
            self.done[obj] += 1;
        }
        self.seen[client][obj] = self.seen[client][obj].max(v);
        ok
    }
}

impl Workload for DurableFailover {
    const SHAPE: Shape = Shape::DurableFailover;

    type Op = Op;

    fn plan(seed: u64) -> Vec<Op> {
        let mut rng = Rng::new(seed);
        let mut plan = Vec::with_capacity(OPS + OPS / CRASH_EVERY);
        for i in 0..OPS {
            if i > 0 && i % CRASH_EVERY == 0 {
                plan.push(Op::Crash(1 + rng.below(2)));
            }
            let roll = rng.below(100);
            plan.push(if roll < 45 {
                Op::Inc(rng.below(OBJECTS))
            } else if roll < 90 {
                Op::Get(rng.below(OBJECTS))
            } else {
                Op::Cycle(HOT)
            });
        }
        plan
    }

    fn setup(seed: u64, mode: Mode) -> Result<Self, String> {
        let mut rt = Runtime::builder()
            .seed(seed)
            .nodes((0..HOSTS).map(host))
            .class(blob::class())
            .trace(mode == Mode::Traced)
            .build();
        rt.deploy_class(CLASS, "h0").map_err(|e| e.to_string())?;
        let sessions = (0..CLIENTS)
            .map(|i| rt.session(&host(i)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        for i in 0..OBJECTS {
            sessions[0]
                .create(
                    ObjectSpec::new(object(i))
                        .class(CLASS)
                        .state(&Blob::with_payload(STATE_BYTES))
                        .durability(REPLICATED)
                        .mobility(Rev::new(CLASS, object(i), host(primary(i))))
                        .backup("h0"),
                )
                .map_err(|e| e.to_string())?;
        }
        let mut stubs = Vec::with_capacity(CLIENTS);
        for session in &sessions {
            let mut row = Vec::with_capacity(OBJECTS);
            for i in 0..OBJECTS {
                let stub = session
                    .bind(&Cle::new(CLASS, object(i)))
                    .map_err(|e| e.to_string())?;
                // Warm-up: one read per client and object.
                let v = session.call(&stub, GET, &()).map_err(|e| e.to_string())?;
                if v != 0 {
                    return Err(format!("warm-up GET of d{i} returned {v}"));
                }
                row.push(stub);
            }
            stubs.push(row);
        }
        rt.run_until_idle().map_err(|e| e.to_string())?;
        Ok(DurableFailover {
            rt,
            sessions,
            stubs,
        })
    }

    #[allow(clippy::too_many_lines)]
    fn run(
        &mut self,
        plan: &[Op],
        mode: Mode,
        log: &mut OpLog,
        round: &mut Round,
    ) -> Result<(), String> {
        let DurableFailover {
            rt,
            sessions,
            stubs,
        } = self;
        let traced = mode == Mode::Traced;
        let mut books = Books {
            done: [0; OBJECTS],
            issued: [0; OBJECTS],
            seen: [[0; OBJECTS]; CLIENTS],
        };
        let mut stages: Vec<Stage> = (0..CLIENTS).map(|_| Stage::Idle).collect();
        let mut started = [Started {
            wall: Instant::now(),
            virt_us: 0,
        }; CLIENTS];
        let mut lock_at = [0u64; CLIENTS];
        let mut cursor = 0;

        let window = Window::open(rt, log);
        loop {
            // Hand the next operations to idle clients, stopping at a crash
            // marker until every client has drained.
            for c in 0..CLIENTS {
                if !matches!(stages[c], Stage::Idle) {
                    continue;
                }
                let Some(&op) = plan.get(cursor) else { break };
                if matches!(op, Op::Crash(_)) {
                    break;
                }
                cursor += 1;
                let now = rt.now().as_micros();
                started[c] = Started {
                    wall: Instant::now(),
                    virt_us: now,
                };
                let session = &sessions[c];
                let issued = match op {
                    Op::Inc(obj) | Op::Get(obj) => {
                        let inc = matches!(op, Op::Inc(_));
                        if inc {
                            books.issued[obj] += 1;
                        }
                        let method = if inc { INC } else { GET };
                        session
                            .call_async(&stubs[c][obj], method, &())
                            .map(|pending| Stage::Call {
                                pending,
                                obj,
                                inc,
                                floor: books.done[obj],
                            })
                    }
                    Op::Cycle(obj) => {
                        lock_at[c] = now;
                        session
                            .lock_async(&object(obj), &host(primary(obj)))
                            .map(|p| Stage::Lock(p, obj))
                    }
                    Op::Crash(_) => unreachable!("crash markers are handled below"),
                };
                match issued {
                    Ok(stage) => stages[c] = stage,
                    Err(_) => {
                        round.failed += 1;
                        log.push(started[c].wall, 0);
                    }
                }
            }

            if stages.iter().all(|s| matches!(s, Stage::Idle)) {
                match plan.get(cursor) {
                    None => break,
                    Some(&Op::Crash(victim)) => {
                        cursor += 1;
                        crash_and_recover(
                            rt, sessions, stubs, victim, traced, &mut books, log, round,
                        )?;
                        continue;
                    }
                    Some(_) => continue,
                }
            }

            if !rt.step() {
                // Operations outstanding on an idle world: a hang.
                let stuck = stages.iter().filter(|s| !matches!(s, Stage::Idle)).count();
                round.failed += stuck as u64;
                return Err(format!(
                    "durable_failover: {stuck} operations never completed"
                ));
            }

            for c in 0..CLIENTS {
                let done = match &stages[c] {
                    Stage::Idle => false,
                    Stage::Call { pending, .. } | Stage::CycleInc(pending, ..) => pending.is_done(),
                    Stage::Lock(pending, _) => pending.is_done(),
                    Stage::Unlock(pending) => pending.is_done(),
                };
                if !done {
                    continue;
                }
                let now = rt.now().as_micros();
                let mut next = None;
                let mut ok;
                match std::mem::replace(&mut stages[c], Stage::Idle) {
                    Stage::Idle => unreachable!("checked above"),
                    Stage::Call {
                        pending,
                        obj,
                        inc,
                        floor,
                    } => match pending.wait() {
                        Ok(v) => {
                            ok = books.complete(c, obj, inc, floor, v);
                            round.incs_ok += u64::from(inc && ok);
                        }
                        Err(_) => ok = false,
                    },
                    Stage::Lock(pending, obj) => {
                        if pending.wait().is_ok() {
                            round.lock_wait_us.push(now - lock_at[c]);
                            books.issued[obj] += 1;
                            let floor = books.done[obj];
                            next = sessions[c]
                                .call_async(&stubs[c][obj], INC, &())
                                .map(|p| Stage::CycleInc(p, obj, floor))
                                .ok();
                            ok = next.is_some();
                        } else {
                            ok = false;
                        }
                    }
                    Stage::CycleInc(pending, obj, floor) => {
                        match pending.wait() {
                            Ok(v) => {
                                ok = books.complete(c, obj, true, floor, v);
                                round.incs_ok += u64::from(ok);
                            }
                            Err(_) => ok = false,
                        }
                        // Release even after a failed INC, so the lock
                        // never outlives the cycle.
                        next = sessions[c]
                            .unlock_async(&object(obj))
                            .map(Stage::Unlock)
                            .ok();
                        ok &= next.is_some();
                    }
                    Stage::Unlock(pending) => ok = pending.wait().is_ok(),
                }
                if !ok {
                    round.failed += 1;
                }
                match next {
                    Some(stage) => stages[c] = stage,
                    None => log.push(started[c].wall, now - started[c].virt_us),
                }
                if traced {
                    round.tally.consume(rt, false);
                }
            }
        }
        window.close(rt, log, round);

        rt.run_until_idle()
            .map_err(|e| format!("drain failed: {e}"))?;
        for (i, expected) in books.done.iter().enumerate() {
            let v = sessions[0]
                .call(&stubs[0][i], GET, &())
                .map_err(|e| format!("final GET of d{i} failed: {e}"))?;
            if v != *expected {
                return Err(format!(
                    "durable_failover: d{i} reads {v}, expected {expected} successful INCs"
                ));
            }
        }
        Ok(())
    }

    fn runtime(&self) -> &Runtime {
        &self.rt
    }
}

/// Crashes `victim` at a quiescent point, serves the first operation on
/// each object it took down through the restore path (checking that the
/// restored counter holds every acknowledged INC), restarts the host,
/// moves the objects back and rebinds every client's stubs.
#[allow(clippy::too_many_arguments)]
fn crash_and_recover(
    rt: &mut Runtime,
    sessions: &[Session],
    stubs: &mut [Vec<Stub>],
    victim: usize,
    traced: bool,
    books: &mut Books,
    log: &mut OpLog,
    round: &mut Round,
) -> Result<(), String> {
    rt.run_until_idle()
        .map_err(|e| format!("drain before crash failed: {e}"))?;
    if traced {
        round.tally.consume(rt, false);
        round.tally.mark_crash();
    }
    let crash_at = rt.now().as_micros();
    round.crash_at_us.push(crash_at);
    rt.crash(&host(victim)).map_err(|e| e.to_string())?;
    let downed: Vec<usize> = (0..OBJECTS).filter(|&i| primary(i) == victim).collect();
    let admin = &sessions[ADMIN];

    for (n, &obj) in downed.iter().enumerate() {
        let mut handle = ObjectHandle::new(stubs[ADMIN][obj].clone(), REPLICATED, true);
        let wall = Instant::now();
        let before = rt.now().as_micros();
        books.issued[obj] += 1;
        let result = admin.call_handle(&mut handle, INC, &());
        let now = rt.now().as_micros();
        log.push(wall, now - before);
        // Quiescent crash: the restored counter must hold every INC that
        // was acknowledged before it, exactly.
        if !matches!(result, Ok(v) if v == books.done[obj] + 1) {
            round.failed += 1;
            return Err(format!(
                "durable_failover: first INC on restored d{obj} returned {result:?}, \
                 expected {}",
                books.done[obj] + 1
            ));
        }
        books.done[obj] += 1;
        round.incs_ok += 1;
        if n == 0 {
            round.recovery_ms.push((now - crash_at) as f64 / 1e3);
            round.served_at_us.push(now);
        }
        if traced {
            round.tally.consume(rt, false);
        }
    }

    rt.restart(&host(victim)).map_err(|e| e.to_string())?;
    for &obj in &downed {
        admin
            .bind(&Rev::new(CLASS, object(obj), host(victim)))
            .map_err(|e| format!("move-back of d{obj} failed: {e}"))?;
        if traced {
            round.tally.consume(rt, true);
        }
        for (c, session) in sessions.iter().enumerate() {
            stubs[c][obj] = session
                .rebind(&stubs[c][obj])
                .map_err(|e| format!("rebind of d{obj} failed: {e}"))?;
            if traced {
                round.tally.consume(rt, true);
            }
        }
    }
    Ok(())
}
