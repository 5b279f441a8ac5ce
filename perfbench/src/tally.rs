//! Per-layer counts read from the world's [`TraceLog`] in traced rounds.
//!
//! With tracing on, every RMI call is labelled `call:mage.<method>`, so the
//! protocol calls each engine phase issues can be counted from outside the
//! crates. The log is consumed incrementally and cleared, so a long traced
//! round does not hold every event in memory.

use std::collections::BTreeMap;

use mage_core::Runtime;
use mage_sim::{NodeId, SimTime, TraceEvent};

/// Counts accumulated over one traced round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    pub find: u64,
    /// `moveTo` plus `receive` calls.
    pub moves: u64,
    /// Bytes of `moveTo` and `receive` calls (the migrating state).
    pub move_bytes: u64,
    pub instantiate: u64,
    pub invoke: u64,
    /// `receiveClass` pushes plus `fetchClass` pulls.
    pub class_ship: u64,
    /// Bytes of pushed classes plus bytes of `fetchClass` replies.
    pub class_bytes: u64,
    /// `lock` plus `unlock` calls.
    pub lock_calls: u64,
    pub checkpoint: u64,
    pub checkpoint_bytes: u64,
    pub fault_rsp: u64,
    /// Bind-type operations seen, and how many needed no `find` message.
    pub binds: u64,
    pub binds_without_find: u64,
    /// `find` calls made inside bind-type operations.
    pub bind_finds: u64,
    /// Virtual time of the first restore (call sent, or restored locally)
    /// after each marked crash.
    pub restore_at: Vec<SimTime>,
    /// `fetchClass` calls delivered and not yet answered, by
    /// (server, client): the next response on that pair carries the class.
    fetch_open: BTreeMap<(NodeId, NodeId), u64>,
    awaiting_restore: bool,
}

impl Tally {
    /// Notes a crash: the next restore event is its recovery's start.
    pub fn mark_crash(&mut self) {
        self.awaiting_restore = true;
    }

    /// Consumes the events recorded since the last call, attributing them
    /// to one bind-type operation when `bind` is set, then clears the log.
    pub fn consume(&mut self, rt: &mut Runtime, bind: bool) {
        let mut finds = 0;
        {
            let world = rt.world();
            for event in world.trace().events() {
                finds += u64::from(self.record(event));
            }
        }
        rt.world_mut().trace_mut().clear();
        if bind {
            self.binds += 1;
            self.bind_finds += finds;
            self.binds_without_find += u64::from(finds == 0);
        }
    }

    /// Records one event; returns whether it was a `find` call.
    fn record(&mut self, event: &TraceEvent) -> bool {
        match event {
            TraceEvent::Send {
                at,
                from,
                to,
                label,
                bytes,
                ..
            } => {
                let Some(method) = label.strip_prefix("call:mage.") else {
                    if label.starts_with("rsp:") {
                        if label == "rsp:fault" {
                            self.fault_rsp += 1;
                        }
                        if let Some(open) = self.fetch_open.get_mut(&(*from, *to)) {
                            if *open > 0 {
                                *open -= 1;
                                self.class_bytes += bytes;
                            }
                        }
                    }
                    return false;
                };
                match method {
                    "find" => {
                        self.find += 1;
                        return true;
                    }
                    "moveTo" | "receive" => {
                        self.moves += 1;
                        self.move_bytes += bytes;
                    }
                    "instantiate" => self.instantiate += 1,
                    "invoke" => self.invoke += 1,
                    "receiveClass" => {
                        self.class_ship += 1;
                        self.class_bytes += bytes;
                    }
                    "fetchClass" => self.class_ship += 1,
                    "lock" | "unlock" => self.lock_calls += 1,
                    "checkpoint" => {
                        self.checkpoint += 1;
                        self.checkpoint_bytes += bytes;
                    }
                    "restore" => self.restore_started(*at),
                    _ => {}
                }
                false
            }
            TraceEvent::Deliver {
                from, to, label, ..
            } if label == "call:mage.fetchClass" => {
                *self.fetch_open.entry((*to, *from)).or_insert(0) += 1;
                false
            }
            TraceEvent::Note { at, text, .. } if text.starts_with("invariant:restore:") => {
                self.restore_started(*at);
                false
            }
            _ => false,
        }
    }

    fn restore_started(&mut self, at: SimTime) {
        if self.awaiting_restore {
            self.awaiting_restore = false;
            self.restore_at.push(at);
        }
    }
}
