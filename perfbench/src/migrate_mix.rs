//! `migrate_mix`: a seeded mix of `bind_invoke(INC)` over all seven
//! models on six namespaces and sixteen objects whose state is 64 B,
//! 1 KiB, 8 KiB or 32 KiB. The class is deployed only at `h0`, so moves
//! to a namespace that lacks it ship the class; sessions on every host
//! hold stale location caches, so find walks and path repair are routine.
//!
//! The generator tracks each object's placement, so LPC runs from the
//! object's host and RPC names it: no step is rejected by design. A
//! mobile-agent step ends when its one-way invocation has run.

use std::time::Instant;

use mage_core::attribute::{Cle, Cod, Grev, Lpc, MobileAgent, MobilityAttribute, Rev, Rpc};
use mage_core::{ObjectSpec, Runtime, Session};

use crate::blob::{self, Blob, CLASS, GET, INC};
use crate::harness::{Mode, OpLog, Round, Window};
use crate::layers::Shape;
use crate::stats::Rng;
use crate::Workload;

const HOSTS: usize = 6;
const OBJECTS: usize = 16;
/// State sizes; object `i` carries `SIZES[i % 4]` bytes.
pub const SIZES: [usize; 4] = [64, 1024, 8192, 32768];
/// Blocks per round; a block is one step per (model, state size) pair.
const BLOCKS: usize = 100;
/// Share of REV binds that are lock-guarded (percent).
const GUARDED_PCT: u64 = 25;

/// The seven models, in the order their per-model rows are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    Lpc,
    Rpc,
    Cod,
    Rev,
    Grev,
    Cle,
    Ma,
}

impl Model {
    pub const ALL: [Model; 7] = [
        Model::Lpc,
        Model::Rpc,
        Model::Cod,
        Model::Rev,
        Model::Grev,
        Model::Cle,
        Model::Ma,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Model::Lpc => "lpc",
            Model::Rpc => "rpc",
            Model::Cod => "cod",
            Model::Rev => "rev",
            Model::Grev => "grev",
            Model::Cle => "cle",
            Model::Ma => "ma",
        }
    }
}

/// One generated step: which session binds which attribute.
pub struct Op {
    client: usize,
    obj: usize,
    model: Model,
    attr: Box<dyn MobilityAttribute>,
}

pub fn host(i: usize) -> String {
    format!("h{i}")
}

fn object(i: usize) -> String {
    format!("o{i}")
}

/// Generates one step of `model` on `obj`, updating the tracked placement.
fn step(rng: &mut Rng, place: &mut [usize; OBJECTS], model: Model, obj: usize) -> Op {
    let at = place[obj];
    let name = object(obj);
    let (client, attr): (usize, Box<dyn MobilityAttribute>) = match model {
        Model::Lpc => (at, Box::new(Lpc::new(CLASS, name))),
        Model::Rpc => (
            rng.below_except(HOSTS, &[at]),
            Box::new(Rpc::new(CLASS, name, host(at))),
        ),
        Model::Cle => (rng.below(HOSTS), Box::new(Cle::new(CLASS, name))),
        Model::Cod => {
            let client = rng.below_except(HOSTS, &[at]);
            place[obj] = client;
            (client, Box::new(Cod::new(CLASS, name)))
        }
        Model::Rev => {
            let client = rng.below(HOSTS);
            let target = rng.below_except(HOSTS, &[at, client]);
            place[obj] = target;
            let rev = Rev::new(CLASS, name, host(target));
            let rev = if rng.percent(GUARDED_PCT) {
                rev.guarded()
            } else {
                rev
            };
            (client, Box::new(rev))
        }
        Model::Grev => {
            let client = rng.below(HOSTS);
            let target = rng.below_except(HOSTS, &[at]);
            place[obj] = target;
            (client, Box::new(Grev::new(CLASS, name, host(target))))
        }
        Model::Ma => {
            let client = rng.below(HOSTS);
            let target = rng.below_except(HOSTS, &[at]);
            place[obj] = target;
            (
                client,
                Box::new(MobileAgent::new(CLASS, name, host(target))),
            )
        }
    };
    Op {
        client,
        obj,
        model,
        attr,
    }
}

pub struct MigrateMix {
    rt: Runtime,
    sessions: Vec<Session>,
}

impl Workload for MigrateMix {
    const SHAPE: Shape = Shape::MigrateMix;

    type Op = Op;

    fn plan(seed: u64) -> Vec<Op> {
        let mut rng = Rng::new(seed);
        let mut place = [0usize; OBJECTS];
        // Stratified: every block holds each (model, state size) pair once,
        // in seeded order, so seeds change the schedule but not its mix.
        let mut pairs: Vec<(Model, usize)> = Model::ALL
            .iter()
            .flat_map(|&m| (0..SIZES.len()).map(move |s| (m, s)))
            .collect();
        let mut plan = Vec::with_capacity(BLOCKS * pairs.len());
        for _ in 0..BLOCKS {
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, rng.below(i + 1));
            }
            for &(model, size) in &pairs {
                let obj = size + SIZES.len() * rng.below(OBJECTS / SIZES.len());
                plan.push(step(&mut rng, &mut place, model, obj));
            }
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
        let sessions = (0..HOSTS)
            .map(|i| rt.session(&host(i)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        for i in 0..OBJECTS {
            sessions[0]
                .create(
                    ObjectSpec::new(object(i))
                        .class(CLASS)
                        .state(&Blob::with_payload(SIZES[i % SIZES.len()])),
                )
                .map_err(|e| e.to_string())?;
        }
        // Warm-up: read every object in place from its home.
        for i in 0..OBJECTS {
            let (_, v) = sessions[0]
                .bind_invoke(&Cle::new(CLASS, object(i)), GET, &())
                .map_err(|e| e.to_string())?;
            if v != Some(0) {
                return Err(format!("warm-up GET of o{i} returned {v:?}"));
            }
        }
        Ok(MigrateMix { rt, sessions })
    }

    fn run(
        &mut self,
        plan: &[Op],
        mode: Mode,
        log: &mut OpLog,
        round: &mut Round,
    ) -> Result<(), String> {
        let mut count = [0i64; OBJECTS];
        let window = Window::open(&mut self.rt, log);
        for op in plan {
            let wall = Instant::now();
            let before = self.rt.now();
            let mut result = self.sessions[op.client].bind_invoke(op.attr.as_ref(), INC, &());
            if op.model == Model::Ma && result.is_ok() {
                // A mobile agent's invocation is one-way: the step ends
                // when it has run, so the next step sees its increment.
                if let Err(e) = self.rt.run_until_idle() {
                    result = Err(e);
                }
            }
            let virt = self.rt.now().as_micros() - before.as_micros();
            log.push(wall, virt);
            match result {
                Ok((_, None)) if op.model == Model::Ma => {
                    count[op.obj] += 1;
                    round.incs_ok += 1;
                }
                Ok((_, Some(v))) if op.model != Model::Ma && v == count[op.obj] + 1 => {
                    count[op.obj] = v;
                    round.incs_ok += 1;
                }
                _ => round.failed += 1,
            }
            if mode == Mode::Traced {
                round.tally.consume(&mut self.rt, true);
            }
        }
        window.close(&self.rt, log, round);
        self.rt
            .run_until_idle()
            .map_err(|e| format!("drain failed: {e}"))?;
        for (i, expected) in count.iter().enumerate() {
            let (_, v) = self.sessions[0]
                .bind_invoke(&Cle::new(CLASS, object(i)), GET, &())
                .map_err(|e| format!("final GET of o{i} failed: {e}"))?;
            if v != Some(*expected) {
                return Err(format!(
                    "migrate_mix: o{i} reads {v:?}, expected {expected} successful INCs"
                ));
            }
        }
        Ok(())
    }

    fn runtime(&self) -> &Runtime {
        &self.rt
    }
}
