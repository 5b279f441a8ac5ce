//! `rpc_steady`: one client calls `INC` on a remote counter through an
//! `Rpc`-bound stub with unit arguments — the smallest frame, where the
//! per-message cost of the driver channel, node dispatch, RMI endpoint,
//! wire format and sim delivery dominates. No finds, moves, class
//! shipping or checkpoints.

use std::time::Instant;

use mage_core::attribute::Rpc;
use mage_core::workload_support::{methods, test_object_class};
use mage_core::{ObjectSpec, Runtime, Session, Stub};

use crate::harness::{Mode, OpLog, Round, Window};
use crate::layers::Shape;
use crate::Workload;

/// Calls per round.
const OPS: usize = 20_000;
/// Untimed calls made during set-up.
const WARMUP: usize = 200;

pub struct RpcSteady {
    rt: Runtime,
    client: Session,
    stub: Stub,
    /// Value the counter must hold before the timed window.
    base: i64,
}

impl Workload for RpcSteady {
    const SHAPE: Shape = Shape::RpcSteady;

    /// Every operation is the same call; the seed only seeds the world.
    type Op = ();

    fn plan(_seed: u64) -> Vec<()> {
        vec![(); OPS]
    }

    fn setup(seed: u64, mode: Mode) -> Result<Self, String> {
        let mut rt = Runtime::builder()
            .seed(seed)
            .nodes(["h0", "h1"])
            .class(test_object_class())
            .trace(mode == Mode::Traced)
            .build();
        rt.deploy_class("TestObject", "h1")
            .map_err(|e| e.to_string())?;
        let server = rt.session("h1").map_err(|e| e.to_string())?;
        server
            .create(ObjectSpec::new("counter").class("TestObject"))
            .map_err(|e| e.to_string())?;
        let client = rt.session("h0").map_err(|e| e.to_string())?;
        let stub = client
            .bind(&Rpc::new("TestObject", "counter", "h1"))
            .map_err(|e| e.to_string())?;
        for i in 1..=WARMUP {
            let v = client
                .call(&stub, methods::INC, &())
                .map_err(|e| e.to_string())?;
            if v != i as i64 {
                return Err(format!("warm-up INC returned {v}, expected {i}"));
            }
        }
        Ok(RpcSteady {
            rt,
            client,
            stub,
            base: WARMUP as i64,
        })
    }

    fn run(
        &mut self,
        plan: &[()],
        mode: Mode,
        log: &mut OpLog,
        round: &mut Round,
    ) -> Result<(), String> {
        let window = Window::open(&mut self.rt, log);
        let mut expected = self.base;
        for _ in plan {
            let wall = Instant::now();
            let before = self.rt.now();
            let result = self.client.call(&self.stub, methods::INC, &());
            let virt = self.rt.now().as_micros() - before.as_micros();
            log.push(wall, virt);
            match result {
                Ok(v) if v == expected + 1 => {
                    expected = v;
                    round.incs_ok += 1;
                }
                _ => round.failed += 1,
            }
            if mode == Mode::Traced {
                round.tally.consume(&mut self.rt, false);
            }
        }
        window.close(&self.rt, log, round);
        let last = self
            .client
            .call(&self.stub, methods::GET, &())
            .map_err(|e| format!("final GET failed: {e}"))?;
        if last != self.base + round.incs_ok as i64 {
            return Err(format!(
                "rpc_steady: counter reads {last}, expected {} successful INCs",
                self.base + round.incs_ok as i64
            ));
        }
        Ok(())
    }

    fn runtime(&self) -> &Runtime {
        &self.rt
    }
}
