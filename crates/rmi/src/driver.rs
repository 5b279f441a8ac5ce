//! A minimal [`App`] that turns driver commands into plain RMI calls.
//!
//! This is the pure-RMI client used as the paper's *Java's RMI* baseline:
//! no MAGE machinery, just a stub call to a named object on a known node.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bytes::Bytes;
use mage_sim::{NodeId, OpId, SimError, World};

use crate::endpoint::{App, Config, Endpoint, Env};
use crate::error::RmiError;
use crate::object::RemoteObject;

/// One plain RMI call issued by the driver: injected into a
/// [`DriverClient`] as a typed value (see [`World::inject`]), and handed
/// back as the op's completion with [`result`](DriverCmd::result) filled
/// in, so the command's allocation carries the answer too.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverCmd {
    /// Operation to complete when the call finishes.
    pub op: OpId,
    /// Target node.
    pub to: NodeId,
    /// Name of the remote object.
    pub object: Arc<str>,
    /// Method to invoke.
    pub method: Arc<str>,
    /// Marshalled arguments.
    pub args: Vec<u8>,
    /// The call's outcome: `None` when injected, set on completion.
    pub result: Option<Result<Bytes, RmiError>>,
}

/// App that executes one plain RMI call per injected [`DriverCmd`] and
/// completes its op with that command, `result` filled in.
#[derive(Debug, Default)]
pub struct DriverClient {
    /// Commands whose calls are in flight, by call token (the raw op id).
    in_flight: HashMap<u64, Box<DriverCmd>>,
}

impl App for DriverClient {
    fn on_driver(&mut self, env: &mut Env<'_, '_>, payload: Box<dyn Any>) {
        let cmd = payload
            .downcast::<DriverCmd>()
            .expect("DriverClient is driven by DriverCmd");
        let token = cmd.op.as_raw();
        env.call(cmd.to, &*cmd.object, &*cmd.method, &cmd.args, token);
        self.in_flight.insert(token, cmd);
    }

    fn on_reply(&mut self, env: &mut Env<'_, '_>, token: u64, result: Result<Bytes, RmiError>) {
        if let Some(mut cmd) = self.in_flight.remove(&token) {
            cmd.result = Some(result);
            env.complete_op(cmd.op, cmd);
        }
    }
}

/// Builds a client endpoint (driver-driven, no bound objects).
pub fn client_endpoint(cfg: Config) -> Endpoint<DriverClient> {
    Endpoint::new(DriverClient::default(), cfg)
}

/// Builds a server endpoint hosting one object bound under `name`.
pub fn server_endpoint(
    cfg: Config,
    name: &str,
    object: Box<dyn RemoteObject>,
) -> Endpoint<DriverClient> {
    let mut endpoint = Endpoint::new(DriverClient::default(), cfg);
    endpoint.bind(name, object);
    endpoint
}

thread_local! {
    /// Names [`drive_call`] has issued commands for, shared so a repeated
    /// call carries its names without copying them.
    static NAMES: RefCell<HashSet<Arc<str>>> = RefCell::new(HashSet::new());
    /// The box the last [`drive_call`] completed in, for the next call's
    /// command to travel in.
    static SPARE: RefCell<Option<Box<DriverCmd>>> = const { RefCell::new(None) };
}

/// The shared copy of `name` (allocated on its first use only).
fn shared_name(name: &str) -> Arc<str> {
    NAMES.with(|names| {
        let mut names = names.borrow_mut();
        if let Some(shared) = names.get(name) {
            return Arc::clone(shared);
        }
        let shared: Arc<str> = Arc::from(name);
        names.insert(Arc::clone(&shared));
        shared
    })
}

/// Synchronously executes one RMI call from `client` to `object`@`server`,
/// running the world until it completes.
///
/// # Errors
///
/// * [`SimError`] wrapped failures if the world stalls or the budget runs out
/// * an `Err(String)` payload if the call itself failed (fault or timeout)
pub fn drive_call(
    world: &mut World,
    client: NodeId,
    server: NodeId,
    object: &str,
    method: &str,
    args: Vec<u8>,
) -> Result<Result<Vec<u8>, String>, SimError> {
    let op = world.begin_op();
    let cmd = DriverCmd {
        op,
        to: server,
        object: shared_name(object),
        method: shared_name(method),
        args,
        result: None,
    };
    let boxed = match SPARE.with(|spare| spare.borrow_mut().take()) {
        Some(mut spare) => {
            *spare = cmd;
            spare
        }
        None => Box::new(cmd),
    };
    world.inject(client, "drive-call", boxed);
    let mut done: Box<DriverCmd> = world.block_on_boxed(op)?;
    let result = done
        .result
        .take()
        .expect("a completed call carries its result");
    SPARE.with(|spare| *spare.borrow_mut() = Some(done));
    Ok(result.map(|b| b.to_vec()).map_err(|e| e.to_string()))
}
