//! An RMI-like remote invocation substrate over the MAGE simulator.
//!
//! The paper builds MAGE on Java RMI: "Since MAGE is built on top of RMI,
//! mobility attributes boil down to RMI calls" (§4.2). This crate is that
//! foundation, rebuilt from scratch:
//!
//! * [`Endpoint`] — one per namespace; serves a registry of named
//!   [`RemoteObject`]s and originates calls for its [`App`]
//! * at-most-once call semantics: client retransmission on loss plus a
//!   server-side response cache keyed by call id
//! * [`CostModel`] — CPU charges for marshalling, dispatch and connection
//!   priming, calibrated to the paper's JDK 1.2.2 testbed
//! * [`drive_call`] — a synchronous plain-RMI client used as the *Java's
//!   RMI* baseline row of Table 3
//!
//! The MAGE runtime (`mage-core`) plugs into this crate as an [`App`]; its
//! system services (find, lock, move, invoke) are ordinary calls on this
//! substrate, exactly as the paper's services are ordinary RMI calls.
//!
//! # Examples
//!
//! ```
//! use mage_rmi::{drive_call, server_endpoint, client_endpoint, Config, Fault, ObjectEnv};
//! use mage_sim::World;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut world = World::new(1);
//! let client = world.add_node("client", client_endpoint(Config::default()));
//! let server = world.add_node(
//!     "server",
//!     server_endpoint(
//!         Config::default(),
//!         "adder",
//!         Box::new(|_m: &str, args: &[u8], _e: &mut ObjectEnv<'_>| {
//!             let (a, b): (u32, u32) = mage_rmi::decode_result(args)
//!                 .map_err(|e| Fault::App(e.to_string()))?;
//!             Ok(mage_rmi::encode_args(&(a + b)).expect("encodes"))
//!         }),
//!     ),
//! );
//! let args = mage_rmi::encode_args(&(2u32, 3u32))?;
//! let result = drive_call(&mut world, client, server, "adder", "add", args)?
//!     .expect("call succeeds");
//! let sum: u32 = mage_rmi::decode_result(&result)?;
//! assert_eq!(sum, 5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod driver;
mod endpoint;
mod error;
mod object;
mod stub;
pub mod symbols;
pub mod wire;

pub use cost::CostModel;
pub use driver::{client_endpoint, drive_call, server_endpoint, DriverClient, DriverCmd};
pub use endpoint::{App, CallOutcome, Config, Endpoint, Env, InboundCall, ReplyHandle, ServerOnly};
pub use error::{Fault, RmiError};
pub use object::{ObjectEnv, RemoteObject};
pub use stub::{decode_result, encode_args};
pub use symbols::{IntoName, NameId, SymbolTable};
