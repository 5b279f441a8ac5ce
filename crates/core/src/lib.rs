//! MAGE: Mobility Attributes Guide Execution (ICDCS 2001), in Rust.
//!
//! This crate is the paper's primary contribution: **mobility attributes**,
//! first-class objects that bind to program components (class/object
//! pairs), intercept invocations and decide *whether* and *where* to move
//! the component before it executes. The classical distributed programming
//! models — LPC, RPC, COD, REV, MA — are unified as points in the
//! `<Location, Target, Moves>` design space ([`DesignTriple`]), and new
//! models (GREV, CLE) fall out of the same abstraction.
//!
//! The crate layers on `mage-rmi` (an RMI-like substrate) and `mage-sim`
//! (a deterministic simulated network):
//!
//! * [`attribute`] — the mobility-attribute hierarchy (Figure 5)
//! * [`coercion`] — the mobility-coercion matrix (Table 2)
//! * [`MageNode`] — the per-namespace runtime: registry with forwarding
//!   chains and path compression, Mage server, external server (§4.1)
//! * [`lock`] — per-object stay/move lock queues (§4.4)
//! * [`Runtime`] — owns the world; hands out per-namespace [`Session`]
//!   client handles
//! * [`Session`] / [`Pending`] — typed, pipelined client operations
//!
//! # Examples
//!
//! The oil-exploration example from §3.6 — instantiate a filter on a
//! sensor with REV, migrate it with MA, pull results home with COD — via
//! a session and typed method descriptors:
//!
//! ```
//! use mage_core::attribute::{Cod, MobileAgent, Rev};
//! use mage_core::workload_support::{methods, geo_data_filter_class};
//! use mage_core::{Runtime, Visibility};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rt = Runtime::builder()
//!     .nodes(["lab", "sensor1", "sensor2"])
//!     .class(geo_data_filter_class())
//!     .build();
//! rt.deploy_class("GeoDataFilterImpl", "lab")?;
//! let lab = rt.session("lab")?;
//!
//! let rev = Rev::factory("GeoDataFilterImpl", "geoData", "sensor1");
//! let stub = lab.bind(&rev)?;
//! lab.call(&stub, methods::FILTER_DATA, &())?;
//!
//! let magent = MobileAgent::new("GeoDataFilterImpl", "geoData", "sensor2");
//! let stub = lab.bind(&magent)?;
//! lab.call(&stub, methods::FILTER_DATA, &())?;
//!
//! let cod = Cod::new("GeoDataFilterImpl", "geoData"); // target is local
//! let stub = lab.bind(&cod)?;
//! let total = lab.call(&stub, methods::PROCESS_DATA, &())?;
//! assert!(total > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod attribute;
pub mod class;
pub mod coercion;
pub mod component;
mod engine;
mod engine_exec;
pub mod error;
pub mod lock;
mod node;
pub mod object;
mod pending;
pub mod proto;
pub mod registry;
mod runtime;
pub mod security;
mod session;
pub mod spec;
pub mod workload_support;

pub use class::{ClassDef, Method};
pub use component::{Component, DesignTriple, Durability, ModelKind, Placement, Visibility};
pub use error::MageError;
pub use lock::LockKind;
pub use node::{MageNode, NodeConfig};
pub use object::{MobileEnv, MobileObject};
pub use pending::Pending;
pub use runtime::{Runtime, RuntimeBuilder};
pub use session::{BindReceipt, Session, Stub};
pub use spec::{ObjectHandle, ObjectSpec};
