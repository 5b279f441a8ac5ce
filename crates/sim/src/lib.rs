//! Deterministic discrete-event simulator used as MAGE's testbed.
//!
//! The paper evaluates MAGE on two Pentium III hosts joined by 10 Mb/s
//! Ethernet. This crate supplies the Rust reproduction's equivalent: a
//! simulated network of *namespaces* (nodes) with configurable latency,
//! bandwidth, jitter, loss and partitions, driven by a virtual clock.
//! Protocol logic lives in [`Actor`]s; the [`World`] schedules message
//! deliveries and timers in a deterministic total order, so every experiment
//! is exactly reproducible from its seed.
//!
//! Layering in this repository:
//!
//! * `mage-sim` (this crate) — hosts, links, virtual time, traces
//! * `mage-rmi` — an RMI-like invocation substrate running on these actors
//! * `mage-core` — mobility attributes and the MAGE runtime proper
//!
//! # Examples
//!
//! ```
//! use bytes::Bytes;
//! use mage_sim::{Actor, Context, LinkSpec, NodeId, SimDuration, World};
//!
//! struct Sink;
//! impl Actor for Sink {
//!     fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _payload: Bytes) {}
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut world = World::new(7);
//! let a = world.add_node("client", Sink);
//! let b = world.add_node("server", Sink);
//! world.set_link_bidi(a, b, LinkSpec::ethernet_10mbps());
//! // Driver commands are typed values, handed to `Actor::on_driver`.
//! world.inject(a, "boot", Box::new(()));
//! world.run_until_idle()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
pub mod metrics;
mod network;
pub mod time;
mod topology;
pub mod trace;
mod world;

pub use actor::{Actor, Context, Label, OpId, TimerId};
pub use metrics::{Metrics, NetCounters, Samples};
pub use network::{DropReason, Network};
pub use time::{transfer_time, SimDuration, SimTime};
pub use topology::{LinkSpec, NodeId};
pub use trace::{render_message_sequence, TraceEvent, TraceLog, TraceMode};
pub use world::{SimError, World};
