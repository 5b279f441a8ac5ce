//! # MAGE — Mobility Attributes Guide Execution
//!
//! A Rust reproduction of *“MAGE: A Distributed Programming Model”*
//! (Barr, Pandey, Haungs — ICDCS 2001): **mobility attributes**, first-class
//! objects that bind to program components and decide whether and where
//! those components move before they execute.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`codec`] — compact binary marshalling (the Java-serialization stand-in)
//! * [`sim`] — the deterministic discrete-event network testbed
//! * [`rmi`] — the RMI-like remote invocation substrate
//! * the MAGE runtime itself (re-exported at the root): [`Runtime`],
//!   [`Session`], [`Pending`], [`attribute`], [`coercion`], [`lock`], …
//! * [`workloads`] — the paper's application scenarios
//!
//! # Quickstart
//!
//! ```
//! use mage::attribute::Rev;
//! use mage::workload_support::{methods, test_object_class};
//! use mage::{ObjectSpec, Runtime};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two namespaces joined by the paper's 10 Mb/s Ethernet.
//! let mut rt = Runtime::builder()
//!     .nodes(["lab", "sensor1"])
//!     .class(test_object_class())
//!     .build();
//! rt.deploy_class("TestObject", "lab")?;
//!
//! // A session is the client handle to one namespace.
//! let lab = rt.session("lab")?;
//! lab.create(ObjectSpec::new("counter").class("TestObject"))?;
//!
//! // Bind a REV mobility attribute: move the counter to sensor1, run there.
//! // `methods::INC` is a typed descriptor — args and result check at
//! // compile time.
//! let rev = Rev::new("TestObject", "counter", "sensor1");
//! let (stub, n) = lab.bind_invoke(&rev, methods::INC, &())?;
//! assert_eq!(n, Some(1));
//! assert_eq!(rt.node_name(stub.location()), Some("sensor1"));
//! # Ok(())
//! # }
//! ```
//!
//! # Pipelined operation
//!
//! Every operation has an `_async` form returning a typed
//! [`Pending`]: issue a batch across several sessions, pump the world
//! with [`Runtime::step`] or [`Runtime::run_until_idle`], then collect.
//!
//! ```
//! use mage::attribute::Rpc;
//! use mage::workload_support::{methods, test_object_class};
//! use mage::{ObjectSpec, Runtime};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rt = Runtime::builder()
//!     .nodes(["host", "c1", "c2"])
//!     .class(test_object_class())
//!     .build();
//! rt.deploy_class("TestObject", "host")?;
//! rt.session("host")?.create(ObjectSpec::new("svc").class("TestObject"))?;
//!
//! let (c1, c2) = (rt.session("c1")?, rt.session("c2")?);
//! let attr = Rpc::new("TestObject", "svc", "host");
//! let (s1, s2) = (c1.bind(&attr)?, c2.bind(&attr)?);
//! // Two clients' invocations overlap in flight.
//! let p1 = c1.call_async(&s1, methods::INC, &())?;
//! let p2 = c2.call_async(&s2, methods::INC, &())?;
//! rt.run_until_idle()?;
//! assert_eq!(p1.wait()? + p2.wait()?, 3); // 1 + 2, in some order
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mage_codec as codec;
pub use mage_rmi as rmi;
pub use mage_sim as sim;
pub use mage_workloads as workloads;

pub use mage_core::{
    admission, attribute, class, coercion, component, error, lock, object, proto, registry,
    security, spec, workload_support, BindReceipt, ClassDef, Component, DesignTriple, Durability,
    LockKind, MageError, MageNode, Method, MobileEnv, MobileObject, ModelKind, NodeConfig,
    ObjectHandle, ObjectSpec, Pending, Placement, Runtime, RuntimeBuilder, Session, Stub,
    Visibility,
};
