//! Classes, class factories and per-namespace class caches (§4.2).
//!
//! In the paper, Java class files physically move between JVMs and MAGE
//! "clones classes, leaving behind a copy of each object's class that
//! visited a particular node". Rust cannot ship machine code between
//! processes, so this module simulates code mobility faithfully at the
//! protocol level:
//!
//! * a [`ClassDef`] pairs a name with a *simulated code size* (driving
//!   transfer time and class-load cost) and a Rust factory closure (the
//!   behaviour the "bytecode" stands for);
//! * the definitions registered with
//!   [`RuntimeBuilder::class`](crate::RuntimeBuilder::class) form the
//!   world-wide catalogue, shared out-of-band by every node as one table
//!   keyed by interned class name — it models the universe of `.class`
//!   files that exist, not their placement;
//! * *placement* is tracked per node: a namespace can only instantiate or
//!   receive an object whose class its cache holds, and cache misses
//!   trigger real `receiveClass`/`fetchClass` protocol messages carrying
//!   `code_size` bytes.
//!
//! This preserves exactly what the evaluation measures: which moves pay a
//! class transfer, and what that transfer costs.

use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

use mage_rmi::Fault;

use crate::object::MobileObject;

/// A typed method descriptor: the method's wire name plus its argument and
/// result types, checked at compile time.
///
/// Classes expose their methods as `Method` constants (e.g.
/// [`workload_support::methods::INC`](crate::workload_support::methods::INC)),
/// so `session.call(&stub, INC, &())` infers and checks both sides of the
/// wire instead of the old stringly-typed
/// `call::<_, i64>(&stub, "inc", &())`. The descriptor is a zero-sized
/// phantom over the name — it costs nothing at runtime.
///
/// Mismatched argument types are rejected at compile time:
///
/// ```compile_fail
/// use mage_core::workload_support::{methods, test_object_class};
/// use mage_core::{ObjectSpec, Runtime};
///
/// let mut rt = Runtime::builder().nodes(["a"]).class(test_object_class()).build();
/// rt.deploy_class("TestObject", "a").unwrap();
/// let a = rt.session("a").unwrap();
/// let handle = a.create(ObjectSpec::new("x").class("TestObject")).unwrap();
/// // `methods::INC` takes no arguments: passing a String must not compile.
/// let _ = a.call(handle.stub(), methods::INC, &"wrong".to_owned());
/// ```
pub struct Method<Args, Ret> {
    name: &'static str,
    // `fn(&Args) -> Ret` keeps the marker covariant and `Send + Sync`
    // without implying ownership of either type.
    _types: PhantomData<fn(&Args) -> Ret>,
}

impl<Args, Ret> Method<Args, Ret> {
    /// Declares a method descriptor (usable in `const` position).
    pub const fn new(name: &'static str) -> Self {
        Method {
            name,
            _types: PhantomData,
        }
    }

    /// The method's wire name.
    pub const fn name(&self) -> &'static str {
        self.name
    }
}

impl<Args, Ret> Clone for Method<Args, Ret> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<Args, Ret> Copy for Method<Args, Ret> {}

impl<Args, Ret> fmt::Debug for Method<Args, Ret> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Method").field("name", &self.name).finish()
    }
}

/// Factory signature: rebuilds an object from snapshot state, or creates a
/// fresh instance when given the constructor state passed at deployment.
pub type Factory = Arc<dyn Fn(&[u8]) -> Result<Box<dyn MobileObject>, Fault> + Send + Sync>;

/// A class definition: name, simulated code, instantiation behaviour.
#[derive(Clone)]
pub struct ClassDef {
    name: String,
    code_size: u32,
    has_static_fields: bool,
    factory: Factory,
}

impl ClassDef {
    /// Defines a class.
    ///
    /// `code_size` is the simulated size of the class file in bytes; it
    /// determines transfer time on slow links and class-load cost. The
    /// paper's minimal test object is "a minimal extension of
    /// UnicastRemote" — on the order of a kilobyte or two.
    pub fn new(
        name: impl Into<String>,
        code_size: u32,
        factory: impl Fn(&[u8]) -> Result<Box<dyn MobileObject>, Fault> + Send + Sync + 'static,
    ) -> Self {
        ClassDef {
            name: name.into(),
            code_size,
            has_static_fields: false,
            factory: Arc::new(factory),
        }
    }

    /// Marks the class as having static fields.
    ///
    /// The paper notes its class-cloning scheme "is not well-suited for
    /// classes with static fields" (§4.2); MAGE nodes refuse to replicate
    /// such classes unless explicitly permitted, surfacing the hazard
    /// instead of silently forking static state.
    pub fn with_static_fields(mut self) -> Self {
        self.has_static_fields = true;
        self
    }

    /// The class name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Simulated code size in bytes.
    pub fn code_size(&self) -> u32 {
        self.code_size
    }

    /// Whether the class declares static fields.
    pub fn has_static_fields(&self) -> bool {
        self.has_static_fields
    }

    /// Instantiates an object from snapshot or constructor state.
    ///
    /// # Errors
    ///
    /// Propagates the factory's [`Fault`] (e.g. undecodable state).
    pub fn instantiate(&self, state: &[u8]) -> Result<Box<dyn MobileObject>, Fault> {
        (self.factory)(state)
    }
}

impl fmt::Debug for ClassDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClassDef")
            .field("name", &self.name)
            .field("code_size", &self.code_size)
            .field("has_static_fields", &self.has_static_fields)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{args_as, result_from, MobileEnv};
    use serde::{Deserialize, Serialize};

    #[derive(Serialize, Deserialize, Default)]
    struct Tiny {
        n: i64,
    }

    impl MobileObject for Tiny {
        fn class_name(&self) -> &str {
            "Tiny"
        }

        fn snapshot(&self) -> Result<Vec<u8>, Fault> {
            result_from(&self.n)
        }

        fn invoke(
            &mut self,
            method: &str,
            args: &[u8],
            _env: &mut MobileEnv<'_>,
        ) -> Result<Vec<u8>, Fault> {
            match method {
                "add" => {
                    self.n += args_as::<i64>(args)?;
                    result_from(&self.n)
                }
                other => Err(Fault::NoSuchMethod {
                    object: "tiny".into(),
                    method: other.into(),
                }),
            }
        }
    }

    fn tiny_class() -> ClassDef {
        ClassDef::new("Tiny", 1_500, |state| {
            let n: i64 = if state.is_empty() { 0 } else { args_as(state)? };
            Ok(Box::new(Tiny { n }))
        })
    }

    #[test]
    fn factory_builds_fresh_and_restored_instances() {
        let def = tiny_class();
        let fresh = def.instantiate(&[]).unwrap();
        assert_eq!(fresh.class_name(), "Tiny");
        assert_eq!(
            fresh.snapshot().unwrap(),
            mage_codec::to_bytes(&0i64).unwrap()
        );

        let state = mage_codec::to_bytes(&41i64).unwrap();
        let restored = def.instantiate(&state).unwrap();
        assert_eq!(restored.snapshot().unwrap(), state);
    }

    #[test]
    fn weak_migration_roundtrip() {
        let def = tiny_class();
        let mut obj = def.instantiate(&[]).unwrap();
        let mut rng = rand::SeedableRng::seed_from_u64(0);
        let mut env = MobileEnv::new(
            mage_sim::NodeId::from_raw(0),
            "lab",
            mage_sim::SimTime::ZERO,
            &mut rng,
        );
        obj.invoke("add", &mage_codec::to_bytes(&7i64).unwrap(), &mut env)
            .unwrap();
        // Move: snapshot on the source, reify on the destination.
        let state = obj.snapshot().unwrap();
        let mut moved = def.instantiate(&state).unwrap();
        let out = moved
            .invoke("add", &mage_codec::to_bytes(&0i64).unwrap(), &mut env)
            .unwrap();
        let n: i64 = mage_codec::from_bytes(&out).unwrap();
        assert_eq!(n, 7, "heap state survived the move");
    }

    #[test]
    fn static_field_flag() {
        let def = tiny_class().with_static_fields();
        assert!(def.has_static_fields());
        assert!(!tiny_class().has_static_fields());
    }
}
