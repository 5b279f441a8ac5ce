//! The benchmark's own mobile class: a counter that carries an opaque
//! payload, so the size of the state a move or checkpoint ships is a
//! workload parameter.

use mage_core::object::{args_as, result_from};
use mage_core::{ClassDef, Method, MobileEnv, MobileObject};
use mage_rmi::Fault;
use serde::{Deserialize, Serialize};

/// Class name registered in the runtime's library.
pub const CLASS: &str = "Blob";

/// Increment, returning the new value.
pub const INC: Method<(), i64> = Method::new("inc");
/// Read the current value.
pub const GET: Method<(), i64> = Method::new("get");

/// A counter plus `payload.len()` bytes of state that travel with it.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct Blob {
    value: i64,
    payload: Vec<u8>,
}

impl Blob {
    /// A fresh counter carrying `size` bytes of deterministic payload.
    pub fn with_payload(size: usize) -> Self {
        Blob {
            value: 0,
            payload: (0..size).map(|i| (i * 31 % 251) as u8).collect(),
        }
    }
}

impl MobileObject for Blob {
    fn class_name(&self) -> &str {
        CLASS
    }

    fn snapshot(&self) -> Result<Vec<u8>, Fault> {
        result_from(self)
    }

    fn invoke(
        &mut self,
        method: &str,
        _args: &[u8],
        _env: &mut MobileEnv<'_>,
    ) -> Result<Vec<u8>, Fault> {
        match method {
            "inc" => {
                self.value += 1;
                result_from(&self.value)
            }
            "get" => result_from(&self.value),
            other => Err(Fault::NoSuchMethod {
                object: CLASS.into(),
                method: other.into(),
            }),
        }
    }
}

/// Class definition for [`Blob`] (4 KiB of simulated class file).
pub fn class() -> ClassDef {
    ClassDef::new(CLASS, 4_096, |state| {
        let obj: Blob = if state.is_empty() {
            Blob::default()
        } else {
            args_as(state)?
        };
        Ok(Box::new(obj))
    })
}
