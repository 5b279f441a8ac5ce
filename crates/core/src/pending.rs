//! Typed in-flight operations.
//!
//! Every [`Session`](crate::Session) operation has an `_async` form that
//! injects its command into the simulated world and immediately returns a
//! [`Pending<T>`] — a typed handle to the eventual result. Collecting it
//! is deferred to [`Pending::wait`], so a driver can issue a whole batch of
//! operations (across several sessions), pump the world with
//! [`Runtime::step`](crate::Runtime::step) or
//! [`Runtime::run_until_idle`](crate::Runtime::run_until_idle), and only
//! then collect results. This is what makes the paper's §4.4 concurrent
//! locking and Figure 8 contention scenarios first-class instead of
//! bolted on. A blocking session op is its `_async` form plus `wait`.
//!
//! `wait` is also the one place a session learns where a component is:
//! a find, an invocation or a bind records the outcome's location and
//! incarnation for the component it names, just before decoding. And it
//! hands the op's emptied [`OpCell`] back to its session, whose next op
//! travels in it.

use std::cell::RefCell;
use std::rc::Rc;

use mage_sim::{NodeId, OpId};

use crate::error::MageError;
use crate::proto::{OpCell, Outcome};
use crate::registry::{CompKey, Located};
use crate::runtime::{Directory, Inner};
use crate::session::SessionState;

/// Decodes a completed [`Outcome`] into the operation's typed result,
/// updating the shared directory (factory homes) as a side effect.
pub(crate) type DecodeFn<T> = Box<dyn FnOnce(Outcome, &mut Directory) -> Result<T, MageError>>;

/// A typed, in-flight driver operation.
///
/// Obtained from the `_async` methods on [`Session`](crate::Session).
/// Dropping a `Pending` abandons the result (the operation itself still
/// runs to completion inside the world).
#[must_use = "a Pending does nothing until waited on"]
pub struct Pending<T> {
    op: OpId,
    inner: Rc<RefCell<Inner>>,
    state: Rc<RefCell<SessionState>>,
    /// The component whose location the outcome reports, if any.
    learn: Option<CompKey>,
    /// `Some` until [`wait`](Pending::wait) consumes it (an `Option` so
    /// the `Drop` impl can coexist with the by-value `wait`).
    decode: Option<DecodeFn<T>>,
}

impl<T> Pending<T> {
    pub(crate) fn new(
        op: OpId,
        inner: Rc<RefCell<Inner>>,
        state: Rc<RefCell<SessionState>>,
        learn: Option<CompKey>,
        decode: DecodeFn<T>,
    ) -> Self {
        Pending {
            op,
            inner,
            state,
            learn,
            decode: Some(decode),
        }
    }

    /// The underlying simulator operation id.
    pub fn op_id(&self) -> OpId {
        self.op
    }

    /// Whether the operation has completed, without running the world any
    /// further.
    ///
    /// `is_done` and [`wait`](Pending::wait) agree: once `is_done` returns
    /// `true`, `wait` returns without advancing virtual time.
    pub fn is_done(&self) -> bool {
        self.inner.borrow().world.op_done(self.op)
    }

    /// Runs the world until the operation completes, records where the
    /// component it names answered, keeps the op's cell as its session's
    /// spare, then decodes its typed result.
    ///
    /// # Errors
    ///
    /// Propagates the operation's failure, a simulation stall, or a
    /// failure to unmarshal an invocation result.
    pub fn wait(mut self) -> Result<T, MageError> {
        let decode = self.decode.take().expect("wait consumes the handle once");
        let mut inner = self.inner.borrow_mut();
        let mut cell = inner.wait(self.op).inspect_err(|_| {
            // A stalled or over-budget wait gives the op up like a drop
            // does, so a late completion is not retained.
            inner.world.forget_op(self.op);
        })?;
        let OpCell::Done(result) = cell.take() else {
            unreachable!("a node completes an op with its result");
        };
        let outcome = {
            let mut state = self.state.borrow_mut();
            state.spare = Some(cell);
            let outcome = result?;
            if let Some(key) = self.learn {
                let at = Located::new(NodeId::from_raw(outcome.location), outcome.incarnation);
                state.cached_loc.insert(key, at);
            }
            outcome
        };
        decode(outcome, &mut inner.dir)
    }
}

impl<T> Drop for Pending<T> {
    fn drop(&mut self) {
        // An un-waited handle abandons its result: tell the world not to
        // retain the completion payload (the operation itself still runs).
        if self.decode.is_some() {
            self.inner.borrow_mut().world.forget_op(self.op);
        }
    }
}

impl<T> std::fmt::Debug for Pending<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pending")
            .field("op", &self.op)
            .field("done", &self.is_done())
            .finish_non_exhaustive()
    }
}
