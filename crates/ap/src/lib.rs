//! An execution engine for Gouda's *Abstract Protocol* (AP) notation.
//!
//! The Zmail paper (§3) specifies its protocol in AP notation: each process
//! is a set of guarded actions over local state, processes exchange messages
//! over per-pair FIFO channels, and execution obeys three rules —
//!
//! 1. an action is executed only when its guard is true;
//! 2. actions in a protocol execute **one at a time** (interleaving
//!    semantics);
//! 3. an action whose guard is *continuously* true is eventually executed
//!    (weak fairness).
//!
//! This crate is a faithful, reusable embedding of those semantics in Rust:
//!
//! * [`SystemSpec`] — the immutable protocol definition: processes and their
//!   guarded [`Action`]s. Guards come in the paper's three forms: local
//!   boolean expressions, receive guards, and timeout guards (global
//!   predicates).
//! * [`SystemState`] — the mutable global state: one local state per process
//!   plus the contents of every channel.
//! * [`Runner`] — a seeded, randomized scheduler implementing the
//!   interleaving semantics with probabilistic weak fairness, producing an
//!   execution [`Trace`].
//! * [`explore()`] — bounded breadth-first exploration of the global state
//!   space, checking user invariants in every reachable state and detecting
//!   deadlocks; this is what lets us *machine-check* the Zmail spec on small
//!   configurations.
//! * [`analyze()`] — the `speclint` static analyzer: declared action
//!   footprints ([`ActionMeta`]), structural lints with stable `AP0xx`
//!   codes, explorer-backed vacuity detection, and the footprint-derived
//!   action-independence relation (the future partial-order-reduction
//!   input). A spec whose encoding is wrong explores a smaller space than
//!   intended and "verifies" vacuously; the analyzer catches that before
//!   the verdict is trusted. [`independence_crosscheck()`] goes one step
//!   further and diffs the derived independence relation against the
//!   executable harness's `zmail_sim::World` footprint keys for the
//!   spec-mirrored events, so the verified model and the running world
//!   cannot silently drift apart.
//!
//! The paper's `par` construct (one action per parameter value) maps to
//! registering one [`Action`] per value; the paper's `any` (simulated user
//! input) maps to several actions whose guards are simultaneously true, with
//! the scheduler's nondeterminism standing in for the environment.
//!
//! # Example: a two-process token ring
//!
//! ```rust
//! use zmail_ap::{Pid, SystemSpec, SystemState, Runner, Guard};
//!
//! #[derive(Clone, Debug, PartialEq, Eq, Hash)]
//! struct Proc { has_token: bool, passes: u32 }
//!
//! #[derive(Clone, Debug, PartialEq, Eq, Hash)]
//! struct Token;
//!
//! let mut spec = SystemSpec::<Proc, Token>::new();
//! let p = spec.add_process("p");
//! let q = spec.add_process("q");
//! for (me, peer) in [(p, q), (q, p)] {
//!     spec.add_action(me, "pass", Guard::local(|s: &Proc| s.has_token),
//!         move |s, _msg, fx| {
//!             s.has_token = false;
//!             s.passes += 1;
//!             fx.send(peer, Token);
//!         });
//!     spec.add_action(me, "recv", Guard::receive(peer),
//!         |s, _msg, _fx| { s.has_token = true; });
//! }
//! let mut state = SystemState::new(vec![
//!     Proc { has_token: true, passes: 0 },
//!     Proc { has_token: false, passes: 0 },
//! ], spec.process_count());
//! let mut runner = Runner::new(&spec, 42);
//! let steps = runner.run(&mut state, 100);
//! assert_eq!(steps, 100);
//! let total: u32 = state.local_states().iter().map(|s| s.passes).sum();
//! assert!(total > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod explore;
pub mod process;
pub mod runner;
pub mod state;

pub use analyze::{
    analyze, analyze_structure, independence_crosscheck, AnalysisReport, AnalyzeConfig,
    CrosscheckFinding, CrosscheckReport, DependenceReason, Diagnostic, ExplainedPair, Severity,
    WriteWriteConflict,
};
pub use explore::{
    explore, explore_profiled, find_reachable, ExploreConfig, ExploreOutcome, ExploreProfile,
    ExploreReport, ReachabilityWitness,
};
pub use process::{Action, ActionMeta, Effects, Guard, Pid, SystemSpec};
pub use runner::{Runner, Trace, TraceEntry};
pub use state::SystemState;

use std::error::Error;
use std::fmt;

/// An invariant violation or deadlock discovered during execution or
/// exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApError {
    /// A user invariant returned an error in some reachable state.
    InvariantViolated {
        /// The invariant's own description of what failed.
        message: String,
        /// Depth (number of steps from the initial state) at which the
        /// violating state was found, when known.
        depth: Option<usize>,
    },
    /// A reachable state had no enabled action.
    Deadlock {
        /// Depth at which the deadlocked state was found, when known.
        depth: Option<usize>,
    },
}

impl fmt::Display for ApError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApError::InvariantViolated { message, depth } => match depth {
                Some(d) => write!(f, "invariant violated at depth {d}: {message}"),
                None => write!(f, "invariant violated: {message}"),
            },
            ApError::Deadlock { depth } => match depth {
                Some(d) => write!(f, "deadlock reached at depth {d}"),
                None => write!(f, "deadlock reached"),
            },
        }
    }
}

impl Error for ApError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = ApError::InvariantViolated {
            message: "token duplicated".into(),
            depth: Some(3),
        };
        assert_eq!(
            e.to_string(),
            "invariant violated at depth 3: token duplicated"
        );
        let d = ApError::Deadlock { depth: None };
        assert_eq!(d.to_string(), "deadlock reached");
    }
}
