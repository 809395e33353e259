//! # mimose-exec
//!
//! The training-iteration executor: a block-granularity engine that runs
//! checkpoint plans (and Mimose's double-forward shuttle iterations) against
//! the simulated arena allocator and virtual clock, a tensor-granularity
//! engine with DTR-style reactive eviction, and one front door that drives
//! any [`mimose_planner::MemoryPolicy`] over a dataset stream:
//! [`Session`] (`Session::builder(..).policy(..).build()?.run(n)`). It is
//! steppable, checkpointable and `Send`, which is what the cluster
//! scheduler consumes; `.policy(&mut pol)` lends it a policy the caller
//! inspects afterwards.
//!
//! Single iterations with explicit knobs go through [`BlockIteration`] and
//! [`DtrIteration`]. Every block iteration — from a session or a builder —
//! runs through the OOM-recovery driver, which makes exactly one attempt
//! when no ladder or faults are configured. Both engines are thin
//! [`mimose_runtime::MaterializationPolicy`] layers over the shared
//! [`mimose_runtime::EngineCore`]; every run can be recorded into a
//! [`mimose_runtime::EventLog`] as a typed [`mimose_runtime::ExecEvent`]
//! stream that the report, the shadow checkers and the audit layer all
//! consume.

#![warn(missing_docs)]

mod block_engine;
mod dtr_engine;
mod eviction;
mod iteration;
mod recovery;
mod rungs;
mod session;
pub mod shadow;

pub use iteration::{BlockIteration, DtrIteration};
pub use mimose_runtime::{IterationReport, OomReport, RunSummary, TimeBreakdown};
pub use recovery::{grow_plan, RecoveryConfig};
pub use session::{ExecError, IterationRecord, Session, SessionBuilder, SessionCheckpoint};
pub use shadow::{shadow_check_enabled, DtrShadow, ShadowChecker};

pub use block_engine::{BlockMode, BlockRun};
