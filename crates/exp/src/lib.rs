//! # mimose-exp
//!
//! The experiment harness: the six Table II tasks, a policy factory, text
//! table/chart rendering, and one module per paper table/figure. Each
//! binary under `src/bin/` regenerates one artifact.

#![warn(missing_docs)]

pub mod benchfile;
pub mod cli;
pub mod csv;
pub mod experiments;
pub mod par;
pub mod planners;
pub mod table;
pub mod tasks;
pub mod verifygate;
