//! Executable attacks and the attack executor for the SaSeVAL
//! reproduction.
//!
//! SaSeVAL's Step 4 — refining attack descriptions into executable tests —
//! is out of scope *for the paper* (§III-D) but in scope here: this crate
//! implements every attack type the two use cases need as an
//! [`AttackerHook`](vehicle_sim::AttackerHook) over the simulated worlds,
//! and an executor that mechanically follows the §III-C structure of an
//! attack description:
//!
//! 1. wait for the **precondition** (the worlds start in it),
//! 2. mount the attack,
//! 3. evaluate the **attack success** criterion (safety-goal violation,
//!    service shutdown, vehicle opened, …),
//! 4. evaluate the **attack fails** criterion (rejection, sender
//!    isolation, detection evidence in the security log).
//!
//! [`builtin`] binds the paper's concrete attack descriptions — AD20 of
//! Table VI, AD08 of Table VII, the replay/flooding/jamming attacks named
//! in §IV — to ready-to-run [`TestCase`]s; [`campaign`] runs whole suites
//! (serially or in parallel) and aggregates a report.
//!
//! # Example — Table VI's AD20, with and without the expected measure
//!
//! ```
//! use attack_engine::builtin::ad20_cases;
//! use attack_engine::executor::execute;
//!
//! let results: Vec<_> = ad20_cases().iter().map(execute).collect();
//! // Without the message counter the flooding shuts the service down …
//! assert!(results[0].attack_succeeded);
//! // … with it the unwanted sender is identified and isolated.
//! assert!(!results[1].attack_succeeded);
//! assert!(results[1].detected);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod builtin;
pub mod campaign;
mod error;
pub mod executor;

pub use error::AttackError;
pub use executor::{execute, ExecutionResult, TestCase, WorldOutcome};
