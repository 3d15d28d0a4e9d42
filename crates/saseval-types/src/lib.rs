//! Shared domain vocabulary for the SaSeVAL safety/security validation toolkit.
//!
//! This crate defines the types that every other crate in the workspace
//! speaks: identifiers for traceable artifacts ([`id`]), the ISO 26262
//! risk-rating vocabulary ([`asil`]), failure-mode guidewords ([`failure`]),
//! the STRIDE threat model ([`stride`]), the attack-type taxonomy of the
//! paper's Table IV ([`attack`]), asset classification ([`asset`]),
//! attacker profiles ([`attacker`]), simulated time ([`time`]), the
//! FNV-1a content-addressing helpers shared by the corpus and result
//! cache ([`hash`]), the deterministic shard engine every parallel run
//! goes through ([`shard`]) and the enumerated dimensions of the
//! parameterized validation-scenario model ([`scenario`]).
//!
//! Everything here but [`shard`] is plain data: `Clone`/`Debug`/`Eq`/
//! `Hash`/serde throughout, no behaviour beyond classification and
//! conversion. The behavioural engines (HARA, TARA, threat library,
//! attack derivation, simulation) live in the sibling crates and
//! exchange these types.
//!
//! # Example
//!
//! ```
//! use saseval_types::{Severity, Exposure, Controllability, determine_asil, AsilLevel, RatingClass};
//!
//! // The HARA excerpt from the paper (§III-B): E=3, S=3, C=3 → ASIL C.
//! let asil = determine_asil(Severity::S3, Exposure::E3, Controllability::C3);
//! assert_eq!(asil, RatingClass::Asil(AsilLevel::C));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asil;
pub mod asset;
pub mod attack;
pub mod attacker;
pub mod failure;
pub mod hash;
pub mod id;
pub mod scenario;
pub mod shard;
pub mod stride;
pub mod time;

pub use asil::{determine_asil, AsilLevel, Controllability, Exposure, RatingClass, Severity};
pub use asset::{AssetClass, AssetGroup};
pub use attack::{attack_types_for, AttackType};
pub use attacker::AttackerProfile;
pub use failure::FailureMode;
pub use id::{
    AssetId, AttackDescriptionId, ControlId, DamageScenarioId, FunctionId, HazardRatingId, IdError,
    InterfaceId, SafetyGoalId, ScenarioId, SubScenarioId, ThreatScenarioId,
};
pub use scenario::{AttackerPlacement, ChannelProfile, ControlsProfile, WorldKind};
pub use stride::ThreatType;
pub use time::{Ftti, SimTime};
