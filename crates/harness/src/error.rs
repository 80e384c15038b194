//! Typed rejection of malformed scenario scripts.
//!
//! The scenario builder is deliberately permissive while a script is being
//! assembled — chaining order should not matter — so every structural rule
//! is checked in one place, [`crate::Scenario::validate`], before a run
//! starts. The generative fuzzer leans on this boundary: a script either
//! validates (and must then run to completion) or is rejected here with a
//! typed [`ScenarioError`], never by a panic deep inside the engine.

use netsim::SimTime;
use std::fmt;

/// A structural defect in a built [`crate::Scenario`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The sample interval is zero — the engine would never tick.
    ZeroSampleInterval,
    /// Two t=0 participants share a name (a mid-run rejoin is the
    /// [`crate::Action::Join`] action, not a second declaration).
    DuplicateParticipant(String),
    /// Two declared viewers share a name (a mid-run re-attach is the
    /// [`crate::Action::ViewerJoin`] action, not a second declaration).
    DuplicateViewer(String),
    /// Two relay tiers share a name.
    DuplicateRelay(String),
    /// One name is used across the participant/viewer/relay namespaces —
    /// fault actions resolve targets by name, so a collision silently
    /// shadows one of them.
    NameCollision(String),
    /// A relay names a parent that is not declared before it.
    UnknownRelayParent {
        /// The child relay.
        relay: String,
        /// The missing (or later-declared) parent.
        parent: String,
    },
    /// A viewer (declared or joining mid-run) names an undeclared relay.
    UnknownRelay {
        /// The viewer.
        viewer: String,
        /// The missing relay tier.
        relay: String,
    },
    /// An action is scheduled after the scenario's duration — it would
    /// never observably run.
    ActionAfterEnd {
        /// When the action was scheduled.
        at: SimTime,
        /// The action kind (its [`crate::Action::label`]).
        action: &'static str,
        /// The scenario duration it overshoots.
        duration: SimTime,
    },
    /// A [`crate::Action::Restore`] with no `checkpoint_every` interval:
    /// there is no chain to restore from.
    RestoreWithoutCheckpoint,
    /// A [`crate::Action::Restore`] not preceded by a
    /// [`crate::Action::Crash`] still in effect at that time.
    RestoreWithoutCrash {
        /// When the restore was scheduled.
        at: SimTime,
    },
    /// A [`crate::Action::Restore`] whose crash comes before the first
    /// checkpoint is cut: no sample tick at or after the first
    /// `checkpoint_every` due time runs before the process dies, so the
    /// chain is empty.
    CrashBeforeFirstCheckpoint {
        /// When the first crash was scheduled.
        crash: SimTime,
        /// The sample tick that would cut the first checkpoint.
        first_cut: SimTime,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::ZeroSampleInterval => write!(f, "sample interval must be positive"),
            ScenarioError::DuplicateParticipant(n) => {
                write!(f, "duplicate participant declaration {n:?}")
            }
            ScenarioError::DuplicateViewer(n) => write!(f, "duplicate viewer declaration {n:?}"),
            ScenarioError::DuplicateRelay(n) => write!(f, "duplicate relay declaration {n:?}"),
            ScenarioError::NameCollision(n) => write!(
                f,
                "name {n:?} is used across the participant/viewer/relay namespaces"
            ),
            ScenarioError::UnknownRelayParent { relay, parent } => write!(
                f,
                "relay {relay:?} names parent {parent:?}, which is not declared before it"
            ),
            ScenarioError::UnknownRelay { viewer, relay } => {
                write!(f, "viewer {viewer:?} names undeclared relay {relay:?}")
            }
            ScenarioError::ActionAfterEnd {
                at,
                action,
                duration,
            } => write!(
                f,
                "{action} action at {at} is scheduled past the {duration} duration"
            ),
            ScenarioError::RestoreWithoutCheckpoint => write!(
                f,
                "restore_at without checkpoint_every — no chain to restore from"
            ),
            ScenarioError::RestoreWithoutCrash { at } => {
                write!(f, "restore at {at} without a crash in effect")
            }
            ScenarioError::CrashBeforeFirstCheckpoint { crash, first_cut } => write!(
                f,
                "crash at {crash} comes before the first checkpoint (cut at the \
                 {first_cut} sample tick) — the restore has no chain to restore from"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}
