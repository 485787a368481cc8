//! Chandra–Toueg consensus for the Fortika reproduction.
//!
//! Consensus (propose/decide) lets processes agree on one of their
//! proposed values despite crashes, given an eventually-accurate failure
//! detector and a correct majority. The modular atomic broadcast stack
//! (§3 of the paper) runs a *sequence* of consensus instances, one per
//! ordering step; this crate implements the multi-instance module with
//! the paper's optimizations (skipped round-0 estimate phase,
//! suspicion-driven rounds, `DECISION` tag dissemination).
//!
//! Crash-recovery — durable vote records, rejoin, log compaction,
//! snapshot transfer, the configuration timeline — is the replica log
//! both stacks share ([`fortika_net::replica_log`]). What is this
//! crate's own is the catch-up trigger: a process that is behind —
//! revived after a crash, newly added, or a live laggard after a
//! partition — pulls the decided values it misses as ranges, with at
//! most one pull in flight; each answering transfer clocks the next,
//! and an unanswered pull is re-sent after 50 ms.
//!
//! See [`ConsensusModule`] for the algorithm description and
//! [`msg::ConsensusMsg`] for the wire vocabulary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod module;
pub mod msg;

pub use module::{ConsensusConfig, ConsensusModule, CONSENSUS_MODULE_ID, DECISION_STREAM};
pub use msg::{coordinator, ConsensusMsg, DecisionNotice, VoteRecord};
