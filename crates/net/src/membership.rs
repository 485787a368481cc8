//! Log-decided dynamic membership (add/remove-server reconfiguration).
//!
//! The member set is changed **through the log itself**: a reconfiguration
//! command is abcast like any application message ([`reconfig_payload`]),
//! decided by consensus at some instance `d`, and takes effect at the
//! fixed **activation offset** `d + offset` — every process that replays
//! the same decided prefix therefore derives the identical configuration
//! history, with no out-of-band channel. (The classic approach; with
//! single-server changes, consecutive configurations always share a
//! majority, which is what keeps stale-by-one quorums safe.)
//!
//! This module holds the stack-agnostic pieces both implementations
//! share:
//!
//! * [`ConfigChange`] — one add/remove command (the wire payload body).
//! * [`ConfigTimeline`] — the versioned configuration history: the
//!   initial member set plus every decided reconfiguration, answering
//!   "who are the members / what is the quorum / who coordinates round
//!   `r` **at instance `i`**". Persisted with the consensus state and
//!   carried inside snapshots, so it survives restarts and compaction.
//! * [`ConfigStamp`] — what a process reports to the harness when a new
//!   configuration version activates (feeds the config-aware oracle).
//! * [`reconfig_payload`] / [`parse_reconfig`] — the magic-prefixed
//!   payload encoding that distinguishes reconfiguration commands from
//!   ordinary application traffic in the decided sequence.
//! * [`coordinator`] / [`relay_set`] — the static group's coordinator
//!   rotation and ring relay set, which a trivial timeline reduces to.

use std::collections::BTreeMap;
use std::fmt;

use bytes::Bytes;

use crate::id::ProcessId;
use crate::wire::{Wire, WireError, WireReader, WireWriter};

/// The static group's coordinator of `round`: processes rotate in
/// round-robin order, with `p1` coordinating round 0 of every instance
/// (the property the monolithic stack's optimization O1 builds on).
pub fn coordinator(round: u32, n: usize) -> ProcessId {
    ProcessId((round as usize % n) as u16)
}

/// The deterministic relay set for messages rbcast by `origin`: the
/// `⌊(n−1)/2⌋` processes that follow the origin in ring order.
pub fn relay_set(origin: ProcessId, n: usize) -> impl Iterator<Item = ProcessId> {
    let count = (n - 1) / 2;
    (1..=count as u16).map(move |i| ProcessId((origin.0 + i) % n as u16))
}

/// One membership change decided through the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigChange {
    /// Add `0` to the member set (it activates as a voter at the
    /// activation instance; until then it is a learner).
    Add(ProcessId),
    /// Remove `0` from the member set (it keeps running as a learner —
    /// receiving, applying and delivering decisions — but no longer
    /// votes, proposes or heartbeats).
    Remove(ProcessId),
}

impl ConfigChange {
    /// The process the change concerns.
    pub fn pid(&self) -> ProcessId {
        match *self {
            ConfigChange::Add(p) | ConfigChange::Remove(p) => p,
        }
    }
}

impl fmt::Display for ConfigChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigChange::Add(p) => write!(f, "add {p}"),
            ConfigChange::Remove(p) => write!(f, "remove {p}"),
        }
    }
}

const TAG_ADD: u8 = 1;
const TAG_REMOVE: u8 = 2;

impl Wire for ConfigChange {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ConfigChange::Add(p) => {
                w.put_u8(TAG_ADD);
                p.encode(w);
            }
            ConfigChange::Remove(p) => {
                w.put_u8(TAG_REMOVE);
                p.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        match r.get_u8()? {
            TAG_ADD => Ok(ConfigChange::Add(ProcessId::decode(r)?)),
            TAG_REMOVE => Ok(ConfigChange::Remove(ProcessId::decode(r)?)),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

/// Magic prefix that marks an abcast payload as a reconfiguration
/// command. Ordinary workload payloads never start with it (the chaos
/// and benchmark drivers fill payloads with repeated bytes).
const RECONFIG_MAGIC: &[u8; 8] = b"\xF0RTKCFG\x01";

/// Per-sender sequence numbers at or above this base are reserved for
/// reconfiguration submissions, so they can never collide with the
/// workload drivers' dense `0, 1, 2, …` allocation.
pub const RECONFIG_SEQ_BASE: u64 = 1 << 62;

/// Encodes `change` as an abcast payload (magic prefix + wire body).
pub fn reconfig_payload(change: ConfigChange) -> Bytes {
    let mut w = WireWriter::new();
    for &b in RECONFIG_MAGIC {
        w.put_u8(b);
    }
    change.encode(&mut w);
    w.finish()
}

/// Decodes a reconfiguration command from a delivered payload; `None`
/// for ordinary application payloads (no magic prefix or a malformed
/// body).
pub fn parse_reconfig(payload: &Bytes) -> Option<ConfigChange> {
    if payload.len() <= RECONFIG_MAGIC.len() || !payload.starts_with(RECONFIG_MAGIC) {
        return None;
    }
    crate::wire::decode::<ConfigChange>(payload.slice(RECONFIG_MAGIC.len()..)).ok()
}

/// What a process reports when a configuration version activates
/// (fed to the harness through `NodeCtx::note_config`; the config-aware
/// oracle audits that every process derives the identical history).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigStamp {
    /// Configuration version (the initial configuration is version 0;
    /// the k-th decided change produces version k).
    pub version: u64,
    /// Consensus instance that decided the change.
    pub decided_at: u64,
    /// First instance governed by the new member set
    /// (`decided_at + offset`).
    pub activation: u64,
    /// The member set from `activation` on, in rotation order.
    pub members: Vec<ProcessId>,
}

/// The versioned configuration history of one process.
///
/// Deterministic by construction: the timeline is a pure function of
/// `(initial members, offset, decided reconfigs)`, and the decided
/// reconfigs are ordered by decided instance — so every process that
/// replays the same log prefix answers every `*_at(instance)` question
/// identically, regardless of the order in which it learned the changes.
///
/// # Example
///
/// ```
/// use fortika_net::membership::{ConfigChange, ConfigTimeline};
/// use fortika_net::ProcessId;
///
/// let mut tl = ConfigTimeline::new(3, 8);
/// assert_eq!(tl.majority_at(0), 2);
/// // Instance 5 decides "add p4": the change governs instance 13 on.
/// tl.register(5, ConfigChange::Add(ProcessId(3)));
/// assert_eq!(tl.members_at(12).len(), 3);
/// assert_eq!(tl.members_at(13).len(), 4);
/// assert_eq!(tl.majority_at(13), 3);
/// assert!(tl.is_member_at(13, ProcessId(3)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigTimeline {
    initial: Vec<ProcessId>,
    offset: u64,
    /// Decided reconfigurations, keyed by decided instance.
    reconfigs: BTreeMap<u64, ConfigChange>,
}

impl ConfigTimeline {
    /// A timeline starting from members `p1 … pn` with the given
    /// activation offset (a change decided at instance `d` governs
    /// instances `d + offset` on).
    ///
    /// # Panics
    ///
    /// Panics when `initial` is zero (an empty group cannot decide
    /// anything) or `offset` is zero (a change must never retroactively
    /// govern the instance that decided it).
    pub fn new(initial: usize, offset: u64) -> Self {
        assert!(initial > 0, "initial member set must be nonempty");
        assert!(offset > 0, "activation offset must be positive");
        ConfigTimeline {
            initial: ProcessId::all(initial).collect(),
            offset,
            reconfigs: BTreeMap::new(),
        }
    }

    /// The activation offset.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// True while no reconfiguration has been decided — the fast path:
    /// a trivial timeline answers every question from the initial
    /// configuration and never engages the config fence, so runs
    /// without reconfig traffic behave exactly as before this feature.
    pub fn is_trivial(&self) -> bool {
        self.reconfigs.is_empty()
    }

    /// The decided reconfigurations as `(decided instance, change)`
    /// pairs, ordered by instance — the form persisted to stable
    /// storage and carried inside snapshots.
    pub fn reconfigs(&self) -> Vec<(u64, ConfigChange)> {
        self.reconfigs.iter().map(|(&i, &c)| (i, c)).collect()
    }

    /// Registers the reconfiguration decided at `instance`. Returns the
    /// stamp of the version it creates when newly learned, `None` for a
    /// duplicate registration (replay, snapshot overlap).
    pub fn register(&mut self, instance: u64, change: ConfigChange) -> Option<ConfigStamp> {
        if self.reconfigs.contains_key(&instance) {
            return None;
        }
        self.reconfigs.insert(instance, change);
        let version = self
            .reconfigs
            .keys()
            .position(|&k| k == instance)
            .expect("just inserted") as u64
            + 1;
        Some(self.stamp(version))
    }

    /// The stamp of `version` (1-based; version 0 is the initial
    /// configuration and produces no stamp).
    ///
    /// # Panics
    ///
    /// Panics when `version` is 0 or beyond the registered history.
    pub fn stamp(&self, version: u64) -> ConfigStamp {
        assert!(version >= 1, "version 0 is the initial configuration");
        let (&decided_at, _) = self
            .reconfigs
            .iter()
            .nth(version as usize - 1)
            .expect("version within registered history");
        ConfigStamp {
            version,
            decided_at,
            activation: decided_at + self.offset,
            members: self.members_after(version),
        }
    }

    /// Number of decided reconfigurations (the latest version).
    pub fn latest_version(&self) -> u64 {
        self.reconfigs.len() as u64
    }

    /// The member set after the first `version` changes applied, in
    /// rotation order.
    fn members_after(&self, version: u64) -> Vec<ProcessId> {
        let mut members = self.initial.clone();
        for (_, change) in self.reconfigs.iter().take(version as usize) {
            apply_change(&mut members, *change);
        }
        members
    }

    /// The configuration version governing `instance`.
    pub fn version_at(&self, instance: u64) -> u64 {
        self.reconfigs
            .keys()
            .take_while(|&&d| d + self.offset <= instance)
            .count() as u64
    }

    /// The member set governing `instance`, in rotation order.
    pub fn members_at(&self, instance: u64) -> Vec<ProcessId> {
        self.members_after(self.version_at(instance))
    }

    /// The quorum size at `instance` (majority of the governing member
    /// set).
    pub fn majority_at(&self, instance: u64) -> usize {
        self.members_at(instance).len() / 2 + 1
    }

    /// The coordinator of `round` at `instance`: rotation over the
    /// governing member set. Identical to the static `p_{r mod n}`
    /// rotation while the timeline is trivial.
    pub fn coordinator_at(&self, instance: u64, round: u32) -> ProcessId {
        let members = self.members_at(instance);
        members[round as usize % members.len()]
    }

    /// True when `p` votes at `instance`.
    pub fn is_member_at(&self, instance: u64, p: ProcessId) -> bool {
        self.members_at(instance).contains(&p)
    }

    /// The **config fence**: true when the membership governing
    /// `instance` is fully determined by the contiguous decided prefix
    /// `0..watermark` — i.e. no yet-unknown decision below
    /// `instance - offset` could still change it. A trivial timeline is
    /// always certain (static groups need no fence). A process must not
    /// vote or ack in an instance it is uncertain about; it records the
    /// proposal and waits for its replay frontier to catch up.
    pub fn certain_at(&self, instance: u64, watermark: u64) -> bool {
        self.is_trivial() || instance < watermark + self.offset
    }
}

/// Folds one change into a member list. An `Add` of a present member
/// and a `Remove` of an absent one are no-ops; a `Remove` that would
/// empty the group is ignored (the last member cannot leave — there
/// would be nobody left to decide anything, including its return).
fn apply_change(members: &mut Vec<ProcessId>, change: ConfigChange) {
    match change {
        ConfigChange::Add(p) => {
            if !members.contains(&p) {
                members.push(p);
            }
        }
        ConfigChange::Remove(p) => {
            if members.len() > 1 {
                members.retain(|&m| m != p);
            }
        }
    }
}

/// Wire form of the registered history (persisted under the stacks'
/// config key and embedded in snapshots): `(decided instance, change)`
/// pairs, ordered by instance.
pub fn encode_reconfigs(reconfigs: &[(u64, ConfigChange)], w: &mut WireWriter) {
    w.put_u32(reconfigs.len() as u32);
    for (instance, change) in reconfigs {
        w.put_u64(*instance);
        change.encode(w);
    }
}

/// Decodes what [`encode_reconfigs`] wrote.
pub fn decode_reconfigs(r: &mut WireReader) -> Result<Vec<(u64, ConfigChange)>, WireError> {
    let len = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(len.min(1024));
    for _ in 0..len {
        let instance = r.get_u64()?;
        let change = ConfigChange::decode(r)?;
        out.push((instance, change));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trips_and_rejects_ordinary_traffic() {
        for change in [
            ConfigChange::Add(ProcessId(3)),
            ConfigChange::Remove(ProcessId(1)),
        ] {
            let payload = reconfig_payload(change);
            assert_eq!(parse_reconfig(&payload), Some(change));
        }
        assert_eq!(parse_reconfig(&Bytes::from_static(b"")), None);
        assert_eq!(parse_reconfig(&Bytes::from(vec![0xAB; 64])), None);
        // Magic prefix with a corrupt body is rejected, not a panic.
        let mut bad = RECONFIG_MAGIC.to_vec();
        bad.push(99);
        bad.push(0);
        assert_eq!(parse_reconfig(&Bytes::from(bad)), None);
    }

    #[test]
    fn timeline_versions_activate_at_offset() {
        let mut tl = ConfigTimeline::new(3, 8);
        assert!(tl.is_trivial());
        assert_eq!(tl.version_at(1_000), 0);
        assert_eq!(tl.coordinator_at(17, 4), ProcessId(1));

        let stamp = tl.register(10, ConfigChange::Add(ProcessId(3))).unwrap();
        assert_eq!(stamp.version, 1);
        assert_eq!(stamp.decided_at, 10);
        assert_eq!(stamp.activation, 18);
        assert_eq!(stamp.members.len(), 4);
        assert_eq!(tl.version_at(17), 0);
        assert_eq!(tl.version_at(18), 1);
        assert_eq!(tl.majority_at(17), 2);
        assert_eq!(tl.majority_at(18), 3);
        assert!(!tl.is_member_at(17, ProcessId(3)));
        assert!(tl.is_member_at(18, ProcessId(3)));
        // Rotation extends over the new member.
        assert_eq!(tl.coordinator_at(18, 3), ProcessId(3));

        // Duplicate registration (replay) is a no-op.
        assert!(tl.register(10, ConfigChange::Add(ProcessId(3))).is_none());
        assert_eq!(tl.latest_version(), 1);
    }

    #[test]
    fn remove_returns_to_smaller_quorum() {
        let mut tl = ConfigTimeline::new(5, 4);
        let stamp = tl.register(3, ConfigChange::Remove(ProcessId(4))).unwrap();
        assert_eq!(stamp.activation, 7);
        assert_eq!(stamp.members, ProcessId::all(4).collect::<Vec<_>>());
        assert_eq!(tl.majority_at(6), 3);
        assert_eq!(tl.majority_at(7), 3); // 4 members: majority still 3
        tl.register(8, ConfigChange::Remove(ProcessId(3))).unwrap();
        assert_eq!(tl.majority_at(12), 2);
        assert!(!tl.is_member_at(12, ProcessId(3)));
    }

    #[test]
    fn registration_order_does_not_matter() {
        let mut fwd = ConfigTimeline::new(3, 8);
        fwd.register(5, ConfigChange::Add(ProcessId(3)));
        fwd.register(20, ConfigChange::Remove(ProcessId(0)));
        let mut rev = ConfigTimeline::new(3, 8);
        rev.register(20, ConfigChange::Remove(ProcessId(0)));
        rev.register(5, ConfigChange::Add(ProcessId(3)));
        assert_eq!(fwd, rev);
        for i in [0, 12, 13, 27, 28, 100] {
            assert_eq!(fwd.members_at(i), rev.members_at(i), "instance {i}");
        }
        // Stamps renumber by decided instance, not registration order.
        assert_eq!(rev.stamp(1).decided_at, 5);
        assert_eq!(rev.stamp(2).decided_at, 20);
    }

    #[test]
    fn last_member_cannot_be_removed() {
        let mut tl = ConfigTimeline::new(1, 2);
        tl.register(0, ConfigChange::Remove(ProcessId(0)));
        assert_eq!(tl.members_at(10), vec![ProcessId(0)]);
    }

    #[test]
    fn fence_certainty_tracks_the_watermark() {
        let mut tl = ConfigTimeline::new(3, 8);
        // Trivial timeline: always certain (static-group fast path).
        assert!(tl.certain_at(1_000, 0));
        tl.register(2, ConfigChange::Add(ProcessId(3)));
        // Watermark 4: instances below 12 are governed by decisions
        // already replayed; instance 12 could still be flipped by an
        // unknown decision at instance 4.
        assert!(tl.certain_at(11, 4));
        assert!(!tl.certain_at(12, 4));
        assert!(tl.certain_at(12, 5));
    }

    #[test]
    fn reconfig_history_round_trips() {
        let history = vec![
            (3u64, ConfigChange::Add(ProcessId(3))),
            (9u64, ConfigChange::Remove(ProcessId(1))),
        ];
        let mut w = WireWriter::new();
        encode_reconfigs(&history, &mut w);
        let bytes = w.finish();
        let mut r = WireReader::new(bytes);
        assert_eq!(decode_reconfigs(&mut r).unwrap(), history);
    }
}
