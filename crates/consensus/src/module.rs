//! The consensus microprotocol: multi-instance Chandra–Toueg.
//!
//! # Algorithm (per instance)
//!
//! Rounds rotate coordinators (`coord(r) = p_{(r mod n)+1}`). The
//! implementation carries the paper's modular-side optimizations (§3.2):
//!
//! 1. **Round 0 has no estimate phase**: the coordinator proposes its own
//!    initial value directly (Fig. 3).
//! 2. **Rounds advance only on suspicion**: instead of free-running
//!    rounds, a process moves to round `r+1` (sending its estimate to the
//!    new coordinator) only when its failure detector suspects the
//!    current coordinator. A slow periodic sweep additionally rotates
//!    rounds for instances that make no progress, which preserves
//!    liveness under pathological mixed-suspicion schedules.
//! 3. **Decisions are disseminated as a `DECISION` tag** through the
//!    reliable broadcast module: in round 0 the notice carries no value —
//!    receivers decide the round-0 proposal they already hold. A receiver
//!    missing the proposal (possible when the coordinator crashed
//!    mid-round) recovers with `DecisionRequest`/`DecisionFull`. The
//!    coordinator keeps its decided value as a view of the proposal
//!    frame it broadcast, so every process holds the same single copy
//!    of each decided batch.
//!
//! Safety is the classic CT argument: a decision in round `r` requires
//! acks from a majority, every ack locks the proposal as the acker's
//! estimate with timestamp `r`, and any later coordinator gathers
//! estimates from a majority — which intersects every ack quorum — and
//! adopts the max-timestamp estimate.
//!
//! # Pipelined instances
//!
//! All per-instance state — protocol rounds, durable vote records, the
//! decided log and its watermark GC — is keyed by instance number, so
//! any number of instances may run **concurrently**: the module is
//! agnostic to how far ahead the delivery layer's windowed sequencer
//! proposes ([`ConsensusConfig::pipeline_depth`] only informs the gap
//! heuristic, which must not mistake in-flight window instances for
//! missed decisions). Decisions are raised as they land; the layer
//! above buffers and applies them strictly in instance order.
//!
//! # Crash-recovery
//!
//! A process revived via `Cluster::schedule_restart` loses all volatile
//! state. Two mechanisms make that survivable:
//!
//! * **Durable votes** — every vote (ack / adoption) writes a
//!   [`VoteRecord`] to the host's stable store atomically with the vote
//!   message; [`ConsensusModule::resume`] replays the records so a
//!   revived process re-enters undecided instances with its locked
//!   `(round, estimate, ts)` intact. Without this, the quorum
//!   intersection at the heart of CT safety breaks (an amnesiac acker
//!   can help decide a second, different value). The contiguous decided
//!   watermark is persisted too, fencing re-votes in long-decided
//!   instances; records below it are garbage collected.
//! * **Rejoin catch-up** — the decided *values* are not persisted: the
//!   revived process advertises "I am at instance 0" with a
//!   [`JoinRequest`](ConsensusMsg::JoinRequest) broadcast and peers
//!   stream the decided prefix back in bulk
//!   [`StateTransfer`](ConsensusMsg::StateTransfer) batches until the
//!   joiner reaches the live frontier. Every replayed decision re-raises
//!   `Event::Decide`, so the stack above re-delivers the prefix
//!   byte-identically — which the chaos oracle checks across
//!   incarnations.
//!
//! # Catch-up
//!
//! There is one catch-up path, shared by a revived process and a live
//! laggard (a healed partition minority, a long-suspected process): a
//! *range pull*, a unicast `JoinRequest` carrying the replayed
//! watermark, answered with one `StateTransfer` of up to 16 decided
//! values (or the snapshot, when that prefix was compacted). A process
//! keeps at most one pull in flight. Seeing traffic beyond its
//! pipeline window starts one; each `StateTransfer` that answers it
//! clocks the next while the process is still behind; an unanswered
//! pull is re-sent after 50 ms. Recovery thus costs a bounded number of
//! pulls at round-trip pace, however slow the serving peer is.
//!
//! # Log compaction and snapshot state transfer
//!
//! The decision cache is bounded, so under unbounded history the old
//! prefix must eventually go. Instead of evicting it blindly (which made
//! deep rejoins unservable), every process folds the contiguous decided
//! prefix through a deterministic [`SnapshotFold`] and periodically
//! materializes a [`Snapshot`] — application-state digest, per-sender
//! delivered sets and the `last_included` instance — persisted via the
//! stable store, then truncates cached decisions at or below
//! `last_included`. A joiner whose gap starts inside the compacted
//! prefix receives the snapshot instead, chunked at round-trip pace
//! ([`SnapshotTransfer`](ConsensusMsg::SnapshotTransfer) /
//! [`SnapshotPull`](ConsensusMsg::SnapshotPull)); it installs the
//! snapshot, raises `Event::InstallSnapshot` so the delivery layer skips
//! the compacted instances, and resumes log catch-up at
//! `last_included + 1`. Deliveries before the install point are replaced
//! by the snapshot, so byte-identical replay is owed only for the tail —
//! the recovery-aware oracle audits exactly that, plus cross-process
//! agreement on snapshot digests.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use fortika_framework::{Event, EventKind, FrameworkCtx, Microprotocol, ModuleId};
use fortika_net::membership::{decode_reconfigs, encode_reconfigs};
use fortika_net::snapshot::{chunk_of, stamp_of};
use fortika_net::wire::{decode, encode, WireReader, WireWriter};
use fortika_net::{
    parse_reconfig, AppState, Batch, ChunkOutcome, ConfigChange, ConfigTimeline, PeerRateLimiter,
    ProcessId, Snapshot, SnapshotDownload, SnapshotFold, StableStore, TimerId,
};
use fortika_rbcast::OriginLog;
use fortika_sim::{VDur, VTime};

use crate::msg::{coordinator, ConsensusMsg, DecisionNotice, VoteRecord};

/// Wire demux id of the consensus module.
pub const CONSENSUS_MODULE_ID: ModuleId = 2;

/// Reliable-broadcast stream carrying decision notices.
pub const DECISION_STREAM: u8 = 0;

const TAG_SWEEP: u64 = 0;

/// Stable-store key namespace tag of per-instance vote records.
const STABLE_VOTE_TAG: u64 = 1 << 56;
/// Stable-store key of the contiguous decided watermark.
const STABLE_WATERMARK_KEY: u64 = 2 << 56;
/// Stable-store key of the latest log-compaction snapshot.
const STABLE_SNAPSHOT_KEY: u64 = 3 << 56;
/// Stable-store key of the registered reconfiguration history.
const STABLE_CONFIG_KEY: u64 = 4 << 56;

/// Stable-store key of `instance`'s vote record.
fn vote_key(instance: u64) -> u64 {
    debug_assert!(instance < (1 << 56));
    STABLE_VOTE_TAG | instance
}

/// Instances streamed per [`ConsensusMsg::StateTransfer`] reply.
const MAX_TRANSFER: u64 = 16;
/// Minimum spacing of rejoin re-announcements.
const JOIN_RETRY: VDur = VDur::millis(300);
/// An unanswered catch-up pull is re-sent after this long.
const PULL_RETRY: VDur = VDur::millis(50);
/// Minimum spacing of snapshot offers toward one lagging peer.
const OFFER_SPACING: VDur = VDur::millis(50);

/// Configuration of the consensus module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsensusConfig {
    /// An undecided instance stuck in one round for longer than this is
    /// rotated to the next coordinator even without a suspicion (liveness
    /// backstop; never reached in good runs).
    pub progress_timeout: VDur,
    /// Period of the background sweep that enforces `progress_timeout`
    /// and retries decision requests.
    pub sweep_interval: VDur,
    /// How many decided values are cached for recovery requests.
    pub decision_cache: usize,
    /// Fold the decided prefix into a log-compaction [`Snapshot`] every
    /// this many instances (also whenever the decision cache would
    /// otherwise evict an uncompacted decision). `0` disables
    /// snapshotting — then a joiner whose gap was evicted everywhere
    /// stalls forever (`consensus.join_unservable`).
    pub snapshot_interval: u64,
    /// The delivery layer's windowed-sequencer depth α (how many
    /// instances it keeps in flight concurrently; see
    /// `AbcastConfig::pipeline_depth` in `fortika-abcast`).
    ///
    /// The module runs any number of instances concurrently regardless —
    /// per-instance state, durable vote records and the watermark GC are
    /// all keyed by instance — but its *gap heuristic* needs the depth:
    /// traffic for an instance within `watermark + α` is normal
    /// pipelining, not evidence of missed decisions, so only sightings
    /// beyond the window trigger decision pulls.
    pub pipeline_depth: u64,
    /// **Test-only fault hook, debug builds only:** skip persisting CT
    /// vote records. Plants the classic lost-vote recovery bug for the
    /// fuzz-minimizer acceptance suite; compiled to a no-op in release
    /// builds (`cfg!(debug_assertions)`).
    pub skip_vote_persist: bool,
    /// Size of the initial voting member set. `0` (the default) means
    /// "every process in the cluster" — the static-group behaviour.
    /// Reconfiguration runs build clusters at standby capacity (spare
    /// processes crashed at time zero, awaiting an `Add`), so the voter
    /// count is smaller than the cluster size there.
    pub initial_members: usize,
    /// Activation offset of log-decided reconfigurations: a membership
    /// change decided at instance `d` governs instances `d + offset` on.
    /// Must be at least the pipeline depth, or in-flight instances could
    /// be governed by a configuration their proposer cannot yet know.
    pub reconfig_offset: u64,
    /// **Test-only fault hook, debug builds only:** never register
    /// decided reconfigurations. The process keeps voting with the
    /// *initial* configuration's quorum and coordinator math — the
    /// stale-quorum membership bug the config-aware oracle must catch
    /// (`tests/reconfig_oracle.rs`). A no-op in release builds.
    pub skip_config_fence: bool,
}

impl Default for ConsensusConfig {
    fn default() -> Self {
        ConsensusConfig {
            progress_timeout: VDur::secs(1),
            sweep_interval: VDur::millis(250),
            decision_cache: 1024,
            snapshot_interval: 256,
            pipeline_depth: 1,
            skip_vote_persist: false,
            initial_members: 0,
            reconfig_offset: 8,
            skip_config_fence: false,
        }
    }
}

/// Per-instance protocol state.
struct Instance {
    round: u32,
    round_entered: VTime,
    /// Current estimate and its adoption timestamp.
    estimate: Option<Batch>,
    ts: u32,
    /// Latest proposal received (round, value) — needed to decide on a
    /// round-tagged `DECISION` notice.
    last_proposal: Option<(u32, Batch)>,
    /// Acks gathered while coordinating the current round.
    acks: BTreeSet<ProcessId>,
    /// Highest-round estimate received from each peer (round, value, ts).
    estimates: BTreeMap<ProcessId, (u32, Batch, u32)>,
    /// Last round for which we (as coordinator) already proposed.
    proposal_sent_round: Option<u32>,
    /// A `DECISION` tag arrived for this round but the matching proposal
    /// is missing; awaiting recovery.
    pending_tag: Option<u32>,
    /// When the last recovery request went out.
    last_request: Option<VTime>,
}

impl Instance {
    fn new(now: VTime) -> Self {
        Instance {
            round: 0,
            round_entered: now,
            estimate: None,
            ts: 0,
            last_proposal: None,
            acks: BTreeSet::new(),
            estimates: BTreeMap::new(),
            proposal_sent_round: None,
            pending_tag: None,
            last_request: None,
        }
    }
}

/// The catch-up pull in flight: a range request sent to `to` for the
/// decided values from `watermark` on.
#[derive(Debug, Clone, Copy)]
struct Pull {
    to: ProcessId,
    watermark: u64,
    sent: VTime,
}

/// The consensus microprotocol.
///
/// Consumes [`Event::Propose`], raises [`Event::Decide`]; uses the
/// reliable broadcast service (stream [`DECISION_STREAM`]) for decision
/// dissemination and reacts to [`Event::Suspect`]/[`Event::Restore`].
pub struct ConsensusModule {
    cfg: ConsensusConfig,
    instances: BTreeMap<u64, Instance>,
    /// Instances this process may no longer vote in (voting fence).
    /// After a restart it is pre-loaded from the persisted watermark,
    /// so it can run *ahead* of [`replayed`](Self::replayed).
    decided_log: OriginLog,
    /// Instances whose decision was raised as [`Event::Decide`] in this
    /// incarnation — the replay/delivery progress. Always starts at 0,
    /// so a revived process re-raises the whole decided prefix.
    replayed: OriginLog,
    decisions: BTreeMap<u64, Batch>,
    suspected: BTreeSet<ProcessId>,
    /// The one catch-up pull in flight, if any (see the
    /// [crate docs](crate)).
    pull: Option<Pull>,
    /// Vote records recovered from stable storage (restart only); seeds
    /// per-instance state when an instance is first touched.
    recovered_votes: BTreeMap<u64, VoteRecord>,
    /// Still catching up after a restart (rejoin announcements active).
    rejoining: bool,
    /// Highest replay frontier any state transfer advertised.
    rejoin_target: u64,
    /// When the last rejoin announcement went out.
    last_join: VTime,
    /// Deterministic fold of the contiguous decided prefix (feeds
    /// snapshots; mirrors the delivery path's dedup exactly).
    fold: SnapshotFold,
    /// Latest materialized or installed snapshot, plus its cached
    /// encoding for chunked serving.
    snapshot: Option<Snapshot>,
    snapshot_bytes: Bytes,
    /// In-progress snapshot download (receiver side).
    download: SnapshotDownload,
    /// Rate limiter for snapshot offers answering requests for
    /// compacted decisions (a retried request needs one offer, not one
    /// per retry).
    offer_limiter: PeerRateLimiter,
    /// Snapshot recovered from stable storage (restart only); installed
    /// in `on_start`, where a handler context is available.
    restored: Option<Snapshot>,
    /// The versioned configuration history (log-decided membership).
    /// Built at `on_start` (the group size is only known then); `None`
    /// answers every quorum question with the static-group math.
    timeline: Option<ConfigTimeline>,
    /// Reconfiguration commands decided but not yet *registered*: a
    /// change enters the timeline only once the contiguous replayed
    /// prefix covers its decided instance, so versions are numbered in
    /// decided order on every process even when pipelined instances
    /// land out of order.
    pending_reconfigs: BTreeMap<u64, ConfigChange>,
    /// Reconfiguration history recovered from stable storage (restart
    /// only); registered in `on_start`.
    recovered_reconfigs: Vec<(u64, ConfigChange)>,
}

impl ConsensusModule {
    /// Creates the module (fresh start at time zero).
    pub fn new(cfg: ConsensusConfig) -> Self {
        ConsensusModule {
            cfg,
            instances: BTreeMap::new(),
            decided_log: OriginLog::default(),
            replayed: OriginLog::default(),
            decisions: BTreeMap::new(),
            suspected: BTreeSet::new(),
            pull: None,
            recovered_votes: BTreeMap::new(),
            rejoining: false,
            rejoin_target: 0,
            last_join: VTime::ZERO,
            fold: SnapshotFold::new(None),
            snapshot: None,
            snapshot_bytes: Bytes::new(),
            download: SnapshotDownload::default(),
            offer_limiter: PeerRateLimiter::new(),
            restored: None,
            timeline: None,
            pending_reconfigs: BTreeMap::new(),
            recovered_reconfigs: Vec::new(),
        }
    }

    /// Attaches an application-state hook to the snapshot fold (call
    /// right after [`new`](Self::new)/[`resume`](Self::resume), before
    /// the module processes anything).
    pub fn with_app(mut self, app: Option<Box<dyn AppState>>) -> Self {
        self.fold = SnapshotFold::new(app);
        self
    }

    /// Creates the module for a process revived after a crash: replays
    /// the persisted vote records, decided watermark and log-compaction
    /// snapshot out of `stable` and arms the rejoin announcement (see
    /// the [crate docs](crate)).
    pub fn resume(cfg: ConsensusConfig, stable: &StableStore) -> Self {
        let mut module = ConsensusModule::new(cfg);
        module.rejoining = true;
        for (&key, bytes) in stable {
            if key == STABLE_WATERMARK_KEY {
                if let Ok(w) = decode::<u64>(bytes.clone()) {
                    module.decided_log.advance_to(w);
                }
            } else if key == STABLE_SNAPSHOT_KEY {
                if let Ok(snap) = decode::<Snapshot>(bytes.clone()) {
                    module.restored = Some(snap);
                }
            } else if key == STABLE_CONFIG_KEY {
                let mut r = WireReader::new(bytes.clone());
                if let Ok(history) = decode_reconfigs(&mut r) {
                    module.recovered_reconfigs = history;
                }
            } else if key >> 56 == STABLE_VOTE_TAG >> 56 {
                if let Ok(rec) = decode::<VoteRecord>(bytes.clone()) {
                    module.recovered_votes.insert(key & !STABLE_VOTE_TAG, rec);
                }
            }
        }
        module
    }

    /// The timeline, built on first use (the voter count defaults to
    /// the cluster size; reconfig runs override it via
    /// [`ConsensusConfig::initial_members`]).
    fn timeline_mut(&mut self, n: usize) -> &mut ConfigTimeline {
        let voters = if self.cfg.initial_members == 0 {
            n
        } else {
            self.cfg.initial_members
        };
        let offset = self.cfg.reconfig_offset.max(1);
        self.timeline
            .get_or_insert_with(|| ConfigTimeline::new(voters, offset))
    }

    /// The member set governing `instance`, in rotation order.
    fn members_of(&self, instance: u64, n: usize) -> Vec<ProcessId> {
        match &self.timeline {
            Some(t) => t.members_at(instance),
            None => ProcessId::all(n).collect(),
        }
    }

    /// The quorum size at `instance`.
    fn majority_of(&self, instance: u64, n: usize) -> usize {
        match &self.timeline {
            Some(t) => t.majority_at(instance),
            None => n / 2 + 1,
        }
    }

    /// The coordinator of `round` at `instance` (rotation over the
    /// governing member set).
    fn coordinator_of(&self, instance: u64, round: u32, n: usize) -> ProcessId {
        match &self.timeline {
            Some(t) => t.coordinator_at(instance, round),
            None => coordinator(round, n),
        }
    }

    /// True when the membership governing `instance` is fully determined
    /// by this process's contiguous replayed prefix (the config fence).
    fn config_certain(&self, instance: u64) -> bool {
        match &self.timeline {
            Some(t) => t.certain_at(instance, self.replayed.watermark()),
            None => true,
        }
    }

    /// True when this process may vote (ack / estimate / propose) at
    /// `instance`: its membership there must be certain, and it must be
    /// a member. Non-members keep running as learners — they record
    /// proposals, learn decisions and deliver, but never vote.
    fn can_vote(&self, instance: u64, me: ProcessId) -> bool {
        match &self.timeline {
            Some(t) => {
                t.certain_at(instance, self.replayed.watermark()) && t.is_member_at(instance, me)
            }
            None => true,
        }
    }

    fn is_decided(&self, instance: u64) -> bool {
        !self.decided_log.is_new(instance)
    }

    /// Per-instance state, created on first touch; a revived process
    /// seeds fresh instances from its recovered vote records so its
    /// locked `(round, estimate, ts)` is honoured.
    fn instance_entry(&mut self, instance: u64, now: VTime) -> &mut Instance {
        if !self.instances.contains_key(&instance) {
            let mut inst = Instance::new(now);
            if let Some(rec) = self.recovered_votes.get(&instance) {
                inst.round = rec.round;
                inst.estimate = Some(rec.value.clone());
                inst.ts = rec.ts;
            }
            self.instances.insert(instance, inst);
        }
        self.instances.get_mut(&instance).expect("just inserted")
    }

    /// Writes `instance`'s vote record to stable storage, atomically
    /// with the vote message of the enclosing handler.
    fn persist_vote(
        &self,
        ctx: &mut FrameworkCtx<'_, '_>,
        instance: u64,
        round: u32,
        ts: u32,
        value: &Batch,
    ) {
        if cfg!(debug_assertions) && self.cfg.skip_vote_persist {
            // Injected fault (fuzz-minimizer acceptance suite): the
            // vote is acked but never reaches stable storage, so a
            // crash-restart forgets its lock.
            return;
        }
        let rec = VoteRecord {
            round,
            ts,
            value: value.clone(),
        };
        ctx.persist(vote_key(instance), encode(&rec));
    }

    /// Registers a decision locally: caches the value, raises
    /// [`Event::Decide`] and drops per-instance state. Keyed on the
    /// replay log, so a revived process re-raises the decided prefix
    /// learned through state transfer even though its voting fence
    /// (`decided_log`) already covers it.
    fn decide_local(&mut self, ctx: &mut FrameworkCtx<'_, '_>, instance: u64, value: Batch) {
        if !self.replayed.is_new(instance) {
            return;
        }
        self.replayed.complete(instance);
        let fence_before = self.decided_log.watermark();
        self.decided_log.complete(instance);
        self.persist_fence(ctx, fence_before);
        self.decisions.insert(instance, value.clone());
        self.fold.absorb(instance, &value);
        self.note_reconfigs(ctx, instance, &value);
        self.maybe_compact(ctx);
        if self.cfg.snapshot_interval == 0 {
            // No snapshots: bound the cache by blind eviction (the
            // pre-compaction behaviour — evicted prefixes become
            // unservable to joiners).
            while self.decisions.len() > self.cfg.decision_cache {
                self.decisions.pop_first();
            }
        }
        self.instances.remove(&instance);
        ctx.bump("consensus.decided", 1);
        ctx.trace_span("consensus", instance, "decided", 0);
        ctx.raise(Event::Decide { instance, value });
    }

    /// Persists the voting fence if it advanced past `fence_before` and
    /// garbage-collects the vote records the advance makes obsolete.
    fn persist_fence(&mut self, ctx: &mut FrameworkCtx<'_, '_>, fence_before: u64) {
        let fence_after = self.decided_log.watermark();
        if fence_after > fence_before {
            ctx.persist(STABLE_WATERMARK_KEY, encode(&fence_after));
            for k in fence_before..fence_after {
                ctx.unpersist(vote_key(k));
            }
        }
    }

    /// Registers the reconfiguration decided at `decided_at`: updates
    /// the timeline, persists the full history atomically with the
    /// enclosing handler, and reports the new version's stamp — to the
    /// harness (config-aware oracle) and on the stack bus (the failure
    /// detector re-points its monitor set).
    fn register_reconfig(
        &mut self,
        ctx: &mut FrameworkCtx<'_, '_>,
        decided_at: u64,
        change: ConfigChange,
    ) {
        if cfg!(debug_assertions) && self.cfg.skip_config_fence {
            // Injected fault (reconfig oracle acceptance suite): the
            // decided change is ignored, so this process keeps voting
            // with the initial configuration's quorum and coordinator
            // math and never reports a config stamp.
            return;
        }
        let n = ctx.n();
        let Some(stamp) = self.timeline_mut(n).register(decided_at, change) else {
            return; // duplicate (replay / snapshot overlap)
        };
        let history = self.timeline.as_ref().expect("just touched").reconfigs();
        let mut w = WireWriter::new();
        encode_reconfigs(&history, &mut w);
        ctx.persist(STABLE_CONFIG_KEY, w.finish());
        ctx.bump("consensus.reconfigs", 1);
        ctx.trace_span("consensus", decided_at, "config_active", stamp.version);
        ctx.note_config(stamp.clone());
        ctx.raise(Event::ConfigActive { stamp });
    }

    /// Scans a freshly decided batch for reconfiguration commands, then
    /// registers every pending command the contiguous replayed prefix
    /// now covers — in decided-instance order, so configuration
    /// versions are numbered identically on every process regardless of
    /// the order pipelined decisions landed in.
    fn note_reconfigs(&mut self, ctx: &mut FrameworkCtx<'_, '_>, instance: u64, value: &Batch) {
        for msg in value.msgs() {
            if let Some(change) = parse_reconfig(&msg.payload) {
                // First command in the batch wins; the submission path
                // spaces reconfigs out so this is the rare tie-break.
                self.pending_reconfigs.entry(instance).or_insert(change);
            }
        }
        while let Some((&d, &change)) = self.pending_reconfigs.first_key_value() {
            if d >= self.replayed.watermark() {
                break; // not contiguous yet: an earlier decision is missing
            }
            self.pending_reconfigs.remove(&d);
            self.register_reconfig(ctx, d, change);
        }
    }

    /// Materializes a snapshot when the fold ran `snapshot_interval`
    /// instances past the previous one — or early, whenever the decision
    /// cache would otherwise have to evict an uncompacted decision
    /// (compaction replaces eviction, so every instance a joiner may
    /// miss is servable from either the log tail or the snapshot).
    fn maybe_compact(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        let interval = self.cfg.snapshot_interval;
        if interval == 0 {
            return;
        }
        let folded = self.fold.next_instance();
        let base = self.snapshot.as_ref().map_or(0, |s| s.last_included + 1);
        let overflow = self.decisions.len() > self.cfg.decision_cache;
        if folded < base + interval && !(overflow && folded > base) {
            return;
        }
        let Some(mut snap) = self.fold.snapshot() else {
            return;
        };
        // The snapshot carries the reconfiguration history decided
        // within the prefix it covers: every registered change is below
        // the replayed watermark, which the fold never outruns.
        if let Some(t) = &self.timeline {
            snap.reconfigs = t.reconfigs();
        }
        ctx.bump("consensus.snapshots", 1);
        ctx.trace_span("consensus", snap.last_included, "snapshot_offer", 0);
        self.set_snapshot(ctx, snap, false);
    }

    /// Adopts `snap` as this process's serving snapshot: persists it,
    /// evicts the oldest *compacted* decisions down to the cache bound,
    /// and reports the stamp to the harness.
    ///
    /// Only snapshot-covered entries are evicted, and only while the
    /// cache overflows — the recent log tail stays as deep as
    /// `decision_cache` allows, so small gaps (a briefly partitioned
    /// peer) are still served as cheap `StateTransfer` replies and the
    /// snapshot path is reserved for deep ones.
    fn set_snapshot(&mut self, ctx: &mut FrameworkCtx<'_, '_>, snap: Snapshot, installed: bool) {
        let bytes = encode(&snap);
        // Durability is not free: materializing charges the encode
        // cost, installing charges decode + restore + re-encode for
        // serving — both proportional to the snapshot's encoded size
        // (zero under the default calibration; see docs/COST_MODEL.md).
        let cost = if installed {
            ctx.costs().snapshot_install_cost(bytes.len())
        } else {
            ctx.costs().snapshot_encode_cost(bytes.len())
        };
        ctx.charge_durability(cost);
        ctx.persist(STABLE_SNAPSHOT_KEY, bytes.clone());
        while self.decisions.len() > self.cfg.decision_cache {
            match self.decisions.first_key_value() {
                Some((&k, _)) if k <= snap.last_included => {
                    self.decisions.pop_first();
                }
                _ => break, // uncompacted entries are never dropped
            }
        }
        ctx.note_snapshot(stamp_of(&snap, installed));
        self.snapshot_bytes = bytes;
        self.snapshot = Some(snap);
    }

    /// Seeing traffic for instance `seen` while older instances are
    /// still undecided means we missed decisions (partition, loss, a
    /// long suspicion): pull the missing range from the process we heard
    /// from. Without this, a healed process recovers only one instance
    /// per progress-timeout and can lag arbitrarily far behind.
    ///
    /// At most one pull is in flight: a sighting while one awaits its
    /// reply (or while a snapshot download runs) sends nothing, unless
    /// the pull went unanswered for [`PULL_RETRY`].
    fn maybe_request_gap(&mut self, ctx: &mut FrameworkCtx<'_, '_>, from: ProcessId, seen: u64) {
        let watermark = self.decided_log.watermark();
        // Instances inside the pipeline window above the contiguous
        // decided watermark are normally in flight, not missing.
        let expected = watermark + self.cfg.pipeline_depth.max(1) - 1;
        if seen <= expected || from == ctx.pid() {
            return;
        }
        let now = ctx.now();
        let waiting = self.pull.is_some_and(|p| now.since(p.sent) < PULL_RETRY);
        if waiting || self.download.in_progress(now, JOIN_RETRY) {
            return;
        }
        self.pull_from(ctx, from);
    }

    /// Sends the catch-up pull to `to`: a range request for the decided
    /// values from the replayed watermark on, served by
    /// [`serve_join`](Self::serve_join). A pull is rejoin progress too,
    /// so it defers the next rejoin announcement.
    fn pull_from(&mut self, ctx: &mut FrameworkCtx<'_, '_>, to: ProcessId) {
        let watermark = self.replayed.watermark();
        let now = ctx.now();
        self.pull = Some(Pull {
            to,
            watermark,
            sent: now,
        });
        self.last_join = now;
        ctx.bump("consensus.gap_requests", 1);
        ctx.trace_span("consensus", watermark, "gap_pull", u64::from(to.0));
        let msg = ConsensusMsg::JoinRequest { watermark };
        ctx.send_net(to, "consensus.join_request", &msg);
    }

    /// Coordinator-side: a majority acked our proposal — decide and
    /// disseminate.
    fn try_conclude(&mut self, ctx: &mut FrameworkCtx<'_, '_>, instance: u64) {
        let n = ctx.n();
        let majority = self.majority_of(instance, n);
        let Some(inst) = self.instances.get(&instance) else {
            return;
        };
        if inst.proposal_sent_round != Some(inst.round) || inst.acks.len() < majority {
            return;
        }
        let round = inst.round;
        let value = inst.estimate.clone().unwrap_or_default();
        // Round-0 decisions ride as a tiny DECISION tag; later rounds
        // ship the full value (receivers may lack the proposal).
        let full = if round == 0 {
            None
        } else {
            Some(value.clone())
        };
        let notice = DecisionNotice {
            instance,
            round,
            full,
        };
        ctx.raise(Event::Rbcast {
            stream: DECISION_STREAM,
            payload: encode(&notice),
        });
        self.decide_local(ctx, instance, value);
    }

    /// Coordinator-side: propose once a majority of estimates for the
    /// current round has been gathered (rounds ≥ 1 only).
    fn try_propose_from_estimates(&mut self, ctx: &mut FrameworkCtx<'_, '_>, instance: u64) {
        let n = ctx.n();
        let me = ctx.pid();
        let members = self.members_of(instance, n);
        let majority = members.len() / 2 + 1;
        if !self.can_vote(instance, me) {
            return; // learner, or membership at `instance` still uncertain
        }
        let Some(inst) = self.instances.get_mut(&instance) else {
            return;
        };
        let round = inst.round;
        if members[round as usize % members.len()] != me
            || round == 0
            || inst.proposal_sent_round == Some(round)
        {
            return;
        }
        let count = inst
            .estimates
            .values()
            .filter(|(r, _, _)| *r == round)
            .count();
        if count < majority {
            return;
        }
        // Adopt the estimate with the highest adoption timestamp; ties
        // broken by lowest process id via iteration order independence:
        // collect and sort for determinism.
        let mut candidates: Vec<(&ProcessId, &(u32, Batch, u32))> = inst
            .estimates
            .iter()
            .filter(|(_, (r, _, _))| *r == round)
            .collect();
        candidates.sort_by_key(|(pid, (_, _, ts))| (std::cmp::Reverse(*ts), **pid));
        // Unlike the monolithic stack, a tie among ts-0 estimates needs
        // no batch union here: consensus promises strict validity (the
        // decision is *a* proposed value), and messages missing from
        // the winning estimate stay pending in the abcast module, which
        // re-proposes them next instance and re-diffuses them to every
        // process (including future coordinators) on its retransmission
        // timer.
        let value = candidates[0].1 .1.clone();
        inst.estimate = Some(value.clone());
        // Adoption timestamps are round+1 so that a value locked by an
        // ack quorum always outranks never-adopted initial values (ts 0).
        inst.ts = round + 1;
        inst.last_proposal = Some((round, value.clone()));
        inst.proposal_sent_round = Some(round);
        inst.acks.clear();
        inst.acks.insert(me);
        ctx.bump("consensus.proposals", 1);
        ctx.trace_span("consensus", instance, "proposed", u64::from(round));
        // Coordinator self-ack: durable before (atomically with) the
        // proposal leaves this process.
        self.persist_vote(ctx, instance, round, round + 1, &value);
        self.broadcast_proposal(ctx, instance, round, value);
    }

    /// Coordinator-side: broadcasts the proposal for `(instance, round)`
    /// and re-points the local estimate at the frame the peers received,
    /// so the decided value is one copy shared by every process rather
    /// than the buffers the proposal was built from plus the frame.
    fn broadcast_proposal(
        &mut self,
        ctx: &mut FrameworkCtx<'_, '_>,
        instance: u64,
        round: u32,
        value: Batch,
    ) {
        let msg = ConsensusMsg::Propose {
            instance,
            round,
            value,
        };
        let sent = ctx.broadcast_net("consensus.proposal", &msg);
        if let (Ok(ConsensusMsg::Propose { value, .. }), Some(inst)) = (
            decode::<ConsensusMsg>(sent),
            self.instances.get_mut(&instance),
        ) {
            inst.estimate = Some(value.clone());
            inst.last_proposal = Some((round, value));
        }
        self.try_conclude(ctx, instance);
    }

    /// Moves `instance` to the next round whose coordinator is not
    /// currently suspected, then plays this process's role in it.
    fn advance_round(&mut self, ctx: &mut FrameworkCtx<'_, '_>, instance: u64) {
        let n = ctx.n();
        let me = ctx.pid();
        let now = ctx.now();
        let members = self.members_of(instance, n);
        let coord_of = |round: u32| members[round as usize % members.len()];
        let votable = self.can_vote(instance, me);
        let Some(inst) = self.instances.get_mut(&instance) else {
            return;
        };
        let mut round = inst.round + 1;
        // The skip is bounded by one full rotation: past it the same
        // coordinators repeat, and a learner (never its own coordinator)
        // must not spin when every member is transiently suspected.
        let mut skips = 0;
        while coord_of(round) != me
            && self.suspected.contains(&coord_of(round))
            && skips < members.len()
        {
            round += 1;
            skips += 1;
        }
        inst.round = round;
        inst.round_entered = now;
        inst.acks.clear();
        ctx.bump("consensus.round_changes", 1);
        ctx.trace_span("consensus", instance, "round_change", u64::from(round));
        if !votable {
            // Learners (and processes whose membership at `instance` is
            // still uncertain) track rounds but never vote: no estimate
            // goes out, no proposal is made.
            ctx.bump("consensus.config_fence_drops", 1);
            return;
        }
        let estimate = inst.estimate.clone().unwrap_or_default();
        let ts = inst.ts;
        let coord = coord_of(round);
        if coord == me {
            // We coordinate: our own estimate joins the collection.
            inst.estimates.insert(me, (round, estimate, ts));
            self.try_propose_from_estimates(ctx, instance);
        } else {
            let msg = ConsensusMsg::Estimate {
                instance,
                round,
                value: estimate,
                ts,
            };
            ctx.send_net(coord, "consensus.estimate", &msg);
        }
    }

    fn on_propose_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, instance: u64, value: Batch) {
        if self.is_decided(instance) {
            return;
        }
        let n = ctx.n();
        let me = ctx.pid();
        let now = ctx.now();
        let members = self.members_of(instance, n);
        let votable = self.can_vote(instance, me);
        let inst = self.instance_entry(instance, now);
        if inst.estimate.is_none() {
            inst.estimate = Some(value);
            inst.ts = 0;
        }
        ctx.bump("consensus.instances", 1);
        ctx.trace_span("consensus", instance, "open", 0);
        if !votable {
            // A learner (or a process still uncertain of the membership
            // at `instance`) records its initial value but never
            // proposes; it learns the decision through dissemination.
            ctx.bump("consensus.config_fence_drops", 1);
            return;
        }
        if inst.round == 0 && members[0] == me && inst.proposal_sent_round.is_none() {
            // Round 0, we coordinate: propose our own initial value
            // immediately (no estimate phase — first optimization) and
            // adopt it (ts 1: round 0 + 1).
            let v = inst.estimate.clone().unwrap_or_default();
            inst.ts = 1;
            inst.last_proposal = Some((0, v.clone()));
            inst.proposal_sent_round = Some(0);
            inst.acks.insert(me);
            ctx.bump("consensus.proposals", 1);
            ctx.trace_span("consensus", instance, "proposed", 0);
            self.persist_vote(ctx, instance, 0, 1, &v);
            self.broadcast_proposal(ctx, instance, 0, v);
        } else if members[inst.round as usize % members.len()] == me {
            // We are (now) the coordinator of a later round and were only
            // waiting for our own initial value.
            let est = inst.estimate.clone().unwrap_or_default();
            let ts = inst.ts;
            let round = inst.round;
            inst.estimates.insert(me, (round, est, ts));
            self.try_propose_from_estimates(ctx, instance);
        }
    }

    fn on_net_propose(
        &mut self,
        ctx: &mut FrameworkCtx<'_, '_>,
        from: ProcessId,
        instance: u64,
        round: u32,
        value: Batch,
    ) {
        let certain = self.config_certain(instance);
        if certain && self.coordinator_of(instance, round, ctx.n()) != from {
            ctx.bump("consensus.bogus_proposals", 1);
            return; // only the round's coordinator may propose
        }
        self.maybe_request_gap(ctx, from, instance);
        if self.is_decided(instance) {
            // Help a lagging coordinator conclude.
            if let Some(v) = self.decisions.get(&instance) {
                let msg = ConsensusMsg::DecisionFull {
                    instance,
                    value: v.clone(),
                };
                ctx.send_net(from, "consensus.decision_full", &msg);
            }
            return;
        }
        let votable = certain && self.can_vote(instance, ctx.pid());
        let now = ctx.now();
        let inst = self.instance_entry(instance, now);
        if round < inst.round {
            return; // stale proposal from an abandoned round
        }
        if round > inst.round {
            inst.round = round;
            inst.round_entered = now;
            inst.acks.clear();
        }
        inst.last_proposal = Some((round, value.clone()));
        let pending_hit = inst.pending_tag == Some(round);
        if votable {
            // Adopt and acknowledge (CT locking step). The adoption
            // timestamp round+1 ranks locked values above initial ones;
            // the vote is made durable atomically with the ack so a
            // future incarnation of this process honours the lock.
            inst.estimate = Some(value.clone());
            inst.ts = round + 1;
            self.persist_vote(ctx, instance, round, round + 1, &value);
            ctx.trace_span("consensus", instance, "voted", u64::from(round));
            let ack = ConsensusMsg::Ack { instance, round };
            ctx.send_net(from, "consensus.ack", &ack);
        } else {
            // The config fence: a learner — or a process whose replay
            // has not yet determined the membership at `instance` —
            // records the proposal (a later DECISION tag can still
            // conclude it) but must not lock or ack it.
            ctx.bump("consensus.config_fence_drops", 1);
        }
        if pending_hit {
            self.decide_local(ctx, instance, value);
        }
    }

    fn on_net_estimate(
        &mut self,
        ctx: &mut FrameworkCtx<'_, '_>,
        from: ProcessId,
        instance: u64,
        round: u32,
        value: Batch,
        ts: u32,
    ) {
        if self.is_decided(instance) {
            if let Some(v) = self.decisions.get(&instance) {
                let msg = ConsensusMsg::DecisionFull {
                    instance,
                    value: v.clone(),
                };
                ctx.send_net(from, "consensus.decision_full", &msg);
            }
            return;
        }
        if self.coordinator_of(instance, round, ctx.n()) != ctx.pid() {
            return; // misdirected
        }
        let now = ctx.now();
        let inst = self.instance_entry(instance, now);
        if round < inst.round {
            return;
        }
        // Keep only each peer's highest-round estimate.
        let keep = match inst.estimates.get(&from) {
            Some((r, _, _)) => *r < round,
            None => true,
        };
        if keep {
            inst.estimates.insert(from, (round, value, ts));
        }
        if round > inst.round {
            // Peers moved past us: join the round we are to coordinate.
            inst.round = round;
            inst.round_entered = now;
            inst.acks.clear();
            let me = ctx.pid();
            if let Some(est) = inst.estimate.clone() {
                let ts0 = inst.ts;
                inst.estimates.insert(me, (round, est, ts0));
            }
        }
        self.try_propose_from_estimates(ctx, instance);
    }

    fn on_net_ack(
        &mut self,
        ctx: &mut FrameworkCtx<'_, '_>,
        from: ProcessId,
        instance: u64,
        round: u32,
    ) {
        if self.is_decided(instance) {
            return;
        }
        let Some(inst) = self.instances.get_mut(&instance) else {
            return;
        };
        if inst.round != round || inst.proposal_sent_round != Some(round) {
            return;
        }
        inst.acks.insert(from);
        self.try_conclude(ctx, instance);
    }

    fn on_notice(
        &mut self,
        ctx: &mut FrameworkCtx<'_, '_>,
        origin: ProcessId,
        notice: DecisionNotice,
    ) {
        if origin != ctx.pid() {
            self.maybe_request_gap(ctx, origin, notice.instance);
        }
        if self.is_decided(notice.instance) {
            return;
        }
        if let Some(value) = notice.full {
            self.decide_local(ctx, notice.instance, value);
            return;
        }
        // Tag-only notice: we must hold the matching proposal.
        let now = ctx.now();
        let inst = self.instance_entry(notice.instance, now);
        match &inst.last_proposal {
            Some((r, v)) if *r == notice.round => {
                let value = v.clone();
                self.decide_local(ctx, notice.instance, value);
            }
            _ => {
                // Recovery: ask the decider (and retry via sweep).
                inst.pending_tag = Some(notice.round);
                inst.last_request = Some(now);
                ctx.bump("consensus.tag_misses", 1);
                let msg = ConsensusMsg::DecisionRequest {
                    instance: notice.instance,
                };
                if origin != ctx.pid() {
                    ctx.send_net(origin, "consensus.decision_request", &msg);
                }
            }
        }
    }

    /// Broadcasts the rejoin announcement: "my replayed prefix ends at
    /// `watermark`" (a freshly revived process says instance 0).
    fn announce_join(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        self.last_join = ctx.now();
        ctx.bump("consensus.join_requests", 1);
        let msg = ConsensusMsg::JoinRequest {
            watermark: self.replayed.watermark(),
        };
        ctx.broadcast_net("consensus.join_request", &msg);
    }

    /// Serves a peer's rejoin announcement. A gap the decision log
    /// still covers is served as a bulk [`StateTransfer`] of decided
    /// values (consecutive from `watermark`, bounded); a gap whose head
    /// was compacted away falls back to a chunked [`SnapshotTransfer`]
    /// — the log there is gone, the snapshot replaces it.
    ///
    /// With snapshotting disabled (`snapshot_interval == 0`) the old
    /// limit applies: once a run outgrows `decision_cache`, the evicted
    /// prefix is unservable and a joiner advertising instance 0 stalls
    /// (`consensus.join_unservable` counts this).
    ///
    /// [`StateTransfer`]: ConsensusMsg::StateTransfer
    /// [`SnapshotTransfer`]: ConsensusMsg::SnapshotTransfer
    fn serve_join(&mut self, ctx: &mut FrameworkCtx<'_, '_>, from: ProcessId, watermark: u64) {
        let frontier = self.replayed.watermark();
        if frontier <= watermark {
            return;
        }
        // The cheap path first: while the decision log still covers the
        // head of the gap, a bulk value transfer beats re-shipping the
        // whole snapshot (the log tail stays `decision_cache` deep).
        let mut values = Vec::new();
        for instance in watermark..frontier.min(watermark + MAX_TRANSFER) {
            match self.decisions.get(&instance) {
                Some(v) => values.push(v.clone()),
                None => break, // evicted: cannot serve a gapless prefix
            }
        }
        if !values.is_empty() {
            ctx.bump("consensus.state_transfers", 1);
            let msg = ConsensusMsg::StateTransfer {
                from: watermark,
                values,
                frontier,
            };
            ctx.send_net(from, "consensus.state_transfer", &msg);
            return;
        }
        if self
            .snapshot
            .as_ref()
            .is_some_and(|s| watermark <= s.last_included)
        {
            // The gap begins inside the compacted prefix: ship the
            // snapshot (first chunk; the joiner pulls the rest at
            // round-trip pace), then it rejoins the log at
            // `last_included + 1`.
            self.serve_snapshot_chunk(ctx, from, 0);
            return;
        }
        // Not silent: a joiner below our eviction horizon cannot be
        // helped by this process (only possible with snapshots
        // disabled, or for a gap above the snapshot with a hole in the
        // local log).
        ctx.bump("consensus.join_unservable", 1);
    }

    /// Sends one chunk of the serving snapshot to `from`.
    fn serve_snapshot_chunk(
        &mut self,
        ctx: &mut FrameworkCtx<'_, '_>,
        from: ProcessId,
        offset: u32,
    ) {
        let Some(snap) = &self.snapshot else {
            return;
        };
        let Some((total, chunk)) = chunk_of(&self.snapshot_bytes, offset) else {
            return;
        };
        ctx.bump("consensus.snapshot_transfers", 1);
        let msg = ConsensusMsg::SnapshotTransfer {
            last_included: snap.last_included,
            digest: snap.digest,
            total,
            offset,
            chunk,
            frontier: self.replayed.watermark(),
        };
        ctx.send_net(from, "consensus.snapshot_transfer", &msg);
    }

    /// Receiver side: absorbs one snapshot chunk through the shared
    /// download state machine, pulling the next at round-trip pace; a
    /// completed download is installed and chased with a `JoinRequest`
    /// for the remaining log tail.
    #[allow(clippy::too_many_arguments)]
    fn absorb_snapshot_chunk(
        &mut self,
        ctx: &mut FrameworkCtx<'_, '_>,
        from: ProcessId,
        last_included: u64,
        digest: u64,
        total: u32,
        offset: u32,
        chunk: Bytes,
        frontier: u64,
    ) {
        self.rejoin_target = self.rejoin_target.max(frontier);
        let now = ctx.now();
        let already_past = self.fold.next_instance() > last_included;
        match self.download.absorb(
            from,
            last_included,
            digest,
            total,
            offset,
            &chunk,
            now,
            JOIN_RETRY,
            already_past,
        ) {
            ChunkOutcome::Pull(offset) => {
                ctx.bump("consensus.snapshot_pulls", 1);
                let msg = ConsensusMsg::SnapshotPull {
                    last_included,
                    offset,
                };
                ctx.send_net(from, "consensus.snapshot_pull", &msg);
            }
            ChunkOutcome::Complete(snap) => {
                self.install_snapshot(ctx, *snap);
                // The completed download clocks the tail pull from the
                // serving peer.
                self.pull_from(ctx, from);
            }
            ChunkOutcome::Ignored => {}
            ChunkOutcome::Corrupt => ctx.bump("consensus.snapshot_garbage", 1),
        }
    }

    /// Installs a snapshot: fast-forwards the fold, replay log and
    /// voting fence to `last_included + 1`, drops per-instance state the
    /// snapshot made moot, adopts it for serving, and tells the stack
    /// above (the abcast module skips the compacted prefix).
    fn install_snapshot(&mut self, ctx: &mut FrameworkCtx<'_, '_>, snap: Snapshot) {
        if !self.fold.install(&snap) {
            return; // does not extend past what we already replayed
        }
        let next = snap.last_included + 1;
        self.replayed.advance_to(next);
        let fence_before = self.decided_log.watermark();
        self.decided_log.advance_to(next);
        self.persist_fence(ctx, fence_before);
        self.instances = self.instances.split_off(&next);
        self.recovered_votes = self.recovered_votes.split_off(&next);
        self.pending_reconfigs = self.pending_reconfigs.split_off(&next);
        // The snapshot replaces replay of the compacted prefix — the
        // reconfiguration history it carries replaces scanning it.
        for (d, change) in snap.reconfigs.clone() {
            self.register_reconfig(ctx, d, change);
        }
        ctx.bump("consensus.snapshots_installed", 1);
        ctx.trace_span("consensus", snap.last_included, "snapshot_install", 0);
        self.set_snapshot(ctx, snap.clone(), true);
        ctx.raise(Event::InstallSnapshot { snapshot: snap });
    }

    /// Absorbs a bulk state transfer. The reply to the pull in flight
    /// (or any transfer while none is) clocks the next pull from the same
    /// peer while this process is still behind its frontier; other
    /// transfers — duplicate replies, answers to a rejoin announcement —
    /// are absorbed without pulling, so at most one pull stays in flight.
    fn absorb_transfer(
        &mut self,
        ctx: &mut FrameworkCtx<'_, '_>,
        from: ProcessId,
        first: u64,
        values: Vec<Batch>,
        frontier: u64,
    ) {
        self.rejoin_target = self.rejoin_target.max(frontier);
        for (i, value) in values.into_iter().enumerate() {
            self.decide_local(ctx, first + i as u64, value);
        }
        let now = ctx.now();
        let clocked = self.pull.is_none_or(|p| {
            (p.to == from && p.watermark == first) || now.since(p.sent) >= PULL_RETRY
        });
        if clocked {
            self.pull = None;
        }
        let mine = self.replayed.watermark();
        if mine < self.rejoin_target {
            if clocked {
                self.pull_from(ctx, from);
            }
        } else if self.rejoining && mine >= self.decided_log.watermark() {
            // Replay reached both the advertised frontier and our own
            // pre-crash decided fence: rejoin complete.
            self.rejoining = false;
            ctx.bump("consensus.rejoins_completed", 1);
        }
    }

    fn sweep(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        let now = ctx.now();
        // Rejoin liveness: re-announce until the replayed prefix covers
        // both the persisted decided fence and every frontier a state
        // transfer advertised (replies can be lost to the same faults
        // that caused the crash).
        if self.rejoining {
            let caught_up = self.replayed.watermark() >= self.decided_log.watermark()
                && self.replayed.watermark() >= self.rejoin_target;
            // A healthy snapshot download is progress too: do not spam
            // re-announcements (and competing offers) while it runs.
            let downloading = self.download.in_progress(now, JOIN_RETRY);
            if caught_up {
                self.rejoining = false;
            } else if now.since(self.last_join) >= JOIN_RETRY && !downloading {
                self.announce_join(ctx);
            }
        }
        let progress = self.cfg.progress_timeout;
        let stuck: Vec<u64> = self
            .instances
            .iter()
            .filter(|(_, inst)| now.since(inst.round_entered) > progress)
            .map(|(k, _)| *k)
            .collect();
        for instance in stuck {
            // Retry pending decision requests first; otherwise rotate the
            // coordinator as if suspected (liveness backstop).
            let inst = self.instances.get_mut(&instance).expect("instance exists");
            if inst.pending_tag.is_some() {
                inst.round_entered = now;
                let msg = ConsensusMsg::DecisionRequest { instance };
                ctx.bump("consensus.request_retries", 1);
                ctx.broadcast_net("consensus.decision_request", &msg);
            } else {
                ctx.bump("consensus.progress_rotations", 1);
                self.advance_round(ctx, instance);
            }
        }
    }
}

impl Microprotocol for ConsensusModule {
    fn name(&self) -> &'static str {
        "consensus"
    }

    fn module_id(&self) -> ModuleId {
        CONSENSUS_MODULE_ID
    }

    fn subscriptions(&self) -> &'static [EventKind] {
        &[
            EventKind::Propose,
            EventKind::RbDeliver,
            EventKind::Suspect,
            EventKind::Restore,
        ]
    }

    fn on_start(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        self.timeline_mut(ctx.n());
        if self.rejoining {
            // Revived process: restore the persisted snapshot first (the
            // compacted prefix needs no replay), re-register the
            // persisted reconfiguration history (re-reporting the stamps
            // re-points the failure detector and re-confirms the config
            // history to the harness), then advertise the replay
            // frontier — instance 0 without a snapshot — and let peers
            // stream the missing prefix back.
            if let Some(snap) = self.restored.take() {
                self.install_snapshot(ctx, snap);
            }
            let recovered = std::mem::take(&mut self.recovered_reconfigs);
            for (d, change) in recovered {
                self.register_reconfig(ctx, d, change);
            }
            self.announce_join(ctx);
        }
        ctx.set_timer(self.cfg.sweep_interval, TAG_SWEEP);
    }

    fn on_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
        match ev {
            Event::Propose { instance, value } => {
                self.on_propose_event(ctx, *instance, value.clone());
            }
            Event::RbDeliver {
                stream,
                origin,
                payload,
            } if *stream == DECISION_STREAM => match decode::<DecisionNotice>(payload.clone()) {
                Ok(notice) => self.on_notice(ctx, *origin, notice),
                Err(_) => ctx.bump("consensus.garbage", 1),
            },
            Event::Suspect(p) => {
                self.suspected.insert(*p);
                let n = ctx.n();
                let affected: Vec<u64> = self
                    .instances
                    .iter()
                    .filter(|(k, inst)| self.coordinator_of(**k, inst.round, n) == *p)
                    .map(|(k, _)| *k)
                    .collect();
                for instance in affected {
                    self.advance_round(ctx, instance);
                }
            }
            Event::Restore(p) => {
                self.suspected.remove(p);
            }
            _ => {}
        }
    }

    fn on_net(&mut self, ctx: &mut FrameworkCtx<'_, '_>, from: ProcessId, bytes: Bytes) {
        let msg = match decode::<ConsensusMsg>(bytes) {
            Ok(m) => m,
            Err(_) => {
                ctx.bump("consensus.garbage", 1);
                return;
            }
        };
        match msg {
            ConsensusMsg::Propose {
                instance,
                round,
                value,
            } => self.on_net_propose(ctx, from, instance, round, value),
            ConsensusMsg::Estimate {
                instance,
                round,
                value,
                ts,
            } => self.on_net_estimate(ctx, from, instance, round, value, ts),
            ConsensusMsg::Ack { instance, round } => self.on_net_ack(ctx, from, instance, round),
            ConsensusMsg::DecisionRequest { instance } => {
                if let Some(v) = self.decisions.get(&instance) {
                    let msg = ConsensusMsg::DecisionFull {
                        instance,
                        value: v.clone(),
                    };
                    ctx.send_net(from, "consensus.decision_full", &msg);
                } else if self
                    .snapshot
                    .as_ref()
                    .is_some_and(|s| instance <= s.last_included)
                {
                    // The requested decision was compacted away: no peer
                    // can serve it as a value any more, but the snapshot
                    // covers it. Offer the snapshot so a *live* lagging
                    // process (a healed partition minority — not just a
                    // restarted joiner) can leap past the compaction
                    // horizon instead of stalling. Rate-limited: one
                    // offer answers a run of retried requests.
                    let now = ctx.now();
                    if self.offer_limiter.allow(from, now, OFFER_SPACING) {
                        self.serve_snapshot_chunk(ctx, from, 0);
                    }
                }
            }
            ConsensusMsg::DecisionFull { instance, value } => {
                self.decide_local(ctx, instance, value);
            }
            ConsensusMsg::JoinRequest { watermark } => {
                self.serve_join(ctx, from, watermark);
            }
            ConsensusMsg::StateTransfer {
                from: first,
                values,
                frontier,
            } => {
                self.absorb_transfer(ctx, from, first, values, frontier);
            }
            ConsensusMsg::SnapshotTransfer {
                last_included,
                digest,
                total,
                offset,
                chunk,
                frontier,
            } => {
                self.absorb_snapshot_chunk(
                    ctx,
                    from,
                    last_included,
                    digest,
                    total,
                    offset,
                    chunk,
                    frontier,
                );
            }
            ConsensusMsg::SnapshotPull {
                last_included,
                offset,
            } => {
                match &self.snapshot {
                    // Exact match: serve the requested chunk.
                    Some(snap) if snap.last_included == last_included => {
                        self.serve_snapshot_chunk(ctx, from, offset);
                    }
                    // We compacted further since the joiner started; a
                    // fresh offer supersedes the stale download.
                    Some(snap) if snap.last_included > last_included => {
                        self.serve_snapshot_chunk(ctx, from, 0);
                    }
                    _ => {}
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut FrameworkCtx<'_, '_>, _timer: TimerId, tag: u64) {
        if tag == TAG_SWEEP {
            self.sweep(ctx);
            ctx.set_timer(self.cfg.sweep_interval, TAG_SWEEP);
        }
    }
}
