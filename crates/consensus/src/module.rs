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
//! # Crash recovery, compaction and reconfiguration
//!
//! Durable vote records, rejoin catch-up, log compaction with snapshot
//! transfer and the configuration timeline live in the replica log both
//! stacks share ([`fortika_net::replica_log`]). This module holds a
//! [`ReplicaLog`] and turns its events into stack events: every recorded
//! decision raises `Event::Decide` (so a revived process re-delivers the
//! replayed prefix), every activated configuration `Event::ConfigActive`,
//! and every installed snapshot `Event::InstallSnapshot`, which makes the
//! abcast module skip the compacted instances.
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

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use fortika_framework::{Event, EventKind, FrameworkCtx, Microprotocol, ModuleId};
use fortika_net::wire::{decode, encode};
use fortika_net::{
    AppState, Batch, Followup, LogConfig, LogNames, ProcessId, ReplicaLog, Snapshot, StableStore,
    TimerId,
};
use fortika_sim::{VDur, VTime};

use crate::msg::{ConsensusMsg, DecisionNotice};

/// Wire demux id of the consensus module.
pub const CONSENSUS_MODULE_ID: ModuleId = 2;

/// Reliable-broadcast stream carrying decision notices.
pub const DECISION_STREAM: u8 = 0;

const TAG_SWEEP: u64 = 0;

/// An unanswered catch-up pull is re-sent after this long.
const PULL_RETRY: VDur = VDur::millis(50);

/// The names the replica log reports under in this stack.
static LOG_NAMES: LogNames = LogNames {
    stack: "consensus",
    kinds: [
        "consensus.join_request",
        "consensus.state_transfer",
        "consensus.snapshot_transfer",
        "consensus.snapshot_pull",
    ],
    reconfigs: "consensus.reconfigs",
    snapshots: "consensus.snapshots",
    snapshots_installed: "consensus.snapshots_installed",
    join_requests: "consensus.join_requests",
    state_transfers: "consensus.state_transfers",
    join_unservable: "consensus.join_unservable",
    snapshot_transfers: "consensus.snapshot_transfers",
    snapshot_pulls: "consensus.snapshot_pulls",
    snapshot_garbage: "consensus.snapshot_garbage",
    rejoins_completed: "consensus.rejoins_completed",
};

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

/// The replica log's share of the module configuration.
fn log_config(cfg: &ConsensusConfig) -> LogConfig {
    LogConfig {
        decision_cache: cfg.decision_cache,
        snapshot_interval: cfg.snapshot_interval,
        initial_members: cfg.initial_members,
        reconfig_offset: cfg.reconfig_offset,
        skip_vote_persist: cfg.skip_vote_persist,
        skip_config_fence: cfg.skip_config_fence,
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
    /// Decided log, vote records, snapshots and configuration timeline.
    log: ReplicaLog<ConsensusMsg>,
    suspected: BTreeSet<ProcessId>,
    /// The one catch-up pull in flight, if any (see the
    /// [crate docs](crate)).
    pull: Option<Pull>,
}

impl ConsensusModule {
    /// Creates the module (fresh start at time zero).
    pub fn new(cfg: ConsensusConfig) -> Self {
        ConsensusModule {
            log: ReplicaLog::new(&LOG_NAMES, log_config(&cfg)),
            cfg,
            instances: BTreeMap::new(),
            suspected: BTreeSet::new(),
            pull: None,
        }
    }

    /// Attaches an application-state hook to the snapshot fold (call
    /// right after [`new`](Self::new)/[`resume`](Self::resume), before
    /// the module processes anything).
    pub fn with_app(mut self, app: Option<Box<dyn AppState>>) -> Self {
        self.log.set_app(app);
        self
    }

    /// Creates the module for a process revived after a crash: the
    /// replica log reloads its durable state out of `stable` and
    /// announces the rejoin at start (see the [crate docs](crate)).
    pub fn resume(cfg: ConsensusConfig, stable: &StableStore) -> Self {
        let log = ReplicaLog::resume(&LOG_NAMES, log_config(&cfg), stable);
        ConsensusModule {
            log,
            ..ConsensusModule::new(cfg)
        }
    }

    /// Per-instance state, created on first touch; a revived process
    /// seeds fresh instances from its recovered vote records so its
    /// locked `(round, estimate, ts)` is honoured.
    fn instance_entry(&mut self, instance: u64, now: VTime) -> &mut Instance {
        if !self.instances.contains_key(&instance) {
            let mut inst = Instance::new(now);
            if let Some(rec) = self.log.recovered_vote(instance) {
                inst.round = rec.round;
                inst.estimate = Some(rec.value.clone());
                inst.ts = rec.ts;
            }
            self.instances.insert(instance, inst);
        }
        self.instances.get_mut(&instance).expect("just inserted")
    }

    /// Registers a decision locally: caches the value, raises
    /// [`Event::Decide`] and drops per-instance state. Keyed on the
    /// replay watermark, so a revived process re-raises the decided
    /// prefix learned through state transfer even though its voting
    /// fence already covers it.
    fn decide_local(&mut self, ctx: &mut FrameworkCtx<'_, '_>, instance: u64, value: Batch) {
        if !self.log.record(ctx, instance, &value) {
            return;
        }
        self.raise_activated(ctx);
        self.instances.remove(&instance);
        ctx.bump("consensus.decided", 1);
        ctx.trace_span("consensus", instance, "decided", 0);
        ctx.raise(Event::Decide { instance, value });
    }

    /// Raises [`Event::ConfigActive`] for every configuration the log
    /// activated (the failure detector re-points its monitor set).
    fn raise_activated(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        for (stamp, _) in self.log.take_activated() {
            ctx.raise(Event::ConfigActive { stamp });
        }
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
        let watermark = self.log.fence();
        // Instances inside the pipeline window above the contiguous
        // decided watermark are normally in flight, not missing.
        let expected = watermark + self.cfg.pipeline_depth.max(1) - 1;
        if seen <= expected || from == ctx.pid() {
            return;
        }
        let now = ctx.now();
        let waiting = self.pull.is_some_and(|p| now.since(p.sent) < PULL_RETRY);
        if waiting || self.log.downloading(now) {
            return;
        }
        self.pull_from(ctx, from);
    }

    /// Sends the catch-up pull to `to` (see
    /// [`ReplicaLog::pull_from`]) and tracks it as the one in flight.
    fn pull_from(&mut self, ctx: &mut FrameworkCtx<'_, '_>, to: ProcessId) {
        let watermark = self.log.replayed();
        self.pull = Some(Pull {
            to,
            watermark,
            sent: ctx.now(),
        });
        ctx.bump("consensus.gap_requests", 1);
        ctx.trace_span("consensus", watermark, "gap_pull", u64::from(to.0));
        self.log.pull_from(ctx, to);
    }

    /// Coordinator-side: a majority acked our proposal — decide and
    /// disseminate.
    fn try_conclude(&mut self, ctx: &mut FrameworkCtx<'_, '_>, instance: u64) {
        let n = ctx.n();
        let majority = self.log.majority_of(instance, n);
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
        let members = self.log.members_of(instance, n);
        let majority = members.len() / 2 + 1;
        if !self.log.can_vote(instance, me) {
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
        self.log
            .persist_vote(ctx, instance, round, round + 1, &value);
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
        let members = self.log.members_of(instance, n);
        let coord_of = |round: u32| members[round as usize % members.len()];
        let votable = self.log.can_vote(instance, me);
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
        if self.log.is_decided(instance) {
            return;
        }
        let n = ctx.n();
        let me = ctx.pid();
        let now = ctx.now();
        let members = self.log.members_of(instance, n);
        let votable = self.log.can_vote(instance, me);
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
            self.log.persist_vote(ctx, instance, 0, 1, &v);
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
        let certain = self.log.config_certain(instance);
        if certain && self.log.coordinator_of(instance, round, ctx.n()) != from {
            ctx.bump("consensus.bogus_proposals", 1);
            return; // only the round's coordinator may propose
        }
        self.maybe_request_gap(ctx, from, instance);
        if self.log.is_decided(instance) {
            // Help a lagging coordinator conclude.
            if let Some(v) = self.log.decision(instance) {
                let msg = ConsensusMsg::DecisionFull {
                    instance,
                    value: v.clone(),
                };
                ctx.send_net(from, "consensus.decision_full", &msg);
            }
            return;
        }
        let votable = certain && self.log.can_vote(instance, ctx.pid());
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
            self.log
                .persist_vote(ctx, instance, round, round + 1, &value);
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
        if self.log.is_decided(instance) {
            if let Some(v) = self.log.decision(instance) {
                let msg = ConsensusMsg::DecisionFull {
                    instance,
                    value: v.clone(),
                };
                ctx.send_net(from, "consensus.decision_full", &msg);
            }
            return;
        }
        if self.log.coordinator_of(instance, round, ctx.n()) != ctx.pid() {
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
        if self.log.is_decided(instance) {
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
        if self.log.is_decided(notice.instance) {
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

    /// Installs a snapshot the log accepted (see
    /// [`ReplicaLog::install_snapshot`]): drops per-instance state it made moot
    /// and tells the stack above (the abcast module skips the compacted
    /// prefix).
    fn apply_snapshot(&mut self, ctx: &mut FrameworkCtx<'_, '_>, snap: Snapshot) {
        let next = snap.last_included + 1;
        if !self.log.install_snapshot(ctx, snap) {
            return;
        }
        self.instances = self.instances.split_off(&next);
        self.raise_activated(ctx);
        let snapshot = self.log.snapshot().cloned().expect("just installed");
        ctx.raise(Event::InstallSnapshot { snapshot });
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
    ) {
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
        if self.log.still_behind(ctx) && clocked {
            self.pull_from(ctx, from);
        }
    }

    fn sweep(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        let now = ctx.now();
        self.log.retry_rejoin(ctx);
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
        // A revived process restores its persisted snapshot first (the
        // compacted prefix needs no replay), then rejoins.
        if let Some(snap) = self.log.start(ctx) {
            self.apply_snapshot(ctx, snap);
        }
        self.log.rejoin(ctx);
        self.raise_activated(ctx);
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
                    .filter(|(k, inst)| self.log.coordinator_of(**k, inst.round, n) == *p)
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
                if let Some(v) = self.log.decision(instance) {
                    let msg = ConsensusMsg::DecisionFull {
                        instance,
                        value: v.clone(),
                    };
                    ctx.send_net(from, "consensus.decision_full", &msg);
                } else {
                    self.log.offer_snapshot(ctx, from, instance);
                }
            }
            ConsensusMsg::DecisionFull { instance, value } => {
                self.decide_local(ctx, instance, value);
            }
            ConsensusMsg::Recovery(m) => match self.log.on_message(ctx, from, m) {
                Followup::Done => {}
                Followup::Values { first, values } => {
                    self.absorb_transfer(ctx, from, first, values);
                }
                Followup::Snapshot(snap) => {
                    self.apply_snapshot(ctx, *snap);
                    // The completed download clocks the tail pull from
                    // the serving peer.
                    self.pull_from(ctx, from);
                }
            },
        }
    }

    fn on_timer(&mut self, ctx: &mut FrameworkCtx<'_, '_>, _timer: TimerId, tag: u64) {
        if tag == TAG_SWEEP {
            self.sweep(ctx);
            ctx.set_timer(self.cfg.sweep_interval, TAG_SWEEP);
        }
    }
}
