//! The monolithic atomic broadcast node.
//!
//! One state machine merging atomic broadcast, consensus, decision
//! dissemination, flow control and the failure detector — the paper's
//! monolithic stack (§4), with each cross-module optimization
//! individually switchable for ablation studies:
//!
//! * **O1 — combine next proposal with current decision** (§4.1): the
//!   round-0 coordinator of consecutive instances is the same process, so
//!   `decision k` piggybacks on `proposal k+1` in one message.
//! * **O2 — piggyback abcast messages on acks** (§4.2): senders hand new
//!   messages directly to the coordinator, riding `ack` messages (or the
//!   estimate after a coordinator change) instead of diffusing them to
//!   everyone.
//! * **O3 — implicit decision acknowledgements** (§4.3): decisions are
//!   sent once to each process with no relay re-broadcast; the messages
//!   of instance `k+1` acknowledge decision `k` implicitly, and a
//!   pull-based recovery path (`DecisionRequest`) plus the progress sweep
//!   covers crashes.
//!
//! In good runs with all three enabled, ordering `M` messages costs
//! `2(n−1)` messages per consensus instance — against
//! `(n−1)(M + 2 + ⌊(n+1)/2⌋)` for the modular stack (§5.2.1).
//!
//! The proposal path is a windowed sequencer
//! ([`MonoConfig::pipeline_depth`]): at the default depth 1 consensus
//! slots run strictly one at a time as in the paper, while larger
//! depths keep α slots outstanding concurrently (their decision
//! round-trips overlap; decisions are still applied strictly in
//! instance order, and the pool is deduplicated against batches already
//! proposed in live slots).
//!
//! Safety is the same Chandra–Toueg argument as in `fortika-consensus`:
//! deciding requires a majority of acks for an exact `(instance, round)`;
//! acks lock the proposal with adoption timestamp `round+1`; coordinators
//! of later rounds adopt the max-timestamp estimate from a majority.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use fortika_fd::{FailureDetector, FdEvent};
use fortika_net::flow::FlowWindow;
use fortika_net::wire::decode;
use fortika_net::{
    relay_set, Admission, AppMsg, AppRequest, AppState, Batch, Followup, LogConfig, LogCtx,
    LogNames, MsgId, Node, NodeCtx, PeerRateLimiter, ProcessId, ReplicaLog, Snapshot, StableStore,
    TimerId, WatermarkSet,
};
use fortika_sim::{VDur, VTime};

use crate::msg::{decision_full, Decision, MonoMsg, Proposal};

const TAG_FD: u64 = 1;
const TAG_SWEEP: u64 = 2;

/// The names the replica log reports under in this stack.
static LOG_NAMES: LogNames = LogNames {
    stack: "mono",
    kinds: [
        "mono.join_request",
        "mono.state_transfer",
        "mono.snapshot_transfer",
        "mono.snapshot_pull",
    ],
    reconfigs: "mono.reconfigs",
    snapshots: "mono.snapshots",
    snapshots_installed: "mono.snapshots_installed",
    join_requests: "mono.join_requests",
    state_transfers: "mono.state_transfers",
    join_unservable: "mono.join_unservable",
    snapshot_transfers: "mono.snapshot_transfers",
    snapshot_pulls: "mono.snapshot_pulls",
    snapshot_garbage: "mono.snapshot_garbage",
    rejoins_completed: "mono.rejoins_completed",
};

/// Which of the three cross-module optimizations are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonoOptimizations {
    /// O1: combine `decision k` with `proposal k+1`.
    pub combine_decision_proposal: bool,
    /// O2: route abcast messages to the coordinator on acks instead of
    /// diffusing them to everyone.
    pub piggyback_on_acks: bool,
    /// O3: no decision relays; implicit acks + pull-based recovery.
    pub implicit_decision_acks: bool,
}

impl MonoOptimizations {
    /// The paper's monolithic stack: everything on.
    pub fn all() -> Self {
        MonoOptimizations {
            combine_decision_proposal: true,
            piggyback_on_acks: true,
            implicit_decision_acks: true,
        }
    }

    /// Everything off: the modular algorithm run inside one module
    /// (isolates the framework's mechanical overhead in ablations).
    pub fn none() -> Self {
        MonoOptimizations {
            combine_decision_proposal: false,
            piggyback_on_acks: false,
            implicit_decision_acks: false,
        }
    }
}

impl Default for MonoOptimizations {
    fn default() -> Self {
        MonoOptimizations::all()
    }
}

/// Configuration of the monolithic node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonoConfig {
    /// Optimization switches (default: all on).
    pub opts: MonoOptimizations,
    /// Flow-control window (outstanding own messages).
    pub window: usize,
    /// Rotate the coordinator of an instance stuck this long.
    pub progress_timeout: VDur,
    /// Period of the background sweep.
    pub sweep_interval: VDur,
    /// Idle kick: with a suspected round-0 coordinator and pending work,
    /// (re)create the next instance after this much silence.
    pub idle_timeout: VDur,
    /// Decision cache depth for recovery requests.
    pub decision_cache: usize,
    /// Fold the applied prefix into a log-compaction snapshot every
    /// this many instances (also whenever the decision cache would
    /// otherwise evict an uncompacted decision). `0` disables
    /// snapshotting — then a joiner whose gap was evicted everywhere
    /// stalls forever (`mono.join_unservable`).
    pub snapshot_interval: u64,
    /// The windowed-sequencer depth α: how many consensus slots this
    /// node keeps outstanding concurrently.
    ///
    /// `1` (the default) is the seed-faithful regime — the coordinator
    /// starts slot `k+1` only once slot `k`'s decision was applied
    /// locally (modulo O1, which combines `decision k` with `proposal
    /// k+1` in one message). Larger depths let the coordinator keep α
    /// slots in flight, overlapping their decision round-trips; the
    /// pool is deduplicated against batches already proposed in live
    /// slots, and decisions are still **applied strictly in instance
    /// order**. Interaction with flow control: each sender may hold at
    /// most [`window`](MonoConfig::window) own messages outstanding, so
    /// a deep pipeline only fills when the flow windows offer enough
    /// distinct messages for α disjoint batches.
    pub pipeline_depth: usize,
    /// **Test-only fault hook, debug builds only:** skip persisting CT
    /// vote records. Plants the classic lost-vote recovery bug for the
    /// fuzz-minimizer acceptance suite; compiled to a no-op in release
    /// builds (`cfg!(debug_assertions)`).
    pub skip_vote_persist: bool,
    /// Size of the initial voting member set. `0` (the default) means
    /// "every process in the cluster"; reconfiguration runs build
    /// clusters at standby capacity with a smaller voter count.
    pub initial_members: usize,
    /// Activation offset of log-decided reconfigurations: a membership
    /// change decided at instance `d` governs instances `d + offset` on.
    /// Must be at least the pipeline depth.
    pub reconfig_offset: u64,
    /// **Test-only fault hook, debug builds only:** never register
    /// decided reconfigurations — this node keeps voting with the
    /// *initial* configuration's quorum and coordinator math (the
    /// stale-quorum membership bug the config-aware oracle must catch).
    /// A no-op in release builds.
    pub skip_config_fence: bool,
}

impl Default for MonoConfig {
    fn default() -> Self {
        MonoConfig {
            opts: MonoOptimizations::all(),
            window: 2,
            progress_timeout: VDur::secs(1),
            sweep_interval: VDur::millis(250),
            idle_timeout: VDur::secs(1),
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

/// The replica log's share of the node configuration.
fn log_config(cfg: &MonoConfig) -> LogConfig {
    LogConfig {
        decision_cache: cfg.decision_cache,
        snapshot_interval: cfg.snapshot_interval,
        initial_members: cfg.initial_members,
        reconfig_offset: cfg.reconfig_offset,
        skip_vote_persist: cfg.skip_vote_persist,
        skip_config_fence: cfg.skip_config_fence,
    }
}

struct Inst {
    round: u32,
    round_entered: VTime,
    estimate: Option<Batch>,
    ts: u32,
    acks: BTreeSet<ProcessId>,
    estimates: BTreeMap<ProcessId, (u32, Batch, u32)>,
    last_proposal: Option<(u32, Batch)>,
    proposal_sent_round: Option<u32>,
    pending_tag: Option<u32>,
}

impl Inst {
    fn new(now: VTime) -> Self {
        Inst {
            round: 0,
            round_entered: now,
            estimate: None,
            ts: 0,
            acks: BTreeSet::new(),
            estimates: BTreeMap::new(),
            last_proposal: None,
            proposal_sent_round: None,
            pending_tag: None,
        }
    }
}

/// The monolithic atomic broadcast stack (implements [`Node`]).
///
/// Crash recovery, log compaction, snapshot transfer and reconfiguration
/// are the replica log both stacks share ([`fortika_net::replica_log`]).
/// The node holds a [`ReplicaLog`] and follows up on its events: a
/// recorded decision is buffered for in-order application, an activated
/// configuration re-points the failure detector, and an installed
/// snapshot seeds the delivery dedup, pool and flow window. Its catch-up
/// trigger is its own: per-instance `DecisionRequest`s chained at most
/// every 5 ms per peer, and a range pull chained the same way while a
/// state transfer leaves it behind.
pub struct MonoNode {
    cfg: MonoConfig,
    fd: Box<dyn FailureDetector>,
    fd_scratch: Vec<FdEvent>,
    suspected: BTreeSet<ProcessId>,
    flow: FlowWindow,
    /// Next instance whose decision will be applied.
    next_decide: u64,
    /// Delivered message ids, per sender (duplicate suppression).
    delivered: BTreeMap<ProcessId, WatermarkSet>,
    /// Decided log, vote records, snapshots and configuration timeline.
    log: ReplicaLog<MonoMsg>,
    decision_buffer: BTreeMap<u64, Batch>,
    /// Own messages not yet adelivered (flow control + re-forwarding).
    own_pending: BTreeMap<MsgId, AppMsg>,
    /// Messages this process is responsible for getting proposed.
    pool: BTreeMap<MsgId, AppMsg>,
    instances: BTreeMap<u64, Inst>,
    last_progress: VTime,
    /// Per-peer rate limiter for gap/rejoin recovery requests.
    gap_limiter: PeerRateLimiter,
    /// Highest instance number observed in any peer message (see
    /// [`highest_seen`](Self::highest_seen)).
    highest_seen_instance: u64,
    /// Last heartbeat broadcast (the FD may tick faster than it wants
    /// heartbeats sent — e.g. chaos overlays).
    last_heartbeat: Option<VTime>,
}

impl MonoNode {
    /// Creates a monolithic node with the given failure detector core.
    pub fn new(cfg: MonoConfig, fd: Box<dyn FailureDetector>) -> Self {
        let window = cfg.window;
        MonoNode {
            log: ReplicaLog::new(&LOG_NAMES, log_config(&cfg)),
            cfg,
            fd,
            fd_scratch: Vec::new(),
            suspected: BTreeSet::new(),
            flow: FlowWindow::new(window),
            next_decide: 0,
            delivered: BTreeMap::new(),
            decision_buffer: BTreeMap::new(),
            own_pending: BTreeMap::new(),
            pool: BTreeMap::new(),
            instances: BTreeMap::new(),
            last_progress: VTime::ZERO,
            gap_limiter: PeerRateLimiter::new(),
            highest_seen_instance: 0,
            last_heartbeat: None,
        }
    }

    /// Attaches an application-state hook to the snapshot fold (call
    /// right after [`new`](Self::new)/[`resume`](Self::resume), before
    /// the node processes anything).
    pub fn with_app(mut self, app: Option<Box<dyn AppState>>) -> Self {
        self.log.set_app(app);
        self
    }

    /// Creates a node for a process revived after a crash: the replica
    /// log reloads the persisted vote records, voting fence, snapshot and
    /// reconfiguration history out of `stable` (CT-safety state, see
    /// [`VoteRecord`](crate::msg::VoteRecord)) and announces the rejoin
    /// at start; everything else — the decided tail, delivery logs, the
    /// pool — is rebuilt from peers.
    pub fn resume(cfg: MonoConfig, fd: Box<dyn FailureDetector>, stable: &StableStore) -> Self {
        let log = ReplicaLog::resume(&LOG_NAMES, log_config(&cfg), stable);
        MonoNode {
            log,
            ..MonoNode::new(cfg, fd)
        }
    }

    /// Re-points the failure detector at each configuration the log
    /// activated (whether this node heartbeats at all follows its own
    /// membership).
    fn repoint_fd(&mut self, ctx: &mut NodeCtx<'_>) {
        for (stamp, at) in self.log.take_activated() {
            self.fd
                .set_members(&stamp.members, at, &mut self.fd_scratch);
            ctx.bump("fd.member_updates", 1);
            self.process_fd_events(ctx);
        }
    }

    /// Per-instance state, created on first touch; a revived node seeds
    /// fresh instances from its recovered vote records so its locked
    /// `(round, estimate, ts)` is honoured.
    fn inst_entry(&mut self, instance: u64, now: VTime) -> &mut Inst {
        if !self.instances.contains_key(&instance) {
            let mut inst = Inst::new(now);
            if let Some(rec) = self.log.recovered_vote(instance) {
                inst.round = rec.round;
                inst.estimate = Some(rec.value.clone());
                inst.ts = rec.ts;
            }
            self.instances.insert(instance, inst);
        }
        self.instances.get_mut(&instance).expect("just inserted")
    }

    fn msg_is_new(&self, id: MsgId) -> bool {
        self.delivered
            .get(&id.sender)
            .is_none_or(|log| log.is_new(id.seq))
    }

    /// The coordinator new messages should be routed to right now.
    fn responsible_coordinator(&self, n: usize) -> ProcessId {
        if let Some((k, inst)) = self.instances.iter().next() {
            return self.log.coordinator_of(*k, inst.round, n);
        }
        let members = self.log.members_of(self.next_decide, n);
        // Bounded by one full rotation: a learner must not spin when
        // every member is transiently suspected.
        let mut r = 0;
        while r < members.len() && self.suspected.contains(&members[r % members.len()]) {
            r += 1;
        }
        members[r % members.len()]
    }

    /// True while a proposal is outstanding somewhere — an ack (and thus
    /// a piggyback opportunity) is imminent.
    fn in_flight(&self) -> bool {
        self.instances.values().any(|i| i.last_proposal.is_some())
    }

    fn pool_batch(&self) -> Batch {
        Batch::normalize(self.pool.values().cloned().collect())
    }

    /// First free consensus slot in the proposal window, or `None` while
    /// the window is full. A slot is busy when it is already decided
    /// (applied or buffered) or carries live instance state; the window
    /// spans `pipeline_depth` slots from the apply cursor.
    fn open_slot(&self) -> Option<u64> {
        let depth = self.cfg.pipeline_depth.max(1);
        if self.instances.len() >= depth {
            return None;
        }
        (self.next_decide..self.next_decide + depth as u64)
            .find(|k| !self.log.is_decided(*k) && !self.instances.contains_key(k))
    }

    /// The pool minus messages already claimed by a live proposal in an
    /// outstanding slot (the pipeline dedup: a message rides at most one
    /// in-flight batch at a time).
    fn fresh_pool_batch(&self) -> Batch {
        let mut claimed: BTreeSet<MsgId> = BTreeSet::new();
        for inst in self.instances.values() {
            if let Some((_, v)) = &inst.last_proposal {
                claimed.extend(v.msgs().iter().map(|m| m.id));
            }
        }
        if claimed.is_empty() {
            return self.pool_batch();
        }
        Batch::normalize(
            self.pool
                .values()
                .filter(|m| !claimed.contains(&m.id))
                .cloned()
                .collect(),
        )
    }

    /// Hands the pool over to `coord` in a standalone `Forward` (used
    /// when no ack is imminent).
    fn flush_pool_to(&mut self, ctx: &mut NodeCtx<'_>, coord: ProcessId) {
        if self.pool.is_empty() || coord == ctx.pid() {
            return;
        }
        let msgs: Vec<AppMsg> = self.pool.values().cloned().collect();
        self.pool.clear();
        ctx.bump("mono.forwards", 1);
        ctx.send_msg(coord, "mono.forward", &MonoMsg::Forward { msgs });
    }

    /// Drains the pool for an ack/estimate piggyback (optimization O2).
    fn drain_pool(&mut self) -> Vec<AppMsg> {
        let msgs: Vec<AppMsg> = self.pool.values().cloned().collect();
        self.pool.clear();
        msgs
    }

    /// Bootstraps consensus slots while we hold fresh work and the
    /// proposal window has room (one slot per pass at the seed-faithful
    /// depth 1; up to `pipeline_depth` outstanding slots beyond it).
    fn try_start_instance(&mut self, ctx: &mut NodeCtx<'_>) {
        loop {
            let Some(k) = self.open_slot() else { return };
            if self.pool.is_empty() {
                return;
            }
            let n = ctx.n();
            let me = ctx.pid();
            let now = ctx.now();
            if !self.log.can_vote(k, me) {
                // Learner (or membership at `k` still behind the config
                // fence): never propose. Pending messages reach the
                // members via the forward/diffuse routing instead.
                ctx.bump("mono.config_fence_drops", 1);
                return;
            }
            let members = self.log.members_of(k, n);
            if members[0] != me {
                // Instance registered so round rotation can engage; if
                // its coordinator is already suspected, rotate now. No
                // batch is needed on this path — keep it cheap, it runs
                // on every non-coordinator message arrival.
                let inst = self.inst_entry(k, now);
                let round = inst.round;
                if self
                    .suspected
                    .contains(&members[round as usize % members.len()])
                {
                    self.advance_round(ctx, k);
                }
                return;
            }
            let fresh = self.fresh_pool_batch();
            if fresh.is_empty() {
                return; // everything pending already rides a live slot
            }
            let inst = self.inst_entry(k, now);
            if inst.round == 0 && inst.proposal_sent_round.is_none() {
                // A lock recovered from stable storage pins the proposal
                // value (re-proposing anything else in the same round
                // could split the tag-decide receivers); otherwise
                // propose the fresh (unclaimed) pool.
                let locked = inst.estimate.clone();
                let batch = locked.unwrap_or(fresh);
                let inst = self.instances.get_mut(&k).expect("created above");
                inst.estimate = Some(batch.clone());
                inst.ts = 1;
                inst.last_proposal = Some((0, batch.clone()));
                inst.proposal_sent_round = Some(0);
                inst.acks.insert(me);
                ctx.bump("mono.proposals", 1);
                if k > self.next_decide {
                    ctx.bump("mono.pipelined_proposals", 1);
                }
                ctx.trace_span("mono", k, "proposed", 0);
                self.log.persist_vote(ctx, k, 0, 1, &batch);
                ctx.broadcast_msg(
                    "mono.proposal",
                    &MonoMsg::Step {
                        decision: None,
                        proposal: Some(Proposal {
                            instance: k,
                            round: 0,
                            value: batch,
                        }),
                    },
                );
                self.check_decide(ctx, k);
                // Loop: with depth > 1 another slot may still be open.
            } else {
                // Coordinator, but a recovered later-round lock forbids
                // a round-0 proposal: the instance is registered
                // (above); rotate if its coordinator is suspected.
                let round = inst.round;
                if self
                    .suspected
                    .contains(&members[round as usize % members.len()])
                {
                    self.advance_round(ctx, k);
                }
                return;
            }
        }
    }

    /// Ensures the next instance exists (and is rotated away from a
    /// suspected coordinator) even on processes holding no messages.
    ///
    /// Without this, an idle process never joins the instance, and with
    /// n ≥ 4 the new coordinator cannot gather a majority of estimates —
    /// the modular stack gets the same guarantee from its periodic idle
    /// consensus (§3.3's `t`-timeout).
    fn kick_fresh_instance(&mut self, ctx: &mut NodeCtx<'_>) {
        if !self.instances.is_empty() || self.log.is_decided(self.next_decide) {
            return;
        }
        let n = ctx.n();
        if !self.log.can_vote(self.next_decide, ctx.pid()) {
            // A learner cannot contribute estimates; it waits for the
            // members' decisions instead of joining the instance.
            return;
        }
        let has_work = !self.pool.is_empty() || !self.own_pending.is_empty();
        let coord0_suspected = self
            .suspected
            .contains(&self.log.members_of(self.next_decide, n)[0]);
        if !(has_work || coord0_suspected) {
            return;
        }
        self.try_start_instance(ctx);
        if self.instances.is_empty() {
            // No pool (idle helper): create the placeholder directly so
            // we can contribute estimates to the round change.
            let now = ctx.now();
            self.instances
                .entry(self.next_decide)
                .or_insert_with(|| Inst::new(now));
        }
        let rotate = self.instances.iter().next().and_then(|(k, inst)| {
            let c = self.log.coordinator_of(*k, inst.round, n);
            self.suspected.contains(&c).then_some(*k)
        });
        if let Some(k) = rotate {
            self.advance_round(ctx, k);
        }
    }

    fn check_decide(&mut self, ctx: &mut NodeCtx<'_>, instance: u64) {
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
        self.conclude_as_coordinator(ctx, instance, round, value);
    }

    /// Coordinator decided `instance`: apply locally, then emit the
    /// decision — combined with the next proposal when O1 allows.
    fn conclude_as_coordinator(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        instance: u64,
        round: u32,
        value: Batch,
    ) {
        let n = ctx.n();
        let me = ctx.pid();
        let decision = Decision {
            instance,
            round,
            full: if round == 0 {
                None
            } else {
                Some(value.clone())
            },
        };
        self.record_decision(ctx, instance, value);
        // Apply without the auto-start of the next instance: the next
        // proposal must be assembled *here* so O1 can combine it with
        // the decision we are about to emit.
        self.apply_decisions_core(ctx);

        // Assemble the next proposal if the window has a free slot, we
        // have fresh work and still coordinate (and no recovered
        // later-round lock forbids a round-0 proposal). Cheap gates
        // first; the fresh (dedup) set is only built when they pass.
        let followup = self
            .open_slot()
            .filter(|k1| {
                !self.pool.is_empty()
                    && self.log.can_vote(*k1, me)
                    && self.log.members_of(*k1, n)[0] == me
                    && self.log.recovered_vote(*k1).is_none_or(|r| r.round == 0)
            })
            .map(|k1| (k1, self.fresh_pool_batch()))
            .filter(|(_, fresh)| !fresh.is_empty());
        if let Some((k1, fresh)) = followup {
            let now = ctx.now();
            let locked = self.inst_entry(k1, now).estimate.clone();
            let batch = locked.unwrap_or(fresh);
            let inst = self.instances.get_mut(&k1).expect("created above");
            inst.estimate = Some(batch.clone());
            inst.ts = 1;
            inst.last_proposal = Some((0, batch.clone()));
            inst.proposal_sent_round = Some(0);
            inst.acks.insert(me);
            ctx.bump("mono.proposals", 1);
            ctx.trace_span("mono", k1, "proposed", 0);
            if k1 > self.next_decide {
                // The combined step overlaps an instance still in
                // flight below it: count it as pipeline engagement
                // like the standalone path does.
                ctx.bump("mono.pipelined_proposals", 1);
            }
            self.log.persist_vote(ctx, k1, 0, 1, &batch);
            let proposal = Proposal {
                instance: k1,
                round: 0,
                value: batch,
            };
            if self.cfg.opts.combine_decision_proposal {
                ctx.bump("mono.combined_steps", 1);
                ctx.broadcast_msg(
                    "mono.step",
                    &MonoMsg::Step {
                        decision: Some(decision),
                        proposal: Some(proposal),
                    },
                );
            } else {
                ctx.broadcast_msg(
                    "mono.decision",
                    &MonoMsg::Step {
                        decision: Some(decision),
                        proposal: None,
                    },
                );
                ctx.broadcast_msg(
                    "mono.proposal",
                    &MonoMsg::Step {
                        decision: None,
                        proposal: Some(proposal),
                    },
                );
            }
            self.check_decide(ctx, k1);
        } else {
            ctx.broadcast_msg(
                "mono.decision",
                &MonoMsg::Step {
                    decision: Some(decision),
                    proposal: None,
                },
            );
        }
        // With a window deeper than one, the combined Step fills only
        // one slot — standalone proposals may still top the window up.
        if self.cfg.pipeline_depth > 1 {
            self.try_start_instance(ctx);
        }
    }

    /// Records a decision in the replica log and buffers it for in-order
    /// application. Keyed on the replay watermark, so a revived node
    /// re-buffers the decided prefix learned via state transfer even
    /// though its voting fence already covers it.
    fn record_decision(&mut self, ctx: &mut NodeCtx<'_>, instance: u64, value: Batch) {
        if self.log.is_replayed(instance) {
            return;
        }
        ctx.trace_span("mono", instance, "decided", 0);
        self.log.record(ctx, instance, &value);
        self.repoint_fd(ctx);
        self.decision_buffer.insert(instance, value);
    }

    fn apply_decisions(&mut self, ctx: &mut NodeCtx<'_>) {
        self.apply_decisions_core(ctx);
        // With O2, messages that were waiting for an ack to ride must not
        // starve when the pipeline drains.
        if self.cfg.opts.piggyback_on_acks && !self.in_flight() && !self.pool.is_empty() {
            let coord = self.responsible_coordinator(ctx.n());
            if coord != ctx.pid() {
                self.flush_pool_to(ctx, coord);
            }
        }
        self.try_start_instance(ctx);
    }

    fn apply_decisions_core(&mut self, ctx: &mut NodeCtx<'_>) {
        let me = ctx.pid();
        while let Some(batch) = self.decision_buffer.remove(&self.next_decide) {
            let k = self.next_decide;
            let mut own_delivered = 0;
            // By reference: the same decided batch is shared (Arc) with
            // the decision cache and the snapshot fold — don't copy it
            // just to read ids and payload sizes.
            for m in batch.msgs() {
                if !self.msg_is_new(m.id) {
                    continue;
                }
                self.delivered
                    .entry(m.id.sender)
                    .or_default()
                    .complete(m.id.seq);
                self.pool.remove(&m.id);
                if m.id.sender == me {
                    self.own_pending.remove(&m.id);
                    own_delivered += 1;
                }
                ctx.deliver(m.id, m.payload.len() as u32);
                ctx.bump("abcast.delivered", 1);
            }
            ctx.bump("consensus.decided", 1);
            ctx.trace_span("mono", k, "applied", batch.msgs().len() as u64);
            self.instances.remove(&k);
            self.next_decide += 1;
            self.last_progress = ctx.now();
            if self.flow.release(own_delivered) {
                ctx.app_ready();
            }
        }
    }

    /// Handles a decision. `followup` controls whether pipeline
    /// continuation (pool flush / next-instance start) runs here: it must
    /// be suppressed while the proposal half of a combined Step is still
    /// unprocessed, otherwise the transiently-empty pipeline triggers a
    /// spurious standalone `Forward` on every instance.
    fn handle_decision(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        from: ProcessId,
        dec: Decision,
        followup: bool,
    ) {
        // Keyed on the replay log (not the voting fence) so a revived
        // node still absorbs decisions for instances it voted in before
        // crashing.
        if self.log.is_replayed(dec.instance) {
            return;
        }
        // O3 disabled: emulate the reliable-broadcast relay pattern for
        // decisions (first receipt at a relay re-broadcasts).
        if !self.cfg.opts.implicit_decision_acks {
            let n = ctx.n();
            let origin = self.log.coordinator_of(dec.instance, dec.round, n);
            if relay_set(origin, n).any(|p| p == ctx.pid()) {
                ctx.bump("mono.decision_relays", 1);
                ctx.broadcast_msg(
                    "mono.decision_relay",
                    &MonoMsg::Step {
                        decision: Some(dec.clone()),
                        proposal: None,
                    },
                );
            }
        }
        match dec.full {
            Some(value) => {
                self.highest_seen_instance = self.highest_seen_instance.max(dec.instance);
                self.record_decision(ctx, dec.instance, value);
                if followup {
                    self.apply_decisions(ctx);
                } else {
                    self.apply_decisions_core(ctx);
                }
                // Chained catch-up: a recovered decision that still
                // leaves us behind pulls the next batch promptly, so a
                // healed process recovers at near round-trip pace
                // instead of one instance per progress-timeout. A short
                // per-peer rate limit keeps the batch's several replies
                // from each re-requesting the same range.
                let now = ctx.now();
                if self.highest_seen() > self.expected_frontier()
                    && !self.log.is_decided(self.next_decide)
                    && self.gap_limiter.allow(from, now, VDur::millis(5))
                {
                    let hi = self.highest_seen();
                    self.request_gap_batch(ctx, from, hi);
                }
            }
            None => {
                let now = ctx.now();
                let inst = self.inst_entry(dec.instance, now);
                match &inst.last_proposal {
                    Some((r, v)) if *r == dec.round => {
                        let value = v.clone();
                        self.record_decision(ctx, dec.instance, value);
                        if followup {
                            self.apply_decisions(ctx);
                        } else {
                            self.apply_decisions_core(ctx);
                        }
                    }
                    _ => {
                        inst.pending_tag = Some(dec.round);
                        ctx.bump("mono.tag_misses", 1);
                        let req = MonoMsg::DecisionRequest {
                            instance: dec.instance,
                        };
                        ctx.send_msg(from, "mono.decision_request", &req);
                    }
                }
            }
        }
    }

    /// Highest instance seen in any peer message or advertised as a
    /// transfer frontier — when it runs ahead of `next_decide`, decisions
    /// were missed (partition, loss) and gap recovery engages.
    fn highest_seen(&self) -> u64 {
        self.highest_seen_instance.max(self.log.rejoin_target())
    }

    /// Highest instance that can legitimately be in flight while our
    /// apply cursor sits at `next_decide`: anything seen beyond it means
    /// decisions were missed (the α = 1 frontier is `next_decide`
    /// itself).
    fn expected_frontier(&self) -> u64 {
        self.next_decide + self.cfg.pipeline_depth.max(1) as u64 - 1
    }

    fn maybe_request_gap(&mut self, ctx: &mut NodeCtx<'_>, from: ProcessId, seen_instance: u64) {
        self.highest_seen_instance = self.highest_seen_instance.max(seen_instance);
        if seen_instance <= self.expected_frontier() || self.log.is_decided(self.next_decide) {
            return;
        }
        // Rate limited per peer: throttling catch-up toward one lagging
        // peer must not suppress catch-up toward another.
        let now = ctx.now();
        if !self.gap_limiter.allow(from, now, VDur::millis(50)) {
            return;
        }
        self.request_gap_batch(ctx, from, seen_instance);
    }

    /// Pulls a bounded batch of missing decisions starting at
    /// `next_decide` from `from`.
    fn request_gap_batch(&mut self, ctx: &mut NodeCtx<'_>, from: ProcessId, seen_instance: u64) {
        const MAX_BATCH: u64 = 8;
        let hi = seen_instance.min(self.next_decide + MAX_BATCH);
        for instance in self.next_decide..hi {
            if !self.log.is_decided(instance) {
                ctx.bump("mono.gap_requests", 1);
                ctx.trace_span("mono", instance, "gap_pull", u64::from(from.0));
                let req = MonoMsg::DecisionRequest { instance };
                ctx.send_msg(from, "mono.decision_request", &req);
            }
        }
    }

    fn handle_proposal(&mut self, ctx: &mut NodeCtx<'_>, from: ProcessId, p: Proposal) {
        // The sender check only applies once the membership at this
        // instance is certain: behind the config fence the rotation is
        // still provisional, and rejecting would drop a legitimate
        // proposal from a configuration we have not learned yet.
        let certain = self.log.config_certain(p.instance);
        if certain && self.log.coordinator_of(p.instance, p.round, ctx.n()) != from {
            ctx.bump("mono.bogus_proposals", 1);
            return; // only the round's coordinator may propose
        }
        self.maybe_request_gap(ctx, from, p.instance);
        if self.log.is_decided(p.instance) {
            if let Some(v) = self.log.decision(p.instance) {
                let msg = decision_full(p.instance, p.round, v.clone());
                ctx.send_msg(from, "mono.decision_full", &msg);
            }
            return;
        }
        let votable = certain && self.log.can_vote(p.instance, ctx.pid());
        let now = ctx.now();
        let inst = self.inst_entry(p.instance, now);
        if p.round < inst.round {
            return;
        }
        if p.round > inst.round {
            inst.round = p.round;
            inst.round_entered = now;
            inst.acks.clear();
        }
        // Even a non-voting learner records the proposal so a later
        // tag-only decision resolves locally.
        inst.last_proposal = Some((p.round, p.value.clone()));
        let pending_tag_hit = inst.pending_tag == Some(p.round);
        if votable {
            inst.estimate = Some(p.value.clone());
            inst.ts = p.round + 1;
            // The vote is made durable atomically with the ack so a
            // future incarnation of this process honours the lock.
            self.log
                .persist_vote(ctx, p.instance, p.round, p.round + 1, &p.value);
            ctx.trace_span("mono", p.instance, "voted", u64::from(p.round));
            let msgs = if self.cfg.opts.piggyback_on_acks {
                self.drain_pool()
            } else {
                Vec::new()
            };
            let ack = MonoMsg::AckDiff {
                instance: p.instance,
                round: p.round,
                msgs,
            };
            ctx.send_msg(from, "mono.ack", &ack);
        } else {
            ctx.bump("mono.config_fence_drops", 1);
        }
        if pending_tag_hit {
            self.record_decision(ctx, p.instance, p.value);
            self.apply_decisions(ctx);
        }
    }

    fn handle_ack(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        from: ProcessId,
        instance: u64,
        round: u32,
        msgs: Vec<AppMsg>,
    ) {
        for m in msgs {
            if self.msg_is_new(m.id) {
                self.pool.insert(m.id, m);
            }
        }
        if self.log.is_decided(instance) {
            self.try_start_instance(ctx);
            return;
        }
        let Some(inst) = self.instances.get_mut(&instance) else {
            self.try_start_instance(ctx);
            return;
        };
        if inst.round != round || inst.proposal_sent_round != Some(round) {
            return;
        }
        inst.acks.insert(from);
        self.check_decide(ctx, instance);
    }

    fn handle_forward(&mut self, ctx: &mut NodeCtx<'_>, msgs: Vec<AppMsg>) {
        for m in msgs {
            if self.msg_is_new(m.id) {
                self.pool.insert(m.id, m);
            }
        }
        self.try_start_instance(ctx);
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_estimate(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        from: ProcessId,
        instance: u64,
        round: u32,
        ts: u32,
        value: Batch,
        msgs: Vec<AppMsg>,
    ) {
        for m in msgs {
            if self.msg_is_new(m.id) {
                self.pool.insert(m.id, m);
            }
        }
        self.maybe_request_gap(ctx, from, instance);
        if self.log.is_decided(instance) {
            if let Some(v) = self.log.decision(instance) {
                let msg = decision_full(instance, round, v.clone());
                ctx.send_msg(from, "mono.decision_full", &msg);
            }
            self.try_start_instance(ctx);
            return;
        }
        let n = ctx.n();
        let me = ctx.pid();
        if self.log.coordinator_of(instance, round, n) != me {
            return;
        }
        let now = ctx.now();
        let inst = self.inst_entry(instance, now);
        if round < inst.round {
            return;
        }
        let keep = match inst.estimates.get(&from) {
            Some((r, _, _)) => *r < round,
            None => true,
        };
        if keep {
            inst.estimates.insert(from, (round, value, ts));
        }
        if round > inst.round {
            inst.round = round;
            inst.round_entered = now;
            inst.acks.clear();
        }
        // Our own estimate joins the collection (initial = pool batch,
        // built only when actually needed).
        if inst.round == round && !inst.estimates.contains_key(&me) {
            let locked = inst.estimate.clone();
            let own_ts = inst.ts;
            let own = locked.unwrap_or_else(|| self.pool_batch());
            let inst = self.instances.get_mut(&instance).expect("created above");
            inst.estimates.insert(me, (round, own, own_ts));
        }
        self.try_propose_from_estimates(ctx, instance);
    }

    fn try_propose_from_estimates(&mut self, ctx: &mut NodeCtx<'_>, instance: u64) {
        let n = ctx.n();
        let me = ctx.pid();
        if !self.log.can_vote(instance, me) {
            return;
        }
        let members = self.log.members_of(instance, n);
        let majority = members.len() / 2 + 1;
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
        let mut candidates: Vec<(&ProcessId, &(u32, Batch, u32))> = inst
            .estimates
            .iter()
            .filter(|(_, (r, _, _))| *r == round)
            .collect();
        if candidates.len() < majority {
            return;
        }
        candidates.sort_by_key(|(pid, (_, _, ts))| (std::cmp::Reverse(*ts), **pid));
        // A locked estimate (ts > 0) must be adopted verbatim — CT
        // safety. When *nothing* is locked, no earlier round can have
        // decided (any ack quorum would surface here with ts ≥ 1 by
        // quorum intersection), so any initial value is safe: propose
        // the union of the candidates' batches. Picking one candidate
        // by pid used to let an empty estimate beat a tie-losing
        // process's pending messages on every round change, starving
        // them forever.
        let value = if candidates[0].1 .2 == 0 {
            Batch::normalize(
                candidates
                    .iter()
                    .flat_map(|(_, (_, b, _))| b.msgs().to_vec())
                    .collect(),
            )
        } else {
            candidates[0].1 .1.clone()
        };
        inst.estimate = Some(value.clone());
        inst.ts = round + 1;
        inst.last_proposal = Some((round, value.clone()));
        inst.proposal_sent_round = Some(round);
        inst.acks.clear();
        inst.acks.insert(me);
        ctx.bump("mono.proposals", 1);
        ctx.trace_span("mono", instance, "proposed", u64::from(round));
        // Coordinator self-ack: durable before the proposal leaves.
        self.log
            .persist_vote(ctx, instance, round, round + 1, &value);
        ctx.broadcast_msg(
            "mono.proposal",
            &MonoMsg::Step {
                decision: None,
                proposal: Some(Proposal {
                    instance,
                    round,
                    value,
                }),
            },
        );
        self.check_decide(ctx, instance);
    }

    fn advance_round(&mut self, ctx: &mut NodeCtx<'_>, instance: u64) {
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
        ctx.bump("mono.round_changes", 1);
        ctx.trace_span("mono", instance, "round_change", u64::from(round));
        if !votable {
            // Learners (and processes whose membership at `instance` is
            // still uncertain) track rounds but never vote: no estimate
            // goes out, no proposal is made.
            ctx.bump("mono.config_fence_drops", 1);
            return;
        }
        let coord = coord_of(round);
        if coord == me {
            let estimate = inst
                .estimate
                .clone()
                .unwrap_or_else(|| Batch::normalize(self.pool.values().cloned().collect()));
            let ts = inst.ts;
            inst.estimates.insert(me, (round, estimate, ts));
            self.try_propose_from_estimates(ctx, instance);
            // Still short of a majority: solicit estimates instead of
            // waiting for idle processes' periodic kicks.
            let short = self
                .instances
                .get(&instance)
                .is_some_and(|i| i.proposal_sent_round != Some(round));
            if short {
                ctx.bump("mono.estimate_requests", 1);
                ctx.broadcast_msg(
                    "mono.estimate_request",
                    &MonoMsg::EstimateRequest { instance, round },
                );
            }
        } else {
            self.send_estimate(ctx, instance, round);
        }
    }

    /// Sends this process's estimate for `(instance, round)` to the
    /// round's coordinator, piggybacking undelivered own messages — the
    /// re-routing of §4.2 ("if the coordinator changes, m is again
    /// piggybacked on the estimate sent to the new coordinator").
    fn send_estimate(&mut self, ctx: &mut NodeCtx<'_>, instance: u64, round: u32) {
        let n = ctx.n();
        let coord = self.log.coordinator_of(instance, round, n);
        if coord == ctx.pid() {
            return;
        }
        if !self.log.can_vote(instance, ctx.pid()) {
            ctx.bump("mono.config_fence_drops", 1);
            return;
        }
        let Some(inst) = self.instances.get(&instance) else {
            return;
        };
        let estimate = inst
            .estimate
            .clone()
            .unwrap_or_else(|| Batch::normalize(self.pool.values().cloned().collect()));
        let ts = inst.ts;
        let msgs = if self.cfg.opts.piggyback_on_acks {
            for m in self.own_pending.values() {
                self.pool.remove(&m.id);
            }
            self.own_pending.values().cloned().collect()
        } else {
            Vec::new()
        };
        let msg = MonoMsg::Estimate {
            instance,
            round,
            ts,
            value: estimate,
            msgs,
        };
        ctx.send_msg(coord, "mono.estimate", &msg);
    }

    fn process_fd_events(&mut self, ctx: &mut NodeCtx<'_>) {
        let events = std::mem::take(&mut self.fd_scratch);
        for ev in &events {
            match ev {
                FdEvent::Suspect(p) => {
                    ctx.bump("fd.suspicions", 1);
                    self.suspected.insert(*p);
                    // Own messages handed to the suspect may be lost with
                    // it: make them proposable again (they are re-routed
                    // on the next estimate/ack/forward).
                    for m in self.own_pending.values() {
                        self.pool.entry(m.id).or_insert_with(|| m.clone());
                    }
                    let n = ctx.n();
                    let affected: Vec<u64> = self
                        .instances
                        .iter()
                        .filter(|(k, inst)| self.log.coordinator_of(**k, inst.round, n) == *p)
                        .map(|(k, _)| *k)
                        .collect();
                    for k in affected {
                        self.advance_round(ctx, k);
                    }
                    // Join/advance the fresh instance so the new
                    // coordinator can reach an estimate majority even if
                    // we personally hold no messages.
                    self.kick_fresh_instance(ctx);
                }
                FdEvent::Restore(p) => {
                    ctx.bump("fd.restores", 1);
                    self.suspected.remove(p);
                }
            }
        }
        self.fd_scratch = events;
        self.fd_scratch.clear();
    }

    /// Installs a snapshot the log accepted (see
    /// [`ReplicaLog::install_snapshot`]): fast-forwards the apply cursor, seeds
    /// duplicate suppression with the compacted prefix's delivered sets
    /// (compacted messages must never re-deliver), and drops state the
    /// snapshot made moot.
    fn apply_snapshot(&mut self, ctx: &mut NodeCtx<'_>, snap: Snapshot) {
        let next = snap.last_included + 1;
        if !self.log.install_snapshot(ctx, snap) {
            return;
        }
        if next > self.next_decide {
            self.next_decide = next;
        }
        let snap = self.log.snapshot().expect("just installed");
        for s in &snap.delivered {
            let log = self.delivered.entry(s.sender).or_default();
            log.advance_to(s.watermark);
            for &seq in &s.above {
                log.complete(seq);
            }
        }
        self.decision_buffer = self.decision_buffer.split_off(&next);
        self.instances = self.instances.split_off(&next);
        self.repoint_fd(ctx);
        self.highest_seen_instance = self.highest_seen_instance.max(next - 1);
        // Messages the snapshot already delivered leave the pool; own
        // messages among them release their flow-control slots.
        let log = &self.log;
        self.pool.retain(|id, _| !log.is_delivered(*id));
        let own_before = self.own_pending.len();
        self.own_pending.retain(|id, _| !log.is_delivered(*id));
        if self.flow.release(own_before - self.own_pending.len()) {
            ctx.app_ready();
        }
        // Buffered decisions past the snapshot may be contiguous now.
        self.apply_decisions(ctx);
    }

    /// Absorbs a bulk state transfer, then keeps pulling from the same
    /// peer at round-trip pace while still behind its frontier.
    fn absorb_transfer(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        from: ProcessId,
        first: u64,
        values: Vec<Batch>,
    ) {
        for (i, value) in values.into_iter().enumerate() {
            self.record_decision(ctx, first + i as u64, value);
        }
        self.apply_decisions(ctx);
        // Chained catch-up with a short per-peer rate limit.
        if self.log.still_behind(ctx) && self.gap_limiter.allow(from, ctx.now(), VDur::millis(5)) {
            self.log.pull_from(ctx, from);
        }
    }

    fn sweep(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        self.log.retry_rejoin(ctx);
        let stuck: Vec<u64> = self
            .instances
            .iter()
            .filter(|(_, inst)| now.since(inst.round_entered) > self.cfg.progress_timeout)
            .map(|(k, _)| *k)
            .collect();
        for k in stuck {
            let inst = self.instances.get_mut(&k).expect("instance exists");
            if inst.pending_tag.is_some() {
                inst.round_entered = now;
                ctx.bump("mono.request_retries", 1);
                let req = MonoMsg::DecisionRequest { instance: k };
                ctx.broadcast_msg("mono.decision_request", &req);
            } else {
                ctx.bump("mono.progress_rotations", 1);
                self.advance_round(ctx, k);
            }
        }
        // Idle kick: periodic backstop for the same fresh-instance
        // bootstrap (covers suspicions that raced with message arrival).
        if now.since(self.last_progress) > self.cfg.idle_timeout {
            self.kick_fresh_instance(ctx);
        }
    }
}

impl Node for MonoNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        // A revived process restores its persisted snapshot first (the
        // compacted prefix needs no replay), then rejoins.
        if let Some(snap) = self.log.start(ctx) {
            self.apply_snapshot(ctx, snap);
        }
        self.log.rejoin(ctx);
        self.repoint_fd(ctx);
        if let Some(interval) = self.fd.tick_interval() {
            ctx.set_timer(interval, TAG_FD);
        }
        ctx.set_timer(self.cfg.sweep_interval, TAG_SWEEP);
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: ProcessId, bytes: Bytes) {
        let msg = match decode::<MonoMsg>(bytes) {
            Ok(m) => m,
            Err(_) => {
                ctx.bump("mono.garbage", 1);
                return;
            }
        };
        match msg {
            MonoMsg::Step { decision, proposal } => {
                let combined = proposal.is_some();
                if let Some(d) = decision {
                    self.handle_decision(ctx, from, d, !combined);
                }
                if let Some(p) = proposal {
                    self.handle_proposal(ctx, from, p);
                }
            }
            MonoMsg::AckDiff {
                instance,
                round,
                msgs,
            } => self.handle_ack(ctx, from, instance, round, msgs),
            MonoMsg::Forward { msgs } => self.handle_forward(ctx, msgs),
            MonoMsg::Diffuse { msg } => {
                if self.msg_is_new(msg.id) {
                    self.pool.insert(msg.id, msg);
                }
                self.try_start_instance(ctx);
            }
            MonoMsg::Estimate {
                instance,
                round,
                ts,
                value,
                msgs,
            } => self.handle_estimate(ctx, from, instance, round, ts, value, msgs),
            MonoMsg::DecisionRequest { instance } => {
                if let Some(v) = self.log.decision(instance) {
                    let msg = decision_full(instance, 0, v.clone());
                    ctx.send_msg(from, "mono.decision_full", &msg);
                } else {
                    self.log.offer_snapshot(ctx, from, instance);
                }
            }
            MonoMsg::EstimateRequest { instance, round } => {
                // Sanity: only the round's coordinator may solicit (the
                // check needs the membership at `instance` to be certain,
                // like the proposal-sender check).
                if self.log.config_certain(instance)
                    && self.log.coordinator_of(instance, round, ctx.n()) != from
                {
                    ctx.bump("mono.bogus_requests", 1);
                    return;
                }
                if self.log.is_decided(instance) {
                    if let Some(v) = self.log.decision(instance) {
                        let msg = decision_full(instance, round, v.clone());
                        ctx.send_msg(from, "mono.decision_full", &msg);
                    }
                    return;
                }
                // Join the solicited round (rounds only move forward —
                // same safety as receiving a higher-round proposal).
                let now = ctx.now();
                let inst = self.inst_entry(instance, now);
                if round > inst.round {
                    inst.round = round;
                    inst.round_entered = now;
                    inst.acks.clear();
                }
                if round == inst.round {
                    self.send_estimate(ctx, instance, round);
                }
            }
            MonoMsg::Heartbeat => {
                self.fd.on_heartbeat(from, ctx.now(), &mut self.fd_scratch);
                self.process_fd_events(ctx);
            }
            MonoMsg::Recovery(m) => match self.log.on_message(ctx, from, m) {
                Followup::Done => {}
                Followup::Values { first, values } => {
                    self.absorb_transfer(ctx, from, first, values);
                }
                Followup::Snapshot(snap) => {
                    self.apply_snapshot(ctx, *snap);
                    // Chained tail catch-up from the serving peer.
                    self.log.request_tail(ctx, from);
                }
            },
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerId, tag: u64) {
        match tag {
            TAG_FD => {
                // Heartbeats follow the detector's heartbeat cadence,
                // which may be coarser than its polling tick (chaos
                // overlays tick fast to fire suspicion windows promptly).
                if self.fd.sends_heartbeats() {
                    let now = ctx.now();
                    let due = match (self.last_heartbeat, self.fd.heartbeat_interval()) {
                        (Some(last), Some(interval)) => now.since(last) >= interval,
                        _ => true,
                    };
                    if due {
                        self.last_heartbeat = Some(now);
                        ctx.broadcast_msg("fd.heartbeat", &MonoMsg::Heartbeat);
                    }
                }
                self.fd.tick(ctx.now(), &mut self.fd_scratch);
                self.process_fd_events(ctx);
                if let Some(interval) = self.fd.tick_interval() {
                    ctx.set_timer(interval, TAG_FD);
                }
            }
            TAG_SWEEP => {
                self.sweep(ctx);
                ctx.set_timer(self.cfg.sweep_interval, TAG_SWEEP);
            }
            _ => {}
        }
    }

    fn on_request(&mut self, ctx: &mut NodeCtx<'_>, req: AppRequest) -> Admission {
        let AppRequest::Abcast(m) = req;
        if !self.flow.try_acquire() {
            return Admission::Blocked;
        }
        debug_assert_eq!(m.id.sender, ctx.pid(), "abcast of a foreign message");
        self.own_pending.insert(m.id, m.clone());
        ctx.bump("abcast.requests", 1);
        if !self.cfg.opts.piggyback_on_acks {
            // Modular-style dissemination: diffuse to everyone.
            ctx.broadcast_msg("mono.diffuse", &MonoMsg::Diffuse { msg: m.clone() });
            self.pool.insert(m.id, m);
            self.try_start_instance(ctx);
        } else {
            let n = ctx.n();
            let coord = self.responsible_coordinator(n);
            self.pool.insert(m.id, m);
            if coord == ctx.pid() {
                self.try_start_instance(ctx);
            } else if !self.in_flight() {
                // No ack imminent: hand the message over right away.
                self.flush_pool_to(ctx, coord);
            }
            // Otherwise the message rides the next AckDiff (O2).
        }
        Admission::Accepted
    }
}
