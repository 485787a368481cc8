//! The replica log: the recovery half both atomic broadcast stacks share.
//!
//! The paper compares the two stacks' normal-case ordering paths (§3.2
//! against O1–O3 of §4). Crash recovery, log compaction, snapshot
//! transfer and reconfiguration lie outside that comparison, so both
//! stacks run this one copy of them. A [`ReplicaLog`] owns:
//!
//! * the **voting fence** (instances this process may no longer vote
//!   in), the **replay watermark** (decisions handed to the stack in this
//!   incarnation) and the **decision cache** it serves peers from;
//! * durable [`VoteRecord`]s: every vote is made durable atomically with
//!   the vote message, and [`ReplicaLog::resume`] replays the records so
//!   a revived process re-enters undecided instances with its locked
//!   `(round, estimate, ts)` intact. Without this the quorum intersection
//!   at the heart of Chandra–Toueg safety breaks. The fence is persisted
//!   too, and the vote records below it are dropped;
//! * the [`SnapshotFold`] of the decided prefix, compacted every
//!   `snapshot_interval` instances into a persisted [`Snapshot`] — the
//!   decision cache then only keeps the tail;
//! * **rejoin catch-up**: the decided values are not persisted, so a
//!   revived process broadcasts a `JoinRequest` for "instance 0" and
//!   peers answer with `StateTransfer`s of up to 16 values, or with the
//!   chunked snapshot when that prefix was compacted. Every replayed
//!   decision is handed to the stack again, so the prefix re-delivers
//!   byte-identically — which the chaos oracle checks across
//!   incarnations;
//! * the [`ConfigTimeline`] of log-decided reconfigurations, registered
//!   in decided order once the contiguous replayed prefix covers them;
//! * the wire bodies of all this ([`RecoveryMsg`]).
//!
//! The log talks to its host through [`LogCtx`], which both
//! [`NodeCtx`] and the framework's module context implement, and sends
//! through the stack's own message enum `M` (so the recovery messages
//! keep each stack's tags and framing). What a log event means for the
//! stack stays with the stack, which runs it after the log call returns:
//! the modular consensus module raises `Decide`, `ConfigActive` and
//! `InstallSnapshot` events; the monolith re-points its failure
//! detector, buffers the decision, and seeds its delivery dedup, pool
//! and flow window. Each stack also keeps its own catch-up *trigger*:
//! [`ReplicaLog::pull_from`] sends one range pull, and when to send it is
//! the stack's business.
//!
//! # Stable-store keys
//!
//! One process runs one stack, whose layers share one stable store;
//! each owner namespaces its keys by the high byte:
//!
//! | High byte | Owner | Key |
//! |---|---|---|
//! | 1 | replica log | vote record of instance `k` (`1 << 56 \| k`) |
//! | 2 | replica log | the voting fence |
//! | 3 | replica log | the latest snapshot |
//! | 4 | replica log | the reconfiguration history |
//! | 5 | rbcast | the broadcast sequence counter |
//! | 6 | abcast | the payload sequence counter |
//!
//! `fortika-lint`'s `stable-key` rule fails the build when two key
//! constants share a high byte.

use std::collections::BTreeMap;
use std::marker::PhantomData;

use bytes::Bytes;
use fortika_sim::{VDur, VTime};

use crate::cluster::{NodeCtx, StableStore};
use crate::config::CostModel;
use crate::id::{MsgId, ProcessId};
use crate::membership::{
    coordinator, decode_reconfigs, encode_reconfigs, parse_reconfig, ConfigChange, ConfigStamp,
    ConfigTimeline,
};
use crate::message::Batch;
use crate::ratelimit::PeerRateLimiter;
use crate::snapshot::{
    chunk_of, stamp_of, AppState, ChunkOutcome, Snapshot, SnapshotDownload, SnapshotFold,
    SnapshotStamp,
};
use crate::watermark::WatermarkSet;
use crate::wire::{decode, encode, Wire, WireError, WireReader, WireWriter};

/// Stable-store key namespace of per-instance vote records.
const STABLE_VOTE_TAG: u64 = 1 << 56;
/// Stable-store key of the voting fence.
const STABLE_FENCE_KEY: u64 = 2 << 56;
/// Stable-store key of the latest log-compaction snapshot.
const STABLE_SNAPSHOT_KEY: u64 = 3 << 56;
/// Stable-store key of the registered reconfiguration history.
const STABLE_CONFIG_KEY: u64 = 4 << 56;

/// Stable-store key of `instance`'s vote record.
fn vote_key(instance: u64) -> u64 {
    debug_assert!(instance < (1 << 56));
    STABLE_VOTE_TAG | instance
}

/// Instances streamed per `StateTransfer` reply.
const MAX_TRANSFER: u64 = 16;
/// Minimum spacing of rejoin re-announcements.
const JOIN_RETRY: VDur = VDur::millis(300);
/// Minimum spacing of snapshot offers toward one lagging peer.
const OFFER_SPACING: VDur = VDur::millis(50);

/// What the replica log needs from its host's handler context.
///
/// Implemented by [`NodeCtx`] (the monolith) and by the framework's
/// module context (the modular consensus module); every method has the
/// meaning of the `NodeCtx` method of the same name. Sends go through
/// the host's framing.
pub trait LogCtx {
    /// Group size `n`.
    fn n(&self) -> usize;
    /// Current virtual time.
    fn now(&self) -> VTime;
    /// The cluster's cost model.
    fn costs(&self) -> &CostModel;
    /// Sends `msg` to `to`, tagged `kind` for traffic accounting.
    fn send_msg(&mut self, to: ProcessId, kind: &'static str, msg: &impl Wire);
    /// Sends `msg` to every other process, in pid order.
    fn broadcast_msg(&mut self, kind: &'static str, msg: &impl Wire);
    /// Writes to the stable store, atomically with the handler.
    fn persist(&mut self, key: u64, value: Bytes);
    /// Deletes a stable-store key.
    fn unpersist(&mut self, key: u64);
    /// Charges durability CPU.
    fn charge_durability(&mut self, cost: VDur);
    /// Reports a materialized or installed snapshot to the harness.
    fn note_snapshot(&mut self, stamp: SnapshotStamp);
    /// Reports an activated configuration version to the harness.
    fn note_config(&mut self, stamp: ConfigStamp);
    /// Increments a protocol counter.
    fn bump(&mut self, name: &'static str, by: u64);
    /// Records a protocol lifecycle marker (free when tracing is off).
    fn trace_span(&mut self, stack: &'static str, instance: u64, phase: &'static str, detail: u64);
}

impl LogCtx for NodeCtx<'_> {
    fn n(&self) -> usize {
        NodeCtx::n(self)
    }
    fn now(&self) -> VTime {
        NodeCtx::now(self)
    }
    fn costs(&self) -> &CostModel {
        NodeCtx::costs(self)
    }
    fn send_msg(&mut self, to: ProcessId, kind: &'static str, msg: &impl Wire) {
        self.send(to, kind, encode(msg));
    }
    fn broadcast_msg(&mut self, kind: &'static str, msg: &impl Wire) {
        self.broadcast(kind, &encode(msg));
    }
    fn persist(&mut self, key: u64, value: Bytes) {
        NodeCtx::persist(self, key, value);
    }
    fn unpersist(&mut self, key: u64) {
        NodeCtx::unpersist(self, key);
    }
    fn charge_durability(&mut self, cost: VDur) {
        NodeCtx::charge_durability(self, cost);
    }
    fn note_snapshot(&mut self, stamp: SnapshotStamp) {
        NodeCtx::note_snapshot(self, stamp);
    }
    fn note_config(&mut self, stamp: ConfigStamp) {
        NodeCtx::note_config(self, stamp);
    }
    fn bump(&mut self, name: &'static str, by: u64) {
        NodeCtx::bump(self, name, by);
    }
    fn trace_span(&mut self, stack: &'static str, instance: u64, phase: &'static str, detail: u64) {
        NodeCtx::trace_span(self, stack, instance, phase, detail);
    }
}

/// The counter, message-kind and trace names one stack's replica log
/// reports under. Each stack writes its table out as a `static` of
/// string literals, which `fortika-lint`'s counter rule reads.
#[derive(Debug)]
pub struct LogNames {
    /// Trace-span stack label.
    pub stack: &'static str,
    /// Message kinds of the [`RecoveryMsg`] variants, in tag order.
    pub kinds: [&'static str; 4],
    /// Reconfigurations registered.
    pub reconfigs: &'static str,
    /// Snapshots materialized.
    pub snapshots: &'static str,
    /// Snapshots installed.
    pub snapshots_installed: &'static str,
    /// Rejoin announcements broadcast.
    pub join_requests: &'static str,
    /// `StateTransfer` replies sent.
    pub state_transfers: &'static str,
    /// Join requests this process could not serve.
    pub join_unservable: &'static str,
    /// Snapshot chunks sent.
    pub snapshot_transfers: &'static str,
    /// Snapshot chunks pulled.
    pub snapshot_pulls: &'static str,
    /// Completed snapshot downloads that failed to decode.
    pub snapshot_garbage: &'static str,
    /// Rejoins completed.
    pub rejoins_completed: &'static str,
}

/// The replica log's share of a stack's configuration; each field has
/// the meaning of the stack config field of the same name.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Decided values kept to serve peers.
    pub decision_cache: usize,
    /// Compaction cadence in instances (`0` disables snapshots).
    pub snapshot_interval: u64,
    /// Initial voter count (`0` = the whole cluster).
    pub initial_members: usize,
    /// Activation offset of log-decided reconfigurations.
    pub reconfig_offset: u64,
    /// Debug-build fault hook: never persist vote records.
    pub skip_vote_persist: bool,
    /// Debug-build fault hook: never register reconfigurations.
    pub skip_config_fence: bool,
}

/// The crash-recovery stable record of one consensus instance: the
/// round this process last voted (acked/adopted) in, the adoption
/// timestamp of its estimate, and the estimate itself.
///
/// Chandra–Toueg safety hinges on a voter carrying its locked
/// `(estimate, ts)` into every later round and never regressing to a
/// lower round; a process revived with amnesia would break exactly that
/// invariant, so this record is written to stable storage atomically
/// with every vote and replayed into the fresh stack on restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteRecord {
    /// Round of the last vote (lower-round proposals are refused).
    pub round: u32,
    /// Adoption timestamp of `value` (round + 1 at ack time).
    pub ts: u32,
    /// The locked estimate.
    pub value: Batch,
}

impl Wire for VoteRecord {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.round);
        w.put_u32(self.ts);
        self.value.encode(w);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(VoteRecord {
            round: r.get_u32()?,
            ts: r.get_u32()?,
            value: Batch::decode(r)?,
        })
    }
}

/// The replica log's messages. Each stack's message enum carries them
/// on four consecutive tags of its own (see [`encode_at`]).
///
/// [`encode_at`]: RecoveryMsg::encode_at
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryMsg {
    /// "My contiguous replayed prefix ends at `watermark`": broadcast as
    /// the rejoin announcement of a (re)started process, and unicast as
    /// the catch-up range pull of any process that is behind. Peers
    /// that are ahead answer with a [`StateTransfer`], or with the
    /// snapshot when `watermark` lies in their compacted prefix.
    ///
    /// [`StateTransfer`]: RecoveryMsg::StateTransfer
    JoinRequest {
        /// First instance the sender is missing.
        watermark: u64,
    },
    /// Bulk catch-up reply: the decided values of the consecutive
    /// instances `from, from+1, …`, plus the sender's own replay
    /// frontier so the puller can keep pulling until it reaches the
    /// live edge.
    StateTransfer {
        /// Instance of `values[0]`.
        from: u64,
        /// Decided values of `from..from + values.len()`.
        values: Vec<Batch>,
        /// The sender's contiguous replayed prefix length.
        frontier: u64,
    },
    /// One chunk of a log-compaction snapshot, serving a joiner whose
    /// gap starts inside the sender's compacted prefix. Chunks are
    /// pulled at round-trip pace via [`SnapshotPull`]; once complete,
    /// the joiner installs the snapshot and resumes log catch-up at
    /// `last_included + 1`.
    ///
    /// [`SnapshotPull`]: RecoveryMsg::SnapshotPull
    SnapshotTransfer {
        /// Highest instance the snapshot covers.
        last_included: u64,
        /// Digest of the snapshot (integrity check across chunks).
        digest: u64,
        /// Total encoded snapshot size in bytes.
        total: u32,
        /// Offset of `chunk` within the encoded snapshot.
        offset: u32,
        /// The chunk bytes.
        chunk: Bytes,
        /// The sender's contiguous replay frontier (catch-up target).
        frontier: u64,
    },
    /// Joiner-side request for the next snapshot chunk.
    SnapshotPull {
        /// Which snapshot is being pulled (its highest instance).
        last_included: u64,
        /// Byte offset of the requested chunk.
        offset: u32,
    },
}

impl RecoveryMsg {
    /// Position of the variant among the four consecutive tags.
    fn index(&self) -> u8 {
        match self {
            RecoveryMsg::JoinRequest { .. } => 0,
            RecoveryMsg::StateTransfer { .. } => 1,
            RecoveryMsg::SnapshotTransfer { .. } => 2,
            RecoveryMsg::SnapshotPull { .. } => 3,
        }
    }

    /// Writes the tag `first_tag + variant index`, then the body.
    pub fn encode_at(&self, first_tag: u8, w: &mut WireWriter) {
        w.put_u8(first_tag + self.index());
        match self {
            RecoveryMsg::JoinRequest { watermark } => w.put_u64(*watermark),
            RecoveryMsg::StateTransfer {
                from,
                values,
                frontier,
            } => {
                w.put_u64(*from);
                w.put_u64(*frontier);
                values.encode(w);
            }
            RecoveryMsg::SnapshotTransfer {
                last_included,
                digest,
                total,
                offset,
                chunk,
                frontier,
            } => {
                w.put_u64(*last_included);
                w.put_u64(*digest);
                w.put_u32(*total);
                w.put_u32(*offset);
                w.put_u64(*frontier);
                chunk.encode(w);
            }
            RecoveryMsg::SnapshotPull {
                last_included,
                offset,
            } => {
                w.put_u64(*last_included);
                w.put_u32(*offset);
            }
        }
    }

    /// Reads the body of the variant `tag` names, given the stack's
    /// first recovery tag.
    ///
    /// # Errors
    ///
    /// [`WireError::InvalidTag`] for a tag outside the four, or the
    /// body's decode error.
    pub fn decode_at(tag: u8, first_tag: u8, r: &mut WireReader) -> Result<Self, WireError> {
        match tag.wrapping_sub(first_tag) {
            0 => Ok(RecoveryMsg::JoinRequest {
                watermark: r.get_u64()?,
            }),
            1 => Ok(RecoveryMsg::StateTransfer {
                from: r.get_u64()?,
                frontier: r.get_u64()?,
                values: Vec::<Batch>::decode(r)?,
            }),
            2 => Ok(RecoveryMsg::SnapshotTransfer {
                last_included: r.get_u64()?,
                digest: r.get_u64()?,
                total: r.get_u32()?,
                offset: r.get_u32()?,
                frontier: r.get_u64()?,
                chunk: Bytes::decode(r)?,
            }),
            3 => Ok(RecoveryMsg::SnapshotPull {
                last_included: r.get_u64()?,
                offset: r.get_u32()?,
            }),
            _ => Err(WireError::InvalidTag(tag)),
        }
    }
}

/// What a recovery message left for the stack to do
/// (see [`ReplicaLog::on_message`]).
#[derive(Debug)]
pub enum Followup {
    /// Nothing: the log handled the message.
    Done,
    /// Decided values of the instances `first, first + 1, …`: the stack
    /// records each one through [`ReplicaLog::record`], then asks
    /// [`ReplicaLog::still_behind`] whether to pull again.
    Values {
        /// Instance of `values[0]`.
        first: u64,
        /// The decided values.
        values: Vec<Batch>,
    },
    /// A completed snapshot download: the stack installs it through
    /// [`ReplicaLog::install_snapshot`], then pulls the log tail from the peer
    /// that served it.
    Snapshot(Box<Snapshot>),
}

/// The recovery state machine both stacks share (see the
/// [module docs](self)). `M` is the stack's message enum, which carries
/// [`RecoveryMsg`] on its own tags.
pub struct ReplicaLog<M> {
    cfg: LogConfig,
    names: &'static LogNames,
    /// Instances this process may no longer vote in. After a restart it
    /// is preloaded from the persisted fence, so it can run *ahead* of
    /// `replayed`.
    fence: WatermarkSet,
    /// Instances whose decision was handed to the stack in this
    /// incarnation. Always starts at 0, so a revived process replays the
    /// whole decided prefix.
    replayed: WatermarkSet,
    decisions: BTreeMap<u64, Batch>,
    /// Vote records recovered from stable storage (restart only).
    recovered_votes: BTreeMap<u64, VoteRecord>,
    /// Still catching up after a restart (rejoin announcements active).
    rejoining: bool,
    /// Highest replay frontier any transfer advertised.
    rejoin_target: u64,
    /// When the last rejoin announcement or range pull went out.
    last_join: VTime,
    /// Deterministic fold of the contiguous decided prefix (mirrors the
    /// delivery path's dedup exactly).
    fold: SnapshotFold,
    /// Latest materialized or installed snapshot, plus its cached
    /// encoding for chunked serving.
    snapshot: Option<Snapshot>,
    snapshot_bytes: Bytes,
    download: SnapshotDownload,
    /// Rate limiter for snapshot offers answering requests for
    /// compacted decisions.
    offer_limiter: PeerRateLimiter,
    /// Snapshot recovered from stable storage, handed to the stack at
    /// start (restart only).
    restored: Option<Snapshot>,
    /// The versioned configuration history, built at start (the group
    /// size is only known then); `None` answers every quorum question
    /// with the static-group math.
    timeline: Option<ConfigTimeline>,
    /// Reconfiguration commands decided but not yet registered: a change
    /// enters the timeline only once the contiguous replayed prefix
    /// covers its decided instance, so versions are numbered in decided
    /// order on every process even when pipelined instances land out of
    /// order.
    pending_reconfigs: BTreeMap<u64, ConfigChange>,
    /// Reconfiguration history recovered from stable storage (restart
    /// only); registered by [`rejoin`](Self::rejoin).
    recovered_reconfigs: Vec<(u64, ConfigChange)>,
    /// Stamps registered since the stack last took them, with the
    /// instant each was registered.
    activated: Vec<(ConfigStamp, VTime)>,
    wire: PhantomData<fn() -> M>,
}

impl<M: Wire + From<RecoveryMsg>> ReplicaLog<M> {
    /// An empty log (fresh start at time zero).
    pub fn new(names: &'static LogNames, cfg: LogConfig) -> Self {
        ReplicaLog {
            cfg,
            names,
            fence: WatermarkSet::default(),
            replayed: WatermarkSet::default(),
            decisions: BTreeMap::new(),
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
            activated: Vec::new(),
            wire: PhantomData,
        }
    }

    /// The log of a process revived after a crash: reloads the vote
    /// records, voting fence, snapshot and reconfiguration history out
    /// of `stable`, and arms the rejoin announcement.
    pub fn resume(names: &'static LogNames, cfg: LogConfig, stable: &StableStore) -> Self {
        let mut log = ReplicaLog::new(names, cfg);
        log.rejoining = true;
        for (&key, bytes) in stable {
            if key == STABLE_FENCE_KEY {
                if let Ok(w) = decode::<u64>(bytes.clone()) {
                    log.fence.advance_to(w);
                }
            } else if key == STABLE_SNAPSHOT_KEY {
                if let Ok(snap) = decode::<Snapshot>(bytes.clone()) {
                    log.restored = Some(snap);
                }
            } else if key == STABLE_CONFIG_KEY {
                let mut r = WireReader::new(bytes.clone());
                if let Ok(history) = decode_reconfigs(&mut r) {
                    log.recovered_reconfigs = history;
                }
            } else if key >> 56 == STABLE_VOTE_TAG >> 56 {
                if let Ok(rec) = decode::<VoteRecord>(bytes.clone()) {
                    log.recovered_votes.insert(key & !STABLE_VOTE_TAG, rec);
                }
            }
        }
        log
    }

    /// Attaches an application-state hook to the snapshot fold (before
    /// the log records anything).
    pub fn set_app(&mut self, app: Option<Box<dyn AppState>>) {
        self.fold = SnapshotFold::new(app);
    }

    /// Called first from the stack's start handler: builds the config
    /// timeline and hands back the snapshot a revived process restored
    /// from stable storage, which the stack installs before calling
    /// [`rejoin`](Self::rejoin).
    pub fn start(&mut self, ctx: &mut impl LogCtx) -> Option<Snapshot> {
        self.timeline_mut(ctx.n());
        self.restored.take()
    }

    /// On a revived process: re-registers the persisted reconfiguration
    /// history (it may extend past the restored snapshot's; duplicates
    /// are no-ops), then advertises the replay frontier — instance 0
    /// without a snapshot — so peers stream the missing prefix back. A
    /// no-op on a fresh start.
    pub fn rejoin(&mut self, ctx: &mut impl LogCtx) {
        if !self.rejoining {
            return;
        }
        for (d, change) in std::mem::take(&mut self.recovered_reconfigs) {
            self.register_reconfig(ctx, d, change);
        }
        self.announce_join(ctx);
    }

    /// True when this process may no longer vote in `instance`.
    pub fn is_decided(&self, instance: u64) -> bool {
        !self.fence.is_new(instance)
    }

    /// True when this incarnation already recorded `instance`.
    pub fn is_replayed(&self, instance: u64) -> bool {
        !self.replayed.is_new(instance)
    }

    /// The voting fence: every instance below it is decided.
    pub fn fence(&self) -> u64 {
        self.fence.watermark()
    }

    /// The replay watermark: every instance below it was recorded in
    /// this incarnation.
    pub fn replayed(&self) -> u64 {
        self.replayed.watermark()
    }

    /// Highest replay frontier any transfer advertised.
    pub fn rejoin_target(&self) -> u64 {
        self.rejoin_target
    }

    /// True while a snapshot download is making progress.
    pub fn downloading(&self, now: VTime) -> bool {
        self.download.in_progress(now, JOIN_RETRY)
    }

    /// The cached decided value of `instance`, if still held.
    pub fn decision(&self, instance: u64) -> Option<&Batch> {
        self.decisions.get(&instance)
    }

    /// The vote record a revived process recovered for `instance`; the
    /// stack seeds fresh per-instance state from it, so its lock holds.
    pub fn recovered_vote(&self, instance: u64) -> Option<&VoteRecord> {
        self.recovered_votes.get(&instance)
    }

    /// The latest materialized or installed snapshot.
    pub fn snapshot(&self) -> Option<&Snapshot> {
        self.snapshot.as_ref()
    }

    /// True when the folded prefix delivered `id`.
    pub fn is_delivered(&self, id: MsgId) -> bool {
        self.fold.is_delivered(id)
    }

    /// Takes the configuration stamps registered since the last call, in
    /// registration order and with the instant each was registered.
    /// Stacks take them after [`record`], [`install`] and [`rejoin`] and
    /// react in their own way.
    ///
    /// [`record`]: Self::record
    /// [`install`]: Self::install_snapshot
    /// [`rejoin`]: Self::rejoin
    pub fn take_activated(&mut self) -> Vec<(ConfigStamp, VTime)> {
        std::mem::take(&mut self.activated)
    }

    /// The timeline, built on first use (the voter count defaults to
    /// the cluster size; reconfiguration runs set `initial_members`).
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
    pub fn members_of(&self, instance: u64, n: usize) -> Vec<ProcessId> {
        match &self.timeline {
            Some(t) => t.members_at(instance),
            None => ProcessId::all(n).collect(),
        }
    }

    /// The quorum size at `instance`.
    pub fn majority_of(&self, instance: u64, n: usize) -> usize {
        match &self.timeline {
            Some(t) => t.majority_at(instance),
            None => n / 2 + 1,
        }
    }

    /// The coordinator of `round` at `instance` (rotation over the
    /// governing member set).
    pub fn coordinator_of(&self, instance: u64, round: u32, n: usize) -> ProcessId {
        match &self.timeline {
            Some(t) => t.coordinator_at(instance, round),
            None => coordinator(round, n),
        }
    }

    /// True when the membership governing `instance` is fully determined
    /// by the contiguous replayed prefix (the config fence).
    pub fn config_certain(&self, instance: u64) -> bool {
        match &self.timeline {
            Some(t) => t.certain_at(instance, self.replayed.watermark()),
            None => true,
        }
    }

    /// True when `me` may vote (ack / estimate / propose) at `instance`:
    /// its membership there must be certain, and it must be a member.
    /// Non-members keep running as learners — they record proposals,
    /// learn decisions and deliver, but never vote.
    pub fn can_vote(&self, instance: u64, me: ProcessId) -> bool {
        match &self.timeline {
            Some(t) => {
                t.certain_at(instance, self.replayed.watermark()) && t.is_member_at(instance, me)
            }
            None => true,
        }
    }

    /// Writes `instance`'s vote record to stable storage, atomically
    /// with the vote message of the enclosing handler.
    pub fn persist_vote(
        &self,
        ctx: &mut impl LogCtx,
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

    /// Records `value` as the decision of `instance`, unless this
    /// incarnation already recorded it (then returns false): advances
    /// the replay watermark and the voting fence, caches and folds the
    /// value, registers the reconfigurations it completes, and compacts.
    /// Keyed on the replay watermark, so a revived process records the
    /// prefix again even though its fence already covers it.
    pub fn record(&mut self, ctx: &mut impl LogCtx, instance: u64, value: &Batch) -> bool {
        if !self.replayed.is_new(instance) {
            return false;
        }
        self.replayed.complete(instance);
        let fence_before = self.fence.watermark();
        self.fence.complete(instance);
        self.persist_fence(ctx, fence_before);
        self.decisions.insert(instance, value.clone());
        self.fold.absorb(instance, value);
        self.note_reconfigs(ctx, instance, value);
        self.maybe_compact(ctx);
        if self.cfg.snapshot_interval == 0 {
            // No snapshots: bound the cache by blind eviction (the
            // pre-compaction behaviour — evicted prefixes become
            // unservable to joiners).
            while self.decisions.len() > self.cfg.decision_cache {
                self.decisions.pop_first();
            }
        }
        true
    }

    /// Persists the voting fence if it advanced past `fence_before` and
    /// garbage-collects the vote records the advance makes obsolete.
    fn persist_fence(&mut self, ctx: &mut impl LogCtx, fence_before: u64) {
        let fence_after = self.fence.watermark();
        if fence_after > fence_before {
            ctx.persist(STABLE_FENCE_KEY, encode(&fence_after));
            for k in fence_before..fence_after {
                ctx.unpersist(vote_key(k));
            }
        }
    }

    /// Registers the reconfiguration decided at `decided_at`: updates
    /// the timeline, persists the full history atomically with the
    /// enclosing handler, reports the new version's stamp to the
    /// harness, and queues it for the stack ([`take_activated`]).
    ///
    /// [`take_activated`]: Self::take_activated
    fn register_reconfig(&mut self, ctx: &mut impl LogCtx, decided_at: u64, change: ConfigChange) {
        if cfg!(debug_assertions) && self.cfg.skip_config_fence {
            // Injected fault (reconfig oracle acceptance suite): the
            // decided change is ignored, so this process keeps voting
            // with the initial configuration's quorum and coordinator
            // math and never reports a config stamp.
            return;
        }
        let Some(stamp) = self.timeline_mut(ctx.n()).register(decided_at, change) else {
            return; // duplicate (replay / snapshot overlap)
        };
        let history = self.timeline.as_ref().expect("just touched").reconfigs();
        let mut w = WireWriter::new();
        encode_reconfigs(&history, &mut w);
        ctx.persist(STABLE_CONFIG_KEY, w.finish());
        ctx.bump(self.names.reconfigs, 1);
        ctx.trace_span(self.names.stack, decided_at, "config_active", stamp.version);
        let at = ctx.now();
        ctx.note_config(stamp.clone());
        self.activated.push((stamp, at));
    }

    /// Scans a freshly decided batch for reconfiguration commands, then
    /// registers every pending command the contiguous replayed prefix
    /// now covers — in decided-instance order, so configuration
    /// versions are numbered identically on every process regardless of
    /// the order pipelined decisions landed in.
    fn note_reconfigs(&mut self, ctx: &mut impl LogCtx, instance: u64, value: &Batch) {
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
    fn maybe_compact(&mut self, ctx: &mut impl LogCtx) {
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
        ctx.bump(self.names.snapshots, 1);
        ctx.trace_span(self.names.stack, snap.last_included, "snapshot_offer", 0);
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
    fn set_snapshot(&mut self, ctx: &mut impl LogCtx, snap: Snapshot, installed: bool) {
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

    /// Installs a snapshot: fast-forwards the fold, replay watermark and
    /// voting fence to `last_included + 1`, drops the vote records and
    /// pending reconfigurations it made moot, registers the history it
    /// carries (which replaces scanning the compacted prefix), and
    /// adopts it for serving. Returns false, changing nothing, when it
    /// does not extend past what this process already replayed; the
    /// stack then drops its own state below the snapshot.
    pub fn install_snapshot(&mut self, ctx: &mut impl LogCtx, snap: Snapshot) -> bool {
        if !self.fold.install(&snap) {
            return false;
        }
        let next = snap.last_included + 1;
        self.replayed.advance_to(next);
        let fence_before = self.fence.watermark();
        self.fence.advance_to(next);
        self.persist_fence(ctx, fence_before);
        self.recovered_votes = self.recovered_votes.split_off(&next);
        self.pending_reconfigs = self.pending_reconfigs.split_off(&next);
        for &(d, change) in &snap.reconfigs {
            self.register_reconfig(ctx, d, change);
        }
        ctx.bump(self.names.snapshots_installed, 1);
        ctx.trace_span(self.names.stack, snap.last_included, "snapshot_install", 0);
        self.set_snapshot(ctx, snap, true);
        true
    }

    /// Sends `msg` through the stack's message enum.
    fn send(&self, ctx: &mut impl LogCtx, to: ProcessId, msg: RecoveryMsg) {
        let kind = self.names.kinds[msg.index() as usize];
        ctx.send_msg(to, kind, &M::from(msg));
    }

    /// Broadcasts the rejoin announcement: "my replayed prefix ends at
    /// this watermark" (a freshly revived process says instance 0).
    fn announce_join(&mut self, ctx: &mut impl LogCtx) {
        self.last_join = ctx.now();
        ctx.bump(self.names.join_requests, 1);
        let msg = RecoveryMsg::JoinRequest {
            watermark: self.replayed.watermark(),
        };
        ctx.broadcast_msg(self.names.kinds[0], &M::from(msg));
    }

    /// Rejoin liveness, run from the stack's periodic sweep:
    /// re-announces until the replayed prefix covers both the persisted
    /// fence and every frontier a transfer advertised (replies can be
    /// lost to the same faults that caused the crash). A healthy
    /// snapshot download is progress too, so it defers re-announcing.
    pub fn retry_rejoin(&mut self, ctx: &mut impl LogCtx) {
        if !self.rejoining {
            return;
        }
        let now = ctx.now();
        let mine = self.replayed.watermark();
        if mine >= self.fence.watermark() && mine >= self.rejoin_target {
            self.rejoining = false;
        } else if now.since(self.last_join) >= JOIN_RETRY && !self.downloading(now) {
            self.announce_join(ctx);
        }
    }

    /// Sends the catch-up range pull to `to`: a unicast `JoinRequest`
    /// for the decided values from the replay watermark on. A pull is
    /// rejoin progress too, so it defers the next rejoin announcement.
    pub fn pull_from(&mut self, ctx: &mut impl LogCtx, to: ProcessId) {
        self.last_join = ctx.now();
        self.request_tail(ctx, to);
    }

    /// Sends the range pull of [`pull_from`](Self::pull_from) without
    /// counting it as rejoin progress (the monolith chases a completed
    /// snapshot download with it; the download itself was the progress).
    pub fn request_tail(&self, ctx: &mut impl LogCtx, to: ProcessId) {
        let watermark = self.replayed.watermark();
        self.send(ctx, to, RecoveryMsg::JoinRequest { watermark });
    }

    /// Handles one recovery message from `from`: serves join requests
    /// and snapshot pulls, and absorbs snapshot chunks; decided values
    /// and completed snapshots go back to the stack as a [`Followup`].
    pub fn on_message(
        &mut self,
        ctx: &mut impl LogCtx,
        from: ProcessId,
        msg: RecoveryMsg,
    ) -> Followup {
        match msg {
            RecoveryMsg::JoinRequest { watermark } => {
                self.serve_join(ctx, from, watermark);
                Followup::Done
            }
            RecoveryMsg::StateTransfer {
                from: first,
                values,
                frontier,
            } => {
                self.rejoin_target = self.rejoin_target.max(frontier);
                Followup::Values { first, values }
            }
            RecoveryMsg::SnapshotTransfer {
                last_included,
                digest,
                total,
                offset,
                chunk,
                frontier,
            } => self.absorb_snapshot_chunk(
                ctx,
                from,
                last_included,
                digest,
                total,
                offset,
                chunk,
                frontier,
            ),
            RecoveryMsg::SnapshotPull {
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
                Followup::Done
            }
        }
    }

    /// Receiver side: absorbs one snapshot chunk through the download
    /// state machine and pulls the next at round-trip pace; a completed
    /// download goes back to the stack, and counts as rejoin progress.
    #[allow(clippy::too_many_arguments)]
    fn absorb_snapshot_chunk(
        &mut self,
        ctx: &mut impl LogCtx,
        from: ProcessId,
        last_included: u64,
        digest: u64,
        total: u32,
        offset: u32,
        chunk: Bytes,
        frontier: u64,
    ) -> Followup {
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
                ctx.bump(self.names.snapshot_pulls, 1);
                let pull = RecoveryMsg::SnapshotPull {
                    last_included,
                    offset,
                };
                self.send(ctx, from, pull);
            }
            ChunkOutcome::Complete(snap) => {
                self.last_join = now;
                return Followup::Snapshot(snap);
            }
            ChunkOutcome::Ignored => {}
            ChunkOutcome::Corrupt => ctx.bump(self.names.snapshot_garbage, 1),
        }
        Followup::Done
    }

    /// After the stack recorded a [`Followup::Values`]: true while the
    /// replayed prefix is still short of the highest frontier a transfer
    /// advertised. Otherwise it completes a pending rejoin once replay
    /// also reached the pre-crash voting fence.
    pub fn still_behind(&mut self, ctx: &mut impl LogCtx) -> bool {
        let mine = self.replayed.watermark();
        if mine < self.rejoin_target {
            return true;
        }
        if self.rejoining && mine >= self.fence.watermark() {
            self.rejoining = false;
            ctx.bump(self.names.rejoins_completed, 1);
        }
        false
    }

    /// Serves a peer's join request. A gap the decision cache still
    /// covers is served as one `StateTransfer` of up to 16 consecutive
    /// values from `watermark`; a gap whose head was compacted away gets
    /// the first snapshot chunk instead — the log there is gone, the
    /// snapshot replaces it.
    ///
    /// With snapshotting disabled (`snapshot_interval == 0`) a joiner
    /// below the eviction horizon cannot be served at all; the
    /// `join_unservable` counter records it.
    fn serve_join(&self, ctx: &mut impl LogCtx, from: ProcessId, watermark: u64) {
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
            ctx.bump(self.names.state_transfers, 1);
            let transfer = RecoveryMsg::StateTransfer {
                from: watermark,
                values,
                frontier,
            };
            self.send(ctx, from, transfer);
        } else if self
            .snapshot
            .as_ref()
            .is_some_and(|s| watermark <= s.last_included)
        {
            // The joiner pulls the remaining chunks at round-trip pace,
            // then rejoins the log at `last_included + 1`.
            self.serve_snapshot_chunk(ctx, from, 0);
        } else {
            // Not silent: a joiner below our eviction horizon cannot be
            // helped by this process (only possible with snapshots
            // disabled, or for a gap above the snapshot with a hole in
            // the local log).
            ctx.bump(self.names.join_unservable, 1);
        }
    }

    /// Answers a request for the single decided value of `instance` that
    /// the cache no longer holds: when the snapshot covers it, offers
    /// the snapshot, so a *live* laggard (a healed partition minority,
    /// not just a restarted joiner) can leap past the compaction horizon
    /// instead of stalling. Rate-limited per peer: one offer answers a
    /// run of retried requests.
    pub fn offer_snapshot(&mut self, ctx: &mut impl LogCtx, from: ProcessId, instance: u64) {
        if self
            .snapshot
            .as_ref()
            .is_some_and(|s| instance <= s.last_included)
            && self.offer_limiter.allow(from, ctx.now(), OFFER_SPACING)
        {
            self.serve_snapshot_chunk(ctx, from, 0);
        }
    }

    /// Sends one chunk of the serving snapshot to `from`.
    fn serve_snapshot_chunk(&self, ctx: &mut impl LogCtx, from: ProcessId, offset: u32) {
        let Some(snap) = &self.snapshot else {
            return;
        };
        let Some((total, chunk)) = chunk_of(&self.snapshot_bytes, offset) else {
            return;
        };
        ctx.bump(self.names.snapshot_transfers, 1);
        let msg = RecoveryMsg::SnapshotTransfer {
            last_included: snap.last_included,
            digest: snap.digest,
            total,
            offset,
            chunk,
            frontier: self.replayed.watermark(),
        };
        self.send(ctx, from, msg);
    }
}
