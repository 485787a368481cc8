//! The replica log on its own, driven through a recording context:
//! join serving from the log tail and from the snapshot, snapshot
//! install against the voting fence, and the restart reload.

use std::collections::BTreeMap;

use bytes::Bytes;
use fortika_net::wire::{decode, encode, Wire, WireError, WireReader, WireWriter};
use fortika_net::{
    reconfig_payload, AppMsg, Batch, ConfigChange, ConfigStamp, CostModel, Followup, LogConfig,
    LogCtx, LogNames, MsgId, ProcessId, RecoveryMsg, ReplicaLog, SnapshotStamp, StableStore,
    VoteRecord,
};
use fortika_sim::{VDur, VTime};

static NAMES: LogNames = LogNames {
    stack: "test",
    kinds: [
        "test.join_request",
        "test.state_transfer",
        "test.snapshot_transfer",
        "test.snapshot_pull",
    ],
    reconfigs: "test.reconfigs",
    snapshots: "test.snapshots",
    snapshots_installed: "test.snapshots_installed",
    join_requests: "test.join_requests",
    state_transfers: "test.state_transfers",
    join_unservable: "test.join_unservable",
    snapshot_transfers: "test.snapshot_transfers",
    snapshot_pulls: "test.snapshot_pulls",
    snapshot_garbage: "test.snapshot_garbage",
    rejoins_completed: "test.rejoins_completed",
};

/// A stack message enum carrying only the recovery tags, from tag 1.
#[derive(Debug, PartialEq)]
struct Msg(RecoveryMsg);

impl From<RecoveryMsg> for Msg {
    fn from(m: RecoveryMsg) -> Self {
        Msg(m)
    }
}

impl Wire for Msg {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode_at(1, w);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        let tag = r.get_u8()?;
        RecoveryMsg::decode_at(tag, 1, r).map(Msg)
    }
}

/// Records everything the log does through its context; the stable
/// store applies persists and deletes as they come.
#[derive(Default)]
struct Ctx {
    costs: CostModel,
    sent: Vec<(ProcessId, &'static str, RecoveryMsg)>,
    broadcasts: Vec<(&'static str, RecoveryMsg)>,
    store: StableStore,
    counters: BTreeMap<&'static str, u64>,
    snapshots: Vec<SnapshotStamp>,
}

impl Ctx {
    fn count(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

fn recovery_of(msg: &impl Wire) -> RecoveryMsg {
    decode::<Msg>(encode(msg)).expect("a recovery message").0
}

impl LogCtx for Ctx {
    fn n(&self) -> usize {
        3
    }
    fn now(&self) -> VTime {
        VTime::ZERO
    }
    fn costs(&self) -> &CostModel {
        &self.costs
    }
    fn send_msg(&mut self, to: ProcessId, kind: &'static str, msg: &impl Wire) {
        self.sent.push((to, kind, recovery_of(msg)));
    }
    fn broadcast_msg(&mut self, kind: &'static str, msg: &impl Wire) -> Bytes {
        self.broadcasts.push((kind, recovery_of(msg)));
        encode(msg)
    }
    fn persist(&mut self, key: u64, value: Bytes) {
        self.store.insert(key, value);
    }
    fn unpersist(&mut self, key: u64) {
        self.store.remove(&key);
    }
    fn charge_durability(&mut self, _: VDur) {}
    fn note_snapshot(&mut self, stamp: SnapshotStamp) {
        self.snapshots.push(stamp);
    }
    fn note_config(&mut self, _: ConfigStamp) {}
    fn bump(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_default() += by;
    }
    fn trace_span(&mut self, _: &'static str, _: u64, _: &'static str, _: u64) {}
}

fn config(snapshot_interval: u64, decision_cache: usize) -> LogConfig {
    LogConfig {
        decision_cache,
        snapshot_interval,
        initial_members: 0,
        reconfig_offset: 8,
        skip_vote_persist: false,
        skip_config_fence: false,
    }
}

/// The decided batch of instance `k`: one message from p1.
fn batch(k: u64) -> Batch {
    Batch::normalize(vec![AppMsg::new(
        MsgId::new(ProcessId(1), k),
        Bytes::from(vec![k as u8; 32]),
    )])
}

/// A proposal frame carrying `vote`: a tag byte, then the vote record,
/// the layout both stacks' proposal messages end in.
fn proposal_frame(vote: &VoteRecord) -> Bytes {
    let mut w = WireWriter::with_capacity(1 + vote.encoded_len());
    w.put_u8(1);
    vote.encode(&mut w);
    w.finish()
}

/// Persists `vote` the way a stack does: as a view of its frame.
fn persist(log: &ReplicaLog<Msg>, ctx: &mut Ctx, vote: &VoteRecord) -> Bytes {
    let frame = proposal_frame(vote);
    log.persist_vote(ctx, &frame, vote.instance, vote.round, &vote.value);
    frame
}

/// A log that recorded instances `0..count`.
fn recorded(cfg: LogConfig, count: u64, ctx: &mut Ctx) -> ReplicaLog<Msg> {
    let mut log = ReplicaLog::new(&NAMES, cfg);
    for k in 0..count {
        assert!(log.record(ctx, k, &batch(k)));
    }
    log
}

fn join(watermark: u64) -> RecoveryMsg {
    RecoveryMsg::JoinRequest { watermark }
}

#[test]
fn serve_join_answers_from_the_log_tail_with_at_most_16_values() {
    let mut ctx = Ctx::default();
    let mut log = recorded(config(256, 1024), 40, &mut ctx);
    assert!(!log.record(&mut ctx, 7, &batch(7)), "a replay duplicate");

    for (watermark, expected) in [(5, 16), (38, 2), (40, 0)] {
        ctx.sent.clear();
        let follow = log.on_message(&mut ctx, ProcessId(1), join(watermark));
        assert!(matches!(follow, Followup::Done));
        if expected == 0 {
            assert!(ctx.sent.is_empty(), "nothing to serve at the frontier");
            continue;
        }
        let [(to, kind, msg)] = &ctx.sent[..] else {
            panic!("one reply expected: {:?}", ctx.sent);
        };
        assert_eq!((*to, *kind), (ProcessId(1), "test.state_transfer"));
        let RecoveryMsg::StateTransfer {
            from,
            values,
            frontier,
        } = msg
        else {
            panic!("a state transfer expected: {msg:?}");
        };
        assert_eq!((*from, *frontier), (watermark, 40));
        let want: Vec<Batch> = (watermark..watermark + expected).map(batch).collect();
        assert_eq!(values, &want);
    }
    assert_eq!(ctx.count("test.state_transfers"), 2);
    assert_eq!(ctx.count("test.join_unservable"), 0);
}

#[test]
fn serve_join_falls_back_to_the_first_snapshot_chunk_when_the_head_was_compacted() {
    let mut ctx = Ctx::default();
    // A 4-deep cache compacts on every overflow: the snapshot ends at
    // the last instance and the cache keeps only the 4 newest values.
    let mut log = recorded(config(8, 4), 20, &mut ctx);
    let snap = log.snapshot().expect("compacted").clone();
    assert_eq!(snap.last_included, 19);
    assert!(log.decision(15).is_none() && log.decision(16).is_some());

    ctx.sent.clear();
    log.on_message(&mut ctx, ProcessId(2), join(3));
    let [(to, kind, msg)] = &ctx.sent[..] else {
        panic!("one reply expected: {:?}", ctx.sent);
    };
    assert_eq!((*to, *kind), (ProcessId(2), "test.snapshot_transfer"));
    let encoded = encode(&snap);
    assert_eq!(
        msg,
        &RecoveryMsg::SnapshotTransfer {
            last_included: 19,
            digest: snap.digest,
            total: encoded.len() as u32,
            offset: 0,
            chunk: encoded.slice(..encoded.len().min(4096)),
            frontier: 20,
        }
    );
    assert_eq!(ctx.count("test.snapshot_transfers"), 1);
    assert_eq!(ctx.count("test.state_transfers"), 0);
}

#[test]
fn serve_join_is_unservable_without_snapshots_once_the_head_was_evicted() {
    let mut ctx = Ctx::default();
    let mut log = recorded(config(0, 4), 10, &mut ctx);
    assert!(log.snapshot().is_none());
    assert!(log.decision(5).is_none() && log.decision(6).is_some());

    log.on_message(&mut ctx, ProcessId(1), join(2));
    assert!(ctx.sent.is_empty(), "{:?}", ctx.sent);
    assert_eq!(ctx.count("test.join_unservable"), 1);

    // The tail the cache still holds is served as usual.
    log.on_message(&mut ctx, ProcessId(1), join(6));
    assert_eq!(ctx.sent.len(), 1);
    assert_eq!(ctx.count("test.join_unservable"), 1);
}

#[test]
fn install_snapshot_advances_the_fence_and_unpersists_the_votes_below_it() {
    let mut peer = Ctx::default();
    let served = recorded(config(10, 1024), 10, &mut peer);
    let snap = served.snapshot().expect("compacted at 10").clone();
    assert_eq!(snap.last_included, 9);

    let mut ctx = Ctx::default();
    let mut log: ReplicaLog<Msg> = ReplicaLog::new(&NAMES, config(10, 1024));
    for k in [0, 4, 9, 12] {
        let vote = VoteRecord {
            instance: k,
            round: 1,
            value: batch(k),
        };
        persist(&log, &mut ctx, &vote);
    }
    let vote_keys = |ctx: &Ctx| -> Vec<u64> {
        let votes = ctx.store.keys().filter(|&&key| key >> 56 == 1);
        votes.map(|key| key & ((1 << 56) - 1)).collect()
    };
    assert_eq!(vote_keys(&ctx), vec![0, 4, 9, 12]);

    assert!(log.install_snapshot(&mut ctx, snap.clone()));
    assert_eq!((log.fence(), log.replayed()), (10, 10));
    assert!(log.is_decided(9) && !log.is_decided(10));
    assert_eq!(vote_keys(&ctx), vec![12], "only the vote above survives");
    assert_eq!(ctx.store.get(&(2 << 56)), Some(&encode(&10u64)));
    assert_eq!(ctx.store.get(&(3 << 56)), Some(&encode(&snap)));
    assert_eq!(ctx.count("test.snapshots_installed"), 1);
    assert!(ctx.snapshots.last().is_some_and(|s| s.installed));

    // An install that does not extend past the replayed prefix is a no-op.
    assert!(!log.install_snapshot(&mut ctx, snap));
    assert_eq!(ctx.count("test.snapshots_installed"), 1);
}

#[test]
fn resume_reads_back_all_four_key_kinds() {
    let mut ctx = Ctx::default();
    let mut log: ReplicaLog<Msg> = ReplicaLog::new(&NAMES, config(8, 1024));
    let vote = VoteRecord {
        instance: 25,
        round: 2,
        value: batch(25),
    };
    persist(&log, &mut ctx, &vote);
    for k in 0..12 {
        let value = if k == 2 {
            let add = reconfig_payload(ConfigChange::Add(ProcessId(3)));
            Batch::normalize(vec![AppMsg::new(MsgId::new(ProcessId(0), 1 << 40), add)])
        } else {
            batch(k)
        };
        log.record(&mut ctx, k, &value);
    }
    assert_eq!(log.take_activated().len(), 1, "the add registered");
    assert_eq!(
        ctx.store.keys().map(|k| k >> 56).collect::<Vec<_>>(),
        vec![1, 2, 3, 4]
    );

    let mut revived: ReplicaLog<Msg> = ReplicaLog::resume(&NAMES, config(8, 1024), &ctx.store);
    // The fence (key 2), with replay starting over at 0.
    assert_eq!((revived.fence(), revived.replayed()), (12, 0));
    // The vote record (key 1).
    assert_eq!(revived.recovered_vote(25), Some(&vote));
    let mut ctx = Ctx::default();
    // The snapshot (key 3), handed back at start for the stack to install.
    let restored = revived.start(&mut ctx).expect("snapshot restored");
    assert_eq!(restored.last_included, 7);
    // The reconfiguration history (key 4), registered by the rejoin,
    // which then announces the replay frontier.
    revived.rejoin(&mut ctx);
    let activated = revived.take_activated();
    assert_eq!(activated.len(), 1);
    assert_eq!(activated[0].0.decided_at, 2);
    assert_eq!(
        activated[0].0.members,
        ProcessId::all(4).collect::<Vec<_>>()
    );
    assert_eq!(ctx.broadcasts, vec![("test.join_request", join(0))]);
    assert_eq!(ctx.count("test.join_requests"), 1);
}

#[test]
fn a_vote_persisted_as_a_frame_tail_resumes_with_its_lock() {
    let mut ctx = Ctx::default();
    let log: ReplicaLog<Msg> = ReplicaLog::new(&NAMES, config(8, 1024));
    let vote = VoteRecord {
        instance: 3,
        round: 4,
        value: batch(3),
    };
    let frame = persist(&log, &mut ctx, &vote);
    // The stored record is the frame minus its tag byte, not a copy.
    let stored = &ctx.store[&(1 << 56 | 3)];
    assert_eq!(stored.len(), frame.len() - 1);
    assert_eq!(stored.as_ptr(), frame[1..].as_ptr(), "the record is a copy");

    let revived: ReplicaLog<Msg> = ReplicaLog::resume(&NAMES, config(8, 1024), &ctx.store);
    let rec = revived.recovered_vote(3).expect("the vote record reloads");
    assert_eq!(rec, &vote);
    assert_eq!(rec.ts(), vote.round + 1);
    assert_eq!(revived.recovered_vote(4), None);
}
