//! Each process keeps one copy of every batch it votes on: the stable
//! vote record of instance `k` is a view of the proposal frame, and so is
//! the value the process decides for `k`. Checked on both stacks for the
//! acceptors and the round-0 coordinator, and on the monolith both with
//! the combined decision-and-proposal step (O1) and without it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use fortika::core::{build_node, StackConfig, StackKind};
use fortika::mono::MonoOptimizations;
use fortika::net::wire::decode;
use fortika::net::{
    Admission, AppMsg, AppRequest, AppState, AppStateFactory, Cluster, ClusterConfig, MsgId, Node,
    ProcessId, VoteRecord,
};
use fortika::sim::{VDur, VTime};

/// Stable-store key namespace of vote records (`1 << 56 | k`).
const VOTE_TAG: u64 = 1 << 56;

type Payloads = Rc<RefCell<BTreeMap<MsgId, Bytes>>>;

/// Keeps every delivered payload as the decided value handed it over.
struct Recorder(Payloads);

impl AppState for Recorder {
    fn apply(&mut self, msg: &AppMsg) {
        self.0.borrow_mut().insert(msg.id, msg.payload.clone());
    }
    fn encode(&self) -> Bytes {
        Bytes::new()
    }
    fn restore(&mut self, _: &Bytes) {}
}

/// What one run saw.
struct Seen {
    /// Vote records checked against the decided value, per process.
    checked: Vec<usize>,
    /// The run's combined decision-and-proposal steps (monolith only).
    combined_steps: u64,
}

/// Runs 3 processes of `kind` under a steady load, samples every vote
/// record while it is in the stable store (they are deleted once the
/// fence passes their instance), and checks that each one shares its
/// payload allocations with what that process decided.
fn run(kind: StackKind, mono_opts: MonoOptimizations) -> Seen {
    let n = 3;
    let payloads: Vec<Payloads> = (0..n).map(|_| Payloads::default()).collect();
    let nodes: Vec<Box<dyn Node>> = ProcessId::all(n)
        .map(|me| {
            let mine = payloads[me.index()].clone();
            let cfg = StackConfig {
                mono_opts,
                app_state: Some(AppStateFactory::new(move || {
                    Box::new(Recorder(mine.clone())) as Box<dyn AppState>
                })),
                ..StackConfig::default()
            };
            build_node(kind, n, me, &cfg)
        })
        .collect();
    let mut cluster = Cluster::new(ClusterConfig::new(n, 7), nodes);
    let mut now = VTime::ZERO + VDur::millis(1);
    cluster.run_idle(now);

    // Records are sampled every 5 µs, well inside one network hop
    // (30 µs plus jitter), so no vote's record is missed. Each process
    // offers a 1 KiB message every 500 µs for 150 ms.
    let step = VDur::micros(5);
    let mut records: BTreeMap<(ProcessId, u64), Bytes> = BTreeMap::new();
    let mut seqs = vec![0u64; n];
    for tick in 0..40_000u64 {
        if tick % 100 == 0 && tick < 30_000 {
            for p in ProcessId::all(n) {
                let msg = AppMsg::new(
                    MsgId::new(p, seqs[p.index()]),
                    Bytes::from(vec![p.0 as u8; 1024]),
                );
                let (adm, _) = cluster.submit(p, AppRequest::Abcast(msg));
                if adm == Admission::Accepted {
                    seqs[p.index()] += 1;
                }
            }
        }
        now += step;
        cluster.run_idle(now);
        for p in ProcessId::all(n) {
            for (key, record) in cluster.stable(p).range(VOTE_TAG..2 * VOTE_TAG) {
                records
                    .entry((p, key & (VOTE_TAG - 1)))
                    .or_insert_with(|| record.clone());
            }
        }
    }
    cluster.run_idle(now + VDur::secs(1));
    assert!(seqs.iter().all(|&s| s > 10), "load admitted: {seqs:?}");

    let mut checked = vec![0; n];
    for ((p, k), record) in &records {
        let vote = decode::<VoteRecord>(record.clone()).expect("a vote record");
        assert_eq!(vote.instance, *k);
        let decided = payloads[p.index()].borrow();
        for msg in vote.value.msgs() {
            let delivered = decided.get(&msg.id).expect("the voted batch was decided");
            assert_eq!(
                msg.payload.as_ptr(),
                delivered.as_ptr(),
                "{kind:?}: {p} holds instance {k}'s vote record as a second copy of its decided value"
            );
        }
        checked[p.index()] += 1;
    }
    Seen {
        checked,
        combined_steps: cluster.counters().event("mono.combined_steps"),
    }
}

/// Every process voted (and had its record checked) in most instances:
/// p1 coordinates round 0, the others are acceptors.
fn assert_all_roles(seen: &Seen) {
    for (p, &count) in seen.checked.iter().enumerate() {
        assert!(
            count >= 20,
            "p{} had only {count} vote records checked",
            p + 1
        );
    }
}

#[test]
fn modular_vote_records_share_the_proposal_frame() {
    let seen = run(StackKind::Modular, MonoOptimizations::all());
    assert_all_roles(&seen);
}

#[test]
fn mono_vote_records_share_the_proposal_frame() {
    // With O1 every coordinator proposal after the first rides behind a
    // decision in one combined step.
    let seen = run(StackKind::Monolithic, MonoOptimizations::all());
    assert_all_roles(&seen);
    assert!(
        seen.combined_steps >= 20,
        "{} combined steps",
        seen.combined_steps
    );

    // Without O1 the coordinator proposes in standalone steps.
    let standalone = MonoOptimizations {
        combine_decision_proposal: false,
        ..MonoOptimizations::all()
    };
    let seen = run(StackKind::Monolithic, standalone);
    assert_all_roles(&seen);
    assert_eq!(seen.combined_steps, 0);
}
