//! Catch-up pacing and decided-value storage.
//!
//! A laggard pulls missed decisions as ranges, with at most one pull in
//! flight: after a pull it sends no second one until a transfer arrives
//! or 50 ms pass, and each `StateTransfer` it absorbs clocks at most one
//! next pull. The round-0 coordinator keeps its decided value as a view
//! of the proposal frame its peers received, so every process shares
//! one copy of each decided batch.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use fortika_consensus::{ConsensusConfig, ConsensusModule};
use fortika_fd::{FdModule, ScriptedFd};
use fortika_framework::{CompositeStack, Event, EventKind, FrameworkCtx, Microprotocol, ModuleId};
use fortika_net::{
    AppMsg, Batch, Cluster, ClusterConfig, LinkFault, LinkSelector, MsgId, Node, ProcessId,
    TimerId, TraceConfig, TraceData, TraceEvent,
};
use fortika_rbcast::{RbcastConfig, RbcastModule};
use fortika_sim::{VDur, VTime};

type DecisionLog = Rc<RefCell<Vec<(ProcessId, u64, Batch)>>>;

/// Proposes instance `k` at `1 + 5k` ms with this process's own batch
/// and records every decision.
struct Driver {
    proposals: Vec<Batch>,
    decisions: DecisionLog,
}

impl Microprotocol for Driver {
    fn name(&self) -> &'static str {
        "catchup-driver"
    }
    fn module_id(&self) -> ModuleId {
        80
    }
    fn subscriptions(&self) -> &'static [EventKind] {
        &[EventKind::Decide]
    }
    fn on_start(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        for k in 0..self.proposals.len() as u64 {
            ctx.set_timer(VDur::millis(1 + 5 * k), k);
        }
    }
    fn on_timer(&mut self, ctx: &mut FrameworkCtx<'_, '_>, _t: TimerId, tag: u64) {
        let value = self.proposals[tag as usize].clone();
        ctx.raise(Event::Propose {
            instance: tag,
            value,
        });
    }
    fn on_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
        if let Event::Decide { instance, value } = ev {
            self.decisions
                .borrow_mut()
                .push((ctx.pid(), *instance, value.clone()));
        }
    }
}

fn batch_of(p: u16, seq: u64) -> Batch {
    Batch::normalize(vec![AppMsg::new(
        MsgId::new(ProcessId(p), seq),
        Bytes::from(vec![p as u8; 256]),
    )])
}

/// A traced 3-process cluster of [Driver | Consensus | Rbcast | FD]
/// stacks with a silent failure detector; returns it with the decision
/// log and each process's proposals.
fn build(instances: u64) -> (Cluster, DecisionLog, Vec<Vec<Batch>>) {
    let n = 3;
    let log: DecisionLog = Default::default();
    let proposals: Vec<Vec<Batch>> = (0..n)
        .map(|p| (0..instances).map(|k| batch_of(p as u16, k)).collect())
        .collect();
    let nodes: Vec<Box<dyn Node>> = (0..n)
        .map(|p| {
            Box::new(CompositeStack::new(vec![
                Box::new(Driver {
                    proposals: proposals[p].clone(),
                    decisions: log.clone(),
                }),
                Box::new(ConsensusModule::new(ConsensusConfig::default())),
                Box::new(RbcastModule::new(RbcastConfig::default())),
                Box::new(FdModule::new(ScriptedFd::new(
                    n,
                    Vec::new(),
                    VDur::millis(1),
                ))),
            ])) as Box<dyn Node>
        })
        .collect();
    let mut cfg = ClusterConfig::new(n, 11);
    cfg.trace = TraceConfig::with_capacity(1 << 20);
    (Cluster::new(cfg, nodes), log, proposals)
}

fn is_pull(ev: &TraceEvent, pid: u16) -> bool {
    matches!(ev.data, TraceData::Span { pid: p, phase: "gap_pull", .. } if p == pid)
}

fn is_transfer_to(ev: &TraceEvent, pid: u16) -> bool {
    matches!(
        ev.data,
        TraceData::Deliver { dst, kind: "consensus.state_transfer" | "consensus.snapshot_transfer", .. }
            if dst == pid
    )
}

#[test]
fn laggard_keeps_one_pull_in_flight_clocked_by_transfers() {
    let instances = 400;
    let (mut cluster, log, _) = build(instances);
    // p2 misses about 200 instances behind a partition, then pulls them.
    let laggard = ProcessId(2);
    cluster.schedule_fault(
        VTime::ZERO + VDur::millis(100),
        LinkFault::Partition(vec![vec![ProcessId(0), ProcessId(1)], vec![laggard]]),
    );
    cluster.schedule_fault(VTime::ZERO + VDur::millis(1100), LinkFault::Heal);
    // Duplicated replies must not clock extra pulls.
    cluster.schedule_fault(
        VTime::ZERO + VDur::millis(1100),
        LinkFault::Duplicate {
            link: LinkSelector::To(laggard),
            p: 0.5,
        },
    );
    cluster.run_idle(VTime::ZERO + VDur::secs(5));

    let decided_by = |p: ProcessId| log.borrow().iter().filter(|(q, _, _)| *q == p).count();
    assert_eq!(decided_by(ProcessId(0)), instances as usize);
    assert_eq!(decided_by(laggard), instances as usize, "laggard caught up");

    let trace = cluster.take_trace().expect("tracing on");
    assert_eq!(trace.dropped, 0, "trace ring large enough");
    let me = laggard.0;
    let events: Vec<&TraceEvent> = trace
        .events
        .iter()
        .filter(|e| e.data.involves(me))
        .collect();

    // No second pull before a transfer arrives or 50 ms pass, and no
    // pull repeats the previous one's range (the span's instance is the
    // pulled watermark) within 50 ms.
    let retry = VDur::millis(50).as_nanos();
    let mut last_pull: Option<(u64, u64)> = None;
    let mut answered = false;
    let mut pulls = 0;
    for ev in &events {
        if is_transfer_to(ev, me) {
            answered = true;
        } else if let TraceData::Span {
            phase: "gap_pull",
            instance,
            ..
        } = ev.data
        {
            pulls += 1;
            if let Some((at, watermark)) = last_pull {
                let early = ev.at_ns - at < retry;
                assert!(
                    !early || answered,
                    "pull at {} ns, {} ns after an unanswered one",
                    ev.at_ns,
                    ev.at_ns - at
                );
                assert!(
                    !early || instance != watermark,
                    "pull at {} ns repeats range {watermark} after {} ns",
                    ev.at_ns,
                    ev.at_ns - at
                );
            }
            last_pull = Some((ev.at_ns, instance));
            answered = false;
        }
    }

    // A handler's events are recorded in one run: the delivery, its
    // spans, then the handler record. Each transfer's handler sends at
    // most one pull.
    let mut in_transfer: Option<u32> = None;
    let mut clocked = 0;
    for ev in &events {
        if is_transfer_to(ev, me) {
            in_transfer = Some(0);
        } else if is_pull(ev, me) {
            if let Some(count) = in_transfer.as_mut() {
                *count += 1;
                clocked += 1;
                assert!(*count <= 1, "one transfer clocked {count} pulls");
            }
        } else if matches!(ev.data, TraceData::Handler { pid, .. } if pid == me) {
            in_transfer = None;
        }
    }
    // 200 missed instances need many 16-value ranges, chained by the
    // transfers themselves rather than by fresh gap sightings.
    assert!(pulls >= 10, "only {pulls} pulls");
    assert!(
        clocked >= pulls / 2,
        "{clocked} of {pulls} pulls clocked by transfers"
    );
    assert!(pulls <= 40, "{pulls} pulls for about 200 instances");
}

#[test]
fn coordinator_decision_shares_the_proposal_frame() {
    let instances = 20;
    let (mut cluster, log, proposals) = build(instances);
    cluster.run_idle(VTime::ZERO + VDur::secs(1));

    let log = log.borrow();
    let value_at = |p: ProcessId, k: u64| {
        log.iter()
            .find(|(q, i, _)| *q == p && *i == k)
            .map(|(_, _, v)| v.clone())
            .expect("decided")
    };
    for k in 0..instances {
        // p0 coordinates round 0 of every instance: its value wins.
        let mine = value_at(ProcessId(0), k);
        let theirs = value_at(ProcessId(1), k);
        assert_eq!(mine, proposals[0][k as usize]);
        assert_eq!(mine, theirs);
        // The peer decoded its value out of the proposal frame; the
        // coordinator's cached value points at the same bytes.
        let payload = &mine.msgs()[0].payload;
        assert_eq!(
            payload.as_ptr(),
            theirs.msgs()[0].payload.as_ptr(),
            "instance {k}: coordinator holds a second copy"
        );
        assert_ne!(
            payload.as_ptr(),
            proposals[0][k as usize].msgs()[0].payload.as_ptr(),
            "instance {k}: coordinator kept the buffer it proposed"
        );
    }
}
