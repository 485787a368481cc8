//! Catch-up regression: a restarted process and an added one rejoin a
//! loaded group without stalling it.
//!
//! Both stacks run the `recovery_n3` timeline through `Experiment`:
//! n = 3 at 500 msg/s × 1 KiB; p2 crashes at 1.0 s and restarts at
//! 1.5 s; a log-decided `AddNode(p3)` lands at 4.0 s. The same timeline
//! with the crash shifted to 1.033 s is run too. Each run must be
//! oracle-clean, keep delivering at least 90% of the offered load in
//! the windows [2.5, 3.5) s (after the restart) and [5.5, 6.5) s (after
//! the add), and recover with a bounded number of catch-up pulls.
//!
//! The modular stack once stalled here: every `DecisionFull` reply
//! re-armed a batch of per-instance requests after 5 ms, the saturated
//! coordinator's replies queued far longer than that, and duplicate
//! requests swamped it (about 8 000 pulls, 18–75 msg/s in these
//! windows). One self-clocked range pull in flight bounds that cost.

use fortika::chaos::Scenario;
use fortika::core::workload::Workload;
use fortika::core::{Experiment, RunReport, StackKind};
use fortika::net::ProcessId;
use fortika::sim::VDur;

const OFFERED: f64 = 500.0;
/// Each throughput window must deliver at least this share of the
/// offered load.
const FLOOR: f64 = 0.9;
/// Most catch-up pulls a whole run may send.
const MAX_PULLS: u64 = 500;

fn timeline(crash_ms: u64) -> Scenario {
    Scenario::new()
        .crash(ProcessId(2), VDur::millis(crash_ms))
        .restart(ProcessId(2), VDur::millis(1500))
        .add_node(ProcessId(3), VDur::millis(4000))
}

/// Runs `kind` on the timeline with the measurement window
/// `[warmup, warmup + measure)` seconds.
fn run(kind: StackKind, crash_ms: u64, warmup: f64, measure: f64) -> RunReport {
    let report = Experiment::builder(kind, 3)
        .workload(Workload::constant_rate(OFFERED, 1024))
        .seed(1)
        .warmup_secs(warmup)
        .measure_secs(measure)
        .scenario(timeline(crash_ms))
        .build()
        .run();
    let oracle = report.oracle.as_ref().expect("scenario runs are audited");
    assert!(
        oracle.is_ok(),
        "{} (crash at {crash_ms} ms): oracle violations {:?}",
        kind.label(),
        oracle.violations
    );
    report
}

fn check(kind: StackKind, crash_ms: u64) {
    for start in [2.5, 5.5] {
        let r = run(kind, crash_ms, start, 1.0);
        assert!(
            r.throughput_msgs_per_sec >= FLOOR * OFFERED,
            "{} (crash at {crash_ms} ms): {:.1} msg/s in [{start}, {}) s, floor {}",
            kind.label(),
            r.throughput_msgs_per_sec,
            start + 1.0,
            FLOOR * OFFERED
        );
    }
    // One window over the whole fault timeline counts every pull.
    let r = run(kind, crash_ms, 0.0, 8.0);
    let pulls = r.counters.event("consensus.gap_requests") + r.counters.event("mono.gap_requests");
    assert!(
        pulls <= MAX_PULLS,
        "{} (crash at {crash_ms} ms): {pulls} catch-up pulls, at most {MAX_PULLS}",
        kind.label()
    );
}

#[test]
fn modular_catches_up_without_stalling() {
    check(StackKind::Modular, 1000);
}

#[test]
fn modular_catches_up_without_stalling_shifted_crash() {
    check(StackKind::Modular, 1033);
}

#[test]
fn monolithic_catches_up_without_stalling() {
    check(StackKind::Monolithic, 1000);
}

#[test]
fn monolithic_catches_up_without_stalling_shifted_crash() {
    check(StackKind::Monolithic, 1033);
}
