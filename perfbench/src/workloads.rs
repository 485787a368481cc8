//! The benchmark's four workloads. Every workload runs both stacks, with
//! constant-rate arrivals whose rates are offered load summed over all
//! senders.

use fortika::chaos::Scenario;
use fortika::core::{CostModel, StackConfig, StackKind, Workload};
use fortika::net::{Dissemination, ProcessId};
use fortika::sim::VDur;

use crate::runner::Phase;

/// Names of every workload, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "paper_n3_16k",
    "fanout_n7_1k",
    "offload_n7_16k",
    "recovery_n3",
];

/// A workload: the runs each stack makes. The first gives latency,
/// outage and recovery; the last gives throughput and the per-instance
/// counts.
pub type Spec = fn(StackKind) -> Vec<Phase>;

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    let spec = match name {
        // The paper's headline point, bound by payload bytes.
        "paper_n3_16k" => |kind| {
            good(
                kind,
                3,
                16384,
                250.0,
                2000.0,
                StackConfig::default(),
                CostModel::default(),
            )
        },
        // Bound by message count: n = 7 and small messages.
        "fanout_n7_1k" => |kind| {
            good(
                kind,
                7,
                1024,
                250.0,
                4000.0,
                StackConfig::default(),
                CostModel::default(),
            )
        },
        // Payloads forwarded once around a ring, consensus on
        // descriptors, priced stable writes.
        "offload_n7_16k" => |kind| {
            let stack = StackConfig {
                window: 16,
                dissemination: Dissemination::Ring,
                ..StackConfig::default()
            };
            let cost = CostModel {
                stable_write: VDur::micros(200),
                ..CostModel::default()
            };
            good(kind, 7, 16384, 250.0, 2000.0, stack, cost)
        },
        // Crash-restart of a non-coordinator, then a log-decided add.
        "recovery_n3" => |kind| {
            let scenario = Scenario::new()
                .crash(ProcessId(2), VDur::millis(RECOVERY_CRASH_MS))
                .restart(ProcessId(2), VDur::millis(RECOVERY_RESTART_MS))
                .add_node(ProcessId(3), VDur::millis(RECOVERY_ADD_MS));
            vec![Phase {
                kind,
                n: 3,
                workload: Workload::constant_rate(500.0, 1024),
                stack: StackConfig::default(),
                cost: CostModel::default(),
                warmup: VDur::millis(500),
                measure: VDur::millis(RECOVERY_END_MS - 500),
                drain: VDur::millis(500),
                scenario,
            }]
        },
        _ => return None,
    };
    Some(spec)
}

/// `recovery_n3` timeline (virtual ms): p2 crashes, p2 restarts, p3 is
/// added, the measurement window ends. The add lands while the modular
/// stack is still catching up from the restart, which is where its
/// stall shows (see README.md, "Recorded recovery findings").
const RECOVERY_CRASH_MS: u64 = 1000;
const RECOVERY_RESTART_MS: u64 = 1500;
const RECOVERY_ADD_MS: u64 = 4000;
const RECOVERY_END_MS: u64 = 12_000;

/// A good-run workload: a light run (latency, cold-start outage and
/// recovery) and a saturating run (throughput), both oracle-audited
/// under an empty scenario.
fn good(
    kind: StackKind,
    n: usize,
    size: usize,
    light: f64,
    saturating: f64,
    stack: StackConfig,
    cost: CostModel,
) -> Vec<Phase> {
    let phase = |rate: f64, warmup: u64, measure: u64| Phase {
        kind,
        n,
        workload: Workload::constant_rate(rate, size),
        stack: stack.clone(),
        cost: cost.clone(),
        warmup: VDur::millis(warmup),
        measure: VDur::millis(measure),
        drain: VDur::millis(500),
        scenario: Scenario::new(),
    };
    vec![phase(light, 500, 5000), phase(saturating, 1000, 3000)]
}
