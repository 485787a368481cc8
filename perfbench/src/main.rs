//! The Fortika benchmark: runs one workload on both atomic broadcast
//! stacks and prints its end-to-end metrics (`--trace 0`) or its
//! per-layer metrics (`--trace 1`). See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_n3_16k --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The process exits non-zero when any run violates the delivery
//! oracle, when repeated runs of one seed disagree, when the traced
//! run's modeled results differ from the untraced run's, or when the
//! printed metrics differ from `names.rs`.

#![forbid(unsafe_code)]
// A benchmark exists to measure real time: like the vendored criterion
// shim, this package is exempt from the workspace's wall-clock ban,
// which protects replay determinism in the program itself.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

mod derive;
mod names;
mod runner;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use bytes::Bytes;
use fortika::chaos::{Scenario, ScenarioEvent};
use fortika::core::analysis;
use fortika::core::StackKind;
use fortika::net::{wire, AppMsg, Batch, Counters, MsgId, ProcessId};
use fortika::sim::VDur;

use derive::{median, percentile, time_below, time_to_recover};
use names::{END_TO_END, PER_LAYER};
use runner::{Mode, Outcome, Phase};
use spans::{Layer, LayerTotals};
use workloads::Spec;

/// The stacks, with their metric prefixes.
const STACKS: [(StackKind, &str); 2] = [
    (StackKind::Modular, "modular"),
    (StackKind::Monolithic, "mono"),
];

const MS: u64 = 1_000_000;
/// Outage: trailing window and the share of offered load below which a
/// process counts as out.
const OUTAGE_WINDOW_NS: u64 = 100 * MS;
const OUTAGE_SHARE: f64 = 0.5;
/// Recovery: trailing window, the share of offered load a process must
/// reach, and how long it must hold.
const RECOVERY_WINDOW_NS: u64 = 500 * MS;
const RECOVERY_SHARE: f64 = 0.9;
const RECOVERY_HOLD_NS: u64 = 1000 * MS;
/// Extra set-ups per run, so `setup_s` is a median of many samples.
const SETUP_SAMPLES: usize = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(spec) = workloads::spec(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let budget = Duration::from_secs(args.seconds);
    let report = if args.trace {
        traced(&args.workload, &spec, args.seed, budget)
    } else {
        end_to_end(&spec, args.seed, budget)
    };
    println!("{}", report.json());
    if !report.correct {
        std::process::exit(1);
    }
}

/// What the last line reports.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn new() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Marks the report incorrect and says why on standard error.
    fn fail(&mut self, why: impl AsRef<str>) {
        eprintln!("perfbench: FAIL: {}", why.as_ref());
        self.correct = false;
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            // JSON has no NaN or infinity; a non-finite value already
            // failed the run, so 0 stands in for it.
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Runs every phase of `spec` for `kind` once in `mode`.
fn run_phases(spec: &Spec, kind: StackKind, seed: u64, mode: Mode) -> Vec<(Phase, Outcome)> {
    spec(kind)
        .into_iter()
        .map(|p| {
            let o = runner::run(&p, seed, mode);
            (p, o)
        })
        .collect()
}

/// Checks one run's audit and says what failed.
fn audit(report: &mut Report, kind: StackKind, o: &Outcome) {
    if !o.oracle.is_ok() {
        report.fail(format!(
            "{} run violated the delivery oracle: {:?}",
            kind.label(),
            o.oracle.violations
        ));
    }
    if o.oracle.deliveries != o.deliveries {
        report.fail(format!(
            "{} run: the oracle saw {} deliveries, the harness {}",
            kind.label(),
            o.oracle.deliveries,
            o.deliveries
        ));
    }
}

/// Modeled end-to-end results of one stack.
struct Modeled {
    p50: Option<f64>,
    p99: Option<f64>,
    samples: usize,
    throughput: f64,
    outage_s: f64,
    recovery_s: f64,
}

fn modeled(runs: &[(Phase, Outcome)]) -> Modeled {
    let (first_phase, first) = &runs[0];
    let (_, last) = runs.last().expect("at least one phase");
    let offered = first_phase.workload.offered_load;
    let initial: Vec<_> = first
        .correct
        .iter()
        .filter(|p| p.index() < first_phase.n)
        .map(|p| first.series[p.index()].clone())
        .collect();
    let outage = time_below(
        &initial,
        0,
        first.end_ns,
        OUTAGE_WINDOW_NS,
        OUTAGE_SHARE * offered * OUTAGE_WINDOW_NS as f64 / 1e9,
    );
    let t_ref = last_fault(&first_phase.scenario).as_nanos();
    let recovery = time_to_recover(
        &initial,
        t_ref,
        first.end_ns,
        RECOVERY_WINDOW_NS,
        RECOVERY_SHARE * offered * RECOVERY_WINDOW_NS as f64 / 1e9,
        RECOVERY_HOLD_NS,
    );
    Modeled {
        p50: percentile(&first.latency_ms, 50.0),
        p99: percentile(&first.latency_ms, 99.0),
        samples: first.latency_ms.len(),
        throughput: last.throughput,
        outage_s: outage as f64 / 1e9,
        recovery_s: recovery as f64 / 1e9,
    }
}

/// The last instant a fault (anything but a reconfiguration) touches
/// the run; zero for a good run, whose only disturbance is the cold start.
fn last_fault(scenario: &Scenario) -> VDur {
    scenario
        .events()
        .iter()
        .filter(|ev| {
            !matches!(
                ev,
                ScenarioEvent::AddNode { .. } | ScenarioEvent::RemoveNode { .. }
            )
        })
        .fold(Scenario::new(), |s, ev| s.event(ev.clone()))
        .horizon()
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Repeats the workload until `budget` is spent (at least twice):
/// modeled metrics come from the first repetition and every later one
/// must reproduce them exactly. `setup_s` is a median over many
/// set-ups. `host_us_per_delivery` takes each phase at its fastest
/// repetition: on a shared machine other tenants slow repetitions down
/// (never up) in stretches of seconds, which moves a median by ±20% from
/// run to run and the fastest repetition by much less.
fn end_to_end(spec: &Spec, seed: u64, budget: Duration) -> Report {
    let mut report = Report::new();
    let started = Instant::now();
    let mut first: Vec<Vec<(Phase, Outcome)>> = Vec::new();
    let mut fingerprints: Vec<Vec<u64>> = Vec::new();
    // Per (stack, phase): set-up times, one from each run plus
    // SETUP_SAMPLES set-ups that are dropped unrun.
    let mut setups: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    // Per (stack, phase): host time inside run_until, one per repetition.
    let mut run_ns: BTreeMap<(usize, usize), Vec<u64>> = BTreeMap::new();
    let mut rep = 0;
    while rep < 2 || started.elapsed() < budget {
        for (s, &(kind, _)) in STACKS.iter().enumerate() {
            let runs = run_phases(spec, kind, seed, Mode::Plain);
            for (i, (phase, o)) in runs.iter().enumerate() {
                let samples = setups.entry((s, i)).or_default();
                samples.push(o.setup_ns as f64 / 1e9);
                for _ in 0..SETUP_SAMPLES {
                    samples.push(runner::setup_ns(phase, seed) as f64 / 1e9);
                }
            }
            for (i, (_, o)) in runs.iter().enumerate() {
                run_ns.entry((s, i)).or_default().push(o.run_ns);
            }
            for (_, o) in &runs {
                audit(&mut report, kind, o);
            }
            let print: Vec<u64> = runs
                .iter()
                .flat_map(|(_, o)| o.modeled_fingerprint())
                .collect();
            if rep == 0 {
                fingerprints.push(print);
                first.push(runs);
            } else if fingerprints[s] != print {
                report.fail(format!(
                    "{} repetition {rep} did not replay seed {seed}",
                    kind.label()
                ));
            }
        }
        rep += 1;
    }
    eprintln!(
        "perfbench: {rep} repetitions in {:.1} s",
        started.elapsed().as_secs_f64()
    );

    let setup_s = setups.values().map(|v| median(v)).sum();
    report.push("setup_s", setup_s, "s");
    report.push("peak_rss_mb", peak_rss_mb(), "MB");
    let results: Vec<Modeled> = first.iter().map(|runs| modeled(runs)).collect();
    for (s, &(_, prefix)) in STACKS.iter().enumerate() {
        let m = &results[s];
        for (label, value) in [("p50", m.p50), ("p99", m.p99)] {
            match value {
                Some(v) => report.push(format!("{prefix}.latency_{label}_ms"), v, "ms"),
                None => {
                    report.fail(format!(
                        "{prefix} {label} has too few samples ({})",
                        m.samples
                    ));
                    report.push(format!("{prefix}.latency_{label}_ms"), f64::NAN, "ms");
                }
            }
        }
        report.push(format!("{prefix}.throughput_msgs_s"), m.throughput, "msg/s");
        // Each phase at its fastest; deliveries repeat exactly.
        let fastest_ns: u64 = run_ns
            .range((s, 0)..(s + 1, 0))
            .map(|(_, v)| v.iter().min().expect("at least one repetition"))
            .sum();
        let deliveries: u64 = first[s].iter().map(|(_, o)| o.deliveries).sum();
        report.push(
            format!("{prefix}.host_us_per_delivery"),
            ratio(fastest_ns as f64, deliveries as f64) / 1e3,
            "us",
        );
        report.push(format!("{prefix}.outage_s"), m.outage_s, "s");
        report.push(format!("{prefix}.recovery_s"), m.recovery_s, "s");
        for (_, o) in &first[s] {
            report.attempted += o.admitted;
            report.failed += o.lost;
        }
    }
    // Same order as BENCHMARK.json.
    report
        .metrics
        .sort_by_key(|(name, _, _)| END_TO_END.iter().position(|(n, _)| n == name));
    if let Err(e) = names::check(&report.metrics, &END_TO_END) {
        report.fail(e);
    }
    for (name, value, unit) in &report.metrics {
        // Latency percentiles carry the sample count behind them.
        let samples = STACKS
            .iter()
            .zip(&results)
            .find(|((_, prefix), _)| name.starts_with(&format!("{prefix}.latency_")))
            .map(|(_, m)| format!(" ({} samples)", m.samples))
            .unwrap_or_default();
        println!("{name} {value} {unit}{samples}");
    }
    println!(
        "failed_ratio {} ratio ({} of {} admitted-in-window messages undelivered)",
        ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    );
    report
}

/// Messages ordered per consensus instance in the last (saturating)
/// phase: the paper's M.
fn batch_m(runs: &[(Phase, Outcome)]) -> f64 {
    let (_, last) = runs.last().expect("at least one phase");
    let w = &last.window;
    ratio(
        w.event("abcast.delivered") as f64,
        w.event("consensus.decided") as f64,
    )
}

/// Send counters whose kind starts with `prefix`: (msgs, bytes).
fn sends(counters: &Counters, prefix: &str) -> (u64, u64) {
    counters
        .iter_sends()
        .filter(|(k, _)| k.starts_with(prefix))
        .fold((0, 0), |(m, b), (_, c)| (m + c.msgs, b + c.bytes))
}

/// Host nanoseconds per KiB to encode and decode one consensus batch of
/// `m` messages of `size` bytes with the wire codec.
fn codec_ns_per_kib(m: usize, size: usize) -> (f64, f64) {
    let msgs = (0..m.max(1))
        .map(|i| {
            AppMsg::new(
                MsgId::new(ProcessId(0), i as u64),
                Bytes::from(vec![0xAB; size]),
            )
        })
        .collect();
    let batch = Batch::normalize(msgs);
    let kib = batch.payload_bytes() as f64 / 1024.0;
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        let mut iters = 0u64;
        while iters < 16 || start.elapsed() < Duration::from_millis(20) {
            f();
            iters += 1;
        }
        start.elapsed().as_nanos() as f64 / iters as f64 / kib
    };
    let encoded = wire::encode(&batch);
    let enc = time(&mut || {
        std::hint::black_box(wire::encode(std::hint::black_box(&batch)));
    });
    let dec = time(&mut || {
        let b = wire::decode::<Batch>(std::hint::black_box(encoded.clone())).expect("decodes");
        std::hint::black_box(b);
    });
    (enc, dec)
}

/// One stack's host measurements from one traced repetition.
struct HostSample {
    totals: LayerTotals,
    deliveries: u64,
    check_ns: u64,
    plain_ns: u64,
    timed_ns: u64,
    traced_ns: u64,
    trace_events: u64,
    codec: (f64, f64),
}

impl HostSample {
    fn new(
        plain: &[(Phase, Outcome)],
        timed: &[(Phase, Outcome)],
        traced: &[(Phase, Outcome)],
        batch_m: f64,
        msg_size: usize,
    ) -> Self {
        let mut totals = LayerTotals::default();
        for (_, o) in timed {
            totals.absorb(&spans::totals(&o.spans));
        }
        let sum = |runs: &[(Phase, Outcome)], f: fn(&Outcome) -> u64| {
            runs.iter().map(|(_, o)| f(o)).sum()
        };
        HostSample {
            totals,
            deliveries: sum(timed, |o| o.deliveries),
            check_ns: sum(timed, |o| o.check_ns),
            plain_ns: sum(plain, |o| o.run_ns),
            timed_ns: sum(timed, |o| o.run_ns),
            traced_ns: sum(traced, |o| o.run_ns),
            trace_events: sum(traced, |o| o.trace_events),
            codec: codec_ns_per_kib(batch_m.round() as usize, msg_size),
        }
    }
}

/// Host per-layer values of one stack. The span-derived values all come
/// from the repetition whose spans ran fastest, so they add up to its
/// `run_until` time exactly; the trace overheads compare each mode's
/// fastest repetition, and the codec figures are the fastest timing.
fn host_layers(prefix: &str, samples: &[HostSample]) -> Vec<(String, f64, &'static str)> {
    let fastest = |f: fn(&HostSample) -> f64| samples.iter().map(f).fold(f64::INFINITY, f64::min);
    let best = samples
        .iter()
        .min_by_key(|h| h.totals.root_ns)
        .expect("at least one repetition");
    let t = &best.totals;
    println!(
        "{prefix}.accounting: layer self times sum to {} ns = {} ns inside run_until, over {} deliveries",
        t.self_ns.iter().sum::<u64>(),
        t.root_ns,
        best.deliveries
    );
    let per_delivery = |ns: u64| ratio(ns as f64, best.deliveries as f64);
    let (plain_ns, timed_ns, traced_ns) = (
        fastest(|h| h.plain_ns as f64),
        fastest(|h| h.timed_ns as f64),
        fastest(|h| h.traced_ns as f64),
    );
    let mut out = vec![
        (
            format!("{prefix}.sim.events_per_delivery"),
            ratio(t.kernel_events as f64, best.deliveries as f64),
            "count",
        ),
        (
            format!("{prefix}.sim.kernel_ns_per_event"),
            ratio(t.self_of(Layer::Kernel) as f64, t.kernel_events as f64),
            "ns",
        ),
        (
            format!("{prefix}.sim.run_until_ns_per_delivery"),
            per_delivery(t.root_ns),
            "ns",
        ),
        (
            format!("{prefix}.net.codec_encode_ns_per_kib"),
            fastest(|h| h.codec.0),
            "ns/KiB",
        ),
        (
            format!("{prefix}.net.codec_decode_ns_per_kib"),
            fastest(|h| h.codec.1),
            "ns/KiB",
        ),
        (
            format!("{prefix}.core.driver_self_ns_per_delivery"),
            per_delivery(t.self_of(Layer::Driver)),
            "ns",
        ),
        (
            format!("{prefix}.chaos.oracle_ns_per_delivery"),
            per_delivery(t.self_of(Layer::Chaos)),
            "ns",
        ),
        (
            format!("{prefix}.chaos.check_ns_per_delivery"),
            per_delivery(best.check_ns),
            "ns",
        ),
        (
            format!("{prefix}.bench.tap_self_ns_per_delivery"),
            per_delivery(t.self_of(Layer::Tap) + t.self_of(Layer::Tick)),
            "ns",
        ),
        (
            format!("{prefix}.trace.ns_per_event"),
            ratio(traced_ns - plain_ns, samples[0].trace_events as f64),
            "ns",
        ),
        (
            format!("{prefix}.bench.trace_overhead_ratio"),
            ratio(timed_ns, plain_ns),
            "ratio",
        ),
    ];
    let nodes: &[Layer] = if prefix == "modular" {
        &[
            Layer::Framework,
            Layer::Flow,
            Layer::Abcast,
            Layer::Consensus,
            Layer::Rbcast,
            Layer::Fd,
        ]
    } else {
        &[Layer::Mono]
    };
    for &layer in nodes {
        let name = match layer {
            Layer::Framework => "modular.framework.dispatch_self_ns_per_delivery".to_string(),
            Layer::Mono => "mono.self_ns_per_delivery".to_string(),
            _ => format!("modular.{}.self_ns_per_delivery", layer.name()),
        };
        out.push((name, per_delivery(t.self_of(layer)), "ns"));
    }
    out
}

/// Modeled per-layer values of one stack, from its untraced runs.
fn modeled_layers(
    prefix: &str,
    runs: &[(Phase, Outcome)],
    traced: &[(Phase, Outcome)],
    blocked: (u64, u64),
) -> Vec<(String, f64, &'static str)> {
    let (_, first) = &runs[0];
    let (last_phase, last) = runs.last().expect("at least one phase");
    let n = last_phase.n as f64;
    let w = &last.window;
    let decided = w.event("consensus.decided") as f64 / n;
    let batch_m = batch_m(runs);
    let per_instance = |kinds: &str| {
        let (m, b) = sends(w, kinds);
        (ratio(m as f64, decided), ratio(b as f64 / 1024.0, decided))
    };
    let max = |v: &[f64]| v.iter().cloned().fold(0.0, f64::max);
    let mut out = Vec::new();
    let modular = prefix == "modular";
    let kinds: &[(&str, &str)] = if modular {
        &[
            ("abcast", "abcast."),
            ("consensus", "consensus."),
            ("rbcast", "rb."),
        ]
    } else {
        &[("mono", "mono.")]
    };
    for &(name, kind) in kinds {
        let (msgs, kib) = per_instance(kind);
        out.push((format!("{name}.msgs_per_instance"), msgs, "count"));
        out.push((format!("{name}.kib_per_instance"), kib, "KiB"));
    }
    let all_msgs = ratio(
        w.total_msgs_excluding(|k| k.starts_with("fd.")) as f64,
        decided,
    );
    let closed_form = if modular {
        analysis::modular_messages(last_phase.n, batch_m.round().max(1.0) as usize)
    } else {
        analysis::monolithic_messages(last_phase.n)
    };
    out.push((
        format!("{prefix}.analysis.msgs_ratio"),
        ratio(all_msgs, closed_form as f64),
        "ratio",
    ));
    let stack = if modular { "consensus" } else { "mono" };
    out.push((format!("{stack}.batch_m"), batch_m, "count"));
    out.push((
        format!("{prefix}.cpu.max_utilization"),
        max(&last.cpu_util),
        "ratio",
    ));
    out.push((
        format!("{prefix}.cpu.mean_utilization"),
        last.cpu_util.iter().sum::<f64>() / n,
        "ratio",
    ));
    out.push((
        format!("{prefix}.durability.max_utilization"),
        max(&last.durability_util),
        "ratio",
    ));
    out.push((
        format!("{prefix}.flow.blocked_ratio"),
        ratio(blocked.1 as f64, blocked.0 as f64),
        "ratio",
    ));
    let scheduled = last_phase.workload.offered_load * last_phase.measure.as_secs_f64();
    out.push((
        format!("{prefix}.core.generator_lag_ratio"),
        1.0 - last.admitted as f64 / scheduled,
        "ratio",
    ));
    let d = traced[0]
        .1
        .decomposition
        .as_ref()
        .expect("event-trace run decomposes");
    for (part, c) in [
        ("queueing", &d.queueing),
        ("transmission", &d.transmission),
        ("cpu", &d.cpu),
        ("durability", &d.durability),
    ] {
        out.push((format!("{prefix}.latency.{part}_ms"), c.p50_ms, "ms"));
    }
    let proposals = if modular {
        "consensus.proposals"
    } else {
        "mono.proposals"
    };
    out.push((
        format!("{stack}.decide_ratio"),
        ratio(decided, w.event(proposals) as f64),
        "ratio",
    ));
    if modular {
        out.push((
            "abcast.idle_proposal_share".into(),
            ratio(
                w.event("abcast.idle_proposals") as f64,
                w.event("abcast.proposals") as f64,
            ),
            "ratio",
        ));
        out.push((
            "abcast.payload_pulls_per_instance".into(),
            ratio(w.event("abcast.payload_pulls") as f64, decided),
            "count",
        ));
        out.push((
            "abcast.ring_repairs".into(),
            last.total.event("abcast.ring_repairs") as f64,
            "count",
        ));
        out.push((
            "abcast.retransmits".into(),
            first.total.event("abcast.retransmits") as f64,
            "count",
        ));
    }
    // Recovery machinery over the whole first run: zero on good runs.
    let total = &first.total;
    for event in [
        "fd.suspicions",
        "fd.member_updates",
        "chaos.dropped_stale_incarnation",
    ] {
        out.push((
            format!("{prefix}.{event}"),
            total.event(event) as f64,
            "count",
        ));
    }
    for event in [
        "round_changes",
        "gap_requests",
        "state_transfers",
        "snapshot_transfers",
        "rejoins_completed",
        "reconfigs",
    ] {
        out.push((
            format!("{stack}.{event}"),
            total.event(&format!("{stack}.{event}")) as f64,
            "count",
        ));
    }
    out
}

/// The traced run: per repetition, every phase of each stack runs
/// untraced, with spans, and with the program's event trace. The three
/// must agree on every modeled number. Modeled per-layer values come
/// from the first repetition, host ones as [`host_layers`] says.
fn traced(name: &str, spec: &Spec, seed: u64, budget: Duration) -> Report {
    let mut report = Report::new();
    let started = Instant::now();
    let mut host: [Vec<HostSample>; 2] = [Vec::new(), Vec::new()];
    let mut modeled_out: Vec<(String, f64, &'static str)> = Vec::new();
    let mut reference: Vec<Vec<u64>> = Vec::new();
    let mut rep = 0;
    while rep < 1 || started.elapsed() < budget {
        for (s, &(kind, prefix)) in STACKS.iter().enumerate() {
            let plain = run_phases(spec, kind, seed, Mode::Plain);
            let mut timed = Vec::new();
            let mut blocked = (0, 0);
            for p in spec(kind) {
                let o = runner::run(&p, seed, Mode::Spans);
                // Only the last (saturating) phase's admissions count.
                blocked = spans::take_admissions();
                timed.push((p, o));
            }
            let traced_runs = run_phases(spec, kind, seed, Mode::EventTrace);
            let print = |runs: &[(Phase, Outcome)]| -> Vec<u64> {
                runs.iter()
                    .flat_map(|(_, o)| o.modeled_fingerprint())
                    .collect()
            };
            let reference_print = print(&plain);
            for (mode, runs) in [("span-traced", &timed), ("event-traced", &traced_runs)] {
                if print(runs) != reference_print {
                    report.fail(format!("{prefix} {mode} run differs from the untraced run"));
                }
            }
            for (_, o) in plain.iter().chain(&timed).chain(&traced_runs) {
                audit(&mut report, kind, o);
            }
            if rep == 0 {
                reference.push(reference_print);
                if let Err(e) = write_spans(name, prefix, &timed[0].1.spans) {
                    eprintln!("perfbench: could not write spans: {e}");
                }
                modeled_out.extend(modeled_layers(prefix, &plain, &traced_runs, blocked));
            } else if reference[s] != reference_print {
                report.fail(format!(
                    "{prefix} repetition {rep} did not replay seed {seed}"
                ));
            }
            host[s].push(HostSample::new(
                &plain,
                &timed,
                &traced_runs,
                batch_m(&plain),
                plain[0].0.workload.msg_size,
            ));
            if rep == 0 {
                for (_, o) in &plain {
                    report.attempted += o.admitted;
                    report.failed += o.lost;
                }
            }
        }
        rep += 1;
    }
    eprintln!(
        "perfbench: {rep} traced repetitions in {:.1} s",
        started.elapsed().as_secs_f64()
    );
    for (s, &(_, prefix)) in STACKS.iter().enumerate() {
        report.metrics.extend(host_layers(prefix, &host[s]));
    }
    report.metrics.extend(modeled_out);
    if let Err(e) = names::check(&report.metrics, &PER_LAYER) {
        report.fail(e);
    }
    for (name, value, unit) in &report.metrics {
        println!("{name} {value} {unit}");
    }
    report
}

/// Writes one run's spans as CSV under the build directory
/// (`$CARGO_TARGET_DIR`, else `target`), for inspection.
fn write_spans(workload: &str, prefix: &str, spans: &[spans::Span]) -> std::io::Result<()> {
    let dir =
        std::path::PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or("target".into()))
            .join("perfbench-spans");
    std::fs::create_dir_all(&dir)?;
    let mut csv = String::from("index,layer,start_ns,end_ns,parent\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == spans::ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        let _ = writeln!(
            csv,
            "{i},{},{},{},{parent}",
            s.layer.name(),
            s.start_ns,
            s.end_ns
        );
    }
    std::fs::write(dir.join(format!("{workload}-{prefix}.csv")), csv)
}
