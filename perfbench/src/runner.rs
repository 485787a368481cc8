//! One simulated run, assembled from the same public pieces
//! `fortika_core::Experiment` uses: `build_nodes_with_windows`,
//! `Cluster`, `WorkloadDriver`, `DeliveryOracle` and `ReconfigInjector`.
//!
//! Unlike `Experiment::run`, this runner attaches the delivery oracle to
//! every run, keeps each process's delivery instants, keeps exact latency
//! samples, and times set-up apart from the simulation. In the traced
//! mode it builds each stack from the same constructors with every node
//! and microprotocol wrapped in a [`spans`](crate::spans) timer.

use std::time::Instant;

use fortika::abcast::{AbcastConfig, AbcastModule};
use fortika::chaos::{DeliveryOracle, OracleReport, ReconfigInjector, Scenario};
use fortika::consensus::{ConsensusConfig, ConsensusModule};
use fortika::core::{
    build_nodes_with_windows, install_restart_factory, FlowControlModule, StackConfig, StackKind,
    Workload, WorkloadDriver,
};
use fortika::fd::{FdModule, HeartbeatFd};
use fortika::framework::{CompositeStack, Microprotocol};
use fortika::mono::{MonoConfig, MonoNode};
use fortika::net::Cluster;
use fortika::net::{
    ClusterApi, ClusterConfig, ConfigStamp, CostModel, Counters, Delivery, Harness, Node,
    ProcessId, SnapshotStamp, StableStore, RECONFIG_SEQ_BASE,
};
use fortika::rbcast::RbcastModule;
use fortika::sim::{VDur, VTime};
use fortika::trace::{decompose_window, LatencyDecomposition, Trace, TraceConfig, WindowSpec};

use crate::derive::{mean_rate, Series};
use crate::spans::{self, Layer, Span, TimedModule, TimedNode};

/// One simulated run's configuration.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Which stack runs.
    pub kind: StackKind,
    /// Initial group size (standbys the scenario adds come on top).
    pub n: usize,
    /// Offered load and message size.
    pub workload: Workload,
    /// Stack tunables.
    pub stack: StackConfig,
    /// CPU cost model.
    pub cost: CostModel,
    /// Start of the measurement window.
    pub warmup: VDur,
    /// Length of the measurement window.
    pub measure: VDur,
    /// Run time after the window, so in-flight messages complete.
    pub drain: VDur,
    /// Faults and reconfigurations; empty for good runs.
    pub scenario: Scenario,
}

/// How the run is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing recorded beyond the benchmark's own bookkeeping.
    Plain,
    /// Spans around every node, microprotocol and harness call.
    Spans,
    /// The program's own event trace (`fortika-trace`) switched on.
    EventTrace,
}

/// Everything one run produced.
pub struct Outcome {
    /// Host nanoseconds from the first line of set-up to the first
    /// simulated event.
    pub setup_ns: u64,
    /// Host nanoseconds spent inside `Cluster::run_until`.
    pub run_ns: u64,
    /// `adeliver` events at every process over the whole run.
    pub deliveries: u64,
    /// Early latency of every in-window message, ms, ascending.
    pub latency_ms: Vec<f64>,
    /// Mean adeliver rate of the initial group over the window (msg/s),
    /// see [`mean_rate`].
    pub throughput: f64,
    /// Messages admitted in the window.
    pub admitted: u64,
    /// Admitted-in-window messages never delivered by the end of the run.
    pub lost: u64,
    /// Counter deltas over the window.
    pub window: Counters,
    /// Counters over the whole run.
    pub total: Counters,
    /// Per initial process: CPU busy share of the window.
    pub cpu_util: Vec<f64>,
    /// Per initial process: durability share of the window.
    pub durability_util: Vec<f64>,
    /// Per process: delivery instants of workload messages (ns).
    pub series: Vec<Series>,
    /// Processes that stay correct under the scenario.
    pub correct: Vec<ProcessId>,
    /// Virtual end of the run (ns).
    pub end_ns: u64,
    /// The delivery oracle's audit of the whole run.
    pub oracle: OracleReport,
    /// Spans (traced mode only).
    pub spans: Vec<Span>,
    /// Host nanoseconds of the final oracle check.
    pub check_ns: u64,
    /// Events the program's trace recorded (event-trace mode only).
    pub trace_events: u64,
    /// Per-decision latency split (event-trace mode only).
    pub decomposition: Option<LatencyDecomposition>,
}

impl Outcome {
    /// Everything in this run that is modeled (virtual time and counts),
    /// flattened for exact comparison between two runs.
    pub fn modeled_fingerprint(&self) -> Vec<u64> {
        let mut f = vec![
            self.throughput.to_bits(),
            self.admitted,
            self.lost,
            self.deliveries,
            self.end_ns,
        ];
        f.extend(self.latency_ms.iter().map(|l| l.to_bits()));
        f.extend(self.cpu_util.iter().map(|u| u.to_bits()));
        f.extend(self.durability_util.iter().map(|u| u.to_bits()));
        for counters in [&self.window, &self.total] {
            for (_, c) in counters.iter_sends() {
                f.extend([c.msgs, c.bytes]);
            }
            f.extend(counters.iter_events().map(|(_, v)| v));
        }
        for s in &self.series {
            f.push(s.len() as u64);
            f.extend(s);
        }
        f
    }
}

/// A run ready for its first simulated event.
struct Prepared {
    cluster: Cluster,
    driver: WorkloadDriver,
    oracle: DeliveryOracle,
    capacity: usize,
    window_start: VTime,
    window_end: VTime,
}

/// Host nanoseconds to set `phase` up (config, scenario, nodes, cluster,
/// restart factory, driver and oracle) without running it.
pub fn setup_ns(phase: &Phase, seed: u64) -> u64 {
    let setup = Instant::now();
    let prepared = prepare(phase, seed, Mode::Plain);
    let ns = setup.elapsed().as_nanos() as u64;
    drop(prepared);
    ns
}

/// Builds everything `phase` needs, as `Experiment::run` does, plus an
/// oracle even for good runs.
fn prepare(phase: &Phase, seed: u64, mode: Mode) -> Prepared {
    let n = phase.n;
    let scenario = &phase.scenario;
    let capacity = scenario.capacity(n);
    let mut cluster_cfg = ClusterConfig::new(capacity, seed);
    cluster_cfg.cost = phase.cost.clone();
    if mode == Mode::EventTrace {
        // Large enough that nothing is evicted: the decomposition then
        // explains every sample.
        cluster_cfg.trace = TraceConfig::with_capacity(1 << 24);
    }
    let windows = scenario.suspicion_windows();
    let mut stack = phase.stack.clone();
    stack.pipeline_depth = stack.pipeline_depth.max(scenario.pipeline_depth());
    if !stack.dissemination.offloads() && stack.app_state.is_none() {
        stack.dissemination = scenario.dissemination();
    }
    if !scenario.reconfigs().is_empty() && stack.initial_members == 0 {
        stack.initial_members = n;
    }
    let nodes = match mode {
        Mode::Spans => {
            assert!(
                windows.is_empty(),
                "timed stacks carry no suspicion overlay"
            );
            ProcessId::all(capacity)
                .map(|me| timed_node(phase.kind, capacity, me, &stack, None))
                .collect()
        }
        Mode::Plain | Mode::EventTrace => {
            build_nodes_with_windows(phase.kind, capacity, &stack, &windows)
        }
    };
    let mut cluster = Cluster::new(cluster_cfg, nodes);
    match mode {
        Mode::Spans => {
            let (kind, cfg) = (phase.kind, stack.clone());
            cluster.set_node_factory(Box::new(move |me, now, stable| {
                timed_node(kind, capacity, me, &cfg, Some((now, stable)))
            }));
        }
        Mode::Plain | Mode::EventTrace => {
            install_restart_factory(&mut cluster, phase.kind, &stack, &windows)
        }
    }
    for pid in n..capacity {
        cluster.schedule_crash(ProcessId(pid as u16), VTime::ZERO);
    }
    scenario.apply(&mut cluster);
    let window_start = VTime::ZERO + phase.warmup;
    let window_end = window_start + phase.measure;
    let mut driver =
        WorkloadDriver::with_seed(phase.workload.clone(), n, window_start, window_end, seed);
    driver.enable_sample_log();
    driver.start(&mut cluster);
    Prepared {
        cluster,
        driver,
        oracle: DeliveryOracle::new(capacity),
        capacity,
        window_start,
        window_end,
    }
}

/// Runs `phase` once with `seed`.
pub fn run(phase: &Phase, seed: u64, mode: Mode) -> Outcome {
    let setup = Instant::now();
    let Prepared {
        mut cluster,
        mut driver,
        mut oracle,
        capacity,
        window_start,
        window_end,
    } = prepare(phase, seed, mode);
    let (n, scenario) = (phase.n, &phase.scenario);
    let mut tap = Tap {
        n,
        driver: &mut driver,
        oracle: &mut oracle,
        injector: ReconfigInjector::new(),
        reconfigs_accepted: 0,
        deliveries: 0,
        series: vec![Vec::new(); capacity],
    };
    let setup_ns = setup.elapsed().as_nanos() as u64;

    if mode == Mode::Spans {
        spans::take_admissions();
        spans::start();
    }
    let mut run_ns = 0;
    let mut run_until = |cluster: &mut Cluster, until: VTime, tap: &mut Tap<'_>| {
        let t = Instant::now();
        spans::span(Layer::Kernel, || cluster.run_until(until, tap));
        run_ns += t.elapsed().as_nanos() as u64;
    };
    run_until(&mut cluster, window_start, &mut tap);
    let counters_at_start = cluster.counters().clone();
    let busy_at_start = busy(&cluster, n);
    run_until(&mut cluster, window_end, &mut tap);
    let window = cluster.counters().delta_since(&counters_at_start);
    let busy_at_end = busy(&cluster, n);
    let end = (window_end + phase.drain).max(VTime::ZERO + scenario.horizon() + VDur::secs(1));
    run_until(&mut cluster, end, &mut tap);
    let (deliveries, series) = (tap.deliveries, std::mem::take(&mut tap.series));
    drop(tap);

    let correct = scenario.correct(capacity);
    let check = Instant::now();
    let oracle = oracle.check(&correct);
    let check_ns = check.elapsed().as_nanos() as u64;
    let spans = if mode == Mode::Spans {
        spans::stop()
    } else {
        Vec::new()
    };
    let trace = cluster.take_trace();
    let stats = driver.finish();

    let mut latency_ms: Vec<f64> = stats
        .samples
        .iter()
        .map(|s| s.earliest.since(s.t0).as_millis_f64())
        .collect();
    latency_ms.sort_by(f64::total_cmp);
    let decomposition = trace.as_ref().map(|t| decompose(t, &stats.samples));
    let secs = phase.measure.as_secs_f64();
    let share = |(s, e): (&(VDur, VDur), &(VDur, VDur)), pick: fn(&(VDur, VDur)) -> VDur| {
        (pick(e).saturating_sub(pick(s)).as_secs_f64() / secs).clamp(0.0, 1.0)
    };
    let pairs = || busy_at_start.iter().zip(&busy_at_end);
    Outcome {
        setup_ns,
        run_ns,
        deliveries,
        throughput: mean_rate(&series[..n], window_start.as_nanos(), window_end.as_nanos()),
        latency_ms,
        admitted: stats.admitted,
        lost: stats.lost_samples,
        window,
        total: cluster.counters().clone(),
        cpu_util: pairs().map(|p| share(p, |b| b.0)).collect(),
        durability_util: pairs().map(|p| share(p, |b| b.1)).collect(),
        series,
        correct,
        end_ns: end.as_nanos(),
        oracle,
        spans,
        check_ns,
        trace_events: trace
            .as_ref()
            .map_or(0, |t| t.events.len() as u64 + t.dropped),
        decomposition,
    }
}

/// `(cpu busy, durability busy)` of each initial process.
fn busy(cluster: &Cluster, n: usize) -> Vec<(VDur, VDur)> {
    ProcessId::all(n)
        .map(|p| (cluster.cpu_busy(p), cluster.durability_busy(p)))
        .collect()
}

/// Splits each latency sample into queueing, transmission, CPU and
/// durability time at the first-delivering process.
fn decompose(trace: &Trace, samples: &[fortika::core::LatencySample]) -> LatencyDecomposition {
    assert_eq!(trace.dropped, 0, "the trace ring evicted events");
    let parts: Vec<_> = samples
        .iter()
        .map(|s| {
            decompose_window(
                &trace.events,
                &WindowSpec {
                    pid: s.earliest_pid.0,
                    t0_ns: s.t0.as_nanos(),
                    te_ns: s.earliest.as_nanos(),
                },
            )
        })
        .collect();
    LatencyDecomposition::from_samples(&parts)
}

/// The harness: forwards workload callbacks to the driver, tees every
/// delivery into the oracle and the delivery series, and turns the
/// scenario's reconfiguration ticks into submissions. Each call into a
/// piece runs inside that piece's span.
struct Tap<'a> {
    n: usize,
    driver: &'a mut WorkloadDriver,
    oracle: &'a mut DeliveryOracle,
    injector: ReconfigInjector,
    reconfigs_accepted: u64,
    deliveries: u64,
    series: Vec<Series>,
}

impl Tap<'_> {
    fn sync_submissions(&mut self) {
        let ids: Vec<_> = spans::span(Layer::Driver, || self.driver.drain_accepted_ids().collect());
        spans::span(Layer::Chaos, || {
            for id in ids {
                self.oracle.note_submission(id);
            }
        });
    }
}

impl Harness for Tap<'_> {
    fn on_delivery(&mut self, api: &mut ClusterApi<'_>, pid: ProcessId, d: Delivery, at: VTime) {
        spans::span(Layer::Tap, || {
            self.deliveries += 1;
            if d.msg.sender.index() < self.n && d.msg.seq < RECONFIG_SEQ_BASE {
                self.series[pid.index()].push(at.as_nanos());
            }
            spans::span(Layer::Chaos, || self.oracle.record(pid, d.msg, at));
            spans::span(Layer::Driver, || self.driver.on_delivery(api, pid, d, at));
        });
    }

    fn on_app_ready(&mut self, api: &mut ClusterApi<'_>, pid: ProcessId, at: VTime) {
        spans::span(Layer::Tap, || {
            spans::span(Layer::Driver, || self.driver.on_app_ready(api, pid, at));
            self.sync_submissions();
        });
    }

    fn on_tick(&mut self, api: &mut ClusterApi<'_>, tick: u64, at: VTime) {
        spans::span(Layer::Tick, || {
            let reconfig = spans::span(Layer::Chaos, || {
                let outcome = self.injector.on_tick(api, tick, at)?;
                if let Some(id) = outcome {
                    self.oracle.note_submission(id);
                    self.reconfigs_accepted += 1;
                    self.oracle.expect_configs(self.reconfigs_accepted);
                }
                Some(())
            });
            if reconfig.is_none() {
                spans::span(Layer::Driver, || self.driver.on_tick(api, tick, at));
                self.sync_submissions();
            }
        });
    }

    fn on_restart(&mut self, api: &mut ClusterApi<'_>, pid: ProcessId, at: VTime) {
        spans::span(Layer::Tap, || {
            spans::span(Layer::Chaos, || self.oracle.note_restart(pid));
            spans::span(Layer::Driver, || self.driver.on_restart(api, pid, at));
            self.sync_submissions();
        });
    }

    fn on_snapshot(
        &mut self,
        _: &mut ClusterApi<'_>,
        pid: ProcessId,
        stamp: SnapshotStamp,
        _: VTime,
    ) {
        spans::span(Layer::Tap, || {
            spans::span(Layer::Chaos, || self.oracle.note_snapshot(pid, &stamp));
        });
    }

    fn on_config(&mut self, _: &mut ClusterApi<'_>, pid: ProcessId, stamp: ConfigStamp, _: VTime) {
        spans::span(Layer::Tap, || {
            spans::span(Layer::Chaos, || self.oracle.note_config(pid, stamp));
        });
    }
}

/// One process's stack, built from the same constructors and
/// configuration mapping as `fortika_core::build_node_with_windows` (and
/// `build_restarted_node` when `resume` carries the restart instant and
/// stable store), with the node and each microprotocol timed. The
/// traced run checks that this gives the untimed run's modeled results
/// exactly.
fn timed_node(
    kind: StackKind,
    n: usize,
    me: ProcessId,
    cfg: &StackConfig,
    resume: Option<(VTime, &StableStore)>,
) -> Box<dyn Node> {
    let heartbeat = match resume {
        Some((now, _)) => HeartbeatFd::new_anchored(n, me, cfg.fd.clone(), now),
        None => HeartbeatFd::new(n, me, cfg.fd.clone()),
    };
    let app = cfg.app_state.as_ref().map(|f| f.make());
    let stable = resume.map(|(_, stable)| stable);
    match kind {
        StackKind::Modular => {
            let abcast = match stable {
                Some(s) => AbcastModule::resume(abcast_config(cfg), s),
                None => AbcastModule::new(abcast_config(cfg)),
            };
            let consensus = match stable {
                Some(s) => ConsensusModule::resume(consensus_config(cfg), s),
                None => ConsensusModule::new(consensus_config(cfg)),
            };
            let rbcast = match stable {
                Some(s) => RbcastModule::resume(cfg.rbcast.clone(), s),
                None => RbcastModule::new(cfg.rbcast.clone()),
            };
            let modules: Vec<Box<dyn Microprotocol>> = vec![
                Box::new(FlowControlModule::new(cfg.window)),
                Box::new(abcast),
                Box::new(consensus.with_app(app)),
                Box::new(rbcast),
                Box::new(FdModule::new(heartbeat)),
            ];
            let timed = modules
                .into_iter()
                .map(|m| Box::new(TimedModule::new(m)) as Box<dyn Microprotocol>)
                .collect();
            Box::new(TimedNode::new(
                Layer::Framework,
                Box::new(CompositeStack::new(timed)),
            ))
        }
        StackKind::Monolithic => {
            let fd = Box::new(heartbeat);
            let node = match stable {
                Some(s) => MonoNode::resume(mono_config(cfg), fd, s),
                None => MonoNode::new(mono_config(cfg), fd),
            };
            Box::new(TimedNode::new(Layer::Mono, Box::new(node.with_app(app))))
        }
    }
}

/// `fortika_core`'s abcast configuration mapping.
fn abcast_config(cfg: &StackConfig) -> AbcastConfig {
    AbcastConfig {
        pipeline_depth: cfg.pipeline_depth.max(1) as u64,
        dissemination: cfg.dissemination,
        initial_members: cfg.initial_members,
        ..cfg.abcast.clone()
    }
}

/// `fortika_core`'s consensus configuration mapping.
fn consensus_config(cfg: &StackConfig) -> ConsensusConfig {
    ConsensusConfig {
        snapshot_interval: cfg.snapshot_interval,
        decision_cache: cfg.decision_cache,
        pipeline_depth: cfg.pipeline_depth.max(1) as u64,
        skip_vote_persist: cfg.skip_vote_persist,
        initial_members: cfg.initial_members,
        reconfig_offset: cfg.reconfig_offset,
        skip_config_fence: cfg.skip_config_fence,
        ..cfg.consensus.clone()
    }
}

/// `fortika_core`'s monolithic configuration mapping.
fn mono_config(cfg: &StackConfig) -> MonoConfig {
    MonoConfig {
        opts: cfg.mono_opts,
        window: cfg.window,
        snapshot_interval: cfg.snapshot_interval,
        decision_cache: cfg.decision_cache,
        pipeline_depth: cfg.pipeline_depth.max(1),
        skip_vote_persist: cfg.skip_vote_persist,
        initial_members: cfg.initial_members,
        reconfig_offset: cfg.reconfig_offset,
        skip_config_fence: cfg.skip_config_fence,
        ..MonoConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortika::core::Experiment;

    fn phase(kind: StackKind, scenario: Scenario) -> Phase {
        Phase {
            kind,
            n: 3,
            workload: Workload::constant_rate(300.0, 1024),
            stack: StackConfig::default(),
            cost: CostModel::default(),
            warmup: VDur::millis(300),
            measure: VDur::millis(1000),
            drain: VDur::millis(500),
            scenario,
        }
    }

    /// The benchmark runs the program exactly as `Experiment::run` does:
    /// same admissions, deliveries, latencies and window counters.
    #[test]
    fn plain_run_matches_experiment() {
        for kind in [StackKind::Modular, StackKind::Monolithic] {
            let p = phase(kind, Scenario::new());
            let ours = run(&p, 11, Mode::Plain);
            let theirs = Experiment::builder(kind, 3)
                .workload(p.workload.clone())
                .seed(11)
                .warmup_secs(0.3)
                .measure_secs(1.0)
                .scenario(Scenario::new())
                .build()
                .run();
            assert!(ours.oracle.is_ok() && theirs.oracle.expect("attached").is_ok());
            assert_eq!(ours.admitted, theirs.admitted_in_window);
            assert_eq!(ours.lost, theirs.lost_samples);
            assert_eq!(
                ours.latency_ms.len() as u64,
                theirs.early_latency_ms.samples
            );
            let mean = ours.latency_ms.iter().sum::<f64>() / ours.latency_ms.len() as f64;
            assert!((mean - theirs.early_latency_ms.mean).abs() < 1e-9 * mean);
            let (ws, we) = (p.warmup.as_nanos(), (p.warmup + p.measure).as_nanos());
            let in_window: u64 = ours
                .series
                .iter()
                .map(|s| s.iter().filter(|&&d| d >= ws && d <= we).count() as u64)
                .sum();
            assert_eq!(in_window, theirs.delivered_total);
            let events = |c: &Counters| c.iter_events().collect::<Vec<_>>();
            assert_eq!(events(&ours.window), events(&theirs.counters));
            assert_eq!(
                ours.cpu_util.iter().cloned().fold(0.0, f64::max),
                theirs.max_cpu_utilization
            );
        }
    }

    /// The timed stacks, first builds and restarted ones alike, give the
    /// untimed run's modeled results bit for bit.
    #[test]
    fn timed_stacks_replay_the_untimed_run() {
        let scenario = Scenario::new()
            .crash(ProcessId(1), VDur::millis(500))
            .restart(ProcessId(1), VDur::millis(800));
        for kind in [StackKind::Modular, StackKind::Monolithic] {
            let p = phase(kind, scenario.clone());
            let plain = run(&p, 5, Mode::Plain);
            let timed = run(&p, 5, Mode::Spans);
            assert!(plain.oracle.is_ok() && timed.oracle.is_ok());
            assert_eq!(plain.total.event("cluster.restarts"), 1);
            assert_eq!(plain.modeled_fingerprint(), timed.modeled_fingerprint());
            assert!(!timed.spans.is_empty() && plain.spans.is_empty());
            let t = spans::totals(&timed.spans);
            let node = if kind == StackKind::Modular {
                Layer::Consensus
            } else {
                Layer::Mono
            };
            assert!(t.self_of(node) > 0 && t.kernel_events > 0);
            let traced = run(&p, 5, Mode::EventTrace);
            assert_eq!(plain.modeled_fingerprint(), traced.modeled_fingerprint());
            assert!(traced.trace_events > 0 && traced.decomposition.is_some());
        }
    }
}
