//! The experiment runner: one run = one simulated cluster under one
//! workload; a summary = several runs (seeds) combined with 95 %
//! confidence intervals, as the paper reports.

use fortika_chaos::{DeliveryOracle, OracleReport, ReconfigInjector, Scenario};
use fortika_net::{
    ClusterApi, ClusterConfig, ConfigStamp, CostModel, Counters, Delivery, Harness, NetModel,
    ProcessId, SnapshotStamp,
};
use fortika_sim::stats::{mean_ci95, MeanCi};
use fortika_sim::{VDur, VTime};
use fortika_trace::{decompose_window, LatencyDecomposition, Trace, TraceConfig, WindowSpec};

use crate::stack::{provision_cluster, StackConfig, StackKind};
use crate::workload::{Workload, WorkloadDriver};

/// Everything needed to run one experiment configuration.
#[derive(Debug, Clone)]
pub struct Experiment {
    kind: StackKind,
    n: usize,
    workload: Workload,
    stack: StackConfig,
    net: NetModel,
    cost: CostModel,
    seed: u64,
    warmup: VDur,
    measure: VDur,
    drain: VDur,
    scenario: Option<Scenario>,
    trace: TraceConfig,
    /// Violation side effects (trace dump, auto-minimized reproducer).
    /// True for user-built experiments; cleared on the internal probe
    /// runs the minimizer spawns, so shrinking can't recurse or litter
    /// `target/trace/` with candidate dumps.
    emit_artifacts: bool,
}

/// Builder for [`Experiment`] (see [`Experiment::builder`]).
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    inner: Experiment,
}

impl Experiment {
    /// Starts building an experiment on `n` processes with the given
    /// stack kind.
    pub fn builder(kind: StackKind, n: usize) -> ExperimentBuilder {
        assert!(n >= 1, "need at least one process");
        ExperimentBuilder {
            inner: Experiment {
                kind,
                n,
                workload: Workload::constant_rate(500.0, 1024),
                stack: StackConfig::default(),
                net: NetModel::default(),
                cost: CostModel::default(),
                seed: 1,
                warmup: VDur::millis(1500),
                measure: VDur::secs(3),
                drain: VDur::millis(500),
                scenario: None,
                trace: TraceConfig::default(),
                emit_artifacts: true,
            },
        }
    }

    /// Runs the experiment once and reports the window metrics.
    ///
    /// With a [`Scenario`] attached, its faults are scheduled before the
    /// run, scripted suspicion windows are wired into every failure
    /// detector, the drain is stretched past the scenario horizon, and
    /// the delivery-invariant oracle audits every `adeliver` — safety
    /// violations land in [`RunReport::oracle`].
    pub fn run(&mut self) -> RunReport {
        let mut cluster_cfg = ClusterConfig::new(self.n, self.seed);
        cluster_cfg.net = self.net.clone();
        cluster_cfg.cost = self.cost.clone();
        cluster_cfg.trace = self.trace.clone();
        let mut cluster = provision_cluster(
            self.kind,
            self.n,
            &self.stack,
            self.scenario.as_ref(),
            cluster_cfg,
        );
        let capacity = cluster.n();

        let window_start = VTime::ZERO + self.warmup;
        let window_end = window_start + self.measure;
        let mut driver = WorkloadDriver::with_seed(
            self.workload.clone(),
            self.n,
            window_start,
            window_end,
            self.seed,
        );
        if self.trace.enabled {
            // Keep per-message observations so every latency sample can
            // be decomposed against the event trace below.
            driver.enable_sample_log();
        }
        driver.start(&mut cluster);
        // Record deliveries for the oracle only when a scenario asked
        // for an audit — plain benchmark runs skip the bookkeeping.
        let mut oracle = self
            .scenario
            .as_ref()
            .map(|_| DeliveryOracle::new(capacity));
        let mut tap = OracleTap {
            driver: &mut driver,
            oracle: oracle.as_mut(),
            injector: ReconfigInjector::new(),
            reconfigs_accepted: 0,
        };

        // Warm-up.
        cluster.run_until(window_start, &mut tap);
        let counters_at_start = cluster.counters().clone();
        let busy_at_start: Vec<VDur> = ProcessId::all(self.n)
            .map(|p| cluster.cpu_busy(p))
            .collect();
        let dur_at_start: Vec<VDur> = ProcessId::all(self.n)
            .map(|p| cluster.durability_busy(p))
            .collect();

        // Measurement window + drain (so in-flight messages complete).
        cluster.run_until(window_end, &mut tap);
        let counters_at_end = cluster.counters().clone();
        let busy_at_end: Vec<VDur> = ProcessId::all(self.n)
            .map(|p| cluster.cpu_busy(p))
            .collect();
        let dur_at_end: Vec<VDur> = ProcessId::all(self.n)
            .map(|p| cluster.durability_busy(p))
            .collect();
        // Under a scenario, drain past the last fault plus a margin so
        // healing (and post-heal catch-up) happens inside the run.
        let mut end_of_drain = window_end + self.drain;
        if let Some(scenario) = &self.scenario {
            end_of_drain = end_of_drain.max(VTime::ZERO + scenario.horizon() + VDur::secs(1));
        }
        cluster.run_until(end_of_drain, &mut tap);
        let trace = cluster.take_trace();

        let oracle_report = self.scenario.as_ref().and_then(|scenario| {
            let correct = scenario.correct(capacity);
            oracle.as_ref().map(|o| o.check(&correct))
        });
        // A violating traced run leaves its bounded evidence window on
        // disk before anything else can panic on the report.
        if self.emit_artifacts {
            if let (Some(trace), Some(report)) = (&trace, &oracle_report) {
                if !report.is_ok() {
                    let label = format!("{:?}-seed{}", self.kind, self.seed).to_lowercase();
                    let dir = std::path::Path::new("target").join("trace");
                    match fortika_chaos::dump_violation_trace(trace, report, &dir, &label) {
                        Ok(paths) => {
                            for p in paths {
                                eprintln!("violation trace written: {}", p.display());
                            }
                        }
                        Err(e) => eprintln!("violation trace dump failed: {e}"),
                    }
                }
            }
        }
        // Any oracle violation also auto-minimizes its scenario: ddmin
        // re-runs this experiment (artifacts and tracing off) on
        // candidate sub-timelines until no single event can be dropped
        // while still tripping the same violation kind. The reproducer
        // lands next to the trace dump and in the report.
        let minimized_scenario = if self.emit_artifacts {
            self.minimize_violation(&oracle_report)
        } else {
            None
        };
        let stats = driver.finish();
        let latency_decomposition = trace.as_ref().map(|t| {
            let samples: Vec<_> = stats
                .samples
                .iter()
                .map(|s| {
                    decompose_window(
                        &t.events,
                        &WindowSpec {
                            pid: s.earliest_pid.0,
                            t0_ns: s.t0.as_nanos(),
                            te_ns: s.earliest.as_nanos(),
                        },
                    )
                })
                .collect();
            LatencyDecomposition::from_samples(&samples)
        });
        let secs = self.measure.as_secs_f64();
        let per_proc_rates: Vec<f64> = stats
            .delivered_per_proc
            .iter()
            .map(|&c| c as f64 / secs)
            .collect();
        let throughput = per_proc_rates.iter().sum::<f64>() / self.n as f64;

        let window = counters_at_end.delta_since(&counters_at_start);
        let decided = window.event("consensus.decided") as f64 / self.n as f64;
        let delivered = window.event("abcast.delivered") as f64 / self.n as f64;
        let msgs = window.total_msgs_excluding(|k| k.starts_with("fd."));
        let bytes = {
            let mut b = 0;
            for (k, c) in window.iter_sends() {
                if !k.starts_with("fd.") {
                    b += c.bytes;
                }
            }
            b
        };
        let utilization: Vec<f64> = busy_at_start
            .iter()
            .zip(&busy_at_end)
            .map(|(&s, &e)| (e.saturating_sub(s).as_secs_f64() / secs).clamp(0.0, 1.0))
            .collect();
        let durability_utilization: Vec<f64> = dur_at_start
            .iter()
            .zip(&dur_at_end)
            .map(|(&s, &e)| (e.saturating_sub(s).as_secs_f64() / secs).clamp(0.0, 1.0))
            .collect();

        RunReport {
            kind: self.kind,
            n: self.n,
            offered_load: self.workload.offered_load,
            msg_size: self.workload.msg_size,
            seed: self.seed,
            early_latency_ms: LatencySummary {
                mean: stats.latency_ms.mean(),
                ci95: stats.latency_ms.ci95_half_width(),
                min: if stats.latency_ms.count() > 0 {
                    stats.latency_ms.min()
                } else {
                    0.0
                },
                max: if stats.latency_ms.count() > 0 {
                    stats.latency_ms.max()
                } else {
                    0.0
                },
                p50: stats.latency_hist.percentile(50.0),
                p90: stats.latency_hist.percentile(90.0),
                p99: stats.latency_hist.percentile(99.0),
                samples: stats.latency_ms.count(),
            },
            throughput_msgs_per_sec: throughput,
            delivered_total: stats.delivered_per_proc.iter().sum(),
            admitted_in_window: stats.admitted,
            lost_samples: stats.lost_samples,
            instances_per_proc: decided,
            avg_batch_m: if decided > 0.0 {
                delivered / decided
            } else {
                0.0
            },
            msgs_in_window: msgs,
            bytes_in_window: bytes,
            msgs_per_instance: if decided > 0.0 {
                msgs as f64 / decided
            } else {
                0.0
            },
            bytes_per_instance: if decided > 0.0 {
                bytes as f64 / decided
            } else {
                0.0
            },
            max_cpu_utilization: utilization.iter().cloned().fold(0.0, f64::max),
            mean_cpu_utilization: utilization.iter().sum::<f64>() / self.n as f64,
            max_durability_utilization: durability_utilization.iter().cloned().fold(0.0, f64::max),
            counters: window,
            oracle: oracle_report,
            trace,
            latency_decomposition,
            minimized_scenario,
        }
    }

    /// Shrinks a violating run's scenario to a locally minimal
    /// reproducer (same [`Violation::kind`]) and writes it under
    /// `target/trace/`; returns the minimized scenario. `None` when the
    /// run was clean, had no scenario, or minimization lost the
    /// violation entirely (the original scenario is its own minimum
    /// then — still reported, so callers always get a reproducer).
    ///
    /// [`Violation::kind`]: fortika_chaos::Violation::kind
    fn minimize_violation(&self, oracle_report: &Option<OracleReport>) -> Option<Scenario> {
        let scenario = self.scenario.as_ref()?;
        let violation = oracle_report.as_ref()?.violations.first()?;
        let kind = violation.kind();
        let mut probe = self.clone();
        probe.emit_artifacts = false;
        probe.trace = TraceConfig::default();
        let minimized = fortika_chaos::minimize(scenario, |candidate| {
            probe.scenario = Some(candidate.clone());
            probe
                .run()
                .oracle
                .as_ref()
                .and_then(|r| r.violations.first())
                .is_some_and(|v| v.kind() == kind)
        });
        let label = format!("{:?}-seed{}", self.kind, self.seed).to_lowercase();
        let path = std::path::Path::new("target")
            .join("trace")
            .join(format!("violation-{label}.min.txt"));
        let body = format!(
            "kind: {:?}\nn: {}\nseed: {}\nviolation: {kind}\nevents: {} (of {})\n\
             pipeline_depth: {}\nscenario: {:#?}\n",
            self.kind,
            self.n,
            self.seed,
            minimized.scenario.events().len(),
            minimized.original_events,
            minimized.scenario.pipeline_depth(),
            minimized.scenario,
        );
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(&path, body) {
            Ok(()) => eprintln!("minimized reproducer written: {}", path.display()),
            Err(e) => eprintln!("minimized reproducer write failed: {e}"),
        }
        Some(minimized.scenario)
    }

    /// Runs the experiment once per seed and combines the runs.
    pub fn run_replicated(&mut self, seeds: &[u64]) -> Summary {
        assert!(!seeds.is_empty(), "need at least one seed");
        let mut runs = Vec::with_capacity(seeds.len());
        for &seed in seeds {
            self.seed = seed;
            runs.push(self.run());
        }
        Summary::from_runs(runs)
    }
}

impl ExperimentBuilder {
    /// Sets the workload.
    pub fn workload(mut self, w: Workload) -> Self {
        self.inner.workload = w;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    /// Sets the warm-up duration (excluded from measurements).
    pub fn warmup_secs(mut self, secs: f64) -> Self {
        self.inner.warmup = VDur::from_secs_f64(secs);
        self
    }

    /// Sets the measurement window length.
    pub fn measure_secs(mut self, secs: f64) -> Self {
        self.inner.measure = VDur::from_secs_f64(secs);
        self
    }

    /// Overrides the stack configuration (flow window, FD, ablations…).
    pub fn stack_config(mut self, cfg: StackConfig) -> Self {
        self.inner.stack = cfg;
        self
    }

    /// Attaches a fault [`Scenario`]: its crashes, restarts, link
    /// faults and scripted suspicions run against this experiment, the
    /// runner registers the crash-recovery restart factory, and the
    /// delivery-invariant oracle audits every `adeliver` (see
    /// [`RunReport::oracle`]). A scenario that carries a windowed-
    /// sequencer depth (`Scenario::pipeline_depth` — the chaos
    /// generator draws one per scenario) raises the stack's
    /// `pipeline_depth` to at least that value, so generated fault
    /// timelines also fuzz pipelined instance execution.
    ///
    /// # Example: crash-recovery under audit
    ///
    /// ```
    /// use fortika_core::workload::Workload;
    /// use fortika_core::{Experiment, Scenario, StackKind};
    /// use fortika_net::ProcessId;
    /// use fortika_sim::VDur;
    ///
    /// // p2 crashes at 0.5 s with total volatile-state loss and is
    /// // revived at 1 s; the oracle checks agreement, total order,
    /// // integrity and byte-identical replay across incarnations.
    /// let scenario = Scenario::new()
    ///     .crash(ProcessId(1), VDur::millis(500))
    ///     .restart(ProcessId(1), VDur::millis(1000));
    /// let mut exp = Experiment::builder(StackKind::Modular, 3)
    ///     .workload(Workload::constant_rate(200.0, 256))
    ///     .seed(3)
    ///     .warmup_secs(0.2)
    ///     .measure_secs(1.0)
    ///     .scenario(scenario)
    ///     .build();
    /// let report = exp.run();
    /// report.oracle.expect("scenario attached").assert_ok("doc example");
    /// ```
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.inner.scenario = Some(scenario);
        self
    }

    /// Overrides the network model.
    pub fn net(mut self, net: NetModel) -> Self {
        self.inner.net = net;
        self
    }

    /// Overrides the CPU cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.inner.cost = cost;
        self
    }

    /// Enables event tracing for the run (off by default). Tracing
    /// never changes simulated timing — the benchmark numbers with and
    /// without it are bit-identical — but a traced run additionally
    /// yields [`RunReport::trace`] and
    /// [`RunReport::latency_decomposition`], and a traced run whose
    /// oracle reports a violation dumps the bounded event window around
    /// the offending process under `target/trace/`.
    ///
    /// ```
    /// use fortika_core::{Experiment, StackKind, TraceConfig};
    ///
    /// let mut exp = Experiment::builder(StackKind::Modular, 3)
    ///     .warmup_secs(0.2)
    ///     .measure_secs(0.5)
    ///     .trace(TraceConfig::on())
    ///     .build();
    /// let report = exp.run();
    /// let trace = report.trace.expect("tracing was on");
    /// assert!(!trace.events.is_empty());
    /// let d = report.latency_decomposition.expect("tracing was on");
    /// assert!(d.samples > 0);
    /// ```
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.inner.trace = trace;
        self
    }

    /// Finishes building.
    pub fn build(self) -> Experiment {
        self.inner
    }
}

/// Early-latency summary for one run.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Mean early latency (ms) over messages admitted in the window.
    pub mean: f64,
    /// 95 % confidence half-width over those samples.
    pub ci95: f64,
    /// Fastest message.
    pub min: f64,
    /// Slowest message.
    pub max: f64,
    /// Median (ms, ~1.5 % resolution).
    pub p50: f64,
    /// 90th percentile (ms).
    pub p90: f64,
    /// 99th percentile (ms).
    pub p99: f64,
    /// Number of samples.
    pub samples: u64,
}

/// All metrics from one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Stack under test.
    pub kind: StackKind,
    /// Group size.
    pub n: usize,
    /// Configured offered load (msgs/s).
    pub offered_load: f64,
    /// Message payload size (bytes).
    pub msg_size: usize,
    /// RNG seed of this run.
    pub seed: u64,
    /// Early latency over the window.
    pub early_latency_ms: LatencySummary,
    /// Throughput T = (1/n) Σ rᵢ (msgs/s).
    pub throughput_msgs_per_sec: f64,
    /// Total adeliver events in the window (all processes).
    pub delivered_total: u64,
    /// Messages admitted (abcast completed) in the window.
    pub admitted_in_window: u64,
    /// Admitted messages never observed delivered (0 in good runs).
    pub lost_samples: u64,
    /// Consensus instances decided per process in the window.
    pub instances_per_proc: f64,
    /// Average messages ordered per instance (the paper's M).
    pub avg_batch_m: f64,
    /// Protocol messages sent in the window (heartbeats excluded).
    pub msgs_in_window: u64,
    /// Protocol bytes sent in the window (heartbeats excluded).
    pub bytes_in_window: u64,
    /// Messages per consensus instance (compare §5.2.1).
    pub msgs_per_instance: f64,
    /// Bytes per consensus instance (compare §5.2.2).
    pub bytes_per_instance: f64,
    /// Highest per-process CPU utilization in the window. Durability
    /// time (stable writes, snapshot encode/install) is CPU time like
    /// any other and is folded in — a `stable_write` sweep moves this
    /// number, which is how the sweep benches detect saturation.
    pub max_cpu_utilization: f64,
    /// Mean per-process CPU utilization in the window.
    pub mean_cpu_utilization: f64,
    /// Highest per-process share of the window spent on durability
    /// alone (a subset of
    /// [`max_cpu_utilization`](RunReport::max_cpu_utilization)): how
    /// much of the busiest process's time went to stable writes and
    /// snapshot encode/install. Zero under the default
    /// (free-durability) calibration.
    pub max_durability_utilization: f64,
    /// Counter deltas over the window (heartbeats included).
    pub counters: Counters,
    /// Delivery-invariant audit of the whole run (present when a
    /// [`Scenario`] was attached): safety checks — uniform agreement,
    /// total order, integrity, prefix-consistency of crashed processes —
    /// over every `adeliver` from start to drain.
    pub oracle: Option<OracleReport>,
    /// The frozen event trace (present when tracing was enabled via
    /// [`ExperimentBuilder::trace`]): wire events, handler executions
    /// and per-instance lifecycle spans, ring-bounded at the configured
    /// capacity. Export with [`Trace::to_jsonl`] /
    /// [`Trace::to_chrome_json`].
    pub trace: Option<Trace>,
    /// Per-decision latency decomposition (present when tracing was
    /// enabled): each in-window early-latency sample split into
    /// queueing, transmission, CPU and durability time at the
    /// first-delivering process, with percentiles per component. The
    /// four components sum to the end-to-end window exactly (integer
    /// nanoseconds; durability is also counted inside CPU).
    pub latency_decomposition: Option<LatencyDecomposition>,
    /// The auto-minimized reproducer (present when the oracle reported
    /// a violation on a scenario run): the attached scenario
    /// ddmin-shrunk to a locally minimal event list that still trips
    /// the same violation kind. Also written to
    /// `target/trace/violation-<kind>-seed<seed>.min.txt`.
    pub minimized_scenario: Option<Scenario>,
}

/// Forwards workload callbacks while teeing every delivery into the
/// oracle (when one is attached). Also owns the [`ReconfigInjector`]
/// that turns a scenario's reserved reconfiguration ticks into abcast
/// submissions — those ticks must never reach the workload driver,
/// which reads tick ids as sender pids.
struct OracleTap<'a> {
    driver: &'a mut WorkloadDriver,
    oracle: Option<&'a mut DeliveryOracle>,
    injector: ReconfigInjector,
    /// Accepted reconfig submissions so far: each one, once decided,
    /// must surface as exactly one config version — fed to the oracle
    /// as its drained-completeness floor.
    reconfigs_accepted: u64,
}

impl OracleTap<'_> {
    /// Hands freshly accepted ids to the oracle (arming its
    /// unknown-delivery integrity check); with no oracle the ids are
    /// simply discarded so the driver's buffer stays empty.
    fn sync_submissions(&mut self) {
        let ids = self.driver.drain_accepted_ids();
        if let Some(oracle) = self.oracle.as_deref_mut() {
            for id in ids {
                oracle.note_submission(id);
            }
        }
    }
}

impl Harness for OracleTap<'_> {
    fn on_delivery(&mut self, api: &mut ClusterApi<'_>, pid: ProcessId, d: Delivery, at: VTime) {
        if let Some(oracle) = self.oracle.as_deref_mut() {
            oracle.record(pid, d.msg, at);
        }
        self.driver.on_delivery(api, pid, d, at);
    }

    fn on_app_ready(&mut self, api: &mut ClusterApi<'_>, pid: ProcessId, at: VTime) {
        self.driver.on_app_ready(api, pid, at);
        self.sync_submissions();
    }

    fn on_tick(&mut self, api: &mut ClusterApi<'_>, tick: u64, at: VTime) {
        if let Some(outcome) = self.injector.on_tick(api, tick, at) {
            // A reserved reconfig tick: submitted (or rescheduled), and
            // in no case the workload driver's to interpret.
            if let (Some(id), Some(oracle)) = (outcome, self.oracle.as_deref_mut()) {
                oracle.note_submission(id);
                self.reconfigs_accepted += 1;
                oracle.expect_configs(self.reconfigs_accepted);
            }
            return;
        }
        self.driver.on_tick(api, tick, at);
        self.sync_submissions();
    }

    fn on_restart(&mut self, api: &mut ClusterApi<'_>, pid: ProcessId, at: VTime) {
        if let Some(oracle) = self.oracle.as_deref_mut() {
            oracle.note_restart(pid);
        }
        self.driver.on_restart(api, pid, at);
        self.sync_submissions();
    }

    fn on_snapshot(
        &mut self,
        _api: &mut ClusterApi<'_>,
        pid: ProcessId,
        stamp: SnapshotStamp,
        _at: VTime,
    ) {
        if let Some(oracle) = self.oracle.as_deref_mut() {
            oracle.note_snapshot(pid, &stamp);
        }
    }

    fn on_config(
        &mut self,
        _api: &mut ClusterApi<'_>,
        pid: ProcessId,
        stamp: ConfigStamp,
        _at: VTime,
    ) {
        if let Some(oracle) = self.oracle.as_deref_mut() {
            oracle.note_config(pid, stamp);
        }
    }
}

/// Metrics combined over several runs (seeds), with Student-t 95 %
/// confidence intervals across runs — the paper's error bars.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Per-run reports.
    pub runs: Vec<RunReport>,
    /// Early latency: grand mean and CI over per-run means.
    pub early_latency_ms: MeanCi,
    /// Throughput: grand mean and CI over per-run means.
    pub throughput: MeanCi,
    /// Mean of per-run M (messages per instance).
    pub avg_batch_m: f64,
    /// Mean of per-run max CPU utilization.
    pub max_cpu_utilization: f64,
}

impl Summary {
    /// Combines per-run reports.
    pub fn from_runs(runs: Vec<RunReport>) -> Self {
        let lat: Vec<f64> = runs.iter().map(|r| r.early_latency_ms.mean).collect();
        let thr: Vec<f64> = runs.iter().map(|r| r.throughput_msgs_per_sec).collect();
        let m = runs.iter().map(|r| r.avg_batch_m).sum::<f64>() / runs.len() as f64;
        let cpu = runs.iter().map(|r| r.max_cpu_utilization).sum::<f64>() / runs.len() as f64;
        Summary {
            early_latency_ms: mean_ci95(&lat).expect("at least one run"),
            throughput: mean_ci95(&thr).expect("at least one run"),
            avg_batch_m: m,
            max_cpu_utilization: cpu,
            runs,
        }
    }
}
