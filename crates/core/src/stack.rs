//! Stack construction: the two atomic broadcast implementations, plus
//! the shared flow-control microprotocol.

use fortika_abcast::{AbcastConfig, AbcastModule};
use fortika_chaos::Scenario;
use fortika_consensus::{ConsensusConfig, ConsensusModule};
use fortika_fd::{FdConfig, FdModule, HeartbeatFd, OverlayFd, SuspicionWindow};
use fortika_framework::CompositeStack;
use fortika_mono::{MonoConfig, MonoNode, MonoOptimizations};
use fortika_net::{
    AppStateFactory, Cluster, ClusterConfig, Dissemination, Node, NodeFactory, ProcessId,
    StableStore,
};
use fortika_rbcast::{RbcastConfig, RbcastModule};
use fortika_sim::VTime;

pub use crate::flow::FlowControlModule;

/// Which of the paper's two implementations to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackKind {
    /// Microprotocol composition: flow control / abcast / consensus /
    /// rbcast / failure detector, each a black box to its neighbours.
    Modular,
    /// Everything merged in one module, optimizations O1–O3 enabled.
    Monolithic,
}

impl StackKind {
    /// Short lowercase label for tables (`"modular"`, `"monolithic"`).
    pub fn label(&self) -> &'static str {
        match self {
            StackKind::Modular => "modular",
            StackKind::Monolithic => "monolithic",
        }
    }
}

/// Protocol-level tunables shared by both stacks.
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// Flow-control window (outstanding own messages per process). The
    /// default of 3 yields the paper's ~M = 4 messages ordered per
    /// consensus instance at n = 3 under saturation.
    pub window: usize,
    /// Failure detector parameters (identical in both stacks).
    pub fd: FdConfig,
    /// Monolithic optimization switches (ablation benches flip these).
    pub mono_opts: MonoOptimizations,
    /// Modular stack: consensus module configuration.
    pub consensus: ConsensusConfig,
    /// Modular stack: reliable broadcast configuration.
    pub rbcast: RbcastConfig,
    /// Modular stack: abcast module configuration.
    pub abcast: AbcastConfig,
    /// Log-compaction snapshot cadence, applied to **both** stacks
    /// (overrides the per-stack `snapshot_interval` fields): fold the
    /// decided prefix into a snapshot every this many instances, and
    /// whenever the decision cache would otherwise evict an uncompacted
    /// decision. `0` disables snapshots — deep rejoins then stall once
    /// the prefix outgrows `decision_cache` (`*.join_unservable`).
    pub snapshot_interval: u64,
    /// Decision cache depth, applied to both stacks (overrides the
    /// per-stack `decision_cache` fields).
    pub decision_cache: usize,
    /// Windowed-sequencer depth α, applied to **both** stacks
    /// (overrides the per-stack `pipeline_depth` fields): how many
    /// consensus instances each process keeps in flight concurrently.
    /// `1` (the default) reproduces the paper's strictly sequential
    /// instance execution; larger depths overlap decision round-trips
    /// while decisions are still applied strictly in instance order.
    /// The effective batch supply is bounded by the flow-control
    /// [`window`](StackConfig::window): a deep pipeline only fills when
    /// the flow windows offer enough distinct messages for α disjoint
    /// batches.
    pub pipeline_depth: usize,
    /// How the modular stack disseminates batch payloads.
    ///
    /// `Direct` (the default) is the seed-faithful diffusion path —
    /// byte-identical benches. `Ring`/`Tree` offload payloads onto a
    /// dissemination topology and run consensus on value-id-sized
    /// descriptors (see `docs/DISSEMINATION.md`). The monolithic stack
    /// already targets its coordinator directly and ignores the knob.
    /// Incompatible with [`app_state`](StackConfig::app_state): the
    /// snapshot fold sees descriptor batches under an offloading
    /// strategy, not application payloads.
    pub dissemination: Dissemination,
    /// Optional application-state hook folded into snapshots: each
    /// process gets its own state machine, advanced on every delivered
    /// message, encoded into snapshots and restored on install (see
    /// `examples/replicated_kv.rs`).
    pub app_state: Option<AppStateFactory>,
    /// **Test-only fault hook** (debug builds only), applied to both
    /// stacks: skip persisting CT vote records to stable storage. This
    /// plants the classic lost-vote recovery bug — a process can ack a
    /// round, crash, revive without its lock and let a different value
    /// win — which the fuzz campaign must find and the counterexample
    /// minimizer must shrink (`tests/minimizer.rs`). A no-op in release
    /// builds.
    pub skip_vote_persist: bool,
    /// Initial voting member count for reconfiguration runs, applied to
    /// both stacks. `0` (the default) means "every process": the whole
    /// group votes and dynamic membership is dormant. Reconfiguration
    /// runs set this below the cluster capacity so processes
    /// `initial_members..n` start as learners (standby capacity that a
    /// log-decided `Add` can later promote to voters).
    pub initial_members: usize,
    /// Activation offset of log-decided reconfigurations, applied to
    /// both stacks: a change decided at instance `d` governs instances
    /// `d + reconfig_offset` on. Must stay ≥ the pipeline depth so no
    /// in-flight instance can be governed by a not-yet-replayed change.
    pub reconfig_offset: u64,
    /// **Test-only fault hook** (debug builds only), applied to both
    /// stacks: ignore decided reconfigurations entirely, so the process
    /// keeps voting with the initial configuration's quorum math and
    /// never reports config activations. This plants the stale-quorum
    /// reconfiguration bug the config-aware oracle must detect
    /// (`tests/reconfig_oracle.rs`). A no-op in release builds.
    pub skip_config_fence: bool,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            window: 3,
            fd: FdConfig::default(),
            mono_opts: MonoOptimizations::all(),
            consensus: ConsensusConfig::default(),
            rbcast: RbcastConfig::default(),
            abcast: AbcastConfig::default(),
            snapshot_interval: 256,
            decision_cache: 1024,
            pipeline_depth: 1,
            dissemination: Dissemination::Direct,
            app_state: None,
            skip_vote_persist: false,
            initial_members: 0,
            reconfig_offset: 8,
            skip_config_fence: false,
        }
    }
}

/// Builds one process's stack of the requested kind.
pub fn build_node(kind: StackKind, n: usize, me: ProcessId, cfg: &StackConfig) -> Box<dyn Node> {
    build_node_with_windows(kind, n, me, cfg, Vec::new())
}

/// Builds one process's stack with scripted false-suspicion windows
/// overlaid on its failure detector (the `fortika-chaos` hook; an empty
/// `windows` is exactly [`build_node`]).
pub fn build_node_with_windows(
    kind: StackKind,
    n: usize,
    me: ProcessId,
    cfg: &StackConfig,
    windows: Vec<SuspicionWindow>,
) -> Box<dyn Node> {
    let heartbeat = HeartbeatFd::new(n, me, cfg.fd.clone());
    // Only chaos runs pay for the overlay: windows relevant to this
    // process wrap the detector, everything else runs the bare core.
    let wraps = windows.iter().any(|w| w.observer == me);
    let app = cfg.app_state.as_ref().map(AppStateFactory::make);
    match kind {
        StackKind::Modular => {
            let fd_module: Box<dyn fortika_framework::Microprotocol> = if wraps {
                Box::new(FdModule::new(OverlayFd::new(n, me, heartbeat, windows)))
            } else {
                Box::new(FdModule::new(heartbeat))
            };
            Box::new(CompositeStack::new(vec![
                Box::new(FlowControlModule::new(cfg.window)),
                Box::new(AbcastModule::new(abcast_config(cfg))),
                Box::new(ConsensusModule::new(consensus_config(cfg)).with_app(app)),
                Box::new(RbcastModule::new(cfg.rbcast.clone())),
                fd_module,
            ]))
        }
        StackKind::Monolithic => {
            let fd: Box<dyn fortika_fd::FailureDetector> = if wraps {
                Box::new(OverlayFd::new(n, me, heartbeat, windows))
            } else {
                Box::new(heartbeat)
            };
            Box::new(MonoNode::new(mono_config(cfg), fd).with_app(app))
        }
    }
}

/// The modular abcast configuration with the stack-wide pipeline,
/// dissemination and membership knobs applied.
fn abcast_config(cfg: &StackConfig) -> AbcastConfig {
    assert!(
        cfg.app_state.is_none() || !cfg.dissemination.offloads(),
        "app_state folds application payloads and is incompatible with \
         offloaded dissemination (consensus orders descriptors there)"
    );
    AbcastConfig {
        pipeline_depth: cfg.pipeline_depth.max(1) as u64,
        dissemination: cfg.dissemination,
        initial_members: cfg.initial_members,
        ..cfg.abcast.clone()
    }
}

/// The modular consensus configuration with the stack-wide snapshot and
/// cache knobs applied.
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

/// The monolithic configuration with the stack-wide knobs applied.
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

/// Builds the whole cluster's nodes (index = process id).
pub fn build_nodes(kind: StackKind, n: usize, cfg: &StackConfig) -> Vec<Box<dyn Node>> {
    ProcessId::all(n)
        .map(|me| build_node(kind, n, me, cfg))
        .collect()
}

/// Builds the whole cluster's nodes with the scenario's scripted
/// suspicion windows wired into every failure detector.
pub fn build_nodes_with_windows(
    kind: StackKind,
    n: usize,
    cfg: &StackConfig,
    windows: &[SuspicionWindow],
) -> Vec<Box<dyn Node>> {
    ProcessId::all(n)
        .map(|me| build_node_with_windows(kind, n, me, cfg, windows.to_vec()))
        .collect()
}

/// Builds a **revived** process's stack (crash-recovery): the failure
/// detector is anchored at the restart instant `now` instead of time
/// zero, and each protocol layer resumes its durable state — consensus
/// vote records, the decided watermark, the rbcast sequence counter —
/// out of `stable`. Everything else starts fresh, and the stack
/// announces its rejoin to pull the decided prefix from peers.
pub fn build_restarted_node(
    kind: StackKind,
    n: usize,
    me: ProcessId,
    cfg: &StackConfig,
    windows: &[SuspicionWindow],
    now: VTime,
    stable: &StableStore,
) -> Box<dyn Node> {
    let heartbeat = HeartbeatFd::new_anchored(n, me, cfg.fd.clone(), now);
    let wraps = windows.iter().any(|w| w.observer == me);
    let app = cfg.app_state.as_ref().map(AppStateFactory::make);
    match kind {
        StackKind::Modular => {
            let fd_module: Box<dyn fortika_framework::Microprotocol> = if wraps {
                Box::new(FdModule::new(OverlayFd::new(
                    n,
                    me,
                    heartbeat,
                    windows.to_vec(),
                )))
            } else {
                Box::new(FdModule::new(heartbeat))
            };
            Box::new(CompositeStack::new(vec![
                Box::new(FlowControlModule::new(cfg.window)),
                Box::new(AbcastModule::resume(abcast_config(cfg), stable)),
                Box::new(ConsensusModule::resume(consensus_config(cfg), stable).with_app(app)),
                Box::new(RbcastModule::resume(cfg.rbcast.clone(), stable)),
                fd_module,
            ]))
        }
        StackKind::Monolithic => {
            let fd: Box<dyn fortika_fd::FailureDetector> = if wraps {
                Box::new(OverlayFd::new(n, me, heartbeat, windows.to_vec()))
            } else {
                Box::new(heartbeat)
            };
            Box::new(MonoNode::resume(mono_config(cfg), fd, stable).with_app(app))
        }
    }
}

/// A [`NodeFactory`] rebuilding stacks of the given kind/config on
/// restart — register it with [`Cluster::set_node_factory`] (or use
/// [`install_restart_factory`]) before running scenarios that contain
/// `ScenarioEvent::Restart`.
pub fn node_factory(
    kind: StackKind,
    n: usize,
    cfg: StackConfig,
    windows: Vec<SuspicionWindow>,
) -> NodeFactory {
    Box::new(move |me, now, stable| build_restarted_node(kind, n, me, &cfg, &windows, now, stable))
}

/// Convenience: registers a restart factory matching `kind`/`cfg` on
/// `cluster` (see [`node_factory`]).
pub fn install_restart_factory(
    cluster: &mut Cluster,
    kind: StackKind,
    cfg: &StackConfig,
    windows: &[SuspicionWindow],
) {
    let n = cluster.n();
    cluster.set_node_factory(node_factory(kind, n, cfg.clone(), windows.to_vec()));
}

/// Builds the cluster for one run of `n` `kind` stacks, provisioned for
/// `scenario` when one is given:
///
/// * standby capacity for its `AddNode` events: the cluster has
///   `scenario.capacity(n)` processes, and the standbys start as learners
///   (`initial_members = n` for reconfiguration runs);
/// * its windowed-sequencer depth and dissemination, upgrade-only: the
///   deeper depth wins, and a drawn Ring/Tree replaces only the Direct
///   default without an app-state fold (offloaded runs fold
///   descriptors), so an explicit override is never silently weakened;
/// * its scripted suspicion windows and a restart factory, so it may
///   revive crashed processes;
/// * standbys crashed at time zero, before its own events are applied,
///   so the revival an `AddNode` schedules always finds them crashed.
///
/// Without a scenario it builds `n` plain stacks and installs no restart
/// factory. `cluster_cfg` supplies the seed and models; its `n` is
/// replaced by the capacity.
pub fn provision_cluster(
    kind: StackKind,
    n: usize,
    stack: &StackConfig,
    scenario: Option<&Scenario>,
    mut cluster_cfg: ClusterConfig,
) -> Cluster {
    let mut stack = stack.clone();
    let capacity = scenario.map_or(n, |s| s.capacity(n));
    let windows = scenario
        .map(Scenario::suspicion_windows)
        .unwrap_or_default();
    if let Some(scenario) = scenario {
        stack.pipeline_depth = stack.pipeline_depth.max(scenario.pipeline_depth());
        if !stack.dissemination.offloads() && stack.app_state.is_none() {
            stack.dissemination = scenario.dissemination();
        }
        if !scenario.reconfigs().is_empty() && stack.initial_members == 0 {
            stack.initial_members = n;
        }
    }
    cluster_cfg.n = capacity;
    let nodes = build_nodes_with_windows(kind, capacity, &stack, &windows);
    let mut cluster = Cluster::new(cluster_cfg, nodes);
    if let Some(scenario) = scenario {
        install_restart_factory(&mut cluster, kind, &stack, &windows);
        for pid in n..capacity {
            cluster.schedule_crash(ProcessId(pid as u16), VTime::ZERO);
        }
        scenario.apply(&mut cluster);
    }
    cluster
}
