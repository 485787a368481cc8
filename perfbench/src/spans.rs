//! In-memory spans recorded around calls into each layer's public API.
//!
//! The benchmark never instruments the program itself: it wraps the
//! pieces it hands to the simulator — every [`Node`], every
//! [`Microprotocol`] given to [`CompositeStack::new`], and its own
//! [`Harness`](fortika::net::Harness) callbacks — and times each call.
//! A span knows its parent (the span that was open when it started), so
//! self time is a span's duration minus its children's, with nesting such
//! as `ClusterApi::submit` → `Node::on_request` inside a driver tick
//! attributed to the node and not to the tick.
//!
//! [`CompositeStack::new`]: fortika::framework::CompositeStack::new

use std::cell::{Cell, RefCell};
use std::time::Instant;

use bytes::Bytes;
use fortika::framework::{Event, EventKind, FrameworkCtx, Microprotocol, ModuleId};
use fortika::net::{Admission, AppRequest, Node, NodeCtx, ProcessId, TimerId};

/// What a span times. One variant per layer boundary the benchmark sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Cluster::run_until`: its self time is the sim queue plus the
    /// `net::cluster` transport.
    Kernel,
    /// The benchmark's own `Harness` callback for a notification the
    /// kernel drains after an event (delivery, app-ready, restart,
    /// snapshot, config).
    Tap,
    /// The benchmark's own `Harness` callback for a tick, which is a
    /// queued event of its own.
    Tick,
    /// `WorkloadDriver` callbacks.
    Driver,
    /// `DeliveryOracle` and `ReconfigInjector` calls.
    Chaos,
    /// A `CompositeStack` node handler; self time is framework dispatch.
    Framework,
    /// A `MonoNode` handler.
    Mono,
    /// The modular stack's microprotocols.
    Flow,
    Abcast,
    Consensus,
    Rbcast,
    Fd,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 12] = [
        Layer::Kernel,
        Layer::Tap,
        Layer::Tick,
        Layer::Driver,
        Layer::Chaos,
        Layer::Framework,
        Layer::Mono,
        Layer::Flow,
        Layer::Abcast,
        Layer::Consensus,
        Layer::Rbcast,
        Layer::Fd,
    ];

    /// Span name, after the crate (or module) the span times.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Kernel => "sim.run_until",
            Layer::Tap => "bench.tap",
            Layer::Tick => "bench.tick",
            Layer::Driver => "core.driver",
            Layer::Chaos => "chaos.oracle",
            Layer::Framework => "framework.stack",
            Layer::Mono => "mono.node",
            Layer::Flow => "flow",
            Layer::Abcast => "abcast",
            Layer::Consensus => "consensus",
            Layer::Rbcast => "rbcast",
            Layer::Fd => "fd",
        }
    }

    fn index(self) -> usize {
        Layer::ALL
            .iter()
            .position(|&l| l == self)
            .expect("listed in ALL")
    }

    /// The layer of a modular-stack microprotocol, by its `name()`.
    pub fn of_module(name: &str) -> Layer {
        match name {
            "flow-control" => Layer::Flow,
            "atomic-broadcast" => Layer::Abcast,
            "consensus" => Layer::Consensus,
            "reliable-broadcast" => Layer::Rbcast,
            "failure-detector" => Layer::Fd,
            other => panic!("unknown microprotocol {other:?}"),
        }
    }
}

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer whose API was called.
    pub layer: Layer,
    /// Host nanoseconds since recording started.
    pub start_ns: u64,
    /// Host nanoseconds since recording started.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
}

impl Span {
    /// Wall duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread (discarding any earlier ones).
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
    ON.with(|on| on.set(true));
}

/// Stops recording and returns the spans in start order.
pub fn stop() -> Vec<Span> {
    ON.with(|on| on.set(false));
    let rec = REC
        .with(|r| r.borrow_mut().take())
        .expect("recording was started");
    assert!(rec.open.is_empty(), "spans left open: {:?}", rec.open);
    rec.spans
}

fn enter(layer: Layer) -> u32 {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("recording is on");
        let idx = u32::try_from(rec.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        let parent = rec.open.last().copied().unwrap_or(ROOT);
        rec.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        rec.open.push(idx);
        idx
    })
}

fn exit(idx: u32) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("recording is on");
        let end_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans[idx as usize].end_ns = end_ns;
        assert_eq!(
            rec.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
    })
}

/// Runs `f` inside a span of `layer` when recording is on; otherwise
/// just runs `f`.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !ON.with(Cell::get) {
        return f();
    }
    let idx = enter(layer);
    let out = f();
    exit(idx);
    out
}

/// Per-layer sums over one span list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Self nanoseconds per layer (index as in [`Layer::ALL`]).
    pub self_ns: [u64; 12],
    /// Summed duration of root spans.
    pub root_ns: u64,
    /// Events the kernel popped off its queue: node handlers and tick
    /// callbacks directly inside `Kernel` spans. Notifications drained
    /// after an event are part of that event.
    pub kernel_events: u64,
}

impl LayerTotals {
    /// Self nanoseconds of `layer`.
    pub fn self_of(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }

    /// Adds another span list's totals.
    pub fn absorb(&mut self, other: &LayerTotals) {
        for (mine, theirs) in self.self_ns.iter_mut().zip(other.self_ns) {
            *mine += theirs;
        }
        self.root_ns += other.root_ns;
        self.kernel_events += other.kernel_events;
    }
}

/// Self time per layer: each span's duration minus the durations of its
/// direct children. Panics if a child outlasts its parent (a negative
/// self time), and checks that self times add up to the root spans'
/// wall time exactly.
pub fn totals(spans: &[Span]) -> LayerTotals {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut t = LayerTotals::default();
    for (s, &children) in spans.iter().zip(&child_ns) {
        let own = s.dur_ns().checked_sub(children).unwrap_or_else(|| {
            panic!(
                "negative self time in {}: {} ns span, {children} ns of children",
                s.layer.name(),
                s.dur_ns()
            )
        });
        t.self_ns[s.layer.index()] += own;
        if s.parent == ROOT {
            t.root_ns += s.dur_ns();
        } else if spans[s.parent as usize].layer == Layer::Kernel && s.layer != Layer::Tap {
            t.kernel_events += 1;
        }
    }
    assert_eq!(
        t.self_ns.iter().sum::<u64>(),
        t.root_ns,
        "self times must account for the root spans exactly"
    );
    t
}

/// A [`Node`] whose handlers run inside spans of one layer.
pub struct TimedNode {
    layer: Layer,
    inner: Box<dyn Node>,
}

thread_local! {
    /// `(requests, blocked)` admissions seen at node boundaries.
    static ADMISSIONS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Returns and resets the `(requests, blocked)` admission counts seen by
/// every [`TimedNode`] on this thread.
pub fn take_admissions() -> (u64, u64) {
    ADMISSIONS.with(|a| a.replace((0, 0)))
}

impl TimedNode {
    /// Wraps `inner`; its handlers are timed as `layer`.
    pub fn new(layer: Layer, inner: Box<dyn Node>) -> Self {
        TimedNode { layer, inner }
    }
}

impl Node for TimedNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        span(self.layer, || self.inner.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: ProcessId, bytes: Bytes) {
        span(self.layer, || self.inner.on_message(ctx, from, bytes));
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: TimerId, tag: u64) {
        span(self.layer, || self.inner.on_timer(ctx, timer, tag));
    }

    fn on_request(&mut self, ctx: &mut NodeCtx<'_>, req: AppRequest) -> Admission {
        let adm = span(self.layer, || self.inner.on_request(ctx, req));
        let blocked = u64::from(adm == Admission::Blocked);
        ADMISSIONS.with(|a| {
            let (requests, blocks) = a.get();
            a.set((requests + 1, blocks + blocked));
        });
        adm
    }
}

/// A [`Microprotocol`] whose handlers run inside spans of its layer.
pub struct TimedModule {
    layer: Layer,
    inner: Box<dyn Microprotocol>,
}

impl TimedModule {
    /// Wraps `inner`, timed under the layer its name maps to.
    pub fn new(inner: Box<dyn Microprotocol>) -> Self {
        TimedModule {
            layer: Layer::of_module(inner.name()),
            inner,
        }
    }
}

impl Microprotocol for TimedModule {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn module_id(&self) -> ModuleId {
        self.inner.module_id()
    }

    fn subscriptions(&self) -> &'static [EventKind] {
        self.inner.subscriptions()
    }

    fn on_start(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        span(self.layer, || self.inner.on_start(ctx));
    }

    fn on_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
        span(self.layer, || self.inner.on_event(ctx, ev));
    }

    fn on_net(&mut self, ctx: &mut FrameworkCtx<'_, '_>, from: ProcessId, bytes: Bytes) {
        span(self.layer, || self.inner.on_net(ctx, from, bytes));
    }

    fn on_timer(&mut self, ctx: &mut FrameworkCtx<'_, '_>, timer: TimerId, tag: u64) {
        span(self.layer, || self.inner.on_timer(ctx, timer, tag));
    }

    fn on_request(
        &mut self,
        ctx: &mut FrameworkCtx<'_, '_>,
        req: &AppRequest,
    ) -> Option<Admission> {
        span(self.layer, || self.inner.on_request(ctx, req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(layer: Layer, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            layer,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run_until [0,100] ⊃ node [10,30] ⊃ abcast [12,20].
        let spans = [
            s(Layer::Kernel, 0, 100, ROOT),
            s(Layer::Framework, 10, 30, 0),
            s(Layer::Abcast, 12, 20, 1),
        ];
        let t = totals(&spans);
        assert_eq!(t.self_of(Layer::Kernel), 80);
        assert_eq!(t.self_of(Layer::Framework), 12);
        assert_eq!(t.self_of(Layer::Abcast), 8);
        assert_eq!(t.root_ns, 100);
        assert_eq!(t.kernel_events, 1);
    }

    #[test]
    fn submit_inside_tick_is_not_subtracted_twice() {
        // A driver tick submits a request: the node's on_request nests
        // inside the tap and driver spans. Subtracting every node span
        // and every harness span from run_until would remove the
        // request's 30 ns twice and leave the kernel at -10 ns.
        let spans = [
            s(Layer::Kernel, 0, 60, ROOT),
            s(Layer::Tick, 5, 55, 0),
            s(Layer::Driver, 6, 54, 1),
            s(Layer::Framework, 10, 40, 2),
            s(Layer::Flow, 12, 20, 3),
        ];
        let naive = 60 - (55 - 5) - (40 - 10);
        assert!(naive < 0);
        let t = totals(&spans);
        assert_eq!(t.self_of(Layer::Kernel), 10);
        assert_eq!(t.self_of(Layer::Tick), 2);
        assert_eq!(t.self_of(Layer::Driver), 18);
        assert_eq!(t.self_of(Layer::Framework), 22);
        assert_eq!(t.self_of(Layer::Flow), 8);
        assert_eq!(
            t.kernel_events, 1,
            "the nested node call is not a kernel event"
        );
    }

    #[test]
    #[should_panic(expected = "negative self time")]
    fn child_longer_than_parent_is_rejected() {
        totals(&[s(Layer::Kernel, 0, 10, ROOT), s(Layer::Mono, 0, 20, 0)]);
    }

    #[test]
    fn recorder_nests_by_call_stack() {
        start();
        span(Layer::Kernel, || {
            span(Layer::Mono, || {});
            span(Layer::Tap, || span(Layer::Driver, || {}));
            span(Layer::Tick, || {});
        });
        span(Layer::Chaos, || {});
        let spans = stop();
        let parents: Vec<u32> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![ROOT, 0, 0, 2, 0, ROOT]);
        let t = totals(&spans);
        assert_eq!(
            t.kernel_events, 2,
            "a message handler and a tick; the delivery is not"
        );
        // Not recording: spans are free and nothing is kept.
        assert_eq!(span(Layer::Kernel, || 7), 7);
    }
}
