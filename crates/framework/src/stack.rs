//! Composite stacks: the composition kernel.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use fortika_net::wire::{Wire, WireReader, WireWriter};
use fortika_net::{Admission, AppRequest, LogCtx, MsgId, Node, NodeCtx, ProcessId, TimerId};
use fortika_sim::{VDur, VTime};

use crate::events::{Event, EventKind};

/// Wire-level identity of a microprotocol within a stack, used to demux
/// incoming messages (2 bytes on every message — the framework's framing
/// overhead).
pub type ModuleId = u16;

/// Number of tag bits reserved for module routing in timer tags.
const MODULE_TAG_SHIFT: u32 = 56;

/// A microprotocol: one module in a composite stack.
///
/// Modules interact with their neighbours **only** through
/// [`Event`]s and with the network through their own messages (demuxed by
/// [`Microprotocol::module_id`]). This is the structural constraint whose
/// performance price the paper measures.
pub trait Microprotocol {
    /// Human-readable name (diagnostics and counters).
    fn name(&self) -> &'static str;

    /// Wire demux id; must be unique within a stack.
    fn module_id(&self) -> ModuleId;

    /// Events this module wants to receive.
    fn subscriptions(&self) -> &'static [EventKind];

    /// Invoked once at simulation start.
    fn on_start(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        let _ = ctx;
    }

    /// Invoked for every subscribed event raised on the bus.
    fn on_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
        let _ = (ctx, ev);
    }

    /// Invoked when a network message addressed to this module arrives.
    fn on_net(&mut self, ctx: &mut FrameworkCtx<'_, '_>, from: ProcessId, bytes: Bytes) {
        let _ = (ctx, from, bytes);
    }

    /// Invoked when one of this module's timers fires.
    fn on_timer(&mut self, ctx: &mut FrameworkCtx<'_, '_>, timer: TimerId, tag: u64) {
        let _ = (ctx, timer, tag);
    }

    /// Offered each application request, top module first; the first
    /// module returning `Some` decides admission.
    fn on_request(
        &mut self,
        ctx: &mut FrameworkCtx<'_, '_>,
        req: &AppRequest,
    ) -> Option<Admission> {
        let _ = (ctx, req);
        None
    }
}

/// Execution context handed to microprotocol handlers.
///
/// Wraps the hosting process's [`NodeCtx`] and the stack's event bus.
pub struct FrameworkCtx<'a, 'b> {
    node: &'a mut NodeCtx<'b>,
    bus: &'a mut VecDeque<Event>,
    module_idx: usize,
    module_id: ModuleId,
}

impl FrameworkCtx<'_, '_> {
    /// This process's identity.
    pub fn pid(&self) -> ProcessId {
        self.node.pid()
    }

    /// Group size `n`.
    pub fn n(&self) -> usize {
        self.node.n()
    }

    /// Current virtual time.
    pub fn now(&self) -> VTime {
        self.node.now()
    }

    /// Raises an event on the stack bus (dispatched FIFO after the
    /// current handler returns — Cactus semantics).
    pub fn raise(&mut self, ev: Event) {
        self.bus.push_back(ev);
    }

    /// Sends `msg` from this module to its peer module at `dst`.
    ///
    /// The framework writes the 2-byte module id and the message into
    /// one exact-size buffer; `kind` tags the message for traffic
    /// accounting.
    pub fn send_net(&mut self, dst: ProcessId, kind: &'static str, msg: &impl Wire) {
        self.node.send(dst, kind, frame(self.module_id, msg));
    }

    /// Sends `msg` to every other process (n−1 unicasts, in pid order).
    /// Returns the encoded message as a view into the framed buffer the
    /// copies share (see [`multicast_net`](Self::multicast_net)).
    pub fn broadcast_net(&mut self, kind: &'static str, msg: &impl Wire) -> Bytes {
        let me = self.pid();
        self.multicast_net(ProcessId::all(self.n()).filter(|&p| p != me), kind, msg)
    }

    /// Sends `msg` to each of `dsts` in order; every copy shares one
    /// framed buffer. Returns the encoded message (the frame minus the
    /// module id) as a view into that buffer, so a sender that keeps
    /// what it sent can decode it without holding a second copy.
    pub fn multicast_net(
        &mut self,
        dsts: impl IntoIterator<Item = ProcessId>,
        kind: &'static str,
        msg: &impl Wire,
    ) -> Bytes {
        let framed = frame(self.module_id, msg);
        for dst in dsts {
            self.node.send(dst, kind, framed.clone());
        }
        framed.slice(std::mem::size_of::<ModuleId>()..)
    }

    /// Arms a timer owned by this module. `tag` must fit in 56 bits.
    pub fn set_timer(&mut self, delay: VDur, tag: u64) -> TimerId {
        assert!(tag < (1 << MODULE_TAG_SHIFT), "timer tag too large");
        let full = ((self.module_idx as u64) << MODULE_TAG_SHIFT) | tag;
        self.node.set_timer(delay, full)
    }

    /// Cancels a pending timer.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.node.cancel_timer(id);
    }

    /// Reports an `adeliver` to the application/harness.
    pub fn deliver(&mut self, msg: MsgId, payload_len: u32) {
        self.node.deliver(msg, payload_len);
    }

    /// Signals that flow control re-opened (see
    /// [`fortika_net::Harness::on_app_ready`]).
    pub fn app_ready(&mut self) {
        self.node.app_ready();
    }

    /// This process's incarnation (0 until its first crash-recovery).
    pub fn incarnation(&self) -> u32 {
        self.node.incarnation()
    }

    /// Writes to the process's stable store (survives restarts); see
    /// [`fortika_net::NodeCtx::persist`]. Modules must namespace their
    /// keys (high byte) — the store is shared by the whole stack.
    pub fn persist(&mut self, key: u64, value: bytes::Bytes) {
        self.node.persist(key, value);
    }

    /// Increments a free-form protocol counter.
    pub fn bump(&mut self, name: &'static str, by: u64) {
        self.node.bump(name, by);
    }

    /// Charges extra CPU to the current handler (rarely needed; the
    /// framework already charges per-dispatch costs).
    pub fn charge(&mut self, cost: VDur) {
        self.node.charge(cost);
    }

    /// The cluster's cost model, for modules that charge custom costs.
    pub fn costs(&self) -> &fortika_net::CostModel {
        self.node.costs()
    }

    /// True if event tracing is recording this run; see
    /// [`fortika_net::NodeCtx::trace_enabled`].
    pub fn trace_enabled(&self) -> bool {
        self.node.trace_enabled()
    }

    /// Records a protocol lifecycle marker for `instance` of `stack`;
    /// a no-op when tracing is off — see
    /// [`fortika_net::NodeCtx::trace_span`].
    pub fn trace_span(
        &mut self,
        stack: &'static str,
        instance: u64,
        phase: &'static str,
        detail: u64,
    ) {
        self.node.trace_span(stack, instance, phase, detail);
    }
}

/// The replica log's view of a module context: module-framed sends,
/// everything else delegated to the hosting process's [`NodeCtx`]. The
/// stable-store deletes, durability charges and harness reports only the
/// replica log makes are reached through this trait.
impl LogCtx for FrameworkCtx<'_, '_> {
    fn n(&self) -> usize {
        self.node.n()
    }
    fn now(&self) -> VTime {
        self.node.now()
    }
    fn costs(&self) -> &fortika_net::CostModel {
        self.node.costs()
    }
    fn send_msg(&mut self, to: ProcessId, kind: &'static str, msg: &impl Wire) {
        self.send_net(to, kind, msg);
    }
    fn broadcast_msg(&mut self, kind: &'static str, msg: &impl Wire) {
        self.broadcast_net(kind, msg);
    }
    fn persist(&mut self, key: u64, value: Bytes) {
        self.node.persist(key, value);
    }
    fn unpersist(&mut self, key: u64) {
        self.node.unpersist(key);
    }
    fn charge_durability(&mut self, cost: VDur) {
        self.node.charge_durability(cost);
    }
    fn note_snapshot(&mut self, stamp: fortika_net::SnapshotStamp) {
        self.node.note_snapshot(stamp);
    }
    fn note_config(&mut self, stamp: fortika_net::ConfigStamp) {
        self.node.note_config(stamp);
    }
    fn bump(&mut self, name: &'static str, by: u64) {
        self.node.bump(name, by);
    }
    fn trace_span(&mut self, stack: &'static str, instance: u64, phase: &'static str, detail: u64) {
        self.node.trace_span(stack, instance, phase, detail);
    }
}

/// The framed wire form of a module message: module id, then `msg`.
fn frame(module_id: ModuleId, msg: &impl Wire) -> Bytes {
    let mut w = WireWriter::with_capacity(2 + msg.encoded_len());
    w.put_u16(module_id);
    msg.encode(&mut w);
    w.finish()
}

/// A stack of microprotocols composed on one process.
///
/// Implements [`Node`], so a composite stack plugs straight into the
/// cluster harness. Event dispatch is synchronous and FIFO; every handler
/// invocation charges one `dispatch` cost from the cluster's
/// [`CostModel`](fortika_net::CostModel) — the framework's per-hop CPU
/// price.
///
/// # Panics
///
/// Construction panics if two modules share a [`ModuleId`].
pub struct CompositeStack {
    modules: Vec<Box<dyn Microprotocol>>,
    by_id: BTreeMap<ModuleId, usize>,
    subs: BTreeMap<EventKind, Vec<usize>>,
    bus: VecDeque<Event>,
}

impl CompositeStack {
    /// Composes a stack; `modules` are ordered top (application side)
    /// to bottom (network side). Request admission is offered top-down.
    pub fn new(modules: Vec<Box<dyn Microprotocol>>) -> Self {
        let mut by_id = BTreeMap::new();
        let mut subs: BTreeMap<EventKind, Vec<usize>> = BTreeMap::new();
        for (idx, m) in modules.iter().enumerate() {
            let prev = by_id.insert(m.module_id(), idx);
            assert!(
                prev.is_none(),
                "duplicate module id {} ({})",
                m.module_id(),
                m.name()
            );
            for &kind in m.subscriptions() {
                subs.entry(kind).or_default().push(idx);
            }
        }
        CompositeStack {
            modules,
            by_id,
            subs,
            bus: VecDeque::new(),
        }
    }

    /// Number of composed modules.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// True if the stack has no modules.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    fn drain_bus(&mut self, node: &mut NodeCtx<'_>) {
        // FIFO dispatch; events raised by handlers append to the back.
        while let Some(ev) = self.bus.pop_front() {
            let kind = ev.kind();
            let Some(subscribers) = self.subs.get(&kind) else {
                continue;
            };
            // Indices are stable: modules are never added after build.
            for idx in subscribers.clone() {
                node.charge_dispatch();
                let module_id = self.modules[idx].module_id();
                let mut ctx = FrameworkCtx {
                    node,
                    bus: &mut self.bus,
                    module_idx: idx,
                    module_id,
                };
                self.modules[idx].on_event(&mut ctx, &ev);
            }
        }
    }
}

impl Node for CompositeStack {
    fn on_start(&mut self, node: &mut NodeCtx<'_>) {
        for idx in 0..self.modules.len() {
            node.charge_dispatch();
            let module_id = self.modules[idx].module_id();
            let mut ctx = FrameworkCtx {
                node,
                bus: &mut self.bus,
                module_idx: idx,
                module_id,
            };
            self.modules[idx].on_start(&mut ctx);
        }
        self.drain_bus(node);
    }

    fn on_message(&mut self, node: &mut NodeCtx<'_>, from: ProcessId, bytes: Bytes) {
        let mut r = WireReader::new(bytes);
        let Ok(module_id) = r.get_u16() else {
            node.bump("framework.garbage", 1);
            return;
        };
        let payload = r.take_rest();
        let Some(&idx) = self.by_id.get(&module_id) else {
            node.bump("framework.unroutable", 1);
            return;
        };
        node.charge_dispatch();
        let mut ctx = FrameworkCtx {
            node,
            bus: &mut self.bus,
            module_idx: idx,
            module_id,
        };
        self.modules[idx].on_net(&mut ctx, from, payload);
        self.drain_bus(node);
    }

    fn on_timer(&mut self, node: &mut NodeCtx<'_>, timer: TimerId, tag: u64) {
        let idx = (tag >> MODULE_TAG_SHIFT) as usize;
        let user_tag = tag & ((1 << MODULE_TAG_SHIFT) - 1);
        if idx >= self.modules.len() {
            node.bump("framework.bad_timer", 1);
            return;
        }
        node.charge_dispatch();
        let module_id = self.modules[idx].module_id();
        let mut ctx = FrameworkCtx {
            node,
            bus: &mut self.bus,
            module_idx: idx,
            module_id,
        };
        self.modules[idx].on_timer(&mut ctx, timer, user_tag);
        self.drain_bus(node);
    }

    fn on_request(&mut self, node: &mut NodeCtx<'_>, req: AppRequest) -> Admission {
        let mut decision = Admission::Blocked;
        for idx in 0..self.modules.len() {
            node.charge_dispatch();
            let module_id = self.modules[idx].module_id();
            let mut ctx = FrameworkCtx {
                node,
                bus: &mut self.bus,
                module_idx: idx,
                module_id,
            };
            if let Some(adm) = self.modules[idx].on_request(&mut ctx, &req) {
                decision = adm;
                break;
            }
        }
        self.drain_bus(node);
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortika_net::{AppMsg, Cluster, ClusterConfig};

    /// Top module: admits requests and raises them as events.
    struct Top;
    impl Microprotocol for Top {
        fn name(&self) -> &'static str {
            "top"
        }
        fn module_id(&self) -> ModuleId {
            10
        }
        fn subscriptions(&self) -> &'static [EventKind] {
            &[EventKind::Adelivered]
        }
        fn on_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
            if let Event::Adelivered(ids) = ev {
                ctx.bump("top.adelivered", ids.len() as u64);
            }
        }
        fn on_request(
            &mut self,
            ctx: &mut FrameworkCtx<'_, '_>,
            req: &AppRequest,
        ) -> Option<Admission> {
            let AppRequest::Abcast(m) = req;
            ctx.raise(Event::AbcastRequest(m.clone()));
            Some(Admission::Accepted)
        }
    }

    /// Bottom module: ships admitted messages to peers; echoes deliveries.
    struct Bottom;
    impl Microprotocol for Bottom {
        fn name(&self) -> &'static str {
            "bottom"
        }
        fn module_id(&self) -> ModuleId {
            20
        }
        fn subscriptions(&self) -> &'static [EventKind] {
            &[EventKind::AbcastRequest]
        }
        fn on_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
            if let Event::AbcastRequest(m) = ev {
                ctx.broadcast_net("bottom.fwd", &m.payload);
                ctx.raise(Event::Adelivered(vec![m.id]));
            }
        }
        fn on_net(&mut self, ctx: &mut FrameworkCtx<'_, '_>, from: ProcessId, bytes: Bytes) {
            ctx.bump("bottom.rx", 1);
            let _ = (from, bytes);
        }
    }

    fn stack() -> Box<dyn Node> {
        Box::new(CompositeStack::new(vec![Box::new(Top), Box::new(Bottom)]))
    }

    #[test]
    fn events_flow_between_modules_and_network() {
        let cfg = ClusterConfig::instant(2, 1);
        let mut cluster = Cluster::new(cfg, vec![stack(), stack()]);
        let msg = AppMsg::new(MsgId::new(ProcessId(0), 0), Bytes::from_static(b"hello"));
        cluster.run_idle(VTime::ZERO); // run on_start
        let (adm, _) = cluster.submit(ProcessId(0), AppRequest::Abcast(msg));
        assert_eq!(adm, Admission::Accepted);
        cluster.run_idle(VTime::ZERO + VDur::secs(1));
        assert_eq!(cluster.counters().kind("bottom.fwd").msgs, 1);
        assert_eq!(cluster.counters().event("bottom.rx"), 1);
        assert_eq!(cluster.counters().event("top.adelivered"), 1);
    }

    #[test]
    fn dispatch_cost_charged_per_hop() {
        let mut cfg = ClusterConfig::instant(2, 1);
        cfg.cost.dispatch = VDur::micros(10);
        let mut cluster = Cluster::new(cfg, vec![stack(), stack()]);
        cluster.run_idle(VTime::ZERO);
        let before = cluster.cpu_busy(ProcessId(0));
        let msg = AppMsg::new(MsgId::new(ProcessId(0), 0), Bytes::from_static(b"x"));
        cluster.submit(ProcessId(0), AppRequest::Abcast(msg));
        let spent = cluster.cpu_busy(ProcessId(0)).saturating_sub(before);
        // Hops on p1: on_request offer (1) + AbcastRequest dispatch (1)
        // + Adelivered dispatch (1) = 3 dispatches of 10 µs.
        assert_eq!(spent, VDur::micros(30));
    }

    #[test]
    #[should_panic(expected = "duplicate module id")]
    fn duplicate_module_ids_rejected() {
        let _ = CompositeStack::new(vec![Box::new(Top), Box::new(Top)]);
    }

    #[test]
    fn unroutable_messages_counted_not_fatal() {
        struct Rogue;
        impl Microprotocol for Rogue {
            fn name(&self) -> &'static str {
                "rogue"
            }
            fn module_id(&self) -> ModuleId {
                30
            }
            fn subscriptions(&self) -> &'static [EventKind] {
                &[]
            }
            fn on_start(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
                if ctx.pid() == ProcessId(0) {
                    // Send to a module id that does not exist at the peer.
                    ctx.send_net(ProcessId(1), "rogue.msg", &b'?');
                }
            }
        }
        let cfg = ClusterConfig::instant(2, 1);
        let nodes: Vec<Box<dyn Node>> = vec![
            Box::new(CompositeStack::new(vec![Box::new(Rogue)])),
            Box::new(CompositeStack::new(vec![Box::new(Top), Box::new(Bottom)])),
        ];
        let mut cluster = Cluster::new(cfg, nodes);
        cluster.run_idle(VTime::ZERO + VDur::secs(1));
        assert_eq!(cluster.counters().event("framework.unroutable"), 1);
    }
}
