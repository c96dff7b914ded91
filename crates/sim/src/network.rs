//! The synchronous network engine.
//!
//! Drives routers and NICs through a deterministic per-cycle schedule:
//!
//! 1. apply credit returns scheduled for this cycle;
//! 2. apply flit arrivals (buffer writes / NIC deliveries);
//! 3. NIC injection (one flit per NIC per cycle);
//! 4. switch allocation at every router; granted flits traverse their
//!    leg (`ST+LT`) and are scheduled to arrive at its end;
//! 5. accounting (clock gating, cycle counters).
//!
//! The engine enforces the SMART preset invariant at runtime: **no two
//! flits may cross the same link in the same cycle** — if a preset
//! compiler produced plans that violate single-cycle exclusivity, the
//! engine panics rather than silently time-multiplexing the wire.
//!
//! A [`Network`] runs the fabric as one or more horizontal row bands
//! (its shard count). The schedule above is stepped per band; one band
//! steps inline on the caller's thread, several step on scoped threads
//! and exchange cross-band events once per cycle. Every shard count
//! gives bit-identical results.

use crate::counters::ActivityCounters;
use crate::flit::Packet;
use crate::forward::{FlowTable, Sender};
use crate::nic::Nic;
use crate::shard::{self, lock_free_of_poison, Fabric, Shard};
use crate::stats::SimStats;
use crate::telemetry::{CycleView, MetricsCollector, TelemetryConfig, TelemetrySeries};
use crate::topology::{Direction, LinkId, NodeId, Topology, PORTS};
use crate::trace::Tracer;
use crate::traffic::TrafficSource;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Sizing parameters shared by all designs (Table II defaults via
/// [`SimConfig::paper_4x4`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Fabric shape (mesh or torus) and dimensions.
    pub topology: Topology,
    /// Virtual channels per input port.
    pub vcs_per_port: usize,
    /// Flits of buffering per VC.
    pub vc_depth: usize,
    /// Flits per packet (packet size / flit size).
    pub flits_per_packet: u8,
}

impl SimConfig {
    /// Table II: 4×4 mesh, 2 VCs × 10 flits, 256-bit packets of 32-bit
    /// flits.
    #[must_use]
    pub fn paper_4x4() -> Self {
        SimConfig {
            topology: crate::topology::Mesh::paper_4x4().into(),
            vcs_per_port: 2,
            vc_depth: 10,
            flits_per_packet: 8,
        }
    }

    /// Validate invariants (virtual cut-through needs whole packets to
    /// fit in one VC).
    ///
    /// # Panics
    ///
    /// Panics if a packet cannot fit in a VC buffer.
    pub fn validate(&self) {
        assert!(
            usize::from(self.flits_per_packet) <= self.vc_depth,
            "virtual cut-through requires vc_depth >= flits_per_packet"
        );
        assert!(self.vcs_per_port > 0 && self.flits_per_packet > 0);
    }
}

/// Ring-buffer depth for scheduled events (max lookahead is 4 cycles).
pub(crate) const RING: usize = 16;

/// The precomputed reverse path of a credit: which sender's free-VC
/// queue gets the freed VC back, and the leg cost charged to the credit
/// network.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CreditPath {
    pub(crate) sender: Sender,
    pub(crate) crossbars: u32,
    pub(crate) mm: f64,
}

/// Shard counts above this are clamped: the band-owner table stores
/// band ids as bytes.
const MAX_SHARDS: usize = u8::MAX as usize;

/// The simulated network: routers, NICs and in-flight events, stepped as
/// one or more row bands.
#[derive(Debug)]
pub struct Network {
    cfg: SimConfig,
    fabric: Fabric,
    bands: Vec<Shard>,
    cycle: u64,
    /// Counters, statistics and trace gathered from the bands after
    /// every threaded session; `None` with one band, whose own state is
    /// read directly.
    merged: Option<Merged>,
}

/// The whole-fabric view of a multi-band engine.
#[derive(Debug)]
struct Merged {
    counters: ActivityCounters,
    stats: SimStats,
    tracer: Option<Tracer>,
}

/// What a session runs until.
enum Goal {
    /// Exactly this many cycles.
    Fixed(u64),
    /// Until quiescent, at most this many cycles.
    Drain(u64),
}

impl Network {
    /// Build a network for `flows` under `cfg`, split into `shards` row
    /// bands. The count is clamped to `1..=min(height, 255)`: every band
    /// owns at least one row, and `0` means one band. One band steps
    /// inline on the caller's thread; more bands step on scoped threads.
    /// Results are bit-identical at every shard count.
    ///
    /// # Panics
    ///
    /// Panics if the configuration or the flow plans are inconsistent
    /// (see [`FlowTable::sender_endpoints`]).
    #[must_use]
    pub fn new(cfg: SimConfig, flows: FlowTable, shards: usize) -> Self {
        cfg.validate();
        let rows = usize::from(cfg.topology.height());
        let k = shards.clamp(1, rows.min(MAX_SHARDS));
        let (fabric, bands) = shard::partition(cfg, flows, k);
        let merged = (k > 1).then(|| Merged {
            counters: ActivityCounters::new(),
            stats: SimStats::new(),
            tracer: None,
        });
        Network {
            cfg,
            fabric,
            bands,
            cycle: 0,
            merged,
        }
    }

    /// Number of row bands the engine runs.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.bands.len()
    }

    /// Record micro-architectural events (up to `capacity` of them) for
    /// journey logs, VCD dumps and counter cross-validation. Works at
    /// every shard count: each band records its own events and a
    /// multi-band engine collects them, band by band, after each
    /// session. Past `capacity`, bands keep different subsets than a
    /// one-band run would, but `records().len() + dropped()` is the same.
    pub fn enable_tracing(&mut self, capacity: usize) {
        for b in &mut self.bands {
            b.tracer = Some(Tracer::with_capacity(capacity));
        }
        if let Some(m) = self.merged.as_mut() {
            m.tracer = Some(Tracer::with_capacity(capacity));
        }
    }

    /// The tracer, if tracing is enabled.
    #[must_use]
    pub fn tracer(&self) -> Option<&Tracer> {
        match self.merged.as_ref() {
            Some(m) => m.tracer.as_ref(),
            None => self.bands[0].tracer.as_ref(),
        }
    }

    /// Start collecting windowed telemetry (see [`crate::telemetry`]):
    /// one full-fabric-sized collector per band, all windowed from the
    /// current cycle and seeded with the current cumulative link counts.
    /// Each probe event fires in exactly one band, so the merged series
    /// is the same at every shard count. Replaces any collectors already
    /// attached.
    pub fn set_telemetry(&mut self, cfg: TelemetryConfig) {
        let n = self.cfg.topology.len();
        for b in &mut self.bands {
            let mut collector = Box::new(MetricsCollector::attach(cfg, n, n * PORTS, self.cycle));
            collector.seed_links(&b.link_flits);
            b.telemetry = Some(collector);
        }
    }

    /// Detach and merge the per-band collectors, flushing the trailing
    /// partial window. `None` if telemetry was never enabled.
    pub fn take_telemetry(&mut self) -> Option<TelemetrySeries> {
        let cycle = self.cycle;
        let series: Vec<TelemetrySeries> = self
            .bands
            .iter_mut()
            .filter_map(|b| {
                let collector = b.telemetry.take()?;
                Some(collector.finish(&CycleView {
                    cycle,
                    injected: b.counters.packets_injected,
                    delivered: b.counters.packets_delivered,
                    buffered: b.bank.total_buffered(),
                    link_flits: &b.link_flits,
                }))
            })
            .collect();
        if series.is_empty() {
            return None;
        }
        assert_eq!(
            series.len(),
            self.bands.len(),
            "telemetry must be attached to every band or none"
        );
        Some(TelemetrySeries::merge(&series))
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> SimConfig {
        self.cfg
    }

    /// The topology being simulated.
    #[must_use]
    pub fn topology(&self) -> Topology {
        self.cfg.topology
    }

    /// The flow table in use.
    #[must_use]
    pub fn flows(&self) -> &FlowTable {
        &self.fabric.flows
    }

    /// Current cycle (cycles fully processed).
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Activity counters accumulated since the last reset.
    #[must_use]
    pub fn counters(&self) -> &ActivityCounters {
        match self.merged.as_ref() {
            Some(m) => &m.counters,
            None => &self.bands[0].counters,
        }
    }

    /// Latency statistics.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        match self.merged.as_ref() {
            Some(m) => &m.stats,
            None => &self.bands[0].stats,
        }
    }

    /// Only packets *generated* at or after `cycle` contribute to
    /// latency statistics (warm-up exclusion).
    pub fn set_stats_from(&mut self, cycle: u64) {
        for b in &mut self.bands {
            b.stats_from = cycle;
        }
    }

    /// Zero the activity counters (e.g. at the end of warm-up).
    pub fn reset_counters(&mut self) {
        for b in &mut self.bands {
            b.counters = ActivityCounters::new();
            b.link_flits.fill(0);
            if let Some(t) = b.telemetry.as_mut() {
                t.seed_links(&b.link_flits);
            }
        }
        self.refresh_merged();
    }

    /// Flits carried per link since the last counter reset — the
    /// utilization heatmap's raw data. A borrowing iterator summing the
    /// bands' dense per-link arrays (no per-call allocation); links that
    /// carried nothing are skipped.
    pub fn link_flit_counts(&self) -> impl Iterator<Item = (LinkId, u64)> + '_ {
        (0..self.cfg.topology.len() * PORTS)
            .map(|i| (i, self.bands.iter().map(|b| b.link_flits[i]).sum()))
            .filter(|&(_, n)| n > 0)
            .map(|(i, n)| {
                let from = NodeId((i / PORTS) as u16);
                let dir = Direction::from_index(i % PORTS);
                (LinkId { from, dir }, n)
            })
    }

    /// Queue a generated packet at its source NIC, interning its
    /// metadata into the owning band's packet arena.
    ///
    /// # Panics
    ///
    /// Panics if the packet's flow is unknown or its src/dst disagree
    /// with the flow's route.
    pub fn offer(&mut self, packet: Packet) {
        let b = self.fabric.owner_of(packet.src);
        self.bands[b].offer(packet, &self.fabric);
    }

    /// Advance one cycle. With several bands this is a one-cycle
    /// threaded session; prefer [`Network::run_with`] or
    /// [`Network::drain`], which amortize the thread spawn.
    pub fn step(&mut self) {
        self.run_session(None, Goal::Fixed(1));
    }

    /// Run `cycles` cycles, pulling packets from `traffic` each cycle.
    /// Traffic generation stays on the caller's thread, so one RNG
    /// stream is consumed in the same order at every shard count.
    pub fn run_with(&mut self, traffic: &mut dyn TrafficSource, cycles: u64) {
        self.run_session(Some(traffic), Goal::Fixed(cycles));
    }

    /// `true` when no packet is queued, buffered, or in flight anywhere.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.bands.iter().all(Shard::is_quiescent)
    }

    /// Step until quiescent, up to `max_cycles`. Returns `true` if the
    /// network drained (the precondition for reconfiguration, Section V).
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        if !self.is_quiescent() {
            self.run_session(None, Goal::Drain(max_cycles));
        }
        self.is_quiescent()
    }

    /// Injection backlog across all NICs.
    #[must_use]
    pub fn total_backlog(&self) -> usize {
        self.bands
            .iter()
            .flat_map(|b| &b.nics)
            .map(Nic::backlog)
            .sum()
    }

    /// Run cycles until `goal`.
    fn run_session(&mut self, traffic: Option<&mut dyn TrafficSource>, goal: Goal) {
        if self.bands.len() == 1 {
            self.run_inline(traffic, goal);
        } else {
            self.run_threaded(traffic, goal);
            self.refresh_merged();
        }
    }

    /// The one-band session: every cycle steps on the caller's thread.
    fn run_inline(&mut self, mut traffic: Option<&mut dyn TrafficSource>, goal: Goal) {
        let band = &mut self.bands[0];
        let mut ran = 0;
        loop {
            let done = match goal {
                Goal::Fixed(n) => ran == n,
                Goal::Drain(max) => ran == max || band.is_quiescent(),
            };
            if done {
                return;
            }
            if let Some(t) = traffic.as_deref_mut() {
                for p in t.generate(self.cycle) {
                    band.offer(p, &self.fabric);
                }
            }
            band.step(self.cycle, &self.fabric);
            band.release_links(self.cycle, &self.fabric);
            self.cycle += 1;
            ran += 1;
        }
    }

    /// The multi-band session: spawn one worker per band and run cycles
    /// under three barriers each. Per cycle the coordinator fills the
    /// offer boxes, then barrier **A** releases the workers to step;
    /// barrier **B** (all outboxes complete) releases the boundary
    /// exchange, applied in ascending source-band order, and the guard
    /// release; each worker publishes its quiescence flag and barrier
    /// **C** hands control back to the coordinator.
    fn run_threaded(&mut self, mut traffic: Option<&mut dyn TrafficSource>, goal: Goal) {
        let k = self.bands.len();
        let start_cycle = self.cycle;
        if matches!(goal, Goal::Fixed(0)) {
            return;
        }

        let panicked = AtomicBool::new(false);
        let stop = AtomicBool::new(false);
        let quiet: Vec<AtomicBool> = (0..k).map(|_| AtomicBool::new(false)).collect();
        let barrier = CycleBarrier::new(k + 1, &panicked);
        let mut ran: u64 = 0;
        let mut all_quiet = false;

        let fabric = &self.fabric;
        std::thread::scope(|scope| {
            for (i, band) in self.bands.iter_mut().enumerate() {
                let (barrier, stop, quiet) = (&barrier, &stop, &quiet);
                let sentinel_flag = &panicked;
                scope.spawn(move || {
                    let _sentinel = PanicSentinel(sentinel_flag);
                    let mut c = start_cycle;
                    loop {
                        if !barrier.wait() || stop.load(Ordering::SeqCst) {
                            return;
                        }
                        let mut offers =
                            std::mem::take(&mut *lock_free_of_poison(&fabric.offer_box[i]));
                        for p in offers.drain(..) {
                            band.offer(p, fabric);
                        }
                        *lock_free_of_poison(&fabric.offer_box[i]) = offers;
                        band.step(c, fabric);
                        if !barrier.wait() {
                            return;
                        }
                        band.transfer_in(fabric);
                        band.release_links(c, fabric);
                        quiet[i].store(band.is_quiescent(), Ordering::SeqCst);
                        if !barrier.wait() {
                            return;
                        }
                        c += 1;
                    }
                });
            }

            // Coordinator.
            let _sentinel = PanicSentinel(&panicked);
            let mut c = start_cycle;
            loop {
                let should_stop = match goal {
                    Goal::Fixed(n) => ran == n,
                    Goal::Drain(max) => all_quiet || ran == max,
                };
                if should_stop {
                    stop.store(true, Ordering::SeqCst);
                } else if let Some(t) = traffic.as_deref_mut() {
                    for p in t.generate(c) {
                        let s = fabric.owner_of(p.src);
                        lock_free_of_poison(&fabric.offer_box[s]).push(p);
                    }
                }
                if !barrier.wait() || should_stop {
                    break;
                }
                if !barrier.wait() || !barrier.wait() {
                    break;
                }
                all_quiet = quiet.iter().all(|q| q.load(Ordering::SeqCst));
                c += 1;
                ran += 1;
            }
        });

        self.cycle = start_cycle + ran;
    }

    /// Rebuild a multi-band engine's whole-fabric counters and
    /// statistics from its bands, moving newly traced events into the
    /// merged tracer in band order.
    fn refresh_merged(&mut self) {
        let Some(m) = self.merged.as_mut() else {
            return;
        };
        m.counters = ActivityCounters::new();
        m.stats = SimStats::new();
        for b in &mut self.bands {
            m.counters.merge(&b.counters);
            m.stats.merge(&b.stats);
            if let (Some(t), Some(bt)) = (m.tracer.as_mut(), b.tracer.as_mut()) {
                t.absorb(bt);
            }
        }
        // Bands advance in lockstep: the fabric's cycle count is the
        // common count, not the k-fold sum.
        m.counters.cycles = self.bands[0].counters.cycles;
    }
}

/// A sense-reversing spin barrier with a shared panic flag: a worker
/// that panics mid-cycle (e.g. a preset violation) never reaches the
/// barrier, so waiters watch the flag instead of deadlocking. `wait`
/// returns `false` when a peer panicked; callers bail out quietly and
/// the scope join re-raises the original panic.
struct CycleBarrier<'a> {
    count: AtomicUsize,
    generation: AtomicU64,
    parties: usize,
    panicked: &'a AtomicBool,
}

impl<'a> CycleBarrier<'a> {
    fn new(parties: usize, panicked: &'a AtomicBool) -> Self {
        CycleBarrier {
            count: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            parties,
            panicked,
        }
    }

    fn wait(&self) -> bool {
        let gen = self.generation.load(Ordering::SeqCst);
        if self.count.fetch_add(1, Ordering::SeqCst) + 1 == self.parties {
            self.count.store(0, Ordering::SeqCst);
            self.generation.store(gen + 1, Ordering::SeqCst);
            !self.panicked.load(Ordering::SeqCst)
        } else {
            while self.generation.load(Ordering::SeqCst) == gen {
                if self.panicked.load(Ordering::SeqCst) {
                    return false;
                }
                std::thread::yield_now();
            }
            !self.panicked.load(Ordering::SeqCst)
        }
    }
}

/// Sets the shared panic flag if its thread unwinds, so barrier waiters
/// wake up instead of spinning forever.
struct PanicSentinel<'a>(&'a AtomicBool);

impl Drop for PanicSentinel<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlowId, PacketId};
    use crate::route::SourceRoute;
    use crate::traffic::ScriptedTraffic;

    fn one_flow_net(src: u16, dst: u16) -> (Network, FlowId) {
        let cfg = SimConfig::paper_4x4();
        let flow = FlowId(0);
        let route = SourceRoute::xy(cfg.topology, NodeId(src), NodeId(dst)).unwrap();
        let table = FlowTable::mesh_baseline(cfg.topology, &[(flow, route)]);
        (Network::new(cfg, table, 1), flow)
    }

    fn packet(flow: FlowId, src: u16, dst: u16, gen: u64, n: u8) -> Packet {
        Packet {
            id: PacketId(gen),
            flow,
            src: NodeId(src),
            dst: NodeId(dst),
            gen_cycle: gen,
            num_flits: n,
        }
    }

    #[test]
    fn mesh_zero_load_latency_matches_formula() {
        // 1 hop: 8 cycles; 2 hops: 12; 6 hops: 28 (= 4H + 4).
        for (src, dst, hops) in [(9u16, 10u16, 1u64), (0, 2, 2), (0, 15, 6)] {
            let (mut net, flow) = one_flow_net(src, dst);
            net.offer(packet(flow, src, dst, 0, 8));
            for _ in 0..200 {
                net.step();
            }
            let s = net.stats().flow(flow).expect("packet delivered");
            assert_eq!(s.packets, 1);
            assert_eq!(s.avg_head_latency(), (4 * hops + 4) as f64, "{src}->{dst}");
            // Tail trails the head by 7 flit cycles at zero load.
            assert_eq!(s.avg_packet_latency(), (4 * hops + 4 + 7) as f64);
            assert!(net.is_quiescent());
        }
    }

    #[test]
    fn zero_load_matches_plan_prediction() {
        let (net, flow) = one_flow_net(3, 12);
        let plan = net.flows().plan(flow);
        let (mut net2, _) = one_flow_net(3, 12);
        net2.offer(packet(flow, 3, 12, 0, 8));
        for _ in 0..200 {
            net2.step();
        }
        assert_eq!(
            net2.stats()
                .flow(flow)
                .expect("delivered")
                .avg_head_latency(),
            plan.zero_load_latency() as f64
        );
    }

    #[test]
    fn back_to_back_packets_share_the_network() {
        let (mut net, flow) = one_flow_net(0, 3);
        let mut traffic = ScriptedTraffic::new(
            vec![(0, flow), (1, flow), (2, flow)],
            8,
            net.flows(),
            net.topology(),
        );
        net.run_with(&mut traffic, 300);
        assert_eq!(net.counters().packets_delivered, 3);
        assert_eq!(net.counters().packets_injected, 3);
        assert!(net.is_quiescent());
        // Later packets waited (VC reuse + switch hold) but all arrived.
        let s = net.stats().flow(flow).expect("delivered");
        assert_eq!(s.packets, 3);
        assert!(s.head_latency_max >= s.head_latency_min);
    }

    #[test]
    fn flit_conservation_under_load() {
        let (mut net, flow) = one_flow_net(0, 5);
        for i in 0..20 {
            net.offer(packet(flow, 0, 5, i, 8));
        }
        for _ in 0..2000 {
            net.step();
        }
        assert_eq!(net.counters().packets_injected, 20);
        assert_eq!(net.counters().packets_delivered, 20);
        assert_eq!(net.counters().flits_delivered, 160);
        assert!(net.is_quiescent());
        assert_eq!(net.counters().packets_in_flight(), 0);
    }

    #[test]
    fn drain_detects_quiescence() {
        let (mut net, flow) = one_flow_net(1, 14);
        assert!(net.is_quiescent());
        net.offer(packet(flow, 1, 14, 0, 8));
        assert!(!net.is_quiescent());
        assert!(net.drain(500));
        assert!(net.is_quiescent());
    }

    #[test]
    fn counters_track_buffer_and_crossbar_activity() {
        let (mut net, flow) = one_flow_net(0, 2); // 2 hops
        net.offer(packet(flow, 0, 2, 0, 8));
        net.drain(500);
        let c = net.counters();
        // 8 flits × 3 stops (routers 0, 1, 2) buffered once each.
        assert_eq!(c.buffer_writes, 24);
        assert_eq!(c.buffer_reads, 24);
        // Crossbars: 2 link legs (1 each) + ejection (1) per flit.
        assert_eq!(c.xbar_flit_traversals, 24);
        // Pipeline registers: one per flit per separate-LT leg.
        assert_eq!(c.pipeline_reg_writes, 16);
        // Link mm: 2 mm per flit.
        assert!((c.link_flit_mm - 16.0).abs() < 1e-9);
        // Credits: 3 VC frees (2 router stops + NIC), each crossing back.
        assert!(c.xbar_credit_traversals > 0);
    }

    #[test]
    fn shard_count_clamps_to_height_and_byte_band_ids() {
        let (cfg, flows) = {
            let (net, _) = one_flow_net(0, 1);
            (net.config(), net.flows().clone())
        };
        // 4×4: at most 4 bands; 0 and 1 both mean one band.
        for (asked, got) in [(64, 4), (4, 4), (3, 3), (1, 1), (0, 1)] {
            assert_eq!(Network::new(cfg, flows.clone(), asked).shards(), got);
        }
        // A 1×300 column has 300 rows, but band ids are bytes: 300
        // shards clamp to 255, and the engine still runs.
        let tall = SimConfig {
            topology: crate::topology::Mesh::new(1, 300).into(),
            ..cfg
        };
        let flow = FlowId(0);
        let route = SourceRoute::xy(tall.topology, NodeId(0), NodeId(1)).unwrap();
        let table = FlowTable::mesh_baseline(tall.topology, &[(flow, route)]);
        let mut net = Network::new(tall, table, 300);
        assert_eq!(net.shards(), 255);
        net.offer(packet(flow, 0, 1, 0, 8));
        assert!(net.drain(500));
        assert_eq!(net.counters().packets_delivered, 1);
        assert_eq!(net.stats().flow(flow).expect("delivered").packets, 1);
    }

    #[test]
    fn stats_window_excludes_warmup_packets() {
        let (mut net, flow) = one_flow_net(0, 1);
        net.set_stats_from(100);
        net.offer(packet(flow, 0, 1, 0, 8)); // warm-up packet
        net.drain(200);
        assert_eq!(net.stats().packets(), 0);
        // Advance past the measurement boundary before the late packet.
        while net.cycle() < 100 {
            net.step();
        }
        let late = packet(flow, 0, 1, net.cycle(), 8);
        net.offer(late);
        net.drain(200);
        assert_eq!(net.stats().packets(), 1);
    }
}
