//! The three evaluated designs behind one interface: **Mesh** (3-cycle
//! router + 1-cycle link, no reconfiguration), **SMART** (preset
//! single-cycle multi-hop bypass), and **Dedicated** (ideal per-flow
//! 1-cycle links).

use crate::compile::{compile, CompiledApp};
use crate::config::NocConfig;
use crate::dedicated::{DedicatedFlow, DedicatedNoc};
use crate::preset::MeshPresets;
use smart_sim::counters::ActivityCounters;
use smart_sim::stats::SimStats;
use smart_sim::traffic::TrafficSource;
use smart_sim::{
    FlowId, FlowTable, Network, Packet, SourceRoute, TelemetryConfig, TelemetrySeries,
};

/// Which of the paper's three designs (Section VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DesignKind {
    /// State-of-the-art mesh: 3 cycles per router, 1 cycle per link.
    Mesh,
    /// The SMART NoC with preset bypass paths.
    Smart,
    /// Ideal dedicated 1-cycle links per flow (area-unbounded yardstick).
    Dedicated,
}

impl DesignKind {
    /// All three, in the paper's presentation order.
    pub const ALL: [DesignKind; 3] = [DesignKind::Mesh, DesignKind::Smart, DesignKind::Dedicated];

    /// Display label matching the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DesignKind::Mesh => "Mesh",
            DesignKind::Smart => "SMART",
            DesignKind::Dedicated => "Dedicated",
        }
    }
}

/// A SMART NoC instance configured for one application.
#[derive(Debug)]
pub struct SmartNoc {
    app: CompiledApp,
    net: Network,
}

impl SmartNoc {
    /// Compile `routes` and bring up the network with presets applied.
    #[must_use]
    pub fn new(cfg: &NocConfig, routes: &[(FlowId, SourceRoute)]) -> Self {
        SmartNoc::from_compiled(cfg, compile(cfg.topology, cfg.hpc_max, routes))
    }

    /// Bring up the network from an already-compiled application —
    /// `compile` is a pure function of `(mesh, hpc_max, routes)`, so
    /// reusing a cached [`CompiledApp`] produces a network bit-identical
    /// to [`SmartNoc::new`] while skipping the compilation entirely
    /// (the `smart-server` compiled-design cache's fast path).
    #[must_use]
    pub fn from_compiled(cfg: &NocConfig, app: CompiledApp) -> Self {
        let net = Network::new(cfg.sim_config(), app.flows.clone(), cfg.shards);
        SmartNoc { app, net }
    }

    /// The compiled application (stops, presets, plans).
    #[must_use]
    pub fn compiled(&self) -> &CompiledApp {
        &self.app
    }

    /// The router presets in force.
    #[must_use]
    pub fn presets(&self) -> &MeshPresets {
        &self.app.presets
    }

    /// The underlying cycle-accurate engine.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable access to the underlying engine.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }
}

/// The baseline mesh for the same routed flows.
#[derive(Debug)]
pub struct MeshNoc {
    net: Network,
}

impl MeshNoc {
    /// Bring up the baseline (every router stops; ST and LT separate).
    #[must_use]
    pub fn new(cfg: &NocConfig, routes: &[(FlowId, SourceRoute)]) -> Self {
        MeshNoc::from_table(cfg, FlowTable::mesh_baseline(cfg.topology, routes))
    }

    /// Bring up the baseline from an already-built flow table (the
    /// cached-artifact fast path mirroring [`SmartNoc::from_compiled`]).
    #[must_use]
    pub fn from_table(cfg: &NocConfig, flows: FlowTable) -> Self {
        MeshNoc {
            net: Network::new(cfg.sim_config(), flows, cfg.shards),
        }
    }

    /// The underlying cycle-accurate engine.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable access to the underlying engine.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }
}

/// Any of the three designs, ready to simulate.
#[derive(Debug)]
pub enum Design {
    /// Baseline mesh.
    Mesh(MeshNoc),
    /// SMART.
    Smart(SmartNoc),
    /// Dedicated ideal.
    Dedicated(DedicatedNoc),
}

impl Design {
    /// Build `kind` for the given routed flows. The Dedicated design
    /// ignores the route shapes and wires src→dst directly.
    #[must_use]
    pub fn build(kind: DesignKind, cfg: &NocConfig, routes: &[(FlowId, SourceRoute)]) -> Self {
        match kind {
            DesignKind::Mesh => Design::Mesh(MeshNoc::new(cfg, routes)),
            DesignKind::Smart => Design::Smart(SmartNoc::new(cfg, routes)),
            DesignKind::Dedicated => {
                let flows: Vec<DedicatedFlow> = routes
                    .iter()
                    .map(|(f, r)| DedicatedFlow {
                        flow: *f,
                        src: r.source(),
                        dst: r.destination(cfg.topology),
                    })
                    .collect();
                Design::Dedicated(DedicatedNoc::new(cfg, &flows))
            }
        }
    }

    /// Which design this is.
    #[must_use]
    pub fn kind(&self) -> DesignKind {
        match self {
            Design::Mesh(_) => DesignKind::Mesh,
            Design::Smart(_) => DesignKind::Smart,
            Design::Dedicated(_) => DesignKind::Dedicated,
        }
    }

    /// Queue a packet at its source.
    pub fn offer(&mut self, packet: Packet) {
        match self {
            Design::Mesh(m) => m.net.offer(packet),
            Design::Smart(s) => s.net.offer(packet),
            Design::Dedicated(d) => d.offer(packet),
        }
    }

    /// Advance one cycle.
    pub fn step(&mut self) {
        match self {
            Design::Mesh(m) => m.net.step(),
            Design::Smart(s) => s.net.step(),
            Design::Dedicated(d) => d.step(),
        }
    }

    /// Run `cycles` cycles with `traffic`.
    pub fn run_with(&mut self, traffic: &mut dyn TrafficSource, cycles: u64) {
        match self {
            Design::Mesh(m) => m.net.run_with(traffic, cycles),
            Design::Smart(s) => s.net.run_with(traffic, cycles),
            Design::Dedicated(d) => d.run_with(traffic, cycles),
        }
    }

    /// Step until quiescent (≤ `max_cycles`); `true` on success.
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        match self {
            Design::Mesh(m) => m.net.drain(max_cycles),
            Design::Smart(s) => s.net.drain(max_cycles),
            Design::Dedicated(d) => d.drain(max_cycles),
        }
    }

    /// Latency statistics.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        match self {
            Design::Mesh(m) => m.net.stats(),
            Design::Smart(s) => s.net.stats(),
            Design::Dedicated(d) => d.stats(),
        }
    }

    /// Activity counters.
    #[must_use]
    pub fn counters(&self) -> &ActivityCounters {
        match self {
            Design::Mesh(m) => m.net.counters(),
            Design::Smart(s) => s.net.counters(),
            Design::Dedicated(d) => d.counters(),
        }
    }

    /// Exclude warm-up packets (generated before `cycle`) from stats.
    pub fn set_stats_from(&mut self, cycle: u64) {
        match self {
            Design::Mesh(m) => m.net.set_stats_from(cycle),
            Design::Smart(s) => s.net.set_stats_from(cycle),
            Design::Dedicated(d) => d.set_stats_from(cycle),
        }
    }

    /// Zero the activity counters (end of warm-up).
    pub fn reset_counters(&mut self) {
        match self {
            Design::Mesh(m) => m.net.reset_counters(),
            Design::Smart(s) => s.net.reset_counters(),
            Design::Dedicated(d) => d.reset_counters(),
        }
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        match self {
            Design::Mesh(m) => m.net.cycle(),
            Design::Smart(s) => s.net.cycle(),
            Design::Dedicated(d) => d.cycle(),
        }
    }

    /// Start collecting windowed telemetry on the underlying cycle
    /// engine. The Dedicated yardstick has no routers, links, or SSRs to
    /// observe, so it ignores the request (and [`Design::take_telemetry`]
    /// returns `None`).
    pub fn set_telemetry(&mut self, cfg: TelemetryConfig) {
        match self {
            Design::Mesh(m) => m.net.set_telemetry(cfg),
            Design::Smart(s) => s.net.set_telemetry(cfg),
            Design::Dedicated(_) => {}
        }
    }

    /// Detach the telemetry series, if telemetry was enabled.
    pub fn take_telemetry(&mut self) -> Option<TelemetrySeries> {
        match self {
            Design::Mesh(m) => m.net.take_telemetry(),
            Design::Smart(s) => s.net.take_telemetry(),
            Design::Dedicated(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_sim::{Mesh, NodeId, PacketId};

    fn cfg() -> NocConfig {
        NocConfig::paper_4x4()
    }

    fn routes() -> Vec<(FlowId, SourceRoute)> {
        let m = Mesh::paper_4x4();
        vec![
            (FlowId(0), SourceRoute::xy(m, NodeId(0), NodeId(3)).unwrap()),
            (
                FlowId(1),
                SourceRoute::xy(m, NodeId(12), NodeId(15)).unwrap(),
            ),
        ]
    }

    fn one_packet(flow: u32, src: u16, dst: u16) -> Packet {
        Packet {
            id: PacketId(1),
            flow: FlowId(flow),
            src: NodeId(src),
            dst: NodeId(dst),
            gen_cycle: 0,
            num_flits: 8,
        }
    }

    #[test]
    fn smart_beats_mesh_beats_nobody_at_zero_load() {
        // Non-conflicting flows: SMART = 1 cycle, Mesh = 4H + 4,
        // Dedicated = 1 cycle.
        let cfg = cfg();
        let mut lat = std::collections::HashMap::new();
        for kind in DesignKind::ALL {
            let mut d = Design::build(kind, &cfg, &routes());
            d.offer(one_packet(0, 0, 3));
            d.drain(500);
            lat.insert(kind, d.stats().avg_network_latency());
        }
        assert_eq!(lat[&DesignKind::Smart], 1.0);
        assert_eq!(lat[&DesignKind::Dedicated], 1.0);
        assert_eq!(lat[&DesignKind::Mesh], 16.0, "3 hops: 4·3+4");
    }

    #[test]
    fn smart_single_cycle_multi_hop_delivery() {
        let cfg = cfg();
        let mut s = SmartNoc::new(&cfg, &routes());
        s.network_mut().offer(one_packet(0, 0, 3));
        s.network_mut().drain(100);
        let st = s.network().stats();
        assert_eq!(st.avg_network_latency(), 1.0);
        // Packet (tail) latency: 8 flits streaming = head + 7.
        assert_eq!(st.avg_packet_latency(), 8.0);
        // The compiled app reports full bypass.
        assert_eq!(s.compiled().avg_stops(), 0.0);
    }

    #[test]
    fn design_kind_labels() {
        assert_eq!(DesignKind::Mesh.label(), "Mesh");
        assert_eq!(DesignKind::Smart.label(), "SMART");
        assert_eq!(DesignKind::Dedicated.label(), "Dedicated");
    }

    #[test]
    fn smart_presets_enable_only_used_ports() {
        let cfg = cfg();
        let s = SmartNoc::new(&cfg, &routes());
        // Row 0 flow uses routers 0-3; row 3 flow uses 12-15; routers
        // 4..=11 stay idle.
        for n in 4..=11u16 {
            assert!(s.presets().router(NodeId(n)).is_idle(), "router {n}");
        }
    }
}
