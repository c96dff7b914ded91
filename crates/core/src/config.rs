//! NoC configuration (Table II) and its derived quantities.

use smart_link::{CalibratedLinkModel, CircuitVariant, Gbps, LinkStyle, WireSpacing};
use smart_sim::flit::HeaderLayout;
use smart_sim::{Mesh, SimConfig, Topology, Torus};

/// The full design point of Table II, plus the link model that sets
/// `HPC_max` (the maximum hops a flit may traverse per cycle).
#[derive(Debug, Clone)]
pub struct NocConfig {
    /// Fabric shape and dimensions (Table II: 4×4 mesh).
    pub topology: Topology,
    /// Supply voltage, volts (0.9 V).
    pub vdd: f64,
    /// Clock frequency, GHz (2 GHz).
    pub clock_ghz: f64,
    /// Data channel width in bits (32).
    pub channel_bits: u32,
    /// Credit network width in bits (2: log2(VCs) + valid).
    pub credit_bits: u32,
    /// Router ports (5).
    pub router_ports: u32,
    /// VCs per port (2).
    pub vcs_per_port: usize,
    /// Buffer depth per VC in flits (10).
    pub vc_depth: usize,
    /// Packet size in bits (256).
    pub packet_bits: u32,
    /// Flit size in bits (= channel width, 32).
    pub flit_bits: u32,
    /// Hop pitch in mm (1 mm cores).
    pub hop_mm: f64,
    /// Maximum hops traversable in one cycle, from the link model.
    pub hpc_max: usize,
    /// Row-band shards the cycle engine runs on (0 or 1 = one band,
    /// stepped on the caller's thread; clamped to the fabric height and
    /// to 255 at build time). Sharding is an execution strategy, not a
    /// design point: results are bit-identical for every value.
    pub shards: usize,
}

impl NocConfig {
    /// Table II: 45 nm, 0.9 V, 2 GHz, 4×4 mesh, 32-bit channels, 2-bit
    /// credit network, 5-port routers, 2 VCs × 10 flits, 256-bit packets
    /// — with `HPC_max = 8` from the low-swing link re-optimized for
    /// 2 GHz (Table I).
    #[must_use]
    pub fn paper_4x4() -> Self {
        let link = CalibratedLinkModel::new(
            LinkStyle::LowSwing,
            CircuitVariant::Resized2GHz,
            WireSpacing::Double,
        );
        let clock_ghz = 2.0;
        NocConfig {
            topology: Topology::Mesh(Mesh::paper_4x4()),
            vdd: 0.9,
            clock_ghz,
            channel_bits: 32,
            credit_bits: 2,
            router_ports: 5,
            vcs_per_port: 2,
            vc_depth: 10,
            packet_bits: 256,
            flit_bits: 32,
            hop_mm: 1.0,
            hpc_max: link.max_hops_per_cycle(Gbps(clock_ghz)) as usize,
            shards: 1,
        }
    }

    /// This design point with the cycle engine split across `n`
    /// row-band shards (clamped to the fabric height and to 255 at
    /// build time). Purely an execution strategy: results are
    /// bit-identical to the one-band engine.
    #[must_use]
    pub fn sharded(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Same design point on a larger `k × k` mesh (for ablations).
    #[must_use]
    pub fn scaled(k: u16) -> Self {
        NocConfig {
            topology: Topology::Mesh(Mesh::new(k, k)),
            ..NocConfig::paper_4x4()
        }
    }

    /// Same design point on a `k × k` torus: every row and column closes
    /// into a ring, so wrap links let SMART bypass cross the die seam in
    /// the same single cycle as any other `HPC_max`-hop stretch.
    #[must_use]
    pub fn scaled_torus(k: u16) -> Self {
        NocConfig {
            topology: Topology::Torus(Torus::new(k, k)),
            ..NocConfig::paper_4x4()
        }
    }

    /// This design point on an explicit topology (mesh or torus).
    #[must_use]
    pub fn with_topology(topo: impl Into<Topology>) -> Self {
        NocConfig {
            topology: topo.into(),
            ..NocConfig::paper_4x4()
        }
    }

    /// Flits per packet.
    ///
    /// # Panics
    ///
    /// Panics if the packet size is not a multiple of the flit size.
    #[must_use]
    pub fn flits_per_packet(&self) -> u8 {
        assert_eq!(
            self.packet_bits % self.flit_bits,
            0,
            "packet must be a whole number of flits"
        );
        (self.packet_bits / self.flit_bits) as u8
    }

    /// The simulator sizing derived from this configuration.
    #[must_use]
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            topology: self.topology,
            vcs_per_port: self.vcs_per_port,
            vc_depth: self.vc_depth,
            flits_per_packet: self.flits_per_packet(),
        }
    }

    /// Header layout for this configuration (Table II: 20-bit head,
    /// 4-bit body/tail).
    #[must_use]
    pub fn header_layout(&self) -> HeaderLayout {
        HeaderLayout::for_config(self.topology, self.vcs_per_port)
    }

    /// Per-wire data rate at one bit per cycle.
    #[must_use]
    pub fn wire_rate(&self) -> Gbps {
        Gbps(self.clock_ghz)
    }

    /// Convert a flow bandwidth in MB/s to packets per cycle at this
    /// design point.
    #[must_use]
    pub fn packets_per_cycle(&self, bandwidth_mbs: f64) -> f64 {
        smart_sim::mbps_to_packet_rate(
            bandwidth_mbs,
            self.flit_bits / 8,
            self.flits_per_packet(),
            self.clock_ghz,
        )
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig::paper_4x4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table2() {
        let c = NocConfig::paper_4x4();
        assert_eq!(c.topology.len(), 16);
        assert_eq!(c.channel_bits, 32);
        assert_eq!(c.credit_bits, 2);
        assert_eq!(c.vcs_per_port, 2);
        assert_eq!(c.vc_depth, 10);
        assert_eq!(c.flits_per_packet(), 8);
        assert!((c.vdd - 0.9).abs() < 1e-12);
        assert!((c.clock_ghz - 2.0).abs() < 1e-12);
    }

    #[test]
    fn hpc_max_is_eight_at_2ghz() {
        // The paper's headline: 8 hops (8 mm) per cycle at 2 GHz.
        assert_eq!(NocConfig::paper_4x4().hpc_max, 8);
    }

    #[test]
    fn credit_width_is_log_vcs_plus_valid() {
        let c = NocConfig::paper_4x4();
        let expected = smart_sim::flit::bits_for(c.vcs_per_port) + 1;
        assert_eq!(c.credit_bits as usize, expected);
    }

    #[test]
    fn header_fits_paper_budget() {
        let l = NocConfig::paper_4x4().header_layout();
        assert!(l.head_bits() <= 20);
        assert_eq!(l.body_bits(), 4);
    }

    #[test]
    fn bandwidth_conversion() {
        let c = NocConfig::paper_4x4();
        // 500 MB/s -> 1/128 packets/cycle (see smart-sim traffic tests).
        assert!((c.packets_per_cycle(500.0) - 1.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_mesh_keeps_design_point() {
        let c = NocConfig::scaled(8);
        assert_eq!(c.topology.len(), 64);
        assert_eq!(c.hpc_max, 8);
        assert_eq!(c.flits_per_packet(), 8);
    }

    #[test]
    fn scaled_torus_keeps_design_point_with_narrower_header() {
        let c = NocConfig::scaled_torus(8);
        assert_eq!(c.topology.len(), 64);
        assert!(c.topology.is_torus());
        assert_eq!(c.hpc_max, 8);
        // Wrap links halve the diameter: 8 route hops max instead of 14,
        // so the torus head flit needs fewer route bits than the mesh.
        let mesh_bits = NocConfig::scaled(8).header_layout().route_bits;
        assert!(c.header_layout().route_bits < mesh_bits);
    }
}
