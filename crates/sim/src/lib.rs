//! Cycle-accurate network-on-chip simulation substrate for the SMART
//! reproduction (DATE 2013).
//!
//! This crate provides the generic machinery — the [`topology`] layer
//! (mesh and torus fabrics), flits
//! and source [`route`]s, VC buffers and the 3-stage [`router`] pipeline,
//! virtual-cut-through credits, [`nic`]s, [`traffic`] generators, the
//! synchronous [`network`] engine, and activity [`counters`] — on which
//! `smart-core` builds the SMART architecture, the baseline mesh, and
//! the dedicated-topology yardstick.
//!
//! The central abstraction is the flow plan ([`forward::FlowPlan`]):
//! a flow's journey decomposed into single-cycle *segments* between
//! *stop routers*. The baseline mesh is the plan where every router
//! stops; SMART plans bypass entire multi-hop stretches in one cycle.
//!
//! [`Network`] is the one cycle engine. Its last constructor argument
//! splits the fabric into that many row bands: one band steps inline on
//! the caller's thread, several step on scoped threads, and every count
//! gives bit-identical results, traces and telemetry.
//!
//! ```
//! use smart_sim::flit::{FlowId, Packet, PacketId};
//! use smart_sim::forward::FlowTable;
//! use smart_sim::network::{Network, SimConfig};
//! use smart_sim::route::SourceRoute;
//! use smart_sim::topology::NodeId;
//!
//! // One flow across the 4x4 mesh on the baseline 3-cycle router.
//! let cfg = SimConfig::paper_4x4();
//! let route = SourceRoute::xy(cfg.topology, NodeId(0), NodeId(3)).unwrap();
//! let flows = FlowTable::mesh_baseline(cfg.topology, &[(FlowId(0), route)]);
//! let mut net = Network::new(cfg, flows, 1);
//! net.offer(Packet {
//!     id: PacketId(0),
//!     flow: FlowId(0),
//!     src: NodeId(0),
//!     dst: NodeId(3),
//!     gen_cycle: 0,
//!     num_flits: 8,
//! });
//! net.drain(100);
//! // 3 hops on the baseline: 4·3 + 4 = 16 cycles.
//! assert_eq!(net.stats().avg_network_latency(), 16.0);
//! ```
#![warn(missing_docs)]

pub mod arbiter;
pub mod counters;
pub mod flit;
pub mod forward;
pub mod network;
pub mod nic;
pub mod patterns;
pub mod route;
pub mod router;
mod shard;
pub mod stats;
pub mod telemetry;
pub mod topology;
pub mod trace;
pub mod traffic;

pub use counters::ActivityCounters;
pub use flit::{
    Flit, FlitKind, FlowId, Packet, PacketArena, PacketId, PacketMeta, PacketSlot, VcId,
};
pub use forward::{Endpoint, FlowPlan, FlowTable, LegLut, Segment, Sender};
pub use network::{Network, SimConfig};
pub use patterns::Pattern;
pub use route::{RouteError, SourceRoute};
pub use router::{CreditRelease, Router, RouterBank, RouterDeparture};
pub use stats::SimStats;
pub use telemetry::{
    CycleView, MetricsCollector, MetricsParseError, MetricsWindow, NoProbe, Probe, StallCause,
    TelemetryConfig, TelemetrySeries,
};
pub use topology::{Coord, Direction, LinkId, Mesh, NodeId, Topology, TopologyOps, Torus, Turn};
pub use trace::{ReplayCounts, TraceKind, TraceRecord, Tracer};
pub use traffic::{mbps_to_packet_rate, BernoulliTraffic, ScriptedTraffic, TrafficSource};
