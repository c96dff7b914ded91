//! Saturation regression suite for the PR-6 flit diet: the arena-interned
//! compact-flit engine must be *observationally identical* to the
//! pre-refactor inline-flit engine — same delivered packets, same
//! per-flow latency statistics, same activity counters, same per-link
//! flit counts — including deep past the saturation point where VC
//! backpressure, switch holds, and credit starvation dominate.
//!
//! The reference implementation under `legacy/` is a frozen snapshot of
//! the old `flit`/`nic`/`router`/`network` modules (heap-allocated
//! `VecDeque` queues, full packet metadata on every flit), sharing the
//! live crate's topology, routing, traffic, stats, and counter types so
//! both engines consume the same packet stream.

// The legacy snapshot keeps its full public surface; only part of it is
// exercised here.
#[allow(dead_code)]
#[path = "legacy/flit.rs"]
mod flit;
#[allow(dead_code)]
#[path = "legacy/network.rs"]
mod network;
#[allow(dead_code)]
#[path = "legacy/nic.rs"]
mod nic;
#[allow(dead_code)]
#[path = "legacy/router.rs"]
mod router;

// `crate::<module>` paths inside the legacy snapshot resolve through
// these root re-exports to the live crate's unchanged modules.
pub use smart_sim::{arbiter, counters, forward, route, stats, topology, trace, traffic};

use proptest::prelude::*;
use smart_sim::forward::FlowTable;
use smart_sim::route::SourceRoute;
use smart_sim::topology::{LinkId, Topology};
use smart_sim::{BernoulliTraffic, FlowId, Network, Pattern, SimConfig};
use std::collections::HashMap;

/// Per-flow source routes, as `FlowTable` constructors consume them.
type Routes = Vec<(FlowId, SourceRoute)>;

/// Transpose routes + a uniform per-flow rate on the 4×4 paper mesh.
fn transpose_workload(mesh: Topology, rate: f64) -> (Routes, Vec<(FlowId, f64)>) {
    let routes: Routes = Pattern::Transpose
        .pairs(mesh)
        .into_iter()
        .enumerate()
        .map(|(i, (s, d))| (FlowId(i as u32), SourceRoute::xy(mesh, s, d).unwrap()))
        .collect();
    let rates = routes.iter().map(|(f, _)| (*f, rate)).collect();
    (routes, rates)
}

/// Drive the live and the legacy engine over the same Bernoulli stream
/// (independently constructed, identically seeded), then assert every
/// externally observable quantity matches.
fn assert_engines_agree(rate: f64, seed: u64, cycles: u64) {
    let cfg = SimConfig::paper_4x4();
    let mesh = cfg.topology;
    let (routes, rates) = transpose_workload(mesh, rate);

    let flows_new = FlowTable::mesh_baseline(mesh, &routes);
    let flows_old = FlowTable::mesh_baseline(mesh, &routes);
    let mut src_new = BernoulliTraffic::new(&rates, &flows_new, mesh, cfg.flits_per_packet, seed);
    let mut src_old = BernoulliTraffic::new(&rates, &flows_old, mesh, cfg.flits_per_packet, seed);

    let mut live = Network::new(cfg, flows_new, 1);
    let legacy_cfg = network::SimConfig {
        mesh: mesh.as_mesh().expect("paper config is a mesh"),
        vcs_per_port: cfg.vcs_per_port,
        vc_depth: cfg.vc_depth,
        flits_per_packet: cfg.flits_per_packet,
    };
    let mut old = network::Network::new(legacy_cfg, flows_old);

    live.run_with(&mut src_new, cycles);
    old.run_with(&mut src_old, cycles);
    assert!(live.drain(50_000), "live engine failed to drain");
    assert!(old.drain(50_000), "legacy engine failed to drain");

    // Same wall clock: quiescence was reached on the same cycle.
    assert_eq!(
        live.cycle(),
        old.cycle(),
        "engines drained at different cycles"
    );
    // Per-flow latency statistics (head/packet latency, queue delay,
    // delivered counts) — the delivered-packet multiset in aggregate.
    assert_eq!(live.stats(), old.stats(), "per-flow stats diverged");
    // Every activity counter, including the float link-millimeter
    // accumulators (bit-identical accumulation order by construction).
    assert_eq!(
        live.counters(),
        old.counters(),
        "activity counters diverged"
    );
    // Per-link flit counts: the same flits crossed the same wires.
    let live_links: HashMap<LinkId, u64> = live.link_flit_counts().collect();
    assert_eq!(
        live_links,
        old.link_flit_counts(),
        "link utilization diverged"
    );
}

proptest! {
    // Each case is a pair of full simulations; keep the case count low
    // but the coverage wide (rates from light load to ~3× saturation).
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn engines_agree_from_light_load_to_deep_saturation(
        seed in 0u64..1_000_000,
        rate_milli in prop::sample::select(vec![10u32, 40, 80, 150, 300]),
    ) {
        assert_engines_agree(f64::from(rate_milli) / 1_000.0, seed, 2_000);
    }
}

/// Deterministic anchor well past saturation: transpose on 4×4 admits
/// nowhere near 0.3 packets/cycle/flow, so the run spends ~all its
/// cycles with full VCs, live switch holds, and credit stalls — the
/// regime where a representation bug in hold/credit bookkeeping would
/// surface as a divergence.
#[test]
fn deep_saturation_anchor() {
    assert_engines_agree(0.3, 0xD1E7, 4_000);
}

/// The legacy serializer and the live incremental NIC mint the same
/// flit sequence for the same packet.
#[test]
fn legacy_serializer_matches_packet_shape() {
    let p = smart_sim::Packet {
        id: smart_sim::PacketId(7),
        flow: FlowId(3),
        src: smart_sim::topology::NodeId(0),
        dst: smart_sim::topology::NodeId(5),
        gen_cycle: 100,
        num_flits: 8,
    };
    let flits = flit::into_flits(p, 110);
    assert_eq!(flits.len(), 8);
    assert!(flits[0].is_head() && flits[7].is_tail());
    assert!(flits.iter().enumerate().all(|(i, f)| f.seq as usize == i));
    assert!(flits
        .iter()
        .all(|f| f.inject_cycle == 110 && f.flow == FlowId(3)));
}
