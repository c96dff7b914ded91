//! Equivalence net for the row-band engine: a run split into k > 1
//! bands must be *bit-identical* to the single-band (k=1) run — same
//! drain cycle, same per-flow latency statistics, same activity counters
//! (including the float link-millimeter accumulators), same per-link
//! flit counts, same flit trace — at every shard count, on the mesh and
//! on the torus (whose wrap links carry flits across the outermost band
//! boundary in one hop), from light load to deep saturation.
//!
//! k=1 is the reference. It runs the same step function as k > 1, so it
//! is anchored independently: `legacy_equivalence.rs` locks it to the
//! pre-refactor engine on the 4×4 mesh, and the pinned torus case at
//! the end of this file locks it to literal values.

use proptest::prelude::*;
use smart_sim::route::SourceRoute;
use smart_sim::topology::{LinkId, Mesh, Topology, Torus};
use smart_sim::{
    ActivityCounters, BernoulliTraffic, FlowId, FlowTable, Network, SimConfig, Tracer,
};
use std::collections::HashMap;

/// Transpose routes + a uniform per-flow rate: `(x, y) → (y, x)` flows
/// cross every row-band boundary, and on the torus the long vertical
/// legs take the wrap seam — exactly the traffic that exercises
/// cross-shard handoff (mesh) and seam handoff (torus).
fn transpose_workload(topo: Topology, rate: f64) -> (FlowTable, Vec<(FlowId, f64)>) {
    let routes: Vec<(FlowId, SourceRoute)> = topo
        .nodes()
        .filter_map(|src| {
            let c = topo.coord(src);
            let dst = topo.node_at(smart_sim::topology::Coord { x: c.y, y: c.x });
            SourceRoute::xy(topo, src, dst).ok().map(|r| (src, r))
        })
        .enumerate()
        .map(|(i, (_, r))| (FlowId(i as u32), r))
        .collect();
    let rates = routes.iter().map(|(f, _)| (*f, rate)).collect();
    (FlowTable::mesh_baseline(topo, &routes), rates)
}

/// Run one engine over a fresh, identically seeded Bernoulli stream.
fn run(engine: &mut Network, cfg: SimConfig, rates: &[(FlowId, f64)], seed: u64, cycles: u64) {
    let mut traffic = BernoulliTraffic::new(
        rates,
        engine.flows(),
        cfg.topology,
        cfg.flits_per_packet,
        seed,
    );
    engine.run_with(&mut traffic, cycles);
    assert!(engine.drain(100_000), "engine failed to drain");
}

/// Drive the k=1 engine and the sharded engine at every shard count
/// in {2, 4, 8} over the same traffic, then assert every externally
/// observable quantity matches bit-for-bit.
fn assert_shards_agree(topo: Topology, rate: f64, seed: u64, cycles: u64) {
    let cfg = SimConfig {
        topology: topo,
        ..SimConfig::paper_4x4()
    };
    let (flows, rates) = transpose_workload(topo, rate);

    let mut serial = Network::new(cfg, flows.clone(), 1);
    run(&mut serial, cfg, &rates, seed, cycles);
    let serial_links: HashMap<LinkId, u64> = serial.link_flit_counts().collect();

    for k in [2usize, 4, 8] {
        let mut sharded = Network::new(cfg, flows.clone(), k);
        assert_eq!(sharded.shards(), k.min(usize::from(topo.height())));
        run(&mut sharded, cfg, &rates, seed, cycles);

        // Same wall clock: quiescence was reached on the same cycle.
        assert_eq!(serial.cycle(), sharded.cycle(), "k={k}: drain cycle");
        // Per-flow latency statistics — the delivered-packet multiset.
        assert_eq!(serial.stats(), sharded.stats(), "k={k}: stats");
        // Every activity counter, including the float link-millimeter
        // accumulators (bit-identical accumulation by construction).
        assert_eq!(serial.counters(), sharded.counters(), "k={k}: counters");
        // Per-link flit counts: the same flits crossed the same wires.
        let sharded_links: HashMap<LinkId, u64> = sharded.link_flit_counts().collect();
        assert_eq!(serial_links, sharded_links, "k={k}: link utilization");
    }
}

proptest! {
    // Each case is four full simulations (k=1 + three shard counts);
    // keep the case count low but the coverage wide: rates span light
    // load to ~3x the transpose saturation point.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn mesh_shards_agree_from_light_load_to_saturation(
        seed in 0u64..1_000_000,
        rate_milli in prop::sample::select(vec![10u32, 40, 80, 150, 300]),
    ) {
        assert_shards_agree(
            Mesh::new(8, 8).into(),
            f64::from(rate_milli) / 1_000.0,
            seed,
            1_000,
        );
    }

    #[test]
    fn torus_shards_agree_across_the_wrap_seam(
        seed in 0u64..1_000_000,
        rate_milli in prop::sample::select(vec![10u32, 80, 300]),
    ) {
        assert_shards_agree(
            Torus::new(8, 8).into(),
            f64::from(rate_milli) / 1_000.0,
            seed,
            1_000,
        );
    }
}

/// Deterministic anchor well past saturation on the mesh: transpose on
/// 8×8 admits nowhere near 0.3 packets/cycle/flow, so the run spends
/// ~all its cycles with full VCs, live switch holds, and credit stalls
/// — the regime where a boundary-exchange ordering bug would surface.
#[test]
fn deep_saturation_anchor_mesh() {
    assert_shards_agree(Mesh::new(8, 8).into(), 0.3, 0xD1E7, 2_000);
}

/// The torus twin: wrap routes put band-0 ↔ band-(k−1) traffic on the
/// seam links, so the outermost shards exchange flits directly — the
/// one adjacency a mesh run never exercises.
#[test]
fn deep_saturation_anchor_torus() {
    assert_shards_agree(Torus::new(8, 8).into(), 0.3, 0x5EA1, 2_000);
}

/// Shard counts that do not divide the height produce uneven bands;
/// identity must not depend on divisibility. 6 rows across 4 shards
/// gives bands of 1 and 2 rows.
#[test]
fn uneven_bands_agree() {
    assert_shards_agree(Mesh::new(6, 6).into(), 0.08, 0xBADBA2D, 1_000);
}

/// Every event of a traced run, as a sorted multiset.
fn record_multiset(t: &Tracer) -> Vec<String> {
    let mut recs: Vec<String> = t.records().iter().map(|r| format!("{r:?}")).collect();
    recs.sort();
    recs
}

/// Tracing works at every shard count: with capacity to spare, the
/// k=2 and k=4 traces hold exactly the k=1 events (each band records the
/// events it executes), so replayed counts and the VCD dump agree, and
/// the merged record order is deterministic run to run.
#[test]
fn sharded_tracing_matches_k1() {
    let topo: Topology = Mesh::new(8, 8).into();
    let cfg = SimConfig {
        topology: topo,
        ..SimConfig::paper_4x4()
    };
    let (flows, rates) = transpose_workload(topo, 0.08);
    let traced = |k: usize| {
        let mut net = Network::new(cfg, flows.clone(), k);
        net.enable_tracing(1 << 22);
        run(&mut net, cfg, &rates, 0x7ACE, 1_000);
        net.tracer().expect("tracing enabled").clone()
    };

    let reference = traced(1);
    assert_eq!(reference.dropped(), 0, "capacity must suffice");
    let total = |t: &Tracer| t.records().len() as u64 + t.dropped();
    for k in [2usize, 4] {
        let t = traced(k);
        assert_eq!(t.replay_counts(), reference.replay_counts(), "k={k}");
        assert_eq!(
            t.to_vcd(topo, "bands"),
            reference.to_vcd(topo, "bands"),
            "k={k}: VCD"
        );
        assert_eq!(record_multiset(&t), record_multiset(&reference), "k={k}");
        assert_eq!(total(&t), total(&reference), "k={k}: records + dropped");
    }
    assert_eq!(traced(4).records(), traced(4).records(), "k=4 record order");
}

/// Per-flow statistics of the pinned run, one row per flow:
/// `(flow, packets, head_latency_sum, packet_latency_sum,
/// source_queue_sum, head_latency_max, head_latency_min)`.
const TORUS_PIN_FLOWS: [(u32, u64, u64, u64, u64, u64, u64); 56] = [
    (0, 588, 24240, 28356, 2535690, 50, 12),
    (1, 603, 58120, 62341, 5385945, 140, 31),
    (2, 588, 90424, 94540, 5133602, 214, 68),
    (3, 603, 98582, 102803, 6980688, 347, 48),
    (4, 596, 63508, 67680, 6869401, 225, 54),
    (5, 575, 40304, 44329, 4123663, 103, 32),
    (6, 626, 21242, 25624, 2506882, 45, 12),
    (7, 606, 20570, 24812, 2342248, 47, 12),
    (8, 567, 23386, 27355, 2344365, 50, 12),
    (9, 599, 55840, 60033, 5256067, 140, 28),
    (10, 618, 90772, 95098, 5548877, 214, 62),
    (11, 582, 98392, 102466, 6627231, 338, 80),
    (12, 603, 64278, 68499, 7040032, 227, 37),
    (13, 630, 42270, 46680, 4839068, 105, 44),
    (14, 597, 40592, 44771, 4383162, 92, 29),
    (15, 599, 20302, 24495, 2286289, 34, 12),
    (16, 628, 26468, 30864, 2965086, 50, 12),
    (17, 571, 57364, 61361, 5027309, 140, 34),
    (18, 586, 92844, 96946, 5238898, 214, 60),
    (19, 630, 99816, 104226, 7437821, 344, 48),
    (20, 605, 63722, 67957, 7005370, 214, 54),
    (21, 617, 62702, 67021, 7089429, 214, 38),
    (22, 565, 39048, 43003, 3902341, 92, 31),
    (23, 594, 20132, 24290, 2216344, 34, 12),
    (24, 632, 26732, 31156, 3023422, 50, 12),
    (25, 586, 58108, 62210, 5323496, 140, 31),
    (26, 629, 94262, 98665, 6105173, 214, 38),
    (27, 568, 94082, 98058, 6199947, 336, 80),
    (28, 616, 100772, 105084, 7355974, 334, 48),
    (29, 591, 64170, 68307, 6897723, 212, 54),
    (30, 601, 41324, 45531, 4535250, 90, 20),
    (31, 649, 20752, 25295, 2703640, 32, 24),
    (32, 612, 25312, 29596, 2796674, 50, 20),
    (33, 585, 56388, 60483, 5142106, 140, 20),
    (34, 614, 92736, 97034, 5618464, 214, 56),
    (35, 593, 92522, 96673, 5328609, 214, 65),
    (36, 629, 99174, 103577, 7398542, 335, 48),
    (37, 573, 61632, 65643, 6435519, 213, 54),
    (38, 575, 39433, 43458, 4126430, 91, 32),
    (39, 616, 20272, 24584, 2416298, 33, 12),
    (40, 612, 25540, 29824, 2793695, 50, 12),
    (41, 571, 56720, 60717, 4963730, 140, 33),
    (42, 648, 61316, 65852, 6298574, 140, 28),
    (43, 616, 95856, 100168, 5711510, 214, 68),
    (44, 621, 100010, 104357, 7224915, 349, 72),
    (45, 603, 63346, 67567, 6906004, 227, 54),
    (46, 596, 40360, 44532, 4337734, 105, 29),
    (47, 589, 19988, 24111, 2166684, 47, 12),
    (48, 596, 24960, 29132, 2614743, 50, 12),
    (49, 619, 25962, 30295, 2868651, 50, 28),
    (50, 603, 59324, 63545, 5545755, 140, 20),
    (51, 563, 89502, 93443, 4843139, 214, 56),
    (52, 599, 97977, 102170, 6877183, 347, 80),
    (53, 636, 64776, 69228, 7552541, 227, 38),
    (54, 575, 40024, 44049, 4112999, 105, 20),
    (55, 613, 20848, 25139, 2407254, 47, 28),
];

/// Per-link flit counts of the pinned run, indexed `node * 5 + dir`
/// (direction index order E, S, W, N, Core).
const TORUS_PIN_LINKS: [u64; 320] = [
    0, 14376, 0, 19056, 0, 0, 9864, 14232, 0, 0, 0, 4840, 9528, 0, 0, 0, 0, 4704, 0, 0, 4824, 0, 0,
    0, 0, 9592, 0, 0, 5032, 0, 14192, 0, 0, 9896, 0, 19200, 0, 0, 14120, 0, 19368, 0, 0, 14352, 0,
    0, 14712, 0, 18928, 0, 0, 9616, 14272, 0, 0, 0, 4936, 9736, 0, 0, 0, 0, 4944, 0, 0, 4656, 0, 0,
    0, 0, 9480, 0, 0, 4968, 0, 14520, 0, 0, 9296, 0, 14656, 0, 0, 9528, 0, 19448, 0, 0, 14392, 0,
    0, 14408, 0, 19320, 0, 0, 9456, 14280, 0, 0, 0, 4728, 9256, 0, 0, 0, 0, 4688, 0, 0, 5040, 0, 0,
    0, 0, 9880, 0, 0, 4792, 0, 9480, 0, 0, 4824, 0, 14000, 0, 0, 9600, 0, 18752, 0, 0, 14296, 0, 0,
    14208, 0, 19320, 0, 0, 9536, 14776, 0, 0, 0, 4584, 9720, 0, 0, 0, 0, 5032, 0, 0, 4544, 0, 0, 0,
    0, 4928, 0, 0, 0, 0, 9656, 0, 0, 4656, 0, 14464, 0, 0, 9728, 0, 19656, 0, 0, 14264, 0, 0,
    14728, 0, 19416, 0, 0, 9184, 14488, 0, 0, 0, 4824, 9592, 0, 0, 0, 0, 4912, 0, 0, 0, 0, 4744, 0,
    0, 5032, 0, 0, 0, 0, 9616, 0, 0, 5040, 0, 14216, 0, 0, 9576, 0, 19144, 0, 0, 14520, 0, 0,
    14112, 0, 19240, 0, 0, 9592, 14208, 0, 0, 0, 5088, 9312, 0, 0, 0, 4768, 10112, 0, 0, 0, 0,
    4928, 0, 0, 4968, 0, 0, 0, 0, 9792, 0, 0, 4544, 0, 14560, 0, 0, 9840, 0, 19272, 0, 0, 14344, 0,
    0, 14304, 0, 19848, 0, 0, 9688, 14880, 0, 0, 0, 9368, 14280, 0, 0, 0, 4824, 9328, 0, 0, 0, 0,
    4504, 0, 0, 4792, 0, 0, 0, 0, 9880, 0, 0, 4928, 0, 14480, 0, 0, 9776, 0, 19384, 0, 0, 15080, 0,
    0, 14592, 0, 19072, 0,
];

/// An independent reference for the single-band engine on the torus:
/// the deep-saturation transpose anchor at k=1, pinned as literal
/// values recorded from the pre-fold serial engine. `legacy_equivalence`
/// anchors k=1 on the 4×4 mesh only; this pins the wrap seam too, so
/// the k=1 engine cannot drift together with its sharded twins.
#[test]
fn k1_torus_deep_saturation_is_pinned() {
    let topo: Topology = Torus::new(8, 8).into();
    let cfg = SimConfig {
        topology: topo,
        ..SimConfig::paper_4x4()
    };
    let (flows, rates) = transpose_workload(topo, 0.3);
    let mut net = Network::new(cfg, flows, 1);
    run(&mut net, cfg, &rates, 0x5EA1, 2_000);

    assert_eq!(net.cycle(), 19_864, "drain cycle");
    assert_eq!(
        *net.counters(),
        ActivityCounters {
            cycles: 19_864,
            buffer_writes: 1_501_496,
            buffer_reads: 1_501_496,
            sa_requests: 312_787,
            sa_grants: 1_501_496,
            xbar_flit_traversals: 1_501_496,
            xbar_credit_traversals: 187_687,
            pipeline_reg_writes: 1_231_856,
            link_flit_mm: 1_231_856.0,
            link_credit_mm: 153_982.0,
            active_port_cycles: 6_674_304,
            gated_port_cycles: 6_038_656,
            flits_delivered: 269_640,
            packets_delivered: 33_705,
            packets_injected: 33_705,
        },
        "counters"
    );
    let flow_rows: Vec<_> = net
        .stats()
        .flows()
        .iter()
        .map(|(f, s)| {
            (
                f.0,
                s.packets,
                s.head_latency_sum,
                s.packet_latency_sum,
                s.source_queue_sum,
                s.head_latency_max,
                s.head_latency_min,
            )
        })
        .collect();
    assert_eq!(flow_rows, TORUS_PIN_FLOWS, "per-flow stats");
    let mut links = [0u64; 320];
    for (l, n) in net.link_flit_counts() {
        links[usize::from(l.from.0) * 5 + l.dir.index()] = n;
    }
    assert_eq!(links, TORUS_PIN_LINKS, "per-link flit counts");
}
