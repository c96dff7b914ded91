//! Scenario tests for the cycle-accurate engine: flow control under
//! backpressure, arbitration fairness, and conservation under synthetic
//! pattern traffic.

use smart_sim::flit::{FlowId, Packet, PacketId};
use smart_sim::forward::FlowTable;
use smart_sim::network::{Network, SimConfig};
use smart_sim::patterns::Pattern;
use smart_sim::route::SourceRoute;
use smart_sim::topology::{Mesh, NodeId};
use smart_sim::traffic::{BernoulliTraffic, ScriptedTraffic};

fn packet(id: u64, flow: u32, src: u16, dst: u16, gen: u64) -> Packet {
    Packet {
        id: PacketId(id),
        flow: FlowId(flow),
        src: NodeId(src),
        dst: NodeId(dst),
        gen_cycle: gen,
        num_flits: 8,
    }
}

#[test]
fn vc_backpressure_stalls_and_recovers() {
    // One flow, 2 VCs at every endpoint: a burst of 6 packets can have
    // at most 2 packets' worth of flits committed toward any endpoint
    // at once. All must still arrive, strictly in order.
    let cfg = SimConfig::paper_4x4();
    let route = SourceRoute::xy(cfg.topology, NodeId(0), NodeId(3)).unwrap();
    let flows = FlowTable::mesh_baseline(cfg.topology, &[(FlowId(0), route)]);
    let mut net = Network::new(cfg, flows, 1);
    for i in 0..6 {
        net.offer(packet(i, 0, 0, 3, 0));
    }
    assert!(net.drain(2_000), "burst must clear");
    let st = net.stats().flow(FlowId(0)).expect("delivered");
    assert_eq!(st.packets, 6);
    // Network latency itself stays near zero-load (the stall shows up
    // as source queueing at the NIC while VCs recycle).
    assert_eq!(st.head_latency_min, 16);
    assert!(st.head_latency_max <= 24, "got {}", st.head_latency_max);
    // Five of the six packets waited at the source: ≥ 8 serialization
    // cycles each on average across the burst.
    assert!(
        st.avg_source_queue() > 8.0,
        "source queueing {:.1} must reflect the burst",
        st.avg_source_queue()
    );
}

#[test]
fn round_robin_shares_a_merging_output_fairly() {
    // Two flows merging onto one link, equal offered load: delivered
    // packet counts must match within 10% over a long run.
    let mesh = Mesh::paper_4x4();
    let cfg = SimConfig::paper_4x4();
    let routes = vec![
        (
            FlowId(0),
            SourceRoute::xy(mesh, NodeId(0), NodeId(3)).unwrap(),
        ),
        (
            FlowId(1),
            SourceRoute::xy(mesh, NodeId(4), NodeId(3)).unwrap(),
        ),
    ];
    let flows = FlowTable::mesh_baseline(mesh, &routes);
    let mut net = Network::new(cfg, flows, 1);
    let rates = vec![(FlowId(0), 0.04), (FlowId(1), 0.04)];
    let mut traffic = BernoulliTraffic::new(&rates, net.flows(), mesh, cfg.flits_per_packet, 23);
    net.run_with(&mut traffic, 40_000);
    net.drain(5_000);
    let a = net.stats().flow(FlowId(0)).expect("f0").packets as f64;
    let b = net.stats().flow(FlowId(1)).expect("f1").packets as f64;
    assert!(a > 1000.0 && b > 1000.0, "enough samples ({a}, {b})");
    assert!((a / b - 1.0).abs() < 0.1, "fair split: {a} vs {b}");
}

#[test]
fn transpose_pattern_conserves_packets_on_the_baseline() {
    let mesh = Mesh::paper_4x4();
    let cfg = SimConfig::paper_4x4();
    let pairs = Pattern::Transpose.pairs(mesh);
    let routes: Vec<(FlowId, SourceRoute)> = pairs
        .iter()
        .enumerate()
        .map(|(i, (s, d))| (FlowId(i as u32), SourceRoute::xy(mesh, *s, *d).unwrap()))
        .collect();
    let flows = FlowTable::mesh_baseline(mesh, &routes);
    let mut net = Network::new(cfg, flows, 1);
    let rates: Vec<(FlowId, f64)> = routes.iter().map(|(f, _)| (*f, 0.01)).collect();
    let mut traffic = BernoulliTraffic::new(&rates, net.flows(), mesh, cfg.flits_per_packet, 99);
    net.run_with(&mut traffic, 20_000);
    assert!(net.drain(5_000));
    let c = net.counters();
    assert_eq!(c.packets_injected, c.packets_delivered);
    assert_eq!(
        c.flits_delivered,
        c.packets_delivered * u64::from(cfg.flits_per_packet)
    );
    assert!(c.packets_delivered > 1_500, "got {}", c.packets_delivered);
}

#[test]
fn hotspot_saturates_gracefully_not_fatally() {
    // 15 sources hammer one sink beyond its ejection bandwidth. The
    // network must keep conserving flits (backpressure into source
    // queues), not crash or lose packets.
    let mesh = Mesh::paper_4x4();
    let cfg = SimConfig::paper_4x4();
    let pairs = Pattern::Hotspot(NodeId(5)).pairs(mesh);
    let routes: Vec<(FlowId, SourceRoute)> = pairs
        .iter()
        .enumerate()
        .map(|(i, (s, d))| (FlowId(i as u32), SourceRoute::xy(mesh, *s, *d).unwrap()))
        .collect();
    let flows = FlowTable::mesh_baseline(mesh, &routes);
    let mut net = Network::new(cfg, flows, 1);
    // 15 flows × 0.02 packets/cycle × 8 flits = 2.4 flits/cycle toward
    // a sink that ejects 1 flit/cycle: heavily oversubscribed.
    let rates: Vec<(FlowId, f64)> = routes.iter().map(|(f, _)| (*f, 0.02)).collect();
    let mut traffic = BernoulliTraffic::new(&rates, net.flows(), mesh, cfg.flits_per_packet, 7);
    net.run_with(&mut traffic, 10_000);
    let c = net.counters();
    assert!(c.packets_delivered > 500, "sink keeps draining");
    assert!(
        net.total_backlog() > 0,
        "oversubscription must back up into the NICs"
    );
    // Stop offering traffic; everything in flight must still complete.
    assert!(net.drain(1_000_000), "drains once sources go quiet");
    let c = net.counters();
    assert_eq!(c.packets_injected, c.packets_delivered);
}

#[test]
fn single_flit_packets_work() {
    // Head==tail degenerate packets (config with 1 flit/packet).
    let mesh = Mesh::paper_4x4();
    let cfg = SimConfig {
        flits_per_packet: 1,
        ..SimConfig::paper_4x4()
    };
    let routes = vec![(
        FlowId(0),
        SourceRoute::xy(mesh, NodeId(2), NodeId(13)).unwrap(),
    )];
    let flows = FlowTable::mesh_baseline(mesh, &routes);
    let mut net = Network::new(cfg, flows, 1);
    let mut traffic = ScriptedTraffic::new(
        (0..10).map(|i| (i * 3, FlowId(0))).collect(),
        1,
        net.flows(),
        mesh,
    );
    net.run_with(&mut traffic, 500);
    assert!(net.drain(500));
    assert_eq!(net.counters().packets_delivered, 10);
    let st = net.stats().flow(FlowId(0)).expect("delivered");
    // Head latency == packet latency for 1-flit packets.
    assert_eq!(st.avg_head_latency(), st.avg_packet_latency());
}

#[test]
fn deep_mesh_16x16_zero_load_formula_still_holds() {
    let mesh = Mesh::new(16, 16);
    let cfg = SimConfig {
        topology: mesh.into(),
        ..SimConfig::paper_4x4()
    };
    // Corner to corner: 30 hops.
    let route = SourceRoute::xy(mesh, NodeId(0), NodeId(255)).unwrap();
    let flows = FlowTable::mesh_baseline(mesh, &[(FlowId(0), route)]);
    let mut net = Network::new(cfg, flows, 1);
    net.offer(packet(0, 0, 0, 255, 0));
    assert!(net.drain(1_000));
    assert_eq!(
        net.stats()
            .flow(FlowId(0))
            .expect("delivered")
            .avg_head_latency(),
        (4 * 30 + 4) as f64
    );
}
