//! The event trace must agree with the engine's live activity counters
//! — the reproduction's version of "the power numbers come from the
//! same activity the VCD carries".

use smart_noc::arch::config::NocConfig;
use smart_noc::arch::noc::SmartNoc;
use smart_noc::mapping::MappedApp;
use smart_noc::sim::BernoulliTraffic;
use smart_noc::taskgraph::apps;

#[test]
fn replayed_trace_matches_live_counters() {
    let cfg = NocConfig::paper_4x4();
    let mapped = MappedApp::from_graph(&cfg, &apps::vopd());
    let mut noc = SmartNoc::new(&cfg, &mapped.routes);
    noc.network_mut().enable_tracing(1_000_000);
    let mut traffic = BernoulliTraffic::new(
        &mapped.rates,
        noc.network().flows(),
        cfg.topology,
        cfg.flits_per_packet(),
        17,
    );
    noc.network_mut().run_with(&mut traffic, 20_000);
    noc.network_mut().drain(5_000);

    let live = *noc.network().counters();
    let tracer = noc.network().tracer().expect("enabled");
    assert_eq!(tracer.dropped(), 0, "trace capacity must suffice");
    let replay = tracer.replay_counts();

    assert_eq!(replay.buffer_writes, live.buffer_writes);
    assert_eq!(replay.xbar_flit_traversals, live.xbar_flit_traversals);
    assert_eq!(replay.xbar_credit_traversals, live.xbar_credit_traversals);
    assert!((replay.link_flit_mm - live.link_flit_mm).abs() < 1e-6);
    assert!((replay.link_credit_mm - live.link_credit_mm).abs() < 1e-6);
    assert_eq!(replay.flits_delivered, live.flits_delivered);
    assert_eq!(replay.packets_delivered, live.packets_delivered);
    assert_eq!(replay.heads_delivered, replay.packets_delivered);
}

#[test]
fn vcd_dump_is_wellformed_for_real_traffic() {
    let cfg = NocConfig::paper_4x4();
    let mapped = MappedApp::from_graph(&cfg, &apps::pip());
    let mut noc = SmartNoc::new(&cfg, &mapped.routes);
    noc.network_mut().enable_tracing(100_000);
    let mut traffic = BernoulliTraffic::new(
        &mapped.rates,
        noc.network().flows(),
        cfg.topology,
        cfg.flits_per_packet(),
        3,
    );
    noc.network_mut().run_with(&mut traffic, 5_000);
    let vcd = noc
        .network()
        .tracer()
        .expect("enabled")
        .to_vcd(cfg.topology, "pip");
    assert_eq!(vcd.matches("$var wire 1").count(), 16);
    assert!(vcd.matches('#').count() > 10, "timestamps present");
    // Every value-change line references a declared identifier.
    let idents: Vec<&str> = vcd
        .lines()
        .filter(|l| l.starts_with("$var"))
        .map(|l| l.split_whitespace().nth(3).expect("var id"))
        .collect();
    for line in vcd.lines() {
        if line.starts_with('0') || line.starts_with('1') {
            let id = &line[1..];
            assert!(idents.contains(&id), "undeclared id {id}");
        }
    }
}
