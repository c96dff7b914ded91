//! Tests of the benchmark's own parts.

use smart_core::config::NocConfig;
use smart_core::noc::{Design, DesignKind};
use smart_harness::{
    CompiledDesign, Drive, Experiment, RunPlan, SpatialPattern, TemporalModel, TrafficContext,
    Workload,
};
use smart_perfbench::picker::{pool, Picker};
use smart_perfbench::report::{result_line, Metrics, END_TO_END, PER_LAYER};
use smart_perfbench::stats::{
    median, min_samples_for, percentile, samples_beyond, segments, tail_rank, TAIL_SAMPLES,
};
use smart_perfbench::timing::{StampSink, TimedTraffic};
use smart_server::{EventSink, ResponseEvent, ServiceConfig};
use std::collections::HashSet;

#[test]
fn p99_needs_a_thousand_samples() {
    assert_eq!(min_samples_for(0.99), 1000);
    assert_eq!(samples_beyond(1000, 0.99), TAIL_SAMPLES);
    assert!(samples_beyond(999, 0.99) < TAIL_SAMPLES);
    let sample: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&sample, 0.99), 990.0);
    assert_eq!(percentile(&sample, 0.5), 500.0);
    assert_eq!(percentile(&sample, 1.0), 1000.0);
    assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
}

#[test]
fn tail_rank_reports_p99_only_with_ten_samples_beyond() {
    assert_eq!(tail_rank(1000), 0.99);
    assert_eq!(tail_rank(5000), 0.99);
    assert!(samples_beyond(5000, tail_rank(5000)) >= TAIL_SAMPLES);
    assert_eq!(tail_rank(999), 0.5);
    assert_eq!(tail_rank(8), 0.5);
}

#[test]
fn segments_split_evenly_and_drop_the_remainder() {
    assert_eq!(segments(10, 5), vec![0..2, 2..4, 4..6, 6..8, 8..10]);
    assert_eq!(segments(10_007, 10).len(), 10);
    assert!(segments(10_007, 10).iter().all(|r| r.len() == 1000));
    assert_eq!(segments(10_007, 10).last(), Some(&(9000..10_000)));
    assert_eq!(segments(3, 1), vec![0..3]);
}

#[test]
fn picker_is_deterministic_and_its_pool_outgrows_the_cache() {
    let draws = |seed| {
        let mut p = Picker::new(seed);
        (0..500).map(|_| p.next_point()).collect::<Vec<_>>()
    };
    assert_eq!(draws(7), draws(7));
    assert_ne!(draws(7), draws(8));

    let points = pool();
    let distinct: HashSet<_> = points.iter().collect();
    assert_eq!(distinct.len(), points.len());
    assert_eq!(points.len(), 72);
    assert!(points.len() > ServiceConfig::default().cache_capacity);
    // The skew is mild: a few thousand draws reach every point.
    let mut picker = Picker::new(5);
    let reached: HashSet<_> = (0..4000).map(|_| picker.next_point().0).collect();
    assert_eq!(reached.len(), points.len());
}

#[test]
fn timing_wrapper_is_transparent() {
    let exp = Experiment::new(NocConfig::scaled(8))
        .workload(Workload::patterned_with(
            SpatialPattern::Transpose,
            TemporalModel::on_off(0.005, 0.005),
            0.02,
        ))
        .plan(RunPlan::measure_all(3_000, 5_000, 11));
    let handle = exp.compile_design();
    let plain = exp.run_compiled(&handle);
    let wrapped = exp
        .clone()
        .drive(Drive::custom(|ctx: &TrafficContext<'_>| {
            Box::new(TimedTraffic::new(Drive::Bernoulli.build(ctx)))
                as Box<dyn smart_sim::traffic::TrafficSource>
        }))
        .run_compiled(&handle);
    assert_eq!(plain.snapshot_line(), wrapped.snapshot_line());
    assert_eq!(plain.counters, wrapped.counters);
    assert_eq!(plain.flow_latencies, wrapped.flow_latencies);

    // The wrapper counts what it forwards.
    let routed = handle.routed();
    let cfg = handle.config();
    let mut traffic = TimedTraffic::new(Drive::Bernoulli.build(&TrafficContext {
        rates: &routed.rates,
        flows: handle.flow_table(),
        topology: cfg.topology,
        flits_per_packet: cfg.flits_per_packet(),
        seed: 11,
        temporal: routed.temporal,
    }));
    let mut design: Design = CompiledDesign::instantiate(&handle);
    design.run_with(&mut traffic, 3_000);
    assert!(design.drain(5_000));
    assert_eq!(traffic.packets, plain.packets_injected);
    assert!(traffic.busy.as_nanos() > 0);
    assert_eq!(design.kind(), DesignKind::Smart);
}

#[test]
fn stamp_sink_records_events_in_order() {
    let sink = StampSink::default();
    let events = [
        ResponseEvent::Accepted {
            id: "a".into(),
            cells: 1,
        },
        ResponseEvent::Done {
            id: "a".into(),
            cells: 1,
            cache_hits: 0,
        },
    ];
    for e in &events {
        sink.emit(e);
    }
    let stamps = sink.into_stamps();
    assert_eq!(stamps.len(), 2);
    assert_eq!(stamps[0].event, events[0]);
    assert!(stamps[0].at <= stamps[1].at);
}

#[test]
fn result_line_prints_every_catalogue_metric() {
    let mut m = Metrics::default();
    m.put("cycles_per_s", 1234.5);
    m.put("setup_s", f64::NAN);
    let line = result_line(10, 0, END_TO_END, &m);
    assert!(
        line.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1,"),
        "{line}"
    );
    assert!(line.contains("\"cycles_per_s\": {\"value\": 1234.5, \"unit\": \"cycles/s\"}"));
    for (name, _) in END_TO_END {
        assert!(line.contains(&format!("\"{name}\": {{")), "{name}");
    }
}

/// `"name": "<x>"` values of one top-level array of `BENCHMARK.json`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let array = &json[start..];
    let array = &array[..array.find(']').expect("array closes")];
    array
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_owned())
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let names = |c: &[(&str, &str)]| c.iter().map(|(n, _)| (*n).to_owned()).collect::<Vec<_>>();
    assert_eq!(names_in(&json, "end_to_end"), names(END_TO_END));
    assert_eq!(names_in(&json, "per_layer"), names(PER_LAYER));
}
