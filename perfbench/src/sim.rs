//! The simulation workloads: one experiment cell compiled once and run
//! back to back through `Experiment::run_compiled`.

use crate::Tally;
use smart_core::config::NocConfig;
use smart_core::noc::DesignKind;
use smart_harness::{
    CompiledDesign, Drive, Experiment, ExperimentReport, RunPlan, SpatialPattern, TelemetryConfig,
    TemporalModel, TrafficContext, Workload,
};
use smart_perfbench::report::Metrics;
use smart_perfbench::stats::{median, percentile, sorted, tail_rank};
use smart_perfbench::timing::TimedTraffic;
use smart_sim::{ActivityCounters, FlowTable};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The seed whose snapshot lines are pinned in [`PINNED`].
pub const DEFAULT_SEED: u64 = 1;

/// Snapshot line of each simulation workload at [`DEFAULT_SEED`]. The
/// simulated outputs are pinned, not validated against hardware: a
/// change that moves one changed the modelled design.
const PINNED: &[(&str, &str)] = &[
    (
        "sparse_64x64",
        "Mesh/uniform256@0.02 injected=15309 delivered=15309 flits=122472 \
         latency=177.35978835978835 measured=15309",
    ),
    (
        "dense_8x8",
        "SMART/transpose@0.02+onoff(0.005,0.005) injected=23039 delivered=23039 \
         flits=184312 latency=61.737054559659704 measured=23039",
    ),
];

/// The flow set of the 64×64 workloads: the existing scorecard cell's
/// uniform flows, so the run seed varies injection only.
const FLOW_SEED: u64 = 0x5EED;

/// Row-band shards of the sharded twin of `sparse_64x64`.
const TWIN_SHARDS: usize = 2;

/// Cells a run times at least, however long they take.
const MIN_CELLS: usize = 3;

/// Telemetry window of the occupancy pass, cycles.
const TELEMETRY_WINDOW: u64 = 500;

/// The least share of the untraced wall time the traced layers must
/// account for.
const MIN_COVERAGE: f64 = 0.9;

/// One simulation workload at one seed.
#[derive(Debug)]
pub struct SimSpec {
    cfg: NocConfig,
    kind: DesignKind,
    workload: Workload,
    plan: RunPlan,
}

/// The simulation workload `name` at `seed`, or `None` if `name` is not
/// one. The seed seeds injection.
#[must_use]
pub fn spec(name: &str, seed: u64) -> Option<SimSpec> {
    let (cfg, kind, workload, plan) = match name {
        "sparse_64x64" => (
            NocConfig::scaled(64),
            DesignKind::Mesh,
            Workload::uniform(256, 0.02, FLOW_SEED),
            RunPlan::measure_all(3_000, 10_000, seed),
        ),
        "dense_8x8" => (
            NocConfig::scaled(8),
            DesignKind::Smart,
            Workload::patterned_with(
                SpatialPattern::Transpose,
                TemporalModel::on_off(0.005, 0.005),
                0.02,
            ),
            RunPlan::measure_all(20_000, 50_000, seed),
        ),
        _ => return None,
    };
    Some(SimSpec {
        cfg,
        kind,
        workload,
        plan,
    })
}

/// The sharded twin of workload `name` at `seed`: the same cell on
/// [`TWIN_SHARDS`] row-band shards, which must reproduce the serial
/// engine bit for bit. Only `sparse_64x64` has one. It is a check and
/// a per-layer span, not a workload: two threads in lock-step on a
/// shared host time the hypervisor's scheduling more than the engine.
fn sharded_twin(name: &str, seed: u64) -> Option<SimSpec> {
    let mut twin = spec(name, seed).filter(|_| name == "sparse_64x64")?;
    twin.cfg.shards = TWIN_SHARDS;
    Some(twin)
}

/// Run the sharded twin of `name` at `seed`, if it has one, recording
/// whether it reproduces `serial`'s snapshot line; its host seconds.
fn run_twin(name: &str, seed: u64, serial: &str, tally: &mut Tally) -> Option<f64> {
    let twin = sharded_twin(name, seed)?;
    let handle = twin.compile();
    let t = Instant::now();
    let r = twin.experiment().run_compiled(&handle);
    let run_s = t.elapsed().as_secs_f64();
    let fpp = u64::from(twin.cfg.flits_per_packet());
    tally.record("sharded twin", cell_faults(&r, fpp, Some(serial)));
    Some(run_s)
}

impl SimSpec {
    fn experiment(&self) -> Experiment {
        Experiment::new(self.cfg.clone())
            .design(self.kind)
            .workload(self.workload.clone())
            .plan(self.plan)
    }

    fn compile(&self) -> CompiledDesign {
        CompiledDesign::compile(&self.cfg, self.kind, &self.workload)
    }
}

/// What is wrong with one finished cell: it did not drain, it broke
/// flit or packet conservation, or its snapshot line differs from
/// `reference`.
pub(crate) fn cell_faults(
    r: &ExperimentReport,
    flits_per_packet: u64,
    reference: Option<&str>,
) -> Vec<String> {
    let mut faults = Vec::new();
    if !r.drained {
        faults.push("did not drain".to_owned());
    }
    if r.flits_delivered != r.packets_delivered * flits_per_packet {
        faults.push(format!(
            "{} flits delivered for {} packets of {flits_per_packet} flits",
            r.flits_delivered, r.packets_delivered
        ));
    }
    if r.packets_delivered != r.packets_injected {
        faults.push(format!(
            "{} packets delivered of {} injected",
            r.packets_delivered, r.packets_injected
        ));
    }
    let line = r.snapshot_line();
    if let Some(reference) = reference {
        if line != reference {
            faults.push(format!("snapshot {line:?} differs from {reference:?}"));
        }
    }
    faults
}

/// One cell driven call by call through the public design API, timing
/// each layer, with the traffic source behind [`TimedTraffic`]. It
/// replays what `Experiment::run_compiled` does.
pub(crate) struct TracedPass {
    /// Building the traffic source (`Drive::build`).
    pub traffic_build: Duration,
    /// `CompiledDesign::instantiate_sharded`.
    pub instantiate: Duration,
    /// `Design::run_with` over warm-up and measurement.
    pub run: Duration,
    /// `Design::drain`.
    pub drain: Duration,
    /// Reading the results (`Design::stats`) and dropping the design.
    pub collect: Duration,
    /// Time inside `TrafficSource::generate` (part of `run`).
    pub traffic: Duration,
    /// Packets the source generated.
    pub packets: u64,
    /// Cycles the network advanced.
    pub cycles: u64,
    pub drained: bool,
    pub counters: ActivityCounters,
    pub latency: f64,
    pub measured: u64,
}

impl TracedPass {
    /// Host time of every span: what the pass covers.
    pub fn total(&self) -> Duration {
        self.traffic_build + self.instantiate + self.run + self.drain + self.collect
    }

    /// Engine time: stepping minus traffic generation, plus draining.
    pub fn engine(&self) -> Duration {
        self.run.saturating_sub(self.traffic) + self.drain
    }

    /// What differs from the untraced report of the same cell.
    pub fn faults(&self, r: &ExperimentReport) -> Vec<String> {
        let same = self.counters == r.counters
            && self.latency.to_bits() == r.avg_network_latency.to_bits()
            && self.measured == r.measured_packets
            && self.drained == r.drained
            && self.cycles == r.total_cycles;
        if same {
            Vec::new()
        } else {
            vec![format!(
                "traced pass differs from the untraced run of {}",
                r.snapshot_line()
            )]
        }
    }
}

/// Drive `handle` through `plan` on `cfg`'s shard count, as
/// `Experiment::run_compiled` does with the Bernoulli drive.
pub(crate) fn traced_pass(cfg: &NocConfig, plan: RunPlan, handle: &CompiledDesign) -> TracedPass {
    let routed = handle.routed();
    let t = Instant::now();
    let inner = Drive::Bernoulli.build(&TrafficContext {
        rates: &routed.rates,
        flows: handle.flow_table(),
        topology: cfg.topology,
        flits_per_packet: cfg.flits_per_packet(),
        seed: plan.seed,
        temporal: routed.temporal,
    });
    let mut traffic = TimedTraffic::new(inner);
    let traffic_build = t.elapsed();

    let t = Instant::now();
    let mut design = handle.instantiate_sharded(cfg.shards);
    let instantiate = t.elapsed();

    let t = Instant::now();
    design.set_stats_from(plan.warmup);
    design.run_with(&mut traffic, plan.warmup);
    design.reset_counters();
    design.run_with(&mut traffic, plan.measure);
    let run = t.elapsed();

    let t = Instant::now();
    let drained = design.drain(plan.drain);
    let drain = t.elapsed();

    let t = Instant::now();
    let (cycles, counters) = (design.cycle(), *design.counters());
    let stats = design.stats();
    let (latency, measured) = (stats.avg_network_latency(), stats.packets());
    drop(design);
    let collect = t.elapsed();

    TracedPass {
        traffic_build,
        instantiate,
        run,
        drain,
        collect,
        traffic: traffic.busy,
        packets: traffic.packets,
        cycles,
        drained,
        counters,
        latency,
        measured,
    }
}

/// Median host seconds of `repeats` calls of `f`, and the last result.
pub(crate) fn timed_median<T>(repeats: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let t = Instant::now();
        last = Some(black_box(f()));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one repeat"), median(&times))
}

fn pinned(name: &str) -> &'static str {
    PINNED
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, line)| line)
}

/// Run the reference cells of `name` at `seed`, whose first timed cell
/// was `first`: the pinned line at [`DEFAULT_SEED`], and the sharded
/// twin on the same seed.
fn check_references(name: &str, seed: u64, first: &ExperimentReport, tally: &mut Tally) {
    if seed == DEFAULT_SEED {
        let line = first.snapshot_line();
        let faults = if line == pinned(name) {
            Vec::new()
        } else {
            vec![format!("snapshot {line:?} is not the pinned line")]
        };
        tally.record(&format!("{name} pinned"), faults);
    } else {
        let spec = spec(name, DEFAULT_SEED).expect("known workload");
        let r = spec.experiment().run_compiled(&spec.compile());
        let fpp = u64::from(spec.cfg.flits_per_packet());
        tally.record(
            &format!("{name} reference"),
            cell_faults(&r, fpp, Some(pinned(name))),
        );
    }
    run_twin(name, seed, &first.snapshot_line(), tally);
}

/// `times` as one space-separated line, for the stderr detail.
pub(crate) fn seconds_list(times: &[f64]) -> String {
    let cells: Vec<String> = times.iter().map(|t| format!("{t:.4}")).collect();
    cells.join(" ")
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced(name: &str, seed: u64, seconds: f64, setup_repeats: usize) -> (Tally, Metrics) {
    let spec = spec(name, seed).expect("known workload");
    let mut tally = Tally::default();
    let (handle, setup_s) = timed_median(setup_repeats, || spec.compile());
    let exp = spec.experiment();
    let fpp = u64::from(spec.cfg.flits_per_packet());

    let mut walls = Vec::new();
    let mut first: Option<ExperimentReport> = None;
    let start = Instant::now();
    while walls.len() < MIN_CELLS || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let r = black_box(exp.run_compiled(&handle));
        walls.push(t.elapsed().as_secs_f64());
        let reference = first.as_ref().map(ExperimentReport::snapshot_line);
        tally.record("cell", cell_faults(&r, fpp, reference.as_deref()));
        first.get_or_insert(r);
    }
    let peak_rss = crate::peak_rss_mb();
    let first = first.expect("at least one cell");
    check_references(name, seed, &first, &mut tally);

    eprintln!(
        "{name}: cell seconds in run order: {}",
        seconds_list(&walls)
    );
    let cell_s = median(&walls);
    let mut m = Metrics::default();
    m.put("cycles_per_s", first.total_cycles as f64 / cell_s);
    m.put("setup_s", setup_s);
    m.put("peak_rss_mb", peak_rss);
    m.put("sim_latency_cycles", first.avg_network_latency);
    m.put("req_p50_ms", percentile(&sorted(&walls), 0.5) * 1e3);
    m.put(
        "req_p99_ms",
        percentile(&sorted(&walls), tail_rank(walls.len())) * 1e3,
    );
    m.put("req_per_s", 1.0 / cell_s);
    (tally, m)
}

/// The traced run: per-layer metrics, cross-checked against untraced
/// runs of the same cell.
pub fn run_traced(name: &str, seed: u64, seconds: f64, setup_repeats: usize) -> (Tally, Metrics) {
    let spec = spec(name, seed).expect("known workload");
    let cfg = &spec.cfg;
    let mut tally = Tally::default();
    let mut m = Metrics::default();

    // Set-up, layer by layer: NMAP/XY mapping, the baseline flow table,
    // and design compilation plus bring-up.
    let (mut map_s, mut table_s, mut build_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut handle = None;
    for _ in 0..setup_repeats {
        let t = Instant::now();
        let routed = spec.workload.materialize(cfg);
        map_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(FlowTable::mesh_baseline(cfg.topology, &routed.routes));
        table_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let h = CompiledDesign::from_routed(cfg, spec.kind, routed);
        black_box(h.instantiate());
        build_s.push(t.elapsed().as_secs_f64());
        handle = Some(h);
    }
    let handle = handle.expect("at least one set-up");
    m.put("mapping.s", median(&map_s));
    m.put("core.flow_table_s", median(&table_s));
    m.put("core.build_s", median(&build_s));

    // Untraced and traced passes of the same cell, alternating.
    let exp = spec.experiment();
    let fpp = u64::from(cfg.flits_per_packet());
    let (mut walls, mut passes) = (Vec::new(), Vec::new());
    let mut first: Option<ExperimentReport> = None;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let r = black_box(exp.run_compiled(&handle));
        walls.push(t.elapsed().as_secs_f64());
        let reference = first.as_ref().map(ExperimentReport::snapshot_line);
        tally.record("cell", cell_faults(&r, fpp, reference.as_deref()));
        let pass = traced_pass(cfg, spec.plan, &handle);
        tally.record("traced cell", pass.faults(&r));
        passes.push(pass);
        first.get_or_insert(r);
    }
    let first = first.expect("at least one cell");

    // Occupancy from a telemetry-on pass; its timings are discarded.
    let probed = exp
        .clone()
        .with_telemetry(TelemetryConfig::windowed(TELEMETRY_WINDOW))
        .run_compiled(&handle);
    tally.record(
        "telemetry cell",
        cell_faults(&probed, fpp, Some(&first.snapshot_line())),
    );
    let windows = probed.telemetry.map(|t| t.windows).unwrap_or_default();
    let buffered = windows.iter().map(|w| w.buffered as f64).sum::<f64>() / windows.len() as f64;

    let med = |f: &dyn Fn(&TracedPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let pass = &passes[0];
    let traffic_s = med(&|p| p.traffic.as_secs_f64());
    let engine_s = med(&|p| p.engine().as_secs_f64());
    let cycles = pass.cycles as f64;
    let ns_per_cycle = engine_s * 1e9 / cycles;
    let c = &pass.counters;
    m.put("traffic.s", traffic_s);
    m.put("traffic.packets", pass.packets as f64);
    m.put(
        "traffic.ns_per_packet",
        traffic_s * 1e9 / pass.packets as f64,
    );
    m.put("sim.run_ms", median(&walls) * 1e3);
    m.put(
        "sim.step_s",
        med(&|p| p.run.saturating_sub(p.traffic).as_secs_f64()),
    );
    m.put("sim.drain_s", med(&|p| p.drain.as_secs_f64()));
    m.put("sim.cycles", cycles);
    m.put("sim.ns_per_cycle", ns_per_cycle);
    put_counters(&mut m, c);
    m.put(
        "sim.ns_per_buffer_write",
        engine_s * 1e9 / c.buffer_writes as f64,
    );
    m.put("sim.buffered_flits_mean", buffered);
    m.put("sim.ns_per_buffered_flit", ns_per_cycle / buffered);

    let overhead: Vec<f64> = passes
        .iter()
        .zip(&walls)
        .map(|(p, w)| p.total().as_secs_f64() - w)
        .collect();
    let coverage: Vec<f64> = passes
        .iter()
        .zip(&walls)
        .map(|(p, w)| p.total().as_secs_f64() / w)
        .collect();
    let coverage = median(&coverage);
    m.put("trace.overhead_s", median(&overhead));
    m.put("trace.coverage", coverage);
    tally.record("layer coverage", coverage_faults(coverage));
    if let Some(twin_s) = run_twin(name, seed, &first.snapshot_line(), &mut tally) {
        m.put("sim.sharded_run_ms", twin_s * 1e3);
    }
    (tally, m)
}

/// The fault of a traced run whose layers cover too little of the
/// untraced wall time.
fn coverage_faults(coverage: f64) -> Vec<String> {
    if coverage >= MIN_COVERAGE {
        Vec::new()
    } else {
        vec![format!(
            "traced layers cover {:.1}% of the untraced time, under {:.0}%",
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        )]
    }
}

/// Record the exact activity counters of a cell (or a sum of cells).
pub(crate) fn put_counters(m: &mut Metrics, c: &ActivityCounters) {
    m.put("sim.buffer_writes", c.buffer_writes as f64);
    m.put("sim.xbar_flit_traversals", c.xbar_flit_traversals as f64);
    m.put("sim.sa_requests", c.sa_requests as f64);
    m.put("sim.sa_grants", c.sa_grants as f64);
    m.put(
        "sim.sa_grant_ratio",
        c.sa_grants as f64 / c.sa_requests as f64,
    );
    m.put("sim.flits_delivered", c.flits_delivered as f64);
}
