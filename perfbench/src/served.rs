//! The served workload: one TCP client driving a closed loop of
//! single-cell `experiment` requests against an in-process server.

use crate::sim::{cell_faults, put_counters, seconds_list, traced_pass, TracedPass};
use crate::Tally;
use smart_core::config::NocConfig;
use smart_harness::{CompiledDesign, Experiment, RunPlan, TelemetryConfig, Workload};
use smart_perfbench::picker::{DesignPoint, Picker};
use smart_perfbench::report::Metrics;
use smart_perfbench::stats::{
    mean, median, min_samples_for, percentile, segments, sorted, tail_rank,
};
use smart_perfbench::timing::StampSink;
use smart_server::{
    Client, EventSink, PlanSpec, Request, ResponseEvent, Server, ServerHandle, Service,
    ServiceConfig, TopologySpec, WorkloadSpec,
};
use smart_sim::{ActivityCounters, FlowTable};
use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::ops::Range;
use std::time::Instant;

/// Requests every run completes at least: enough for ten samples
/// beyond the 99th percentile.
fn min_requests() -> usize {
    min_samples_for(0.99)
}

/// Requests whose cells `sim_latency_cycles` averages: a fixed prefix of
/// the seeded sequence, long enough that the mean barely depends on the
/// seed.
const LATENCY_PREFIX: usize = 4_000;

/// Cycles measured and drain budget of every served cell.
const MEASURE: u64 = 2_000;
const DRAIN: u64 = 2_000;

/// Consecutive segments of equal request count an untraced run splits
/// into. Each end-to-end metric is the median over them of its value
/// in one segment: the request mix is stationary, so a host stall
/// confined to one segment moves none of them.
const SEGMENTS: usize = 10;

/// Telemetry window of the occupancy pass, cycles.
const TELEMETRY_WINDOW: u64 = 500;

/// The service sizing: the default cache, and one worker, as every
/// request carries one cell and the process runs on one CPU.
fn service_config() -> ServiceConfig {
    ServiceConfig {
        threads: 1,
        ..ServiceConfig::default()
    }
}

/// A running server and a connected client.
struct Rig {
    server: ServerHandle,
    client: Client,
}

impl Rig {
    fn open() -> io::Result<Rig> {
        let server = Server::bind("127.0.0.1:0", service_config())?.spawn()?;
        let client = Client::connect(server.addr())?;
        Ok(Rig { server, client })
    }

    /// Close the client and stop the server, waiting for its accept
    /// loop to end.
    fn close(self) -> io::Result<()> {
        drop(self.client);
        self.server.shutdown()
    }
}

/// Bind, spawn and connect `repeats` rigs one after another, closing
/// each before the next, and keep the last.
fn open_rig(repeats: usize) -> io::Result<(Rig, f64)> {
    let mut times = Vec::new();
    let mut kept: Option<Rig> = None;
    for _ in 0..repeats.max(1) {
        if let Some(rig) = kept.take() {
            rig.close()?;
        }
        let t = Instant::now();
        kept = Some(Rig::open()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one rig"), median(&times)))
}

/// One request of the closed loop.
#[derive(Debug)]
struct Drawn {
    point: DesignPoint,
    plan: RunPlan,
    request: Request,
}

impl Drawn {
    fn draw(picker: &mut Picker, index: usize) -> Drawn {
        let (point, seed) = picker.next_point();
        let plan = RunPlan::measure_all(MEASURE, DRAIN, seed);
        let request = Request::Experiment {
            id: format!("r{index}"),
            mesh: point.mesh,
            topology: TopologySpec::Mesh,
            shards: 1,
            design: point.design,
            workload: WorkloadSpec::App(point.app.clone()),
            plan: PlanSpec::from(plan),
        };
        Drawn {
            point,
            plan,
            request,
        }
    }

    fn config(&self) -> NocConfig {
        NocConfig::scaled(self.point.mesh)
    }

    fn experiment(&self) -> Experiment {
        Experiment::new(self.config())
            .design(self.point.design)
            .workload(Workload::app(&self.point.app))
            .plan(self.plan)
    }
}

/// The cell a request returned.
#[derive(Debug)]
struct Served {
    line: String,
    cycles: u64,
    latency: f64,
    measured: u64,
    cached: bool,
}

/// The served cell of one response stream, and what is wrong with it:
/// an `error` or `cell_error` event, a missing or extra cell, or a cell
/// that breaks packet or flit conservation.
fn served_cell(drawn: &Drawn, events: &[ResponseEvent]) -> (Option<Served>, Vec<String>) {
    let mut faults = Vec::new();
    let mut cells = Vec::new();
    for event in events {
        match event {
            ResponseEvent::Error { message, .. } => faults.push(format!("error: {message}")),
            ResponseEvent::CellError { message, .. } => {
                faults.push(format!("cell_error: {message}"));
            }
            ResponseEvent::Cell {
                injected,
                delivered,
                flits,
                latency,
                measured,
                cycles,
                cached,
                ..
            } => {
                let fpp = u64::from(drawn.config().flits_per_packet());
                if delivered != injected || *flits != delivered * fpp {
                    faults.push(format!(
                        "cell breaks conservation: {}",
                        event.snapshot_line().unwrap_or_default()
                    ));
                }
                cells.push(Served {
                    line: event.snapshot_line().expect("a cell event"),
                    cycles: *cycles,
                    latency: *latency,
                    measured: *measured,
                    cached: *cached,
                });
            }
            _ => {}
        }
    }
    if !matches!(events.last(), Some(ResponseEvent::Done { cells: 1, .. })) {
        faults.push(format!("stream did not end in done: {:?}", events.last()));
    }
    if cells.len() != 1 {
        faults.push(format!("{} cells for one request", cells.len()));
    }
    (cells.pop(), faults)
}

/// Requests whose per-request numbers a loop has room for before its
/// vectors grow. Reserved up front and touched only as filled, so the
/// bookkeeping adds to the peak RSS in proportion to the requests made,
/// with no doubling step part way through a run.
const LOOP_CAPACITY: usize = 1 << 20;

/// What a closed loop over one connection produced.
struct Loop {
    /// The first `keep` requests and the cells they returned.
    drawn: Vec<Drawn>,
    served: Vec<Option<Served>>,
    /// Every request's latency, seconds.
    latencies: Vec<f64>,
    /// Seconds from the loop's start to each request's terminal event.
    done_at: Vec<f64>,
    /// Simulated cycles of each request's cell (0 for none).
    cycles: Vec<f64>,
}

/// Submit requests one at a time until `done(completed, elapsed)`,
/// keeping the first `keep` requests and their cells.
fn closed_loop(
    client: &mut Client,
    seed: u64,
    keep: usize,
    tally: &mut Tally,
    done: impl Fn(usize, f64) -> bool,
) -> Loop {
    let mut picker = Picker::new(seed);
    let mut out = Loop {
        drawn: Vec::new(),
        served: Vec::new(),
        latencies: Vec::with_capacity(LOOP_CAPACITY),
        done_at: Vec::with_capacity(LOOP_CAPACITY),
        cycles: Vec::with_capacity(LOOP_CAPACITY),
    };
    let start = Instant::now();
    while !done(out.latencies.len(), start.elapsed().as_secs_f64()) {
        let drawn = Drawn::draw(&mut picker, out.latencies.len());
        let t = Instant::now();
        let events = client.submit(&drawn.request);
        out.latencies.push(t.elapsed().as_secs_f64());
        out.done_at.push(start.elapsed().as_secs_f64());
        let (cell, faults) = match events {
            Ok(events) => served_cell(&drawn, &events),
            Err(e) => (None, vec![format!("transport: {e}")]),
        };
        tally.record("request", faults);
        out.cycles
            .push(cell.as_ref().map_or(0.0, |c| c.cycles as f64));
        if out.drawn.len() < keep {
            out.served.push(cell);
            out.drawn.push(drawn);
        }
    }
    out
}

/// Packet-weighted mean head-flit latency over the first
/// [`LATENCY_PREFIX`] cells, so it repeats exactly.
fn prefix_latency(served: &[Option<Served>]) -> f64 {
    let cells = served.iter().take(LATENCY_PREFIX).flatten();
    let (sum, packets) = cells.fold((0.0, 0u64), |(s, n), c| {
        (s + c.latency * c.measured as f64, n + c.measured)
    });
    sum / packets as f64
}

/// The untraced run: end-to-end metrics of the closed loop.
pub fn run_untraced(seed: u64, seconds: f64, setup_repeats: usize) -> io::Result<(Tally, Metrics)> {
    let mut tally = Tally::default();
    let (mut rig, setup_s) = open_rig(setup_repeats)?;
    let run = closed_loop(
        &mut rig.client,
        seed,
        LATENCY_PREFIX,
        &mut tally,
        |n, elapsed| n >= (SEGMENTS * min_requests()).max(LATENCY_PREFIX) && elapsed >= seconds,
    );
    rig.close()?;
    let peak_rss = crate::peak_rss_mb();

    // Each segment has at least `min_requests` requests, so its 99th
    // percentile has ten samples beyond it.
    let segs = segments(run.latencies.len(), SEGMENTS);
    let over_segments =
        |f: &dyn Fn(Range<usize>) -> f64| median(&segs.iter().cloned().map(f).collect::<Vec<_>>());
    let span = |r: &Range<usize>| {
        let start = r.start.checked_sub(1).map_or(0.0, |i| run.done_at[i]);
        run.done_at[r.end - 1] - start
    };
    let latency_at = |r: Range<usize>, p: f64| percentile(&sorted(&run.latencies[r]), p) * 1e3;
    let rates: Vec<f64> = segs.iter().map(|r| r.len() as f64 / span(r)).collect();
    eprintln!(
        "served_sweep: requests/s of each segment: {}",
        seconds_list(&rates)
    );
    let mut m = Metrics::default();
    m.put(
        "cycles_per_s",
        over_segments(&|r| run.cycles[r.clone()].iter().sum::<f64>() / span(&r)),
    );
    m.put("setup_s", setup_s);
    m.put("peak_rss_mb", peak_rss);
    m.put("sim_latency_cycles", prefix_latency(&run.served));
    m.put("req_p50_ms", over_segments(&|r| latency_at(r, 0.5)));
    m.put(
        "req_p99_ms",
        over_segments(&|r| {
            let tail = tail_rank(r.len());
            latency_at(r, tail)
        }),
    );
    m.put("req_per_s", over_segments(&|r| r.len() as f64 / span(&r)));
    Ok((tally, m))
}

/// Discards every event: the untraced in-process replay.
struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _event: &ResponseEvent) {}
}

/// The traced run: the closed loop over TCP, then an in-process replay
/// of the same requests layer by layer.
pub fn run_traced(seed: u64) -> io::Result<(Tally, Metrics)> {
    let mut tally = Tally::default();
    let mut m = Metrics::default();

    // 1. The requests in-process through `Service::handle`, untraced.
    //    Running first, this also warms the process, so neither the
    //    socket loop nor the traced replay below pays first-touch costs
    //    the other does not.
    let mut picker = Picker::new(seed);
    let untraced = Service::new(service_config());
    let t = Instant::now();
    for i in 0..min_requests() {
        untraced.handle(&Drawn::draw(&mut picker, i).request, &NullSink);
    }
    let untraced_s = t.elapsed().as_secs_f64();

    // 2. The same requests over TCP (the same seed draws the same
    //    sequence), and the server's own cache counters.
    let mut rig = Rig::open()?;
    let run = closed_loop(&mut rig.client, seed, min_requests(), &mut tally, |n, _| {
        n >= min_requests()
    });
    let stats = rig.client.submit(&Request::Stats {
        id: "stats".to_owned(),
    })?;
    rig.close()?;
    let server_cache = stats.iter().find_map(|e| match e {
        ResponseEvent::Stats {
            cache_hits,
            cache_misses,
            cached_designs,
            ..
        } => Some((*cache_hits, *cache_misses, *cached_designs)),
        _ => None,
    });

    // 3. The same requests through `Request::parse` and a traced
    //    `Service::handle`.
    let service = Service::new(service_config());
    let (mut parse, mut handle, mut accept, mut emit) = (vec![], vec![], vec![], vec![]);
    let (mut cell_hit, mut cell_miss) = (vec![], vec![]);
    for (drawn, served) in run.drawn.iter().zip(&run.served) {
        let doc = drawn.request.to_jsonl();
        let t = Instant::now();
        let parsed = Request::parse(&doc);
        parse.push(t.elapsed().as_secs_f64());
        let mut faults = Vec::new();
        if parsed.as_ref() != Ok(&drawn.request) {
            faults.push(format!("request does not round-trip: {parsed:?}"));
        }
        let sink = StampSink::default();
        let t = Instant::now();
        service.handle(parsed.as_ref().unwrap_or(&drawn.request), &sink);
        handle.push(t.elapsed().as_secs_f64());
        let stamps = sink.into_stamps();
        emit.extend(stamps.iter().map(|s| s.render.as_secs_f64()));
        let accepted = stamps
            .iter()
            .find(|s| matches!(s.event, ResponseEvent::Accepted { .. }))
            .map(|s| s.at);
        let cell = stamps.iter().find_map(|s| match &s.event {
            ResponseEvent::Cell { cached, .. } => Some((s, *cached)),
            _ => None,
        });
        match (accepted, cell, served) {
            (Some(accepted_at), Some((stamp, cached)), Some(served)) => {
                accept.push((accepted_at - t).as_secs_f64());
                let span = (stamp.at - accepted_at).as_secs_f64();
                if cached {
                    cell_hit.push(span);
                } else {
                    cell_miss.push(span);
                }
                if stamp.event.snapshot_line().as_deref() != Some(served.line.as_str())
                    || cached != served.cached
                {
                    faults.push(format!(
                        "replayed cell {:?} differs from served {:?}",
                        stamp.event.snapshot_line(),
                        served.line
                    ));
                }
            }
            _ => faults.push("replay produced no cell".to_owned()),
        }
        tally.record("replayed request", faults);
    }
    let wire: Vec<f64> = run
        .latencies
        .iter()
        .zip(&handle)
        .map(|(e2e, h)| e2e - h)
        .collect();
    // The spans cover parse and handle; the socket and client path is
    // the remainder, reported as `server.wire_ms` rather than checked
    // against the simulation workloads' coverage floor.
    let traced_s: f64 = parse.iter().sum::<f64>() + handle.iter().sum::<f64>();
    m.put("server.parse_us", mean(&parse) * 1e6);
    m.put("server.accept_ms", mean(&accept) * 1e3);
    m.put("server.cell_hit_ms", mean(&cell_hit) * 1e3);
    m.put("server.cell_miss_ms", mean(&cell_miss) * 1e3);
    m.put("server.emit_us", mean(&emit) * 1e6);
    m.put("server.wire_ms", mean(&wire) * 1e3);
    m.put("trace.overhead_s", handle.iter().sum::<f64>() - untraced_s);
    m.put(
        "trace.coverage",
        traced_s / run.latencies.iter().sum::<f64>(),
    );

    let cache = service.cache();
    let (hits, misses, held) = (cache.hits(), cache.misses(), cache.len() as u64);
    if server_cache != Some((hits, misses, held)) {
        tally.record(
            "cache counters",
            vec![format!(
                "served cache {server_cache:?} differs from replay ({hits}, {misses}, {held})"
            )],
        );
    }
    m.put("cache.hits", hits as f64);
    m.put("cache.misses", misses as f64);
    m.put("cache.evictions", (misses - held) as f64);
    m.put("cache.hit_ratio", hits as f64 / (hits + misses) as f64);

    // 4. Each design point that missed, compiled cold in-process.
    let mut handles: HashMap<DesignPoint, CompiledDesign> = HashMap::new();
    let (mut map_s, mut table_s, mut compile_s) = (vec![], vec![], vec![]);
    for (drawn, served) in run.drawn.iter().zip(&run.served) {
        if served.as_ref().is_some_and(|s| s.cached) || handles.contains_key(&drawn.point) {
            continue;
        }
        let cfg = drawn.config();
        let t = Instant::now();
        let routed = Workload::app(&drawn.point.app).materialize(&cfg);
        map_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(FlowTable::mesh_baseline(cfg.topology, &routed.routes));
        table_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let compiled = CompiledDesign::from_routed(&cfg, drawn.point.design, routed);
        compile_s.push(t.elapsed().as_secs_f64());
        handles.insert(drawn.point.clone(), compiled);
    }
    m.put("mapping.s", map_s.iter().sum());
    m.put("mapping.miss_ms", mean(&map_s) * 1e3);
    m.put("core.flow_table_s", table_s.iter().sum());
    m.put("core.build_s", compile_s.iter().sum());
    m.put("core.compile_miss_ms", mean(&compile_s) * 1e3);

    // 5. Each served cell run in-process: timed through
    //    `run_compiled`, layer by layer through the design API, with
    //    telemetry for occupancy, and cold through `Experiment::run`.
    let (mut run_s, mut passes) = (vec![], Vec::<TracedPass>::new());
    let mut counters = ActivityCounters::default();
    let mut buffered = Vec::new();
    for (drawn, served) in run.drawn.iter().zip(&run.served) {
        let cfg = drawn.config();
        let compiled = handles
            .entry(drawn.point.clone())
            .or_insert_with(|| drawn.experiment().compile_design());
        let exp = drawn.experiment();
        let t = Instant::now();
        let r = black_box(exp.run_compiled(compiled));
        run_s.push(t.elapsed().as_secs_f64());
        let pass = traced_pass(&cfg, drawn.plan, compiled);
        let mut faults = pass.faults(&r);
        let probed = exp
            .clone()
            .with_telemetry(TelemetryConfig::windowed(TELEMETRY_WINDOW))
            .run_compiled(compiled);
        if let Some(series) = &probed.telemetry {
            buffered.extend(series.windows.iter().map(|w| w.buffered as f64));
        }
        let fpp = u64::from(cfg.flits_per_packet());
        let served_line = served.as_ref().map(|s| s.line.clone());
        faults.extend(cell_faults(&r, fpp, served_line.as_deref()));
        faults.extend(cell_faults(&probed, fpp, served_line.as_deref()));
        faults.extend(cell_faults(&exp.run(), fpp, served_line.as_deref()));
        tally.record("in-process cell", faults);
        counters.merge(&pass.counters);
        passes.push(pass);
    }
    let sum = |f: &dyn Fn(&TracedPass) -> f64| passes.iter().map(f).sum::<f64>();
    let traffic_s = sum(&|p| p.traffic.as_secs_f64());
    let engine_s = sum(&|p| p.engine().as_secs_f64());
    let packets = sum(&|p| p.packets as f64);
    let cycles = sum(&|p| p.cycles as f64);
    let buffered = mean(&buffered);
    let ns_per_cycle = engine_s * 1e9 / cycles;
    m.put("traffic.s", traffic_s);
    m.put("traffic.packets", packets);
    m.put("traffic.ns_per_packet", traffic_s * 1e9 / packets);
    m.put("sim.run_ms", mean(&run_s) * 1e3);
    m.put(
        "sim.step_s",
        sum(&|p| p.run.saturating_sub(p.traffic).as_secs_f64()),
    );
    m.put("sim.drain_s", sum(&|p| p.drain.as_secs_f64()));
    m.put("sim.cycles", cycles);
    m.put("sim.ns_per_cycle", ns_per_cycle);
    put_counters(&mut m, &counters);
    m.put(
        "sim.ns_per_buffer_write",
        engine_s * 1e9 / counters.buffer_writes as f64,
    );
    m.put("sim.buffered_flits_mean", buffered);
    m.put("sim.ns_per_buffered_flit", ns_per_cycle / buffered);
    Ok((tally, m))
}
