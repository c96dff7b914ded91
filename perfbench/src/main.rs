//! The repository benchmark. One workload per process:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing traced;
//! `--trace 1` measures the per-layer metrics, timing calls into each
//! crate's public functions from here, and cross-checks them against
//! untraced runs of the same work. Human-readable detail goes to
//! stderr; the last line of stdout is the result object. See
//! `perfbench/README.md`.

mod served;
mod sim;

use smart_perfbench::report::{result_line, table, Metrics, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["sparse_64x64", "dense_8x8", "served_sweep"];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 51;

/// Operations attempted and the ones that produced a wrong output.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    faults: Vec<String>,
}

impl Tally {
    /// Count one operation, failed if it has any fault.
    pub fn record(&mut self, what: &str, faults: Vec<String>) {
        self.attempted += 1;
        if !faults.is_empty() {
            self.failed += 1;
        }
        self.faults
            .extend(faults.into_iter().map(|f| format!("{what}: {f}")));
    }
}

/// This process's peak resident set size in MB (`VmHWM`), NaN where
/// procfs has no reading.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread, and every thread it spawns after, to
/// the highest-numbered CPU it may run on (CPU 0 tends to take device
/// interrupts). Returns that CPU, or `None` where the kernel refused.
pub fn pin_to_one_cpu() -> Option<usize> {
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, and pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let flag = |name: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let known = ["--workload", "--seed", "--seconds", "--trace"];
    if let Some(bad) = args
        .iter()
        .step_by(2)
        .find(|a| !known.contains(&a.as_str()))
    {
        return Err(format!("unknown argument {bad:?}"));
    }
    let workload = flag("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = flag("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = flag("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?} is not 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (name, seed, seconds) = (args.workload.as_str(), args.seed, args.seconds);
    if name == "served_sweep" {
        // One request is in flight at a time, so a second CPU adds only
        // cross-CPU wake-ups, whose cost on a shared host is the
        // hypervisor's and not the server's.
        match pin_to_one_cpu() {
            Some(cpu) => eprintln!("{name}: pinned to CPU {cpu}"),
            None => eprintln!("{name}: could not pin to one CPU; running unpinned"),
        }
    }
    let outcome = match (name, args.trace) {
        ("served_sweep", false) => served::run_untraced(seed, seconds, SETUP_REPEATS),
        ("served_sweep", true) => served::run_traced(seed),
        (_, false) => Ok(sim::run_untraced(name, seed, seconds, SETUP_REPEATS)),
        (_, true) => Ok(sim::run_traced(name, seed, seconds, SETUP_REPEATS)),
    };
    let (tally, metrics): (Tally, Metrics) = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    eprintln!(
        "{name} seed {seed} ({}): {} operations, {} failed",
        if args.trace { "traced" } else { "untraced" },
        tally.attempted,
        tally.failed
    );
    for fault in &tally.faults {
        eprintln!("  FAULT {fault}");
    }
    eprint!("{}", table(catalogue, &metrics));
    println!(
        "{}",
        result_line(tally.attempted, tally.failed, catalogue, &metrics)
    );
    ExitCode::SUCCESS
}
