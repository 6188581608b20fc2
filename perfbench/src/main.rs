//! End-to-end and per-layer benchmark of the VOXEL simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_trial|fleet_bulk|edge_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation runs one workload in a process of its own (so its
//! `VmHWM` is that workload's peak memory). With `--trace 0` it sets the
//! workload up several times, then runs it closed-loop — the next run
//! starts when the previous one returns — for `--seconds`, checks every
//! output with the testkit oracles, and prints `sim_speed`, `setup_s`
//! and `peak_rss_mb`. With `--trace 1` it prints the per-layer metrics
//! instead (see `traced.rs`). Either way the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}` whose counts are
//! sessions; the line before it is a work digest. README.md gives the
//! metric definitions and why each workload exists.

mod host;
mod probe;
mod traced;
mod workloads;

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use voxel_core::ContentCache;
use voxel_media::content::VideoId;
use workloads::{FleetInputs, FleetShape, EDGE_MIX, FLEET_BULK};

/// Fewest set-ups per untraced run; `setup_s` is their median, scaled
/// for host speed.
const SETUP_REPEATS: usize = 5;

/// Set-up time after which no further set-up starts, once
/// [`SETUP_REPEATS`] are done: short set-ups repeat more often, so their
/// median is over as much wall time as a long one's.
const SETUP_BUDGET: Duration = Duration::from_secs(4);

/// Kernel passes that measure the host after each set-up.
const SETUP_PASSES: usize = 3;

/// `paper_trial` trials whose outputs form the work digest (a fixed
/// prefix, so the digest does not depend on how many trials fit).
const DIGEST_TRIALS: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// What one run prints.
pub(crate) struct Report {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)`.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Work digest: `(name, value)`, values already JSON.
    digest: Vec<(&'static str, String)>,
}

impl Report {
    pub(crate) fn new(attempted: u64, failed: u64) -> Report {
        Report {
            attempted,
            failed,
            metrics: Vec::new(),
            digest: Vec::new(),
        }
    }

    pub(crate) fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is {value}");
        self.metrics.push((name, value, unit));
    }

    pub(crate) fn digest(&mut self, name: &'static str, value: impl std::fmt::Display) {
        self.digest.push((name, value.to_string()));
    }

    fn print(&self) {
        let mut d = String::from("{\"digest\": {");
        let mut sep = "";
        for (k, v) in &self.digest {
            let _ = write!(d, "{sep}\"{k}\": {v}");
            sep = ", ";
        }
        d.push_str("}}");
        println!("{d}");
        let mut m = String::new();
        let mut sep = "";
        for (k, v, unit) in &self.metrics {
            let _ = write!(m, "{sep}\"{k}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
            sep = ", ";
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
    }
}

/// Median of a non-empty sample.
pub(crate) fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`).
pub(crate) fn proc_status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Set-up times of a run, and the host measured after them.
struct Setup {
    times_s: Vec<f64>,
    /// Single-thread kernel passes, [`SETUP_PASSES`] after each set-up.
    passes_ms: Vec<f64>,
}

/// Run `setup` at least [`SETUP_REPEATS`] times and until
/// [`SETUP_BUDGET`] is spent, each followed by [`SETUP_PASSES`] kernel
/// passes; keep the last result.
fn timed_setups<T>(meter: &mut host::Meter, mut setup: impl FnMut() -> T) -> (T, Setup) {
    let mut times = Setup {
        times_s: Vec::new(),
        passes_ms: Vec::new(),
    };
    let mut last = None;
    let mut spent = Duration::ZERO;
    while times.times_s.len() < SETUP_REPEATS || spent < SETUP_BUDGET {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        let took = t.elapsed();
        spent += took;
        let s = took.as_secs_f64();
        eprintln!("set-up took {s:.3} s");
        times.times_s.push(s);
        times
            .passes_ms
            .extend((0..SETUP_PASSES).map(|_| meter.pass(1)));
    }
    (last.expect("at least one set-up"), times)
}

/// The end-to-end metrics. `sim_speed` and `setup_s` are medians scaled
/// to the reference host speed by the median kernel time measured after
/// the simulations (`kernel_ms`) or the set-ups (see `host.rs`); the raw
/// medians and kernel times go to the digest. `peak_kb` is `VmHWM` once
/// every distinct simulation of the workload has run (repeats, which
/// reuse a fragmented heap, stay out of it); a run too short for that
/// reads `VmHWM` at its end.
fn end_to_end(
    report: &mut Report,
    speeds: &[f64],
    kernel_ms: f64,
    setup: &Setup,
    peak_kb: Option<u64>,
) {
    let raw = median(speeds);
    let setup_raw = median(&setup.times_s);
    let setup_kernel_ms = median(&setup.passes_ms);
    let peak_kb = peak_kb.unwrap_or_else(|| proc_status_kb("VmHWM"));
    report.metric(
        "sim_speed",
        raw * kernel_ms / host::REFERENCE_MS,
        "sess_s/s",
    );
    report.metric(
        "setup_s",
        setup_raw * host::REFERENCE_MS / setup_kernel_ms,
        "s",
    );
    report.metric("peak_rss_mb", peak_kb as f64 / 1024.0, "MiB");
    report.digest("sim_speed_raw", raw);
    report.digest("host_kernel_ms", kernel_ms);
    report.digest("setup_s_raw", setup_raw);
    report.digest("setup_kernel_ms", setup_kernel_ms);
}

/// `paper_trial`, untraced: `Experiment::run_trial` over the cycling
/// trace shifts.
fn paper_trial(seed: u64, window: Duration) -> Report {
    let mut meter = host::Meter::new(1);
    let (inputs, setup) = timed_setups(&mut meter, || workloads::PaperInputs::new(seed));
    let mut speeds = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut pkts, mut lost, mut ssim, mut stall) = (0u64, 0u64, 0.0, 0.0);
    // Each result stays alive until the next simulation returns, which
    // also keeps the allocator from handing the simulation's memory back
    // to the OS in between: repeats then time the simulation, not page-
    // fault churn (the noisiest cost on a shared VM; `peak_rss_mb` still
    // shows the memory).
    let mut _last = None;
    let mut peak_kb = None;
    let started = Instant::now();
    for i in 0.. {
        let (experiment, shift) = inputs.trial(i);
        let t = Instant::now();
        let r = experiment.run_trial(&inputs.cache, shift);
        let wall = t.elapsed().as_secs_f64();
        speeds.push(workloads::session_sim_s(&r, 0.0, f64::INFINITY) / wall);
        meter.after(wall);
        attempted += 1;
        let v = workloads::trial_violations(&r, inputs.segments);
        if !v.is_empty() {
            eprintln!("paper_trial trial {i}: {}", v.join("; "));
            failed += 1;
        }
        if i < DIGEST_TRIALS {
            pkts += r.transport.packets_sent;
            lost += r.transport.packets_lost;
            ssim += r.avg_ssim();
            stall += r.stall_s;
        }
        _last = Some(r);
        if i + 1 == workloads::PAPER_TRACES {
            peak_kb = Some(proc_status_kb("VmHWM"));
        }
        if started.elapsed() >= window {
            break;
        }
    }
    let digested = DIGEST_TRIALS.min(attempted as usize);
    let mut report = Report::new(attempted, failed);
    end_to_end(&mut report, &speeds, meter.kernel_ms(), &setup, peak_kb);
    report.digest("sessions_attempted", attempted);
    report.digest("sessions_failed", failed);
    report.digest("digest_trials", digested);
    report.digest("pkts_sent", pkts);
    report.digest("pkts_lost", lost);
    report.digest("mean_ssim", ssim / digested as f64);
    report.digest("mean_stall_s", stall / digested as f64);
    report.digest("workers", 1);
    report
}

/// A fleet workload, untraced: `run_fleet_workload` at the pinned
/// worker count, repeated over its cycling arrival sets. Every repeat of
/// a set must reproduce that set's first digest exactly (the runtime is
/// deterministic); the digest printed is the first set's.
fn fleet(shape: &FleetShape, seed: u64, window: Duration) -> Report {
    let workers = shape.workers();
    let mut meter = host::Meter::new(workers);
    let ((inputs, cache), setup) = timed_setups(&mut meter, || {
        let inputs = FleetInputs::new(shape, shape.spec(), seed);
        // The whole catalogue, whichever titles the seed picked: set-up
        // work is then the same for every seed.
        let cache = ContentCache::top_level_only();
        for v in VideoId::EVAL {
            cache.get(v);
        }
        (inputs, cache)
    });
    let n = inputs.spec.total_sessions() as u64;
    let mut speeds = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first = vec![None; shape.arrival_sets];
    // As in `paper_trial`: hold each result until the next run returns.
    let mut _last = None;
    let mut peak_kb = None;
    let started = Instant::now();
    for i in 0.. {
        let t = Instant::now();
        let r = inputs.run(i, &cache);
        let wall = t.elapsed().as_secs_f64();
        speeds.push(inputs.sim_s(i, &r) / wall);
        meter.after(wall);
        eprintln!("{}: fleet run {i} took {wall:.3} s", shape.name);
        attempted += n;
        failed += workloads::fleet_failures(&inputs.spec, &r) as u64;
        let d = traced::fleet_digest(&r);
        match &first[i % shape.arrival_sets] {
            None => first[i % shape.arrival_sets] = Some(d),
            Some(f) if *f != d => {
                eprintln!("{}: run {i} diverged from its set's first run", shape.name);
                failed += n;
            }
            Some(_) => {}
        }
        _last = Some(r);
        if i + 1 == shape.arrival_sets {
            peak_kb = Some(proc_status_kb("VmHWM"));
        }
        if started.elapsed() >= window {
            break;
        }
    }
    let mut report = Report::new(attempted, failed);
    end_to_end(&mut report, &speeds, meter.kernel_ms(), &setup, peak_kb);
    report.digest("sessions_attempted", attempted);
    report.digest("sessions_failed", failed);
    report
        .digest
        .extend(first.swap_remove(0).unwrap_or_default());
    report.digest("arrival_sets", shape.arrival_sets);
    report.digest("workers", workers);
    report
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some(host::KERNEL_FLAG) {
        host::serve();
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            std::process::exit(2);
        }
    };
    let window = Duration::from_secs_f64(args.seconds);
    let shape = match args.workload.as_str() {
        "paper_trial" => None,
        "fleet_bulk" => Some(&FLEET_BULK),
        "edge_mix" => Some(&EDGE_MIX),
        other => {
            eprintln!("unknown workload {other:?} (paper_trial, fleet_bulk, edge_mix)");
            std::process::exit(2);
        }
    };
    let mut report = match (shape, args.trace) {
        (None, false) => paper_trial(args.seed, window),
        (None, true) => traced::paper_trial(args.seed),
        (Some(s), false) => fleet(s, args.seed, window),
        (Some(s), true) => traced::fleet(s, args.seed),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.digest("workload", format!("\"{}\"", args.workload));
    report.digest("seed", args.seed);
    report.digest("nproc", nproc);
    report.print();
}
