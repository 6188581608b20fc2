//! The traced runs: per-layer metrics, measured from outside the program.
//!
//! On `paper_trial`, the session-kernel layers (quic, core, abr, netem
//! path, sim queue) are timed by the outside-in driver in `probe.rs`,
//! which drives the workload's own trials; every driven trial is run a
//! second time through `Experiment::run_trial` and must come out equal,
//! and the two wall times give `trace.overhead_pct`. A fleet's sessions
//! run inside `run_fleet`, where no outside timer reaches, so its time
//! and share metrics read 0 until the program carries spans of its own.
//! Fleet runs report the exact counters of `FleetResult`, plus the
//! companion runs behind `fleet.w2_speedup` (the other worker count) and
//! `fleet.flatness` (the same shape at 16 sessions), and a `SharedLink`
//! micro-timing at the workload's flow count.

use crate::probe::{run_traced, same_result, Layers};
use crate::workloads::{self, FleetInputs, FleetShape, FLEET_BULK};
use crate::{median, proc_status_kb, Report};
use std::hint::black_box;
use std::time::Instant;
use voxel_core::{ContentCache, Experiment, TrialResult};
use voxel_fleet::{FleetResult, FleetSpec};
use voxel_media::content::VideoId;
use voxel_media::ladder::QualityLevel;
use voxel_media::qoe::QoeModel;
use voxel_media::video::Video;
use voxel_netem::{BandwidthTrace, SharedLink, SharedLinkConfig};
use voxel_prep::manifest::Manifest;
use voxel_sim::{SimRng, SimTime};

/// `paper_trial` trials driven per traced run (its first ones).
const TRACED_TRIALS: usize = 8;

/// Packets offered in the `SharedLink` micro-timing.
const LINK_PKTS: usize = 1 << 21;

/// Size of each micro-timing packet, bytes (a full QUIC\* datagram).
const LINK_PKT_BYTES: usize = 1200;

/// Exact work counters of a set of sessions.
#[derive(Default)]
struct Counters {
    sessions: u64,
    sim_s: f64,
    pkts_sent: u64,
    pkts_lost: u64,
    bytes_retx: u64,
    ptos: u64,
    kept_partials: u64,
    bytes_recovered: u64,
    ssim: f64,
    stall_s: f64,
}

impl Counters {
    fn add(&mut self, r: &TrialResult, sim_s: f64) {
        self.sessions += 1;
        self.sim_s += sim_s;
        self.pkts_sent += r.transport.packets_sent;
        self.pkts_lost += r.transport.packets_lost;
        self.bytes_retx += r.transport.bytes_retransmitted;
        self.ptos += r.transport.ptos;
        self.kept_partials += u64::from(r.kept_partials);
        self.bytes_recovered += r.bytes_recovered;
        self.ssim += r.avg_ssim();
        self.stall_s += r.stall_s;
    }
}

/// Fleet-level results of a traced fleet run.
#[derive(Default)]
struct FleetFigures {
    loop_iters: u64,
    link_offered: u64,
    link_dropped: u64,
    flatness: f64,
    w2_speedup: f64,
    rss_kb_per_session: f64,
    jain: f64,
    hit_ratio: f64,
    evictions: u64,
    origin_mb: f64,
    origin_load_pct: f64,
}

/// Wall time of the set-up steps, per title: `(video_gen_s, manifest_s)`.
fn time_setup(videos: &[VideoId], levels: Option<&[QualityLevel]>) -> (f64, f64) {
    let qoe = QoeModel::default();
    let (mut gen, mut prep) = (Vec::new(), Vec::new());
    for &id in videos {
        let t = Instant::now();
        let video = Video::generate(id);
        gen.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let manifest = match levels {
            None => Manifest::prepare(&video, &qoe),
            Some(l) => Manifest::prepare_levels(&video, &qoe, l),
        };
        prep.push(t.elapsed().as_secs_f64());
        black_box(manifest);
    }
    (median(&gen), median(&prep))
}

/// Drive `shift` of `e` through the traced driver and through
/// `Experiment::run_trial`, the traced one first when `traced_first`.
/// Returns the reference result, the reference's wall time, and whether
/// the two results are equal.
fn parity_trial(
    e: &Experiment,
    cache: &ContentCache,
    shift: usize,
    traced_first: bool,
    lay: &mut Layers,
) -> (TrialResult, u64, bool) {
    let (manifest, video) = cache.get(e.config().video);
    let qoe = cache.qoe();
    let reference = || {
        let t = Instant::now();
        let r = e.run_trial(cache, shift);
        (r, t.elapsed().as_nanos() as u64)
    };
    let (traced, (reference, untraced_ns)) = if traced_first {
        let traced = run_traced(e.config(), &manifest, &video, &qoe, shift, lay);
        (traced, reference())
    } else {
        let reference = reference();
        (
            run_traced(e.config(), &manifest, &video, &qoe, shift, lay),
            reference,
        )
    };
    let same = same_result(&traced, &reference);
    if !same {
        eprintln!("traced driver diverged from Session::run at shift {shift}");
    }
    (reference, untraced_ns, same)
}

/// `SharedLink::enqueue` + `pop_due_into` cost per packet at `spec`'s
/// flow count, discipline and queue, offered at 95% of link capacity
/// from seeded random flows.
fn shared_link_ns(spec: &FleetSpec, seed: u64) -> f64 {
    let flows = spec.total_sessions();
    let gap_s = LINK_PKT_BYTES as f64 * 8.0 / (spec.link_mbps * 1e6) / 0.95;
    let span_s = (LINK_PKTS as f64 * gap_s).ceil() as usize + 1;
    let config = SharedLinkConfig::new(
        BandwidthTrace::constant(spec.link_mbps, span_s),
        spec.queue_packets,
        spec.discipline,
    );
    let mut link = SharedLink::new(config, flows);
    let mut rng = SimRng::derive(seed, "shared_link");
    let offers: Vec<(SimTime, usize)> = (0..LINK_PKTS)
        .map(|i| (SimTime::from_secs_f64(i as f64 * gap_s), rng.index(flows)))
        .collect();
    let mut out = Vec::with_capacity(64);
    let t = Instant::now();
    for &(now, flow) in &offers {
        link.pop_due_into(now, &mut out);
        out.clear();
        black_box(link.enqueue(now, flow, LINK_PKT_BYTES));
    }
    let ns = t.elapsed().as_nanos() as f64 / LINK_PKTS as f64;
    black_box(link.stats());
    ns
}

fn pct(part: u64, whole: u64) -> f64 {
    100.0 * part as f64 / whole.max(1) as f64
}

fn ratio(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// Every per-layer metric, in `BENCHMARK.json` order.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    report: &mut Report,
    lay: &Layers,
    untraced_ns: u64,
    c: &Counters,
    f: &FleetFigures,
    link_ns: f64,
    setup: (f64, f64),
) {
    let wall = lay.wall_ns;
    report.metric("quic.on_datagram_ns", lay.on_datagram.per_call_ns(), "ns");
    report.metric(
        "quic.poll_transmit_ns",
        lay.poll_transmit.ns as f64 / lay.polled.max(1) as f64,
        "ns",
    );
    report.metric("quic.on_timeout_ns", lay.on_timeout.per_call_ns(), "ns");
    report.metric("quic.encode_ns", lay.encode.per_call_ns(), "ns");
    report.metric("quic.share", pct(lay.quic_ns(), wall), "%");
    report.metric("quic.pkts_sent", c.pkts_sent as f64, "count");
    report.metric("quic.pkts_lost", c.pkts_lost as f64, "count");
    report.metric("quic.bytes_retx", c.bytes_retx as f64, "bytes");
    report.metric("quic.ptos", c.ptos as f64, "count");
    report.metric("quic.loss_ratio", ratio(c.pkts_lost, c.pkts_sent), "ratio");
    report.metric("core.server_ns", lay.server.per_call_ns(), "ns");
    report.metric(
        "core.client_ns",
        lay.client_self_ns() as f64 / lay.client.calls.max(1) as f64,
        "ns",
    );
    report.metric("core.share", pct(lay.core_ns(), wall), "%");
    report.metric("core.loop_iters", f.loop_iters as f64, "count");
    report.metric("core.kept_partials", c.kept_partials as f64, "count");
    report.metric("core.bytes_recovered", c.bytes_recovered as f64, "bytes");
    report.metric("core.mean_ssim", c.ssim / c.sessions.max(1) as f64, "ssim");
    report.metric(
        "core.stall_s",
        c.stall_s / c.sessions.max(1) as f64,
        "sim_s",
    );
    report.metric("abr.decide_ns", lay.abr.per_call_ns(), "ns");
    report.metric("abr.calls", lay.abr.calls as f64, "count");
    report.metric("abr.share", pct(lay.abr.ns, wall), "%");
    report.metric("netem.path_ns", lay.path.per_call_ns(), "ns");
    report.metric("netem.shared_link_ns", link_ns, "ns");
    report.metric(
        "netem.drop_ratio",
        ratio(f.link_dropped, f.link_offered),
        "ratio",
    );
    report.metric("netem.share", pct(lay.path.ns, wall), "%");
    report.metric("sim.queue_ns", lay.queue.per_call_ns(), "ns");
    report.metric(
        "sim.allocs_per_pkt",
        ratio(lay.allocs, lay.pkts),
        "allocs/pkt",
    );
    report.metric("sim.share", pct(lay.queue.ns, wall), "%");
    report.metric("prep.manifest_s", setup.1, "s");
    report.metric("media.video_gen_s", setup.0, "s");
    report.metric(
        "fleet.iters_per_sim_s",
        f.loop_iters as f64 / c.sim_s.max(1e-9),
        "iters/sess_s",
    );
    report.metric("fleet.flatness", f.flatness, "ratio");
    report.metric("fleet.w2_speedup", f.w2_speedup, "ratio");
    report.metric("fleet.rss_kb_per_session", f.rss_kb_per_session, "KiB");
    report.metric("fleet.jain", f.jain, "ratio");
    report.metric("edge.hit_ratio", f.hit_ratio, "ratio");
    report.metric("edge.evictions", f.evictions as f64, "count");
    report.metric("edge.origin_mb", f.origin_mb, "MB");
    report.metric("edge.origin_load_pct", f.origin_load_pct, "%");
    report.metric("driver.share", pct(lay.driver_ns(), wall), "%");
    let overhead_pct = if wall == 0 {
        0.0
    } else {
        100.0 * (wall as f64 / untraced_ns.max(1) as f64 - 1.0)
    };
    report.metric("trace.overhead_pct", overhead_pct, "%");
}

/// KiB of peak memory per live session: the rise of `VmHWM`, reset
/// first, over `VmRSS` while `run` runs `sessions` sessions at once.
/// Reads 0 where the kernel cannot reset the high-water mark.
fn rss_kb_per_session<T>(sessions: u64, run: impl FnOnce() -> T) -> (T, f64) {
    // "5" resets the peak RSS the kernel reports (proc(5), clear_refs).
    let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
    let before = proc_status_kb("VmRSS");
    let out = run();
    if !reset {
        eprintln!("cannot reset VmHWM: fleet.rss_kb_per_session reads 0");
        return (out, 0.0);
    }
    let rise = proc_status_kb("VmHWM").saturating_sub(before);
    (out, rise as f64 / sessions.max(1) as f64)
}

/// `paper_trial`, traced: [`TRACED_TRIALS`] of the workload's trials,
/// each driven call by call and checked against `Session::run`.
pub(crate) fn paper_trial(seed: u64) -> Report {
    let inputs = workloads::PaperInputs::new(seed);

    let mut lay = Layers::default();
    let mut c = Counters::default();
    let (mut untraced_ns, mut failed) = (0, 0);
    // The trials run one at a time: one live session.
    let ((), rss_kb_per_session) = rss_kb_per_session(1, || {
        for i in 0..TRACED_TRIALS {
            let (e, shift) = inputs.trial(i);
            let (r, ns, same) = parity_trial(e, &inputs.cache, shift, i % 2 == 0, &mut lay);
            untraced_ns += ns;
            let v = workloads::trial_violations(&r, inputs.segments);
            if !v.is_empty() {
                eprintln!("paper_trial trial {i}: {}", v.join("; "));
            }
            failed += u64::from(!same || !v.is_empty());
            c.add(&r, workloads::session_sim_s(&r, 0.0, f64::INFINITY));
        }
    });
    let figures = FleetFigures {
        loop_iters: lay.iters,
        link_offered: lay.path_offered,
        link_dropped: lay.path_dropped,
        rss_kb_per_session,
        ..FleetFigures::default()
    };
    // Timed after the trials, so its transient peak stays out of theirs.
    let setup = time_setup(&[VideoId::Tos], None);
    // paper_trial has no shared link; time fleet_bulk's.
    let link_ns = shared_link_ns(&FLEET_BULK.spec(), seed);

    let mut report = Report::new(c.sessions, failed);
    layer_metrics(&mut report, &lay, untraced_ns, &c, &figures, link_ns, setup);
    report.digest("sessions_attempted", c.sessions);
    report.digest("sessions_failed", failed);
    report.digest("parity_trials", TRACED_TRIALS);
    report.digest("workers", 1);
    report
}

/// Exact counters of a fleet run, for the work digest.
pub(crate) fn fleet_digest(r: &FleetResult) -> Vec<(&'static str, String)> {
    let sum = |f: fn(&TrialResult) -> u64| r.sessions.iter().map(f).sum::<u64>();
    let mut d = vec![
        ("sessions", r.sessions.len().to_string()),
        ("completed", sum(|s| u64::from(s.completed)).to_string()),
        ("loop_iters", r.loop_iters.to_string()),
        ("pkts_sent", sum(|s| s.transport.packets_sent).to_string()),
        ("pkts_lost", sum(|s| s.transport.packets_lost).to_string()),
        ("link_drops", r.total_drops().to_string()),
        ("mean_ssim", r.mean_ssim().to_string()),
    ];
    if let Some(e) = &r.edge {
        d.push(("edge_hits", e.hits.to_string()));
        d.push(("edge_misses", e.misses.to_string()));
        d.push(("edge_evictions", e.evictions.to_string()));
        d.push(("edge_origin_bytes", e.origin_bytes.to_string()));
    }
    d
}

/// Run `inputs` over its first arrival set: `(result, session·sim-s per
/// wall second, failed)`.
fn timed_fleet(inputs: &FleetInputs, cache: &ContentCache) -> (FleetResult, f64, u64) {
    let t = Instant::now();
    let r = inputs.run(0, cache);
    let speed = inputs.sim_s(0, &r) / t.elapsed().as_secs_f64();
    let failed = workloads::fleet_failures(&inputs.spec, &r) as u64;
    (r, speed, failed)
}

/// A fleet workload, traced: the run itself (first arrival set) at its
/// pinned worker count, the companions, and the link micro-timing.
pub(crate) fn fleet(shape: &FleetShape, seed: u64) -> Report {
    let inputs = FleetInputs::new(shape, shape.spec(), seed);
    let setup = time_setup(&VideoId::EVAL, Some(&[QualityLevel::MAX]));
    let cache = ContentCache::top_level_only();
    for v in VideoId::EVAL {
        cache.get(v);
    }
    let n = inputs.spec.total_sessions() as u64;

    let ((r, speed, mut failed), rss_kb_per_session) =
        rss_kb_per_session(n, || timed_fleet(&inputs, &cache));
    let mut attempted = n;

    // The same fleet at the other worker count: byte-identical results
    // are the runtime's contract, and the speed ratio is the w2 speedup.
    let workers = shape.workers();
    let other_workers = if workers == 1 { 2 } else { 1 };
    let other = FleetInputs::new(shape, shape.spec().workers(other_workers), seed);
    let (r_other, speed_other, f_other) = timed_fleet(&other, &cache);
    attempted += n;
    failed += f_other;
    if fleet_digest(&r) != fleet_digest(&r_other)
        || format!("{:?}", r.sessions) != format!("{:?}", r_other.sessions)
    {
        eprintln!("{}: results differ between worker counts", shape.name);
        failed += n;
    }
    let (speed_w1, speed_w2) = if workers == 1 {
        (speed, speed_other)
    } else {
        (speed_other, speed)
    };

    let mut flatness = 0.0;
    if let Some(small) = shape.small {
        let small = FleetInputs::new(shape, workloads::parse_spec(small), seed);
        let (r_small, speed_small, f_small) = timed_fleet(&small, &cache);
        attempted += r_small.sessions.len() as u64;
        failed += f_small;
        flatness = speed_w1 / speed_small;
    }

    let mut c = Counters::default();
    for (s, start) in r.sessions.iter().zip(&inputs.workload(0).starts) {
        c.add(s, workloads::session_sim_s(s, start.as_secs_f64(), r.end_s));
    }
    let edge = r.edge.clone().unwrap_or_default();
    let figures = FleetFigures {
        loop_iters: r.loop_iters,
        link_offered: r.flows.iter().map(|f| f.enqueued + f.dropped).sum(),
        link_dropped: r.total_drops(),
        flatness,
        w2_speedup: speed_w2 / speed_w1,
        rss_kb_per_session,
        jain: r.jain,
        hit_ratio: edge.hit_ratio(),
        evictions: edge.evictions,
        origin_mb: edge.origin_bytes as f64 / 1e6,
        origin_load_pct: edge.origin_load_pct,
    };
    let link_ns = shared_link_ns(&inputs.spec, seed);

    // No layer timings: the sessions ran inside `run_fleet`.
    let lay = Layers::default();
    let mut report = Report::new(attempted, failed);
    layer_metrics(&mut report, &lay, 0, &c, &figures, link_ns, setup);
    report.digest("sessions_attempted", attempted);
    report.digest("sessions_failed", failed);
    report.digest.extend(fleet_digest(&r));
    report.digest("workers", workers);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names of `BENCHMARK.json`'s `list` array, in order.
    fn declared(list: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let start = text.find(&format!("\"{list}\"")).expect("list is declared");
        let end = start + text[start..].find(']').expect("list is closed");
        text[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name is quoted")].to_string())
            .collect()
    }

    fn names(r: &Report) -> Vec<String> {
        r.metrics.iter().map(|(n, _, _)| n.to_string()).collect()
    }

    #[test]
    fn printed_metrics_are_the_declared_ones() {
        let mut e2e = Report::new(1, 0);
        let setup = crate::Setup {
            times_s: vec![1.0],
            passes_ms: vec![40.0],
        };
        crate::end_to_end(&mut e2e, &[1.0], 40.0, &setup, None);
        assert_eq!(names(&e2e), declared("end_to_end"));

        let mut layers = Report::new(1, 0);
        layer_metrics(
            &mut layers,
            &Layers::default(),
            1,
            &Counters::default(),
            &FleetFigures::default(),
            1.0,
            (1.0, 1.0),
        );
        assert_eq!(names(&layers), declared("per_layer"));
    }
}
