//! The three workloads: inputs generated from the seed, the oracles that
//! check their outputs, and the simulated work (session·sim-seconds)
//! each output stands for.

use voxel_core::{AbrKind, ContentCache, Experiment, TrialResult};
use voxel_fleet::{zipf_poisson_arrivals, FleetResult, FleetSpec, Workload};
use voxel_media::content::VideoId;
use voxel_netem::trace::generators;
use voxel_testkit::fleet_invariants;
use voxel_testkit::oracle::trial_invariants;

/// Length of each generated `paper_trial` trace, seconds (the figure
/// harness's default).
const PAPER_TRACE_S: usize = 300;

/// Trace shifts of the §5 protocol: 30 trials, shifted by d/30 each.
const PAPER_SHIFTS: usize = 30;

/// Distinct traces per `paper_trial` run. A run covers many traces rather
/// than shifts of one, so that seeds differ little in how much work a
/// simulated second costs; and few enough that every run plays them all
/// (~0.6–0.8 s each), so the peak memory of a run is the peak over the
/// same sessions whatever the host's speed.
pub(crate) const PAPER_TRACES: usize = 24;

/// `paper_trial`'s inputs: ToS prepared over the full ladder, and one
/// experiment per generated trace.
pub(crate) struct PaperInputs {
    pub(crate) cache: ContentCache,
    experiments: Vec<Experiment>,
    /// Segments of the video, which every trial must play.
    pub(crate) segments: usize,
}

impl PaperInputs {
    pub(crate) fn new(seed: u64) -> PaperInputs {
        let cache = ContentCache::new();
        let (manifest, _) = cache.get(VideoId::Tos);
        let experiments = (0..PAPER_TRACES as u64)
            .map(|j| paper_experiment(seed.wrapping_mul(PAPER_TRACES as u64).wrapping_add(j)))
            .collect();
        PaperInputs {
            cache,
            experiments,
            segments: manifest.num_segments(),
        }
    }

    /// Trial `i` (cycling): its experiment and trace shift.
    pub(crate) fn trial(&self, i: usize) -> (&Experiment, usize) {
        let shift = (i % PAPER_SHIFTS) * PAPER_TRACE_S / PAPER_SHIFTS;
        (&self.experiments[i % PAPER_TRACES], shift)
    }
}

/// One `paper_trial` experiment: VOXEL (ABR\* over the QUIC\* split,
/// selective retransmission) streams ToS with a one-segment buffer over
/// the T-Mobile LTE trace generated from `trace_seed`.
pub(crate) fn paper_experiment(trace_seed: u64) -> Experiment {
    Experiment::builder()
        .video(VideoId::Tos)
        .abr(AbrKind::voxel())
        .buffer(1)
        .trace(generators::tmobile_lte(trace_seed, PAPER_TRACE_S))
        .trials(PAPER_SHIFTS)
        .build()
}

/// A fleet workload: its spec, the same shape at 16 sessions when the
/// traced run measures flatness against it, and its seeded arrivals.
pub(crate) struct FleetShape {
    pub(crate) name: &'static str,
    /// The workload's fleet spec, shard workers pinned.
    spec: &'static str,
    /// The same per-session link rate, queue, buffer, discipline and cap
    /// at 16 sessions on one worker, behind `fleet.flatness`.
    pub(crate) small: Option<&'static str>,
    /// Zipf popularity exponent over the four Table-1 titles.
    zipf_s: f64,
    /// Poisson arrivals at `sessions / arrival_window_s` per second.
    arrival_window_s: f64,
    /// Seeded arrival sets an untraced run cycles through, as
    /// `paper_trial` cycles traces: with few sessions, one set's title
    /// mix and timing move the cost of a simulated second by up to 25%
    /// from seed to seed, and the median over several sets does not.
    pub(crate) arrival_sets: usize,
}

/// `fleet_bulk`: 1000 homogeneous VOXEL sessions at 0.6 Mbit/s each on
/// one DRR link, arriving within the first two seconds. Startup under
/// that flash crowd takes up to ~9 s; the 15 s cap leaves each session
/// several seconds of steady state while keeping a fleet run short
/// enough (~10 s) that a run's median is over three of them.
pub(crate) const FLEET_BULK: FleetShape = FleetShape {
    name: "fleet_bulk",
    spec: "BBB:1000xVOXEL:const600:buf3:q4096:d30:drr:stg0:cap15:w2",
    small: Some("BBB:16xVOXEL:const9.6:buf3:q66:d30:drr:stg0:cap15:w1"),
    zipf_s: 1.0,
    arrival_window_s: 2.0,
    arrival_sets: 1,
};

/// `edge_mix`: VOXEL's unreliable streams next to reliable BOLA, on the
/// default congestion control, over a FIFO droptail link, behind four
/// hash-routed LRU edges whose 100 MB budgets force evictions, with a
/// 50 Mbit/s origin. Sessions arrive over the first ~12 s, so even the
/// last has most of a minute to play. Not over BBR: 32 BBR flows keep
/// this FIFO queue full (~26% of packets dropped), and about one arrival
/// set in 30–40 then locks a new flow out — its initial window and every
/// PTO probe meet a full queue, 0 bytes by the cap — which
/// `fleet_invariants` rightly flags as starvation.
pub(crate) const EDGE_MIX: FleetShape = FleetShape {
    name: "edge_mix",
    spec: "BBB:24xVOXEL+8xBOLA:const48:buf3:q128:d120:fifo:stg0:cap60\
           :e4:rhash:afull:plru:cb100:o50:w1",
    small: None,
    zipf_s: 1.0,
    arrival_window_s: 12.0,
    arrival_sets: 6,
};

/// Parse a spec the benchmark owns.
pub(crate) fn parse_spec(text: &str) -> FleetSpec {
    FleetSpec::parse(text).unwrap_or_else(|e| panic!("bad spec {text}: {e:?}"))
}

impl FleetShape {
    /// The workload's spec.
    pub(crate) fn spec(&self) -> FleetSpec {
        parse_spec(self.spec)
    }

    /// Shard workers the workload pins.
    pub(crate) fn workers(&self) -> usize {
        self.spec()
            .workers
            .expect("workload specs pin their workers")
    }

    /// Seeded zipf video picks and Poisson start times for `sessions`.
    fn arrivals(&self, seed: u64, sessions: usize) -> Workload {
        zipf_poisson_arrivals(
            seed,
            self.name,
            sessions,
            &VideoId::EVAL,
            self.zipf_s,
            sessions as f64 / self.arrival_window_s,
        )
    }
}

/// Generated inputs of a fleet workload: its spec and arrival sets.
pub(crate) struct FleetInputs {
    pub(crate) spec: FleetSpec,
    workloads: Vec<Workload>,
}

impl FleetInputs {
    /// `shape`'s arrival sets from `seed`, for the sessions of `spec`.
    pub(crate) fn new(shape: &FleetShape, spec: FleetSpec, seed: u64) -> Self {
        let sets = shape.arrival_sets as u64;
        let workloads = (0..sets)
            .map(|j| {
                let set_seed = seed.wrapping_mul(sets).wrapping_add(j);
                shape.arrivals(set_seed, spec.total_sessions())
            })
            .collect();
        FleetInputs { spec, workloads }
    }

    /// Arrival set of run `i` (cycling).
    pub(crate) fn workload(&self, i: usize) -> &Workload {
        &self.workloads[i % self.workloads.len()]
    }

    /// Run `i`: the fleet over arrival set `i` (cycling).
    pub(crate) fn run(&self, i: usize, cache: &ContentCache) -> FleetResult {
        voxel_fleet::run_fleet_workload(
            &self.spec,
            self.workload(i),
            cache,
            voxel_trace::Tracer::disabled(),
        )
        .unwrap_or_else(|e| panic!("fleet {} failed to run: {e}", self.spec))
    }

    /// Session·sim-seconds of run `i`: each session from its start to
    /// its end.
    pub(crate) fn sim_s(&self, i: usize, r: &FleetResult) -> f64 {
        r.sessions
            .iter()
            .zip(&self.workload(i).starts)
            .map(|(s, start)| session_sim_s(s, start.as_secs_f64(), r.end_s))
            .sum()
    }
}

/// Simulated seconds one session ran. A completed session ends when its
/// playback does — startup plus stalls plus the video — which the loop
/// reaches within one 100 ms player tick; a capped one runs to `cap_s`.
pub(crate) fn session_sim_s(r: &TrialResult, start_s: f64, cap_s: f64) -> f64 {
    let end = if r.completed {
        (r.startup_s + r.stall_s + r.duration_s).min(cap_s)
    } else {
        cap_s
    };
    (end - start_s).max(0.0)
}

/// Violations of one `paper_trial` trial: the testkit trial oracle, plus
/// completion and one score and one bitrate per segment of the video.
pub(crate) fn trial_violations(r: &TrialResult, segments: usize) -> Vec<String> {
    let mut v = trial_invariants(r);
    if !r.completed {
        v.push("trial did not complete".into());
    }
    if r.segment_scores.len() != segments || r.segment_kbps.len() != segments {
        v.push(format!(
            "{} scores and {} bitrates for {segments} segments",
            r.segment_scores.len(),
            r.segment_kbps.len()
        ));
    }
    v
}

/// Failed sessions of one fleet run: all of them when the testkit's
/// fleet oracle reports a violation.
pub(crate) fn fleet_failures(spec: &FleetSpec, r: &FleetResult) -> usize {
    let v = fleet_invariants(spec, r);
    if v.is_empty() {
        return 0;
    }
    eprintln!("fleet {spec}: {}", v.join("; "));
    r.sessions.len().max(spec.total_sessions())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_and_the_flatness_companion_keeps_the_shape() {
        let full = FLEET_BULK.spec();
        assert_eq!(full.total_sessions(), 1000);
        assert_eq!(FLEET_BULK.workers(), 2);
        let small = parse_spec(FLEET_BULK.small.expect("fleet_bulk has a companion"));
        assert_eq!(small.total_sessions(), 16);
        assert_eq!(small.workers, Some(1));
        // Per session: the same link rate, and the queue within rounding.
        let per = |s: &FleetSpec, x: f64| x / s.total_sessions() as f64;
        assert!((per(&full, full.link_mbps) - per(&small, small.link_mbps)).abs() < 1e-9);
        assert!(
            (per(&full, full.queue_packets as f64) - per(&small, small.queue_packets as f64)).abs()
                < 0.05
        );
        // Every other field, and the member system, is the same.
        assert_eq!(small.members.len(), 1);
        assert_eq!(small.members[0].system, full.members[0].system);
        let resized = FleetSpec {
            members: full.members.clone(),
            link_mbps: full.link_mbps,
            queue_packets: full.queue_packets,
            workers: full.workers,
            ..small
        };
        assert_eq!(resized, full);
        assert_eq!(EDGE_MIX.spec().total_sessions(), 32);
        assert_eq!(EDGE_MIX.workers(), 1);
    }
}
