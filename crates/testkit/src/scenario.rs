//! The scenario spec language and the configuration matrix.
//!
//! A scenario names one experiment configuration plus optional injected
//! faults, in a compact colon-separated form that round-trips through
//! [`Scenario::spec`] / [`Scenario::parse`] — the failure minimizer leans
//! on that round-trip to emit copy-pasteable reproductions:
//!
//! ```text
//! <video>:<system>:<trace>[:buf<N>][:q<N>][:n<N>][:d<N>][:prefix<N>]
//!     [:loss@<start>+<len>x<prob>]
//!     [:reorder@<start>+<len>x<prob>~<ms>]
//!     [:dup@<start>+<len>x<prob>~<ms>]
//!     [:cliff@<at>x<factor>]
//!     [:stuck@<at>+<len>]
//!     [:inject=stall_skew]
//! ```
//!
//! e.g. `BBB:VOXEL:tmobile:buf1:n2:loss@60+5x0.3`. Defaults: `buf3`,
//! `q32`, `n1`, `d300`, no prefix, no faults. Trace families are either
//! synthetic (`const<mbps>`, `step<before>-<after>@<at>`) or the seeded §5
//! generators (`tmobile`, `verizon`, `att`, `3g`, `fcc`, `wifi`).

use voxel_media::content::VideoId;
use voxel_netem::fault::{cliff, stuck};
use voxel_netem::trace::generators;
use voxel_netem::{BandwidthTrace, FaultKind};

/// One axis value: which bandwidth trace family a scenario runs over.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceFamily {
    /// Constant rate in Mbps (`const8`, `const3.5`).
    Constant(f64),
    /// Step from `before` to `after` Mbps at `at_s` (`step8-2@60`).
    Step {
        /// Rate before the step, Mbps.
        before: f64,
        /// Rate after the step, Mbps.
        after: f64,
        /// Step time, seconds.
        at_s: usize,
    },
    /// T-Mobile LTE generator (violent swings, deep fades).
    TMobile,
    /// Verizon LTE generator.
    Verizon,
    /// AT&T LTE generator (moderate variation).
    Att,
    /// Norway 3G commute generator (mild variation).
    Norway3g,
    /// FCC fixed-line generator (slow variation).
    Fcc,
    /// In-the-wild WiFi generator.
    WildWifi,
}

impl TraceFamily {
    /// Parse a trace token (`const8`, `step8-2@60`, `tmobile`, …).
    pub fn parse(tok: &str) -> Result<TraceFamily, String> {
        match tok {
            "tmobile" => return Ok(TraceFamily::TMobile),
            "verizon" => return Ok(TraceFamily::Verizon),
            "att" => return Ok(TraceFamily::Att),
            "3g" => return Ok(TraceFamily::Norway3g),
            "fcc" => return Ok(TraceFamily::Fcc),
            "wifi" => return Ok(TraceFamily::WildWifi),
            _ => {}
        }
        if let Some(rate) = tok.strip_prefix("const") {
            let mbps: f64 = rate
                .parse()
                .map_err(|_| format!("bad constant-trace rate in {tok:?}"))?;
            // NaN must be rejected too, so compare against the valid side.
            if mbps <= 0.0 || !mbps.is_finite() {
                return Err(format!("constant-trace rate must be positive in {tok:?}"));
            }
            return Ok(TraceFamily::Constant(mbps));
        }
        if let Some(body) = tok.strip_prefix("step") {
            let (rates, at) = body
                .split_once('@')
                .ok_or_else(|| format!("step trace needs @<at_s> in {tok:?}"))?;
            let (before, after) = rates
                .split_once('-')
                .ok_or_else(|| format!("step trace needs <before>-<after> in {tok:?}"))?;
            return Ok(TraceFamily::Step {
                before: before
                    .parse()
                    .map_err(|_| format!("bad step before-rate in {tok:?}"))?,
                after: after
                    .parse()
                    .map_err(|_| format!("bad step after-rate in {tok:?}"))?,
                at_s: at
                    .parse()
                    .map_err(|_| format!("bad step time in {tok:?}"))?,
            });
        }
        Err(format!(
            "unknown trace family {tok:?} (const<mbps>, step<a>-<b>@<s>, tmobile, verizon, att, 3g, fcc, wifi)"
        ))
    }

    /// The canonical spec token (inverse of [`TraceFamily::parse`]).
    pub fn token(&self) -> String {
        match self {
            TraceFamily::Constant(m) => format!("const{m}"),
            TraceFamily::Step {
                before,
                after,
                at_s,
            } => format!("step{before}-{after}@{at_s}"),
            TraceFamily::TMobile => "tmobile".into(),
            TraceFamily::Verizon => "verizon".into(),
            TraceFamily::Att => "att".into(),
            TraceFamily::Norway3g => "3g".into(),
            TraceFamily::Fcc => "fcc".into(),
            TraceFamily::WildWifi => "wifi".into(),
        }
    }

    /// Materialize the trace. Synthetic families ignore `seed`; the §5
    /// generators derive everything from it, so distinct sweep seeds
    /// explore distinct (but reproducible) bandwidth processes.
    pub fn build(&self, seed: u64, duration_s: usize) -> BandwidthTrace {
        match *self {
            TraceFamily::Constant(mbps) => BandwidthTrace::constant(mbps, duration_s),
            TraceFamily::Step {
                before,
                after,
                at_s,
            } => BandwidthTrace::step(before, after, at_s, duration_s),
            TraceFamily::TMobile => generators::tmobile_lte(seed, duration_s),
            TraceFamily::Verizon => generators::verizon_lte(seed, duration_s),
            TraceFamily::Att => generators::att_lte(seed, duration_s),
            TraceFamily::Norway3g => generators::norway_3g(seed, duration_s),
            TraceFamily::Fcc => generators::fcc(seed, duration_s),
            TraceFamily::WildWifi => generators::wild_wifi(seed, duration_s),
        }
    }
}

/// A deterministic transform of the bandwidth trace itself (as opposed to
/// the packet-level [`FaultKind`]s).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceFault {
    /// Multiply every sample from `at_s` onward by `factor`
    /// (`cliff@120x0.25`).
    Cliff {
        /// Cliff time, seconds.
        at_s: usize,
        /// Multiplier applied to the tail.
        factor: f64,
    },
    /// Freeze the sample at `at_s` for `len_s` seconds (`stuck@60+20`).
    Stuck {
        /// Freeze time, seconds.
        at_s: usize,
        /// Freeze length, seconds.
        len_s: usize,
    },
}

impl TraceFault {
    /// Apply this transform to `trace`.
    pub fn apply(&self, trace: &BandwidthTrace) -> BandwidthTrace {
        match *self {
            TraceFault::Cliff { at_s, factor } => cliff(trace, at_s, factor),
            TraceFault::Stuck { at_s, len_s } => stuck(trace, at_s, len_s),
        }
    }
}

/// A deliberate bug armed inside the stack — the sweep's canary targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Skew the player's stall accounting by +100 ms per stall
    /// ([`voxel_core::Config::debug_stall_skew`]); the timeline drift
    /// oracle must catch it.
    StallSkew,
}

/// One fully-specified test scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The video to stream.
    pub video: VideoId,
    /// System under test, by §5 legend name (`BOLA`, `VOXEL`, …).
    pub system: String,
    /// Bandwidth trace family.
    pub trace: TraceFamily,
    /// Playback buffer capacity in segments.
    pub buffer_segments: usize,
    /// Droptail queue length in packets.
    pub queue_packets: usize,
    /// Trials (trace shifted by `d/n` each, per the §5 protocol).
    pub trials: usize,
    /// Trace duration in seconds.
    pub duration_s: usize,
    /// Optional trace-prefix truncation (the minimizer's shrink axis).
    pub trace_prefix_s: Option<usize>,
    /// Packet-level fault windows.
    pub faults: Vec<FaultKind>,
    /// Trace-level fault transforms.
    pub trace_faults: Vec<TraceFault>,
    /// Armed canary, if any.
    pub inject: Option<Inject>,
    /// Oracle-bounds override (defaults derive from the scenario shape).
    pub bounds: Option<crate::oracle::Bounds>,
}

// The §5 legend name tables (system → (ABR, transport), video names) live
// canonically in voxel-fleet's spec module so scenario specs and fleet
// specs can never disagree; re-exported here for the testkit surface.
pub use voxel_fleet::spec::{system_by_name, video_by_name};

/// Parse `<start>+<len>` (both numbers).
fn parse_window(body: &str, tok: &str) -> Result<(f64, f64), String> {
    let (start, len) = body
        .split_once('+')
        .ok_or_else(|| format!("fault window needs <start>+<len> in {tok:?}"))?;
    Ok((
        start
            .parse()
            .map_err(|_| format!("bad window start in {tok:?}"))?,
        len.parse()
            .map_err(|_| format!("bad window length in {tok:?}"))?,
    ))
}

impl Scenario {
    /// A scenario with the workspace defaults (`buf3:q32:n1:d300`).
    pub fn new(video: VideoId, system: impl Into<String>, trace: TraceFamily) -> Scenario {
        Scenario {
            video,
            system: system.into(),
            trace,
            buffer_segments: 3,
            queue_packets: 32,
            trials: 1,
            duration_s: 300,
            trace_prefix_s: None,
            faults: Vec::new(),
            trace_faults: Vec::new(),
            inject: None,
            bounds: None,
        }
    }

    /// Parse a spec string (see the module docs for the grammar).
    pub fn parse(spec: &str) -> Result<Scenario, String> {
        let mut parts = spec.split(':');
        let video_tok = parts.next().unwrap_or_default();
        let video = video_by_name(video_tok)
            .ok_or_else(|| format!("unknown video {video_tok:?} in {spec:?}"))?;
        let system = parts
            .next()
            .ok_or_else(|| format!("spec {spec:?} is missing the system token"))?;
        system_by_name(system).ok_or_else(|| format!("unknown system {system:?} in {spec:?}"))?;
        let trace_tok = parts
            .next()
            .ok_or_else(|| format!("spec {spec:?} is missing the trace token"))?;
        let mut s = Scenario::new(video, system, TraceFamily::parse(trace_tok)?);

        for tok in parts {
            // Longest prefixes first: `dup@`/`prefix` must win over the
            // single-letter `d`/`q`/`n` numeric tokens.
            if let Some(v) = tok.strip_prefix("buf") {
                s.buffer_segments = v.parse().map_err(|_| format!("bad buffer in {tok:?}"))?;
            } else if let Some(v) = tok.strip_prefix("prefix") {
                s.trace_prefix_s = Some(v.parse().map_err(|_| format!("bad prefix in {tok:?}"))?);
            } else if let Some(body) = tok.strip_prefix("loss@") {
                let (window, prob) = body
                    .split_once('x')
                    .ok_or_else(|| format!("loss fault needs x<prob> in {tok:?}"))?;
                let (start_s, len_s) = parse_window(window, tok)?;
                s.faults.push(FaultKind::LossBurst {
                    start_s,
                    len_s,
                    prob: prob
                        .parse()
                        .map_err(|_| format!("bad loss probability in {tok:?}"))?,
                });
            } else if let Some(body) = tok
                .strip_prefix("reorder@")
                .map(|b| (b, false))
                .or_else(|| tok.strip_prefix("dup@").map(|b| (b, true)))
            {
                let (body, is_dup) = body;
                let (rest, ms) = body
                    .split_once('~')
                    .ok_or_else(|| format!("fault needs ~<ms> in {tok:?}"))?;
                let (window, prob) = rest
                    .split_once('x')
                    .ok_or_else(|| format!("fault needs x<prob> in {tok:?}"))?;
                let (start_s, len_s) = parse_window(window, tok)?;
                let extra_ms = ms.parse().map_err(|_| format!("bad delay in {tok:?}"))?;
                let prob: f64 = prob
                    .parse()
                    .map_err(|_| format!("bad probability in {tok:?}"))?;
                s.faults.push(if is_dup {
                    FaultKind::Duplicate {
                        start_s,
                        len_s,
                        extra_ms,
                        prob,
                    }
                } else {
                    FaultKind::Reorder {
                        start_s,
                        len_s,
                        extra_ms,
                        prob,
                    }
                });
            } else if let Some(body) = tok.strip_prefix("cliff@") {
                let (at, factor) = body
                    .split_once('x')
                    .ok_or_else(|| format!("cliff needs x<factor> in {tok:?}"))?;
                s.trace_faults.push(TraceFault::Cliff {
                    at_s: at
                        .parse()
                        .map_err(|_| format!("bad cliff time in {tok:?}"))?,
                    factor: factor
                        .parse()
                        .map_err(|_| format!("bad cliff factor in {tok:?}"))?,
                });
            } else if let Some(body) = tok.strip_prefix("stuck@") {
                let (at, len) = body
                    .split_once('+')
                    .ok_or_else(|| format!("stuck needs <at>+<len> in {tok:?}"))?;
                s.trace_faults.push(TraceFault::Stuck {
                    at_s: at
                        .parse()
                        .map_err(|_| format!("bad stuck time in {tok:?}"))?,
                    len_s: len
                        .parse()
                        .map_err(|_| format!("bad stuck length in {tok:?}"))?,
                });
            } else if let Some(what) = tok.strip_prefix("inject=") {
                s.inject = Some(match what {
                    "stall_skew" => Inject::StallSkew,
                    _ => return Err(format!("unknown injection {what:?} in {spec:?}")),
                });
            } else if let Some(v) = tok.strip_prefix("q") {
                s.queue_packets = v.parse().map_err(|_| format!("bad queue in {tok:?}"))?;
            } else if let Some(v) = tok.strip_prefix("n") {
                s.trials = v
                    .parse()
                    .map_err(|_| format!("bad trial count in {tok:?}"))?;
            } else if let Some(v) = tok.strip_prefix("d") {
                s.duration_s = v.parse().map_err(|_| format!("bad duration in {tok:?}"))?;
            } else {
                return Err(format!("unknown token {tok:?} in {spec:?}"));
            }
        }
        if s.trials == 0 || s.duration_s == 0 {
            return Err(format!("{spec:?}: trials and duration must be nonzero"));
        }
        Ok(s)
    }

    /// The canonical spec string (round-trips through [`Scenario::parse`]).
    pub fn spec(&self) -> String {
        let mut out = format!(
            "{}:{}:{}:buf{}:q{}:n{}:d{}",
            self.video.short_name(),
            self.system,
            self.trace.token(),
            self.buffer_segments,
            self.queue_packets,
            self.trials,
            self.duration_s,
        );
        if let Some(p) = self.trace_prefix_s {
            out.push_str(&format!(":prefix{p}"));
        }
        for f in &self.faults {
            match *f {
                FaultKind::LossBurst {
                    start_s,
                    len_s,
                    prob,
                } => {
                    out.push_str(&format!(":loss@{start_s}+{len_s}x{prob}"));
                }
                FaultKind::Reorder {
                    start_s,
                    len_s,
                    extra_ms,
                    prob,
                } => out.push_str(&format!(":reorder@{start_s}+{len_s}x{prob}~{extra_ms}")),
                FaultKind::Duplicate {
                    start_s,
                    len_s,
                    extra_ms,
                    prob,
                } => out.push_str(&format!(":dup@{start_s}+{len_s}x{prob}~{extra_ms}")),
            }
        }
        for f in &self.trace_faults {
            match *f {
                TraceFault::Cliff { at_s, factor } => {
                    out.push_str(&format!(":cliff@{at_s}x{factor}"));
                }
                TraceFault::Stuck { at_s, len_s } => {
                    out.push_str(&format!(":stuck@{at_s}+{len_s}"));
                }
            }
        }
        if let Some(Inject::StallSkew) = self.inject {
            out.push_str(":inject=stall_skew");
        }
        out
    }

    /// Short display name (the identifying axes only).
    pub fn name(&self) -> String {
        format!(
            "{}:{}:{}:buf{}",
            self.video.short_name(),
            self.system,
            self.trace.token(),
            self.buffer_segments
        )
    }

    /// The fully-materialized trace for `seed`: family build, then trace
    /// faults in declaration order, then the prefix truncation.
    pub fn build_trace(&self, seed: u64) -> BandwidthTrace {
        let mut t = self.trace.build(seed, self.duration_s);
        for f in &self.trace_faults {
            t = f.apply(&t);
        }
        if let Some(p) = self.trace_prefix_s {
            t = t.prefix(p);
        }
        t
    }

    /// Builder: override the trial count.
    pub fn with_trials(mut self, n: usize) -> Scenario {
        self.trials = n;
        self
    }

    /// Builder: truncate the trace to its first `seconds`.
    pub fn with_trace_prefix(mut self, seconds: usize) -> Scenario {
        self.trace_prefix_s = Some(seconds);
        self
    }

    /// Builder: add packet faults.
    pub fn with_faults(mut self, faults: Vec<FaultKind>) -> Scenario {
        self.faults = faults;
        self
    }
}

/// A cartesian product of scenario axes, from a one-line spec:
///
/// ```text
/// systems=BOLA,VOXEL traces=const8,tmobile buffers=1,3 queues=32 trials=2
/// ```
///
/// `videos` (default `BBB`), `buffers` (default `3`), `queues` (default
/// `32`), `trials` (default `1`) and `duration` (default `300`) are
/// optional; `systems` and `traces` are required.
#[derive(Debug, Clone)]
pub struct Matrix {
    /// Videos axis.
    pub videos: Vec<VideoId>,
    /// Systems axis (legend names).
    pub systems: Vec<String>,
    /// Trace families axis.
    pub traces: Vec<TraceFamily>,
    /// Buffer-capacity axis, segments.
    pub buffers: Vec<usize>,
    /// Queue-length axis, packets.
    pub queues: Vec<usize>,
    /// Trials per scenario.
    pub trials: usize,
    /// Trace duration, seconds.
    pub duration_s: usize,
}

impl Matrix {
    /// Parse a whitespace-separated `key=v1,v2,…` matrix spec.
    pub fn parse(spec: &str) -> Result<Matrix, String> {
        let mut m = Matrix {
            videos: vec![VideoId::Bbb],
            systems: Vec::new(),
            traces: Vec::new(),
            buffers: vec![3],
            queues: vec![32],
            trials: 1,
            duration_s: 300,
        };
        for tok in spec.split_whitespace() {
            let (key, vals) = tok
                .split_once('=')
                .ok_or_else(|| format!("matrix token {tok:?} is not key=values"))?;
            let list: Vec<&str> = vals.split(',').filter(|v| !v.is_empty()).collect();
            if list.is_empty() {
                return Err(format!("matrix axis {key:?} has no values"));
            }
            match key {
                "videos" => {
                    m.videos = list
                        .iter()
                        .map(|v| video_by_name(v).ok_or_else(|| format!("unknown video {v:?}")))
                        .collect::<Result<_, _>>()?;
                }
                "systems" => {
                    for v in &list {
                        system_by_name(v).ok_or_else(|| format!("unknown system {v:?}"))?;
                    }
                    m.systems = list.iter().map(|v| v.to_string()).collect();
                }
                "traces" => {
                    m.traces = list
                        .iter()
                        .map(|v| TraceFamily::parse(v))
                        .collect::<Result<_, _>>()?;
                }
                "buffers" => {
                    m.buffers = Self::parse_usizes(&list, key)?;
                }
                "queues" => {
                    m.queues = Self::parse_usizes(&list, key)?;
                }
                "trials" => {
                    m.trials = Self::parse_usizes(&list, key)?
                        .first()
                        .copied()
                        .unwrap_or(1);
                }
                "duration" => {
                    m.duration_s = Self::parse_usizes(&list, key)?
                        .first()
                        .copied()
                        .unwrap_or(300);
                }
                _ => return Err(format!("unknown matrix axis {key:?}")),
            }
        }
        if m.systems.is_empty() || m.traces.is_empty() {
            return Err("matrix needs at least systems= and traces=".into());
        }
        Ok(m)
    }

    fn parse_usizes(list: &[&str], key: &str) -> Result<Vec<usize>, String> {
        list.iter()
            .map(|v| {
                v.parse::<usize>()
                    .map_err(|_| format!("bad {key} value {v:?}"))
            })
            .collect()
    }

    /// Expand to the full cartesian product, in axis order
    /// (video, system, trace, buffer, queue).
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        for &video in &self.videos {
            for system in &self.systems {
                for trace in &self.traces {
                    for &buf in &self.buffers {
                        for &q in &self.queues {
                            let mut s = Scenario::new(video, system.clone(), trace.clone());
                            s.buffer_segments = buf;
                            s.queue_packets = q;
                            s.trials = self.trials;
                            s.duration_s = self.duration_s;
                            out.push(s);
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxel_core::TransportMode;

    #[test]
    fn minimal_spec_gets_defaults() {
        let s = Scenario::parse("BBB:VOXEL:tmobile").expect("parses");
        assert_eq!(s.video, VideoId::Bbb);
        assert_eq!(s.system, "VOXEL");
        assert_eq!(s.trace, TraceFamily::TMobile);
        assert_eq!(
            (s.buffer_segments, s.queue_packets, s.trials, s.duration_s),
            (3, 32, 1, 300)
        );
        assert!(s.faults.is_empty() && s.trace_faults.is_empty() && s.inject.is_none());
    }

    #[test]
    fn full_spec_round_trips() {
        let spec = "ToS:BOLA-SSIM:step8-2@60:buf1:q64:n4:d120:prefix45:\
                    loss@60+5x0.3:reorder@10+2x0.5~40:dup@20+2x0.25~15:\
                    cliff@90x0.5:stuck@30+10:inject=stall_skew";
        let s = Scenario::parse(spec).expect("parses");
        assert_eq!(s.spec(), spec.replace(['\n', ' '], ""));
        let again = Scenario::parse(&s.spec()).expect("re-parses");
        assert_eq!(s, again);
        assert_eq!(s.faults.len(), 3);
        assert_eq!(s.trace_faults.len(), 2);
        assert_eq!(s.inject, Some(Inject::StallSkew));
        assert_eq!(s.trace_prefix_s, Some(45));
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        for (spec, needle) in [
            ("XYZ:BOLA:const8", "unknown video"),
            ("BBB:NOPE:const8", "unknown system"),
            ("BBB:BOLA:warp9", "unknown trace"),
            ("BBB:BOLA:const8:zzz", "unknown token"),
            ("BBB:BOLA:const8:loss@60x0.3", "<start>+<len>"),
            ("BBB:BOLA:const8:inject=divide_by_zero", "unknown injection"),
            ("BBB:BOLA:const8:n0", "nonzero"),
            ("BBB:BOLA", "missing the trace"),
        ] {
            let err = Scenario::parse(spec).expect_err(spec);
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn trace_families_build_requested_durations() {
        for tok in [
            "const8",
            "const3.5",
            "step8-2@60",
            "tmobile",
            "verizon",
            "att",
            "3g",
            "fcc",
            "wifi",
        ] {
            let f = TraceFamily::parse(tok).expect(tok);
            assert_eq!(f.token(), tok);
            let t = f.build(1, 120);
            assert_eq!(t.duration_s(), 120, "{tok}");
            // Seeded families vary with the seed; synthetic ones don't.
            let other = f.build(2, 120);
            match f {
                TraceFamily::Constant(_) | TraceFamily::Step { .. } => assert_eq!(t, other),
                _ => assert_ne!(t.mbps, other.mbps, "{tok} ignores the seed"),
            }
        }
    }

    #[test]
    fn build_trace_applies_faults_then_prefix() {
        let s = Scenario::parse("BBB:BOLA:const8:d100:cliff@50x0.5:prefix60").expect("parses");
        let t = s.build_trace(0);
        assert_eq!(t.duration_s(), 60);
        assert_eq!(t.mbps[49], 8.0);
        assert_eq!(t.mbps[59], 4.0);
    }

    #[test]
    fn matrix_expands_the_cartesian_product() {
        let m = Matrix::parse(
            "videos=BBB,ED systems=BOLA,VOXEL traces=const8,tmobile buffers=1,3 queues=32,750 trials=2 duration=120",
        )
        .expect("parses");
        let all = m.scenarios();
        assert_eq!(all.len(), 2 * 2 * 2 * 2 * 2);
        assert!(all.iter().all(|s| s.trials == 2 && s.duration_s == 120));
        // Every scenario spec is unique and re-parseable.
        let mut specs: Vec<String> = all.iter().map(Scenario::spec).collect();
        specs.sort();
        specs.dedup();
        assert_eq!(specs.len(), all.len());
        for spec in &specs {
            Scenario::parse(spec).expect("matrix scenario re-parses");
        }
    }

    #[test]
    fn matrix_requires_systems_and_traces() {
        assert!(Matrix::parse("systems=BOLA").is_err());
        assert!(Matrix::parse("traces=const8").is_err());
        assert!(Matrix::parse("systems=BOLA traces=const8").is_ok());
    }

    #[test]
    fn system_table_matches_the_bench_legend() {
        for (name, transport) in [
            ("BOLA", TransportMode::Reliable),
            ("BOLA-SSIM", TransportMode::Split),
            ("MPC", TransportMode::Reliable),
            ("MPC*", TransportMode::Split),
            ("Tput", TransportMode::Reliable),
            ("BETA", TransportMode::Reliable),
            ("VOXEL", TransportMode::Split),
            ("VOXEL-tuned", TransportMode::Split),
            ("VOXEL-rel", TransportMode::Reliable),
        ] {
            let (_, t) = system_by_name(name).expect(name);
            assert_eq!(t, transport, "{name}");
        }
        assert!(system_by_name("XYZ").is_none());
    }

    #[test]
    fn videos_resolve_by_legend_name() {
        assert_eq!(video_by_name("BBB"), Some(VideoId::Bbb));
        assert_eq!(video_by_name("P10"), Some(VideoId::YouTube(10)));
        assert_eq!(video_by_name("P11"), None);
        assert_eq!(video_by_name("Q1"), None);
    }
}
