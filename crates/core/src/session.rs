//! One playback trial: client ⇄ (bottleneck path) ⇄ server, in virtual time.
//!
//! [`Kernel`] is the one client/server event loop, shared by single
//! sessions and fleet members. It owns both QUIC\* endpoints, the server
//! and client applications, and their private event queue. Each iteration
//! drains application logic and transmissions, then advances virtual time
//! to the earliest pending event (datagram delivery, transport timer, or
//! the player's 100 ms tick). Where a sent datagram goes is the caller's
//! [`Wire`]: [`Session`] carries it over a [`BottleneckPath`] and an
//! optional fault plane; a fleet member hands its downlink to the shared
//! link and keeps the uplink delay-only.

use crate::client::{ClientApp, PlayerConfig, TransportMode};
use crate::metrics::{TransportStats, TrialResult};
use crate::server::{ServeNote, ServerApp};
use bytes::Bytes;
use std::sync::Arc;
use voxel_abr::Abr;
use voxel_media::qoe::QoeModel;
use voxel_media::video::Video;
use voxel_netem::{BottleneckPath, FaultPlane, PacketFate, PathConfig};
use voxel_prep::manifest::Manifest;
use voxel_quic::{CcKind, Connection, ConnectionConfig, Packet, Role};
use voxel_sim::{EventQueue, SimDuration, SimTime};
use voxel_trace::{trace_event, Layer, Tracer};

/// Events of the kernel's private queue.
enum Ev {
    /// Datagram arriving at the client.
    ToClient(Bytes),
    /// Datagram arriving at the server.
    ToServer(Bytes),
    /// Player tick (progress checks, playback deadlines; also the no-op
    /// clock bump).
    Tick,
}

/// Where a session's datagrams go once sent. Statically dispatched: the
/// kernel is generic over its wire, so each caller's loop compiles to
/// direct calls.
pub trait Wire {
    /// Carry one server → client datagram sent at `now`; its arrival, if
    /// it arrives in this session at all, goes through `land`.
    fn downlink(&mut self, now: SimTime, p: Packet, land: &mut Landing<'_>);
    /// Carry one client → server datagram sent at `now`.
    fn uplink(&mut self, now: SimTime, p: Packet, land: &mut Landing<'_>);
    /// An object the server resolved at `now`. Called only for a kernel
    /// built [`Kernel::with_serve_notes`]; ignored by default.
    fn served(&mut self, _now: SimTime, _note: ServeNote) {}
}

/// The receiving end of one datagram: schedules its arrival in the
/// kernel's queue.
pub struct Landing<'a> {
    queue: &'a mut EventQueue<Ev>,
    /// `Ev::ToClient` or `Ev::ToServer`.
    arrive: fn(Bytes) -> Ev,
}

impl Landing<'_> {
    /// Deliver `datagram` to the receiving endpoint at `at` (not before
    /// its send time).
    pub fn at(&mut self, at: SimTime, datagram: Bytes) {
        self.queue.schedule(at, (self.arrive)(datagram));
    }
}

/// How a [`Kernel::advance`] call returned.
#[derive(Debug, Clone, Copy)]
pub enum Advanced {
    /// Still playing: the earliest pending event lies past the bound.
    Blocked(SimTime),
    /// The player finished at this time.
    Done(SimTime),
}

/// The session kernel: both endpoints, both applications and their
/// private event queue, stepped by [`Kernel::advance`].
pub struct Kernel {
    queue: EventQueue<Ev>,
    client_conn: Connection,
    server_conn: Connection,
    server: ServerApp,
    client: ClientApp,
    /// The player's first tick. A staggered fleet member idles (still
    /// counting iterations) until then.
    start: SimTime,
    /// Time of the armed player tick.
    last_tick: SimTime,
    /// Loop iterations so far; also the profiler's sampling key.
    iters: u64,
    tracer: Tracer,
    /// `VOXEL_SESSION_DEBUG` progress lines (single sessions only).
    debug: Tracer,
}

impl Kernel {
    /// Assemble a session whose player starts at `start`.
    pub fn new(
        start: SimTime,
        player: PlayerConfig,
        manifest: Arc<Manifest>,
        video: Arc<Video>,
        qoe: QoeModel,
        abr: Box<dyn Abr>,
        conn: ConnectionConfig,
    ) -> Kernel {
        let client = ClientApp::new(player, manifest.clone(), video, qoe, abr);
        let mut queue = EventQueue::with_capacity(32);
        // Boot: the first tick starts the manifest fetch.
        queue.schedule(start, Ev::Tick);
        Kernel {
            queue,
            client_conn: Connection::new(Role::Client, conn.clone()),
            server_conn: Connection::new(Role::Server, conn),
            server: ServerApp::new(manifest, true),
            client,
            start,
            last_tick: start,
            iters: 0,
            tracer: Tracer::disabled(),
            debug: Tracer::disabled(),
        }
    }

    /// Record every object the server resolves and hand it to
    /// [`Wire::served`] (the fleet's edge tier replays them).
    pub fn with_serve_notes(mut self) -> Kernel {
        self.server.record_serve_notes(true);
        self
    }

    /// One tracer for the client, the server, and the server-side QUIC\*
    /// connection (the data sender, whose cwnd/loss/PTO telemetry is the
    /// interesting one): one per-session stream, one sequence counter.
    fn set_tracer(&mut self, tracer: Tracer) {
        self.server_conn.set_tracer(tracer.clone());
        self.server.set_tracer(tracer.clone());
        self.client.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// A datagram arriving at the client from outside the session (a
    /// fleet's shared link), at or after the kernel's clock.
    pub fn deliver(&mut self, at: SimTime, datagram: Bytes) {
        self.queue.schedule(at, Ev::ToClient(datagram));
    }

    /// Loop iterations so far.
    pub fn iters(&self) -> u64 {
        self.iters
    }

    /// Step the session until the player finishes or its next event lies
    /// past `until`. Sent datagrams go through `wire`.
    pub fn advance<W: Wire>(&mut self, until: SimTime, wire: &mut W) -> Advanced {
        loop {
            let now = self.queue.now();
            self.iters += 1;
            // Profiler sampling gate: free unless a voxel-obs profiler is
            // installed on this thread, and even then only 1-in-N
            // iterations take clock readings (which never touch sim state).
            voxel_obs::arm(self.iters);
            let _step = voxel_obs::span!("session.step");
            voxel_obs::observe("obs.queue_depth", self.queue.len() as u64);
            if self.iters.is_multiple_of(10_000) && self.debug.enabled() {
                self.progress(now);
            }

            if now >= self.start {
                // Application pumps.
                {
                    let _pump = voxel_obs::span!("session.pump");
                    self.server.handle(now, &mut self.server_conn);
                    for note in self.server.take_serve_notes() {
                        wire.served(now, note);
                    }
                    self.client.on_wake(now, &mut self.client_conn);
                }
                #[cfg(feature = "paranoid")]
                if let Err(e) = self.client.check_invariants(now) {
                    if let Some(dump) = voxel_obs::dump_current(&format!(
                        "player invariant violated at {now:?}: {e}"
                    )) {
                        eprintln!("{dump}");
                    }
                    // lint: allow(panic) the paranoid layer is intentionally fatal on corruption
                    panic!("player invariant violated at {now:?}: {e}");
                }
                if self.client.is_done() {
                    return Advanced::Done(now);
                }

                // Drain transmissions. The endpoints share no state, so
                // one pass each empties both.
                {
                    let _transmit = voxel_obs::span!("session.transmit");
                    while let Some(p) = self.server_conn.poll_transmit(now) {
                        let mut land = Landing {
                            queue: &mut self.queue,
                            arrive: Ev::ToClient,
                        };
                        wire.downlink(now, p, &mut land);
                    }
                    while let Some(p) = self.client_conn.poll_transmit(now) {
                        let mut land = Landing {
                            queue: &mut self.queue,
                            arrive: Ev::ToServer,
                        };
                        wire.uplink(now, p, &mut land);
                    }
                }

                // Keep exactly one player tick armed ~100 ms out.
                if self.last_tick <= now {
                    if let Some(wake) = self.client.next_wake(now) {
                        self.last_tick = wake;
                        self.queue.schedule(wake, Ev::Tick);
                    }
                }
            }

            // Next event: queue, or a transport timer.
            let timer_c = self.client_conn.next_timeout();
            let timer_s = self.server_conn.next_timeout();
            let next = [self.queue.peek_time(), timer_c, timer_s]
                .into_iter()
                .flatten()
                .min();
            let Some(next) = next else {
                // Nothing pending at all: force a tick so the player can
                // re-evaluate (e.g. waiting out a buffer-full period).
                self.queue
                    .schedule(now + SimDuration::from_millis(100), Ev::Tick);
                continue;
            };
            if next > until {
                return Advanced::Blocked(next);
            }

            // Deliver everything due at `next`: client timers, server
            // timers, then queued events in (time, insertion) order.
            let _deliver = voxel_obs::span!("session.deliver");
            if timer_c.is_some_and(|t| t <= next) {
                self.client_conn.on_timeout(next);
            }
            if timer_s.is_some_and(|t| t <= next) {
                self.server_conn.on_timeout(next);
            }
            while self.queue.peek_time() == Some(next) {
                let Some(ev) = self.queue.pop() else {
                    break;
                };
                match ev.event {
                    Ev::ToClient(d) => self.client_conn.on_datagram(next, d),
                    Ev::ToServer(d) => self.server_conn.on_datagram(next, d),
                    Ev::Tick => {}
                }
            }
            // If only timers fired (queue still in the past), bump the
            // queue's clock with a no-op event.
            if self.queue.now() < next {
                self.queue.schedule(next, Ev::Tick);
                self.queue.pop();
            }
        }
    }

    /// One `VOXEL_SESSION_DEBUG` progress line.
    fn progress(&self, now: SimTime) {
        let (seg, dl, recs) = self.client.debug_state();
        let stats = self.server_conn.stats();
        trace_event!(
            self.debug,
            now,
            Layer::Session,
            "progress",
            "iters_k" = self.iters / 1000,
            "queue" = self.queue.len(),
            "cwnd" = self.server_conn.cwnd(),
            "seg" = seg,
            "dl" = dl,
            "recs" = recs,
            "pkts_sent" = stats.packets_sent,
            "pkts_lost" = stats.packets_lost,
            "ptos" = stats.ptos,
        );
    }

    /// Close out the trial at `now`: emit the end-of-session event,
    /// snapshot the metrics registry, attach transport statistics, and
    /// flush the sink. Without a tracer the mean cwnd and SRTT are the
    /// connection's final values.
    pub fn finish(self, now: SimTime) -> TrialResult {
        let stats = self.server_conn.stats();
        let client_stats = self.client_conn.stats();
        trace_event!(
            self.tracer,
            now,
            Layer::Session,
            "trial_end",
            "packets_sent" = stats.packets_sent,
            "packets_lost" = stats.packets_lost,
            "loss_events" = stats.loss_events,
            "ptos" = stats.ptos,
            "bytes_sent" = stats.bytes_sent,
        );
        let snapshot = self.tracer.metrics_snapshot(now);
        let mut r = self.client.into_result(now);
        r.transport = TransportStats {
            packets_sent: stats.packets_sent,
            packets_lost: stats.packets_lost,
            loss_events: stats.loss_events,
            ptos: stats.ptos,
            bytes_sent: stats.bytes_sent,
            bytes_retransmitted: stats.bytes_retransmitted,
            mean_cwnd_bytes: snapshot
                .as_ref()
                .and_then(|s| s.histogram("quic.cwnd_bytes"))
                .map(|h| h.mean)
                .unwrap_or(self.server_conn.cwnd() as f64),
            mean_srtt_ms: snapshot
                .as_ref()
                .and_then(|s| s.histogram("quic.srtt_us"))
                .map(|h| h.mean / 1e3)
                .unwrap_or_else(|| self.server_conn.srtt().as_secs_f64() * 1e3),
            client_packets_received: client_stats.packets_received,
            client_packets_duplicate: client_stats.packets_duplicate,
            client_packets_reordered: client_stats.packets_reordered,
        };
        r.metrics = snapshot;
        self.tracer.flush();
        r
    }
}

/// A single session's wire: the emulated bottleneck path, with an
/// optional seeded fault plane applied to both directions.
struct PathWire {
    path: BottleneckPath,
    faults: Option<FaultPlane>,
}

impl PathWire {
    /// Land `p` at `arrival` (`None`: the bottleneck dropped it) as the
    /// fault plane decides; the plane draws a fate for every packet.
    fn land(&mut self, now: SimTime, arrival: Option<SimTime>, p: Packet, land: &mut Landing<'_>) {
        let fate = match self.faults.as_mut() {
            Some(plane) => plane.next_fate(now),
            None => PacketFate::Deliver,
        };
        let Some(arrival) = arrival else {
            return;
        };
        match fate {
            PacketFate::Deliver => land.at(arrival, p.encode()),
            PacketFate::Drop => {}
            PacketFate::Delay(extra) => land.at(arrival + extra, p.encode()),
            PacketFate::Duplicate(lag) => {
                let bytes = p.encode();
                land.at(arrival, bytes.clone());
                land.at(arrival + lag, bytes);
            }
        }
    }
}

impl Wire for PathWire {
    fn downlink(&mut self, now: SimTime, p: Packet, land: &mut Landing<'_>) {
        let arrival = self.path.send_downlink(now, p.wire_size());
        self.land(now, arrival, p, land);
    }

    fn uplink(&mut self, now: SimTime, p: Packet, land: &mut Landing<'_>) {
        let arrival = self.path.send_uplink(now);
        self.land(now, Some(arrival), p, land);
    }
}

/// One streaming trial over a [`BottleneckPath`].
pub struct Session {
    kernel: Kernel,
    wire: PathWire,
    /// Hard cap on simulated time (safety net; never reached in practice).
    cap: SimTime,
}

impl Session {
    /// Assemble a session.
    pub fn new(
        path_config: PathConfig,
        manifest: Arc<Manifest>,
        video: Arc<Video>,
        qoe: QoeModel,
        abr: Box<dyn Abr>,
        player: PlayerConfig,
    ) -> Session {
        Self::with_cc(
            path_config,
            manifest,
            video,
            qoe,
            abr,
            player,
            CcKind::Cubic,
        )
    }

    /// Assemble a session with an explicit congestion controller (the
    /// Appendix B delay-based-CC ablation).
    pub fn with_cc(
        path_config: PathConfig,
        manifest: Arc<Manifest>,
        video: Arc<Video>,
        qoe: QoeModel,
        abr: Box<dyn Abr>,
        player: PlayerConfig,
        cc: CcKind,
    ) -> Session {
        let cap = SimTime::from_secs_f64(video.duration_s() * 5.0 + 120.0);
        let conn = ConnectionConfig {
            cc,
            ..ConnectionConfig::default()
        };
        Session {
            kernel: Kernel::new(SimTime::ZERO, player, manifest, video, qoe, abr, conn),
            wire: PathWire {
                path: BottleneckPath::new(path_config),
                faults: None,
            },
            cap,
        }
    }

    /// Make the server VOXEL-unaware (backward-compatibility experiments).
    pub fn with_voxel_unaware_server(mut self) -> Session {
        self.kernel.server.voxel_aware = false;
        self
    }

    /// Install a seeded fault plane: every packet handed to the path (both
    /// directions) is run through it, so testkit scenarios can inject loss
    /// bursts, reordering, and duplication deterministically (DESIGN.md
    /// §11). Drops model post-bottleneck (air-interface) loss — the packet
    /// still consumed queue space and service time.
    pub fn with_faults(mut self, plane: FaultPlane) -> Session {
        self.wire.faults = Some(plane);
        self
    }

    /// Install a tracer shared by every layer of the session (see
    /// [`Kernel`]).
    ///
    /// Crate-private: external callers route tracing through the one
    /// [`crate::experiment::Tracing`] entry point, or pass an explicit
    /// tracer to [`crate::experiment::run_instrumented_trial`].
    pub(crate) fn with_tracer(mut self, tracer: Tracer) -> Session {
        self.kernel.set_tracer(tracer);
        self
    }

    /// Run to completion (or the safety cap) and produce the trial result.
    pub fn run(mut self) -> TrialResult {
        // Periodic loop-progress lines for interactive debugging, through
        // the stderr sink (independent of the session's own tracer).
        if std::env::var("VOXEL_SESSION_DEBUG").is_ok() {
            self.kernel.debug = Tracer::stderr(self.kernel.tracer.session_id());
        }
        let cfg = self.kernel.client.config();
        trace_event!(
            self.kernel.tracer,
            SimTime::ZERO,
            Layer::Session,
            "trial_start",
            "buffer_segments" = cfg.buffer_capacity_segments,
            "transport" = match cfg.transport {
                TransportMode::Reliable => "reliable",
                TransportMode::Split => "split",
            },
            "selective_retx" = cfg.selective_retx,
            "live" = cfg.live,
        );
        let end = match self.kernel.advance(self.cap, &mut self.wire) {
            Advanced::Done(now) => now,
            // Safety cap: freeze what we have.
            Advanced::Blocked(_) => self.cap,
        };
        self.kernel.finish(end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::TransportMode;
    use voxel_abr::{AbrStar, Bola};
    use voxel_media::content::VideoId;
    use voxel_media::ladder::QualityLevel;
    use voxel_netem::BandwidthTrace;

    fn setup(levels: &[QualityLevel]) -> (Arc<Manifest>, Arc<Video>, QoeModel) {
        let video = Video::generate(VideoId::Bbb);
        let qoe = QoeModel::default();
        let manifest = Arc::new(Manifest::prepare_levels(&video, &qoe, levels));
        (manifest, Arc::new(video), qoe)
    }

    #[test]
    fn bola_over_fat_pipe_plays_without_stalls() {
        let (manifest, video, qoe) = setup(&[]);
        let path = PathConfig::new(BandwidthTrace::constant(50.0, 600), 64);
        let session = Session::new(
            path,
            manifest,
            video,
            qoe,
            Box::new(Bola::new()),
            PlayerConfig::new(7, TransportMode::Reliable),
        );
        let r = session.run();
        assert_eq!(r.segment_scores.len(), 75);
        assert!(r.buf_ratio_pct() < 1.0, "bufRatio {}", r.buf_ratio_pct());
        // 50 Mbps is plenty for Q12: the mean delivered bitrate should be
        // high.
        assert!(
            r.avg_bitrate_kbps() > 5_000.0,
            "bitrate {}",
            r.avg_bitrate_kbps()
        );
        assert!(r.avg_ssim() > 0.98, "ssim {}", r.avg_ssim());
    }

    #[test]
    fn voxel_over_fat_pipe_is_clean_too() {
        let (manifest, video, qoe) = setup(&[QualityLevel::MAX]);
        let path = PathConfig::new(BandwidthTrace::constant(50.0, 600), 64);
        let session = Session::new(
            path,
            manifest,
            video,
            qoe,
            Box::new(AbrStar::default()),
            PlayerConfig::new(7, TransportMode::Split),
        );
        let r = session.run();
        assert_eq!(r.segment_scores.len(), 75);
        assert!(r.buf_ratio_pct() < 1.0, "bufRatio {}", r.buf_ratio_pct());
        assert!(r.avg_ssim() > 0.97, "ssim {}", r.avg_ssim());
    }

    #[test]
    fn starvation_produces_stalls_not_hangs() {
        let (manifest, video, qoe) = setup(&[]);
        // 0.1 Mbps cannot sustain even Q0 (0.16 Mbps average).
        let path = PathConfig::new(BandwidthTrace::constant(0.1, 3600), 32);
        let session = Session::new(
            path,
            manifest,
            video,
            qoe,
            Box::new(Bola::new()),
            PlayerConfig::new(3, TransportMode::Reliable),
        );
        let r = session.run();
        assert!(r.buf_ratio_pct() > 5.0, "bufRatio {}", r.buf_ratio_pct());
    }
}

#[cfg(test)]
mod stall_accounting_tests {
    use super::*;
    use crate::client::TransportMode;
    use voxel_abr::ThroughputAbr;
    use voxel_media::content::VideoId;
    use voxel_media::ladder::QualityLevel;
    use voxel_netem::BandwidthTrace;

    /// Engineer exactly one bandwidth blackout mid-session and verify the
    /// stall accounting brackets it: the playback gap must be close to the
    /// blackout length minus the buffered content.
    #[test]
    fn one_blackout_produces_a_bounded_stall() {
        let video = Video::generate(VideoId::Bbb);
        let qoe = QoeModel::default();
        let manifest = Arc::new(Manifest::prepare_levels(&video, &qoe, &[]));
        // 8 Mbps, with a 12-second blackout starting at t = 60 s.
        let mut rates = vec![8.0; 600];
        for r in rates.iter_mut().skip(60).take(12) {
            *r = 0.05;
        }
        let trace = BandwidthTrace::new("blackout", rates);
        let session = Session::new(
            PathConfig::new(trace, 32),
            manifest,
            Arc::new(video),
            qoe,
            Box::new(ThroughputAbr::default()),
            PlayerConfig::new(2, TransportMode::Reliable),
        );
        let r = session.run();
        assert_eq!(r.segment_scores.len(), 75);
        // The blackout is 12 s against at most 8 s of buffer: at least a
        // couple of seconds must register, and never more than the
        // blackout itself plus one segment of slack.
        assert!(
            r.stall_s >= 2.0,
            "expected a visible stall, got {}",
            r.stall_s
        );
        assert!(
            r.stall_s <= 16.0,
            "stall {} exceeds the blackout + slack",
            r.stall_s
        );
    }

    /// The safety cap fires (and still yields a well-formed result) when
    /// the network is a trickle that can never finish the session.
    #[test]
    fn cap_yields_partial_but_wellformed_result() {
        let video = Video::generate(VideoId::Bbb);
        let qoe = QoeModel::default();
        let manifest = Arc::new(Manifest::prepare_levels(&video, &qoe, &[]));
        let trace = BandwidthTrace::constant(0.05, 3600);
        let session = Session::new(
            PathConfig::new(trace, 32),
            manifest,
            Arc::new(video),
            qoe,
            Box::new(ThroughputAbr::default()),
            PlayerConfig::new(2, TransportMode::Reliable),
        );
        let r = session.run();
        // Whether the cap fired or the trickle crawled through, the result
        // must be well-formed (every record frozen and scored) and the
        // session must register severe rebuffering.
        assert!(r.segment_scores.len() <= 75);
        assert_eq!(r.segment_kbps.len(), r.segment_scores.len());
        assert!(
            r.buf_ratio_pct() > 50.0,
            "a 0.05 Mbps link must stall heavily, got {}%",
            r.buf_ratio_pct()
        );
    }

    /// Quality levels requested monotonically follow a rising staircase
    /// trace (sanity of the whole ABR/throughput feedback loop).
    #[test]
    fn staircase_trace_raises_delivered_quality() {
        let video = Video::generate(VideoId::Tos);
        let qoe = QoeModel::default();
        let manifest = Arc::new(Manifest::prepare_levels(&video, &qoe, &[]));
        let mut rates = Vec::new();
        for step in 0..5 {
            rates.extend(std::iter::repeat_n(1.0 + step as f64 * 3.0, 60));
        }
        let trace = BandwidthTrace::new("staircase", rates);
        let session = Session::new(
            PathConfig::new(trace, 32),
            manifest,
            Arc::new(video),
            qoe,
            Box::new(ThroughputAbr::default()),
            PlayerConfig::new(3, TransportMode::Reliable),
        );
        let r = session.run();
        assert_eq!(r.segment_scores.len(), 75);
        // Mean delivered bitrate in the last fifth ≫ first fifth.
        let first: f64 = r.segment_kbps[..15].iter().sum::<f64>() / 15.0;
        let last: f64 = r.segment_kbps[60..].iter().sum::<f64>() / 15.0;
        assert!(
            last > first * 2.0,
            "bitrate did not climb the staircase: {first} -> {last}"
        );
        let _ = QualityLevel::MAX; // staircase is about delivered bits
    }
}
