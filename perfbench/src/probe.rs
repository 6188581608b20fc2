//! The outside-in traced session driver.
//!
//! [`run_traced`] reproduces `Session::run` (crates/core/src/session.rs,
//! fault plane off, tracing off) from the public calls of each layer —
//! `Connection`, `ClientApp`, `ServerApp`, `BottleneckPath`,
//! `EventQueue`, `Packet::encode` — and wraps every call in a wall-clock
//! timer. The ABR is wrapped in a delegating [`Abr`] that times its own
//! calls, so the client's time can be reported net of the ABR's. The
//! program itself carries no spans; a trial driven here must come out
//! equal to the same trial run by `Experiment::run_trial`, which the
//! traced runs check on every trial and the unit test below pins.

use bytes::Bytes;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use voxel_abr::{AbandonAction, Abr, AbrContext, Decision, DownloadProgress};
use voxel_core::client::{ClientApp, PlayerConfig, TransportMode};
use voxel_core::{Config, ServerApp, TransportStats, TrialResult};
use voxel_media::qoe::QoeModel;
use voxel_media::video::Video;
use voxel_netem::{BottleneckPath, PathConfig};
use voxel_prep::manifest::Manifest;
use voxel_quic::{Connection, ConnectionConfig, Role};
use voxel_sim::{EventQueue, SimDuration, SimTime};

/// Accumulated wall time and call count of one instrumented call site.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Acc {
    pub(crate) ns: u64,
    pub(crate) calls: u64,
}

impl Acc {
    fn stop(&mut self, started: Instant) {
        self.ns += started.elapsed().as_nanos() as u64;
        self.calls += 1;
    }

    fn add(&mut self, other: Acc) {
        self.ns += other.ns;
        self.calls += other.calls;
    }

    /// Mean nanoseconds per call (0 when never called).
    pub(crate) fn per_call_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Per-layer timings and work counts of one or more traced trials.
#[derive(Default)]
pub(crate) struct Layers {
    pub(crate) on_datagram: Acc,
    /// Every `poll_transmit`, the empty ones that end a drain included.
    pub(crate) poll_transmit: Acc,
    pub(crate) on_timeout: Acc,
    /// `next_timeout` polls: quic time outside the per-call metrics.
    pub(crate) next_timeout: Acc,
    pub(crate) encode: Acc,
    pub(crate) server: Acc,
    /// `ClientApp` calls including the ABR's share (subtract `abr`).
    pub(crate) client: Acc,
    pub(crate) abr: Acc,
    pub(crate) path: Acc,
    pub(crate) queue: Acc,
    /// Wall time of the traced trials.
    pub(crate) wall_ns: u64,
    /// Tracked allocations (`voxel_sim::alloc`) during the traced trials.
    pub(crate) allocs: u64,
    /// Datagrams `poll_transmit` produced, and those encoded (the ones
    /// the bottleneck did not drop), both directions.
    pub(crate) polled: u64,
    pub(crate) pkts: u64,
    /// Event-loop iterations.
    pub(crate) iters: u64,
    /// Downlink packets offered to the bottleneck, and dropped by it.
    pub(crate) path_offered: u64,
    pub(crate) path_dropped: u64,
}

impl Layers {
    pub(crate) fn quic_ns(&self) -> u64 {
        self.on_datagram.ns
            + self.poll_transmit.ns
            + self.on_timeout.ns
            + self.next_timeout.ns
            + self.encode.ns
    }

    /// Client self time: its calls minus the ABR calls nested in them.
    pub(crate) fn client_self_ns(&self) -> u64 {
        self.client.ns.saturating_sub(self.abr.ns)
    }

    pub(crate) fn core_ns(&self) -> u64 {
        self.server.ns + self.client_self_ns()
    }

    /// Wall time covered by no layer call: the driver's own loop and the
    /// timers themselves.
    pub(crate) fn driver_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(
            self.quic_ns() + self.core_ns() + self.abr.ns + self.path.ns + self.queue.ns,
        )
    }
}

/// A delegating ABR that times every call into the wrapped algorithm.
struct TimedAbr {
    inner: Box<dyn Abr>,
    acc: Rc<Cell<Acc>>,
}

impl TimedAbr {
    fn stop(&self, started: Instant) {
        let mut a = self.acc.get();
        a.stop(started);
        self.acc.set(a);
    }
}

impl Abr for TimedAbr {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn choose(&mut self, ctx: &AbrContext<'_>) -> Decision {
        let t = Instant::now();
        let d = self.inner.choose(ctx);
        self.stop(t);
        d
    }

    fn on_progress(&mut self, ctx: &AbrContext<'_>, progress: &DownloadProgress) -> AbandonAction {
        let t = Instant::now();
        let a = self.inner.on_progress(ctx, progress);
        self.stop(t);
        a
    }

    fn uses_unreliable_transport(&self) -> bool {
        self.inner.uses_unreliable_transport()
    }

    fn on_idle(&mut self, idle_s: f64) {
        let t = Instant::now();
        self.inner.on_idle(idle_s);
        self.stop(t);
    }

    fn on_rebuffer(&mut self) {
        let t = Instant::now();
        self.inner.on_rebuffer();
        self.stop(t);
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.inner.check_invariants()
    }
}

enum Ev {
    ToClient(Bytes),
    ToServer(Bytes),
    Tick,
}

/// One trial of `config` with the trace shifted by `shift_s`, driven
/// call by call; timings and counts accumulate in `l`.
pub(crate) fn run_traced(
    config: &Config,
    manifest: &Arc<Manifest>,
    video: &Arc<Video>,
    qoe: &QoeModel,
    shift_s: usize,
    l: &mut Layers,
) -> TrialResult {
    // Assembly mirrors `run_instrumented_trial` + `Session::with_cc`.
    let mut path_config = PathConfig::new(config.trace.shift(shift_s), config.queue_packets);
    path_config.delay_down = SimDuration::from_millis(30);
    let mut player = PlayerConfig::new(config.buffer_segments, config.transport);
    player.selective_retx = config.selective_retx && config.transport == TransportMode::Split;
    player.debug_stall_skew = config.debug_stall_skew;
    let abr_acc = Rc::new(Cell::new(Acc::default()));
    let abr = Box::new(TimedAbr {
        inner: config.abr.make(),
        acc: abr_acc.clone(),
    });
    let cap = SimTime::from_secs_f64(video.duration_s() * 5.0 + 120.0);
    let mut client = ClientApp::new(player, manifest.clone(), video.clone(), qoe.clone(), abr);
    let conn_config = ConnectionConfig {
        cc: config.cc,
        ..ConnectionConfig::default()
    };
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut path = BottleneckPath::new(path_config);
    let mut client_conn = Connection::new(Role::Client, conn_config.clone());
    let mut server_conn = Connection::new(Role::Server, conn_config);
    let mut server = ServerApp::new(manifest.clone(), true);

    let allocs0 = voxel_sim::alloc::current();
    let wall = Instant::now();

    queue.schedule(SimTime::ZERO, Ev::Tick);
    let mut last_tick = SimTime::ZERO;
    let end = loop {
        let now = queue.now();
        l.iters += 1;
        let t = Instant::now();
        server.handle(now, &mut server_conn);
        l.server.stop(t);
        let t = Instant::now();
        client.on_wake(now, &mut client_conn);
        let done = client.is_done();
        l.client.stop(t);
        if done {
            break now;
        }

        loop {
            let mut progressed = false;
            loop {
                let t = Instant::now();
                let p = server_conn.poll_transmit(now);
                l.poll_transmit.stop(t);
                let Some(p) = p else { break };
                l.polled += 1;
                let t = Instant::now();
                let arrival = path.send_downlink(now, p.wire_size());
                l.path.stop(t);
                l.path_offered += 1;
                match arrival {
                    Some(arrival) => {
                        let t = Instant::now();
                        let d = p.encode();
                        l.encode.stop(t);
                        l.pkts += 1;
                        let t = Instant::now();
                        queue.schedule(arrival, Ev::ToClient(d));
                        l.queue.stop(t);
                    }
                    None => l.path_dropped += 1,
                }
                progressed = true;
            }
            loop {
                let t = Instant::now();
                let p = client_conn.poll_transmit(now);
                l.poll_transmit.stop(t);
                let Some(p) = p else { break };
                l.polled += 1;
                let t = Instant::now();
                let arrival = path.send_uplink(now);
                l.path.stop(t);
                let t = Instant::now();
                let d = p.encode();
                l.encode.stop(t);
                l.pkts += 1;
                let t = Instant::now();
                queue.schedule(arrival, Ev::ToServer(d));
                l.queue.stop(t);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }

        if last_tick <= now {
            let t = Instant::now();
            let wake = client.next_wake(now);
            l.client.stop(t);
            if let Some(wake) = wake {
                last_tick = wake;
                let t = Instant::now();
                queue.schedule(wake, Ev::Tick);
                l.queue.stop(t);
            }
        }

        let t = Instant::now();
        let timer_c = client_conn.next_timeout();
        let timer_s = server_conn.next_timeout();
        l.next_timeout.stop(t);
        let t = Instant::now();
        let peek = queue.peek_time();
        l.queue.stop(t);
        let Some(next) = [peek, timer_c, timer_s].into_iter().flatten().min() else {
            let t = Instant::now();
            queue.schedule(queue.now() + SimDuration::from_millis(100), Ev::Tick);
            l.queue.stop(t);
            continue;
        };
        if next > cap {
            break cap;
        }

        if timer_c.is_some_and(|t| t <= next) {
            let t = Instant::now();
            client_conn.on_timeout(next);
            l.on_timeout.stop(t);
        }
        if timer_s.is_some_and(|t| t <= next) {
            let t = Instant::now();
            server_conn.on_timeout(next);
            l.on_timeout.stop(t);
        }
        loop {
            let t = Instant::now();
            let ev = if queue.peek_time() == Some(next) {
                queue.pop()
            } else {
                None
            };
            l.queue.stop(t);
            let Some(ev) = ev else { break };
            let (conn, d) = match ev.event {
                Ev::ToClient(d) => (&mut client_conn, d),
                Ev::ToServer(d) => (&mut server_conn, d),
                Ev::Tick => continue,
            };
            let t = Instant::now();
            conn.on_datagram(next, d);
            l.on_datagram.stop(t);
        }
        if queue.now() < next {
            let t = Instant::now();
            queue.schedule(next, Ev::Tick);
            queue.pop();
            l.queue.stop(t);
        }
    };

    // Close-out mirrors `Session::finish` with tracing off.
    let t = Instant::now();
    let stats = server_conn.stats();
    let client_stats = client_conn.stats();
    let mut r = client.into_result(end);
    r.transport = TransportStats {
        packets_sent: stats.packets_sent,
        packets_lost: stats.packets_lost,
        loss_events: stats.loss_events,
        ptos: stats.ptos,
        bytes_sent: stats.bytes_sent,
        bytes_retransmitted: stats.bytes_retransmitted,
        mean_cwnd_bytes: server_conn.cwnd() as f64,
        mean_srtt_ms: server_conn.srtt().as_secs_f64() * 1e3,
        client_packets_received: client_stats.packets_received,
        client_packets_duplicate: client_stats.packets_duplicate,
        client_packets_reordered: client_stats.packets_reordered,
    };
    r.abr = config.abr.label();
    l.client.stop(t);

    l.wall_ns += wall.elapsed().as_nanos() as u64;
    l.allocs += voxel_sim::alloc::current().wrapping_sub(allocs0);
    l.abr.add(abr_acc.get());
    r
}

/// Whether two trial results are equal in every field (floats bit for
/// bit, via their shortest round-trip `Debug` rendering).
pub(crate) fn same_result(a: &TrialResult, b: &TrialResult) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::paper_experiment;
    use voxel_core::ContentCache;
    use voxel_media::content::VideoId;

    /// The traced driver must reproduce `Session::run` exactly on the
    /// `paper_trial` shape, for several seeds and trace shifts.
    #[test]
    fn traced_driver_matches_session_run() {
        let cache = ContentCache::top_level_only();
        let (manifest, video) = cache.get(VideoId::Tos);
        for seed in 1..=3 {
            let e = paper_experiment(seed);
            for shift in [0, 150] {
                let mut lay = Layers::default();
                let traced =
                    run_traced(e.config(), &manifest, &video, &cache.qoe(), shift, &mut lay);
                let reference = e.run_trial(&cache, shift);
                assert!(
                    same_result(&traced, &reference),
                    "seed {seed} shift {shift}:\n{traced:?}\n!=\n{reference:?}"
                );
                assert!(lay.iters > 0 && lay.pkts > 0 && lay.abr.calls > 0);
            }
        }
    }
}
