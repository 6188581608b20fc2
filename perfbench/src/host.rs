//! Host-speed meter for `sim_speed` and `setup_s`.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by
//! ±15% over a minute or two as neighbours come and go — more than a
//! 30-second run can average away. So each run measures the host as it
//! goes: between simulations (and after each set-up) it has a fixed,
//! bench-owned kernel run, and scales its figures by how slow the kernel
//! ran against [`REFERENCE_MS`]. The kernel does what the simulator's hot
//! loop does — ordered-map churn, packet-sized heap buffers, a priority
//! queue — so the two slow down together.
//!
//! The kernel runs in a child process of its own: this binary, started
//! with [`KERNEL_FLAG`], which serves one pass per request over a pipe.
//! It shares no code, heap or allocator state with the simulator, so a
//! change to the program reaches the kernel's time only through the host
//! they share, never through the heap the simulation leaves behind.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Kernel time, milliseconds, that defines the reference host speed (its
/// typical time on the development VM).
pub(crate) const REFERENCE_MS: f64 = 40.0;

/// Argument that turns this binary into the kernel server ([`serve`]).
pub(crate) const KERNEL_FLAG: &str = "--host-kernel";

/// Share of each simulation's wall time spent re-measuring the host.
const METER_SHARE: f64 = 0.1;

/// Handle to the kernel server, and the passes it has timed (ms each).
pub(crate) struct Meter {
    child: Child,
    requests: Option<ChildStdin>,
    replies: BufReader<ChildStdout>,
    /// Threads per pass after a simulation: as many as the simulation
    /// used, so the meter sees the vCPUs the simulation waited on.
    threads: usize,
    passes_ms: Vec<f64>,
}

impl Meter {
    pub(crate) fn new(threads: usize) -> Meter {
        let exe = std::env::current_exe().expect("the benchmark binary has a path");
        let mut child = Command::new(exe)
            .arg(KERNEL_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("kernel server starts");
        let requests = child.stdin.take();
        let replies = BufReader::new(child.stdout.take().expect("kernel server stdout is piped"));
        Meter {
            child,
            requests,
            replies,
            threads,
            passes_ms: Vec::new(),
        }
    }

    /// Time one kernel pass on `threads` threads, in milliseconds.
    pub(crate) fn pass(&mut self, threads: usize) -> f64 {
        let requests = self.requests.as_mut().expect("kernel server is open");
        writeln!(requests, "{threads}").expect("kernel server takes a request");
        requests.flush().expect("kernel server takes a request");
        let mut line = String::new();
        self.replies
            .read_line(&mut line)
            .expect("kernel server replies");
        line.trim()
            .parse()
            .unwrap_or_else(|_| panic!("kernel server replied {line:?}"))
    }

    /// Re-measure the host after a simulation that took `wall_s`.
    pub(crate) fn after(&mut self, wall_s: f64) {
        let passes = (METER_SHARE * wall_s * 1e3 / REFERENCE_MS).round().max(1.0) as usize;
        for _ in 0..passes {
            let ms = self.pass(self.threads);
            self.passes_ms.push(ms);
        }
    }

    /// Median kernel time over the passes after the simulations, ms.
    pub(crate) fn kernel_ms(&self) -> f64 {
        crate::median(&self.passes_ms)
    }
}

impl Drop for Meter {
    fn drop(&mut self) {
        // End of input stops the server; wait until it has exited.
        drop(self.requests.take());
        let _ = self.child.wait();
    }
}

/// The kernel server: for each request line (a thread count) run one
/// pass on that many threads and answer with its wall time in ms. One
/// untimed pass first, so the timed ones reuse a warm heap.
pub(crate) fn serve() {
    black_box(kernel(0));
    let stdout = std::io::stdout();
    for line in std::io::stdin().lock().lines() {
        let Ok(threads) = line.map(|l| l.trim().parse::<u64>().unwrap_or(1)) else {
            break;
        };
        let t = Instant::now();
        std::thread::scope(|s| {
            for k in 1..threads {
                s.spawn(move || black_box(kernel(k)));
            }
            black_box(kernel(0));
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let mut out = stdout.lock();
        if writeln!(out, "{ms}").and_then(|()| out.flush()).is_err() {
            break;
        }
    }
}

/// One pass: ~40 ms on the development VM.
fn kernel(seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut heap: BinaryHeap<(u64, u64)> = BinaryHeap::new();
    let mut acc = 0u64;
    for i in 0..75_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let buf = vec![(x & 0xff) as u8; 1200 + (x % 200) as usize];
        acc = acc.wrapping_add(buf.iter().step_by(64).map(|&b| u64::from(b)).sum::<u64>());
        map.insert(x % 4096, buf);
        if let Some((k, _)) = map.range(x % 4096..).next() {
            acc ^= *k;
        }
        heap.push((x % 100_000, i));
        if heap.len() > 64 {
            acc ^= heap.pop().map_or(0, |(_, v)| v);
        }
        if i % 3 == 0 {
            map.remove(&((x >> 8) % 4096));
        }
    }
    acc ^ map.len() as u64
}
