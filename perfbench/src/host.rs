//! What the host was doing: the machine stamp printed with every result
//! set, the host-speed probe, per-pass noise diagnostics, and peak
//! memory. Linux `/proc` reads; on other systems the diagnostics read as
//! zero and the stamp as "unknown".

use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// CPU model, core count and compiler of this result set.
pub fn machine_stamp() -> (String, usize, &'static str) {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    (cpu, cores, env!("PERFBENCH_RUSTC"))
}

/// Time this thread spent runnable but waiting for a CPU, in seconds
/// (second field of `/proc/thread-self/schedstat`).
fn runqueue_wait_s() -> f64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 * 1e-9)
}

/// Jiffies the hypervisor stole from this machine's CPUs (eighth value
/// of the `cpu` line of `/proc/stat`).
fn steal_jiffies() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// A snapshot of the noise counters.
#[derive(Debug, Clone, Copy)]
pub struct Noise {
    wait_s: f64,
    steal: u64,
}

impl Noise {
    /// The counters now.
    pub fn now() -> Self {
        Self {
            wait_s: runqueue_wait_s(),
            steal: steal_jiffies(),
        }
    }

    /// Run-queue wait (seconds) and steal (jiffies) since `earlier`.
    pub fn since(self, earlier: Noise) -> (f64, u64) {
        (
            self.wait_s - earlier.wait_s,
            self.steal.saturating_sub(earlier.steal),
        )
    }
}

/// This process's peak resident set, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Iterations of one host-speed probe: about 0.7 ms on the reference
/// machine.
const PROBE_ITERS: u32 = 100_000;

/// One probe's time on the reference machine in its fast state (the low
/// end of the probe times seen there).
pub const QUIET_PROBE_S: f64 = 0.000_67;

/// How steeply the simulator's pass time follows the probe's time when
/// the host slows. On the reference machine the slope of log(pass time)
/// against log(probe time) was 1.8–2.3 over hundreds of passes spanning
/// slow and fast phases, but about 1 within a mildly loaded stretch;
/// 1.5 keeps the rescaled time within a few percent in both.
pub const SPEED_EXPONENT: f64 = 1.5;

/// Times one host-speed probe: a fixed xorshift stream driving
/// data-dependent branches. It shares no code with the simulator, so a
/// change to the program cannot move it; only the host's speed can.
pub fn probe_s() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut acc = 0u64;
    for _ in 0..black_box(PROBE_ITERS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x & 1 == 0 {
            acc = acc.wrapping_add(x >> 3);
        } else if x & 6 == 2 {
            acc ^= x;
        } else {
            acc = acc.wrapping_mul(3);
        }
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// `wall_s`, measured while probes took `probe_s` each, rescaled to the
/// reference machine's fast state.
pub fn at_quiet_speed(wall_s: f64, probe_s: f64) -> f64 {
    wall_s * (QUIET_PROBE_S / probe_s).powf(SPEED_EXPONENT)
}
