//! **Performance report** — the tracked events/sec baseline.
//!
//! Measures the simulator's hot-path throughput (events processed per
//! wall-clock second) on a canonical contended workload, best-of-N,
//! plus the sweep harness's parallel speedup, then writes
//! `BENCH_PR5.json` at the repository root. That file is the committed
//! baseline: future performance PRs re-run this binary (release
//! profile, quiet machine) and compare. See DESIGN.md § Performance for
//! how to read and update it.
//!
//! Best-of-N: shared CI boxes show ±30% run-to-run wall clock noise,
//! which a single pass cannot distinguish from a real regression. The
//! workload runs `MLTCP_PERF_PASSES` (default 3) passes and the minimum
//! wall time is the reported number (the minimum estimates the
//! noise-free cost; means smear the noise back in). Every pass must
//! produce the same event count *and* the same replay hash, or the
//! passes did not measure the same run.
//!
//! ```text
//! cargo run --release -p mltcp-bench --bin perf_report
//! ```
//!
//! Knobs: `MLTCP_SCALE` / `MLTCP_ITERS` / `MLTCP_SEED` as in every other
//! figure binary, so the measured workload is reproducible. Set
//! `MLTCP_PERF_CHECK=<frac>` (in `[0, 1)`, e.g. `0.05`) to *check* the
//! measurement against the committed `BENCH_PR5.json` instead of
//! rewriting it: the event count and replay hash must equal the
//! committed ones exactly, and throughput may fall at most that
//! fraction below the committed `events_per_sec`. A malformed knob
//! panics instead of falling back to its default.

use mltcp_bench::experiments::{
    gpt2_jobs, mix_deadline, scenario_replay_hash, uniform_builder, uniform_scenario,
};
use mltcp_bench::json::Json;
use mltcp_bench::{env_var, iters_or, scale, seed};
use mltcp_telemetry::RingRecorder;
use mltcp_workload::scenario::{CongestionSpec, FnSpec, Scenario};
use mltcp_workload::SweepRunner;
use std::io::Write;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::time::Instant;

/// The canonical single-simulator workload: 6 GPT-2 jobs sharing the
/// dumbbell under MLTCP-Reno.
fn build_workload(scale: f64, iters: u32, sd: u64) -> Scenario {
    uniform_builder(
        sd,
        gpt2_jobs(scale, iters, 6),
        CongestionSpec::MltcpReno(FnSpec::Paper),
    )
    .build()
}

/// One timed pass of the canonical workload. Telemetry stays detached —
/// this is the tracked baseline path. Returns (events, wall seconds,
/// replay hash).
fn single_pass(scale: f64, iters: u32, sd: u64) -> (u64, f64, u64) {
    let mut sc = build_workload(scale, iters, sd);
    let t0 = Instant::now();
    sc.run(mix_deadline(scale, iters));
    let wall = t0.elapsed().as_secs_f64();
    assert!(sc.all_finished(), "perf workload did not finish");
    (sc.sim.stats().events, wall, scenario_replay_hash(&sc))
}

/// Best-of-N result.
struct Measured {
    events: u64,
    best_wall: f64,
    hash: u64,
}

impl Measured {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.best_wall.max(1e-9)
    }
}

/// Runs `passes` passes and keeps the best wall time. Panics if any
/// pass disagrees with the first on event count or replay hash.
fn best_of(scale: f64, iters: u32, sd: u64, passes: usize) -> Measured {
    let mut best: Option<Measured> = None;
    for pass in 0..passes {
        let (events, wall, hash) = single_pass(scale, iters, sd);
        println!(
            "  pass {pass}: {events} events in {wall:.3}s  ->  {:.3} M events/sec",
            events as f64 / wall.max(1e-9) / 1e6
        );
        match best.as_mut() {
            None => {
                best = Some(Measured {
                    events,
                    best_wall: wall,
                    hash,
                })
            }
            Some(m) => {
                assert_eq!(events, m.events, "pass {pass}: event count diverged");
                assert_eq!(hash, m.hash, "pass {pass}: replay hash diverged");
                m.best_wall = m.best_wall.min(wall);
            }
        }
    }
    best.expect("at least one pass")
}

/// The same workload with a ring-buffer telemetry sink attached — the
/// enabled-path overhead measurement. Returns (events, wall seconds,
/// telemetry events recorded).
fn ring_run(scale: f64, iters: u32, sd: u64) -> (u64, f64, u64) {
    let mut sc = build_workload(scale, iters, sd);
    sc.set_telemetry(Box::new(RingRecorder::new(1 << 16)));
    let t0 = Instant::now();
    sc.run(mix_deadline(scale, iters));
    let wall = t0.elapsed().as_secs_f64();
    assert!(
        sc.all_finished(),
        "instrumented perf workload did not finish"
    );
    let recorded = sc
        .take_telemetry()
        .map(|sink| {
            let any = sink.into_any();
            any.downcast::<RingRecorder>()
                .map(|r| r.total_recorded())
                .unwrap_or(0)
        })
        .unwrap_or(0);
    (sc.sim.stats().events, wall, recorded)
}

/// The same workload under the sim-time profiler; returns the per-kind
/// wall-clock attribution.
fn profiled_run(scale: f64, iters: u32, sd: u64) -> mltcp_telemetry::ProfileSnapshot {
    let mut sc = build_workload(scale, iters, sd);
    sc.sim.enable_profiler();
    sc.run(mix_deadline(scale, iters));
    assert!(sc.all_finished(), "profiled perf workload did not finish");
    sc.sim.profile_snapshot().expect("profiler enabled")
}

/// Extracts the first `events_per_sec` value from a committed benchmark
/// report without a JSON parser: the report writer always emits the
/// tracked single-thread number before any other `events_per_sec` key.
fn baseline_events_per_sec(text: &str) -> Option<f64> {
    json_number(text, "\"events_per_sec\"")
}

/// First numeric value following `key` in a committed report — enough
/// of a parser for the flat keys the report writer emits.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let at = text.find(key)?;
    let rest = &text[at..];
    let colon = rest.find(':')?;
    let tail = rest[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// First string value following `key` in a committed report.
fn json_string<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let rest = &text[text.find(key)? + key.len()..];
    let tail = &rest[rest.find('"')? + 1..];
    Some(&tail[..tail.find('"')?])
}

/// Runs the multi-seed sweep on `threads` workers and returns
/// (total events, wall seconds).
fn sweep_run(scale: f64, iters: u32, seeds: &[u64], threads: usize) -> (u64, f64) {
    let t0 = Instant::now();
    let events = SweepRunner::with_threads(threads).run(seeds, |_, &sd| {
        let mut sc = uniform_scenario(
            sd,
            gpt2_jobs(scale, iters, 6),
            CongestionSpec::MltcpReno(FnSpec::Paper),
        );
        sc.run(mix_deadline(scale, iters));
        assert!(
            sc.all_finished(),
            "seed {sd}: sweep workload did not finish"
        );
        sc.sim.stats().events
    });
    (events.iter().sum(), t0.elapsed().as_secs_f64())
}

fn main() {
    let scale = scale();
    let iters = iters_or(30);
    let passes = env_var("MLTCP_PERF_PASSES", |&n: &usize| n >= 1).unwrap_or(3);
    let check = env_var("MLTCP_PERF_CHECK", |f: &f64| (0.0..1.0).contains(f));
    let cores = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);

    // Warm up (page in code + allocator), then measure.
    let _ = single_pass(scale, iters.min(5), seed());
    println!("single simulator (best of {passes} passes):");
    let measured = best_of(scale, iters, seed(), passes);
    let eps = measured.events_per_sec();
    println!(
        "single simulator : {:.3} M events/sec  (replay {:016x})",
        eps / 1e6,
        measured.hash
    );

    // Telemetry-enabled overhead: the same workload with a ring sink.
    let (ring_events, ring_wall, recorded) = ring_run(scale, iters, seed());
    assert_eq!(
        measured.events, ring_events,
        "a telemetry sink changed the event count — the observe-only contract is broken"
    );
    let ring_eps = ring_events as f64 / ring_wall.max(1e-9);
    println!(
        "with ring sink   : {recorded} telemetry events recorded  ->  {:.3} M events/sec ({:+.1}% vs disabled)",
        ring_eps / 1e6,
        (ring_eps / eps - 1.0) * 100.0
    );

    // Wall-clock attribution by event kind.
    let profile = profiled_run(scale, iters, seed());
    println!("profile (wall-clock by event kind):");
    println!(
        "  {:<14} {:>12} {:>10} {:>10} {:>7}",
        "kind", "events", "ms", "ns/event", "share"
    );
    for e in profile.by_time() {
        println!(
            "  {:<14} {:>12} {:>10.2} {:>10.1} {:>6.1}%",
            e.label,
            e.events,
            e.nanos as f64 / 1e6,
            e.ns_per_event(),
            profile.share(&e) * 100.0
        );
    }

    // Regression-check mode: compare against the committed baseline and
    // leave it untouched.
    if let Some(frac) = check {
        let path = bench_path();
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("MLTCP_PERF_CHECK: cannot read {}: {e}", path.display()));
        for (key, value) in [
            ("\"scale\"", scale),
            ("\"iters\"", f64::from(iters)),
            ("\"seed\"", seed() as f64),
        ] {
            assert_eq!(
                json_number(&text, key),
                Some(value),
                "MLTCP_PERF_CHECK: the baseline was measured at a different {key}"
            );
        }
        // Exact and machine-speed-invariant: every pass simulated the
        // committed run, event for event.
        let events = json_number(&text, "\"events\"").expect("baseline has single_thread.events");
        let hash =
            json_string(&text, "\"replay_hash\"").expect("baseline has single_thread.replay_hash");
        println!(
            "perf check       : {} events, replay {:016x} vs committed {events} events, replay {hash}",
            measured.events, measured.hash
        );
        assert_eq!(
            measured.events as f64, events,
            "the event count differs from the committed baseline — the simulation changed"
        );
        assert_eq!(
            format!("{:016x}", measured.hash),
            hash,
            "the replay hash differs from the committed baseline — the simulation changed"
        );
        // The absolute floor is machine-speed-dependent, so it stays
        // loose.
        let baseline = baseline_events_per_sec(&text)
            .expect("BENCH_PR5.json has single_thread.events_per_sec");
        let floor = baseline * (1.0 - frac);
        println!(
            "perf check       : measured {:.3} M events/sec vs baseline {:.3} M (floor {:.3} M at -{:.0}%)",
            eps / 1e6,
            baseline / 1e6,
            floor / 1e6,
            frac * 100.0
        );
        assert!(
            eps >= floor,
            "disabled-telemetry throughput regressed more than {:.0}% below the committed baseline",
            frac * 100.0
        );
        println!("perf check       : OK (baseline left untouched)");
        return;
    }

    // The sweep: one job per seed, inline vs all cores.
    let seeds: Vec<u64> = (0..8).map(|i| seed() + 7 * i).collect();
    let (seq_events, seq_wall) = sweep_run(scale, iters, &seeds, 1);
    let workers = SweepRunner::new().threads();
    let (par_events, par_wall) = sweep_run(scale, iters, &seeds, workers);
    assert_eq!(
        seq_events, par_events,
        "parallel sweep processed a different event count — determinism broken"
    );
    let speedup = seq_wall / par_wall.max(1e-9);
    println!(
        "sweep ({} jobs)   : sequential {seq_wall:.3}s, parallel {par_wall:.3}s on {workers} workers  ->  {speedup:.2}x",
        seeds.len()
    );

    // The PR1 baseline, when the committed file is still present.
    let pr1_baseline = std::fs::read_to_string(pr1_path())
        .ok()
        .and_then(|t| baseline_events_per_sec(&t));

    let report = Json::obj([
        ("bench", Json::str("BENCH_PR5")),
        (
            "command",
            Json::str("cargo run --release -p mltcp-bench --bin perf_report"),
        ),
        ("cores", Json::Num(cores as f64)),
        ("scale", Json::Num(scale)),
        ("iters", Json::Num(f64::from(iters))),
        ("seed", Json::Num(seed() as f64)),
        ("passes", Json::Num(passes as f64)),
        (
            "single_thread",
            Json::obj([
                (
                    "scenario",
                    Json::str("6 GPT-2 jobs, MLTCP-Reno, shared dumbbell"),
                ),
                ("events", Json::Num(measured.events as f64)),
                ("wall_secs", Json::Num(measured.best_wall)),
                ("events_per_sec", Json::Num(eps)),
                ("replay_hash", Json::str(format!("{:016x}", measured.hash))),
            ]),
        ),
        (
            "vs_pr1",
            match pr1_baseline {
                Some(b) => Json::obj([
                    ("baseline_events_per_sec", Json::Num(b)),
                    ("ratio", Json::Num(eps / b.max(1e-9))),
                ]),
                None => Json::str("BENCH_PR1.json not found"),
            },
        ),
        (
            "telemetry_overhead",
            Json::obj([
                ("sink", Json::str("ring recorder, 65536 events")),
                ("events", Json::Num(ring_events as f64)),
                ("wall_secs", Json::Num(ring_wall)),
                ("events_per_sec", Json::Num(ring_eps)),
                ("telemetry_events_recorded", Json::Num(recorded as f64)),
                ("overhead_frac", Json::Num(1.0 - ring_eps / eps.max(1e-9))),
            ]),
        ),
        (
            "profile",
            Json::Arr(
                profile
                    .by_time()
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("kind", Json::str(e.label)),
                            ("events", Json::Num(e.events as f64)),
                            ("nanos", Json::Num(e.nanos as f64)),
                            ("ns_per_event", Json::Num(e.ns_per_event())),
                            ("share", Json::Num(profile.share(e))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "sweep",
            Json::obj([
                ("jobs", Json::Num(seeds.len() as f64)),
                ("workers", Json::Num(workers as f64)),
                ("total_events", Json::Num(seq_events as f64)),
                ("sequential_secs", Json::Num(seq_wall)),
                ("parallel_secs", Json::Num(par_wall)),
                ("speedup", Json::Num(speedup)),
                (
                    "events_per_sec_sequential",
                    Json::Num(seq_events as f64 / seq_wall.max(1e-9)),
                ),
                (
                    "events_per_sec_parallel",
                    Json::Num(par_events as f64 / par_wall.max(1e-9)),
                ),
            ]),
        ),
        (
            "notes",
            Json::Arr(vec![
                Json::str(
                    "events/sec covers the full stack: event queue, link \
                     serialization, queue disciplines, TCP state machines, \
                     MLTCP trackers, and job drivers",
                ),
                Json::str(
                    "single-thread numbers are best-of-N passes; shared \
                     runners show +/-30% wall-clock noise on single passes; \
                     every pass must agree on event count and replay hash",
                ),
                Json::str(
                    "the sweep speedup is bounded by the machine's core \
                     count; on a single-core runner sequential and parallel \
                     are the same code path",
                ),
            ]),
        ),
    ]);

    let path = bench_path();
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let _ = f.write_all(report.to_string_pretty().as_bytes());
            println!("[written {}]", path.display());
        }
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// `BENCH_PR5.json` at the workspace root when run via cargo, else the
/// current directory.
fn bench_path() -> PathBuf {
    workspace_file("BENCH_PR5.json")
}

/// The committed PR1 baseline, for the vs-PR1 ratio in the report.
fn pr1_path() -> PathBuf {
    workspace_file("BENCH_PR1.json")
}

fn workspace_file(name: &str) -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).join("../..").join(name))
        .unwrap_or_else(|_| PathBuf::from(name))
}
