//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` host seconds and prints, as
//! the last line of standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, from untraced passes; with
//! `--trace 1` they are the per-layer ones, from traced passes
//! alternated with untraced ones. Earlier lines carry the machine stamp
//! and per-pass noise diagnostics.

use perfbench::host::{self, Noise};
use perfbench::trace::{self, CountingAlloc, Layer};
use perfbench::workloads::{scenario_seeds, Outcome, Workload, DEFAULT_SEED, SCENARIOS, WORKLOADS};
use perfbench::{percentile, traced_pass, untraced_pass, TracedPass};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Untraced passes timed per run, at least, whatever `--seconds` says.
const MIN_TIMED_PASSES: usize = 3;

/// Scenario builds timed per pass, for `setup_s`. One build takes about
/// 10 µs, too short to time alone against the host's jitter, so a pass's
/// sample is the fastest of a batch.
const SETUP_SAMPLES_PER_PASS: usize = 64;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// `"name": {"value": v, "unit": u}` pairs, in order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A non-finite value is not JSON; it can only come from an
            // empty sample, which the pass minimum rules out.
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

/// Escapes a string for a JSON literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Checks every pass against the fingerprint expected for its scenario
/// and tallies operations (job-iterations requested) and failures.
struct Checker {
    /// Per scenario: pinned, or taken from its first pass.
    expected: Vec<Option<(u64, u64)>>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn check(&mut self, w: &Workload, scenario: usize, o: &Outcome) {
        let expected = *self.expected[scenario].get_or_insert((o.hash, o.events));
        let requested = w.iterations_requested();
        self.attempted += requested;
        self.failed += if (o.hash, o.events) == expected {
            requested - o.completed.min(requested)
        } else {
            requested
        };
    }
}

/// One pass's diagnostic line. `probe_s` is the mean host-speed probe
/// of an untraced pass; a traced pass takes none.
fn diagnostic(
    kind: &str,
    pass: usize,
    w: &Workload,
    secs: f64,
    probe_s: Option<f64>,
    noise: (f64, u64),
    o: &Outcome,
) {
    let probe = probe_s.map_or(String::new(), |p| format!("\"probe_s\": {p}, "));
    println!(
        "{{\"diagnostic\": {{\"pass\": {pass}, \"kind\": \"{kind}\", \"scenario_seed\": {}, \
         \"wall_s\": {secs}, {probe}\"runqueue_wait_s\": {}, \"steal_jiffies\": {}, \
         \"hash\": \"{:016x}\", \"events\": {}}}}}",
        w.seed, noise.0, noise.1, o.hash, o.events
    );
}

fn run(args: &Args) -> Result<(bool, u64, u64, Metrics), String> {
    let info = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload {}; expected one of {names:?}",
                args.workload
            )
        })?;
    // End-to-end runs rotate their passes through the seed's scenarios,
    // so the simulated percentiles pool all of them; traced runs repeat
    // the first scenario, so exact counts can be compared pass to pass.
    let seeds = scenario_seeds(args.seed);
    let scenarios = if args.trace { 1 } else { SCENARIOS };
    let ws: Vec<Workload> = seeds[..scenarios]
        .iter()
        .map(|&s| Workload::new(info, s))
        .collect();
    let (cpu, cores, rustc) = host::machine_stamp();
    let clock_ns = trace::calibrate_clock();
    println!(
        "{{\"machine\": {{\"cpu\": {}, \"cores\": {cores}, \"rustc\": {}, \"workload\": {}, \"seed\": {}, \"trace\": {}, \"empty_span_ns\": {clock_ns}}}}}",
        json_str(&cpu),
        json_str(rustc),
        json_str(info.name),
        args.seed,
        args.trace
    );
    let mut checker = Checker {
        expected: (0..scenarios)
            .map(|i| (args.seed == DEFAULT_SEED).then_some(info.pinned[i]))
            .collect(),
        attempted: 0,
        failed: 0,
    };
    let mut slowdowns: Vec<Option<Vec<f64>>> = vec![None; scenarios];
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut runs = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    let start = Instant::now();
    // No warm-up pass: `run_s` is a median over the run's passes (9–21
    // in 40 s), which one cold pass barely moves.
    loop {
        let cycle = Instant::now();
        let pass = runs.len();
        let scenario = pass % scenarios;
        let w = &ws[scenario];
        // Set-up: the fastest build of a batch, rescaled by host-speed
        // probes taken on either side of the batch.
        let before = host::probe_s();
        let mut build_s = f64::INFINITY;
        for _ in 0..SETUP_SAMPLES_PER_PASS {
            let t0 = Instant::now();
            let sc = w.build();
            build_s = build_s.min(t0.elapsed().as_secs_f64());
            drop(sc);
        }
        let probe_s = (before + host::probe_s()) / 2.0;
        setups.push(host::at_quiet_speed(build_s, probe_s));
        let noise = Noise::now();
        let u = untraced_pass(w);
        checker.check(w, scenario, &u.outcome);
        diagnostic(
            "untraced",
            pass,
            w,
            u.run_s,
            Some(u.probe_s),
            Noise::now().since(noise),
            &u.outcome,
        );
        walls.push(u.run_s);
        runs.push(u.quiet_run_s);
        slowdowns[scenario].get_or_insert(u.outcome.slowdowns);
        if args.trace {
            let noise = Noise::now();
            let t = traced_pass(w, clock_ns);
            checker.check(w, scenario, &t.outcome);
            diagnostic(
                "traced",
                pass,
                w,
                t.wall_s,
                None,
                Noise::now().since(noise),
                &t.outcome,
            );
            traced.push(t);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let next_cycle = cycle.elapsed().as_secs_f64();
        if runs.len() >= MIN_TIMED_PASSES.max(scenarios) && elapsed + next_cycle > args.seconds {
            break;
        }
    }

    // Host speed on this class of machine swings by up to 2x for
    // minutes at a time (see README.md). Each pass's time is rescaled by
    // the host-speed probes timed between its slices, and `run_s` is the
    // median of the rescaled passes.
    let fastest = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let run_s = percentile(&runs, 50.0);
    let mut correct = checker.failed == 0;
    let mut m = Metrics::default();
    if args.trace {
        // Exact counts must repeat between traced passes.
        let first = traced[0].exact();
        correct &= traced.iter().all(|t| t.exact() == first);
        // Per-layer times come from the fastest traced pass, so they add
        // up to one measured run.
        let t = traced
            .iter()
            .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
            .expect("at least one traced pass");
        let self_s = |l: Layer| t.spans.self_s[l as usize];
        let calls = |l: Layer| t.spans.calls[l as usize] as f64;
        let events = t.outcome.events as f64;
        m.add("netsim.self_s", t.netsim_self_s(), "s");
        m.add(
            "netsim.ns_per_event",
            t.netsim_self_s() / events * 1e9,
            "ns",
        );
        m.add("netsim.events", events, "count");
        m.add(
            "netsim.events_per_pkt",
            events / t.outcome.delivered as f64,
            "events/pkt",
        );
        m.add(
            "netsim.bottleneck_drops",
            t.counts.bottleneck_drops as f64,
            "count",
        );
        m.add("transport.sender.self_s", self_s(Layer::Sender), "s");
        m.add("transport.sender.calls", calls(Layer::Sender), "count");
        m.add("transport.receiver.self_s", self_s(Layer::Receiver), "s");
        m.add("transport.receiver.calls", calls(Layer::Receiver), "count");
        m.add("transport.cc.self_s", self_s(Layer::Cc), "s");
        m.add("transport.cc.calls", calls(Layer::Cc), "count");
        m.add(
            "transport.retransmits",
            t.counts.retransmits as f64,
            "count",
        );
        m.add("transport.rtos", t.counts.rtos as f64, "count");
        m.add("core.mltcp.self_s", self_s(Layer::Mltcp), "s");
        m.add("core.mltcp.calls", calls(Layer::Mltcp), "count");
        m.add("workload.driver.self_s", self_s(Layer::Driver), "s");
        m.add("workload.driver.calls", calls(Layer::Driver), "count");
        m.add("telemetry.sink.self_s", self_s(Layer::Sink), "s");
        m.add(
            "telemetry.sink.events",
            t.counts.sink_events as f64,
            "count",
        );
        m.add("alloc.count", t.allocations as f64, "count");
        m.add(
            "alloc.per_kevent",
            t.allocations as f64 / events * 1e3,
            "1/kevent",
        );
        // Traced passes take no probes, so these compare the fastest
        // wall times of both kinds of pass.
        let wall_s = fastest(&walls);
        m.add("trace.overhead_frac", t.wall_s / wall_s - 1.0, "ratio");
        m.add("trace.layer_sum_ratio", t.layer_sum_s() / wall_s, "ratio");
    } else {
        let slowdowns: Vec<f64> = slowdowns.into_iter().flatten().flatten().collect();
        m.add("setup_s", percentile(&setups, 50.0), "s");
        m.add("run_s", run_s, "s");
        m.add("peak_rss_mb", host::peak_rss_mb(), "MiB");
        m.add("iter_slowdown_p50", percentile(&slowdowns, 50.0), "x");
        m.add("iter_slowdown_p90", percentile(&slowdowns, 90.0), "x");
    }
    Ok((correct, checker.attempted, checker.failed, m))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
                metrics.to_json()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
