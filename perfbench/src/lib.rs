//! End-to-end and per-layer benchmark of the MLTCP packet simulator.
//! See `perfbench/README.md` for the workloads, the metrics and how to
//! run it.

pub mod host;
pub mod trace;
pub mod workloads;

use std::time::Instant;
use trace::{SpanTotals, LAYERS};
use workloads::{LayerCounts, Outcome, Workload};

/// `run_until` slices between host-speed probes in an untraced pass: a
/// probe every ~30 ms of host time, costing about 2% of it.
const SLICES_PER_PROBE: usize = 2;

/// One untraced pass: build the scenario, then run it.
#[derive(Debug, Clone)]
pub struct UntracedPass {
    /// Host seconds spent in `run_until`, probes excluded.
    pub run_s: f64,
    /// `run_s` rescaled to the reference machine's fast state, each slice
    /// by the probe taken just before it.
    pub quiet_run_s: f64,
    /// Mean host seconds of the pass's host-speed probes.
    pub probe_s: f64,
    /// What the run produced.
    pub outcome: Outcome,
}

/// Builds and runs `w` with no instrument attached, timing a host-speed
/// probe before every [`SLICES_PER_PROBE`]-th slice.
pub fn untraced_pass(w: &Workload) -> UntracedPass {
    let mut sc = w.build();
    let (mut run_s, mut quiet_run_s, mut slices) = (0.0, 0.0, 0usize);
    let (mut probe_s, mut probes) = (0.0, 0usize);
    let mut last_probe_s = 0.0;
    let outcome = w.run(&mut sc, |sim, until| {
        if slices % SLICES_PER_PROBE == 0 {
            last_probe_s = host::probe_s();
            probe_s += last_probe_s;
            probes += 1;
        }
        slices += 1;
        let t = Instant::now();
        sim.run_until(until);
        let slice_s = t.elapsed().as_secs_f64();
        run_s += slice_s;
        quiet_run_s += host::at_quiet_speed(slice_s, last_probe_s);
    });
    UntracedPass {
        run_s,
        quiet_run_s,
        probe_s: probe_s / probes as f64,
        outcome,
    }
}

/// One traced pass.
#[derive(Debug, Clone)]
pub struct TracedPass {
    /// Host seconds spent in `Simulator::run_until`, instrument included.
    pub wall_s: f64,
    /// `run_until` time less the clock cost of the slices' own spans.
    pub run_until_s: f64,
    /// What the run produced.
    pub outcome: Outcome,
    /// The layers' own counters.
    pub counts: LayerCounts,
    /// Span totals per layer.
    pub spans: SpanTotals,
    /// Heap allocations (and reallocations) made inside `run_until`;
    /// counted only where the benchmark binary's allocator is installed.
    pub allocations: u64,
}

impl TracedPass {
    /// Self time of the simulator core: everything inside `run_until`
    /// that is not a traced layer or the instrument (event queue, link
    /// serialization, egress queues, switch forwarding, faults).
    pub fn netsim_self_s(&self) -> f64 {
        self.run_until_s - self.spans.self_s.iter().sum::<f64>() - self.spans.instrument_s
    }

    /// The sum of all layers' self times.
    pub fn layer_sum_s(&self) -> f64 {
        self.netsim_self_s() + self.spans.self_s.iter().sum::<f64>()
    }

    /// Everything in this pass that must repeat exactly between passes.
    pub fn exact(&self) -> (u64, u64, LayerCounts, [u64; LAYERS], [u64; LAYERS], u64) {
        (
            self.outcome.hash,
            self.outcome.events,
            self.counts,
            self.spans.calls,
            self.spans.sampled,
            self.allocations,
        )
    }
}

/// Assembles `w` with every layer wrapped and runs it, timing each
/// `run_until` slice. `clock_ns` is the calibrated cost of an empty span.
pub fn traced_pass(w: &Workload, clock_ns: f64) -> TracedPass {
    let mut sc = w.assemble_traced();
    trace::reset(clock_ns);
    trace::take_allocations();
    let mut wall_s = 0.0;
    let mut slices = 0u32;
    let outcome = sc.run(w, |sim, until| {
        let t0 = Instant::now();
        trace::count_allocations(true);
        sim.run_until(until);
        trace::count_allocations(false);
        wall_s += t0.elapsed().as_secs_f64();
        slices += 1;
    });
    let allocations = trace::take_allocations();
    let spans = trace::totals();
    TracedPass {
        wall_s,
        run_until_s: wall_s - f64::from(slices) * clock_ns * 1e-9,
        outcome,
        counts: sc.counts(),
        spans,
        allocations,
    }
}

/// SplitMix64's increment.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64: a well-mixed 64-bit value of `x`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Nearest-rank percentile `p` (0–100) of `xs`: always a sample value.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mltcp_bench::experiments::{
        fig2_jobs, gpt2_jobs, mix_deadline, pfabric_scenario, scenario_replay_hash,
        uniform_scenario,
    };
    use mltcp_workload::scenario::{CongestionSpec, FnSpec};
    use trace::Layer;
    use workloads::{WorkloadInfo, SCALE, WORKLOADS};

    #[global_allocator]
    static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

    fn info(name: &str) -> &'static WorkloadInfo {
        WORKLOADS.iter().find(|w| w.name == name).unwrap()
    }

    fn short(name: &str, seed: u64) -> Workload {
        Workload::with_iters(info(name), seed, 4)
    }

    #[test]
    fn workloads_are_the_repository_scenarios() {
        // 6×GPT-2 is `perf_report`'s scenario and pFabric is the figure
        // bins' `pfabric_scenario`, at any length and seed.
        let w = short("mltcp_gpt2x6", 7);
        let mut sc = uniform_scenario(
            7,
            gpt2_jobs(SCALE, 4, 6),
            CongestionSpec::MltcpReno(FnSpec::Paper),
        );
        sc.run(mix_deadline(SCALE, 4));
        assert_eq!(untraced_pass(&w).outcome.hash, scenario_replay_hash(&sc));

        let w = short("pfabric_fig2", 7);
        let mut sc = pfabric_scenario(7, fig2_jobs(SCALE, 4));
        sc.run(mix_deadline(SCALE, 4));
        assert_eq!(untraced_pass(&w).outcome.hash, scenario_replay_hash(&sc));

        // The faulted workload at `replay_hash`'s length replays the
        // hash that binary prints.
        let w = Workload::with_iters(info("mltcp_fig2_faults_ring"), 42, 24);
        let o = untraced_pass(&w).outcome;
        assert_eq!((o.hash, o.events), (0x3d83_8c78_4473_d8ea, 18_082_774));
    }

    #[test]
    fn traced_assembly_replays_the_untraced_run() {
        for info in &WORKLOADS {
            let w = Workload::with_iters(info, 11, 4);
            let u = untraced_pass(&w).outcome;
            let t = traced_pass(&w, 0.0).outcome;
            assert_eq!(u, t, "{}", info.name);
            assert_eq!(u.completed, w.iterations_requested(), "{}", info.name);
        }
    }

    #[test]
    fn two_traced_passes_give_identical_counts() {
        for info in &WORKLOADS {
            let w = Workload::with_iters(info, 3, 4);
            let a = traced_pass(&w, 0.0);
            let b = traced_pass(&w, 0.0);
            assert_eq!(a.exact(), b.exact(), "{}", info.name);
            assert!(a.allocations > 0, "{}", info.name);
        }
    }

    #[test]
    fn each_workload_exercises_its_layers() {
        let calls =
            |name: &str, l: Layer| traced_pass(&short(name, 5), 0.0).spans.calls[l as usize];
        // MLTCP and the sink work only where the workload has them.
        assert!(calls("mltcp_gpt2x6", Layer::Mltcp) > 0);
        assert_eq!(calls("pfabric_fig2", Layer::Mltcp), 0);
        assert!(calls("pfabric_fig2", Layer::Cc) > 0);
        assert!(calls("mltcp_fig2_faults_ring", Layer::Sink) > 0);
        assert_eq!(calls("mltcp_gpt2x6", Layer::Sink), 0);
        assert_eq!(calls("pfabric_fig2", Layer::Sink), 0);
        // Faults make senders time out.
        let t = traced_pass(
            &Workload::with_iters(info("mltcp_fig2_faults_ring"), 5, 12),
            0.0,
        );
        assert!(t.counts.rtos > 0);
    }

    #[test]
    fn scenario_seeds_start_with_the_seed_and_differ() {
        let s = workloads::scenario_seeds(42);
        assert_eq!(s[0], 42);
        let mut sorted = s.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), s.len());
        assert!(workloads::scenario_seeds(43).iter().all(|x| !s.contains(x)));
    }

    #[test]
    fn quiet_speed_rescales_by_the_probe() {
        assert_eq!(host::at_quiet_speed(2.0, host::QUIET_PROBE_S), 2.0);
        let slow = host::at_quiet_speed(2.0, 2.0 * host::QUIET_PROBE_S);
        assert!((slow - 2.0 / 2f64.powf(host::SPEED_EXPONENT)).abs() < 1e-12);
        assert!(host::probe_s() > 0.0);
    }

    #[test]
    fn percentiles_are_sample_values() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
    }
}
