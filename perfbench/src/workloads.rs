//! The benchmark's three workloads, each defined once and assembled two
//! ways: through the repository's public `ScenarioBuilder` (the untraced
//! pass, the code users run) and by hand from the layers' public
//! constructors with every layer wrapped in a span recorder (the traced
//! pass, see [`crate::trace`]). Both assemblies must produce the same
//! replay hash and event count, or the traced pass measured a different
//! program.

use crate::trace::{Layer, Traced};
use mltcp_netsim::fault::{FaultPlan, GilbertElliott, LossModel};
use mltcp_netsim::link::Bandwidth;
use mltcp_netsim::packet::FlowId;
use mltcp_netsim::queue::QueueKind;
use mltcp_netsim::sim::{AgentId, SimStats, Simulator};
use mltcp_netsim::time::{SimDuration, SimTime};
use mltcp_netsim::topology::{build_dumbbell, Dumbbell, DumbbellSpec};
use mltcp_sched::pfabric::PFABRIC_BUFFER_BDPS;
use mltcp_telemetry::{RingRecorder, TelemetrySink};
use mltcp_transport::cc::{Mltcp, MltcpConfig, Reno};
use mltcp_transport::sender::{PriorityPolicy, SenderConfig, SenderStats};
use mltcp_transport::{CongestionControl, TcpReceiver, TcpSender};
use mltcp_workload::driver::IterationRecord;
use mltcp_workload::{
    models, CongestionSpec, FnSpec, JobDriver, JobSpec, LinkFault, Scenario, ScenarioBuilder,
};

/// Time scale of every workload: the repository's default, so one GPT-2
/// iteration lasts 18 ms of simulated time.
pub const SCALE: f64 = 0.01;

/// The seed whose replay hashes and event counts are pinned.
pub const DEFAULT_SEED: u64 = 42;

/// Scenarios (scenario seeds) derived from one benchmark seed. One
/// scenario's 120–180 iterations put the p90 slowdown at the mercy of
/// its seed; pooling six steadies it.
pub const SCENARIOS: usize = 6;

/// The scenario seeds of benchmark seed `seed`: `seed` itself, then
/// SplitMix64 draws, so neighbouring benchmark seeds share no scenario.
pub fn scenario_seeds(seed: u64) -> [u64; SCENARIOS] {
    std::array::from_fn(|i| match i {
        0 => seed,
        _ => crate::splitmix64(seed.wrapping_add((i as u64 - 1).wrapping_mul(crate::GOLDEN_GAMMA))),
    })
}

/// Telemetry ring capacity (events) of `mltcp_fig2_faults_ring`, the
/// same ring `perf_report` measures.
const RING_CAPACITY: usize = 1 << 16;

/// Iterations every job of every workload runs.
pub const ITERS: u32 = 30;

/// A workload's name and pinned fingerprints.
#[derive(Debug)]
pub struct WorkloadInfo {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Replay hash and event count of each scenario of [`DEFAULT_SEED`],
    /// recorded at the commit that introduced the benchmark.
    pub pinned: [(u64, u64); SCENARIOS],
}

/// The benchmark's workloads.
pub const WORKLOADS: [WorkloadInfo; 3] = [
    WorkloadInfo {
        name: "mltcp_gpt2x6",
        pinned: [
            (0xfb41_7eb5_8d7d_a582, 25_060_334),
            (0xd101_9204_094a_caf2, 25_095_618),
            (0x5ab0_7433_c43b_8591, 25_106_348),
            (0x3704_2e65_38c5_8bbc, 24_980_647),
            (0x65f9_0b19_43dd_0e37, 25_061_580),
            (0x0cc5_8f0a_d3ac_3e90, 25_039_737),
        ],
    },
    WorkloadInfo {
        name: "mltcp_fig2_faults_ring",
        pinned: [
            (0x5ca6_37a6_d791_ae26, 22_562_449),
            (0x40c0_03e1_d728_1255, 22_534_298),
            (0x8040_315e_a29b_02e4, 22_663_633),
            (0xc6d0_968c_be35_d79a, 22_572_750),
            (0x4c6b_dde5_7447_ba09, 22_562_004),
            (0x7538_49c8_7f18_12c0, 22_530_338),
        ],
    },
    WorkloadInfo {
        name: "pfabric_fig2",
        pinned: [
            (0x4c04_2b7a_b9e1_1172, 22_207_602),
            (0x1f7d_9f35_42e6_6abd, 22_203_091),
            (0x7718_daab_fb45_4cc2, 22_212_470),
            (0xaa57_da06_8827_0c80, 22_225_215),
            (0xd01c_a9cd_6f59_db8b, 22_193_128),
            (0x6aa6_86a7_87c3_742e, 22_221_318),
        ],
    },
];

/// Everything that distinguishes one workload's scenario. Fields not
/// listed take `ScenarioBuilder`'s defaults, which [`Workload::assemble_traced`]
/// restates.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Static description.
    pub info: &'static WorkloadInfo,
    /// The scenario seed.
    pub seed: u64,
    jobs: Vec<JobSpec>,
    /// MLTCP-Reno when true, plain Reno otherwise.
    mltcp: bool,
    /// pFabric: strict-priority bottleneck, remaining-bytes tags and a
    /// line-rate initial window.
    pfabric: bool,
    max_rto: Option<SimDuration>,
    faults: Vec<LinkFault>,
    /// Attach an in-memory telemetry ring.
    ring: bool,
}

/// Jobs with the repository's default 1% compute noise.
fn with_noise(jobs: Vec<JobSpec>) -> Vec<JobSpec> {
    jobs.into_iter()
        .map(|j| {
            let noise = j.compute_time.mul_f64(0.01);
            j.with_noise(noise)
        })
        .collect()
}

/// pFabric's queue size and initial window, as `apply_pfabric` derives
/// them from the bottleneck and a 12 µs RTT hint.
fn pfabric_params() -> (u64, f64) {
    let bdp_bytes = models::paper_bottleneck()
        .bdp_bytes(SimDuration::micros(12))
        .max(30_000);
    let bdp_pkts = (bdp_bytes as f64 / 1500.0).ceil();
    (bdp_bytes * PFABRIC_BUFFER_BDPS, bdp_pkts * 1.5)
}

impl Workload {
    /// The workload's scenario with seed `seed`.
    pub fn new(info: &'static WorkloadInfo, seed: u64) -> Self {
        Self::with_iters(info, seed, ITERS)
    }

    /// The workload at another length (tests use short runs).
    pub fn with_iters(info: &'static WorkloadInfo, seed: u64, iters: u32) -> Self {
        let rate = models::paper_bottleneck();
        let base = Workload {
            info,
            seed,
            jobs: Vec::new(),
            mltcp: true,
            pfabric: false,
            max_rto: None,
            faults: Vec::new(),
            ring: false,
        };
        match info.name {
            "mltcp_gpt2x6" => Workload {
                jobs: with_noise(models::gpt2_pack(rate, SCALE, iters, 6)),
                ..base
            },
            "mltcp_fig2_faults_ring" => {
                // `replay_hash`'s composite schedule: a job restart, a
                // link flap, a brownout and a bursty-loss window, placed
                // at fixed fractions of the run.
                let period = SimDuration::from_secs_f64(1.8 * SCALE);
                let t = |frac: f64| SimTime::from_secs_f64(1.8 * SCALE * f64::from(iters) * frac);
                let mut jobs = with_noise(models::fig2_mix(rate, SCALE, iters));
                jobs[0] = jobs[0]
                    .clone()
                    .with_restart(iters / 3, period.mul_f64(0.75));
                Workload {
                    jobs,
                    max_rto: Some(period),
                    faults: vec![
                        LinkFault::Down {
                            at: t(0.2),
                            duration: period.mul_f64(0.5),
                        },
                        LinkFault::Brownout {
                            at: t(0.45),
                            duration: period.mul_f64(2.0),
                            factor: 0.3,
                        },
                        LinkFault::BurstyLoss {
                            at: t(0.7),
                            duration: period.mul_f64(2.0),
                            model: GilbertElliott::bursty(0.08, 0.25, 0.4),
                        },
                    ],
                    ring: true,
                    ..base
                }
            }
            "pfabric_fig2" => Workload {
                jobs: with_noise(models::fig2_mix(rate, SCALE, iters)),
                mltcp: false,
                pfabric: true,
                ..base
            },
            other => unreachable!("workload table names {other} but does not define it"),
        }
    }

    /// Iterations requested over all jobs: the operations of one pass.
    pub fn iterations_requested(&self) -> u64 {
        self.jobs.iter().map(|j| u64::from(j.iterations)).sum()
    }

    /// The simulated-time backstop: `mix_deadline` of the figure bins.
    fn deadline(&self) -> SimTime {
        let iters = self.jobs.iter().map(|j| j.iterations).max().unwrap_or(0);
        SimTime::from_secs_f64(1.8 * SCALE * (f64::from(iters) + 12.0) * 4.0)
    }

    fn congestion(&self) -> CongestionSpec {
        if self.mltcp {
            CongestionSpec::MltcpReno(FnSpec::Paper)
        } else {
            CongestionSpec::Reno
        }
    }

    /// The untraced scenario, built through `ScenarioBuilder` exactly as
    /// the figure binaries build it.
    pub fn build(&self) -> Scenario {
        let mut b = ScenarioBuilder::new(self.seed);
        for j in &self.jobs {
            b = b.job(j.clone(), self.congestion());
        }
        if self.pfabric {
            let (cap_bytes, initial_cwnd) = pfabric_params();
            b = b
                .bottleneck_queue(QueueKind::StrictPriority { cap_bytes })
                .priority_policy(PriorityPolicy::RemainingBytes)
                .initial_cwnd(initial_cwnd);
        }
        if let Some(rto) = self.max_rto {
            b = b.max_rto(rto);
        }
        for f in &self.faults {
            b = b.bottleneck_fault(f.clone());
        }
        let mut sc = b.build();
        if self.ring {
            sc.set_telemetry(Box::new(RingRecorder::new(RING_CAPACITY)));
        }
        sc
    }

    /// Runs an untraced scenario to completion (or the deadline) in the
    /// slices of `Scenario::run`, handing each `run_until` slice to
    /// `slice` so the caller can time it.
    pub fn run(&self, sc: &mut Scenario, slice: impl FnMut(&mut Simulator, SimTime)) -> Outcome {
        let jobs = &sc.jobs;
        run_in_slices(
            &mut sc.sim,
            self.deadline(),
            |sim| {
                jobs.iter()
                    .all(|j| sim.agent::<JobDriver>(j.driver).is_finished())
            },
            slice,
        );
        let records: Vec<&[IterationRecord]> = sc
            .jobs
            .iter()
            .map(|j| sc.sim.agent::<JobDriver>(j.driver).records())
            .collect();
        self.outcome(&records, &sc.sim)
    }

    /// The traced scenario: the same network, agents and sink as
    /// [`Workload::build`], assembled by hand so that every driver,
    /// sender, receiver, congestion controller and sink is wrapped in a
    /// [`Traced`] span recorder. The defaults restated here are
    /// `ScenarioBuilder`'s; the pinned hash proves they still match.
    pub fn assemble_traced(&self) -> TracedScenario {
        let rate = models::paper_bottleneck();
        let hop_delay = SimDuration::micros(2);
        let (bottleneck_queue, priority, initial_cwnd) = if self.pfabric {
            let (cap_bytes, cwnd) = pfabric_params();
            (
                QueueKind::StrictPriority { cap_bytes },
                PriorityPolicy::RemainingBytes,
                cwnd,
            )
        } else {
            let rtt_floor = SimDuration(hop_delay.as_nanos() * 6);
            let cap_bytes = (rate.bdp_bytes(rtt_floor) * 2).max(150_000);
            (
                QueueKind::DropTail { cap_bytes },
                PriorityPolicy::None,
                10.0,
            )
        };
        let (topo, dumbbell) = build_dumbbell(DumbbellSpec {
            pairs: self.jobs.iter().map(|j| j.flows).sum(),
            bottleneck_rate: rate,
            edge_rate: Bandwidth::gbps(100),
            hop_delay,
            bottleneck_queue,
            edge_queue: QueueKind::DropTail {
                cap_bytes: 4_000_000,
            },
        });
        let mut sim = Simulator::new(topo, self.seed);
        if !self.faults.is_empty() {
            let mut plan = FaultPlan::new();
            for f in &self.faults {
                for link in [dumbbell.bottleneck, dumbbell.reverse] {
                    plan = match *f {
                        LinkFault::Down { at, duration } => plan.link_flap(link, at, duration),
                        LinkFault::Brownout {
                            at,
                            duration,
                            factor,
                        } => plan.brownout(link, at, duration, factor),
                        LinkFault::BurstyLoss {
                            at,
                            duration,
                            model,
                        } => plan.loss_window(link, at, duration, LossModel::GilbertElliott(model)),
                    };
                }
            }
            sim.install_faults(&plan);
        }
        let min_rto = SimDuration((hop_delay.as_nanos() * 20).max(50_000));
        let mut drivers = Vec::new();
        let mut senders = Vec::new();
        let mut pair = 0usize;
        let mut next_flow = 1u64;
        for (job_idx, spec) in self.jobs.iter().enumerate() {
            let driver =
                JobDriver::new(spec.clone(), self.seed.wrapping_mul(1000) + job_idx as u64)
                    .with_job_id(job_idx as u32);
            let driver = sim.add_agent(dumbbell.senders[pair], Traced::new(driver, Layer::Driver));
            let bursts = u64::from(spec.bursts.max(1));
            let mut job_senders = Vec::new();
            for _ in 0..spec.flows {
                let (src, dst) = (dumbbell.senders[pair], dumbbell.receivers[pair]);
                pair += 1;
                let flow = FlowId(next_flow);
                next_flow += 1;
                let mut cfg = SenderConfig::new(flow, dst);
                cfg.driver = Some(driver);
                cfg.job = job_idx as u32;
                cfg.priority = priority.clone();
                cfg.min_rto = min_rto;
                if let Some(m) = self.max_rto {
                    cfg.max_rto = m.max(min_rto);
                }
                cfg.slow_start_restart = true;
                cfg.initial_cwnd = initial_cwnd;
                let cc: Box<dyn CongestionControl> = if self.mltcp {
                    let oracle = MltcpConfig {
                        multiburst_frac: (bursts > 1).then_some(0.9),
                        ..MltcpConfig::oracle(
                            spec.bytes_per_flow(),
                            spec.compute_time.mul_f64(0.25 / bursts as f64),
                        )
                    };
                    let base = Traced::new(Reno::new(), Layer::Cc);
                    let mltcp = Mltcp::new(base, FnSpec::Paper, oracle);
                    Box::new(Traced::new(mltcp, Layer::Mltcp))
                } else {
                    Box::new(Traced::new(Reno::new(), Layer::Cc))
                };
                let sender = sim.add_agent(
                    src,
                    Traced::new(TcpSender::new_boxed(cfg, cc), Layer::Sender),
                );
                let receiver =
                    sim.add_agent(dst, Traced::new(TcpReceiver::new(flow), Layer::Receiver));
                sim.bind_flow(flow, sender);
                sim.bind_flow(flow, receiver);
                job_senders.push(sender);
            }
            sim.agent_mut::<Traced<JobDriver>>(driver)
                .inner
                .wire_senders(job_senders.clone());
            drivers.push(driver);
            senders.extend(job_senders);
        }
        if self.ring {
            let mut ring = Traced::new(RingRecorder::new(RING_CAPACITY), Layer::Sink);
            for (idx, spec) in self.jobs.iter().enumerate() {
                ring.job_name(idx as u32, &spec.name);
            }
            sim.set_sink(Box::new(ring));
        }
        TracedScenario {
            sim,
            drivers,
            senders,
            dumbbell,
        }
    }

    /// Pools every completed iteration's duration over its job's ideal
    /// period and fingerprints the run.
    fn outcome(&self, records: &[&[IterationRecord]], sim: &Simulator) -> Outcome {
        let mut slowdowns = Vec::new();
        let mut completed = 0u64;
        for (spec, recs) in self.jobs.iter().zip(records) {
            let ideal = spec.ideal_period(models::paper_bottleneck()).as_secs_f64();
            completed += recs.len() as u64;
            slowdowns.extend(recs.iter().map(|r| r.duration().as_secs_f64() / ideal));
        }
        let stats = sim.stats();
        Outcome {
            hash: replay_hash(records, stats, sim.now()),
            events: stats.events,
            delivered: stats.delivered,
            completed,
            slowdowns,
        }
    }
}

/// What one pass produced. Everything in it is simulated, so it repeats
/// exactly for a given workload and seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Replay hash (as `scenario_replay_hash` computes it).
    pub hash: u64,
    /// Events the simulator processed.
    pub events: u64,
    /// Packets delivered to host agents.
    pub delivered: u64,
    /// Iterations completed over all jobs.
    pub completed: u64,
    /// Each completed iteration's duration over its job's ideal period.
    pub slowdowns: Vec<f64>,
}

/// A hand-assembled scenario whose layers are all [`Traced`].
pub struct TracedScenario {
    /// The simulator.
    pub sim: Simulator,
    drivers: Vec<AgentId>,
    senders: Vec<AgentId>,
    dumbbell: Dumbbell,
}

/// Exact counters the traced pass reads from the layers' own state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// Simulator totals.
    pub stats: SimStats,
    /// Packets dropped at the forward bottleneck channel.
    pub bottleneck_drops: u64,
    /// Retransmitted segments, over all senders.
    pub retransmits: u64,
    /// Retransmission timeouts, over all senders.
    pub rtos: u64,
    /// Events offered to the telemetry sink.
    pub sink_events: u64,
}

impl TracedScenario {
    fn driver(&self, id: AgentId) -> &JobDriver {
        &self.sim.agent::<Traced<JobDriver>>(id).inner
    }

    /// Runs to completion in the slices of `Scenario::run`, handing
    /// each `run_until` slice to `slice` so the caller can time it.
    pub fn run(&mut self, w: &Workload, slice: impl FnMut(&mut Simulator, SimTime)) -> Outcome {
        let drivers = &self.drivers;
        run_in_slices(
            &mut self.sim,
            w.deadline(),
            |sim| {
                drivers
                    .iter()
                    .all(|&d| sim.agent::<Traced<JobDriver>>(d).inner.is_finished())
            },
            slice,
        );
        let records: Vec<&[IterationRecord]> = self
            .drivers
            .iter()
            .map(|&d| self.driver(d).records())
            .collect();
        w.outcome(&records, &self.sim)
    }

    /// The layers' exact counters after a run. Detaches the sink.
    pub fn counts(&mut self) -> LayerCounts {
        let senders: Vec<SenderStats> = self
            .senders
            .iter()
            .map(|&s| self.sim.agent::<Traced<TcpSender>>(s).inner.stats())
            .collect();
        let sink_events = self.sim.take_sink().map_or(0, |sink| {
            sink.into_any()
                .downcast::<Traced<RingRecorder>>()
                .map_or(0, |r| r.inner.total_recorded())
        });
        LayerCounts {
            stats: self.sim.stats(),
            bottleneck_drops: self.sim.topology().channels[self.dumbbell.bottleneck.index()]
                .packets_dropped,
            retransmits: senders.iter().map(|s| s.retransmits).sum(),
            rtos: senders.iter().map(|s| s.timeouts).sum(),
            sink_events,
        }
    }
}

/// Advances `sim` exactly as `Scenario::run` does: in 5 ms `run_until`
/// slices up to `deadline`, stopping after the first slice at whose end
/// `done` holds. Slice boundaries set the final clock, which the replay
/// hash covers, so both assemblies must slice the same way. Each slice
/// goes through `slice`, which must call `run_until` with the bound it
/// is given.
fn run_in_slices(
    sim: &mut Simulator,
    deadline: SimTime,
    done: impl Fn(&Simulator) -> bool,
    mut slice: impl FnMut(&mut Simulator, SimTime),
) {
    let step = SimDuration::millis(5);
    let mut next = sim.now() + step;
    loop {
        slice(sim, next.min(deadline));
        if done(sim) || sim.now() >= deadline {
            return;
        }
        next = sim.now() + step;
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1_0000_01b3;

fn fnv1a(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// The repository's replay hash (`scenario_replay_hash`), over records
/// read through either assembly: every iteration record of every job,
/// then the delivery/drop counters and the final clock.
fn replay_hash(records: &[&[IterationRecord]], stats: SimStats, now: SimTime) -> u64 {
    let mut hash = FNV_OFFSET;
    for r in records.iter().flat_map(|recs| recs.iter()) {
        fnv1a(&mut hash, u64::from(r.index));
        fnv1a(&mut hash, r.start.as_nanos());
        fnv1a(&mut hash, r.comm_start.as_nanos());
        fnv1a(&mut hash, r.end.as_nanos());
    }
    fnv1a(&mut hash, stats.delivered);
    fnv1a(&mut hash, stats.dropped);
    fnv1a(&mut hash, now.as_nanos());
    hash
}
