//! Criterion micro-benchmarks for the simulator substrate: event queue,
//! queue disciplines, RNG, and end-to-end packet forwarding rate.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mltcp_netsim::event::{EventKind, EventQueue};
use mltcp_netsim::link::{Bandwidth, LinkSpec};
use mltcp_netsim::node::NodeId;
use mltcp_netsim::packet::{FlowId, Packet};
use mltcp_netsim::queue::{FifoQueue, PriorityQueue};
use mltcp_netsim::rng::SimRng;
use mltcp_netsim::sim::{Agent, AgentCtx, Simulator};
use mltcp_netsim::time::{SimDuration, SimTime};
use mltcp_netsim::topology::TopologyBuilder;

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule(
                    SimTime(i * 37 % 5000),
                    EventKind::Timer { agent: 0, token: i },
                );
            }
            while let Some(e) = q.pop() {
                black_box(e);
            }
        })
    });
    g.finish();
}

/// Steady-state heap churn: the queue holds a standing population of
/// pending events (as a mid-run simulation does) and each iteration is
/// one push + one pop. Unlike `push_pop_10k`'s fill-then-drain, every
/// sift here works at full depth, so this isolates the cost that the
/// heap entry's size multiplies.
fn bench_event_queue_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("event_queue_churn", |b| {
        let mut q = EventQueue::new();
        for i in 0..4_096u64 {
            q.schedule(SimTime(i * 31), EventKind::Timer { agent: 0, token: i });
        }
        let mut t = 4_096u64 * 31;
        b.iter(|| {
            for _ in 0..10_000 {
                t += 17;
                q.schedule(SimTime(t), EventKind::Timer { agent: 0, token: t });
                black_box(q.pop());
            }
        })
    });
    g.finish();
}

fn bench_queues(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue_disciplines");
    g.throughput(Throughput::Elements(1_000));
    let pkt = |i: u64| {
        Packet::data(FlowId(i % 8), NodeId(0), NodeId(1), i * 1500, 1500)
            .with_priority(i * 7919 % 1000)
    };
    g.bench_function("fifo_1k", |b| {
        b.iter(|| {
            let mut q = FifoQueue::new(100_000_000, None);
            for i in 0..1_000u64 {
                q.enqueue(pkt(i));
            }
            while let Some(p) = q.dequeue() {
                black_box(p);
            }
        })
    });
    g.bench_function("priority_1k", |b| {
        b.iter(|| {
            let mut q = PriorityQueue::new(100_000_000);
            for i in 0..1_000u64 {
                q.enqueue(pkt(i));
            }
            while let Some(p) = q.dequeue() {
                black_box(p);
            }
        })
    });
    g.finish();
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng_gaussian_10k", |b| {
        let mut rng = SimRng::new(1);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..10_000 {
                acc += rng.gaussian(0.0, 1.0);
            }
            black_box(acc)
        })
    });
}

/// Blasts N packets through a 2-host link and drains the event queue —
/// an end-to-end events/sec measurement of the core loop.
struct Blaster {
    peer: NodeId,
    pkts: u32,
}
impl Agent for Blaster {
    fn start(&mut self, ctx: &mut AgentCtx<'_>) {
        let me = ctx.node();
        for i in 0..self.pkts {
            ctx.send(Packet::data(
                FlowId(1),
                me,
                self.peer,
                u64::from(i) * 1500,
                1500,
            ));
        }
    }
    fn on_packet(&mut self, _ctx: &mut AgentCtx<'_>, _pkt: Packet) {}
}
struct Sink;
impl Agent for Sink {
    fn on_packet(&mut self, _ctx: &mut AgentCtx<'_>, _pkt: Packet) {}
}

fn bench_forwarding(c: &mut Criterion) {
    let mut g = c.benchmark_group("forwarding");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("two_host_10k_packets", |b| {
        b.iter(|| {
            let mut tb = TopologyBuilder::new();
            let h0 = tb.host("h0");
            let h1 = tb.host("h1");
            tb.link(
                h0,
                h1,
                LinkSpec::new(Bandwidth::gbps(100), SimDuration::micros(1)),
            );
            let mut sim = Simulator::new(tb.build().unwrap(), 0);
            sim.add_agent(
                h0,
                Blaster {
                    peer: h1,
                    pkts: 10_000,
                },
            );
            let sink = sim.add_agent(h1, Sink);
            sim.bind_flow(FlowId(1), sink);
            sim.run();
            black_box(sim.stats().delivered)
        })
    });
    g.finish();
}

/// Like [`bench_forwarding`] but with 16 flows bound on the receiving
/// node, so every `Deliver` exercises the per-node flow-table lookup
/// (the dense-map replacement for the old global `HashMap` bindings)
/// plus the inline rail-delivery pop (no box traffic on dispatch).
fn bench_delivery_dispatch(c: &mut Criterion) {
    const FLOWS: u64 = 16;
    struct FanBlaster {
        peer: NodeId,
        pkts: u32,
    }
    impl Agent for FanBlaster {
        fn start(&mut self, ctx: &mut AgentCtx<'_>) {
            let me = ctx.node();
            for i in 0..self.pkts {
                let flow = FlowId(u64::from(i) % FLOWS + 1);
                ctx.send(Packet::data(flow, me, self.peer, u64::from(i) * 1500, 1500));
            }
        }
        fn on_packet(&mut self, _ctx: &mut AgentCtx<'_>, _pkt: Packet) {}
    }

    let mut g = c.benchmark_group("forwarding");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("delivery_dispatch_16_flows", |b| {
        b.iter(|| {
            let mut tb = TopologyBuilder::new();
            let h0 = tb.host("h0");
            let h1 = tb.host("h1");
            tb.link(
                h0,
                h1,
                LinkSpec::new(Bandwidth::gbps(100), SimDuration::micros(1)),
            );
            let mut sim = Simulator::new(tb.build().unwrap(), 0);
            sim.add_agent(
                h0,
                FanBlaster {
                    peer: h1,
                    pkts: 10_000,
                },
            );
            for f in 1..=FLOWS {
                let sink = sim.add_agent(h1, Sink);
                sim.bind_flow(FlowId(f), sink);
            }
            sim.run();
            black_box(sim.stats().delivered)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_event_queue_churn,
    bench_queues,
    bench_rng,
    bench_forwarding,
    bench_delivery_dispatch
);
criterion_main!(benches);
