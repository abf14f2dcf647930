//! Outside-in per-layer tracing.
//!
//! [`Traced`] wraps a layer's implementation of the public trait the
//! simulator calls it through (`Agent`, `CongestionControl`,
//! `TelemetrySink`) and records a span around every hook. A layer's self
//! time is its spans minus the spans of the layers it called.
//!
//! Reading the clock costs tens of nanoseconds, so timing all ~10M hook
//! calls of a pass would stretch it by half. Instead every call is
//! counted, and a deterministic 1-in-[`SAMPLE_EVERY`] sample of top-level
//! calls (those the simulator makes directly) is timed; a nested call is
//! timed exactly when its top-level caller is. A layer's cost is its
//! sampled self time scaled by `calls / sampled calls`. The cost of an
//! empty span is calibrated at start-up and subtracted from every
//! recorded span.

use mltcp_netsim::packet::Packet;
use mltcp_netsim::sim::{Agent, AgentCtx, AgentId};
use mltcp_netsim::time::SimTime;
use mltcp_telemetry::{TelemetryEvent, TelemetrySink};
use mltcp_transport::cc::{AckEvent, CongestionControl, Window};
use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;
use std::time::Instant;

/// One top-level call in this many is timed.
pub const SAMPLE_EVERY: u64 = 64;

/// The layers the traced pass wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `workload::JobDriver`.
    Driver,
    /// `transport::TcpSender`, excluding the congestion controller.
    Sender,
    /// `transport::TcpReceiver`.
    Receiver,
    /// `transport::cc::Mltcp` (tracker + aggressiveness function),
    /// excluding its base controller.
    Mltcp,
    /// The base congestion controller (Reno).
    Cc,
    /// The telemetry sink.
    Sink,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 6;

/// Deepest nesting of traced calls (netsim → sender → MLTCP → Reno is 3).
const MAX_DEPTH: usize = 8;

/// Per-thread span bookkeeping. Cells, so a nested span can update the
/// tracer while its caller's span is open.
struct Tracer {
    calls: [Cell<u64>; LAYERS],
    sampled: [Cell<u64>; LAYERS],
    /// Sampled self time, clock cost already subtracted.
    self_ns: [Cell<f64>; LAYERS],
    /// Time covered by the children of the open span at each depth.
    child_ns: [Cell<f64>; MAX_DEPTH + 1],
    depth: Cell<usize>,
    top_calls: Cell<u64>,
    sampling: Cell<bool>,
    /// Clock cost inside one recorded span.
    clock_ns: Cell<f64>,
}

thread_local! {
    static TRACER: Tracer = const {
        Tracer {
            calls: [const { Cell::new(0) }; LAYERS],
            sampled: [const { Cell::new(0) }; LAYERS],
            self_ns: [const { Cell::new(0.0) }; LAYERS],
            child_ns: [const { Cell::new(0.0) }; MAX_DEPTH + 1],
            depth: Cell::new(0),
            top_calls: Cell::new(0),
            sampling: Cell::new(false),
            clock_ns: Cell::new(0.0),
        }
    };
}

/// Deterministic, aliasing-free 1-in-[`SAMPLE_EVERY`] choice: a hash of
/// the call index, so periodic call patterns cannot line up with the
/// sample.
fn sampled(top_call: u64) -> bool {
    crate::splitmix64(top_call).is_multiple_of(SAMPLE_EVERY)
}

impl Tracer {
    #[inline]
    fn enter(&self, layer: Layer) -> Option<Instant> {
        let l = layer as usize;
        self.calls[l].set(self.calls[l].get() + 1);
        let depth = self.depth.get();
        if depth == 0 {
            let n = self.top_calls.get() + 1;
            self.top_calls.set(n);
            self.sampling.set(sampled(n));
        }
        self.depth.set(depth + 1);
        if !self.sampling.get() {
            return None;
        }
        self.sampled[l].set(self.sampled[l].get() + 1);
        self.child_ns[depth + 1].set(0.0);
        Some(Instant::now())
    }

    #[inline]
    fn exit(&self, layer: Layer, start: Option<Instant>) {
        let depth = self.depth.get() - 1;
        self.depth.set(depth);
        let Some(start) = start else { return };
        let raw = start.elapsed().as_nanos() as f64;
        let clock = self.clock_ns.get();
        let l = layer as usize;
        let own = raw - clock - self.child_ns[depth + 1].get();
        self.self_ns[l].set(self.self_ns[l].get() + own);
        // Seen from the caller, this span cost its measured time plus the
        // clock work outside it: in all, two clock reads.
        self.child_ns[depth].set(self.child_ns[depth].get() + raw + clock);
    }
}

/// Runs `f` inside a span of `layer`.
#[inline]
fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let start = TRACER.with(|t| t.enter(layer));
    let r = f();
    TRACER.with(|t| t.exit(layer, start));
    r
}

/// What the tracer recorded since the last [`reset`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Calls per layer (exact).
    pub calls: [u64; LAYERS],
    /// Timed calls per layer (exact: the sample is deterministic).
    pub sampled: [u64; LAYERS],
    /// Estimated self time per layer, in seconds.
    pub self_s: [f64; LAYERS],
    /// Clock time spent recording the sampled spans, in seconds.
    pub instrument_s: f64,
}

/// Clears the tracer and sets the clock cost to subtract per span.
pub fn reset(clock_ns: f64) {
    TRACER.with(|t| {
        for l in 0..LAYERS {
            t.calls[l].set(0);
            t.sampled[l].set(0);
            t.self_ns[l].set(0.0);
        }
        t.depth.set(0);
        t.top_calls.set(0);
        t.sampling.set(false);
        t.clock_ns.set(clock_ns);
    });
}

/// The totals recorded since the last [`reset`], sampled self times
/// scaled up to all calls.
pub fn totals() -> SpanTotals {
    TRACER.with(|t| {
        let mut out = SpanTotals::default();
        for l in 0..LAYERS {
            out.calls[l] = t.calls[l].get();
            out.sampled[l] = t.sampled[l].get();
            if out.sampled[l] > 0 {
                let scale = out.calls[l] as f64 / out.sampled[l] as f64;
                out.self_s[l] = t.self_ns[l].get() * scale * 1e-9;
            }
        }
        let spans: u64 = out.sampled.iter().sum();
        out.instrument_s = spans as f64 * 2.0 * t.clock_ns.get() * 1e-9;
        out
    })
}

/// Median cost, in nanoseconds, of an empty span: the clock time one
/// recorded span adds to its own measurement.
pub fn calibrate_clock() -> f64 {
    const REPS: usize = 2001;
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(&t0);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[REPS / 2]
}

/// A layer wrapped in a span recorder.
#[derive(Debug)]
pub struct Traced<T> {
    /// The wrapped implementation.
    pub inner: T,
    layer: Layer,
}

impl<T> Traced<T> {
    /// Wraps `inner`, attributing its hooks to `layer`.
    pub fn new(inner: T, layer: Layer) -> Self {
        Self { inner, layer }
    }
}

impl<A: Agent> Agent for Traced<A> {
    fn start(&mut self, ctx: &mut AgentCtx<'_>) {
        span(self.layer, || self.inner.start(ctx));
    }

    fn on_packet(&mut self, ctx: &mut AgentCtx<'_>, pkt: Packet) {
        span(self.layer, || self.inner.on_packet(ctx, pkt));
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, token: u64) {
        span(self.layer, || self.inner.on_timer(ctx, token));
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, token: u64) {
        span(self.layer, || self.inner.on_message(ctx, from, token));
    }
}

impl<C: CongestionControl> CongestionControl for Traced<C> {
    fn on_ack(&mut self, ev: &AckEvent, w: &mut Window) {
        span(self.layer, || self.inner.on_ack(ev, w));
    }

    fn on_loss(&mut self, now: SimTime, w: &mut Window) {
        span(self.layer, || self.inner.on_loss(now, w));
    }

    fn on_timeout(&mut self, now: SimTime, w: &mut Window) {
        span(self.layer, || self.inner.on_timeout(now, w));
    }

    fn on_transfer_start(&mut self, now: SimTime) {
        span(self.layer, || self.inner.on_transfer_start(now));
    }

    // Accessors: forwarded untimed, their cost stays with the caller.
    fn set_gain(&mut self, gain: f64) -> bool {
        self.inner.set_gain(gain)
    }

    fn gain_state(&self) -> Option<(f64, f64)> {
        self.inner.gain_state()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<S: TelemetrySink> TelemetrySink for Traced<S> {
    fn record(&mut self, ev: &TelemetryEvent) {
        span(self.layer, || self.inner.record(ev));
    }

    fn job_name(&mut self, job: u32, name: &str) {
        self.inner.job_name(job, name);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on this thread, if counting is on. Per-thread,
/// so allocations of other threads (such as parallel tests) never leak
/// into a pass's count; `try_with` because allocations still happen
/// while a thread's locals are being torn down.
fn count_one() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

/// The system allocator, counting this thread's allocations while
/// [`count_allocations`] has turned counting on. Installed as the
/// benchmark binary's global allocator.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// allocation-free thread-locals.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns allocation counting on or off for this thread.
pub fn count_allocations(on: bool) {
    COUNTING.with(|c| c.set(on));
}

/// This thread's allocations (including reallocations) counted since
/// the last call.
pub fn take_allocations() -> u64 {
    ALLOCATIONS.with(|n| n.replace(0))
}
