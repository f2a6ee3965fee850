//! Timing of every call the benchmark makes into a layer of the program.
//!
//! Each call goes through [`Meter::time`], which adds its host time to
//! the current pass's per-layer totals. In a traced pass it also records
//! a span (name, start, end, parent span, operation id); spans stay in
//! memory and are folded into a per-layer self-time table afterwards.

use crate::host::SpeedProbe;
use std::time::Instant;

/// Every span name the benchmark records. The first eleven are calls
/// into the program; the rest are the benchmark's own structure and work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Gen,
    Validate,
    UpDown,
    Routing,
    Reach,
    Plan,
    SimNew,
    Schedule,
    Run,
    Stats,
    Summary,
    Traffic,
    Check,
    Fabric,
    Op,
    Pass,
}

pub const N_LAYERS: usize = 16;

impl Layer {
    pub const ALL: [Layer; N_LAYERS] = [
        Layer::Gen,
        Layer::Validate,
        Layer::UpDown,
        Layer::Routing,
        Layer::Reach,
        Layer::Plan,
        Layer::SimNew,
        Layer::Schedule,
        Layer::Run,
        Layer::Stats,
        Layer::Summary,
        Layer::Traffic,
        Layer::Check,
        Layer::Fabric,
        Layer::Op,
        Layer::Pass,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Gen => "topology.gen",
            Layer::Validate => "topology.validate",
            Layer::UpDown => "topology.updown",
            Layer::Routing => "topology.routing",
            Layer::Reach => "topology.reach",
            Layer::Plan => "core.plan",
            Layer::SimNew => "sim.new",
            Layer::Schedule => "sim.schedule",
            Layer::Run => "sim.run",
            Layer::Stats => "sim.stats",
            Layer::Summary => "workloads.summary",
            Layer::Traffic => "bench.traffic",
            Layer::Check => "bench.check",
            Layer::Fabric => "bench.fabric",
            Layer::Op => "bench.op",
            Layer::Pass => "bench.pass",
        }
    }

    /// Layers whose time is `setup_s`: everything before the engine runs.
    pub fn is_setup(self) -> bool {
        matches!(
            self,
            Layer::Gen
                | Layer::Validate
                | Layer::UpDown
                | Layer::Routing
                | Layer::Reach
                | Layer::Plan
                | Layer::SimNew
        )
    }
}

/// One recorded span. Times are nanoseconds since the meter was made.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same pass, `u32::MAX` for none.
    pub parent: u32,
    /// Operation the span belongs to, 0 outside any operation.
    pub op: u32,
}

/// Host-time totals of one pass.
#[derive(Debug, Clone, Default)]
pub struct PassTimes {
    pub layer_ns: [u64; N_LAYERS],
    /// `core.plan` time split by scheme, indexed by registry id.
    pub plan_ns: [u64; 6],
}

impl PassTimes {
    pub fn ns(&self, l: Layer) -> u64 {
        self.layer_ns[l as usize]
    }

    pub fn setup_ns(&self) -> u64 {
        Layer::ALL
            .iter()
            .filter(|l| l.is_setup())
            .map(|&l| self.ns(l))
            .sum()
    }

    /// Wall time of the pass less the benchmark's own checks.
    pub fn wall_ns(&self) -> u64 {
        self.ns(Layer::Pass) - self.ns(Layer::Check)
    }
}

/// Host time of one segment of a pass: the stretch between two calls to
/// [`Meter::cut`]. The workloads cut at the same points in every pass, so
/// segment `i` of one pass did the same work as segment `i` of any other.
#[derive(Debug, Clone, Copy, Default)]
pub struct Seg {
    /// Wall time less the benchmark's own checks.
    pub wall: u64,
    /// Time in the set-up layers.
    pub setup: u64,
    /// Time in engine run calls.
    pub run: u64,
    check: u64,
    /// Host speed probe around the segment, ns per step: the mean of the
    /// readings taken just before and just after it.
    pub probe: f64,
}

/// An enclosing span still open: a pass, a fabric or an operation.
struct Open {
    layer: Layer,
    start: u64,
    /// Index in `spans`, `u32::MAX` when the pass is not traced.
    span: u32,
    op: u32,
}

pub struct Meter {
    origin: Instant,
    tracing: bool,
    spans: Vec<Span>,
    open: Vec<Open>,
    pub times: PassTimes,
    /// Segments of the current pass; the last one is still running.
    pub segs: Vec<Seg>,
    seg_start: u64,
    probe: SpeedProbe,
    last_probe: f64,
}

impl Meter {
    pub fn new() -> Self {
        Meter {
            origin: Instant::now(),
            tracing: false,
            spans: Vec::new(),
            open: Vec::new(),
            times: PassTimes::default(),
            segs: vec![Seg::default()],
            seg_start: 0,
            probe: SpeedProbe::new(),
            last_probe: 0.0,
        }
    }

    /// Start a pass: clear the totals and the previous pass's spans.
    pub fn begin_pass(&mut self, tracing: bool) {
        self.tracing = tracing;
        self.spans.clear();
        self.open.clear();
        self.times = PassTimes::default();
        self.segs.clear();
        self.segs.push(Seg::default());
        self.last_probe = self.probe.ns_per_step();
        self.seg_start = self.now_ns();
    }

    /// End the running segment at `now` and read the speed probe. The
    /// probe's own time falls in no segment.
    fn end_seg(&mut self, now: u64) {
        let p = self.probe.ns_per_step();
        let s = self.segs.last_mut().expect("begin_pass opens a segment");
        s.wall = now - self.seg_start - s.check;
        s.probe = (self.last_probe + p) / 2.0;
        self.last_probe = p;
    }

    /// End the running segment and start the next.
    pub fn cut(&mut self) {
        let now = self.now_ns();
        self.end_seg(now);
        self.segs.push(Seg::default());
        self.seg_start = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn parent(&self) -> (u32, u32) {
        self.open.last().map_or((u32::MAX, 0), |o| (o.span, o.op))
    }

    /// Time one call into `layer`.
    #[inline]
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.times.layer_ns[layer as usize] += end - start;
        let seg = self.segs.last_mut().expect("begin_pass opens a segment");
        if layer.is_setup() {
            seg.setup += end - start;
        } else if layer == Layer::Run {
            seg.run += end - start;
        } else if layer == Layer::Check {
            seg.check += end - start;
        }
        if self.tracing {
            let (parent, op) = self.parent();
            self.spans.push(Span {
                layer,
                start,
                end,
                parent,
                op,
            });
        }
        out
    }

    /// Open an enclosing span (pass, fabric or operation). `op` is the
    /// operation id the span and its children carry (0 for none).
    pub fn open(&mut self, layer: Layer, op: u32) {
        let start = self.now_ns();
        let span = if self.tracing {
            let (parent, _) = self.parent();
            self.spans.push(Span {
                layer,
                start,
                end: start,
                parent,
                op,
            });
            self.spans.len() as u32 - 1
        } else {
            u32::MAX
        };
        self.open.push(Open {
            layer,
            start,
            span,
            op,
        });
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        let end = self.now_ns();
        let o = self.open.pop().expect("close without a matching open");
        if o.layer == Layer::Pass {
            self.end_seg(end);
        }
        self.times.layer_ns[o.layer as usize] += end - o.start;
        if o.span != u32::MAX {
            self.spans[o.span as usize].end = end;
        }
    }
}

/// Per-layer self time of one traced pass: each span's duration minus
/// the part its direct children cover, summed by layer. Returns
/// `(span count, total ns, self ns)` per layer.
pub fn self_times(spans: &[Span]) -> [(u64, u64, u64); N_LAYERS] {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != u32::MAX {
            child_ns[s.parent as usize] += s.end - s.start;
        }
    }
    let mut out = [(0u64, 0u64, 0u64); N_LAYERS];
    for (s, c) in spans.iter().zip(&child_ns) {
        let e = &mut out[s.layer as usize];
        let dur = s.end - s.start;
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(*c);
    }
    out
}
