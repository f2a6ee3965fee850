//! The three workloads. Each pass of a workload builds its fabrics, draws
//! its traffic from the seed, and runs a fixed list of operations; every
//! pass of one run repeats the same inputs, so every pass does the same
//! work. An operation is one simulator run together with its plans.

use crate::check::{self, Drawn};
use crate::host;
use crate::meter::{Layer, Meter};
use irrnet_core::{try_plan_multicast, Scheme, SchemeProtocol};
use irrnet_sim::{McastId, SimConfig, Simulator};
use irrnet_topology::{
    gen, Network, NodeId, RandomTopologyConfig, Reachability, RoutingTables, SwitchId, UpDown,
};
use irrnet_workloads::stats::Summary;
use std::sync::Arc;

/// splitmix64: the benchmark draws its inputs with its own generator, so
/// they do not change when the program's generator does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// A source and `degree` distinct other nodes.
    pub fn mcast(&mut self, nodes: usize, degree: usize, at: u64) -> Drawn {
        let source = self.below(nodes);
        self.dests_from(nodes, degree, source, at)
    }

    pub fn dests_from(&mut self, nodes: usize, degree: usize, source: usize, at: u64) -> Drawn {
        // Partial Fisher-Yates over every node but the source.
        let mut pool: Vec<u16> = (0..nodes as u16)
            .filter(|&n| n as usize != source)
            .collect();
        for i in 0..degree {
            let j = i + self.below(pool.len() - i);
            pool.swap(i, j);
        }
        let mut dests: Vec<NodeId> = pool[..degree].iter().map(|&n| NodeId(n)).collect();
        dests.sort_unstable();
        Drawn {
            at,
            source: NodeId(source as u16),
            dests,
        }
    }
}

/// Derive an independent stream seed from the workload seed.
pub fn sub_seed(seed: u64, a: u64, b: u64) -> u64 {
    let mut r = Rng::new(
        seed ^ a.wrapping_mul(0xA24B_AED4_963E_E407) ^ b.wrapping_mul(0x9FB2_1C65_1E98_DF25),
    );
    r.next()
}

/// Exact work counters: identical in every pass of one seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    pub cycles: u64,
    pub sweeps: u64,
    pub link_flits: u64,
    pub replications: u64,
    pub plans: u64,
    pub worms: u64,
}

impl Counters {
    fn add(&mut self, o: &Counters) {
        self.cycles += o.cycles;
        self.sweeps += o.sweeps;
        self.link_flits += o.link_flits;
        self.replications += o.replications;
        self.plans += o.plans;
        self.worms += o.worms;
    }
}

/// What one pass did.
#[derive(Debug, Default)]
pub struct PassOut {
    pub ops: u64,
    pub failed: u64,
    pub counters: Counters,
    /// Failed checks and layer errors, one line each.
    pub errors: Vec<String>,
    /// RSS growth across the pass's first `RoutingTables::compute`, kB.
    pub routing_rss_kb: Option<u64>,
    /// Largest `Reachability::resident_bytes` among the pass's fabrics.
    pub reach_bytes: u64,
}

impl PassOut {
    fn fail(&mut self, ops: u64, what: String) {
        self.failed += ops;
        self.errors.push(what);
    }
}

/// Build and analyze one fabric inside a `bench.fabric` span.
fn fabric(m: &mut Meter, cfg: &RandomTopologyConfig, out: &mut PassOut) -> Result<Network, String> {
    m.open(Layer::Fabric, 0);
    let net = analyze(m, cfg, out);
    m.close();
    net
}

/// `Network::analyze`, one timed layer call at a time.
fn analyze(
    m: &mut Meter,
    cfg: &RandomTopologyConfig,
    out: &mut PassOut,
) -> Result<Network, String> {
    let topo = m
        .time(Layer::Gen, || gen::generate(cfg))
        .map_err(|e| format!("generate: {e}"))?;
    m.time(Layer::Validate, || topo.validate())
        .map_err(|e| format!("validate: {e}"))?;
    let updown = m
        .time(Layer::UpDown, || UpDown::compute(&topo, SwitchId(0)))
        .map_err(|e| format!("up*/down*: {e}"))?;
    let rss0 = out.routing_rss_kb.is_none().then(host::rss_kb);
    let routing = m
        .time(Layer::Routing, || RoutingTables::compute(&topo, &updown))
        .map_err(|e| format!("routing: {e}"))?;
    if let Some(r0) = rss0 {
        out.routing_rss_kb = Some(host::rss_kb().saturating_sub(r0));
    }
    let reach = m
        .time(Layer::Reach, || Reachability::compute(&topo, &updown))
        .map_err(|e| format!("reachability: {e}"))?;
    out.reach_bytes = out.reach_bytes.max(reach.resident_bytes() as u64);
    Ok(Network {
        topo,
        updown,
        routing,
        reach,
        status: None,
    })
}

/// How an operation's run ends.
#[derive(Clone, Copy)]
enum End {
    /// `run_until` this cycle (open-loop load: saturated runs never drain).
    Until(u64),
    /// `run_to_completion` within this many cycles.
    Completion(u64),
}

struct OpSpec<'a> {
    net: &'a Network,
    cfg: &'a SimConfig,
    scheme: Scheme,
    drawn: &'a [Drawn],
    flits: u32,
    end: End,
    must_complete: bool,
}

/// What an operation measured, for the pass-level checks.
struct OpOut {
    counters: Counters,
    /// `(launch cycle, latency if completed)` per multicast.
    latencies: Vec<(u64, Option<u64>)>,
    /// Schedule-independent stats, when asked for.
    digest: Option<Vec<u64>>,
}

/// Plan, build, schedule, run and read one operation, timing each call,
/// then check its deliveries.
fn run_op(m: &mut Meter, op: &OpSpec, full_scan: bool, want_digest: bool) -> Result<OpOut, String> {
    let mut counters = Counters::default();
    let mut proto = SchemeProtocol::new();
    let plan_before = m.times.ns(Layer::Plan);
    for (i, d) in op.drawn.iter().enumerate() {
        let plan = m
            .time(Layer::Plan, || {
                try_plan_multicast(op.net, op.cfg, op.scheme, d.source, d.mask(), op.flits)
            })
            .map_err(|e| format!("{} plan: {e}", op.scheme))?;
        counters.plans += 1;
        counters.worms += plan.meta.worms as u64;
        proto.add(McastId(i as u64), Arc::new(plan));
    }
    m.times.plan_ns[op.scheme.id().index()] += m.times.ns(Layer::Plan) - plan_before;
    let mut sim = m
        .time(Layer::SimNew, || {
            Simulator::new(op.net, op.cfg.clone(), proto)
        })
        .map_err(|e| format!("Simulator::new: {e}"))?;
    sim.set_full_scan(full_scan);
    m.time(Layer::Schedule, || {
        for (i, d) in op.drawn.iter().enumerate() {
            sim.schedule_multicast(d.at, McastId(i as u64), d.mask(), op.flits);
        }
    });
    m.time(Layer::Run, || match op.end {
        End::Until(c) => sim.run_until(c),
        End::Completion(c) => sim.run_to_completion(c).map(|_| ()),
    })
    .map_err(|e| format!("{} run: {e}", op.scheme))?;
    let stats = m.time(Layer::Stats, || sim.stats());
    counters.cycles = stats.cycles_run;
    counters.sweeps = stats.sweeps_run;
    counters.link_flits = stats.net.link_flits;
    counters.replications = stats.net.replications;
    m.time(Layer::Check, || {
        let floor = check::latency_floor(op.cfg, op.flits);
        check::deliveries(stats, op.drawn, floor, op.must_complete)
            .map_err(|e| format!("{}: {e}", op.scheme))?;
        let latencies = stats
            .mcasts
            .values()
            .map(|r| (r.launched, r.latency()))
            .collect();
        let digest = want_digest.then(|| check::digest(stats));
        Ok(OpOut {
            counters,
            latencies,
            digest,
        })
    })
}

/// Run an operation; on its first pass also re-run it with the engine's
/// full-scan loop and require identical stats.
fn op_checked(m: &mut Meter, op: &OpSpec, oracle: bool, out: &mut PassOut) -> Option<OpOut> {
    out.ops += 1;
    let res = run_op(m, op, false, oracle).and_then(|o| {
        if oracle {
            m.time(Layer::Check, || {
                let full = run_op(&mut Meter::new(), op, true, true)?;
                if full.digest != o.digest {
                    return Err(format!(
                        "{}: full-scan engine gives different stats",
                        op.scheme
                    ));
                }
                Ok(())
            })?;
        }
        Ok(o)
    });
    match res {
        Ok(o) => {
            out.counters.add(&o.counters);
            Some(o)
        }
        Err(e) => {
            out.fail(1, e);
            None
        }
    }
}

/// Compare routing tables and reachability of `net` with the benchmark's
/// own searches, for `targets` routing targets and `switches` switches
/// (all of them when the fabric has no more).
fn check_fabric(
    m: &mut Meter,
    net: &Network,
    rng: &mut Rng,
    targets: usize,
    switches: usize,
) -> Result<(), String> {
    m.time(Layer::Check, || {
        let n = net.topo.num_switches();
        let pick = |rng: &mut Rng, k: usize| -> Vec<SwitchId> {
            if k >= n {
                (0..n as u16).map(SwitchId).collect()
            } else {
                // The root plus random others.
                std::iter::once(SwitchId(0))
                    .chain((1..k).map(|_| SwitchId(rng.below(n) as u16)))
                    .collect()
            }
        };
        for t in pick(rng, targets) {
            check::routing_target(net, t)?;
        }
        for s in pick(rng, switches) {
            check::reach_switch(net, s)?;
        }
        Ok(())
    })
}

fn summarize(m: &mut Meter, lats: &[f64]) -> Option<Summary> {
    m.time(Layer::Summary, || Summary::of(lats))
}

pub trait Workload {
    /// One pass. `first` marks the run's first pass, which also runs the
    /// costly checks (full-scan oracle, routing and reachability
    /// searches); it is not among the timed passes.
    fn pass(&self, m: &mut Meter, first: bool) -> PassOut;
}

// ---------------------------------------------------------------------
// load-sweep
// ---------------------------------------------------------------------

/// Open-loop Poisson multicast load on 32-switch / 32-host fabrics.
pub struct LoadSweep {
    seed: u64,
}

const LOAD_FABRICS: usize = 4;
const LOADS: [f64; 3] = [0.02, 0.1, 0.25];
/// Loads at which every scheme runs below saturation.
const BELOW_SATURATION: f64 = 0.1;
const LOAD_SCHEMES: [Scheme; 3] = [Scheme::NiFpfs, Scheme::TreeWorm, Scheme::PathLessGreedy];
const LOAD_DEGREE: usize = 8;
const LOAD_FLITS: u32 = 128;
const WARMUP: u64 = 20_000;
const MEASURE: u64 = 100_000;
const DRAIN: u64 = 60_000;

impl LoadSweep {
    pub fn new(seed: u64) -> Self {
        LoadSweep { seed }
    }

    /// Poisson arrivals per node, each with a uniform destination set.
    fn traffic(&self, fabric: usize, load: f64, nodes: usize) -> Vec<Drawn> {
        let mut rng = Rng::new(sub_seed(
            self.seed,
            2,
            fabric as u64 * 100 + (load * 1000.0) as u64,
        ));
        let rate = load / (LOAD_DEGREE as f64 * LOAD_FLITS as f64);
        let horizon = (WARMUP + MEASURE) as f64;
        let mut arrivals = Vec::new();
        for node in 0..nodes {
            let mut t = 0.0;
            loop {
                t += -rng.unit().ln() / rate;
                if t >= horizon {
                    break;
                }
                arrivals.push((t as u64, node));
            }
        }
        arrivals.sort_unstable();
        arrivals
            .into_iter()
            .map(|(t, src)| rng.dests_from(nodes, LOAD_DEGREE, src, t))
            .collect()
    }
}

impl Workload for LoadSweep {
    fn pass(&self, m: &mut Meter, first: bool) -> PassOut {
        let mut out = PassOut::default();
        let cfg = SimConfig::paper_default();
        let per_fabric = (LOADS.len() * LOAD_SCHEMES.len()) as u64;
        for f in 0..LOAD_FABRICS {
            let topo = RandomTopologyConfig::with_switches(sub_seed(self.seed, 1, f as u64), 32);
            let net = match fabric(m, &topo, &mut out) {
                Ok(n) => n,
                Err(e) => {
                    out.ops += per_fabric;
                    out.fail(per_fabric, e);
                    continue;
                }
            };
            if first {
                let mut rng = Rng::new(sub_seed(self.seed, 3, f as u64));
                if let Err(e) = check_fabric(m, &net, &mut rng, usize::MAX, usize::MAX) {
                    out.errors.push(e);
                }
            }
            for (li, &load) in LOADS.iter().enumerate() {
                let drawn = m.time(Layer::Traffic, || self.traffic(f, load, net.num_nodes()));
                let mut shares = Vec::new();
                for &scheme in &LOAD_SCHEMES {
                    let spec = OpSpec {
                        net: &net,
                        cfg: &cfg,
                        scheme,
                        drawn: &drawn,
                        flits: LOAD_FLITS,
                        end: End::Until(WARMUP + MEASURE + DRAIN),
                        must_complete: load <= BELOW_SATURATION,
                    };
                    let op_id = out.ops as u32 + 1;
                    m.open(Layer::Op, op_id);
                    let o = op_checked(m, &spec, first && f == 0 && li == 1, &mut out);
                    if let Some(o) = o {
                        let window: Vec<_> = o
                            .latencies
                            .iter()
                            .filter(|(at, _)| (WARMUP..WARMUP + MEASURE).contains(at))
                            .collect();
                        let lats: Vec<f64> = window
                            .iter()
                            .filter_map(|(_, l)| l.map(|l| l as f64))
                            .collect();
                        let done = lats.len();
                        summarize(m, &lats);
                        shares.push((scheme, done as f64 / window.len().max(1) as f64));
                    }
                    m.close();
                    m.cut();
                }
                // Switch replication keeps up where NI forwarding and
                // multi-phase path worms fall behind (Figs. 9-11).
                let tree = shares
                    .iter()
                    .find(|(s, _)| *s == Scheme::TreeWorm)
                    .map(|x| x.1);
                if let Some(tree) = tree {
                    for &(s, share) in &shares {
                        if share > tree {
                            out.fail(
                                1,
                                format!("load {load}: {s} completes {share:.3} of multicasts, tree {tree:.3}"),
                            );
                        }
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// single-sweep
// ---------------------------------------------------------------------

/// Isolated multicasts of every scheme over degree and message length.
pub struct SingleSweep {
    seed: u64,
}

/// `(family name, switches, fabrics)`: the paper's default network and
/// the Fig. 7 switch-count variants, all with 32 hosts.
const FAMILIES: [(&str, usize, usize); 3] = [("paper", 8, 6), ("s16", 16, 2), ("s32", 32, 2)];
const DEGREES: [usize; 9] = [2, 4, 8, 12, 16, 20, 24, 28, 31];
const LENGTHS: [u32; 2] = [128, 2048];
const COMPLETION_LIMIT: u64 = 50_000_000;
/// The draw (degree 16, 128 flits) whose operation is re-run under the
/// full-scan engine, once per scheme, on the first fabric.
const ORACLE_DRAW: usize = 8;

impl SingleSweep {
    pub fn new(seed: u64) -> Self {
        SingleSweep { seed }
    }
}

impl Workload for SingleSweep {
    fn pass(&self, m: &mut Meter, first: bool) -> PassOut {
        let mut out = PassOut::default();
        let cfg = SimConfig::paper_default();
        let per_fabric = (DEGREES.len() * LENGTHS.len() * Scheme::all().len()) as u64;
        for (fam_i, &(family, switches, fabrics)) in FAMILIES.iter().enumerate() {
            // Latencies per scheme over the family, for the Fig. 6 check.
            let mut lats: Vec<Vec<f64>> = vec![Vec::new(); Scheme::all().len()];
            for f in 0..fabrics {
                let fid = (fam_i * 100 + f) as u64;
                let topo =
                    RandomTopologyConfig::with_switches(sub_seed(self.seed, 1, fid), switches);
                let net = match fabric(m, &topo, &mut out) {
                    Ok(n) => n,
                    Err(e) => {
                        out.ops += per_fabric;
                        out.fail(per_fabric, e);
                        continue;
                    }
                };
                if first {
                    let mut rng = Rng::new(sub_seed(self.seed, 3, fid));
                    if let Err(e) = check_fabric(m, &net, &mut rng, usize::MAX, usize::MAX) {
                        out.errors.push(e);
                    }
                }
                let mut rng = Rng::new(sub_seed(self.seed, 2, fid));
                let draws: Vec<(u32, Drawn)> = m.time(Layer::Traffic, || {
                    let mut v = Vec::new();
                    for &deg in &DEGREES {
                        for &len in &LENGTHS {
                            v.push((len, rng.mcast(net.num_nodes(), deg, 0)));
                        }
                    }
                    v
                });
                for (si, scheme) in Scheme::all().into_iter().enumerate() {
                    for (di, (len, d)) in draws.iter().enumerate() {
                        let spec = OpSpec {
                            net: &net,
                            cfg: &cfg,
                            scheme,
                            drawn: std::slice::from_ref(d),
                            flits: *len,
                            end: End::Completion(COMPLETION_LIMIT),
                            must_complete: true,
                        };
                        let oracle = first && fam_i == 0 && f == 0 && di == ORACLE_DRAW;
                        let op_id = out.ops as u32 + 1;
                        m.open(Layer::Op, op_id);
                        if let Some(o) = op_checked(m, &spec, oracle, &mut out) {
                            if let Some((_, Some(l))) = o.latencies.first() {
                                lats[si].push(*l as f64);
                            }
                        }
                        m.close();
                    }
                    m.cut();
                }
            }
            // Fig. 6: the tree-based worm has the lowest mean latency.
            let means: Vec<Option<f64>> = lats
                .iter()
                .map(|l| summarize(m, l).map(|s| s.mean))
                .collect();
            let tree = means[Scheme::TreeWorm.id().index()];
            for (si, mean) in means.iter().enumerate() {
                if let (Some(t), Some(x)) = (tree, mean) {
                    let scheme = Scheme::all()[si];
                    if scheme != Scheme::TreeWorm && *x <= t {
                        out.fail(
                            1,
                            format!(
                                "{family}: {scheme} mean latency {x:.0} not above tree's {t:.0}"
                            ),
                        );
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// giant-fabric
// ---------------------------------------------------------------------

/// Isolated 64-way multicasts on 1000-switch / 10k-host fabrics.
pub struct GiantFabric {
    seed: u64,
}

const GIANT_FABRICS: usize = 3;
/// One scheme per family: software/NI, switch tree, switch path.
const GIANT_SCHEMES: [Scheme; 3] = [Scheme::NiFpfs, Scheme::TreeWorm, Scheme::PathLessGreedy];
const GIANT_MCASTS: usize = 2;
const GIANT_DEGREE: usize = 64;
const GIANT_FLITS: u32 = 128;

impl GiantFabric {
    pub fn new(seed: u64) -> Self {
        GiantFabric { seed }
    }
}

impl Workload for GiantFabric {
    fn pass(&self, m: &mut Meter, first: bool) -> PassOut {
        let mut out = PassOut::default();
        let per_fabric = (GIANT_SCHEMES.len() * GIANT_MCASTS) as u64;
        for f in 0..GIANT_FABRICS {
            let topo = RandomTopologyConfig {
                num_switches: 1000,
                ports_per_switch: 16,
                num_hosts: 10_000,
                extra_links: gen::ExtraLinks::Fraction(0.5),
                seed: sub_seed(self.seed, 1, f as u64),
            };
            let net = match fabric(m, &topo, &mut out) {
                Ok(n) => n,
                Err(e) => {
                    out.ops += per_fabric;
                    out.fail(per_fabric, e);
                    continue;
                }
            };
            if first {
                let mut rng = Rng::new(sub_seed(self.seed, 3, f as u64));
                if let Err(e) = check_fabric(m, &net, &mut rng, 12, 24) {
                    out.errors.push(e);
                }
            }
            // Widen the input buffer so a tree worm's n/8+1-flit
            // bit-string header is absorbed whole under cut-through.
            let mut cfg = SimConfig::paper_default();
            cfg.input_buffer_flits = cfg
                .input_buffer_flits
                .max(cfg.packet_payload_flits + cfg.tree_header_flits(net.num_nodes()) + 8);
            let mut rng = Rng::new(sub_seed(self.seed, 2, f as u64));
            let draws: Vec<Drawn> = m.time(Layer::Traffic, || {
                (0..GIANT_MCASTS)
                    .map(|_| rng.mcast(net.num_nodes(), GIANT_DEGREE, 0))
                    .collect()
            });
            m.cut();
            for &scheme in &GIANT_SCHEMES {
                let mut lats = Vec::new();
                for (i, d) in draws.iter().enumerate() {
                    let spec = OpSpec {
                        net: &net,
                        cfg: &cfg,
                        scheme,
                        drawn: std::slice::from_ref(d),
                        flits: GIANT_FLITS,
                        end: End::Completion(COMPLETION_LIMIT),
                        must_complete: true,
                    };
                    let op_id = out.ops as u32 + 1;
                    m.open(Layer::Op, op_id);
                    if let Some(o) = op_checked(m, &spec, first && f == 0 && i == 0, &mut out) {
                        lats.extend(o.latencies.iter().filter_map(|x| x.1.map(|l| l as f64)));
                    }
                    m.close();
                    m.cut();
                }
                summarize(m, &lats);
            }
        }
        out
    }
}
