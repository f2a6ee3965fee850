//! Layer-by-layer, end-to-end benchmark of the irrnet pipeline.
//!
//! ```text
//! irrnet-layerbench --workload <load-sweep|single-sweep|giant-fabric>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs whole passes of the workload for about `--seconds` and prints,
//! as the last line of standard output, one JSON object with the
//! operations attempted and failed and the metrics: the end-to-end ones
//! with `--trace 0`, the per-layer ones with `--trace 1`. See README.md.

mod check;
mod host;
mod meter;
mod work;

use irrnet_core::Scheme;
use meter::{Layer, Meter, PassTimes, Seg, Span, N_LAYERS};
use std::fmt::Write as _;
use std::time::Instant;
use work::{Counters, GiantFabric, LoadSweep, SingleSweep, Workload};

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
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(bad)?),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .map_err(|_| format!("bad value for {flag}: {val}"))?,
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What one timed pass gave.
struct Sample {
    times: PassTimes,
    /// Wall and set-up time of the pass at the reference probe speed, ns.
    wall_ref: f64,
    setup_ref: f64,
    /// Median speed probe reading over the pass's segments, ns per step.
    probe: f64,
    /// Reference probe speed over `probe`: the pass's per-layer times
    /// are multiplied by this to report them at the reference speed.
    scale: f64,
    runqueue_ns: u64,
    minor_faults: u64,
    self_ns: [u64; N_LAYERS],
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The first quartile, interpolated between order statistics.
fn lower_quartile(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    if v.is_empty() {
        return 0.0;
    }
    let at = 0.25 * (v.len() - 1) as f64;
    let lo = at.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

fn med(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(samples.iter().map(f).collect())
}

/// Speed probe reading, ns per step, at which host times are reported:
/// each segment's times are scaled by this over the probe's reading
/// around that segment (see README: Noise).
const REF_NS_PER_STEP: f64 = 0.75;
const MS: f64 = 1e6;
const MB: f64 = 1024.0;
/// Timed passes a run makes at the least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// A segment's wall, set-up and engine time at the reference probe speed.
fn at_ref(s: &Seg) -> [f64; 3] {
    let k = REF_NS_PER_STEP / s.probe;
    [s.wall as f64 * k, s.setup as f64 * k, s.run as f64 * k]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("irrnet-layerbench: {e}");
            std::process::exit(2);
        }
    };
    let wl: Box<dyn Workload> = match args.workload.as_str() {
        "load-sweep" => Box::new(LoadSweep::new(args.seed)),
        "single-sweep" => Box::new(SingleSweep::new(args.seed)),
        "giant-fabric" => Box::new(GiantFabric::new(args.seed)),
        w => {
            eprintln!("irrnet-layerbench: unknown workload {w}");
            std::process::exit(2);
        }
    };
    let start = Instant::now();
    let mut m = Meter::new();
    // How long each timed pass took, probe readings and checks included.
    let mut took: Vec<f64> = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut reference: Option<Counters> = None;
    let mut first_out = None;
    let mut last_spans = Vec::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // Per untraced pass, each segment's `[wall, setup, run]` in ns at the
    // reference probe speed.
    let mut plain_segs: Vec<Vec<[f64; 3]>> = Vec::new();
    let mut pass = 0usize;
    loop {
        // Pass 0 runs the costly checks and warms up; it is not timed.
        // With tracing, the timed passes alternate untraced and traced.
        let tracing = args.trace && pass > 0 && pass.is_multiple_of(2);
        let pass_start = Instant::now();
        let (rq0, mf0) = (host::runqueue_wait_ns(), host::minor_faults());
        m.begin_pass(tracing);
        m.open(Layer::Pass, 0);
        let out = wl.pass(&mut m, pass == 0);
        m.close();
        let (rq1, mf1) = (host::runqueue_wait_ns(), host::minor_faults());
        attempted += out.ops;
        failed += out.failed;
        for e in out.errors.iter().take(5) {
            eprintln!("irrnet-layerbench: {} pass {pass}: {e}", args.workload);
        }
        correct &= out.errors.is_empty();
        match &reference {
            None => reference = Some(out.counters.clone()),
            Some(r) if *r != out.counters => {
                eprintln!(
                    "irrnet-layerbench: pass {pass} counters {:?} differ from {r:?}",
                    out.counters
                );
                correct = false;
            }
            Some(_) => {}
        }
        let t = &m.times;
        let segs: Vec<[f64; 3]> = m.segs.iter().map(at_ref).collect();
        let probe = median(m.segs.iter().map(|s| s.probe).collect());
        let sample = Sample {
            times: t.clone(),
            wall_ref: segs.iter().map(|s| s[0]).sum(),
            setup_ref: segs.iter().map(|s| s[1]).sum(),
            probe,
            scale: REF_NS_PER_STEP / probe,
            runqueue_ns: rq1 - rq0,
            minor_faults: mf1 - mf0,
            self_ns: meter::self_times(m.spans()).map(|x| x.2),
        };
        eprintln!(
            "pass {pass}{}: wall {:.1} ms, setup {:.1} ms, run {:.1} ms, check {:.1} ms, probe {:.3} ns/step",
            if tracing { " (traced)" } else { "" },
            t.wall_ns() as f64 / MS,
            t.setup_ns() as f64 / MS,
            t.ns(Layer::Run) as f64 / MS,
            t.ns(Layer::Check) as f64 / MS,
            sample.probe,
        );
        if pass == 0 {
            first_out = Some(out);
        } else if tracing {
            traced.push(sample);
            last_spans = m.spans().to_vec();
        } else {
            if let Some(s0) = plain_segs.first().filter(|s0| s0.len() != segs.len()) {
                eprintln!(
                    "irrnet-layerbench: pass {pass} has {} segments, the first timed pass had {}",
                    segs.len(),
                    s0.len()
                );
                correct = false;
            } else {
                plain_segs.push(segs);
            }
            plain.push(sample);
        }
        if pass > 0 {
            took.push(pass_start.elapsed().as_secs_f64());
        }
        pass += 1;
        // Start no pass that would likely end past the budget: the run
        // ends near `--seconds` once it has its minimum of passes.
        let enough = plain.len() >= MIN_PASSES && (!args.trace || traced.len() >= MIN_PASSES);
        if enough && start.elapsed().as_secs_f64() + median(took.clone()) >= args.seconds {
            break;
        }
    }
    let peak_kb = host::peak_rss_kb();
    // Each segment's lower quartile over the untraced passes, summed.
    let n_segs = plain_segs.first().map_or(0, Vec::len);
    let low_sum = |k: usize| -> f64 {
        (0..n_segs)
            .map(|i| lower_quartile(plain_segs.iter().map(|p| p[i][k]).collect()))
            .sum()
    };
    let (low_wall, low_run) = (low_sum(0), low_sum(2));
    eprintln!(
        "{} timed passes: median wall {:.1} ms as measured; at {REF_NS_PER_STEP} ns/step, sum over \
         {n_segs} segments of their lower quartiles {:.1} ms (median pass {:.1} ms); median probe \
         {:.3} ns/step",
        plain.len(),
        med(&plain, |s| s.times.wall_ns() as f64) / MS,
        low_wall / MS,
        med(&plain, |s| s.wall_ref) / MS,
        med(&plain, |s| s.probe)
    );
    let first = first_out.expect("at least one pass ran");
    let c = reference.expect("at least one pass ran");
    println!(
        "counters workload={} seed={} ops_per_pass={} sim.cycles={} sim.sweeps={} sim.link_flits={} \
         sim.replications={} core.plans={} core.worms={}",
        args.workload,
        args.seed,
        first.ops,
        c.cycles,
        c.sweeps,
        c.link_flits,
        c.replications,
        c.plans,
        c.worms
    );

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let mut put =
        |name: &str, v: f64, unit: &'static str| metrics.push((name.to_string(), v, unit));
    if !args.trace {
        put("wall_s", low_wall / 1e9, "s");
        put("setup_s", med(&plain, |s| s.setup_ref / 1e9), "s");
        put("sim_cycles_per_s", c.cycles as f64 / (low_run / 1e9), "1/s");
        put("peak_rss_mb", peak_kb as f64 / MB, "MB");
    } else {
        let lay = |l: Layer| med(&traced, |s| s.times.ns(l) as f64 * s.scale / MS);
        for (name, l) in [
            ("topology.gen_ms", Layer::Gen),
            ("topology.validate_ms", Layer::Validate),
            ("topology.updown_ms", Layer::UpDown),
            ("topology.routing_ms", Layer::Routing),
            ("topology.reach_ms", Layer::Reach),
            ("core.plan_ms", Layer::Plan),
            ("sim.new_ms", Layer::SimNew),
            ("sim.schedule_ms", Layer::Schedule),
            ("sim.run_ms", Layer::Run),
            ("sim.stats_ms", Layer::Stats),
            ("workloads.summary_ms", Layer::Summary),
        ] {
            put(name, lay(l), "ms");
        }
        for s in Scheme::all() {
            let name = format!("core.plan_ms.{}", s.name().replace('+', "-"));
            put(
                &name,
                med(&traced, |x| {
                    x.times.plan_ns[s.id().index()] as f64 * x.scale / MS
                }),
                "ms",
            );
        }
        put(
            "topology.routing_mb",
            first.routing_rss_kb.unwrap_or(0) as f64 / MB,
            "MB",
        );
        put(
            "topology.reach_mb",
            first.reach_bytes as f64 / (MB * MB),
            "MB",
        );
        put("core.plans", c.plans as f64, "count");
        put("core.worms", c.worms as f64, "count");
        put("sim.cycles", c.cycles as f64, "count");
        put("sim.sweeps", c.sweeps as f64, "count");
        put("sim.link_flits", c.link_flits as f64, "count");
        put("sim.replications", c.replications as f64, "count");
        put(
            "sim.ns_per_sweep",
            med(&traced, |s| {
                s.times.ns(Layer::Run) as f64 * s.scale / c.sweeps.max(1) as f64
            }),
            "ns",
        );
        put(
            "sim.skip_ratio",
            1.0 - c.sweeps as f64 / c.cycles.max(1) as f64,
            "ratio",
        );
        let all: Vec<&Sample> = plain.iter().chain(&traced).collect();
        put(
            "host.runqueue_wait_ms",
            median(all.iter().map(|s| s.runqueue_ns as f64 / MS).collect()),
            "ms",
        );
        put(
            "host.minor_faults",
            median(all.iter().map(|s| s.minor_faults as f64).collect()),
            "count",
        );
        let wall = |s: &Sample| s.times.wall_ns() as f64 * s.scale;
        let overhead = med(&traced, wall) - med(&plain, wall);
        put("trace.overhead_ms", overhead / MS, "ms");
        let uncovered = |s: &Sample| {
            [Layer::Pass, Layer::Fabric, Layer::Op]
                .iter()
                .map(|&l| s.self_ns[l as usize])
                .sum::<u64>() as f64
                * s.scale
        };
        put("trace.uncovered_ms", med(&traced, uncovered) / MS, "ms");
        print_table(&args.workload, &traced, overhead / MS);
        if let Err(e) = write_spans(&args.workload, args.seed, &last_spans) {
            eprintln!("irrnet-layerbench: writing spans: {e}");
        }
    }

    let mut json = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
}

/// Per-layer self time, as the median over traced passes, in ms per pass
/// at the reference probe speed.
fn print_table(workload: &str, traced: &[Sample], overhead_ms: f64) {
    println!(
        "self time per pass, median of {} traced passes ({workload}):",
        traced.len()
    );
    println!("  {:<20} {:>12} {:>12}", "span", "self ms", "total ms");
    for l in Layer::ALL {
        let self_ms = med(traced, |s| s.self_ns[l as usize] as f64 * s.scale / MS);
        let total_ms = med(traced, |s| s.times.ns(l) as f64 * s.scale / MS);
        if total_ms > 0.0 {
            println!("  {:<20} {:>12.3} {:>12.3}", l.name(), self_ms, total_ms);
        }
    }
    let uncovered: f64 = [Layer::Pass, Layer::Fabric, Layer::Op]
        .iter()
        .map(|&l| med(traced, |s| s.self_ns[l as usize] as f64 * s.scale / MS))
        .sum();
    println!("  uncovered (pass + fabric + op self time): {uncovered:.3} ms");
    println!("  trace.overhead_ms (traced minus untraced wall): {overhead_ms:.3} ms");
}

/// Write the last traced pass's spans, one per line:
/// `name start_ns end_ns parent_index op_id` (parent -1 for none).
fn write_spans(workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{workload}-{seed}.tsv"));
    let mut s = String::from("name\tstart_ns\tend_ns\tparent\top\n");
    for sp in spans {
        let parent = if sp.parent == u32::MAX {
            -1
        } else {
            sp.parent as i64
        };
        let _ = writeln!(
            s,
            "{}\t{}\t{}\t{}\t{}",
            sp.layer.name(),
            sp.start,
            sp.end,
            parent,
            sp.op
        );
    }
    std::fs::write(&path, s)?;
    println!("spans: {} written to {}", spans.len(), path.display());
    Ok(())
}
