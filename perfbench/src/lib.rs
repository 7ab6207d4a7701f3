//! The relocfp benchmark: four workloads, one per user path and layer group,
//! each measured end to end with tracing off and, in a separate traced
//! run, layer by layer. See `README.md` next to this crate for the
//! workloads, the metrics and what each layer metric should move.

pub mod catalogue;
pub mod check;
pub mod inputs;
pub mod online;
pub mod serve;
pub mod solve;
pub mod stats;
pub mod timing;

use check::Failures;
use relocfp::trace::Collector;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use timing::{DispatchTally, EngineTally, TraceReadout};

/// The seed a run uses when `--seed` is not given; claims are verified on
/// seed 2 as well.
pub const DEFAULT_SEED: u64 = 1;
/// Measured seconds when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 30.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// The end-to-end metrics, `(name, unit)`, measured with tracing off.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("within_limit_share", "ratio"),
    ("proven_share", "ratio"),
    ("accepted_share", "ratio"),
    ("moved_frames_per_arrival", "frames"),
    ("downtime_frames_per_arrival", "frames"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics, `(name, unit)`, read from the traced half of a
/// `--trace 1` run. Times and counts are per op.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("codec.decode_s", "s/op"),
    ("codec.encode_s", "s/op"),
    ("codec.bytes", "bytes/op"),
    ("service.submit_s", "s/op"),
    ("service.queue_wait_s", "s/op"),
    ("service.overhead_s", "s/op"),
    ("service.cache.hit_share", "ratio"),
    ("service.cache.near_share", "ratio"),
    ("service.cache.evictions", "count/op"),
    ("engine.combinatorial_s", "s/op"),
    ("comb.nodes", "count/op"),
    ("comb.nodes_per_s", "nodes/s"),
    ("engine.milp_s", "s/op"),
    ("engine.model_build_s", "s/op"),
    ("engine.seed_search_s", "s/op"),
    ("milp.presolve_s", "s/op"),
    ("milp.root_lp_s", "s/op"),
    ("milp.search_s", "s/op"),
    ("milp.lp_s", "s/op"),
    ("milp.non_lp_s", "s/op"),
    ("milp.nodes", "count/op"),
    ("milp.lp_iterations", "count/op"),
    ("milp.lp_solves", "count/op"),
    ("milp.s_per_node", "s/node"),
    ("runtime.batch_s", "s/op"),
    ("runtime.place_s", "s/op"),
    ("runtime.defrag_s", "s/op"),
    ("runtime.resolve_s", "s/op"),
    ("runtime.dispatch_s", "s/op"),
    ("runtime.engine_s", "s/op"),
    ("runtime.escalations", "count/op"),
    ("runtime.moves", "count/op"),
    ("runtime.frames_relocated", "frames/op"),
    ("runtime.frames_resynthesized", "frames/op"),
    ("runtime.die_crossing_rejections", "count/op"),
    ("bench.generator_lag_s", "s/op"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.unattributed_s", "s/op"),
];

/// `true` when a solve ended with a proof within its budget: a proven
/// optimum, or (from an exact engine) a proof that no floorplan exists.
pub fn settled(outcome: &relocfp::floorplan::SolveOutcome) -> bool {
    use relocfp::floorplan::OutcomeStatus;
    matches!(outcome.status, OutcomeStatus::Proven | OutcomeStatus::Infeasible)
}

/// Runs whole passes of `pass` until about `seconds` have passed: as many
/// as fit, rounded to the nearest whole pass, and at least one.
pub fn passes(seconds: f64, mut pass: impl FnMut()) {
    let start = std::time::Instant::now();
    let mut done = 0.0;
    loop {
        pass();
        done += 1.0;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + 0.5 * elapsed / done >= seconds {
            return;
        }
    }
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SolveMilp,
    SolveComb,
    Online,
    Serve,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::SolveMilp, Kind::SolveComb, Kind::Online, Kind::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SolveMilp => "solve-milp",
            Kind::SolveComb => "solve-comb",
            Kind::Online => "online",
            Kind::Serve => "serve",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A workload: a set-up that prepares seeded inputs, and measured phases.
pub trait Workload: Sized {
    /// Generates and encodes the inputs, builds the registry, starts what
    /// must be running and runs one untimed warm-up op.
    fn setup(seed: u64, seconds: f64) -> Self;

    /// Measures for about `seconds`; `trace` carries a wall-clock collector
    /// in the traced half of a `--trace 1` run.
    fn phase(&mut self, seconds: f64, trace: Option<&Collector>) -> Phase;
}

/// Everything one measured phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Ops attempted, including any that failed before they could be timed.
    pub attempted: u64,
    /// Timed ops (`latencies.len()`).
    pub ops: u64,
    pub latencies: Vec<f64>,
    /// End index in `latencies` of each whole pass (`solve-*`, `online`).
    pub pass_ends: Vec<usize>,
    /// Seconds the throughput divides by.
    pub wall: f64,
    /// Ops behind `wall` when not `ops` (the serve throughput pass).
    pub throughput_ops: u64,
    pub failures: Failures,
    pub within_limit: u64,
    pub proven: u64,
    pub proven_of: u64,
    pub accepted: u64,
    /// Totals the harness measured itself, by name.
    pub own: BTreeMap<&'static str, f64>,
    pub engines: BTreeMap<&'static str, EngineTally>,
    pub dispatch: DispatchTally,
    pub readout: Option<TraceReadout>,
}

impl Phase {
    /// Adds `value` to the harness total `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.own.entry(name).or_insert(0.0) += value;
    }

    /// Adds a service's lifetime cache counters.
    pub fn add_cache(&mut self, cache: &relocfp::service::CacheStats) {
        self.add("cache.hits", cache.hits as f64);
        self.add("cache.near_hits", cache.near_hits as f64);
        self.add("cache.misses", cache.misses as f64);
        self.add("cache.evictions", cache.evictions as f64);
    }

    fn own(&self, name: &str) -> f64 {
        self.own.get(name).copied().unwrap_or(0.0)
    }

    fn share(part: u64, whole: u64) -> f64 {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    }

    /// Mean seconds per op that the self times reconcile against: the mean
    /// latency of an open loop, loop time per op otherwise.
    fn op_seconds(&self, kind: Kind) -> f64 {
        match kind {
            Kind::Serve => stats::mean(&self.latencies),
            _ => self.wall / self.ops.max(1) as f64,
        }
    }

    /// The windows the tail is taken over: the passes of `solve-*` and
    /// `online`, which repeat the same work, so the tail does not depend on
    /// how many passes fit in a run; 12 consecutive stretches of the `serve`
    /// open loop.
    fn windows(&self, kind: Kind) -> Vec<&[f64]> {
        const SERVE_WINDOWS: usize = 12;
        if self.latencies.is_empty() {
            return Vec::new();
        }
        if kind == Kind::Serve {
            return self.latencies.chunks(self.latencies.len().div_ceil(SERVE_WINDOWS)).collect();
        }
        let mut start = 0;
        self.pass_ends
            .iter()
            .map(|&end| {
                let window = &self.latencies[start..end];
                start = end;
                window
            })
            .filter(|w| !w.is_empty())
            .collect()
    }

    /// Returns `(median, tail, tail percentile)`: the median latency, and
    /// the median over [`Phase::windows`] of each window's tail. `serve`
    /// takes its median over the windows too: its sub-millisecond latencies
    /// drift with the host's load over seconds, and the windowed median
    /// holds still where the plain one does not.
    fn latency(&self, kind: Kind) -> (f64, f64, f64) {
        let windows = self.windows(kind);
        let Some(first) = windows.first() else { return (0.0, 0.0, 100.0) };
        let tails: Vec<f64> = windows.iter().map(|w| stats::tail(w).0).collect();
        let median = if kind == Kind::Serve {
            stats::median(&windows.iter().map(|w| stats::median(w)).collect::<Vec<_>>())
        } else {
            stats::median(&self.latencies)
        };
        (median, stats::median(&tails), stats::tail(first).1)
    }

    /// The end-to-end metrics except `setup_s` and `peak_rss_mib`.
    fn end_to_end(&self, kind: Kind) -> BTreeMap<&'static str, f64> {
        let arrivals = self.ops.max(1) as f64;
        // Frame metrics only exist where modules arrive; elsewhere they read
        // a constant 1 so every run prints every metric.
        let frames = |name| if kind == Kind::Online { self.own(name) / arrivals } else { 1.0 };
        let throughput_ops = if self.throughput_ops > 0 { self.throughput_ops } else { self.ops };
        let (p50, tail, _) = self.latency(kind);
        BTreeMap::from([
            ("latency_p50_s", p50),
            ("latency_tail_s", tail),
            ("throughput_ops_s", throughput_ops as f64 / self.wall.max(f64::MIN_POSITIVE)),
            ("within_limit_share", Phase::share(self.within_limit, self.ops)),
            ("proven_share", Phase::share(self.proven, self.proven_of)),
            ("accepted_share", Phase::share(self.accepted, self.ops)),
            ("moved_frames_per_arrival", frames("moved_frames")),
            ("downtime_frames_per_arrival", frames("downtime_frames")),
        ])
    }

    /// The per-layer metrics of a traced phase, except the two `drive`
    /// derives (`bench.trace_overhead_share`, `bench.unattributed_s`).
    fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let none = TraceReadout::default();
        let trace = self.readout.as_ref().unwrap_or(&none);
        let n = self.ops.max(1) as f64;
        let engine = |id: &str| self.engines.get(id).cloned().unwrap_or_default();
        let (comb, milp) = (engine("combinatorial"), engine("milp"));
        let engine_secs: f64 = self.engines.values().map(|t| t.seconds).sum();
        let lookups =
            self.own("cache.hits") + self.own("cache.near_hits") + self.own("cache.misses");
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let root_lp = trace.secs("milp.root_lp");
        let online = self.dispatch.calls > 0;
        BTreeMap::from([
            ("codec.decode_s", self.own("decode") / n),
            ("codec.encode_s", self.own("encode") / n),
            ("codec.bytes", self.own("bytes") / n),
            ("service.submit_s", self.own("submit") / n),
            ("service.queue_wait_s", trace.secs("service.queue_wait") / n),
            ("service.overhead_s", (trace.secs("service.worker0.busy") - engine_secs) / n),
            ("service.cache.hit_share", ratio(self.own("cache.hits"), lookups)),
            ("service.cache.near_share", ratio(self.own("cache.near_hits"), lookups)),
            ("service.cache.evictions", self.own("cache.evictions") / n),
            ("engine.combinatorial_s", comb.seconds / n),
            ("comb.nodes", comb.nodes as f64 / n),
            ("comb.nodes_per_s", ratio(comb.nodes as f64, comb.seconds)),
            ("engine.milp_s", milp.seconds / n),
            ("engine.model_build_s", trace.secs("engine.model_build") / n),
            ("engine.seed_search_s", trace.secs("engine.seed_search") / n),
            ("milp.presolve_s", trace.secs("milp.presolve") / n),
            ("milp.root_lp_s", root_lp / n),
            ("milp.search_s", (trace.secs("milp.search") - root_lp) / n),
            ("milp.lp_s", milp.lp_seconds / n),
            ("milp.non_lp_s", (milp.seconds - milp.lp_seconds) / n),
            ("milp.nodes", milp.nodes as f64 / n),
            ("milp.lp_iterations", milp.lp_iterations as f64 / n),
            ("milp.lp_solves", milp.lp_solves as f64 / n),
            ("milp.s_per_node", ratio(milp.seconds, milp.nodes as f64)),
            ("runtime.batch_s", self.own("batch") / n),
            ("runtime.place_s", trace.secs("runtime.place") / n),
            ("runtime.defrag_s", trace.secs("runtime.defrag") / n),
            ("runtime.resolve_s", trace.secs("runtime.resolve") / n),
            ("runtime.dispatch_s", self.dispatch.seconds / n),
            ("runtime.engine_s", if online { engine_secs / n } else { 0.0 }),
            ("runtime.escalations", trace.count("runtime.escalations") as f64 / n),
            ("runtime.moves", trace.count("runtime.moves") as f64 / n),
            ("runtime.frames_relocated", trace.count("runtime.frames_relocated") as f64 / n),
            (
                "runtime.frames_resynthesized",
                trace.count("runtime.frames_resynthesized") as f64 / n,
            ),
            (
                "runtime.die_crossing_rejections",
                trace.count("runtime.die_crossing_rejections") as f64 / n,
            ),
            ("bench.generator_lag_s", self.own("lag") / n),
        ])
    }
}

/// Self time per op of each layer on the blocking path of `kind`; with the
/// remainder they add up to [`Phase::op_seconds`].
fn self_times(kind: Kind, m: &BTreeMap<&'static str, f64>) -> Vec<(&'static str, f64)> {
    let v = |name: &str| m.get(name).copied().unwrap_or(0.0);
    match kind {
        Kind::SolveMilp | Kind::SolveComb => vec![
            ("codec.decode (decode + validate)", v("codec.decode_s")),
            ("service.submit (start + submit)", v("service.submit_s")),
            ("service.queue_wait", v("service.queue_wait_s")),
            ("service.overhead (worker busy - engine)", v("service.overhead_s")),
            if kind == Kind::SolveMilp {
                ("engine.milp", v("engine.milp_s"))
            } else {
                ("engine.combinatorial", v("engine.combinatorial_s"))
            },
            ("codec.encode", v("codec.encode_s")),
        ],
        Kind::Online => vec![
            ("runtime.place", v("runtime.place_s")),
            ("runtime.defrag", v("runtime.defrag_s")),
            ("runtime.resolve (self)", v("runtime.resolve_s") - v("runtime.dispatch_s")),
            ("service hop (dispatch - engine)", v("runtime.dispatch_s") - v("runtime.engine_s")),
            ("engine", v("runtime.engine_s")),
            (
                "runtime (rest of step_batch)",
                v("runtime.batch_s")
                    - v("runtime.place_s")
                    - v("runtime.defrag_s")
                    - v("runtime.resolve_s"),
            ),
        ],
        Kind::Serve => vec![
            ("bench.generator_lag", v("bench.generator_lag_s")),
            ("codec.decode (decode + validate)", v("codec.decode_s")),
            ("service.submit", v("service.submit_s")),
            ("service.queue_wait", v("service.queue_wait_s")),
            ("service.overhead (worker busy - engine)", v("service.overhead_s")),
            ("engine.combinatorial", v("engine.combinatorial_s")),
        ],
    }
}

/// Peak resident memory of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The box and checkout the numbers come from.
fn provenance(kind: Kind, seed: u64, samples: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"nproc\":{nproc},\"cpu\":\"{}\",\"commit\":\"{}\",\"samples\":{samples}}}",
        kind.name(),
        relocfp::floorplan::jsonio::escape(&cpu),
        relocfp::floorplan::jsonio::escape(&git_commit()),
    )
}

/// The checked-out commit, read from `.git` without running git.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    std::fs::read_to_string(format!(".git/{reference}"))
        .ok()
        .or_else(|| {
            std::fs::read_to_string(".git/packed-refs").ok().and_then(|packed| {
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .map(|l| l[..40.min(l.len())].to_string())
            })
        })
        .map_or_else(|| format!("unknown ({reference})"), |c| c.trim().to_string())
}

/// A JSON number with all its digits (non-finite values, which JSON cannot
/// carry, read as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Runs one workload and returns the report: comment lines, then the result
/// object as the last line.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> String {
    match kind {
        Kind::SolveMilp => drive::<solve::SolveMilp>(kind, seed, seconds, traced),
        Kind::SolveComb => drive::<solve::SolveComb>(kind, seed, seconds, traced),
        Kind::Online => drive::<online::Online>(kind, seed, seconds, traced),
        Kind::Serve => drive::<serve::Serve>(kind, seed, seconds, traced),
    }
}

fn drive<W: Workload>(kind: Kind, seed: u64, seconds: f64, traced: bool) -> String {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        drop(workload.take());
        let start = std::time::Instant::now();
        workload = Some(W::setup(seed, seconds));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    // A traced run measures half its time untraced, half traced.
    let (plain, traced_phase) = if traced {
        let plain = workload.phase(seconds / 2.0, None);
        let collector = Collector::with_wall_clock();
        let phase = workload.phase(seconds / 2.0, Some(&collector));
        (plain, Some(phase))
    } else {
        (workload.phase(seconds, None), None)
    };
    drop(workload);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# perfbench {} seed={seed} seconds={seconds} trace={}",
        kind.name(),
        traced as u8
    );
    let windows = plain.windows(kind);
    let samples = format!(
        "{{\"setups\":{SETUP_REPEATS},\"ops\":{},\"traced_ops\":{},\"tail_windows\":{},\"window_ops\":{},\"tail_percentile\":{},\"beyond_tail\":{}}}",
        plain.ops,
        traced_phase.as_ref().map_or(0, |t| t.ops),
        windows.len(),
        windows.first().map_or(0, |w| w.len()),
        num(plain.latency(kind).2),
        windows.first().map_or(0, |w| w.len().min(10))
    );
    let _ = writeln!(out, "# provenance {}", provenance(kind, seed, &samples));

    let mut e2e = plain.end_to_end(kind);
    e2e.insert("setup_s", stats::median(&setups));
    e2e.insert("peak_rss_mib", peak_rss_mib());
    let metrics: Vec<(&str, &str, f64)> = match &traced_phase {
        None => {
            let metrics: Vec<_> = END_TO_END.iter().map(|&(n, u)| (n, u, e2e[n])).collect();
            for (name, unit, value) in &metrics {
                let _ = writeln!(out, "# {name:<28} {:>24} {unit}", num(*value));
            }
            metrics
        }
        Some(t) => {
            let traced_e2e = t.end_to_end(kind);
            let _ = writeln!(out, "# end-to-end, untraced half | traced half:");
            for (name, unit) in END_TO_END {
                let traced = traced_e2e.get(name).map_or("-".to_string(), |v| num(*v));
                let _ =
                    writeln!(out, "#   {name:<28} {:>24} | {traced:>24} {unit}", num(e2e[name]));
            }
            let mut layers = t.per_layer();
            let reference = t.op_seconds(kind);
            let selves = self_times(kind, &layers);
            let unattributed = reference - selves.iter().map(|(_, s)| s).sum::<f64>();
            let overhead = reference / plain.op_seconds(kind).max(f64::MIN_POSITIVE) - 1.0;
            layers.insert("bench.trace_overhead_share", overhead);
            layers.insert("bench.unattributed_s", unattributed);
            let _ = writeln!(
                out,
                "# self time per op (traced half), adding up to {} s/op:",
                num(reference)
            );
            for (layer, secs) in selves.iter().chain(&[("bench.unattributed", unattributed)]) {
                let share = 100.0 * secs / reference.max(f64::MIN_POSITIVE);
                let _ = writeln!(out, "#   {layer:<42} {:>24} s/op {share:>7.2}%", num(*secs));
            }
            let metrics: Vec<_> = PER_LAYER
                .iter()
                .map(|&(n, u)| (n, u, layers.get(n).copied().unwrap_or(0.0)))
                .collect();
            for (name, unit, value) in &metrics {
                let _ = writeln!(out, "# {name:<32} {:>24} {unit}", num(*value));
            }
            metrics
        }
    };

    let attempted = plain.attempted + traced_phase.as_ref().map_or(0, |t| t.attempted);
    let mut failures = plain.failures;
    if let Some(t) = traced_phase {
        failures.merge(t.failures);
    }
    for m in &failures.messages {
        let _ = writeln!(out, "# FAILED {m}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*value))
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.count == 0,
        failures.count,
        body.join(", ")
    );
    out
}
