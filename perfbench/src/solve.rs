//! `solve-milp` and `solve-comb`: a closed loop of one client on the
//! `rfp solve` path — decode, `FloorplanProblem::validate`, a one-worker
//! `SolveService`, `join`, `jsonio::write_floorplan` — over a seeded sample
//! of instances. Like `rfp solve`, each op starts its own service, so the
//! outcome cache is written but never read.

use crate::check::check_outcome;
use crate::inputs::{decode_problem, SolveInput};
use crate::timing::{timed_registry, Tallies, TraceReadout};
use crate::{Phase, Workload};
use relocfp::floorplan::engine::{EngineRegistry, SolveControl, SolveRequest};
use relocfp::floorplan::{jsonio, FloorplanProblem, SolveOutcome};
use relocfp::service::{CacheStats, EngineChoice, JobSpec, ServiceConfig, SolveService};
use relocfp::trace::Collector;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Per-solve wall-clock budget: well above the slowest proof of either
/// catalogue at the seed commit (about 0.5 s for `milp`, 0.6 s for
/// `combinatorial`), so a budget hit is rare and shows in `proven_share`.
const BUDGET_SECS: f64 = 10.0;

/// Latency limit of `within_limit_share`.
pub const LIMIT_SECS: f64 = 1.0;

pub struct Solve {
    engine: &'static str,
    inputs: Vec<SolveInput>,
    registry: EngineRegistry,
    tallies: Arc<Tallies>,
    /// Proven combinatorial objectives of inputs without a committed one.
    references: BTreeMap<usize, Option<f64>>,
}

/// What one op measured.
struct Op {
    problem: FloorplanProblem,
    outcome: SolveOutcome,
    output: Option<String>,
    latency: f64,
    decode: f64,
    submit: f64,
    encode: f64,
    /// Latency plus the service teardown.
    total: f64,
    cache: CacheStats,
}

impl Solve {
    fn setup(engine: &'static str, inputs: Vec<SolveInput>, warm_up: &SolveInput) -> Solve {
        let tallies = Arc::new(Tallies::default());
        let solve = Solve {
            engine,
            inputs,
            registry: timed_registry(&tallies),
            tallies,
            references: BTreeMap::new(),
        };
        solve.op(warm_up, None).expect("the warm-up instance decodes");
        solve
    }

    /// One solve on the `rfp solve` path.
    fn op(&self, input: &SolveInput, trace: Option<&Collector>) -> Result<Op, String> {
        let t0 = Instant::now();
        let problem = decode_problem(&input.bytes)?;
        problem.validate().map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let mut service = SolveService::new(
            self.registry.clone(),
            ServiceConfig {
                workers: 1,
                trace: trace.map(Collector::handle),
                ..ServiceConfig::default()
            },
        );
        let request =
            SolveRequest::new(problem.clone()).with_time_limit(BUDGET_SECS).with_threads(1);
        let id = service.submit(
            JobSpec::new(request).with_engine(EngineChoice::Engine(self.engine.to_string())),
        );
        let t2 = Instant::now();
        let outcome = service.join(id).expect("submitted ids are joinable").outcome;
        let t3 = Instant::now();
        let output = outcome.floorplan.as_ref().map(jsonio::write_floorplan);
        let t4 = Instant::now();
        let cache = service.cache_stats();
        service.shutdown();
        let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
        Ok(Op {
            problem,
            outcome,
            output,
            latency: secs(t0, t4),
            decode: secs(t0, t1),
            submit: secs(t1, t2),
            encode: secs(t3, t4),
            total: t0.elapsed().as_secs_f64(),
            cache,
        })
    }

    /// The expected proven objective of input `i`: its committed value, or
    /// the independent combinatorial engine's proof.
    fn expected(&mut self, i: usize, problem: &FloorplanProblem) -> Option<f64> {
        if let Some(v) = self.inputs[i].expected {
            return Some(v);
        }
        *self.references.entry(i).or_insert_with(|| {
            let outcome = EngineRegistry::builtin()
                .get("combinatorial")
                .expect("builtin engine")
                .solve(&SolveRequest::new(problem.clone()), &SolveControl::default());
            outcome.is_proven().then(|| outcome.metrics.map(|m| m.objective)).flatten()
        })
    }
}

/// The `solve-milp` workload.
pub struct SolveMilp(Solve);
/// The `solve-comb` workload.
pub struct SolveComb(Solve);

impl Workload for SolveMilp {
    fn setup(seed: u64, _seconds: f64) -> Self {
        let warm_up = SolveInput {
            name: "warm-up".into(),
            bytes: jsonio::write_problem(&crate::inputs::assignment_instance(0)).into_bytes(),
            expected: None,
        };
        SolveMilp(Solve::setup("milp", crate::inputs::milp_inputs(seed), &warm_up))
    }

    fn phase(&mut self, seconds: f64, trace: Option<&Collector>) -> Phase {
        phase(&mut self.0, seconds, trace)
    }
}

impl Workload for SolveComb {
    fn setup(seed: u64, _seconds: f64) -> Self {
        let (cols, s, objective) = crate::catalogue::COMB_CATALOGUE[0];
        let warm_up = SolveInput {
            name: "warm-up".into(),
            bytes: jsonio::write_problem(&crate::inputs::scaling_instance(cols, s)).into_bytes(),
            expected: Some(objective),
        };
        SolveComb(Solve::setup("combinatorial", crate::inputs::comb_inputs(seed), &warm_up))
    }

    fn phase(&mut self, seconds: f64, trace: Option<&Collector>) -> Phase {
        phase(&mut self.0, seconds, trace)
    }
}

/// Whole passes over the sample for about `seconds`.
fn phase(solve: &mut Solve, seconds: f64, trace: Option<&Collector>) -> Phase {
    solve.tallies.take();
    let mut p = Phase::default();
    crate::passes(seconds, || {
        for i in 0..solve.inputs.len() {
            let name = solve.inputs[i].name.clone();
            p.attempted += 1;
            let op = match solve.op(&solve.inputs[i], trace) {
                Ok(op) => op,
                Err(e) => {
                    p.failures.fail(format!("{name}: {e}"));
                    continue;
                }
            };
            p.latencies.push(op.latency);
            p.wall += op.total;
            p.add("decode", op.decode);
            p.add("submit", op.submit);
            p.add("encode", op.encode);
            let bytes = solve.inputs[i].bytes.len() + op.output.as_ref().map_or(0, String::len);
            p.add("bytes", bytes as f64);
            p.add_cache(&op.cache);

            let expected = solve.expected(i, &op.problem);
            let mut verdict = check_outcome(&op.problem, &op.outcome, expected);
            if verdict.is_ok() {
                let round_trip = op.output.as_deref().map(jsonio::read_floorplan);
                if !matches!(round_trip, Some(Ok(ref fp)) if Some(fp) == op.outcome.floorplan.as_ref())
                {
                    verdict = Err("the encoded floorplan does not read back".into());
                }
            }
            let ok = verdict.is_ok();
            p.failures.record(&name, verdict);
            p.proven += crate::settled(&op.outcome) as u64;
            p.proven_of += 1;
            p.accepted += op.outcome.floorplan.is_some() as u64;
            p.within_limit += (ok && op.latency <= LIMIT_SECS) as u64;
        }
        p.pass_ends.push(p.latencies.len());
    });
    p.ops = p.latencies.len() as u64;
    let (engines, dispatch) = solve.tallies.take();
    p.engines = engines;
    p.dispatch = dispatch;
    p.readout = trace.map(TraceReadout::of);
    p
}
