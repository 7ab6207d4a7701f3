//! Measurement from outside the program: a timing [`FloorplanEngine`]
//! wrapped around every registry engine, a timing [`SolveDispatcher`]
//! wrapped around the online floorplanner's dispatcher, and a wall-clock
//! trace collector whose spans, counters and out-of-band timings are read
//! back after a traced phase.

use relocfp::floorplan::engine::{
    EngineRegistry, FloorplanEngine, SolveControl, SolveDispatcher, SolveOutcome, SolveRequest,
};
use relocfp::trace::Collector;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one engine did across a phase, summed over its solves.
#[derive(Debug, Clone, Default)]
pub struct EngineTally {
    pub seconds: f64,
    pub nodes: u64,
    pub lp_seconds: f64,
    pub lp_iterations: u64,
    pub lp_solves: u64,
}

/// What the wrapped dispatcher did across a phase.
#[derive(Debug, Clone, Default)]
pub struct DispatchTally {
    pub calls: u64,
    pub seconds: f64,
    /// Dispatches settled by a proof: optimal, or proven infeasible.
    pub proven: u64,
    /// Returned floorplans that failed `Floorplan::validate`.
    pub invalid: Vec<String>,
}

/// Shared sink of the timing wrappers; [`Tallies::take`] reads and resets it.
#[derive(Debug, Default)]
pub struct Tallies {
    engines: Mutex<BTreeMap<&'static str, EngineTally>>,
    dispatch: Mutex<DispatchTally>,
}

impl Tallies {
    /// The per-engine and dispatcher tallies since the last call.
    pub fn take(&self) -> (BTreeMap<&'static str, EngineTally>, DispatchTally) {
        let engines = std::mem::take(&mut *self.engines.lock().expect("tally lock"));
        let dispatch = std::mem::take(&mut *self.dispatch.lock().expect("tally lock"));
        (engines, dispatch)
    }
}

/// A registry engine whose solves are timed and whose `EngineStats` are
/// summed into a [`Tallies`].
struct TimedEngine {
    inner: Arc<dyn FloorplanEngine>,
    tallies: Arc<Tallies>,
}

impl FloorplanEngine for TimedEngine {
    fn id(&self) -> &'static str {
        self.inner.id()
    }

    fn description(&self) -> &'static str {
        self.inner.description()
    }

    fn parallel(&self) -> bool {
        self.inner.parallel()
    }

    fn solve(&self, req: &SolveRequest, ctl: &SolveControl) -> SolveOutcome {
        let start = Instant::now();
        let outcome = self.inner.solve(req, ctl);
        let seconds = start.elapsed().as_secs_f64();
        let mut engines = self.tallies.engines.lock().expect("tally lock");
        let tally = engines.entry(self.inner.id()).or_default();
        tally.seconds += seconds;
        tally.nodes += outcome.stats.nodes;
        tally.lp_seconds += outcome.stats.lp_seconds;
        tally.lp_iterations += outcome.stats.lp_iterations;
        tally.lp_solves += outcome.stats.lp_solves;
        outcome
    }
}

/// `engine` wrapped in a timing engine that reports into `tallies`.
pub fn timed(engine: Arc<dyn FloorplanEngine>, tallies: &Arc<Tallies>) -> Arc<dyn FloorplanEngine> {
    Arc::new(TimedEngine { inner: engine, tallies: tallies.clone() })
}

/// The full engine registry (the one the `rfp` CLI uses), every engine
/// wrapped in a timing engine that reports into `tallies`.
pub fn timed_registry(tallies: &Arc<Tallies>) -> EngineRegistry {
    let mut registry = EngineRegistry::empty();
    for engine in relocfp::baselines::engines::full_registry().iter() {
        registry.register(timed(engine.clone(), tallies));
    }
    registry
}

/// A dispatcher that times every dispatch and checks every floorplan it
/// returns against the request's problem.
pub struct TimedDispatcher {
    pub inner: Arc<dyn SolveDispatcher>,
    pub tallies: Arc<Tallies>,
}

impl SolveDispatcher for TimedDispatcher {
    fn dispatch(&self, engine: &str, req: &SolveRequest, ctl: &SolveControl) -> SolveOutcome {
        let start = Instant::now();
        let outcome = self.inner.dispatch(engine, req, ctl);
        let seconds = start.elapsed().as_secs_f64();
        let issues = match &outcome.floorplan {
            Some(fp) => fp.validate(&req.problem),
            None => Vec::new(),
        };
        let mut dispatch = self.tallies.dispatch.lock().expect("tally lock");
        dispatch.calls += 1;
        dispatch.seconds += seconds;
        dispatch.proven += crate::settled(&outcome) as u64;
        if !issues.is_empty() {
            dispatch.invalid.push(issues.join("; "));
        }
        outcome
    }

    fn knows(&self, engine: &str) -> bool {
        self.inner.knows(engine)
    }
}

/// Span wall seconds and counters of a drained wall-clock collector.
#[derive(Debug, Default)]
pub struct TraceReadout {
    pub wall: BTreeMap<String, f64>,
    pub counters: BTreeMap<String, u64>,
}

impl TraceReadout {
    /// Reads a collector once every scope installed on it has ended.
    pub fn of(collector: &Collector) -> TraceReadout {
        TraceReadout {
            wall: collector.wall_timings().into_iter().collect(),
            counters: collector.counter_snapshot(),
        }
    }

    /// Total wall seconds of span (or out-of-band timing) `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.wall.get(name).copied().unwrap_or(0.0)
    }

    /// Counter `name`, summed over tracks.
    pub fn count(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}
