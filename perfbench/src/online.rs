//! `online`: a closed loop of one client playing a fixed catalogue of
//! defragmentation traces through `OnlineFloorplanner::with_dispatcher` over a one-worker
//! `SolveService` — the `rfp simulate` wiring — with one `step_batch` call
//! per group of same-timestamp events. Every trace is played under the
//! `aware`, `oblivious` and `no_break` policies, in an order drawn from
//! `--seed`.

use crate::inputs::{online_scenarios, Rng};
use crate::timing::{timed, timed_registry, Tallies, TimedDispatcher, TraceReadout};
use crate::{Phase, Workload};
use relocfp::floorplan::combinatorial::CombinatorialConfig;
use relocfp::floorplan::engine::{CombinatorialEngine, EngineRegistry};
use relocfp::runtime::{
    read_scenario, write_scenario, DefragPolicy, OnlineConfig, OnlineFloorplanner, Scenario,
};
use relocfp::service::{ServiceConfig, SolveService};
use relocfp::trace::Collector;
use std::sync::Arc;
use std::time::Instant;

/// Trace groups (three traces each) of the committed trace catalogue.
const GROUPS: usize = 16;

/// Generator seed of the trace catalogue. The traces are fixed and `--seed`
/// orders the plays: traces drawn from `--seed` swung moved frames per
/// arrival by 11% and throughput by 28% across five seeds, which would hide
/// any regression.
const CATALOGUE_SEED: u64 = 0;

/// Search-node budget of the `combinatorial` engine behind the escalation
/// re-solves. Most re-solves prove in a few thousand nodes; the rare ones
/// that must exhaust a large space to prove a module cannot fit would
/// otherwise cost seconds and swing a run's tail and throughput from seed to
/// seed. A node budget bounds them by work done, not by the clock, so the
/// admission decisions stay deterministic.
const ENGINE_NODES: u64 = 50_000;

/// Wall-clock budget of one escalation re-solve (a backstop; the node
/// budget binds first).
const ENGINE_SECS: f64 = 2.0;

/// Latency limit of `within_limit_share`.
pub const LIMIT_SECS: f64 = 0.005;

pub struct Online {
    scenarios: Vec<Scenario>,
    /// `(scenario, policy)` plays of one pass, in seeded order.
    plays: Vec<(usize, DefragPolicy)>,
    registry: EngineRegistry,
    tallies: Arc<Tallies>,
}

impl Workload for Online {
    fn setup(seed: u64, _seconds: f64) -> Self {
        // Generate and encode: the traces reach the floorplanner through the
        // scenario format, as `rfp simulate` reads them.
        let catalogue: Vec<Scenario> = online_scenarios(CATALOGUE_SEED, GROUPS)
            .iter()
            .map(|s| read_scenario(&write_scenario(s)).expect("generated scenarios round-trip"))
            .collect();
        let plays = Rng::new(seed)
            .permutation(catalogue.len() * DefragPolicy::ALL.len())
            .into_iter()
            .map(|i| (i / DefragPolicy::ALL.len(), DefragPolicy::ALL[i % DefragPolicy::ALL.len()]))
            .collect();
        let tallies = Arc::new(Tallies::default());
        let mut registry = timed_registry(&tallies);
        let budgeted =
            CombinatorialConfig { node_limit: ENGINE_NODES, ..CombinatorialConfig::default() };
        registry.register(timed(Arc::new(CombinatorialEngine::with_config(budgeted)), &tallies));
        let online = Online { scenarios: catalogue, plays, registry, tallies };
        let warm_up = online_scenarios(0, 1).remove(0);
        let mut scratch = Phase::default();
        online.play(&warm_up, DefragPolicy::RelocationAware, None, &mut scratch);
        online.tallies.take();
        online
    }

    fn phase(&mut self, seconds: f64, trace: Option<&Collector>) -> Phase {
        self.tallies.take();
        let mut p = Phase::default();
        // The runtime's spans land on the main track; each escalation
        // re-solve lands on its service job's track.
        let scope = trace.map(|c| c.install("main"));
        crate::passes(seconds, || {
            for &(scenario, policy) in &self.plays {
                self.play(&self.scenarios[scenario], policy, trace, &mut p);
            }
            p.pass_ends.push(p.latencies.len());
        });
        drop(scope);
        p.ops = p.latencies.len() as u64;
        let (engines, dispatch) = self.tallies.take();
        for invalid in &dispatch.invalid {
            p.failures.fail(format!("escalation returned an invalid floorplan: {invalid}"));
        }
        p.proven = dispatch.proven;
        p.proven_of = dispatch.calls;
        p.engines = engines;
        p.dispatch = dispatch;
        p.readout = trace.map(TraceReadout::of);
        p
    }
}

impl Online {
    /// Plays one trace under one policy, through a fresh service as
    /// `rfp simulate` does.
    fn play(
        &self,
        scenario: &Scenario,
        policy: DefragPolicy,
        trace: Option<&Collector>,
        p: &mut Phase,
    ) {
        let t0 = Instant::now();
        let service = Arc::new(SolveService::new(
            self.registry.clone(),
            ServiceConfig {
                workers: 1,
                trace: trace.map(Collector::handle),
                ..ServiceConfig::default()
            },
        ));
        let dispatcher =
            Arc::new(TimedDispatcher { inner: service.clone(), tallies: self.tallies.clone() });
        let config =
            OnlineConfig { policy, engine_time_limit: ENGINE_SECS, ..OnlineConfig::default() };
        let mut sim =
            OnlineFloorplanner::with_dispatcher(scenario.partition.clone(), dispatcher, config);
        let mut checked = 0.0;
        let mut i = 0;
        while i < scenario.events.len() {
            let t = scenario.events[i].time;
            let j = i + scenario.events[i..].iter().take_while(|e| e.time == t).count();
            let batch_start = Instant::now();
            let records = sim.step_batch(scenario, i..j);
            let batch = batch_start.elapsed().as_secs_f64();
            p.add("batch", batch);

            let check_start = Instant::now();
            for record in &records {
                let violated = !record.violations.is_empty();
                if violated {
                    p.failures.fail(format!(
                        "{} ({}) t={}: {}",
                        scenario.name,
                        policy.id(),
                        record.time,
                        record.violations.join("; ")
                    ));
                }
                if record.kind != "arrive" {
                    continue;
                }
                p.attempted += 1;
                p.latencies.push(batch);
                p.accepted += record.accepted as u64;
                p.within_limit += (!violated && batch <= LIMIT_SECS) as u64;
                p.add(
                    "moved_frames",
                    (record.frames_relocated + record.frames_resynthesized) as f64,
                );
                p.add("downtime_frames", record.downtime_frames as f64);
            }
            checked += check_start.elapsed().as_secs_f64();
            i = j;
        }
        drop(sim);
        let cache = service.cache_stats();
        drop(service);
        p.wall += t0.elapsed().as_secs_f64() - checked;
        p.add_cache(&cache);
    }
}
