//! Engine portfolio racing.
//!
//! Exact engines dominate on some instance shapes and heuristics on others,
//! and there is no reliable a-priori predictor. A [`Portfolio`] sidesteps
//! the choice: it launches several [`FloorplanEngine`]s on the *same*
//! [`SolveRequest`] on parallel threads and cancels the stragglers through
//! their [`SolveControl`] tokens as soon as one engine returns a **proven**
//! result. If nobody proves within the budget, the best feasible floorplan
//! (lowest composite objective, ties to the engine registered first) wins —
//! the tie-break is **stable engine order**, not thread-finish order, so
//! repeated races on the same request name the same winner.
//!
//! Every engine gets its own [`CancelToken`] child so that a caller-level
//! cancellation still stops the whole race, while a race-level cancellation
//! never leaks into the caller's token.
//!
//! Racing composes with in-engine parallelism: every leg receives the same
//! request, including [`SolveRequest::threads`], so a race of parallel-capable
//! engines runs `legs × threads` workers — budget accordingly.

use crate::engine::{
    CancelToken, FloorplanEngine, OutcomeStatus, SolveControl, SolveOutcome, SolveRequest,
};
use std::sync::mpsc;
use std::sync::Arc;

/// Outcome of one engine's leg of a race.
#[derive(Debug, Clone)]
pub struct RaceEntry {
    /// Engine id.
    pub engine: String,
    /// The engine's outcome (losers typically report
    /// [`OutcomeStatus::BudgetExhausted`] or a feasible-but-unproven result
    /// with [`crate::engine::EngineStats::cancelled`] set).
    pub outcome: SolveOutcome,
    /// Order of arrival: 0 finished first.
    pub arrival: usize,
}

/// Outcome of a portfolio race.
#[derive(Debug, Clone)]
pub struct RaceOutcome {
    /// Index into [`RaceOutcome::entries`] of the winning engine, when any
    /// engine produced a floorplan.
    pub winner: Option<usize>,
    /// All engines' results, in registration order.
    pub entries: Vec<RaceEntry>,
}

impl RaceOutcome {
    /// The winning entry, if any.
    pub fn winning_entry(&self) -> Option<&RaceEntry> {
        self.winner.map(|i| &self.entries[i])
    }

    /// The winning outcome, if any engine produced a floorplan.
    pub fn best(&self) -> Option<&SolveOutcome> {
        self.winning_entry().map(|e| &e.outcome)
    }
}

/// A set of engines raced against each other on a shared request.
///
/// ```
/// use rfp_device::{columnar_partition, DeviceBuilder, ResourceVec};
/// use rfp_floorplan::engine::{EngineRegistry, SolveRequest};
/// use rfp_floorplan::portfolio::Portfolio;
/// use rfp_floorplan::problem::{FloorplanProblem, RegionSpec};
///
/// let mut b = DeviceBuilder::new("race");
/// let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
/// b.rows(2).columns(&[clb, clb, clb]);
/// let mut problem = FloorplanProblem::new(columnar_partition(&b.build().unwrap()).unwrap());
/// problem.add_region(RegionSpec::new("A", vec![(clb, 2)]));
///
/// let registry = EngineRegistry::builtin();
/// let portfolio = Portfolio::new(vec![
///     registry.get("combinatorial").unwrap(),
///     registry.get("milp").unwrap(),
/// ]);
/// let race = portfolio.race(&SolveRequest::new(problem));
/// assert!(race.best().unwrap().is_proven());
/// ```
#[derive(Clone, Default)]
pub struct Portfolio {
    engines: Vec<Arc<dyn FloorplanEngine>>,
}

impl Portfolio {
    /// A portfolio over the given engines.
    pub fn new(engines: Vec<Arc<dyn FloorplanEngine>>) -> Self {
        Portfolio { engines }
    }

    /// A portfolio over every engine of a registry, in registration order.
    pub fn from_registry(registry: &crate::engine::EngineRegistry) -> Self {
        Portfolio { engines: registry.iter().cloned().collect() }
    }

    /// Ids of the participating engines.
    pub fn ids(&self) -> Vec<&'static str> {
        self.engines.iter().map(|e| e.id()).collect()
    }

    /// Races the engines on the request with a default (non-cancellable)
    /// control.
    pub fn race(&self, req: &SolveRequest) -> RaceOutcome {
        self.race_controlled(req, &SolveControl::default())
    }

    /// Races the engines on the request.
    ///
    /// Each engine runs on its own thread with its own cancellation token;
    /// the first engine to return a [`OutcomeStatus::Proven`] outcome
    /// cancels all others. Cancelling the caller's `ctl` token aborts the
    /// whole race.
    ///
    /// The legs also *cooperate*: every engine shares one
    /// [`crate::engine::SharedIncumbent`] slot (the caller's, when `ctl`
    /// carries one), and a leg that finishes with a feasible-but-unproven
    /// floorplan offers it there, so still-running MILP legs adopt it as an
    /// incumbent and prune their trees instead of merely waiting to be
    /// beaten or cancelled.
    pub fn race_controlled(&self, req: &SolveRequest, ctl: &SolveControl) -> RaceOutcome {
        if self.engines.is_empty() {
            return RaceOutcome { winner: None, entries: Vec::new() };
        }

        let _race = rfp_trace::span("portfolio.race");
        let tokens: Vec<CancelToken> = self.engines.iter().map(|_| CancelToken::new()).collect();
        let shared = ctl.shared_incumbent.clone().unwrap_or_default();

        // Leg threads record onto their own tracks, named by engine id; the
        // handle must be captured here because thread-locals do not cross
        // `scope.spawn`.
        let trace = rfp_trace::current();
        let (tx, rx) = mpsc::channel::<(usize, SolveOutcome)>();
        let mut slots: Vec<Option<RaceEntry>> = vec![None; self.engines.len()];
        std::thread::scope(|scope| {
            for (i, engine) in self.engines.iter().enumerate() {
                let tx = tx.clone();
                let engine_ctl = SolveControl {
                    cancel: tokens[i].clone(),
                    shared_incumbent: Some(shared.clone()),
                };
                let engine = engine.clone();
                let trace = trace.clone();
                scope.spawn(move || {
                    let _scope = trace.map(|h| h.install(engine.id()));
                    let outcome = {
                        let _leg = rfp_trace::span(&format!("engine.{}", engine.id()));
                        engine.solve(req, &engine_ctl)
                    };
                    if outcome.stats.cancelled {
                        rfp_trace::count("engine.cancelled", 1);
                    }
                    // The receiver may have left already; that is fine.
                    let _ = tx.send((i, outcome));
                });
            }
            drop(tx);

            let mut arrived = 0usize;
            loop {
                match rx.recv_timeout(std::time::Duration::from_millis(20)) {
                    Ok((i, outcome)) => {
                        if outcome.status == OutcomeStatus::Proven {
                            // First proven result: stop the stragglers.
                            for (j, t) in tokens.iter().enumerate() {
                                if j != i && !t.is_cancelled() {
                                    rfp_trace::count("portfolio.loser_cancels", 1);
                                    t.cancel();
                                }
                            }
                        } else if let (Some(fp), Some(m)) = (&outcome.floorplan, &outcome.metrics) {
                            // A finished-but-unproven leg feeds its best
                            // floorplan to the engines still running.
                            rfp_trace::count("portfolio.incumbent_offers", 1);
                            shared.offer(m.objective, fp);
                        }
                        slots[i] = Some(RaceEntry {
                            engine: self.engines[i].id().to_string(),
                            outcome,
                            arrival: arrived,
                        });
                        arrived += 1;
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
                // Propagate a caller-level cancellation to every leg.
                if ctl.cancel.is_cancelled() {
                    for t in &tokens {
                        t.cancel();
                    }
                }
            }
        });

        let entries: Vec<RaceEntry> =
            slots.into_iter().map(|s| s.expect("every engine reports exactly once")).collect();

        // Winner: first proven by arrival (a genuine race — whoever proves
        // first stopped everybody else); otherwise the best feasible
        // floorplan by composite objective, with ties broken by **stable
        // engine registration order** rather than thread-finish order, so
        // the winner of an unproven race is reproducible run to run.
        let winner = entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.outcome.status == OutcomeStatus::Proven)
            .min_by_key(|&(i, e)| (e.arrival, i))
            .map(|(i, _)| i)
            .or_else(|| {
                entries
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.outcome.floorplan.is_some())
                    .min_by(|&(ia, a), &(ib, b)| {
                        let oa = a.outcome.metrics.as_ref().map_or(f64::INFINITY, |m| m.objective);
                        let ob = b.outcome.metrics.as_ref().map_or(f64::INFINITY, |m| m.objective);
                        oa.partial_cmp(&ob).unwrap_or(std::cmp::Ordering::Equal).then(ia.cmp(&ib))
                    })
                    .map(|(i, _)| i)
            });
        RaceOutcome { winner, entries }
    }
}

impl std::fmt::Debug for Portfolio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.ids()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineRegistry, EngineStats};
    use crate::problem::{FloorplanProblem, RegionSpec};
    use rfp_device::{columnar_partition, DeviceBuilder, ResourceVec};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn tiny_problem() -> FloorplanProblem {
        let mut b = DeviceBuilder::new("portfolio-tiny");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
        b.rows(3).columns(&[clb, clb, bram, clb, clb]);
        let mut p = FloorplanProblem::new(columnar_partition(&b.build().unwrap()).unwrap());
        p.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
        p.add_region(RegionSpec::new("B", vec![(clb, 2)]));
        p
    }

    /// An engine that spins until cancelled, then reports whether it saw the
    /// cancellation — the probe for loser-cancellation semantics.
    struct Sleeper {
        observed_cancel: Arc<AtomicBool>,
    }

    impl crate::engine::FloorplanEngine for Sleeper {
        fn id(&self) -> &'static str {
            "sleeper"
        }
        fn description(&self) -> &'static str {
            "test engine that only returns once cancelled"
        }
        fn solve(&self, _req: &SolveRequest, ctl: &SolveControl) -> SolveOutcome {
            while !ctl.cancel.is_cancelled() {
                std::thread::yield_now();
            }
            self.observed_cancel.store(true, Ordering::SeqCst);
            let mut stats = EngineStats::new("sleeper");
            stats.cancelled = true;
            SolveOutcome::without_floorplan(OutcomeStatus::BudgetExhausted, "cancelled", stats)
        }
    }

    #[test]
    fn race_returns_a_proven_winner_and_cancels_losers() {
        let observed = Arc::new(AtomicBool::new(false));
        let registry = EngineRegistry::builtin();
        let portfolio = Portfolio::new(vec![
            Arc::new(Sleeper { observed_cancel: observed.clone() }),
            registry.get("combinatorial").unwrap(),
        ]);
        let race = portfolio.race(&SolveRequest::new(tiny_problem()));
        let winner = race.winning_entry().expect("combinatorial proves the tiny instance");
        assert_eq!(winner.engine, "combinatorial");
        assert!(winner.outcome.is_proven());
        assert!(observed.load(Ordering::SeqCst), "the loser must observe the cancellation");
        let sleeper = race.entries.iter().find(|e| e.engine == "sleeper").unwrap();
        assert!(sleeper.outcome.stats.cancelled);
        assert_eq!(sleeper.outcome.status, OutcomeStatus::BudgetExhausted);
    }

    #[test]
    fn caller_cancellation_aborts_the_whole_race() {
        let observed = Arc::new(AtomicBool::new(false));
        let portfolio =
            Portfolio::new(vec![Arc::new(Sleeper { observed_cancel: observed.clone() })]);
        let ctl = SolveControl::default();
        let token = ctl.cancel.clone();
        let problem = tiny_problem();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                // No exact engine participates, so only the caller's token
                // can end this race.
                portfolio.race_controlled(&SolveRequest::new(problem.clone()), &ctl)
            });
            token.cancel();
            let race = handle.join().unwrap();
            assert!(race.winner.is_none());
        });
        assert!(observed.load(Ordering::SeqCst));
    }

    #[test]
    fn empty_portfolio_has_no_winner() {
        let race = Portfolio::default().race(&SolveRequest::new(tiny_problem()));
        assert!(race.winner.is_none());
        assert!(race.entries.is_empty());
    }

    /// A feasible-only stub engine with a fixed objective and an optional
    /// stall, used to probe the unproven-race winner selection.
    struct Fixed {
        id: &'static str,
        waste: u64,
        delay: std::time::Duration,
    }

    impl Fixed {
        fn new(id: &'static str, waste: u64) -> Self {
            Fixed { id, waste, delay: std::time::Duration::ZERO }
        }
    }

    impl crate::engine::FloorplanEngine for Fixed {
        fn id(&self) -> &'static str {
            self.id
        }
        fn description(&self) -> &'static str {
            "stub"
        }
        fn solve(&self, req: &SolveRequest, _ctl: &SolveControl) -> SolveOutcome {
            std::thread::sleep(self.delay);
            let p = &req.problem;
            let fp = crate::heuristic::greedy_floorplan(p).unwrap();
            let mut metrics = fp.metrics(p);
            metrics.objective = self.waste as f64;
            SolveOutcome {
                status: OutcomeStatus::Feasible,
                floorplan: Some(fp),
                metrics: Some(metrics),
                detail: None,
                stats: EngineStats::new(self.id),
            }
        }
    }

    #[test]
    fn feasible_fallback_picks_the_lowest_objective() {
        let portfolio = Portfolio::new(vec![
            Arc::new(Fixed::new("worse", 10)),
            Arc::new(Fixed::new("better", 3)),
        ]);
        let race = portfolio.race(&SolveRequest::new(tiny_problem()));
        assert_eq!(race.winning_entry().unwrap().engine, "better");
    }

    /// An engine that blocks until a sibling's result appears in the shared
    /// incumbent slot, then returns that very floorplan — the probe for
    /// cross-engine incumbent sharing.
    struct SharedIncumbentProbe {
        saw_version: Arc<std::sync::atomic::AtomicU64>,
    }

    impl crate::engine::FloorplanEngine for SharedIncumbentProbe {
        fn id(&self) -> &'static str {
            "probe"
        }
        fn description(&self) -> &'static str {
            "test engine that waits for a shared incumbent"
        }
        fn solve(&self, req: &SolveRequest, ctl: &SolveControl) -> SolveOutcome {
            let shared = ctl.shared_incumbent.as_ref().expect("the race installs a shared slot");
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while shared.version() == 0 && !ctl.cancel.is_cancelled() {
                assert!(
                    std::time::Instant::now() < deadline,
                    "no shared incumbent arrived within the deadline"
                );
                std::thread::yield_now();
            }
            let (version, objective, fp) =
                shared.best().expect("a non-zero version implies a stored floorplan");
            self.saw_version.store(version, std::sync::atomic::Ordering::SeqCst);
            let mut metrics = fp.metrics(&req.problem);
            metrics.objective = objective;
            SolveOutcome {
                status: OutcomeStatus::Feasible,
                floorplan: Some(fp),
                metrics: Some(metrics),
                detail: Some("adopted the shared incumbent".into()),
                stats: EngineStats::new("probe"),
            }
        }
    }

    #[test]
    fn losers_feed_their_result_to_still_running_engines() {
        // `fast-loser` finishes immediately with a feasible-but-unproven
        // floorplan; the race must offer it to the shared slot, where the
        // still-running probe engine picks it up. Without the offer the probe
        // would spin to its deadline and panic.
        let saw_version = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let portfolio = Portfolio::new(vec![
            Arc::new(Fixed::new("fast-loser", 7)),
            Arc::new(SharedIncumbentProbe { saw_version: saw_version.clone() }),
        ]);
        let race = portfolio.race(&SolveRequest::new(tiny_problem()));
        assert!(
            saw_version.load(std::sync::atomic::Ordering::SeqCst) > 0,
            "the probe must observe the loser's offer"
        );
        let probe = race.entries.iter().find(|e| e.engine == "probe").unwrap();
        assert_eq!(
            probe.outcome.metrics.as_ref().unwrap().objective,
            7.0,
            "the probe must have received exactly the loser's floorplan"
        );
    }

    #[test]
    fn a_caller_provided_shared_slot_receives_the_offers() {
        let shared = crate::engine::SharedIncumbent::new();
        let ctl = SolveControl { shared_incumbent: Some(shared.clone()), ..Default::default() };
        let portfolio = Portfolio::new(vec![Arc::new(Fixed::new("only", 4))]);
        let race = portfolio.race_controlled(&SolveRequest::new(tiny_problem()), &ctl);
        assert!(race.winner.is_some());
        let (_, objective, _) = shared.best().expect("the caller's slot must be filled");
        assert_eq!(objective, 4.0);
    }

    #[test]
    fn equal_objective_ties_break_by_stable_engine_order_not_finish_order() {
        // Two engines report the *same* objective; the first-registered one
        // is deliberately slowed down so it always finishes last. The winner
        // must still be the first-registered engine, on every run —
        // `rfp solve --portfolio` output would otherwise flap with thread
        // scheduling.
        let problem = tiny_problem();
        for _ in 0..8 {
            let portfolio = Portfolio::new(vec![
                Arc::new(Fixed {
                    id: "first",
                    waste: 5,
                    delay: std::time::Duration::from_millis(30),
                }),
                Arc::new(Fixed::new("second", 5)),
            ]);
            let race = portfolio.race(&SolveRequest::new(problem.clone()));
            let winner = race.winning_entry().expect("both engines are feasible");
            assert_eq!(winner.engine, "first", "tie must break by registration order");
            // The slowed-down engine really did arrive last, so the old
            // finish-order tie-break would have picked `second`.
            assert_eq!(race.entries[0].arrival, 1);
            assert_eq!(race.entries[1].arrival, 0);
        }
    }
}
