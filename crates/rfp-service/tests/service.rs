//! Job-lifecycle, queue-semantics and cache tests for [`SolveService`].

use rfp_device::{columnar_partition, DeviceBuilder, ResourceVec};
use rfp_floorplan::engine::{
    CancelToken, EngineRegistry, EngineStats, FloorplanEngine, OutcomeStatus, SolveControl,
    SolveOutcome, SolveRequest,
};
use rfp_floorplan::problem::{FloorplanProblem, ObjectiveWeights, RegionSpec};
use rfp_service::{CacheDisposition, EngineChoice, JobSpec, JobState, ServiceConfig, SolveService};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn tiny_problem() -> FloorplanProblem {
    let mut b = DeviceBuilder::new("service-tiny");
    let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
    let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
    b.rows(3).columns(&[clb, clb, bram, clb, clb]);
    let mut p = FloorplanProblem::new(columnar_partition(&b.build().unwrap()).unwrap());
    p.weights = ObjectiveWeights::area_only();
    p.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
    p.add_region(RegionSpec::new("B", vec![(clb, 2)]));
    p
}

/// A problem near `tiny_problem`: same device, one extra region.
fn near_problem() -> FloorplanProblem {
    let mut p = tiny_problem();
    let clb = p.partition.tile_type_at(1, 1).unwrap();
    p.add_region(RegionSpec::new("C", vec![(clb, 1)]));
    p
}

fn single_worker(registry: EngineRegistry) -> SolveService {
    SolveService::new(registry, ServiceConfig { workers: 1, ..ServiceConfig::default() })
}

/// An engine that records its dispatch order and spins until cancelled or
/// released — the controllable stand-in for a long solve.
struct Gate {
    order: Arc<Mutex<Vec<String>>>,
    tag: String,
    hold: bool,
}

impl FloorplanEngine for Gate {
    fn id(&self) -> &'static str {
        "gate"
    }
    fn description(&self) -> &'static str {
        "test engine"
    }
    fn solve(&self, req: &SolveRequest, ctl: &SolveControl) -> SolveOutcome {
        self.order.lock().unwrap().push(self.tag.clone());
        while self.hold && !ctl.cancel.is_cancelled() {
            std::thread::yield_now();
        }
        let mut stats = EngineStats::new("gate");
        stats.cancelled = ctl.cancel.is_cancelled();
        let _ = req;
        SolveOutcome::without_floorplan(OutcomeStatus::BudgetExhausted, "gate", stats)
    }
}

#[test]
fn priority_order_is_high_first_fifo_within() {
    // Deterministic variant: paused single-worker service, per-priority
    // engines that append their tag when dispatched.
    let order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));

    struct Tagged {
        order: Arc<Mutex<Vec<String>>>,
        id: &'static str,
    }
    impl FloorplanEngine for Tagged {
        fn id(&self) -> &'static str {
            self.id
        }
        fn description(&self) -> &'static str {
            "tagged"
        }
        fn solve(&self, _req: &SolveRequest, _ctl: &SolveControl) -> SolveOutcome {
            self.order.lock().unwrap().push(self.id.to_string());
            SolveOutcome::without_floorplan(
                OutcomeStatus::BudgetExhausted,
                "tag",
                EngineStats::new(self.id),
            )
        }
    }

    let mut registry = EngineRegistry::empty();
    for id in ["t-low", "t-high", "t-mid", "t-low2"] {
        registry.register(Arc::new(Tagged { order: order.clone(), id }));
    }
    let mut service = SolveService::new(
        registry,
        ServiceConfig { workers: 1, paused: true, cache: false, ..ServiceConfig::default() },
    );
    let spec = |engine: &str, prio: i32| {
        JobSpec::new(SolveRequest::new(tiny_problem()))
            .with_engine(EngineChoice::Engine(engine.to_string()))
            .with_priority(prio)
    };
    service.submit(spec("t-low", 0));
    service.submit(spec("t-high", 5));
    service.submit(spec("t-mid", 2));
    service.submit(spec("t-low2", 0));
    service.shutdown(); // opens the gate, drains, joins
    assert_eq!(
        *order.lock().unwrap(),
        vec!["t-high".to_string(), "t-mid".to_string(), "t-low".to_string(), "t-low2".to_string()]
    );
}

#[test]
fn queue_budget_expiry_reports_budget_exhausted_not_dropped() {
    let service = SolveService::new(
        EngineRegistry::builtin(),
        ServiceConfig { workers: 1, paused: true, ..ServiceConfig::default() },
    );
    let id = service.submit(
        JobSpec::new(SolveRequest::new(tiny_problem())).with_queue_budget(Duration::from_millis(0)),
    );
    // Let the zero budget expire while the service is still paused.
    std::thread::sleep(Duration::from_millis(5));
    service.start();
    let result = service.join(id).expect("an expired job must still be joinable");
    assert_eq!(result.outcome.status, OutcomeStatus::BudgetExhausted);
    assert_eq!(result.engine, "queue");
    assert!(result.outcome.detail.as_deref().unwrap().contains("queue budget"));
}

#[test]
fn cancel_before_dispatch_completes_the_job() {
    let service = SolveService::new(
        EngineRegistry::builtin(),
        ServiceConfig { workers: 1, paused: true, ..ServiceConfig::default() },
    );
    let id = service.submit(JobSpec::new(SolveRequest::new(tiny_problem())));
    assert_eq!(service.status(id).unwrap().state, JobState::Queued);
    assert!(service.cancel(id), "a queued job must be cancellable");
    let result = service.join(id).expect("cancelled jobs still complete");
    assert_eq!(result.outcome.status, OutcomeStatus::BudgetExhausted);
    assert!(result.outcome.stats.cancelled);
    assert!(result.outcome.detail.as_deref().unwrap().contains("before dispatch"));
    assert!(!service.cancel(id), "a done job reports cancel=false");
}

#[test]
fn running_job_can_be_status_polled_and_cancelled() {
    // The acceptance scenario: submit a long-running job, observe it
    // `Running` via status polling, cancel it, and see the engine wind down
    // through its CancelToken.
    let order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let mut registry = EngineRegistry::empty();
    registry.register(Arc::new(Gate { order, tag: "long".to_string(), hold: true }));
    let token = CancelToken::new();
    let service = single_worker(registry);
    let mut spec = JobSpec::new(SolveRequest::new(tiny_problem()))
        .with_engine(EngineChoice::Engine("gate".to_string()));
    spec.cancel = Some(token.clone());
    let id = service.submit(spec);

    // Poll until the worker picks it up.
    while service.status(id).unwrap().state != JobState::Running {
        std::thread::yield_now();
    }
    assert!(service.result(id).is_none(), "no result while running");
    assert!(!token.is_cancelled());

    assert!(service.cancel(id), "a running job must be cancellable");
    assert!(token.is_cancelled(), "cancel must fire the job's CancelToken");
    let result = service.join(id).expect("the cancelled job completes");
    assert_eq!(service.status(id).unwrap().state, JobState::Done);
    assert!(result.outcome.stats.cancelled, "the engine observed the token");
}

#[test]
fn concurrent_submit_and_poll_from_many_threads() {
    let service = Arc::new(SolveService::new(
        EngineRegistry::builtin(),
        ServiceConfig { workers: 2, ..ServiceConfig::default() },
    ));
    let completed = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for t in 0..4 {
            let service = service.clone();
            let completed = completed.clone();
            scope.spawn(move || {
                for i in 0..3 {
                    let id = service.submit(
                        JobSpec::new(SolveRequest::new(tiny_problem())).with_priority((t + i) % 3),
                    );
                    // Interleave polling with other threads' submissions.
                    loop {
                        match service.status(id).unwrap().state {
                            JobState::Done => break,
                            _ => std::thread::yield_now(),
                        }
                    }
                    let result = service.result(id).expect("done implies result");
                    assert!(result.outcome.status.has_floorplan());
                    completed.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
    });
    assert_eq!(completed.load(Ordering::SeqCst), 12);
    let cache = service.cache_stats();
    // 12 identical problems: the first solve misses, and every job that
    // started after it completed hits. At least one of each is guaranteed.
    assert!(cache.misses >= 1);
    assert!(cache.hits >= 1, "identical re-submissions must eventually hit the cache");
}

#[test]
fn identical_resubmission_is_served_from_the_cache() {
    let service = single_worker(EngineRegistry::builtin());
    let first = service.submit(JobSpec::new(SolveRequest::new(tiny_problem())));
    let r1 = service.join(first).unwrap();
    assert_eq!(r1.cache, CacheDisposition::Miss);
    assert!(r1.outcome.is_proven());

    let second = service.submit(JobSpec::new(SolveRequest::new(tiny_problem())));
    let r2 = service.join(second).unwrap();
    assert_eq!(r2.cache, CacheDisposition::Hit, "same fingerprint must hit");
    assert_eq!(r2.engine, "cache", "no engine may run for an exact proven hit");
    assert_eq!(r2.outcome.floorplan, r1.outcome.floorplan);
    // Status carries the fingerprint; both jobs digest identically.
    assert_eq!(
        service.status(first).unwrap().fingerprint.digest(),
        service.status(second).unwrap().fingerprint.digest()
    );
}

#[test]
fn near_problem_warm_starts_from_the_cache() {
    let service = single_worker(EngineRegistry::builtin());
    let base = service.submit(JobSpec::new(SolveRequest::new(tiny_problem())));
    assert!(service.join(base).unwrap().outcome.is_proven());

    let near = service.submit(JobSpec::new(SolveRequest::new(near_problem())));
    let r = service.join(near).unwrap();
    match r.cache {
        CacheDisposition::Warm { distance } => assert!(distance > 0),
        other => panic!("expected a warm near-hit, got {other:?}"),
    }
    assert!(r.outcome.status.has_floorplan(), "{:?}", r.outcome.detail);
    assert_eq!(service.cache_stats().near_hits, 1);
}

#[test]
fn cache_opt_out_always_solves_cold() {
    let service = single_worker(EngineRegistry::builtin());
    let mut spec = JobSpec::new(SolveRequest::new(tiny_problem()));
    spec.use_cache = false;
    let a = service.submit(spec.clone());
    let b = service.submit(spec);
    assert_eq!(service.join(a).unwrap().cache, CacheDisposition::Off);
    assert_eq!(service.join(b).unwrap().cache, CacheDisposition::Off);
    let cache = service.cache_stats();
    assert_eq!((cache.hits, cache.near_hits, cache.misses), (0, 0, 0));
}

#[test]
fn portfolio_jobs_carry_the_full_race() {
    let service = single_worker(EngineRegistry::builtin());
    let spec =
        JobSpec::new(SolveRequest::new(tiny_problem())).with_engine(EngineChoice::Portfolio(vec![
            "combinatorial".to_string(),
            "milp".to_string(),
        ]));
    let id = service.submit(spec);
    let result = service.join(id).unwrap();
    assert!(result.outcome.is_proven());
    let race = result.race.expect("portfolio jobs report the race");
    assert_eq!(race.entries.len(), 2);
    assert!(["combinatorial", "milp"].contains(&result.engine.as_str()));
}

#[test]
fn dispatcher_bridge_routes_through_queue_and_cache() {
    use rfp_floorplan::engine::SolveDispatcher;
    let service = single_worker(EngineRegistry::builtin());
    let ctl = SolveControl::default();
    let req = SolveRequest::new(tiny_problem());
    let first = service.dispatch("combinatorial", &req, &ctl);
    assert!(first.is_proven());
    let second = service.dispatch("combinatorial", &req, &ctl);
    assert_eq!(second.floorplan, first.floorplan);
    assert_eq!(service.cache_stats().hits, 1, "the second dispatch must be an exact cache hit");
    // Unknown engines surface as infeasible outcomes, not panics.
    let unknown = service.dispatch("nonsense", &req, &ctl);
    assert_eq!(unknown.status, OutcomeStatus::Infeasible);
}

#[test]
fn shutdown_drains_queued_jobs() {
    let mut service = SolveService::new(
        EngineRegistry::builtin(),
        ServiceConfig { workers: 1, paused: true, ..ServiceConfig::default() },
    );
    let ids: Vec<_> =
        (0..3).map(|_| service.submit(JobSpec::new(SolveRequest::new(tiny_problem())))).collect();
    assert_eq!(service.queued(), 3);
    service.shutdown();
    for id in ids {
        let result = service.result(id).expect("drained jobs have results");
        assert!(result.outcome.status.has_floorplan());
    }
}

/// One of three mid-size problems on the same 14x4 device, differing in one
/// region's load: big enough that a cold combinatorial solve costs real
/// work, small enough that a stream of them finishes in seconds.
fn stream_problem(variant: u32) -> FloorplanProblem {
    let mut b = DeviceBuilder::new("serve-load");
    let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
    let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
    b.rows(4).columns(&[clb, clb, bram, clb, clb, clb, bram, clb, clb, clb, bram, clb, clb, clb]);
    let mut p = FloorplanProblem::new(columnar_partition(&b.build().unwrap()).unwrap());
    p.weights = ObjectiveWeights::area_only();
    p.add_region(RegionSpec::new("A", vec![(clb, 4), (bram, 1)]));
    p.add_region(RegionSpec::new("B", vec![(clb, 2 + variant)]));
    p.add_region(RegionSpec::new("C", vec![(clb, 3), (bram, 1)]));
    p.add_region(RegionSpec::new("D", vec![(clb, 2)]));
    p
}

/// The acceptance bar of the outcome cache: a repeat-heavy stream (3
/// distinct problems x 6 rounds through 2 workers) is at least 2x faster,
/// in the mean over 2 samples, with the cache on than with it off. The
/// margin is wide — a hit costs microseconds, a cold solve milliseconds —
/// so the bar holds on a noisy machine.
#[test]
fn the_cache_makes_a_repeat_heavy_stream_at_least_2x_faster() {
    let mean_seconds = |cache: bool| {
        let samples = 2;
        let mut total = 0.0;
        for _ in 0..samples {
            let service = SolveService::new(
                rfp_baselines::engines::full_registry(),
                ServiceConfig { workers: 2, cache, ..ServiceConfig::default() },
            );
            let start = std::time::Instant::now();
            let ids: Vec<_> = (0..6)
                .flat_map(|_| 0..3)
                .map(|v| service.submit(JobSpec::new(SolveRequest::new(stream_problem(v)))))
                .collect();
            for id in ids {
                service.join(id).expect("submitted ids are joinable");
            }
            total += start.elapsed().as_secs_f64();
        }
        total / samples as f64
    };
    let on = mean_seconds(true);
    let off = mean_seconds(false);
    let speedup = off / on.max(1e-9);
    assert!(speedup >= 2.0, "cache speedup below the 2x bar: {speedup:.2}x ({off:.4}s / {on:.4}s)");
}
