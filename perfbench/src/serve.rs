//! `serve`: an open loop at a fixed offered rate, in bursts, against a
//! long-lived one-worker `SolveService`, driven by one generator thread and
//! one joiner thread. With one worker, jobs finish in submission order, so timing each
//! in-order `join` is exact. Each job is an `rfp-problem` document, decoded
//! at its due time and submitted for `combinatorial`. Afterwards the same
//! stream is submitted all at once to a fresh service — the shape of
//! `rfp serve --jobs` — to measure throughput.

use crate::check::check_outcome;
use crate::inputs::{decode_problem, serve_stream, JobStream};
use crate::timing::{timed_registry, Tallies, TraceReadout};
use crate::{Phase, Workload};
use relocfp::floorplan::engine::{EngineRegistry, SolveControl, SolveRequest};
use relocfp::floorplan::FloorplanProblem;
use relocfp::service::{
    CacheDisposition, EngineChoice, JobResult, JobSpec, JobState, ServiceConfig, SolveService,
};
use relocfp::trace::Collector;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rate of the open loop, in jobs per second.
pub const RATE: f64 = 200.0;

/// Jobs per arrival burst: the generator offers the stream in bursts due
/// every `BURST / RATE` seconds. Within a burst the worker runs back to
/// back, so a job's latency is the decode and service work ahead of it, not
/// the host's thread wake-up latency, which swung a job-by-job open loop's
/// median threefold between runs on a busy host.
const BURST: usize = 20;

/// Share of a phase's seconds spent in the open loop; throughput passes
/// over the same stream fill the rest.
const OPEN_SHARE: f64 = 0.7;

/// Per-job engine budget.
const BUDGET_SECS: f64 = 10.0;

/// Fewest throughput passes per phase; `throughput_ops_s` is their median.
const THROUGHPUT_PASSES: usize = 3;

/// Completion poll interval of the throughput pass.
const POLL: Duration = Duration::from_micros(500);

/// Latency limit of `within_limit_share`, at the fixed offered rate.
pub const LIMIT_SECS: f64 = 0.01;

pub struct Serve {
    stream: JobStream,
    registry: EngineRegistry,
    tallies: Arc<Tallies>,
    /// The service started by the set-up, used by the first phase.
    service: Option<SolveService>,
    /// Cold proven objective of each distinct problem, computed on demand.
    cold: Vec<Option<Option<f64>>>,
}

/// One job as the harness saw it.
struct Job {
    index: usize,
    lag: f64,
    decode: f64,
    submit: f64,
    latency: f64,
    result: Result<JobResult, String>,
}

impl Serve {
    /// Submits `docs` at once to a fresh, paused service, releases it and
    /// returns the seconds until the last job is done, plus every result.
    fn throughput_pass(&self, docs: &[String]) -> (f64, Vec<Result<JobResult, String>>) {
        let mut batch = start(&self.registry, None, true);
        let t0 = Instant::now();
        let ids: Vec<_> = docs.iter().map(|doc| decode_and_submit(&batch, doc).2).collect();
        batch.start();
        // One worker runs the jobs in submission order: the stream is done
        // when its last job is. Polling keeps this thread off the service's
        // completion lock while the worker runs.
        if let Some(Ok(last)) = ids.iter().rev().find(|id| id.is_ok()) {
            while batch.status(*last).is_some_and(|s| s.state != JobState::Done) {
                std::thread::sleep(POLL);
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        let results = ids
            .into_iter()
            .map(|id| id.map(|id| batch.join(id).expect("submitted ids are joinable")))
            .collect();
        batch.shutdown();
        (wall, results)
    }

    /// Checks job `index` against its problem and its cold answer: a hit or
    /// a warm answer must match the cold one and be proven. Returns whether
    /// the job passed.
    fn check(&mut self, index: usize, result: &Result<JobResult, String>, p: &mut Phase) -> bool {
        let problem_index = self.stream.problem_of[index];
        p.attempted += 1;
        let verdict = match result {
            Err(e) => Err(e.clone()),
            Ok(result) => {
                let cold = self.cold(problem_index);
                let problem = &self.stream.problems[problem_index];
                let verdict = check_outcome(problem, &result.outcome, cold);
                let reused =
                    matches!(result.cache, CacheDisposition::Hit | CacheDisposition::Warm { .. });
                match (verdict, cold) {
                    (Ok(()), None) if reused => {
                        Err("no cold answer to compare the reused answer with".into())
                    }
                    (Ok(()), Some(_)) if reused && !result.outcome.is_proven() => {
                        Err(format!("{} answer is not proven", result.cache))
                    }
                    (v, _) => v,
                }
            }
        };
        let ok = verdict.is_ok();
        p.failures.record(&format!("job {index} ({:?})", self.stream.kinds[index]), verdict);
        ok
    }

    /// The cold proven objective of distinct problem `i`.
    fn cold(&mut self, i: usize) -> Option<f64> {
        let problem = &self.stream.problems[i];
        *self.cold[i].get_or_insert_with(|| {
            let outcome = EngineRegistry::builtin()
                .get("combinatorial")
                .expect("builtin engine")
                .solve(&SolveRequest::new(problem.clone()), &SolveControl::default());
            outcome.is_proven().then(|| outcome.metrics.map(|m| m.objective)).flatten()
        })
    }
}

/// Starts a one-worker service and runs the untimed warm-up job on it. The
/// warm-up job traces into a private collector, so the service-wide trace only
/// sees the measured jobs.
fn start(registry: &EngineRegistry, trace: Option<&Collector>, paused: bool) -> SolveService {
    let service = SolveService::new(
        registry.clone(),
        ServiceConfig {
            workers: 1,
            paused,
            trace: trace.map(Collector::handle),
            ..ServiceConfig::default()
        },
    );
    if !paused {
        let warm_up = crate::inputs::serve_stream(0, 1, BURST).problems.remove(0);
        let id = service.submit(job(warm_up).with_trace());
        service.join(id).expect("submitted ids are joinable");
    }
    service
}

fn job(problem: FloorplanProblem) -> JobSpec {
    let request = SolveRequest::new(problem).with_time_limit(BUDGET_SECS).with_threads(1);
    JobSpec::new(request).with_engine(EngineChoice::Engine("combinatorial".into()))
}

/// Decodes and validates a job document, then submits it.
fn decode_and_submit(service: &SolveService, doc: &str) -> (f64, f64, Result<u64, String>) {
    let t0 = Instant::now();
    let problem = decode_problem(doc.as_bytes())
        .and_then(|p| p.validate().map(|()| p).map_err(|e| e.to_string()));
    let t1 = Instant::now();
    let id = problem.map(|p| service.submit(job(p)));
    let t2 = Instant::now();
    (t1.duration_since(t0).as_secs_f64(), t2.duration_since(t1).as_secs_f64(), id)
}

/// Sleeps until shortly before `due`, then spins: a plain sleep overshoots
/// by up to a few hundred microseconds here, which would swamp the latency
/// of a cache hit with generator lag.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(500);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// The open loop over the first `n` jobs of the stream.
fn open_loop(service: &SolveService, docs: &[String]) -> Vec<Job> {
    let (tx, rx) = mpsc::channel::<(usize, Instant, f64, f64, f64, Result<u64, String>)>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let origin = Instant::now();
            for (index, doc) in docs.iter().enumerate() {
                let due = origin + Duration::from_secs_f64((index / BURST * BURST) as f64 / RATE);
                wait_until(due);
                let lag = due.elapsed().as_secs_f64();
                let (decode, submit, id) = decode_and_submit(service, doc);
                if tx.send((index, due, lag, decode, submit, id)).is_err() {
                    return;
                }
            }
        });
        let joiner = scope.spawn(move || {
            rx.into_iter()
                .map(|(index, due, lag, decode, submit, id)| {
                    let result = id.map(|id| service.join(id).expect("submitted ids are joinable"));
                    let latency = due.elapsed().as_secs_f64();
                    Job { index, lag, decode, submit, latency, result }
                })
                .collect::<Vec<Job>>()
        });
        joiner.join().expect("the joiner thread does not panic")
    })
}

impl Workload for Serve {
    fn setup(seed: u64, seconds: f64) -> Self {
        let jobs = (RATE * OPEN_SHARE * seconds).ceil() as usize;
        let stream = serve_stream(seed, jobs, BURST);
        let tallies = Arc::new(Tallies::default());
        let registry = timed_registry(&tallies);
        let service = start(&registry, None, false);
        let cold = vec![None; stream.problems.len()];
        Serve { stream, registry, tallies, service: Some(service), cold }
    }

    fn phase(&mut self, seconds: f64, trace: Option<&Collector>) -> Phase {
        let n = ((RATE * OPEN_SHARE * seconds).ceil() as usize).min(self.stream.docs.len());
        let docs = self.stream.docs[..n].to_vec();
        let mut p = Phase::default();

        let mut service = match (trace, self.service.take()) {
            (None, Some(service)) => service,
            (_, stale) => {
                drop(stale);
                start(&self.registry, trace, false)
            }
        };
        self.tallies.take();
        let jobs = open_loop(&service, &docs);
        let stats = service.cache_stats();
        service.shutdown();
        drop(service);
        let (engines, dispatch) = self.tallies.take();
        p.readout = trace.map(TraceReadout::of);
        p.engines = engines;
        p.dispatch = dispatch;
        p.add_cache(&stats);
        for job in &jobs {
            p.add("lag", job.lag);
            p.add("decode", job.decode);
            p.add("submit", job.submit);
            p.add("bytes", docs[job.index].len() as f64);
            p.latencies.push(job.latency);
            let ok = self.check(job.index, &job.result, &mut p);
            let outcome = job.result.as_ref().ok().map(|r| &r.outcome);
            p.proven += outcome.is_some_and(crate::settled) as u64;
            p.proven_of += 1;
            p.accepted += outcome.is_some_and(|o| o.floorplan.is_some()) as u64;
            p.within_limit += (ok && job.latency <= LIMIT_SECS) as u64;
        }
        p.ops = jobs.len() as u64;

        // Throughput: the same stream, submitted all at once to a fresh,
        // paused service, then released; the median of as many such passes
        // as fill the rest of the phase.
        let mut walls = Vec::new();
        let mut results = Vec::new();
        let started = Instant::now();
        let budget = (1.0 - OPEN_SHARE) * seconds;
        while walls.len() < THROUGHPUT_PASSES || started.elapsed().as_secs_f64() < budget {
            let (wall, pass) = self.throughput_pass(&docs);
            walls.push(wall);
            results = pass;
        }
        p.wall = crate::stats::median(&walls);
        for (index, result) in results.iter().enumerate() {
            self.check(index, result, &mut p);
        }
        p.throughput_ops = results.len() as u64;
        p
    }
}
