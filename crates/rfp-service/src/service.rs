//! The queue-worker solve service.
//!
//! A [`SolveService`] owns a pool of plain `std::thread` workers draining a
//! [`JobQueue`] of [`JobSpec`]s. Each job dispatches to one engine of the
//! service's [`EngineRegistry`] or races a [`Portfolio`] of them, under a
//! per-job [`CancelToken`] so callers can cancel a running job and
//! status-poll it while it runs. Solved outcomes feed the cross-request
//! [`OutcomeCache`]: an identical re-submission is served straight from the
//! cache (no engine runs at all), and a near-identical one warm-starts from
//! the adapted cached floorplan.
//!
//! Lifecycle of a job:
//!
//! ```text
//! submit ──▶ Queued ──▶ Running ──▶ Done(JobResult)
//!               │                      ▲
//!               └── cancel / queue budget expiry ──┘
//! ```
//!
//! Cancelled-before-dispatch and queue-budget-expired jobs still complete —
//! with [`OutcomeStatus::BudgetExhausted`] — so every submitted job id can
//! be joined; nothing is silently dropped.

use crate::cache::{CacheLookup, OutcomeCache};
use crate::queue::{JobQueue, Pop};
use rfp_floorplan::engine::{
    CancelToken, EngineRegistry, EngineStats, OutcomeStatus, SolveControl, SolveDispatcher,
    SolveOutcome, SolveRequest,
};
use rfp_floorplan::fingerprint::ProblemFingerprint;
use rfp_floorplan::portfolio::{Portfolio, RaceOutcome};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service-assigned job identifier (dense, starting at 1).
pub type JobId = u64;

/// Which engine(s) a job runs on.
#[derive(Debug, Clone, Default)]
pub enum EngineChoice {
    /// The service's default engine ([`ServiceConfig::default_engine`]).
    #[default]
    Default,
    /// One engine by registry id.
    Engine(String),
    /// A portfolio race over the named engines (empty = every registered
    /// engine), with cross-engine incumbent sharing.
    Portfolio(Vec<String>),
}

/// A unit of work for the service.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The solve request (problem, budgets, warm-start hint).
    pub request: SolveRequest,
    /// Dispatch priority: higher runs earlier; FIFO within a priority.
    pub priority: i32,
    /// Engine selection.
    pub engine: EngineChoice,
    /// Maximum time the job may sit in the queue. A job popped after its
    /// queue budget expired completes as [`OutcomeStatus::BudgetExhausted`]
    /// without running an engine — it is *reported*, not dropped.
    pub queue_budget: Option<Duration>,
    /// Cancellation token observed by the job (defaults to a fresh token).
    /// Passing a caller-owned token lets an outer context — e.g. a
    /// dispatcher bridging an online simulation — cancel the job directly.
    pub cancel: Option<CancelToken>,
    /// Per-job cache opt-out (e.g. benchmark cold runs).
    pub use_cache: bool,
    /// Collect a per-job trace document. The job's emissions are routed to a
    /// private deterministic collector (instead of the session collector of
    /// [`ServiceConfig::trace`], if any) and the drained `rfp-trace` v1
    /// document is returned on [`JobResult::trace`].
    pub trace: bool,
}

impl JobSpec {
    /// A default-engine, priority-0, cache-enabled job.
    pub fn new(request: SolveRequest) -> Self {
        JobSpec {
            request,
            priority: 0,
            engine: EngineChoice::Default,
            queue_budget: None,
            cancel: None,
            use_cache: true,
            trace: false,
        }
    }

    /// Requests a per-job trace document (see [`JobSpec::trace`]).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Sets the dispatch priority.
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the engine selection.
    pub fn with_engine(mut self, engine: EngineChoice) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the queue budget.
    pub fn with_queue_budget(mut self, budget: Duration) -> Self {
        self.queue_budget = Some(budget);
        self
    }
}

/// Where a finished job's result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Served verbatim from the cache; no engine ran.
    Hit,
    /// Warm-started from a cached (exact or nearby) floorplan.
    Warm {
        /// Fingerprint distance of the donor entry (0 = same problem).
        distance: u64,
    },
    /// Solved cold.
    Miss,
    /// The cache was disabled for this job or service.
    Off,
}

impl std::fmt::Display for CacheDisposition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheDisposition::Hit => f.write_str("hit"),
            CacheDisposition::Warm { .. } => f.write_str("warm"),
            CacheDisposition::Miss => f.write_str("miss"),
            CacheDisposition::Off => f.write_str("off"),
        }
    }
}

/// The completed result of a job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The solve outcome (or the synthetic budget/cancel outcome).
    pub outcome: SolveOutcome,
    /// Cache involvement.
    pub cache: CacheDisposition,
    /// Label of what ran: an engine id, `"portfolio"`, `"cache"`, or
    /// `"queue"` for jobs that never dispatched.
    pub engine: String,
    /// Full per-engine entries when the job raced a portfolio.
    pub race: Option<RaceOutcome>,
    /// The job's deterministic `rfp-trace` v1 document, present iff the job
    /// was submitted with [`JobSpec::trace`].
    pub trace: Option<String>,
}

/// Coarse job state for status polling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted, not yet dispatched to a worker.
    Queued,
    /// A worker is solving it right now.
    Running,
    /// Finished (result available via [`SolveService::result`] /
    /// [`SolveService::join`]).
    Done,
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobState::Queued => f.write_str("queued"),
            JobState::Running => f.write_str("running"),
            JobState::Done => f.write_str("done"),
        }
    }
}

/// A status snapshot of a job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Current state.
    pub state: JobState,
    /// The job's dispatch priority.
    pub priority: i32,
    /// The problem fingerprint (stable across identical re-submissions).
    pub fingerprint: ProblemFingerprint,
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Whether the cross-request outcome cache is consulted and fed. The
    /// cache itself is [`OutcomeCache::default`].
    pub cache: bool,
    /// Engine id used by [`EngineChoice::Default`] jobs.
    pub default_engine: String,
    /// Start with the workers gated: jobs queue up but nothing dispatches
    /// until [`SolveService::start`] (or shutdown, which always releases the
    /// gate so the queue drains). This is how `rfp serve --jobs FILE`
    /// achieves a deterministic submit-everything-then-run schedule.
    pub paused: bool,
    /// Trace collector handle. When set, every worker installs a
    /// `job#####` scope around each job it runs, so solver spans and
    /// counters land on per-job tracks, and queue-wait / busy time is
    /// reported out-of-band via [`rfp_trace::wall`].
    pub trace: Option<rfp_trace::TraceHandle>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            cache: true,
            default_engine: "combinatorial".to_string(),
            paused: false,
            trace: None,
        }
    }
}

enum RecState {
    Queued,
    Running,
    Done(Box<JobResult>),
}

struct JobRecord {
    state: RecState,
    priority: i32,
    submitted: Instant,
    fingerprint: ProblemFingerprint,
    cancel: CancelToken,
}

struct Shared {
    queue: JobQueue<JobSpec>,
    jobs: Mutex<HashMap<JobId, JobRecord>>,
    done: Condvar,
    cache: Mutex<OutcomeCache>,
    registry: EngineRegistry,
    config: ServiceConfig,
    next_id: AtomicU64,
    /// `false` while the service is paused; workers wait here before their
    /// first pop.
    gate: Mutex<bool>,
    gate_open: Condvar,
}

/// The queue-worker solve service. See the [module docs](self).
///
/// Dropping the service shuts it down: the queue is closed, the remaining
/// jobs drain, and the worker threads are joined.
pub struct SolveService {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl SolveService {
    /// Starts the worker pool over the given engine registry.
    pub fn new(registry: EngineRegistry, config: ServiceConfig) -> Self {
        let shared = Arc::new(Shared {
            queue: JobQueue::new(),
            jobs: Mutex::new(HashMap::new()),
            done: Condvar::new(),
            cache: Mutex::new(OutcomeCache::default()),
            registry,
            next_id: AtomicU64::new(1),
            gate: Mutex::new(!config.paused),
            gate_open: Condvar::new(),
            config: config.clone(),
        });
        let workers = (0..config.workers.max(1))
            .map(|w| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared, w))
            })
            .collect();
        SolveService { shared, workers }
    }

    /// Submits a job; returns its id immediately.
    pub fn submit(&self, spec: JobSpec) -> JobId {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let cancel = spec.cancel.clone().unwrap_or_default();
        let record = JobRecord {
            state: RecState::Queued,
            priority: spec.priority,
            submitted: Instant::now(),
            fingerprint: ProblemFingerprint::of(&spec.request.problem),
            cancel,
        };
        let mut jobs = self.lock_jobs();
        jobs.insert(id, record);
        if !self.shared.queue.push(id, spec.priority, spec) {
            // The service is shutting down: complete the job instead of
            // leaving a joiner waiting forever.
            complete(&self.shared, &mut jobs, id, queue_result("service shut down"));
        }
        id
    }

    /// A status snapshot, or `None` for an unknown id.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let jobs = self.lock_jobs();
        jobs.get(&id).map(|r| JobStatus {
            state: match r.state {
                RecState::Queued => JobState::Queued,
                RecState::Running => JobState::Running,
                RecState::Done(_) => JobState::Done,
            },
            priority: r.priority,
            fingerprint: r.fingerprint,
        })
    }

    /// The finished result, or `None` while the job is pending / for an
    /// unknown id.
    pub fn result(&self, id: JobId) -> Option<JobResult> {
        let jobs = self.lock_jobs();
        match jobs.get(&id) {
            Some(JobRecord { state: RecState::Done(result), .. }) => Some((**result).clone()),
            _ => None,
        }
    }

    /// Cancels a job. A still-queued job is pulled from the queue and
    /// completed as cancelled; a running job has its [`CancelToken`] fired
    /// (the engine winds down cooperatively). Returns `false` when the job
    /// is already done or unknown.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut jobs = self.lock_jobs();
        match jobs.get(&id) {
            None | Some(JobRecord { state: RecState::Done(_), .. }) => false,
            Some(JobRecord { state: RecState::Queued, .. }) => {
                if self.shared.queue.remove(id).is_some() {
                    complete(
                        &self.shared,
                        &mut jobs,
                        id,
                        queue_result("cancelled before dispatch"),
                    );
                } else {
                    // A worker popped it between our state read and the
                    // queue removal; fall through to the running path.
                    jobs.get(&id).expect("checked above").cancel.cancel();
                }
                true
            }
            Some(record) => {
                record.cancel.cancel();
                true
            }
        }
    }

    /// Blocks until the job finishes and returns its result (`None` for an
    /// unknown id).
    pub fn join(&self, id: JobId) -> Option<JobResult> {
        let mut jobs = self.lock_jobs();
        loop {
            match jobs.get(&id) {
                None => return None,
                Some(JobRecord { state: RecState::Done(result), .. }) => {
                    return Some((**result).clone())
                }
                _ => {
                    jobs = self.shared.done.wait(jobs).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    /// Number of jobs still queued (not dispatched).
    pub fn queued(&self) -> usize {
        self.shared.queue.len()
    }

    /// The full cache snapshot: hit/near-hit/miss/eviction counters plus
    /// the resident cost-weight mass.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.shared.cache.lock().unwrap_or_else(|e| e.into_inner()).stats()
    }

    /// The engine registry the service dispatches to.
    pub fn registry(&self) -> &EngineRegistry {
        &self.shared.registry
    }

    /// Opens the worker gate of a paused service ([`ServiceConfig::paused`]).
    /// No-op when already open.
    pub fn start(&self) {
        *self.shared.gate.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.shared.gate_open.notify_all();
    }

    /// Closes the queue, drains the remaining jobs and joins the workers.
    /// Idempotent; also performed on drop. A paused service is started
    /// first, so its queued jobs still run to completion.
    pub fn shutdown(&mut self) {
        self.start();
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    fn lock_jobs(&self) -> std::sync::MutexGuard<'_, HashMap<JobId, JobRecord>> {
        self.shared.jobs.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for SolveService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveService")
            .field("workers", &self.workers.len())
            .field("queued", &self.shared.queue.len())
            .field("config", &self.shared.config)
            .finish()
    }
}

/// The synthetic result of a job that never dispatched (cancelled in the
/// queue, queue budget expired, service shut down).
fn queue_result(detail: &str) -> JobResult {
    let mut stats = EngineStats::new("queue");
    stats.cancelled = true;
    JobResult {
        outcome: SolveOutcome::without_floorplan(OutcomeStatus::BudgetExhausted, detail, stats),
        cache: CacheDisposition::Off,
        engine: "queue".to_string(),
        race: None,
        trace: None,
    }
}

fn complete(shared: &Shared, jobs: &mut HashMap<JobId, JobRecord>, id: JobId, result: JobResult) {
    if let Some(record) = jobs.get_mut(&id) {
        record.state = RecState::Done(Box::new(result));
    }
    shared.done.notify_all();
}

fn worker_loop(shared: &Shared, worker: usize) {
    let mut gate = shared.gate.lock().unwrap_or_else(|e| e.into_inner());
    while !*gate {
        gate = shared.gate_open.wait(gate).unwrap_or_else(|e| e.into_inner());
    }
    drop(gate);
    loop {
        let (id, spec) = match shared.queue.pop() {
            Pop::Item { id, item } => (id, item),
            Pop::Closed => return,
        };

        // Transition to Running — or complete immediately when the job was
        // cancelled while queued or out-lived its queue budget.
        let (cancel, fingerprint, queued_for) = {
            let mut jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
            let record = match jobs.get_mut(&id) {
                Some(r) => r,
                None => continue,
            };
            if record.cancel.is_cancelled() {
                let result = queue_result("cancelled before dispatch");
                record.state = RecState::Done(Box::new(result));
                shared.done.notify_all();
                continue;
            }
            if let Some(budget) = spec.queue_budget {
                if record.submitted.elapsed() > budget {
                    let result = queue_result("queue budget expired before dispatch");
                    record.state = RecState::Done(Box::new(result));
                    shared.done.notify_all();
                    continue;
                }
            }
            record.state = RecState::Running;
            (record.cancel.clone(), record.fingerprint, record.submitted.elapsed())
        };

        // Each job records onto its own `job#####` track (job ids are
        // service-unique, so concurrent workers never share a track), with
        // queue-wait and per-worker busy time kept out-of-band. A job
        // submitted with `JobSpec::trace` gets a private deterministic
        // collector instead (innermost scope wins), and its drained document
        // rides back on the result.
        let tracer = spec.trace.then(rfp_trace::Collector::new);
        let job_scope = match &tracer {
            Some(collector) => Some(collector.install(&format!("job{id:05}"))),
            None => shared.config.trace.as_ref().map(|h| h.install(&format!("job{id:05}"))),
        };
        rfp_trace::count("service.jobs", 1);
        rfp_trace::wall("service.queue_wait", queued_for.as_secs_f64());
        let started = Instant::now();
        let mut result = run_job(shared, spec, cancel, &fingerprint);
        rfp_trace::wall(&format!("service.worker{worker}.busy"), started.elapsed().as_secs_f64());
        drop(job_scope);
        if let Some(collector) = tracer {
            result.trace = Some(collector.drain().to_json());
        }

        let mut jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
        complete(shared, &mut jobs, id, result);
    }
}

fn run_job(
    shared: &Shared,
    spec: JobSpec,
    cancel: CancelToken,
    fingerprint: &ProblemFingerprint,
) -> JobResult {
    // Validate a named engine before consulting the cache: a job naming a
    // non-existent engine must fail the same way whether or not a twin
    // problem happens to be cached.
    let named_engine = match &spec.engine {
        EngineChoice::Default => Some(shared.config.default_engine.as_str()),
        EngineChoice::Engine(id) => Some(id.as_str()),
        EngineChoice::Portfolio(_) => None,
    };
    if let Some(id) = named_engine {
        if shared.registry.get(id).is_none() {
            return JobResult {
                outcome: unknown_engine(id),
                cache: CacheDisposition::Off,
                engine: id.to_string(),
                race: None,
                trace: None,
            };
        }
    }

    let use_cache = shared.config.cache && spec.use_cache;
    let mut request = spec.request;
    let mut cache_disposition =
        if use_cache { CacheDisposition::Miss } else { CacheDisposition::Off };

    if use_cache {
        let lookup = {
            let mut cache = shared.cache.lock().unwrap_or_else(|e| e.into_inner());
            cache.lookup(&request.problem, fingerprint)
        };
        match lookup {
            CacheLookup::Exact(outcome) => {
                if outcome.is_proven() {
                    // Identical problem, proven answer: serve it without
                    // running any engine. This is the repeat-job fast path.
                    return JobResult {
                        outcome: *outcome,
                        cache: CacheDisposition::Hit,
                        engine: "cache".to_string(),
                        race: None,
                        trace: None,
                    };
                }
                // Unproven cached answer: re-solve, warm-started from it.
                request = request.with_warm_outcome(&outcome);
                cache_disposition = CacheDisposition::Warm { distance: 0 };
            }
            CacheLookup::Near { warm, distance } => {
                request = request.with_warm_start(warm);
                cache_disposition = CacheDisposition::Warm { distance };
            }
            CacheLookup::Miss => {}
        }
    }

    let ctl = SolveControl::with_cancel(cancel);
    let (engine_label, outcome, race) = {
        let _solve = rfp_trace::span("service.solve");
        dispatch(shared, &spec.engine, &request, &ctl)
    };

    if use_cache {
        let mut cache = shared.cache.lock().unwrap_or_else(|e| e.into_inner());
        cache.insert(&request.problem, &outcome);
    }

    JobResult { outcome, cache: cache_disposition, engine: engine_label, race, trace: None }
}

fn dispatch(
    shared: &Shared,
    choice: &EngineChoice,
    request: &SolveRequest,
    ctl: &SolveControl,
) -> (String, SolveOutcome, Option<RaceOutcome>) {
    let engine_id = match choice {
        EngineChoice::Default => shared.config.default_engine.as_str(),
        EngineChoice::Engine(id) => id.as_str(),
        EngineChoice::Portfolio(ids) => {
            let portfolio = if ids.is_empty() {
                Portfolio::from_registry(&shared.registry)
            } else {
                let mut engines = Vec::new();
                for id in ids {
                    match shared.registry.get(id) {
                        Some(e) => engines.push(e),
                        None => return (id.clone(), unknown_engine(id), None),
                    }
                }
                Portfolio::new(engines)
            };
            let race = portfolio.race_controlled(request, ctl);
            return match race.winner {
                Some(i) => {
                    let entry = &race.entries[i];
                    (entry.engine.clone(), entry.outcome.clone(), Some(race.clone()))
                }
                None => {
                    let budget = race
                        .entries
                        .iter()
                        .any(|e| e.outcome.status == OutcomeStatus::BudgetExhausted);
                    let status = if budget {
                        OutcomeStatus::BudgetExhausted
                    } else {
                        OutcomeStatus::Infeasible
                    };
                    let outcome = SolveOutcome::without_floorplan(
                        status,
                        "no engine of the portfolio produced a floorplan",
                        EngineStats::new("portfolio"),
                    );
                    ("portfolio".to_string(), outcome, Some(race.clone()))
                }
            };
        }
    };
    // `run_job` has rejected an unknown id already.
    (engine_id.to_string(), shared.registry.dispatch(engine_id, request, ctl), None)
}

fn unknown_engine(id: &str) -> SolveOutcome {
    SolveOutcome::without_floorplan(
        OutcomeStatus::Infeasible,
        format!("unknown engine `{id}`"),
        EngineStats::new("service"),
    )
}
