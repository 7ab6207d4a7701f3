//! # rfp-service — queue-worker solve service with a cross-request outcome cache
//!
//! A long-lived solving front-end for the relocation-aware floorplanner:
//! callers submit [`SolveRequest`]s as prioritised jobs; a pool of
//! plain-`std::thread` workers drains them through the
//! [`EngineRegistry`](rfp_floorplan::engine::EngineRegistry)
//! (one engine per job, or a cancellable portfolio race); and every solved
//! outcome feeds a cache keyed on the stable
//! [`ProblemFingerprint`](rfp_floorplan::fingerprint::ProblemFingerprint),
//! so repeat jobs are answered without running an engine and near-repeat
//! jobs warm-start from the adapted cached floorplan.
//!
//! No async runtime, no channels beyond `Mutex` + `Condvar` — the service
//! is small enough to read in one sitting:
//!
//! * [`queue`] — the hand-rolled MPMC priority queue.
//! * [`cache`] — the fingerprint-keyed outcome cache (exact / near / miss).
//! * [`service`] — the worker pool, job lifecycle (submit / status /
//!   cancel / join) and dispatch.
//! * [`protocol`] — the NDJSON `rfp serve` protocol over the v1 JSON
//!   problem format.
//!
//! The service also implements [`SolveDispatcher`], so the online
//! reconfiguration simulator of `rfp-runtime` can route its escalation
//! solves through the shared queue and cache instead of calling engines
//! directly.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
pub mod protocol;
pub mod queue;
pub mod service;

pub use cache::{CacheLookup, CacheStats, OutcomeCache};
pub use protocol::{serve, ServeSummary};
pub use queue::{JobQueue, Pop};
pub use service::{
    CacheDisposition, EngineChoice, JobId, JobResult, JobSpec, JobState, JobStatus, ServiceConfig,
    SolveService,
};

use rfp_floorplan::engine::{SolveControl, SolveDispatcher, SolveOutcome, SolveRequest};

impl SolveDispatcher for SolveService {
    fn dispatch(&self, engine: &str, req: &SolveRequest, ctl: &SolveControl) -> SolveOutcome {
        let spec = JobSpec {
            request: req.clone(),
            priority: 0,
            engine: EngineChoice::Engine(engine.to_string()),
            queue_budget: None,
            // The caller's token is the job's token, so cancelling the outer
            // control cancels the job whether queued or running.
            cancel: Some(ctl.cancel.clone()),
            use_cache: true,
            trace: false,
        };
        let id = self.submit(spec);
        self.join(id).expect("submitted ids are joinable").outcome
    }

    fn knows(&self, engine: &str) -> bool {
        self.registry().get(engine).is_some()
    }
}
