//! Structured tracing and metrics for the relocfp stack, with **zero
//! external dependencies** and **deterministic output**.
//!
//! The design splits the classic tracing concerns along the same line the
//! sweep harness draws between its report and its wall clock:
//!
//! * **Logical structure is deterministic.** Spans carry *logical sequence
//!   numbers* — a counter that ticks once per span boundary, assigned at
//!   drain time in canonical track order — never wall-clock timestamps, so
//!   a trace of a deterministic computation is byte-identical run to run
//!   and can be committed as a golden file. Counters merge by summation and
//!   histograms summarise multisets ([`summarize_counts`]), so neither
//!   depends on thread interleaving.
//! * **Wall clock is opt-in and out-of-band.** A collector built with
//!   [`Collector::with_wall_clock`] additionally accumulates real span
//!   durations and explicit [`wall`] measurements, but those only ever
//!   surface through [`Collector::wall_timings`] — they cannot leak into
//!   the deterministic [`TraceDoc`].
//!
//! # Installation model
//!
//! Nothing here is process-global: a [`Collector`] is installed on the
//! current thread for a lexical scope via [`TraceHandle::install`], which
//! names the **track** the scope's events land on (`"main"`, `"job00003"`,
//! `"milp.helper1"`, an engine id …). Emission ([`span`], [`count`],
//! [`record`], [`wall`]) is a thread-local no-op when no scope is active —
//! one `Cell<bool>` read — which is what keeps fully-uninstrumented runs
//! (and every run of the test suite that doesn't opt in) overhead-free and
//! cross-test-pollution-free.
//!
//! Spawned threads inherit nothing implicitly: code that fans out captures
//! [`current`] before spawning and installs the handle under a new track
//! name inside each worker. A scope that emits nothing flushes nothing —
//! idle workers leave no track behind, which is why a parallel solve that
//! never leaves the root produces the same trace as a serial one.
//!
//! # The document
//!
//! [`Collector::drain`] folds the flushed per-scope buffers into a
//! [`TraceDoc`]: tracks sorted canonically (`"main"` first, the rest
//! lexicographic), each holding a span tree, non-zero counters and count
//! histograms. [`TraceDoc::to_json`] / [`TraceDoc::from_json`] round-trip
//! the `rfp-trace` v1 JSON format through [`json`], the workspace's one
//! JSON codec (depth-capped, integer-exact), which every other crate's
//! formats share.
//!
//! ```
//! let collector = rfp_trace::Collector::new();
//! {
//!     let _scope = collector.handle().install("main");
//!     let _solve = rfp_trace::span("solve");
//!     rfp_trace::count("nodes", 3);
//!     rfp_trace::record("lp.iterations", 17);
//! }
//! let doc = collector.drain();
//! assert_eq!(doc.tracks[0].name, "main");
//! assert_eq!(doc.tracks[0].spans[0].name, "solve");
//! let round = rfp_trace::TraceDoc::from_json(&doc.to_json()).unwrap();
//! assert_eq!(doc, round);
//! ```

mod collect;
mod doc;
pub mod json;

pub use collect::{
    count, current, enabled, record, span, wall, Collector, ScopeGuard, SpanGuard, TraceHandle,
};
pub use doc::{summarize_counts, CountStats, Span, TraceDoc, Track};
