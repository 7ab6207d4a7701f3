//! The `rfp serve` NDJSON protocol.
//!
//! One JSON object per input line, one JSON response line per verb, in
//! order. Five verbs:
//!
//! | verb | fields | effect |
//! |------|--------|--------|
//! | `submit` | `id` (string, unique), `problem` (embedded `rfp-problem` v1), optional `priority` (int), `engine` (string) *or* `portfolio` (array of engine ids, `[]` = all), `time_limit` (secs), `node_limit`, `threads` (worker threads for parallel-capable engines, 0 = engine default), `queue_budget_ms`, `cache` (bool), `trace` (bool: collect a per-job `rfp-trace` v1 document, returned escaped on the job's `done` line) | queue a job |
//! | `status` | `id` | report `queued` / `running` / `done` (done jobs add outcome status, cache disposition and effective thread count) |
//! | `status` | — (no `id`) | service-wide snapshot: submitted/queued job counts and the full cache statistics (hits, near hits, misses, evictions, resident entries and cost-weight mass) |
//! | `cancel` | `id` | cancel a queued or running job |
//! | `stats` | — | live trace-counter snapshot ([`ServiceConfig::trace`]) plus the same cache statistics |
//! | `shutdown` | — | stop reading, drain the queue |
//!
//! End of input acts like `shutdown`. After the drain one `done` line per
//! submitted job is emitted **in submission order**, each carrying the
//! outcome status, the engine that produced it, the cache disposition
//! (`hit` / `warm` / `miss` / `off`), the effective worker thread count the
//! engine ran with and, when a floorplan was found, its objective/metrics
//! and region rectangles. A final `stats` line reports the cache counters.
//!
//! No response field carries wall-clock times or other run-dependent noise,
//! so a fixed job stream on a single-worker deferred service produces
//! byte-identical output — the property the `serve-smoke` CI job pins with
//! a golden file.

use crate::service::{
    CacheDisposition, EngineChoice, JobId, JobSpec, JobState, ServiceConfig, SolveService,
};
use rfp_floorplan::engine::{EngineRegistry, SolveRequest};
use rfp_floorplan::jsonio::{self, JsonValue};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::time::Duration;

/// Summary of a finished serve session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs submitted (including ones later cancelled).
    pub jobs: usize,
    /// Input lines rejected with an error response.
    pub errors: usize,
}

/// Runs a serve session: reads verbs from `input`, writes responses to
/// `output`, drains on `shutdown`/EOF. IO errors abort the session; protocol
/// errors produce `"ok":false` responses and keep it running.
///
/// The session's service runs with `config`. A paused one
/// ([`ServiceConfig::paused`]) runs every job at drain time, which with one
/// worker makes the session deterministic (`--jobs FILE`, the golden
/// tests). Its trace handle also feeds the live `stats` verb, so long-lived
/// sessions should hand in a [`rfp_trace::Collector::counters_only`] one.
pub fn serve(
    input: &mut dyn BufRead,
    output: &mut dyn Write,
    registry: EngineRegistry,
    config: &ServiceConfig,
) -> std::io::Result<ServeSummary> {
    let mut service = SolveService::new(registry, config.clone());
    // Submission order and name → service-id mapping; names are the caller's
    // handles, ids are internal.
    let mut by_name: HashMap<String, JobId> = HashMap::new();
    let mut order: Vec<(String, JobId)> = Vec::new();
    let mut errors = 0usize;

    let mut line = String::new();
    loop {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            break; // EOF drains like `shutdown`.
        }
        if line.trim().is_empty() {
            continue;
        }
        match handle_line(&line, &service, config.trace.as_ref(), &mut by_name, &mut order) {
            Ok(Response::Line(l)) => writeln!(output, "{l}")?,
            Ok(Response::Shutdown(l)) => {
                writeln!(output, "{l}")?;
                break;
            }
            Err(e) => {
                errors += 1;
                writeln!(output, "{}", e.render())?;
            }
        }
        output.flush()?;
    }

    // Drain: open the gate of a deferred service, then join every job in
    // submission order and report it.
    service.start();
    for (name, id) in &order {
        let result = service.join(*id).expect("submitted ids are joinable");
        writeln!(output, "{}", done_line(name, &result))?;
    }
    let (hits, near, misses) = service.cache_counters();
    writeln!(
        output,
        "{{\"verb\":\"stats\",\"jobs\":{},\"cache_hits\":{hits},\"cache_near\":{near},\
         \"cache_misses\":{misses}}}",
        order.len()
    )?;
    output.flush()?;
    service.shutdown();
    Ok(ServeSummary { jobs: order.len(), errors })
}

enum Response {
    Line(String),
    Shutdown(String),
}

struct ProtocolError {
    verb: String,
    id: Option<String>,
    message: String,
}

impl ProtocolError {
    fn render(&self) -> String {
        let mut out = format!("{{\"ok\":false,\"verb\":\"{}\"", jsonio::escape(&self.verb));
        if let Some(id) = &self.id {
            out.push_str(&format!(",\"id\":\"{}\"", jsonio::escape(id)));
        }
        out.push_str(&format!(",\"error\":\"{}\"}}", jsonio::escape(&self.message)));
        out
    }
}

fn handle_line(
    line: &str,
    service: &SolveService,
    trace: Option<&rfp_trace::TraceHandle>,
    by_name: &mut HashMap<String, JobId>,
    order: &mut Vec<(String, JobId)>,
) -> Result<Response, ProtocolError> {
    let fail = |verb: &str, id: Option<&str>, msg: String| ProtocolError {
        verb: verb.to_string(),
        id: id.map(str::to_string),
        message: msg,
    };
    let doc = jsonio::parse(line).map_err(|e| fail("?", None, e.to_string()))?;
    let verb = doc
        .get("verb")
        .and_then(|v| v.as_str().ok().map(str::to_string))
        .ok_or_else(|| fail("?", None, "missing or non-string `verb`".to_string()))?;

    match verb.as_str() {
        "submit" => {
            let id = doc
                .get("id")
                .and_then(|v| v.as_str().ok())
                .ok_or_else(|| fail("submit", None, "submit needs a string `id`".to_string()))?
                .to_string();
            if by_name.contains_key(&id) {
                return Err(fail("submit", Some(&id), format!("duplicate job id `{id}`")));
            }
            let spec = parse_submit(&doc, service).map_err(|m| fail("submit", Some(&id), m))?;
            let job = service.submit(spec);
            by_name.insert(id.clone(), job);
            order.push((id.clone(), job));
            Ok(Response::Line(format!(
                "{{\"ok\":true,\"verb\":\"submit\",\"id\":\"{}\",\"job\":{job},\
                 \"state\":\"queued\"}}",
                jsonio::escape(&id)
            )))
        }
        "status" => {
            if doc.get("id").is_none() {
                // No `id` names the service itself: report the job counts
                // and the full cache statistics.
                return Ok(Response::Line(format!(
                    "{{\"ok\":true,\"verb\":\"status\",\"jobs\":{},\"queued\":{},{}}}",
                    order.len(),
                    service.queued(),
                    cache_fields(&service.cache_stats())
                )));
            }
            let (name, job) = lookup(&doc, by_name).map_err(|m| fail("status", None, m))?;
            let status = service
                .status(job)
                .ok_or_else(|| fail("status", Some(&name), "job record vanished".to_string()))?;
            let mut out = format!(
                "{{\"ok\":true,\"verb\":\"status\",\"id\":\"{}\",\"state\":\"{}\"",
                jsonio::escape(&name),
                status.state
            );
            if status.state == JobState::Done {
                if let Some(result) = service.result(job) {
                    out.push_str(&format!(
                        ",\"status\":\"{}\",\"cache\":\"{}\",\"threads\":{}",
                        result.outcome.status, result.cache, result.outcome.stats.threads
                    ));
                }
            }
            out.push('}');
            Ok(Response::Line(out))
        }
        "cancel" => {
            let (name, job) = lookup(&doc, by_name).map_err(|m| fail("cancel", None, m))?;
            let cancelled = service.cancel(job);
            Ok(Response::Line(format!(
                "{{\"ok\":true,\"verb\":\"cancel\",\"id\":\"{}\",\"cancelled\":{cancelled}}}",
                jsonio::escape(&name)
            )))
        }
        "stats" => {
            let mut out = format!(
                "{{\"ok\":true,\"verb\":\"stats\",\"jobs\":{},\"queued\":{},{},\"counters\":{{",
                order.len(),
                service.queued(),
                cache_fields(&service.cache_stats())
            );
            // Only flushed (finished-job) scopes are visible in the
            // snapshot; an untraced session reports an empty object.
            if let Some(handle) = trace {
                for (i, (name, value)) in handle.counter_snapshot().iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{}\":{value}", jsonio::escape(name)));
                }
            }
            out.push_str("}}");
            Ok(Response::Line(out))
        }
        "shutdown" => Ok(Response::Shutdown(format!(
            "{{\"ok\":true,\"verb\":\"shutdown\",\"pending\":{}}}",
            service.queued()
        ))),
        other => Err(fail(other, None, format!("unknown verb `{other}`"))),
    }
}

/// Renders the shared cache-statistics fields of the service-wide `status`
/// and `stats` responses (no surrounding braces).
fn cache_fields(stats: &crate::cache::CacheStats) -> String {
    format!(
        "\"cache_hits\":{},\"cache_near\":{},\"cache_misses\":{},\"cache_evictions\":{},\
         \"cache_len\":{},\"cache_weight_mass\":{}",
        stats.hits,
        stats.near_hits,
        stats.misses,
        stats.evictions,
        stats.len,
        jsonio::num(stats.weight_mass)
    )
}

fn lookup(doc: &JsonValue, by_name: &HashMap<String, JobId>) -> Result<(String, JobId), String> {
    let name = doc
        .get("id")
        .and_then(|v| v.as_str().ok())
        .ok_or_else(|| "missing string `id`".to_string())?;
    let job = by_name.get(name).copied().ok_or_else(|| format!("unknown job id `{name}`"))?;
    Ok((name.to_string(), job))
}

fn parse_submit(doc: &JsonValue, service: &SolveService) -> Result<JobSpec, String> {
    let problem = jsonio::read_problem_value(doc.get("problem").ok_or("submit needs a `problem`")?)
        .map_err(|e| e.to_string())?;
    problem.validate().map_err(|e| format!("invalid problem: {e}"))?;

    let mut request = SolveRequest::new(problem);
    if let Some(v) = doc.get("time_limit") {
        let secs = v.as_f64().map_err(|e| e.to_string())?;
        if !(secs.is_finite() && secs > 0.0) {
            return Err(format!("invalid time_limit {secs}"));
        }
        request = request.with_time_limit(secs);
    }
    if let Some(v) = doc.get("node_limit") {
        request = request.with_node_limit(v.as_u64().map_err(|e| e.to_string())?);
    }
    if let Some(v) = doc.get("threads") {
        let threads = v.as_u64().map_err(|e| e.to_string())?;
        if threads > 256 {
            return Err(format!("invalid threads {threads} (max 256)"));
        }
        request = request.with_threads(threads as usize);
    }

    let mut spec = JobSpec::new(request);
    if let Some(v) = doc.get("priority") {
        let p = v.as_f64().map_err(|e| e.to_string())?;
        if p.fract() != 0.0 || p.abs() > i32::MAX as f64 {
            return Err(format!("invalid priority {p}"));
        }
        spec.priority = p as i32;
    }
    if let Some(v) = doc.get("queue_budget_ms") {
        spec.queue_budget = Some(Duration::from_millis(v.as_u64().map_err(|e| e.to_string())?));
    }
    if let Some(v) = doc.get("cache") {
        spec.use_cache = v.as_bool().map_err(|e| e.to_string())?;
    }
    if let Some(v) = doc.get("trace") {
        spec.trace = v.as_bool().map_err(|e| e.to_string())?;
    }
    match (doc.get("engine"), doc.get("portfolio")) {
        (Some(_), Some(_)) => return Err("`engine` and `portfolio` are exclusive".to_string()),
        (Some(v), None) => {
            let id = v.as_str().map_err(|e| e.to_string())?;
            if service.registry().get(id).is_none() {
                return Err(format!("unknown engine `{id}`"));
            }
            spec.engine = EngineChoice::Engine(id.to_string());
        }
        (None, Some(v)) => {
            let mut ids = Vec::new();
            for item in v.as_arr().map_err(|e| e.to_string())? {
                let id = item.as_str().map_err(|e| e.to_string())?;
                if service.registry().get(id).is_none() {
                    return Err(format!("unknown engine `{id}` in portfolio"));
                }
                ids.push(id.to_string());
            }
            spec.engine = EngineChoice::Portfolio(ids);
        }
        (None, None) => {}
    }
    Ok(spec)
}

/// Renders one completion line. Deliberately free of wall-clock fields so
/// repeated runs of the same stream compare byte-for-byte.
fn done_line(name: &str, result: &crate::service::JobResult) -> String {
    let mut out = format!(
        "{{\"verb\":\"done\",\"id\":\"{}\",\"engine\":\"{}\",\"status\":\"{}\",\"cache\":\"{}\",\
         \"threads\":{}",
        jsonio::escape(name),
        jsonio::escape(&result.engine),
        result.outcome.status,
        result.cache,
        result.outcome.stats.threads
    );
    if let CacheDisposition::Warm { distance } = result.cache {
        out.push_str(&format!(",\"cache_distance\":{distance}"));
    }
    if let Some(m) = &result.outcome.metrics {
        out.push_str(&format!(
            ",\"objective\":{},\"wasted_frames\":{},\"wirelength\":{},\"fc_found\":{},\
             \"fc_requested\":{}",
            jsonio::num(m.objective),
            m.wasted_frames,
            jsonio::num(m.wirelength),
            m.fc_found,
            m.fc_requested
        ));
    }
    if let Some(fp) = &result.outcome.floorplan {
        out.push_str(",\"regions\":[");
        for (i, r) in fp.regions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{},{},{},{}]", r.x, r.y, r.w, r.h));
        }
        out.push(']');
    }
    if let Some(detail) = &result.outcome.detail {
        out.push_str(&format!(",\"detail\":\"{}\"", jsonio::escape(detail)));
    }
    if let Some(trace) = &result.trace {
        // The `rfp-trace` v1 document is pretty-printed (multi-line), so it
        // rides the single-line NDJSON response as an escaped JSON string;
        // consumers unescape and feed it to `rfp trace summarize` or the
        // `rfp-trace` reader.
        out.push_str(&format!(",\"trace\":\"{}\"", jsonio::escape(trace)));
    }
    out.push('}');
    out
}
