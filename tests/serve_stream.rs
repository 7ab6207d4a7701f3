//! The `rfp serve` NDJSON protocol against the golden job stream.
//!
//! Drives [`relocfp::service::serve`] in-memory over
//! `tests/golden/serve.jobs.jsonl` and compares byte-for-byte with
//! `tests/golden/serve.golden.jsonl` — the same pair the CI `serve-smoke`
//! job replays through the `rfp serve` binary. A paused service (the `--jobs`
//! path) queues the whole stream before the workers start, so the response
//! bytes are reproducible regardless of scheduling.

use relocfp::service::{serve, ServiceConfig};

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn run_stream(jobs: &str, config: &ServiceConfig) -> (String, relocfp::service::ServeSummary) {
    let registry = rfp_baselines::engines::full_registry();
    let mut output: Vec<u8> = Vec::new();
    let summary = serve(&mut jobs.as_bytes(), &mut output, registry, config).expect("in-memory IO");
    (String::from_utf8(output).expect("responses are UTF-8"), summary)
}

#[test]
fn golden_job_stream_replays_byte_for_byte() {
    let jobs = golden("serve.jobs.jsonl");
    let config = ServiceConfig { workers: 1, paused: true, ..ServiceConfig::default() };
    let (responses, summary) = run_stream(&jobs, &config);
    assert_eq!(responses, golden("serve.golden.jsonl"));
    // Three jobs complete (one cancelled); the bad-engine submit and the
    // unknown-id status are the two deliberate protocol errors.
    assert_eq!((summary.jobs, summary.errors), (3, 2));
}

#[test]
fn the_second_identical_job_is_a_cache_hit() {
    let jobs = golden("serve.jobs.jsonl");
    let config = ServiceConfig { workers: 1, paused: true, ..ServiceConfig::default() };
    let (responses, _) = run_stream(&jobs, &config);
    let repeat = responses
        .lines()
        .find(|l| l.contains("\"verb\":\"done\",\"id\":\"repeat\""))
        .expect("the repeat job completes");
    assert!(repeat.contains("\"engine\":\"cache\""), "not served from cache: {repeat}");
    assert!(repeat.contains("\"cache\":\"hit\""), "not a cache hit: {repeat}");
    assert!(responses.contains("\"cache_hits\":1"), "stats line missing the hit:\n{responses}");
}

#[test]
fn a_traced_submit_returns_the_job_trace_on_its_done_line() {
    // `"trace": true` routes the job's emissions into a private deterministic
    // collector and embeds the drained document (escaped) on the done line.
    let jobs = golden("serve.jobs.jsonl");
    let traced = jobs.replacen("\"verb\":\"submit\"", "\"verb\":\"submit\",\"trace\":true", 1);
    assert_ne!(traced, jobs, "golden stream has no submit to trace");
    let config = ServiceConfig { workers: 1, paused: true, ..ServiceConfig::default() };
    let (responses, _) = run_stream(&traced, &config);
    let done = responses
        .lines()
        .find(|l| l.contains("\"verb\":\"done\"") && l.contains("\"trace\":\""))
        .expect("the traced job's done line carries a trace field");
    // The embedded document is the rfp-trace format, NDJSON-safe on one line.
    assert!(done.contains("rfp-trace"), "not a trace document: {done}");
    assert!(!done.contains('\n'), "done line is not single-line");
    // Exactly one job was traced; the rest are unchanged.
    assert_eq!(responses.matches("\"trace\":\"").count(), 1);
}

#[test]
fn untraced_streams_are_byte_identical_to_the_golden_responses() {
    // The `trace` field defaults to off, so its introduction must not move a
    // single byte of the committed golden stream.
    let jobs = golden("serve.jobs.jsonl");
    let config = ServiceConfig { workers: 1, paused: true, ..ServiceConfig::default() };
    let (responses, _) = run_stream(&jobs, &config);
    assert!(!responses.contains("\"trace\":"), "untraced job leaked a trace field");
    assert_eq!(responses, golden("serve.golden.jsonl"));
}

#[test]
fn disabling_the_cache_solves_every_job_cold() {
    let jobs = golden("serve.jobs.jsonl");
    let config =
        ServiceConfig { workers: 1, paused: true, cache: false, ..ServiceConfig::default() };
    let (responses, _) = run_stream(&jobs, &config);
    assert!(!responses.contains("\"cache\":\"hit\""), "cache served despite being off");
    assert!(responses.contains("\"cache_hits\":0"), "stats line reports hits:\n{responses}");
    // Both real jobs still prove, just from separate cold solves.
    assert_eq!(responses.matches("\"status\":\"proven\"").count(), 2);
}

#[test]
fn a_deeply_nested_line_is_an_error_on_the_wire_and_the_session_goes_on() {
    // 200,000 unclosed brackets used to overflow the parser's stack and
    // abort the whole process; now the line gets a protocol error and the
    // next request is still answered.
    let jobs = format!("{}\n{{\"verb\":\"status\"}}\n", "[".repeat(200_000));
    let (responses, summary) = run_stream(&jobs, &ServiceConfig::default());
    let lines: Vec<&str> = responses.lines().collect();
    assert!(lines[0].starts_with("{\"ok\":false,"), "{responses}");
    assert!(lines[0].contains("nesting deeper than"), "{responses}");
    assert!(lines[1].starts_with("{\"ok\":true,\"verb\":\"status\""), "{responses}");
    assert_eq!(summary.errors, 1);
}

#[test]
fn a_huge_time_limit_is_served_and_the_next_job_still_completes() {
    // 1e300 s passes the protocol's finite-and-positive check but overflows
    // a `Duration`; it used to panic the worker and hang the session.
    let submit = golden("serve.jobs.jsonl").lines().next().expect("a first job line").to_string();
    let huge =
        submit.replacen("\"verb\":\"submit\",", "\"verb\":\"submit\",\"time_limit\":1e300,", 1);
    assert_ne!(huge, submit, "the first golden line is not a submit");
    let next = submit.replacen("\"id\":\"warm\"", "\"id\":\"next\"", 1);
    let jobs = format!("{huge}\n{next}\n");
    let (responses, summary) = run_stream(&jobs, &ServiceConfig::default());
    let done: Vec<&str> = responses.lines().filter(|l| l.contains("\"verb\":\"done\"")).collect();
    assert_eq!(done.len(), 2, "{responses}");
    assert!(done.iter().all(|l| l.contains("\"status\":\"proven\"")), "{responses}");
    assert_eq!(summary.errors, 0);
}
