//! Smoke tests for the figure/table generator binaries: every binary must
//! run to completion and print its headline artefact.
//!
//! The solver-backed binaries accept a per-solve time limit (seconds) as
//! their first argument; the smoke runs use a small limit so the suite stays
//! fast — the combinatorial engine finds its incumbents well inside it, it
//! only gives up on *proving* optimality sooner.

use std::process::Command;

fn run(exe: &str, args: &[&str]) -> String {
    let output = Command::new(exe).args(args).output().expect("binary spawns");
    assert!(
        output.status.success(),
        "{exe} {args:?} exited with {:?}\nstderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("binaries print UTF-8")
}

#[test]
fn figure1_prints_the_compatibility_example() {
    let out = run(env!("CARGO_BIN_EXE_figure1"), &[]);
    assert!(out.contains("Figure 1"), "unexpected output:\n{out}");
    assert!(out.contains("A vs B"), "unexpected output:\n{out}");
}

#[test]
fn figure2_prints_the_partitioning_example() {
    let out = run(env!("CARGO_BIN_EXE_figure2"), &[]);
    assert!(out.contains("Figure 2"), "unexpected output:\n{out}");
    assert!(out.contains("Columnar portions"), "unexpected output:\n{out}");
}

#[test]
fn figure3_prints_the_offset_example() {
    let out = run(env!("CARGO_BIN_EXE_figure3"), &[]);
    assert!(out.contains("Figure 3"), "unexpected output:\n{out}");
}

#[test]
fn figure4_renders_the_sdr2_floorplan() {
    let out = run(env!("CARGO_BIN_EXE_figure4"), &["10"]);
    assert!(out.contains("Figure 4"), "unexpected output:\n{out}");
    assert!(out.contains("wasted frames"), "unexpected output:\n{out}");
}

#[test]
fn figure5_renders_the_sdr3_floorplan() {
    let out = run(env!("CARGO_BIN_EXE_figure5"), &["10"]);
    assert!(out.contains("Figure 5"), "unexpected output:\n{out}");
    assert!(out.contains("wasted frames"), "unexpected output:\n{out}");
}

#[test]
fn table1_prints_the_resource_requirements() {
    let out = run(env!("CARGO_BIN_EXE_table1"), &[]);
    assert!(out.contains("Table I"), "unexpected output:\n{out}");
    assert!(out.contains("|"), "expected a markdown table:\n{out}");
}

#[test]
fn table2_prints_the_floorplan_comparison() {
    let out = run(env!("CARGO_BIN_EXE_table2"), &["10"]);
    assert!(out.contains("Table II"), "unexpected output:\n{out}");
    assert!(out.contains("|"), "expected a markdown table:\n{out}");
}

#[test]
fn feasibility_prints_the_per_region_verdicts() {
    let out = run(env!("CARGO_BIN_EXE_feasibility"), &[]);
    assert!(out.contains("feasibility analysis"), "unexpected output:\n{out}");
}

#[test]
fn solve_times_prints_both_engine_studies() {
    let out = run(env!("CARGO_BIN_EXE_solve_times"), &["5"]);
    assert!(out.contains("Solve-time study"), "unexpected output:\n{out}");
    assert!(out.contains("SDR3"), "unexpected output:\n{out}");
    // The MILP rows must report a real solve (the warm-started MILP path),
    // not the historical "no feasible floorplan" failure, for both models.
    assert!(out.contains("| O (revised) |"), "unexpected output:\n{out}");
    assert!(out.contains("| HO (revised) |"), "unexpected output:\n{out}");
    assert!(out.contains("ms/LP solve"), "unexpected output:\n{out}");
    assert!(!out.contains("dense"), "the dense LP row is gone:\n{out}");
    assert!(!out.contains("error:"), "an engine errored:\n{out}");
}

#[test]
fn solve_times_quick_writes_the_bench_json() {
    let path = std::env::temp_dir().join(format!("solve_times_smoke_{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let out = run(env!("CARGO_BIN_EXE_solve_times"), &["2", "--quick", "--json", path_str]);
    assert!(out.contains("BENCH JSON written"), "unexpected output:\n{out}");
    let json = std::fs::read_to_string(&path).expect("JSON artefact exists");
    let _ = std::fs::remove_file(&path);
    assert!(json.contains("\"schema\":\"rfp-bench/solve_times/v3\""), "bad JSON:\n{json}");
    assert!(json.contains("\"lp_seconds_per_solve\""), "bad JSON:\n{json}");
    assert!(!json.contains("lp_resolve_speedup"), "the dense speedup key is gone:\n{json}");
    assert!(json.contains("\"quick\":true"), "bad JSON:\n{json}");
    // Quick mode skips the big designs entirely.
    assert!(!json.contains("SDR3"), "quick mode must skip SDR3:\n{json}");
}

#[test]
fn serve_load_shows_the_cache_speedup_and_writes_json() {
    let path = std::env::temp_dir().join(format!("serve_load_smoke_{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let out = run(
        env!("CARGO_BIN_EXE_serve_load"),
        &["--rounds", "6", "--samples", "2", "--json", path_str],
    );
    assert!(out.contains("Solve-service throughput"), "unexpected output:\n{out}");
    assert!(out.contains("cache-on"), "unexpected output:\n{out}");
    assert!(out.contains("cache-off"), "unexpected output:\n{out}");
    let json = std::fs::read_to_string(&path).expect("JSON artefact exists");
    let _ = std::fs::remove_file(&path);
    assert!(json.contains("\"schema\":\"rfp-bench/serve_load/v1\""), "bad JSON:\n{json}");
    assert!(json.contains("\"cache_hits\""), "bad JSON:\n{json}");
    // The acceptance bar of the solve service: a repeat-heavy stream must be
    // at least 2x faster with the outcome cache on. The margin is wide (a
    // cache hit is microseconds, a cold solve hundreds of milliseconds), so
    // this is safe to assert even on noisy CI machines.
    let speedup: f64 = json
        .split("\"speedup\":")
        .nth(1)
        .and_then(|s| s.trim_end_matches(['}', '\n']).parse().ok())
        .expect("speedup field parses");
    assert!(speedup >= 2.0, "cache speedup below the 2x bar: {speedup:.2}x\n{json}");
}

#[test]
fn solver_bench_times_every_thread_count_and_writes_json() {
    let path = std::env::temp_dir().join(format!("solver_bench_smoke_{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    // Two thread counts, two samples and only the smallest instance keep the
    // smoke fast; the binary always adds the serial baseline itself.
    let out = run(
        env!("CARGO_BIN_EXE_solver_bench"),
        &["--quick", "--threads", "2", "--samples", "2", "--json", path_str],
    );
    assert!(out.contains("Solver bench"), "unexpected output:\n{out}");
    assert!(out.contains("| cols | threads |"), "expected the timing table:\n{out}");
    assert!(out.contains("best parallel speedup"), "unexpected output:\n{out}");
    let json = std::fs::read_to_string(&path).expect("JSON artefact exists");
    let _ = std::fs::remove_file(&path);
    assert!(json.contains("\"schema\":\"rfp-bench/solver_bench/v1\""), "bad JSON:\n{json}");
    assert!(json.contains("\"quick\":true"), "bad JSON:\n{json}");
    assert!(json.contains("\"sample_size\":2"), "bad JSON:\n{json}");
    assert!(json.contains("\"mean_seconds\""), "bad JSON:\n{json}");
    assert!(json.contains("\"p95_seconds\""), "bad JSON:\n{json}");
    assert!(json.contains("\"speedup_vs_serial\""), "bad JSON:\n{json}");
    assert!(json.contains("\"largest_instance_best_speedup\""), "bad JSON:\n{json}");
    // The serial baseline is always present alongside the requested counts.
    assert!(json.contains("\"thread_counts\":[1,2]"), "bad JSON:\n{json}");
}

#[test]
fn the_committed_solver_bench_artefact_is_current() {
    // The repo commits a full-sweep BENCH_solver.json as the PR-over-PR
    // record; keep it in the current schema with the serial baseline and at
    // least one parallel mode per instance.
    let path = format!("{}/../../BENCH_solver.json", env!("CARGO_MANIFEST_DIR"));
    let json = std::fs::read_to_string(&path).expect("BENCH_solver.json is committed at repo root");
    assert!(json.contains("\"schema\":\"rfp-bench/solver_bench/v1\""), "bad JSON:\n{json}");
    assert!(json.contains("\"quick\":false"), "the committed artefact is the full sweep:\n{json}");
    assert!(json.contains("\"threads\":1"), "serial baseline missing:\n{json}");
    assert!(json.contains("\"threads\":4"), "4-thread mode missing:\n{json}");
    assert!(json.contains("\"largest_instance_best_speedup\""), "bad JSON:\n{json}");
}

#[test]
fn defrag_sim_compares_all_three_policies_and_writes_json() {
    let path = std::env::temp_dir().join(format!("defrag_sim_smoke_{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let out = run(env!("CARGO_BIN_EXE_defrag_sim"), &["--quick", "--json", path_str]);
    assert!(out.contains("Online defragmentation"), "unexpected output:\n{out}");
    assert!(out.contains("| aware |"), "unexpected output:\n{out}");
    assert!(out.contains("| oblivious |"), "unexpected output:\n{out}");
    assert!(out.contains("| no_break |"), "unexpected output:\n{out}");
    let json = std::fs::read_to_string(&path).expect("JSON artefact exists");
    let _ = std::fs::remove_file(&path);
    assert!(json.contains("\"report\":\"defrag_sim\""), "bad JSON:\n{json}");
    assert!(json.contains("\"frames_relocated\""), "bad JSON:\n{json}");
    assert!(json.contains("\"downtime_frames\""), "bad JSON:\n{json}");
}

#[test]
fn format_bench_shows_binary_parsing_measurably_faster_than_json() {
    let path = std::env::temp_dir().join(format!("format_bench_smoke_{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    // The binary itself exits non-zero unless rfpb decodes >= 1.5x faster
    // than JSON at p50, so `run`'s success assertion is the real check.
    let out = run(env!("CARGO_BIN_EXE_format_bench"), &["--samples", "20", "--json", path_str]);
    assert!(out.contains("JSON v1 vs rfpb binary"), "unexpected output:\n{out}");
    assert!(out.contains("| rfpb |"), "unexpected output:\n{out}");
    assert!(out.contains("x faster to parse"), "unexpected output:\n{out}");
    let json = std::fs::read_to_string(&path).expect("JSON artefact exists");
    let _ = std::fs::remove_file(&path);
    assert!(json.contains("\"report\":\"format_bench\""), "bad JSON:\n{json}");
    assert!(json.contains("\"p50_speedup\""), "bad JSON:\n{json}");
    assert!(json.contains("\"bin_bytes\""), "bad JSON:\n{json}");
}
