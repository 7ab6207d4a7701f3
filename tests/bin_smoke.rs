//! CLI smoke tests for the binary-format and fleet-sweep subcommands:
//! `rfp convert --to json|bin`, magic-byte sniffing in `solve` / `validate`
//! / `simulate`, the `rfp sweep` worker-pool determinism contract, and the
//! `solve` status line, the usage-error contract and the seeded built-ins.

use relocfp::runtime::write_scenario;
use relocfp::workloads::{DefragWorkloadSpec, WorkloadSpec};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn rfp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rfp")).args(args).output().expect("rfp runs")
}

fn ok(args: &[&str]) -> Output {
    let out = rfp(args);
    assert!(
        out.status.success(),
        "rfp {args:?} exited with {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rfp-bin-smoke-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn s(path: &Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

#[test]
fn convert_transcodes_between_json_and_binary_losslessly() {
    let dir = tmp_dir("convert");
    let json = dir.join("sdr2.problem.json");
    let bin = dir.join("sdr2.problem.rfpb");
    let back = dir.join("sdr2.back.json");

    ok(&["convert", "sdr2", "--out", s(&json)]);
    ok(&["convert", "--to", "bin", s(&json), "--out", s(&bin)]);
    let bytes = std::fs::read(&bin).unwrap();
    assert_eq!(&bytes[..4], b"RFPB", "binary documents start with the magic");
    assert!(bytes.len() < std::fs::metadata(&json).unwrap().len() as usize);

    ok(&["convert", "--to", "json", s(&bin), "--out", s(&back)]);
    assert_eq!(
        std::fs::read_to_string(&json).unwrap(),
        std::fs::read_to_string(&back).unwrap(),
        "json -> bin -> json must be the identity"
    );

    // Builtins transcode directly too, and stdout carries the bytes.
    let direct = ok(&["convert", "--to", "bin", "sdr2"]);
    assert_eq!(direct.stdout, bytes);

    // Unknown targets and unknown instances are usage errors.
    assert_eq!(rfp(&["convert", "--to", "yaml", "sdr2"]).status.code(), Some(1));
    assert_eq!(rfp(&["convert", "no-such-instance"]).status.code(), Some(1));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn solve_validate_and_simulate_accept_rfpb_inputs_transparently() {
    let dir = tmp_dir("sniff");
    let problem = dir.join("tiny.rfpb");
    let floorplan = dir.join("tiny.floorplan.json");
    let scenario = dir.join("smoke.rfpb");

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    ok(&["convert", "--to", "bin", s(&golden.join("tiny.problem.json")), "--out", s(&problem)]);
    ok(&[
        "solve",
        "--engine",
        "combinatorial",
        "--time-limit",
        "60",
        "--quiet",
        "--out",
        s(&floorplan),
        s(&problem),
    ]);
    ok(&["validate", s(&problem), s(&floorplan)]);

    ok(&["convert", "--to", "bin", "smoke", "--out", s(&scenario)]);
    let sim = ok(&["simulate", "--quiet", s(&scenario)]);
    assert!(
        String::from_utf8_lossy(&sim.stdout).contains("\"format\": \"rfp-sim-report\""),
        "simulate must emit its report from a binary trace"
    );

    // Truncated binary documents are rejected with exit 1, not a panic.
    let bytes = std::fs::read(&problem).unwrap();
    let cut = dir.join("cut.rfpb");
    std::fs::write(&cut, &bytes[..bytes.len() / 2]).unwrap();
    let out = rfp(&["solve", s(&cut)]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        stderr.contains("binary format error at byte"),
        "binary errors carry the failing offset, got: {stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_reports_are_byte_identical_across_worker_counts() {
    let dir = tmp_dir("sweep");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let grid = golden.join("sweep.grid.json");
    let one = dir.join("w1.json");
    let four = dir.join("w4.json");

    ok(&["sweep", "--grid", s(&grid), "--workers", "1", "--quiet", "--out", s(&one)]);
    ok(&["sweep", "--grid", s(&grid), "--workers", "4", "--quiet", "--out", s(&four)]);
    let report = std::fs::read_to_string(&one).unwrap();
    assert_eq!(
        report,
        std::fs::read_to_string(&four).unwrap(),
        "sweep reports must not depend on the worker count"
    );
    assert_eq!(
        report,
        std::fs::read_to_string(golden.join("sweep.report.json")).unwrap(),
        "the CLI must reproduce the committed baseline"
    );

    // Usage errors: a zero worker count and an unreadable grid.
    assert_eq!(rfp(&["sweep", "--workers", "0"]).status.code(), Some(1));
    assert_eq!(rfp(&["sweep", "--grid", "/no/such/grid.json"]).status.code(), Some(1));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn solve_rejects_non_finite_objectives_as_invalid_problems() {
    // A 1e308 bus weight is finite, but the wire-length normalisation it
    // implies overflows to infinity: no objective could be trusted, so the
    // problem must fail validation (exit 1) instead of coming back proven.
    let dir = tmp_dir("non-finite");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tiny.problem.json");
    let text = std::fs::read_to_string(golden).unwrap();
    let hostile = text
        .replace(r#"{"a":0,"b":1,"weight":8}"#, r#"{"a":0,"b":1,"weight":1e308}"#)
        .replace(r#""wirelength":0"#, r#""wirelength":1"#);
    assert_ne!(hostile, text, "the probe must edit the golden problem");
    let path = dir.join("overflow.problem.json");
    std::fs::write(&path, hostile).unwrap();
    for engine in ["combinatorial", "milp"] {
        let out = rfp(&["solve", "--engine", engine, s(&path)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{engine}: {stderr}");
        assert!(stderr.contains("invalid problem") && stderr.contains("WL_max"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn solve_rejects_a_deeply_nested_document_with_a_message() {
    let dir = tmp_dir("deep");
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(200_000)).unwrap();
    let out = rfp(&["solve", s(&deep)]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("nesting deeper than"), "stderr: {stderr}");
}

#[test]
fn solve_takes_only_positive_finite_time_limits_and_a_huge_one_completes() {
    let tiny = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tiny.problem.json");
    for bad in ["0", "-1", "inf", "NaN", "soon"] {
        let out = rfp(&["solve", "--time-limit", bad, s(&tiny)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--time-limit {bad}: {stderr}");
        assert!(stderr.contains("invalid --time-limit"), "--time-limit {bad}: {stderr}");
    }
    // Too large for a deadline, so unlimited: it used to panic the service
    // worker and leave the CLI waiting forever.
    ok(&["solve", "--engine", "combinatorial", "--time-limit", "1e300", "--quiet", s(&tiny)]);
}

/// The deadline of `--time-limit` covers the `milp` engine's whole run: on
/// the SDR2 golden (a columnar device with constraint-mode areas, so the
/// portion model) the 1 s budget runs out before the search finds a
/// floorplan, so the solve stops within the budget (plus 10 % and 0.5 s of
/// slack) with exit code 3, budget exhausted, not 2, infeasible.
#[test]
fn solve_stops_a_milp_at_its_time_limit_with_exit_code_3() {
    let sdr2 = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sdr2.problem.json");
    let t0 = std::time::Instant::now();
    let out = rfp(&["solve", "--engine", "milp", "--threads", "1", "--time-limit", "1", s(&sdr2)]);
    let secs = t0.elapsed().as_secs_f64();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "stderr: {stderr}");
    assert!(secs <= 1.6, "took {secs:.2} s against a 1 s budget");
}

#[test]
fn solve_reports_the_gap_of_an_unproven_floorplan() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let sdr = golden.join("sdr.problem.json");
    let args = ["solve", "--engine", "milp", "--threads", "1", "--node-limit", "20", s(&sdr)];
    let stderr = String::from_utf8(ok(&args).stderr).unwrap();
    let status = stderr.lines().find(|l| l.starts_with("rfp: milp: ")).expect("a status line");
    assert!(status.contains("feasible") && status.contains(", gap "), "{stderr}");
    // A proven floorplan has no gap to report.
    let tiny = golden.join("tiny.problem.json");
    let stderr = String::from_utf8(ok(&["solve", s(&tiny)]).stderr).unwrap();
    assert!(stderr.contains("proven") && !stderr.contains("gap"), "{stderr}");
}

#[test]
fn bad_invocations_exit_1_with_a_message_naming_the_culprit() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let (tiny, smoke) = (golden.join("tiny.problem.json"), golden.join("smoke.scenario.json"));
    let smoke_bin = golden.join("smoke.scenario.rfpb");
    let (p, sc, sb) = (s(&tiny), s(&smoke), s(&smoke_bin));
    // Each row: an invocation and the fragments its error must name.
    let rows: &[(&[&str], &[&str])] = &[
        (&["solve"], &["PROBLEM"]),
        (&["solve", p, p], &["tiny.problem.json"]),
        (&["solve", "--threads", "0", p], &["--threads", "`0`"]),
        (&["solve", "--threads", "257", p], &["--threads", "`257`"]),
        (&["solve", "--node-limit", "x", p], &["--node-limit", "`x`"]),
        (&["solve", "--engine", "milp", "--portfolio", p], &["--engine", "--portfolio"]),
        (&["solve", p, "--out"], &["--out"]),
        (&["solve", "--bogus", p], &["--bogus"]),
        (&["solve", "--portfolio=milp,quantum", p], &["quantum"]),
        (&["simulate", "--threshold", "2", sc], &["--threshold", "`2`"]),
        (&["simulate", "--policy", "x", sc], &["policy", "`x`"]),
        (&["simulate", "--time-limit", "0", sc], &["invalid --time-limit", "`0`"]),
        (&["simulate"], &["SCENARIO"]),
        (&["simulate", sc, sc], &["SCENARIO"]),
        (&["simulate", "--engine", "quantum", sc], &["quantum"]),
        (&["serve", "--workers", "0"], &["--workers", "`0`"]),
        (&["serve", "--engine", "quantum"], &["quantum"]),
        (&["serve", "--bogus"], &["--bogus"]),
        (&["sweep", "--workers", "x"], &["--workers"]),
        (&["sweep", "--out"], &["--out"]),
        (&["convert"], &["INSTANCE"]),
        (&["convert", "sdr", "sdr2"], &["INSTANCE"]),
        (&["convert", "--to", "yaml", "sdr"], &["--to", "yaml"]),
        (&["convert", "synthetic:x"], &["synthetic", "`x`"]),
        (&["convert", "defrag:1:2:3"], &["defrag:1:2:3"]),
        (&["trace"], &["summarize"]),
        (&["trace", "summarize"], &["FILE"]),
        (&["trace", "bogus"], &["bogus"]),
        (&["engines", "--bogus"], &["--bogus"]),
        (&["bogus"], &["bogus"]),
        (&["validate", p], &["FLOORPLAN"]),
        (&["solve", sc], &["rfp-problem", "rfp-scenario"]),
        (&["solve", sb], &["rfp-problem", "rfp-scenario"]),
        (&["validate", p, sc], &["rfp-floorplan", "rfp-scenario"]),
        (&["validate", p, sb], &["rfp-floorplan", "rfp-scenario"]),
    ];
    for (args, names) in rows {
        let out = Command::new(env!("CARGO_BIN_EXE_rfp"))
            .args(*args)
            .stdin(Stdio::null())
            .output()
            .expect("rfp runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "rfp {args:?}: {stderr}");
        assert!(stderr.starts_with("rfp: "), "rfp {args:?}: {stderr}");
        for name in *names {
            assert!(stderr.contains(name), "rfp {args:?} must name {name}: {stderr}");
        }
    }
}

#[test]
fn convert_prints_the_seeded_builtin_generators() {
    let synthetic = ok(&["convert", "synthetic:7:5"]).stdout;
    let spec = WorkloadSpec { seed: 7, n_regions: 5, ..Default::default() };
    assert_eq!(String::from_utf8(synthetic).unwrap(), spec.generate().problem_json());
    let defrag = ok(&["convert", "defrag:3:10"]).stdout;
    let spec = DefragWorkloadSpec { seed: 3, n_modules: 10, ..Default::default() };
    assert_eq!(String::from_utf8(defrag).unwrap(), write_scenario(&spec.generate()));
}
