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
