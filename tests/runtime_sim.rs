//! End-to-end tests of the online reconfiguration simulator, pinned to the
//! golden CI-smoke scenario (`tests/golden/smoke.scenario.json`).
//!
//! The acceptance criteria of the runtime subsystem live here:
//!
//! * the golden Fekete-style scenario completes with **zero constraint
//!   violations** under all three policies (no move ever overlaps a running
//!   module — checked both by the executor and by the configuration-memory
//!   model);
//! * the relocation-aware policy relocates **exactly 216** frames and the
//!   relocation-oblivious baseline **exactly 432** on that scenario;
//! * the `no_break` policy moves the same 216 frames with **zero
//!   stopped-module downtime** — every move is a double-buffered
//!   copy-then-switch — while the stop-and-move policies pay downtime for
//!   every frame they move;
//! * the `SimReport` v2 document parses and carries the stream's totals.
//!
//! Regenerate the golden file with:
//!
//! ```text
//! cargo test --test runtime_sim -- --ignored regenerate_golden_scenario
//! ```

use relocfp::runtime::{
    read_scenario, simulate, write_scenario, DefragPolicy, OnlineConfig, SimReport,
};
use rfp_workloads::{smoke_scenario, smoke_scenario_json};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/smoke.scenario.json")
}

fn golden() -> String {
    std::fs::read_to_string(golden_path())
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", golden_path().display()))
}

fn run(policy: DefragPolicy) -> SimReport {
    let scenario = read_scenario(&golden()).expect("golden scenario parses");
    let config = OnlineConfig { policy, ..OnlineConfig::default() };
    simulate(&scenario, &config).expect("golden scenario simulates")
}

#[test]
fn golden_scenario_file_is_current() {
    assert_eq!(
        golden(),
        smoke_scenario_json(),
        "tests/golden/smoke.scenario.json is stale; regenerate with \
         `cargo test --test runtime_sim -- --ignored regenerate_golden_scenario`"
    );
}

#[test]
fn golden_scenario_round_trips() {
    let scenario = read_scenario(&golden()).unwrap();
    assert!(scenario.validate().is_empty());
    assert_eq!(scenario, smoke_scenario());
    assert_eq!(write_scenario(&scenario), golden());
}

#[test]
fn golden_scenario_completes_with_zero_violations_under_all_policies() {
    for policy in DefragPolicy::ALL {
        let report = run(policy);
        assert_eq!(report.violations(), 0, "{policy:?} violated an invariant: {report:#?}");
        assert_eq!(report.rejected(), 0, "{policy:?} rejected an admissible module: {report:#?}");
        assert_eq!(report.arrivals(), 6);
        // The big arrival cannot fit without defragmentation.
        assert!(report.total_moves() > 0, "{policy:?} never moved a module: {report:#?}");
    }
}

#[test]
fn moved_frames_are_pinned_per_policy() {
    // The headline numbers of the three-way study, pinned exactly: the
    // aware policy frees the window with one 216-frame relocation, the
    // oblivious baseline left-compacts two modules (432 frames), and the
    // no-break policy uses the same single move as aware.
    assert_eq!(run(DefragPolicy::RelocationAware).frames_moved(), 216);
    assert_eq!(run(DefragPolicy::Oblivious).frames_moved(), 432);
    assert_eq!(run(DefragPolicy::NoBreak).frames_moved(), 216);
}

#[test]
fn relocation_aware_policy_relocates_strictly_fewer_frames_than_the_baseline() {
    let aware = run(DefragPolicy::RelocationAware);
    let oblivious = run(DefragPolicy::Oblivious);
    assert!(
        aware.frames_moved() < oblivious.frames_moved(),
        "aware policy moved {} frames, oblivious baseline {} — the aware plan must be \
         strictly cheaper\naware: {}\noblivious: {}",
        aware.frames_moved(),
        oblivious.frames_moved(),
        aware.summary(),
        oblivious.summary()
    );
    assert!(
        aware.relocation_cost() < oblivious.relocation_cost(),
        "aware cost {} must undercut oblivious cost {}",
        aware.relocation_cost(),
        oblivious.relocation_cost()
    );
    // On the all-CLB smoke device every aware move goes through the cheap
    // relocation filter — nothing is ever re-synthesised.
    assert_eq!(aware.frames_resynthesized(), 0);
}

#[test]
fn no_break_policy_eliminates_downtime_on_the_smoke_scenario() {
    let no_break = run(DefragPolicy::NoBreak);
    assert_eq!(
        no_break.downtime_frames(),
        0,
        "every no-break move on the smoke scenario must be double-buffered: {}",
        no_break.summary()
    );
    assert_eq!(no_break.violations(), 0);
    assert_eq!(no_break.rejected(), 0);
    // The stop-and-move policies pay downtime for every frame they move.
    for policy in [DefragPolicy::RelocationAware, DefragPolicy::Oblivious] {
        let report = run(policy);
        assert_eq!(
            report.downtime_frames(),
            report.frames_moved(),
            "{policy:?} is a stop-and-move executor: {}",
            report.summary()
        );
    }
}

#[test]
fn sim_reports_render_parseable_json() {
    let report = run(DefragPolicy::RelocationAware);
    let doc = report.to_json();
    let parsed = relocfp::floorplan::jsonio::parse(&doc).expect("report JSON parses");
    let totals = parsed.field("totals").unwrap();
    assert_eq!(
        totals.field("frames_relocated").unwrap().as_u64().unwrap(),
        report.frames_relocated()
    );
    assert_eq!(
        totals.field("downtime_frames").unwrap().as_u64().unwrap(),
        report.downtime_frames()
    );
    assert_eq!(totals.field("violations").unwrap().as_u64().unwrap(), 0);
    assert_eq!(parsed.field("events").unwrap().as_arr().unwrap().len(), report.events.len());
}

/// Rewrites the golden scenario file from the generator. Run explicitly
/// after changing the smoke scenario or the format.
#[test]
#[ignore]
fn regenerate_golden_scenario() {
    std::fs::write(golden_path(), smoke_scenario_json()).expect("write golden scenario");
}
