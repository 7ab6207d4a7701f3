//! Golden-file tests for the `rfpb` binary serialisation.
//!
//! Every JSON golden document under `tests/golden/` has a committed binary
//! twin (`*.rfpb`) written by the deterministic `rfp_floorplan::binio` /
//! `rfp_runtime` encoders. Any change to the binary layout shows up as a
//! byte diff here. Regenerate with:
//!
//! ```text
//! cargo test --test binio_golden -- --ignored regenerate_golden_files
//! ```

use relocfp::floorplan::{binio, jsonio};
use relocfp::runtime::{read_scenario, read_scenario_bin, write_scenario_bin};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn golden_text(name: &str) -> String {
    let path = golden_dir().join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden file {}: {e}", path.display()))
}

fn golden_bytes(name: &str) -> Vec<u8> {
    let path = golden_dir().join(name);
    std::fs::read(&path)
        .unwrap_or_else(|e| panic!("cannot read golden file {}: {e}", path.display()))
}

const PROBLEM_GOLDENS: [&str; 5] =
    ["sdr.problem", "sdr2.problem", "sdr3.problem", "tiny.problem", "hetero.problem"];

const SCENARIO_GOLDENS: [&str; 2] = ["smoke.scenario", "hetero.scenario"];

/// The binary twin of every JSON golden, encoded from the JSON decode.
fn expected_twins() -> Vec<(String, Vec<u8>)> {
    let mut twins = Vec::new();
    for stem in PROBLEM_GOLDENS {
        let problem = jsonio::read_problem(&golden_text(&format!("{stem}.json")))
            .unwrap_or_else(|e| panic!("{stem}.json: {e}"));
        twins.push((format!("{stem}.rfpb"), binio::write_problem_bin(&problem)));
    }
    for stem in SCENARIO_GOLDENS {
        let scenario = read_scenario(&golden_text(&format!("{stem}.json")))
            .unwrap_or_else(|e| panic!("{stem}.json: {e}"));
        twins.push((format!("{stem}.rfpb"), write_scenario_bin(&scenario)));
    }
    twins
}

#[test]
fn golden_rfpb_twins_are_current() {
    for (name, expected) in expected_twins() {
        assert_eq!(
            golden_bytes(&name),
            expected,
            "golden file {name} is stale; regenerate with \
             `cargo test --test binio_golden -- --ignored regenerate_golden_files`"
        );
    }
}

#[test]
fn binary_and_json_goldens_decode_to_the_same_documents() {
    for stem in PROBLEM_GOLDENS {
        let bytes = golden_bytes(&format!("{stem}.rfpb"));
        assert_eq!(binio::detect_kind(&bytes).unwrap(), binio::BinKind::Problem, "{stem}");
        let from_bin =
            binio::read_problem_bin(&bytes).unwrap_or_else(|e| panic!("{stem}.rfpb: {e}"));
        let json = golden_text(&format!("{stem}.json"));
        let from_json = jsonio::read_problem(&json).unwrap_or_else(|e| panic!("{stem}.json: {e}"));
        assert_eq!(from_bin, from_json, "{stem}: the two serialisations disagree");
        // A bin -> json transcode reproduces the JSON golden byte-for-byte.
        assert_eq!(jsonio::write_problem(&from_bin), json, "{stem}: transcode drifts");
    }
    for stem in SCENARIO_GOLDENS {
        let bytes = golden_bytes(&format!("{stem}.rfpb"));
        assert_eq!(binio::detect_kind(&bytes).unwrap(), binio::BinKind::Scenario, "{stem}");
        let from_bin = read_scenario_bin(&bytes).unwrap_or_else(|e| panic!("{stem}.rfpb: {e}"));
        let from_json = read_scenario(&golden_text(&format!("{stem}.json")))
            .unwrap_or_else(|e| panic!("{stem}.json: {e}"));
        assert_eq!(from_bin, from_json, "{stem}: the two serialisations disagree");
    }
}

#[test]
fn golden_rfpb_twins_are_substantially_smaller_than_the_json() {
    for (name, bytes) in expected_twins() {
        let json_name = name.replace(".rfpb", ".json");
        let json_len = golden_text(&json_name).len();
        assert!(
            bytes.len() * 4 < json_len * 3,
            "{name}: {} bytes is not < 75% of {json_name}'s {json_len}",
            bytes.len()
        );
    }
}

/// Rewrites the binary twins from the current encoders. Ignored by default;
/// run explicitly after an intentional format change.
#[test]
#[ignore = "regenerates the golden files in-place"]
fn regenerate_golden_files() {
    std::fs::create_dir_all(golden_dir()).unwrap();
    for (name, bytes) in expected_twins() {
        std::fs::write(golden_dir().join(name), bytes).unwrap();
    }
}
