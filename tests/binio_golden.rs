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

use proptest::prelude::*;
use relocfp::device::Rect;
use relocfp::floorplan::placement::FcPlacement;
use relocfp::floorplan::problem::RelocationMode;
use relocfp::floorplan::{binio, jsonio, Floorplan};
use relocfp::runtime::{read_scenario, read_scenario_bin, write_scenario, write_scenario_bin};
use relocfp::workloads::DefragWorkloadSpec;
use std::path::PathBuf;
use std::time::{Duration, Instant};

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

/// The decode path of the sweep's trace replay: on a 48-module defrag
/// trace, the `rfpb` decode is at least 1.5x faster than the JSON decode at
/// p50 over 40 timed parses each, and both decode to the same scenario.
#[test]
fn rfpb_decodes_a_defrag_trace_at_least_1_5x_faster_than_json() {
    let scenario = DefragWorkloadSpec { n_modules: 48, ..DefragWorkloadSpec::default() }.generate();
    let json_doc = write_scenario(&scenario);
    let bin_doc = write_scenario_bin(&scenario);
    assert_eq!(read_scenario(&json_doc).unwrap(), read_scenario_bin(&bin_doc).unwrap());

    let p50 = |decode: &dyn Fn()| {
        decode(); // One warm-up parse outside the timed loop.
        let mut times: Vec<Duration> = (0..40)
            .map(|_| {
                let start = Instant::now();
                decode();
                start.elapsed()
            })
            .collect();
        times.sort();
        times[times.len().div_ceil(2) - 1].as_secs_f64()
    };
    let json = p50(&|| drop(read_scenario(&json_doc).unwrap()));
    let bin = p50(&|| drop(read_scenario_bin(&bin_doc).unwrap()));
    let speedup = json / bin.max(1e-12);
    assert!(speedup >= 1.5, "rfpb decode is only {speedup:.2}x faster than JSON (p50)");
}

/// Feeds one input to every `rfpb` reader. Each must answer `Ok` or `Err`;
/// a panic fails the calling test with the input's description.
fn decode_with_every_reader(bytes: &[u8], what: &str) {
    let outcome = std::panic::catch_unwind(|| {
        let _ = binio::read_problem_bin(bytes);
        let _ = binio::read_floorplan_bin(bytes);
        let _ = read_scenario_bin(bytes);
    });
    assert!(outcome.is_ok(), "an rfpb reader panicked on {what}: {bytes:?}");
}

/// Every committed twin, plus a floorplan document (no floorplan twin is
/// committed) so the floorplan reader sees a well-formed body too.
fn rfpb_corpus() -> Vec<(String, Vec<u8>)> {
    let mut corpus: Vec<(String, Vec<u8>)> = PROBLEM_GOLDENS
        .iter()
        .chain(SCENARIO_GOLDENS.iter())
        .map(|stem| (format!("{stem}.rfpb"), golden_bytes(&format!("{stem}.rfpb"))))
        .collect();
    let floorplan = Floorplan {
        regions: vec![Rect::new(1, 1, 3, 2), Rect::new(4, 1, 2, 1)],
        fc_areas: vec![
            FcPlacement {
                request: 0,
                region: 0,
                mode: RelocationMode::Metric { weight: 1.5 },
                rect: Some(Rect::new(5, 3, 3, 2)),
            },
            FcPlacement { request: 1, region: 1, mode: RelocationMode::Constraint, rect: None },
        ],
    };
    corpus.push(("a floorplan".to_string(), binio::write_floorplan_bin(&floorplan)));
    corpus
}

/// Panic-freedom of the `rfpb` readers on corrupted documents: every
/// single-byte flip (three masks per byte) and every truncation of each
/// document in the corpus decodes to `Ok` or `Err`.
#[test]
fn rfpb_readers_survive_every_flip_and_truncation_of_the_goldens() {
    for (name, bytes) in rfpb_corpus() {
        decode_with_every_reader(&bytes, &name);
        for at in 0..bytes.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut flipped = bytes.clone();
                flipped[at] ^= mask;
                decode_with_every_reader(&flipped, &format!("{name} with byte {at} ^ {mask:#x}"));
            }
            decode_with_every_reader(&bytes[..at], &format!("{name} cut to {at} byte(s)"));
        }
    }
}

/// The input the flip property found: `0xff` into the third byte of the SDR
/// device's row count asks for 16.7M rows, a grid whose allocation fails and
/// aborts the process. Both readers must reject the device instead.
#[test]
fn an_implausible_row_count_is_an_error_not_an_abort() {
    let mut bytes = golden_bytes("sdr.problem.rfpb");
    // Header (7 bytes), then the device name (a u32 length and the bytes),
    // then the u32 row count.
    let name_len = u32::from_le_bytes(bytes[7..11].try_into().unwrap()) as usize;
    bytes[11 + name_len + 2] ^= 0xff;
    let err = binio::read_problem_bin(&bytes).unwrap_err();
    assert!(err.to_string().contains("implausible device"), "{err}");

    let json = golden_text("sdr.problem.json").replacen("\"rows\": 8", "\"rows\": 16711688", 1);
    let err = jsonio::read_problem(&json).unwrap_err();
    assert!(err.to_string().contains("implausible device"), "{err}");
}

proptest! {
    /// Panic-freedom of the `rfpb` readers on arbitrary bytes, both bare and
    /// behind a valid header of every kind and version (so the bytes reach
    /// the section readers instead of stopping at the magic).
    #[test]
    fn rfpb_readers_never_panic_on_arbitrary_bytes(
        body in proptest::collection::vec(0u8..=255, 0..512),
        kind in 1u8..4,
        version in 1u16..3,
    ) {
        decode_with_every_reader(&body, "arbitrary bytes");
        let mut doc = b"RFPB".to_vec();
        doc.push(kind);
        doc.extend_from_slice(&version.to_le_bytes());
        doc.extend_from_slice(&body);
        decode_with_every_reader(&doc, "arbitrary bytes behind a valid header");
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
