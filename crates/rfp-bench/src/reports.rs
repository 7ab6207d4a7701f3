//! Reusable report builders for the table/figure binaries.
//!
//! Every solve goes through the engine registry
//! ([`rfp_baselines::engines::full_registry`]), so the harness exercises the
//! same `FloorplanEngine::solve(request, control)` call path as the `rfp`
//! CLI and the portfolio.

use rfp_baselines::engines::full_registry;
use rfp_floorplan::engine::{SolveControl, SolveRequest};
use rfp_floorplan::feasibility::{feasibility_analysis, RegionFeasibility};
use rfp_floorplan::{Floorplan, FloorplanError, FloorplanProblem};
use rfp_workloads::sdr::{sdr2_problem, sdr3_problem, sdr_problem, sdr_region_table};

/// Renders a plain markdown table.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&header.join(" | "));
    out.push_str(" |\n|");
    for _ in header {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

/// Regenerates Table I (resource requirements of the SDR design) as markdown.
pub fn table1_markdown() -> String {
    let rows = sdr_region_table();
    let mut body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.clb_tiles.to_string(),
                r.bram_tiles.to_string(),
                r.dsp_tiles.to_string(),
                r.frames.to_string(),
            ]
        })
        .collect();
    body.push(vec![
        "Total".to_string(),
        rows.iter().map(|r| r.clb_tiles).sum::<u32>().to_string(),
        rows.iter().map(|r| r.bram_tiles).sum::<u32>().to_string(),
        rows.iter().map(|r| r.dsp_tiles).sum::<u32>().to_string(),
        rows.iter().map(|r| r.frames).sum::<u64>().to_string(),
    ]);
    markdown_table(&["Region", "CLB tiles", "BRAM tiles", "DSP tiles", "# Frames"], &body)
}

/// One row of the regenerated Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Algorithm label as used by the paper ("\[8\]", "\[10\]", "PA").
    pub algorithm: String,
    /// Design name (SDR, SDR2, SDR3).
    pub design: String,
    /// Free-compatible areas identified.
    pub fc_areas: usize,
    /// Wasted frames.
    pub wasted_frames: u64,
    /// Wall-clock seconds spent producing the floorplan.
    pub solve_seconds: f64,
    /// Whether the engine proved optimality of its result.
    pub proven_optimal: bool,
    /// Search nodes explored.
    pub nodes: u64,
    /// Relative optimality gap at termination (0 when proven).
    pub gap: f64,
}

/// Regenerates Table II: floorplan comparison of the tessellation baseline
/// (in the spirit of \[8\]), the MILP floorplanner without relocation (\[10\],
/// which the paper states is what PA degenerates to), and the
/// relocation-aware floorplanner (PA) on SDR2 and SDR3.
///
/// `time_limit_secs` bounds each PA solve; the full-die instances are solved
/// to proven optimality in a few seconds by the combinatorial engine, so the
/// limit only matters on very slow machines.
pub fn table2(time_limit_secs: f64) -> Result<(Vec<Table2Row>, Vec<Floorplan>), FloorplanError> {
    let registry = full_registry();
    let ctl = SolveControl::default();
    let mut rows = Vec::new();
    let mut floorplans = Vec::new();

    // Every row goes through the same registry call path; only the engine id
    // and the instance vary.
    let runs: [(&str, &str, &str, FloorplanProblem); 4] = [
        ("[8] (tessellation baseline)", "tessellation", "SDR", sdr_problem()),
        ("[10] (PA without relocation)", "combinatorial", "SDR", sdr_problem()),
        ("PA", "combinatorial", "SDR2", sdr2_problem()),
        ("PA", "combinatorial", "SDR3", sdr3_problem()),
    ];
    for (alg, engine_id, design, problem) in runs {
        let engine = registry.get(engine_id).expect("engine registered");
        let req = SolveRequest::new(problem).with_time_limit(time_limit_secs);
        let outcome = engine.solve(&req, &ctl);
        let Some(floorplan) = outcome.floorplan.clone() else {
            return Err(outcome.into_error());
        };
        let m = outcome.metrics.as_ref().expect("metrics accompany floorplans");
        rows.push(Table2Row {
            algorithm: alg.to_string(),
            design: design.to_string(),
            fc_areas: m.fc_found,
            wasted_frames: m.wasted_frames,
            solve_seconds: outcome.stats.solve_seconds,
            proven_optimal: outcome.is_proven(),
            nodes: outcome.stats.nodes,
            gap: outcome.stats.gap,
        });
        floorplans.push(floorplan);
    }
    Ok((rows, floorplans))
}

/// Renders the regenerated Table II as markdown, side by side with the
/// paper's published numbers.
pub fn table2_markdown(rows: &[Table2Row]) -> String {
    let paper: [(&str, &str, &str, &str); 4] = [
        ("[8]", "SDR", "0", "466"),
        ("[10]", "SDR", "0", "306"),
        ("PA", "SDR2", "6", "306"),
        ("PA", "SDR3", "9", "346"),
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .zip(paper.iter())
        .map(|(r, (_, _, paper_fc, paper_waste))| {
            vec![
                r.algorithm.clone(),
                r.design.clone(),
                r.fc_areas.to_string(),
                r.wasted_frames.to_string(),
                format!("{:.1}", r.solve_seconds),
                if r.proven_optimal { "yes" } else { "no" }.to_string(),
                format!("{paper_fc} / {paper_waste}"),
            ]
        })
        .collect();
    markdown_table(
        &[
            "Algorithm",
            "Design",
            "Free-compatible areas",
            "Wasted frames",
            "Solve s",
            "Proven",
            "Paper (areas / wasted)",
        ],
        &body,
    )
}

/// Runs the Section VI feasibility analysis on the SDR design.
pub fn feasibility_report() -> Result<Vec<RegionFeasibility>, FloorplanError> {
    feasibility_analysis(
        &sdr_problem(),
        &rfp_floorplan::combinatorial::CombinatorialConfig::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_markdown_reproduces_the_paper_rows() {
        let t = table1_markdown();
        assert!(t.contains("| Matched Filter | 25 | 0 | 5 | 1040 |"));
        assert!(t.contains("| Video Decoder | 55 | 2 | 5 | 2180 |"));
        assert!(t.contains("| Total | 104 | 5 | 11 | 4202 |"));
    }

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(t.lines().count(), 3);
        assert!(t.starts_with("| a | b |"));
    }

    #[test]
    fn table2_paper_reference_is_stable() {
        // The paper's reference values are embedded for side-by-side display;
        // a rendering with dummy rows must include them.
        let rows = vec![
            Table2Row {
                algorithm: "[8] (tessellation baseline)".into(),
                design: "SDR".into(),
                fc_areas: 0,
                wasted_frames: 1,
                solve_seconds: 0.0,
                proven_optimal: false,
                nodes: 0,
                gap: f64::INFINITY,
            };
            4
        ];
        let md = table2_markdown(&rows);
        assert!(md.contains("0 / 466"));
        assert!(md.contains("9 / 346"));
    }
}
