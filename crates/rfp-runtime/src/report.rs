//! Simulation reporting: per-event records, stream-level totals and a
//! deterministic JSON rendering (uploaded as a CI artifact by the
//! `sim-smoke` job and printed by `rfp simulate`).
//!
//! The document is versioned like every other `jsonio`-family format:
//! **v2** adds the per-event and total `downtime_frames` columns (frames
//! programmed while a module was stopped — the no-break defragmentation
//! headline metric).

use rfp_floorplan::jsonio::{escape, num};
use std::fmt::Write as _;

/// Format tag of sim-report documents.
pub const SIM_REPORT_FORMAT: &str = "rfp-sim-report";
/// Current schema version of the sim-report format.
pub const SIM_REPORT_VERSION: u64 = 2;

/// What the simulator did in reaction to one event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Timestamp of the event.
    pub time: u64,
    /// `"arrive"`, `"depart"` or `"checkpoint"`.
    pub kind: String,
    /// Module instance the event refers to (arrivals/departures).
    pub module: Option<usize>,
    /// `false` only for rejected arrivals.
    pub accepted: bool,
    /// Wall-clock seconds spent handling the event.
    pub latency_seconds: f64,
    /// `true` when the arrival escalated to a registry-engine re-solve.
    pub escalated: bool,
    /// Relocation moves executed while handling the event.
    pub moves: u64,
    /// Frames moved through the cheap relocation filter.
    pub frames_relocated: u64,
    /// Frames moved the expensive way (re-synthesis-equivalent).
    pub frames_resynthesized: u64,
    /// Frames programmed while the moved module was **stopped** (the
    /// downtime the no-break policy eliminates). Zero for double-buffered
    /// moves; equal to the moved frames for stop-and-move executions.
    pub downtime_frames: u64,
    /// Fragmentation after the event (see [`crate::frag`]).
    pub fragmentation: f64,
    /// Free tiles after the event.
    pub free_tiles: u64,
    /// Invariant violations detected while handling the event (always empty
    /// on a healthy run).
    pub violations: Vec<String>,
}

/// The outcome of simulating one scenario under one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Scenario name.
    pub scenario: String,
    /// Placement/defragmentation policy id (`"aware"` / `"oblivious"` /
    /// `"no_break"`).
    pub policy: String,
    /// Registry engine used for escalation re-solves.
    pub engine: String,
    /// One record per event, in stream order.
    pub events: Vec<EventRecord>,
    /// Relocation cost weight applied to re-synthesis-equivalent frames.
    pub resynthesis_factor: f64,
    /// Total wall-clock seconds of the simulation.
    pub wall_seconds: f64,
}

impl SimReport {
    /// Arrivals processed.
    pub fn arrivals(&self) -> u64 {
        self.events.iter().filter(|e| e.kind == "arrive").count() as u64
    }

    /// Arrivals rejected (no placement found even after defragmentation and
    /// an engine re-solve).
    pub fn rejected(&self) -> u64 {
        self.events.iter().filter(|e| e.kind == "arrive" && !e.accepted).count() as u64
    }

    /// Relocation moves executed over the whole stream.
    pub fn total_moves(&self) -> u64 {
        self.events.iter().map(|e| e.moves).sum()
    }

    /// Frames moved through the relocation filter.
    pub fn frames_relocated(&self) -> u64 {
        self.events.iter().map(|e| e.frames_relocated).sum()
    }

    /// Frames moved the re-synthesis-equivalent way.
    pub fn frames_resynthesized(&self) -> u64 {
        self.events.iter().map(|e| e.frames_resynthesized).sum()
    }

    /// Total frames moved, regardless of mechanism.
    pub fn frames_moved(&self) -> u64 {
        self.frames_relocated() + self.frames_resynthesized()
    }

    /// Frames programmed while the affected module was stopped, over the
    /// whole stream — what the defragmentation literature actually measures
    /// as the cost of a layout reorganisation. Zero under a fully
    /// double-buffered (no-break) run.
    pub fn downtime_frames(&self) -> u64 {
        self.events.iter().map(|e| e.downtime_frames).sum()
    }

    /// The relocation-aware traffic cost: relocated frames count once,
    /// re-synthesis-equivalent frames count [`SimReport::resynthesis_factor`]
    /// times (Equation 13's spirit applied to runtime traffic).
    pub fn relocation_cost(&self) -> f64 {
        self.frames_relocated() as f64
            + self.frames_resynthesized() as f64 * self.resynthesis_factor
    }

    /// Arrivals that escalated to an engine re-solve.
    pub fn escalations(&self) -> u64 {
        self.events.iter().filter(|e| e.escalated).count() as u64
    }

    /// Highest fragmentation observed after any event.
    pub fn max_fragmentation(&self) -> f64 {
        self.events.iter().map(|e| e.fragmentation).fold(0.0, f64::max)
    }

    /// Total invariant violations (must be 0 on a healthy run).
    pub fn violations(&self) -> u64 {
        self.events.iter().map(|e| e.violations.len() as u64).sum()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{}/{}: {} arrivals ({} rejected), {} moves ({} frames relocated, {} resynthesized, \
             cost {:.0}, downtime {}), {} escalations, max fragmentation {:.3}, {} violations",
            self.scenario,
            self.policy,
            self.arrivals(),
            self.rejected(),
            self.total_moves(),
            self.frames_relocated(),
            self.frames_resynthesized(),
            self.relocation_cost(),
            self.downtime_frames(),
            self.escalations(),
            self.max_fragmentation(),
            self.violations()
        )
    }

    /// Renders the report as a deterministic JSON document (trailing
    /// newline). Layout: header + totals, then one object per event.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"format\": \"{SIM_REPORT_FORMAT}\",");
        let _ = writeln!(out, "  \"version\": {SIM_REPORT_VERSION},");
        let _ = writeln!(out, "  \"scenario\": \"{}\",", escape(&self.scenario));
        let _ = writeln!(out, "  \"policy\": \"{}\",", escape(&self.policy));
        let _ = writeln!(out, "  \"engine\": \"{}\",", escape(&self.engine));
        let _ = writeln!(out, "  \"resynthesis_factor\": {},", num(self.resynthesis_factor));
        let _ = writeln!(out, "  \"totals\": {{");
        let _ = writeln!(out, "    \"arrivals\": {},", self.arrivals());
        let _ = writeln!(out, "    \"rejected\": {},", self.rejected());
        let _ = writeln!(out, "    \"moves\": {},", self.total_moves());
        let _ = writeln!(out, "    \"frames_relocated\": {},", self.frames_relocated());
        let _ = writeln!(out, "    \"frames_resynthesized\": {},", self.frames_resynthesized());
        let _ = writeln!(out, "    \"downtime_frames\": {},", self.downtime_frames());
        let _ = writeln!(out, "    \"relocation_cost\": {},", num(self.relocation_cost()));
        let _ = writeln!(out, "    \"escalations\": {},", self.escalations());
        let _ = writeln!(out, "    \"max_fragmentation\": {},", num(self.max_fragmentation()));
        let _ = writeln!(out, "    \"violations\": {},", self.violations());
        let _ = writeln!(out, "    \"wall_seconds\": {}", num(self.wall_seconds));
        let _ = writeln!(out, "  }},");
        out.push_str("  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let module = match e.module {
                Some(m) => m.to_string(),
                None => "null".to_string(),
            };
            let violations: Vec<String> =
                e.violations.iter().map(|v| format!("\"{}\"", escape(v))).collect();
            let _ = write!(
                out,
                "\n    {{\"t\":{},\"kind\":\"{}\",\"module\":{module},\"accepted\":{},\
                 \"latency_seconds\":{},\"escalated\":{},\"moves\":{},\"frames_relocated\":{},\
                 \"frames_resynthesized\":{},\"downtime_frames\":{},\"fragmentation\":{},\
                 \"free_tiles\":{},\"violations\":[{}]}}",
                e.time,
                escape(&e.kind),
                e.accepted,
                num(e.latency_seconds),
                e.escalated,
                e.moves,
                e.frames_relocated,
                e.frames_resynthesized,
                e.downtime_frames,
                num(e.fragmentation),
                e.free_tiles,
                violations.join(",")
            );
        }
        if !self.events.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n");
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_floorplan::jsonio::parse;

    fn record(kind: &str, accepted: bool, relocated: u64, resynth: u64) -> EventRecord {
        EventRecord {
            time: 1,
            kind: kind.to_string(),
            module: Some(0),
            accepted,
            latency_seconds: 0.001,
            escalated: false,
            moves: u64::from(relocated + resynth > 0),
            frames_relocated: relocated,
            frames_resynthesized: resynth,
            downtime_frames: resynth,
            fragmentation: 0.25,
            free_tiles: 10,
            violations: Vec::new(),
        }
    }

    fn sample() -> SimReport {
        SimReport {
            scenario: "s".into(),
            policy: "aware".into(),
            engine: "combinatorial".into(),
            events: vec![
                record("arrive", true, 72, 0),
                record("arrive", false, 0, 0),
                record("depart", true, 0, 36),
            ],
            resynthesis_factor: 20.0,
            wall_seconds: 0.01,
        }
    }

    #[test]
    fn totals_aggregate_event_records() {
        let report = sample();
        assert_eq!(report.arrivals(), 2);
        assert_eq!(report.rejected(), 1);
        assert_eq!(report.frames_moved(), 108);
        assert_eq!(report.downtime_frames(), 36);
        assert_eq!(report.relocation_cost(), 72.0 + 36.0 * 20.0);
        assert_eq!(report.violations(), 0);
        assert!(report.summary().contains("2 arrivals (1 rejected)"));
        assert!(report.summary().contains("downtime 36"));
    }

    #[test]
    fn json_is_parseable_and_carries_the_totals() {
        let report = SimReport {
            scenario: "smoke \"x\"".into(),
            policy: "no_break".into(),
            engine: "combinatorial".into(),
            events: vec![record("arrive", true, 72, 0)],
            resynthesis_factor: 20.0,
            wall_seconds: 0.5,
        };
        let doc = report.to_json();
        let parsed = parse(&doc).expect("report JSON parses");
        assert_eq!(parsed.field("format").unwrap().as_str().unwrap(), SIM_REPORT_FORMAT);
        assert_eq!(parsed.field("version").unwrap().as_u64().unwrap(), SIM_REPORT_VERSION);
        let totals = parsed.field("totals").unwrap();
        assert_eq!(totals.field("frames_relocated").unwrap().as_u64().unwrap(), 72);
        assert_eq!(totals.field("downtime_frames").unwrap().as_u64().unwrap(), 0);
        assert_eq!(parsed.field("events").unwrap().as_arr().unwrap().len(), 1);
    }

    #[test]
    fn empty_reports_render_without_panicking() {
        let report = SimReport {
            scenario: "empty".into(),
            policy: "aware".into(),
            engine: "milp".into(),
            events: Vec::new(),
            resynthesis_factor: 20.0,
            wall_seconds: 0.0,
        };
        assert_eq!(report.max_fragmentation(), 0.0);
        let parsed = parse(&report.to_json()).expect("empty report JSON parses");
        assert!(parsed.field("events").unwrap().as_arr().unwrap().is_empty());
    }
}
