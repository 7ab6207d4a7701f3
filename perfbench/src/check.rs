//! Output checks. They run outside every timed span; a solve that fails one
//! counts toward `failed`.

use relocfp::floorplan::{FloorplanProblem, SolveOutcome};

/// Relative tolerance when comparing composite objectives.
const OBJECTIVE_TOLERANCE: f64 = 1e-9;

/// `true` when two composite objectives agree within the tolerance.
pub fn same_objective(a: f64, b: f64) -> bool {
    (a - b).abs() <= OBJECTIVE_TOLERANCE * a.abs().max(b.abs()).max(1.0)
}

/// Checks one solve outcome against its problem:
///
/// * a floorplan must be present (a missing floorplan is a failure, whatever
///   the status says);
/// * it must pass `Floorplan::validate`;
/// * the reported metrics must be the floorplan's own;
/// * a proven objective must equal `expected`, when an expected value is
///   known for the instance.
pub fn check_outcome(
    problem: &FloorplanProblem,
    outcome: &SolveOutcome,
    expected: Option<f64>,
) -> Result<(), String> {
    let Some(floorplan) = &outcome.floorplan else {
        return Err(format!(
            "no floorplan ({}): {}",
            outcome.status,
            outcome.detail.as_deref().unwrap_or("no detail")
        ));
    };
    let issues = floorplan.validate(problem);
    if !issues.is_empty() {
        return Err(format!("invalid floorplan: {}", issues.join("; ")));
    }
    let metrics = floorplan.metrics(problem);
    if outcome.metrics != Some(metrics) {
        return Err("reported metrics differ from the floorplan's own".to_string());
    }
    match expected {
        Some(want) if outcome.is_proven() && !same_objective(metrics.objective, want) => Err(
            format!("proven objective {} differs from the expected {}", metrics.objective, want),
        ),
        _ => Ok(()),
    }
}

/// Failure bookkeeping of a phase: the count plus the first few messages.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub messages: Vec<String>,
}

impl Failures {
    const KEPT: usize = 5;

    /// Records `result` for the op named `op`.
    pub fn record(&mut self, op: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.fail(format!("{op}: {e}"));
        }
    }

    /// Records one failed op.
    pub fn fail(&mut self, message: String) {
        self.count += 1;
        if self.messages.len() < Self::KEPT {
            self.messages.push(message);
        }
    }

    /// Adds another phase's failures.
    pub fn merge(&mut self, other: Failures) {
        self.count += other.count;
        for m in other.messages {
            if self.messages.len() < Self::KEPT {
                self.messages.push(m);
            }
        }
    }
}
