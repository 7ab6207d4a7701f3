//! Error type of the floorplanner.

use std::fmt;

/// Errors produced while building or solving a floorplanning problem.
#[derive(Debug, Clone, PartialEq)]
pub enum FloorplanError {
    /// A region index does not exist in the problem.
    UnknownRegion(usize),
    /// A region requires a tile type that does not exist on the device.
    UnknownTileType {
        /// Region name.
        region: String,
    },
    /// A region requires more tiles of some type than the device offers.
    ImpossibleRequirement {
        /// Region name.
        region: String,
        /// Human-readable description of the missing resource.
        detail: String,
    },
    /// No feasible floorplan exists for the problem (with relocation
    /// constraints taken into account).
    Infeasible {
        /// Human-readable reason, when available.
        reason: String,
    },
    /// The solver stopped on a node/time limit without finding a feasible
    /// floorplan; feasibility is unknown.
    LimitReached,
    /// The problem references relocation for a region that does not exist.
    InvalidRelocationRequest {
        /// Index of the offending request.
        request: usize,
    },
    /// A weight, or an objective normalisation derived from the weights, is
    /// not a finite number, so no objective value could be trusted.
    NonFiniteWeight {
        /// Which weight, e.g. `connection 0 weight`.
        what: String,
    },
}

impl fmt::Display for FloorplanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FloorplanError::UnknownRegion(i) => write!(f, "region index {i} does not exist"),
            FloorplanError::UnknownTileType { region } => {
                write!(f, "region `{region}` requires a tile type not present on the device")
            }
            FloorplanError::ImpossibleRequirement { region, detail } => {
                write!(f, "region `{region}` cannot fit on the device: {detail}")
            }
            FloorplanError::Infeasible { reason } => {
                write!(f, "no feasible floorplan exists: {reason}")
            }
            FloorplanError::LimitReached => {
                write!(f, "solver limit reached before a feasible floorplan was found")
            }
            FloorplanError::InvalidRelocationRequest { request } => {
                write!(f, "relocation request {request} references an unknown region")
            }
            FloorplanError::NonFiniteWeight { what } => write!(f, "{what} is not finite"),
        }
    }
}

impl std::error::Error for FloorplanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_specific() {
        assert!(FloorplanError::UnknownRegion(3).to_string().contains("3"));
        assert!(FloorplanError::Infeasible { reason: "DSP columns exhausted".into() }
            .to_string()
            .contains("DSP columns exhausted"));
        assert!(FloorplanError::LimitReached.to_string().contains("limit"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<FloorplanError>();
    }
}
