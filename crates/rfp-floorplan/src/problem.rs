//! Floorplanning problem description.
//!
//! A [`FloorplanProblem`] bundles everything the floorplanner needs:
//!
//! * the columnar-partitioned device (set `P`, set `A`, `|R|`, `maxW`);
//! * the reconfigurable regions to place (set `N`) with their resource
//!   requirements expressed in tiles per tile type (`c_{n,t}`, Table I);
//! * the connections between regions (used by the wire-length term of the
//!   objective);
//! * the relocation requests: how many free-compatible areas to reserve for
//!   which region, either as a hard constraint (Section IV) or as a weighted
//!   metric (Section V, weights `cw_c`);
//! * the objective weights `q_1..q_4` of Equation 14.

use crate::error::FloorplanError;
use rfp_device::{FabricPartition, TileTypeId};

/// Index of a reconfigurable region inside a [`FloorplanProblem`].
pub type RegionId = usize;

/// A reconfigurable region to place (an element of set `N`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionSpec {
    /// Designer-visible name ("Matched Filter", ...).
    pub name: String,
    /// Required tiles per tile type (`c_{n,t}`), normalised: sorted by tile
    /// type, no duplicates, no zero entries.
    tile_req: Vec<(TileTypeId, u32)>,
}

impl RegionSpec {
    /// Creates a region requirement from `(tile type, tiles)` pairs.
    /// Duplicate tile types are merged; zero counts are dropped.
    pub fn new(name: impl Into<String>, req: Vec<(TileTypeId, u32)>) -> Self {
        let mut merged: Vec<(TileTypeId, u32)> = Vec::new();
        for (ty, count) in req {
            if count == 0 {
                continue;
            }
            match merged.iter_mut().find(|(t, _)| *t == ty) {
                Some((_, c)) => *c += count,
                None => merged.push((ty, count)),
            }
        }
        merged.sort_by_key(|&(ty, _)| ty);
        RegionSpec { name: name.into(), tile_req: merged }
    }

    /// Required tiles per tile type.
    pub fn tile_req(&self) -> &[(TileTypeId, u32)] {
        &self.tile_req
    }

    /// Total number of tiles required (any type).
    pub fn total_tiles(&self) -> u32 {
        self.tile_req.iter().map(|&(_, c)| c).sum()
    }

    /// Minimum configuration frames needed by the requirement (last column of
    /// Table I).
    pub fn required_frames(&self, partition: &FabricPartition) -> u64 {
        self.tile_req.iter().map(|&(ty, c)| partition.frames_per_tile(ty) as u64 * c as u64).sum()
    }
}

/// A connection between two regions, weighted by its bus width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Connection {
    /// First endpoint.
    pub a: RegionId,
    /// Second endpoint.
    pub b: RegionId,
    /// Connection weight (e.g. number of wires of the bus).
    pub weight: f64,
}

/// How a relocation request is enforced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RelocationMode {
    /// Relocation as a constraint (Section IV): the floorplan is feasible
    /// only if every requested free-compatible area is identified.
    Constraint,
    /// Relocation as a metric (Section V): missing free-compatible areas are
    /// allowed but penalised in the objective with weight `cw_c` per missing
    /// area.
    Metric {
        /// Weight `cw_c` of each free-compatible area of this request.
        weight: f64,
    },
}

/// A relocation request: reserve `count` free-compatible areas for `region`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelocationRequest {
    /// The region whose bitstream must be relocatable (the region the
    /// free-compatible areas are compatible with, `s_{c,n} = 1`).
    pub region: RegionId,
    /// Number of free-compatible areas to reserve.
    pub count: u32,
    /// Constraint or metric semantics.
    pub mode: RelocationMode,
}

impl RelocationRequest {
    /// A hard-constraint request (Section IV).
    pub fn constraint(region: RegionId, count: u32) -> Self {
        RelocationRequest { region, count, mode: RelocationMode::Constraint }
    }

    /// A soft-metric request (Section V) with weight `cw_c = weight` per area.
    pub fn metric(region: RegionId, count: u32, weight: f64) -> Self {
        RelocationRequest { region, count, mode: RelocationMode::Metric { weight } }
    }

    /// Weight of one area of this request (`cw_c`); constraint-mode areas
    /// weigh 1 for normalisation purposes.
    pub fn area_weight(&self) -> f64 {
        match self.mode {
            RelocationMode::Constraint => 1.0,
            RelocationMode::Metric { weight } => weight,
        }
    }
}

/// Weights `q_1..q_4` of the composite objective (Equation 14).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectiveWeights {
    /// `q_1`: weight of the normalised wire-length cost.
    pub wirelength: f64,
    /// `q_2`: weight of the normalised perimeter (interface) cost.
    pub perimeter: f64,
    /// `q_3`: weight of the normalised resource/wasted-frame cost.
    pub resources: f64,
    /// `q_4`: weight of the normalised relocation cost (Equation 13).
    pub relocation: f64,
}

impl Default for ObjectiveWeights {
    fn default() -> Self {
        ObjectiveWeights::paper_default()
    }
}

impl ObjectiveWeights {
    /// The weighting used by the paper's evaluation (and by \[8\]/\[10\]):
    /// first optimise the wasted area, then — without increasing the area
    /// cost — minimise the overall wire length. Realised as a lexicographic
    /// preference through a large resource weight.
    pub fn paper_default() -> Self {
        ObjectiveWeights { wirelength: 1.0, perimeter: 0.0, resources: 1000.0, relocation: 0.0 }
    }

    /// Pure wasted-area optimisation.
    pub fn area_only() -> Self {
        ObjectiveWeights { wirelength: 0.0, perimeter: 0.0, resources: 1.0, relocation: 0.0 }
    }

    /// Adds a relocation-metric weight `q_4` on top of the paper default.
    pub fn with_relocation(mut self, q4: f64) -> Self {
        self.relocation = q4;
        self
    }
}

/// A complete floorplanning problem instance.
#[derive(Debug, Clone, PartialEq)]
pub struct FloorplanProblem {
    /// The partitioned device fabric (columnar devices embed losslessly via
    /// `From<ColumnarPartition>`).
    pub partition: FabricPartition,
    /// The reconfigurable regions to place (set `N`, excluding
    /// free-compatible pseudo-regions).
    pub regions: Vec<RegionSpec>,
    /// Inter-region connections.
    pub connections: Vec<Connection>,
    /// Relocation requests.
    pub relocation: Vec<RelocationRequest>,
    /// Objective weights of Equation 14.
    pub weights: ObjectiveWeights,
}

impl FloorplanProblem {
    /// Creates an empty problem on a device. Accepts either a
    /// [`FabricPartition`] or a legacy `ColumnarPartition` (converted
    /// losslessly).
    pub fn new(partition: impl Into<FabricPartition>) -> Self {
        FloorplanProblem {
            partition: partition.into(),
            regions: Vec::new(),
            connections: Vec::new(),
            relocation: Vec::new(),
            weights: ObjectiveWeights::default(),
        }
    }

    /// Adds a region and returns its id.
    pub fn add_region(&mut self, spec: RegionSpec) -> RegionId {
        self.regions.push(spec);
        self.regions.len() - 1
    }

    /// Adds a connection between two regions.
    pub fn connect(&mut self, a: RegionId, b: RegionId, weight: f64) {
        self.connections.push(Connection { a, b, weight });
    }

    /// Connects the regions in a chain (`r0 - r1 - r2 - ...`), all with the
    /// same weight — the topology of the SDR case study.
    pub fn connect_chain(&mut self, regions: &[RegionId], weight: f64) {
        for pair in regions.windows(2) {
            self.connect(pair[0], pair[1], weight);
        }
    }

    /// Adds a relocation request.
    pub fn request_relocation(&mut self, request: RelocationRequest) {
        self.relocation.push(request);
    }

    /// Number of regions.
    pub fn n_regions(&self) -> usize {
        self.regions.len()
    }

    /// Total number of free-compatible areas requested (over all requests).
    pub fn n_fc_areas(&self) -> usize {
        self.relocation.iter().map(|r| r.count as usize).sum()
    }

    /// The flattened list of requested free-compatible areas, one entry per
    /// area: `(request index, region id, mode)` — the set `FC` of Section IV
    /// with its `s_{c,n}` mapping.
    pub fn fc_areas(&self) -> Vec<(usize, RegionId, RelocationMode)> {
        let mut out = Vec::with_capacity(self.n_fc_areas());
        for (ri, req) in self.relocation.iter().enumerate() {
            for _ in 0..req.count {
                out.push((ri, req.region, req.mode));
            }
        }
        out
    }

    /// Normalisation constant `RL_max` of Equation 15.
    pub fn rl_max(&self) -> f64 {
        let v: f64 = self.relocation.iter().map(|r| r.area_weight() * r.count as f64).sum();
        if v > 0.0 {
            v
        } else {
            1.0
        }
    }

    /// Normalisation constant for the wire-length cost (`WL_max`).
    pub fn wl_max(&self) -> f64 {
        let total_weight: f64 = self.connections.iter().map(|c| c.weight).sum();
        let diameter = (self.partition.cols + self.partition.rows) as f64;
        (total_weight * diameter).max(1.0)
    }

    /// Normalisation constant for the perimeter cost (`P_max`).
    pub fn p_max(&self) -> f64 {
        (self.regions.len() as f64 * (self.partition.cols + self.partition.rows) as f64).max(1.0)
    }

    /// Normalisation constant for the resource cost (`R_max`): total usable
    /// frames of the device.
    pub fn r_max(&self) -> f64 {
        (self.partition.total_frames() as f64).max(1.0)
    }

    /// Minimum frames required by all regions together (last row of Table I).
    pub fn total_required_frames(&self) -> u64 {
        self.regions.iter().map(|r| r.required_frames(&self.partition)).sum()
    }

    /// Whether the wasted-frames term of Equation 14 outweighs what a
    /// single-side shrink of a region can cost elsewhere, for every region
    /// `n`:
    ///
    /// `min_frames_per_tile · q_3 / R_max + q_2 / P_max ≥ ½ · Σ_{conn ∋ n} |weight · q_1| / WL_max`
    ///
    /// A shrink (one row or one column dropped from one side) frees at least
    /// one tile, so it lowers the waste by at least `min_frames_per_tile`
    /// frames and the half-perimeter by exactly 1, and it moves the region's
    /// centre by ½ on one axis, which lengthens each of its connections by
    /// at most ½. When this holds no shrink raises Equation 14, so an
    /// optimal floorplan exists among the irredundant candidates of
    /// [`crate::candidates`]. A negative `q_3` never dominates. The
    /// relocation term is not part of the condition.
    pub fn waste_dominates(&self) -> bool {
        let w = &self.weights;
        if w.resources < 0.0 {
            return false;
        }
        let partition = &self.partition;
        let min_frames =
            partition.cell_types().iter().map(|&ty| partition.frames_per_tile(ty)).min();
        let shrink_gain = f64::from(min_frames.unwrap_or(0)) * w.resources / self.r_max()
            + w.perimeter / self.p_max();
        let mut pull = vec![0.0; self.regions.len()];
        for c in &self.connections {
            let half = 0.5 * (c.weight * w.wirelength).abs() / self.wl_max();
            for end in [c.a, c.b] {
                if let Some(p) = pull.get_mut(end) {
                    *p += half;
                }
            }
        }
        pull.iter().all(|&p| shrink_gain >= p)
    }

    /// Validates the problem: every weight and objective normalisation is
    /// finite, region indices in connections and relocation requests exist,
    /// required tile types exist on the device, and no region requires more
    /// tiles of a type than the device offers.
    pub fn validate(&self) -> Result<(), FloorplanError> {
        let non_finite = |what: String| Err(FloorplanError::NonFiniteWeight { what });
        for (i, c) in self.connections.iter().enumerate() {
            if !c.weight.is_finite() {
                return non_finite(format!("connection {i} weight"));
            }
        }
        for (i, r) in self.relocation.iter().enumerate() {
            if !r.area_weight().is_finite() {
                return non_finite(format!("relocation request {i} weight"));
            }
        }
        let w = &self.weights;
        for (what, value) in [
            ("objective weight q_1 (wirelength)", w.wirelength),
            ("objective weight q_2 (perimeter)", w.perimeter),
            ("objective weight q_3 (resources)", w.resources),
            ("objective weight q_4 (relocation)", w.relocation),
            ("wire-length normalisation WL_max", self.wl_max()),
            ("relocation normalisation RL_max", self.rl_max()),
        ] {
            if !value.is_finite() {
                return non_finite(what.to_string());
            }
        }
        // Each normalised term of the objective is at most 1, so a finite
        // sum of the weights' magnitudes keeps every objective finite.
        if !(w.wirelength.abs() + w.perimeter.abs() + w.resources.abs() + w.relocation.abs())
            .is_finite()
        {
            return non_finite("objective weight sum |q_1|+|q_2|+|q_3|+|q_4|".to_string());
        }
        for c in &self.connections {
            if c.a >= self.regions.len() {
                return Err(FloorplanError::UnknownRegion(c.a));
            }
            if c.b >= self.regions.len() {
                return Err(FloorplanError::UnknownRegion(c.b));
            }
        }
        for (i, r) in self.relocation.iter().enumerate() {
            if r.region >= self.regions.len() {
                return Err(FloorplanError::InvalidRelocationRequest { request: i });
            }
        }
        // Usable tiles per type, each tile counted once.
        let capacity = self.partition.usable_tiles_by_type();
        for region in &self.regions {
            for &(ty, count) in region.tile_req() {
                let have = capacity.get(ty.index()).copied().unwrap_or(0);
                if have == 0 {
                    return Err(FloorplanError::UnknownTileType { region: region.name.clone() });
                }
                if count as u64 > have {
                    return Err(FloorplanError::ImpossibleRequirement {
                        region: region.name.clone(),
                        detail: format!(
                            "needs {count} tiles of {ty} but only {have} usable tiles exist"
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_device::{columnar_partition, xc5vfx70t, ResourceVec};

    fn fx70t_problem() -> (FloorplanProblem, TileTypeId, TileTypeId, TileTypeId) {
        let device = xc5vfx70t();
        let clb = device.registry.by_name("CLB").unwrap();
        let bram = device.registry.by_name("BRAM").unwrap();
        let dsp = device.registry.by_name("DSP").unwrap();
        let partition = columnar_partition(&device).unwrap();
        (FloorplanProblem::new(partition), clb, bram, dsp)
    }

    #[test]
    fn region_spec_normalises_requirements() {
        let (_, clb, bram, _) = fx70t_problem();
        let spec = RegionSpec::new("r", vec![(bram, 1), (clb, 3), (clb, 2), (bram, 0)]);
        assert_eq!(spec.tile_req(), &[(clb, 5), (bram, 1)]);
        assert_eq!(spec.total_tiles(), 6);
    }

    #[test]
    fn required_frames_uses_paper_weights() {
        let (p, clb, bram, dsp) = fx70t_problem();
        let video = RegionSpec::new("Video Decoder", vec![(clb, 55), (bram, 2), (dsp, 5)]);
        assert_eq!(video.required_frames(&p.partition), 2180);
        let matched = RegionSpec::new("Matched Filter", vec![(clb, 25), (dsp, 5)]);
        assert_eq!(matched.required_frames(&p.partition), 1040);
    }

    #[test]
    fn required_frames_matches_table1_arithmetic() {
        // The weights come from the device's tile types, not from the FX70T:
        // a three-column device with the same weights gives the same sums.
        let mut b = rfp_device::DeviceBuilder::new("t");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
        let dsp = b.tile_type("DSP", ResourceVec::new(0, 0, 1), 28);
        b.rows(2).columns(&[clb, bram, dsp]);
        let small = rfp_device::fabric_partition(&b.build().unwrap()).unwrap();
        let video = RegionSpec::new("Video Decoder", vec![(clb, 55), (bram, 2), (dsp, 5)]);
        assert_eq!(video.required_frames(&small), 2180);
        let matched = RegionSpec::new("Matched Filter", vec![(clb, 25), (dsp, 5)]);
        assert_eq!(matched.required_frames(&small), 1040);
    }

    #[test]
    fn chain_connection_topology() {
        let (mut p, clb, _, _) = fx70t_problem();
        let ids: Vec<_> = (0..4)
            .map(|i| p.add_region(RegionSpec::new(format!("r{i}"), vec![(clb, 1)])))
            .collect();
        p.connect_chain(&ids, 64.0);
        assert_eq!(p.connections.len(), 3);
        assert!(p.connections.iter().all(|c| (c.weight - 64.0).abs() < 1e-12));
    }

    #[test]
    fn fc_areas_flatten_requests() {
        let (mut p, clb, _, _) = fx70t_problem();
        let a = p.add_region(RegionSpec::new("a", vec![(clb, 2)]));
        let b = p.add_region(RegionSpec::new("b", vec![(clb, 3)]));
        p.request_relocation(RelocationRequest::constraint(a, 2));
        p.request_relocation(RelocationRequest::metric(b, 1, 3.0));
        assert_eq!(p.n_fc_areas(), 3);
        let fc = p.fc_areas();
        assert_eq!(fc.len(), 3);
        assert_eq!(fc[0].1, a);
        assert_eq!(fc[2].1, b);
        assert!((p.rl_max() - 5.0).abs() < 1e-12); // 2*1.0 + 1*3.0
    }

    #[test]
    fn normalisation_constants_are_positive() {
        let (mut p, clb, _, _) = fx70t_problem();
        assert!(p.rl_max() >= 1.0);
        assert!(p.wl_max() >= 1.0);
        assert!(p.p_max() >= 1.0);
        assert!(p.r_max() > 4202.0);
        let a = p.add_region(RegionSpec::new("a", vec![(clb, 2)]));
        let b = p.add_region(RegionSpec::new("b", vec![(clb, 2)]));
        p.connect(a, b, 64.0);
        assert!(p.wl_max() >= 64.0);
    }

    #[test]
    fn validation_catches_bad_indices_and_capacities() {
        let (mut p, clb, _, dsp) = fx70t_problem();
        let a = p.add_region(RegionSpec::new("a", vec![(clb, 2)]));
        p.connect(a, 7, 1.0);
        assert_eq!(p.validate(), Err(FloorplanError::UnknownRegion(7)));
        p.connections.clear();
        p.request_relocation(RelocationRequest::constraint(9, 1));
        assert!(matches!(
            p.validate(),
            Err(FloorplanError::InvalidRelocationRequest { request: 0 })
        ));
        p.relocation.clear();
        p.add_region(RegionSpec::new("too big", vec![(dsp, 17)]));
        assert!(matches!(p.validate(), Err(FloorplanError::ImpossibleRequirement { .. })));
    }

    #[test]
    fn validation_rejects_non_finite_weights_and_normalisations() {
        let (mut base, clb, _, _) = fx70t_problem();
        let a = base.add_region(RegionSpec::new("a", vec![(clb, 2)]));
        let b = base.add_region(RegionSpec::new("b", vec![(clb, 2)]));
        base.connect(a, b, 1.0);
        base.request_relocation(RelocationRequest::metric(b, 1, 1.0));
        assert_eq!(base.validate(), Ok(()));
        let rejects = |edit: &dyn Fn(&mut FloorplanProblem), what: &str| {
            let mut p = base.clone();
            edit(&mut p);
            match p.validate() {
                Err(FloorplanError::NonFiniteWeight { what: got }) => {
                    assert!(got.contains(what), "expected `{what}`, got `{got}`")
                }
                other => panic!("expected a non-finite `{what}` rejection, got {other:?}"),
            }
        };
        rejects(&|p| p.connections[0].weight = f64::NAN, "connection 0 weight");
        rejects(&|p| p.relocation[0] = RelocationRequest::metric(b, 1, f64::INFINITY), "request 0");
        rejects(&|p| p.weights.wirelength = f64::INFINITY, "q_1");
        rejects(&|p| p.weights.perimeter = f64::NEG_INFINITY, "q_2");
        rejects(&|p| p.weights.resources = f64::NAN, "q_3");
        rejects(&|p| p.weights.relocation = f64::INFINITY, "q_4");
        // Finite weights whose normalisation overflows: 1e308 times the
        // device diameter, and two 1e308 areas summed.
        rejects(&|p| p.connections[0].weight = 1e308, "WL_max");
        rejects(&|p| p.relocation[0] = RelocationRequest::metric(b, 2, 1e308), "RL_max");
        // Four finite weights whose sum overflows.
        let huge = ObjectiveWeights {
            wirelength: 1e308,
            perimeter: 1e308,
            resources: 1e308,
            relocation: 1e308,
        };
        rejects(&|p| p.weights = huge, "weight sum");
    }

    #[test]
    fn waste_dominates_reads_the_weights_and_the_connections() {
        let (mut p, clb, _, _) = fx70t_problem();
        let a = p.add_region(RegionSpec::new("a", vec![(clb, 2)]));
        let b = p.add_region(RegionSpec::new("b", vec![(clb, 2)]));
        // No connection pulls a region, so any non-negative waste weight
        // dominates, zero included.
        p.weights = ObjectiveWeights { wirelength: 1.0, ..ObjectiveWeights::area_only() };
        p.weights.resources = 0.0;
        assert!(p.waste_dominates());
        p.connect(a, b, 64.0);
        assert!(!p.waste_dominates(), "wire length alone is never dominated");
        p.weights = ObjectiveWeights::paper_default();
        assert!(p.waste_dominates());
        p.weights.resources = -1000.0;
        assert!(!p.waste_dominates(), "a negative waste weight never dominates");
        // The perimeter term can carry the condition on its own.
        p.weights =
            ObjectiveWeights { wirelength: 1.0, perimeter: 2.0, resources: 0.0, relocation: 0.0 };
        assert!(p.waste_dominates());
    }

    #[test]
    fn objective_weight_presets() {
        let w = ObjectiveWeights::paper_default();
        assert!(w.resources > w.wirelength);
        assert_eq!(ObjectiveWeights::area_only().wirelength, 0.0);
        assert_eq!(ObjectiveWeights::paper_default().with_relocation(2.0).relocation, 2.0);
    }
}
