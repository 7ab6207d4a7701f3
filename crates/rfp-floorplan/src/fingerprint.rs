//! Stable problem fingerprints for cross-request memoisation.
//!
//! The candidate enumeration in [`crate::candidates`] has always memoised on
//! the *structural* content of a lookup — per-column tile types and frames
//! rather than device names — so identical synthetic devices share entries.
//! This module lifts that canonical encoding into a public
//! [`ProblemFingerprint`] covering a whole [`FloorplanProblem`]: three
//! independent digests of the **device structure**, the **resource demand**
//! and the **objective configuration**, hashed with FNV-1a so the value is
//! stable across processes and Rust releases (unlike `DefaultHasher`, whose
//! keys are randomised per process).
//!
//! The solve service keys its cross-request outcome cache on these
//! fingerprints: an exact match replays the cached outcome, and a
//! *near* match (same device, close demand) warm-starts the engines from the
//! nearest cached floorplan via [`crate::engine::SolveRequest::with_warm_outcome`].

use crate::problem::{FloorplanProblem, RegionSpec, RelocationMode};
use rfp_device::FabricPartition;

/// Per-column `(tile-type index, frames per tile)` — the canonical device
/// encoding shared by the candidate cache and [`ProblemFingerprint`] on
/// columnar fabrics. Two devices with equal column encodings, rows and
/// forbidden rectangles are interchangeable for floorplanning regardless of
/// their names. Returns an empty vector on a fabric with no columnar view
/// (a heterogeneous device is encoded per cell by [`device_cells`] instead).
pub fn device_columns(partition: &FabricPartition) -> Vec<(usize, u32)> {
    let Some(cp) = partition.columnar() else { return Vec::new() };
    (1..=cp.cols)
        .map(|c| {
            let ty = cp.column_type(c).expect("column inside device");
            (ty.index(), cp.frames_per_tile(ty))
        })
        .collect()
}

/// Per-cell `(tile-type index, frames per tile)` in row-major order — the
/// canonical encoding of a heterogeneous fabric. Defined for every fabric
/// (on a columnar device each column repeats `rows` times), but cache keys
/// only fall back to it when no columnar view exists.
pub fn device_cells(partition: &FabricPartition) -> Vec<(usize, u32)> {
    partition.cell_types().iter().map(|&ty| (ty.index(), partition.frames_per_tile(ty))).collect()
}

/// Forbidden rectangles as `(x, y, w, h)` tuples, in device order.
pub fn forbidden_rects(partition: &FabricPartition) -> Vec<(u32, u32, u32, u32)> {
    partition.forbidden.iter().map(|f| (f.rect.x, f.rect.y, f.rect.w, f.rect.h)).collect()
}

/// A region's requirement as sorted `(tile-type index, tiles)` pairs — the
/// canonical demand encoding (region *names* are deliberately excluded, so a
/// renamed but otherwise identical region fingerprints the same).
pub fn region_demand(spec: &RegionSpec) -> Vec<(usize, u32)> {
    let mut req: Vec<(usize, u32)> =
        spec.tile_req().iter().map(|&(ty, n)| (ty.index(), n)).collect();
    req.sort_unstable();
    req
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Minimal FNV-1a accumulator. `std`'s `DefaultHasher` is explicitly not
/// guaranteed stable across releases; a cache key that must be comparable
/// across processes (and, later, across machines) needs a pinned algorithm.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn f64(&mut self, v: f64) {
        // `to_bits` keeps -0.0 and 0.0 distinct; that is fine for a cache
        // key (a spurious miss, never a wrong hit).
        self.u64(v.to_bits());
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// A stable fingerprint of a floorplanning problem, split into the three
/// axes a cache wants to reason about independently.
///
/// Equality of the full fingerprint means the problems are interchangeable
/// for solving (up to region names). [`ProblemFingerprint::distance`] orders
/// near-matches on the same device so a cache can pick the closest warm
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProblemFingerprint {
    /// Digest of the device structure: rows, per-column `(type, frames)`,
    /// forbidden rectangles.
    device: u64,
    /// Digest of the demand: per-region requirements (in region order),
    /// connections and relocation requests.
    demand: u64,
    /// Digest of the objective configuration (weights `q_1..q_4`).
    config: u64,
    /// Number of regions — kept in the clear for the distance metric.
    pub n_regions: usize,
    /// Total frames required by all regions — kept in the clear for the
    /// distance metric.
    pub total_required_frames: u64,
}

impl ProblemFingerprint {
    /// Fingerprints a problem.
    pub fn of(problem: &FloorplanProblem) -> ProblemFingerprint {
        let p = &problem.partition;

        let mut device = Fnv::new();
        device.u64(u64::from(p.rows));
        if p.is_columnar_legacy() {
            // Legacy columnar devices keep the original per-column encoding,
            // so every fingerprint persisted before the fabric refactor is
            // unchanged.
            for (ty, frames) in device_columns(p) {
                device.u64(ty as u64);
                device.u64(u64::from(frames));
            }
        } else {
            // Heterogeneous fabrics (or columnar devices with die
            // boundaries) hash the full effective cell grid plus the
            // boundary rows. The leading column count domain-separates this
            // encoding from the per-column one above.
            device.u64(u64::from(p.cols));
            for (ty, frames) in device_cells(p) {
                device.u64(ty as u64);
                device.u64(u64::from(frames));
            }
            device.u64(p.die_boundaries.len() as u64);
            for &b in &p.die_boundaries {
                device.u64(u64::from(b));
            }
        }
        for (x, y, w, h) in forbidden_rects(p) {
            device.u64(u64::from(x));
            device.u64(u64::from(y));
            device.u64(u64::from(w));
            device.u64(u64::from(h));
        }

        let mut demand = Fnv::new();
        demand.u64(problem.regions.len() as u64);
        for region in &problem.regions {
            let req = region_demand(region);
            demand.u64(req.len() as u64);
            for (ty, n) in req {
                demand.u64(ty as u64);
                demand.u64(u64::from(n));
            }
        }
        demand.u64(problem.connections.len() as u64);
        for c in &problem.connections {
            demand.u64(c.a as u64);
            demand.u64(c.b as u64);
            demand.f64(c.weight);
        }
        demand.u64(problem.relocation.len() as u64);
        for r in &problem.relocation {
            demand.u64(r.region as u64);
            demand.u64(u64::from(r.count));
            match r.mode {
                RelocationMode::Constraint => demand.u64(0),
                RelocationMode::Metric { weight } => {
                    demand.u64(1);
                    demand.f64(weight);
                }
            }
        }

        let mut config = Fnv::new();
        config.f64(problem.weights.wirelength);
        config.f64(problem.weights.perimeter);
        config.f64(problem.weights.resources);
        config.f64(problem.weights.relocation);

        ProblemFingerprint {
            device: device.finish(),
            demand: demand.finish(),
            config: config.finish(),
            n_regions: problem.regions.len(),
            total_required_frames: problem.total_required_frames(),
        }
    }

    /// Whether the two fingerprints describe the same device structure.
    pub fn same_device(&self, other: &ProblemFingerprint) -> bool {
        self.device == other.device
    }

    /// Whether the two fingerprints describe the same resource demand.
    pub fn same_demand(&self, other: &ProblemFingerprint) -> bool {
        self.demand == other.demand
    }

    /// Whether the two fingerprints describe the same objective
    /// configuration.
    pub fn same_config(&self, other: &ProblemFingerprint) -> bool {
        self.config == other.config
    }

    /// A single combined digest, e.g. for logging or sharding.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.device);
        h.u64(self.demand);
        h.u64(self.config);
        h.finish()
    }

    /// How far `other` is from `self` for warm-start purposes. `None` when
    /// the devices differ (a floorplan for another device is useless as a
    /// warm start); `Some(0)` for an exact match; otherwise a heuristic
    /// penalty that grows with the demand gap, so a cache can rank its
    /// entries and warm-start from the nearest one.
    pub fn distance(&self, other: &ProblemFingerprint) -> Option<u64> {
        if !self.same_device(other) {
            return None;
        }
        let mut d = 0u64;
        if !self.same_config(other) {
            d += 1;
        }
        if !self.same_demand(other) {
            d += 16;
            d += 4 * self.n_regions.abs_diff(other.n_regions) as u64;
            d = d.saturating_add(self.total_required_frames.abs_diff(other.total_required_frames));
        }
        Some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ObjectiveWeights, RegionSpec, RelocationRequest};
    use rfp_device::{columnar_partition, DeviceBuilder, ResourceVec};

    fn problem(frames: u32) -> (FloorplanProblem, rfp_device::TileTypeId) {
        let mut b = DeviceBuilder::new("fp-test");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), frames);
        b.rows(4).repeat_column(clb, 6);
        let p = columnar_partition(&b.build().unwrap()).unwrap();
        let mut problem = FloorplanProblem::new(p);
        problem.add_region(RegionSpec::new("a", vec![(clb, 3)]));
        problem.add_region(RegionSpec::new("b", vec![(clb, 2)]));
        problem.connect(0, 1, 8.0);
        (problem, clb)
    }

    #[test]
    fn equal_problems_fingerprint_equal() {
        let (a, _) = problem(36);
        let (b, _) = problem(36);
        assert_eq!(ProblemFingerprint::of(&a), ProblemFingerprint::of(&b));
        assert_eq!(ProblemFingerprint::of(&a).distance(&ProblemFingerprint::of(&b)), Some(0));
    }

    #[test]
    fn region_names_do_not_affect_the_fingerprint() {
        let (a, clb) = problem(36);
        let (mut b, _) = problem(36);
        b.regions[0] = RegionSpec::new("renamed", vec![(clb, 3)]);
        assert_eq!(ProblemFingerprint::of(&a), ProblemFingerprint::of(&b));
    }

    #[test]
    fn each_axis_changes_its_own_digest() {
        let (base, clb) = problem(36);
        let fp = ProblemFingerprint::of(&base);

        // Device change.
        let (dev, _) = problem(30);
        let fp_dev = ProblemFingerprint::of(&dev);
        assert!(!fp.same_device(&fp_dev));
        assert!(fp.same_demand(&fp_dev));
        assert_eq!(fp.distance(&fp_dev), None);

        // Demand change.
        let (mut dem, _) = problem(36);
        dem.request_relocation(RelocationRequest::constraint(0, 1));
        let fp_dem = ProblemFingerprint::of(&dem);
        assert!(fp.same_device(&fp_dem));
        assert!(!fp.same_demand(&fp_dem));
        assert!(fp.distance(&fp_dem).unwrap() > 0);

        // Config change.
        let (mut cfg, _) = problem(36);
        cfg.weights = ObjectiveWeights::area_only();
        let fp_cfg = ProblemFingerprint::of(&cfg);
        assert!(fp.same_device(&fp_cfg) && fp.same_demand(&fp_cfg));
        assert!(!fp.same_config(&fp_cfg));
        assert_eq!(fp.distance(&fp_cfg), Some(1));

        // A bigger demand gap ranks farther than a config tweak.
        let (mut big, _) = problem(36);
        big.add_region(RegionSpec::new("c", vec![(clb, 4)]));
        let fp_big = ProblemFingerprint::of(&big);
        assert!(fp.distance(&fp_big).unwrap() > fp.distance(&fp_cfg).unwrap());
    }

    #[test]
    fn fnv_digest_is_pinned() {
        // The exact FNV-1a value of "rfp" — pins the algorithm so a future
        // refactor cannot silently change every persisted fingerprint.
        let mut h = Fnv::new();
        for b in b"rfp" {
            h.byte(*b);
        }
        assert_eq!(h.finish(), 0x89f3_bc19_60fd_133b_u64);
    }
}
