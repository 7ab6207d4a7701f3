//! Candidate-rectangle enumeration and the greedy placer core.
//!
//! A region's candidates are the placements that satisfy its requirement,
//! enumerated over the effective cell grid of a [`FabricPartition`] with
//! per-type 2-D prefix sums. Columnar devices take the same path: their
//! coverage depends only on the column window and the height, so every
//! row anchor of a window yields the same minimum height. The
//! combinatorial engine, the MILP assignment model, the greedy heuristics
//! and the online runtime all work on this candidate list.
//!
//! A candidate is **irredundant** when no single-side shrink (one row shorter
//! from the top or the bottom, leftmost column dropped, or rightmost column
//! dropped) still satisfies the requirement. Only irredundant candidates are
//! enumerated. Every covering rectangle contains an irredundant covering
//! one, and shrinking a region and its free-compatible target by the same
//! offsets keeps the two compatible and clear of overlaps, forbidden cells
//! and die boundaries. The shrink strictly lowers the waste whenever the
//! dropped tiles carry frames, as every tile of the device models does, so
//! no optimum of the combinatorial engine's lexicographic objective (waste
//! first) is lost, even under relocation constraints. The same shrink moves
//! the region's centre by ½, which can lengthen its wires, so for Equation
//! 14 the irredundant candidates hold an optimum only when waste dominates
//! ([`FloorplanProblem::waste_dominates`]): when no shrink can raise the
//! wire-length term by more than it lowers the waste and perimeter terms.
//! `tests/properties.rs` checks both against an exhaustive search over every
//! covering rectangle.
//!
//! [`first_fit`] and [`reserve_fc_areas`] are the greedy placer every
//! greedy caller shares: the lowest-waste candidate clear of what is
//! placed, then the first free-compatible target of each requested area.
//! [`greedy_complete`] chains them into the one greedy first-fit
//! completion; the HO seed ([`crate::heuristic::greedy_floorplan`]) and the
//! incremental re-solve ([`crate::engine::adapt_floorplan`]) call it, each
//! with its own region order. The MILP assignment model places
//! constraint-mode areas among its variables and leaves only the
//! metric-mode ones to [`reserve_fc_areas`].

use crate::fingerprint::{device_cells, device_columns, forbidden_rects, region_demand};
use crate::placement::{FcPlacement, Floorplan};
use crate::problem::{FloorplanProblem, RegionId, RegionSpec, RelocationMode};
use rfp_device::compat::enumerate_free_compatible;
use rfp_device::{FabricPartition, Rect};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// A candidate placement for a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The rectangle.
    pub rect: Rect,
    /// Configuration frames wasted by this placement (covered minus required).
    pub waste: u64,
}

/// Memoisation key: the full structural input of the enumeration. Keyed on
/// device *structure* (per-column tile types and frames, rows, forbidden
/// rectangles) rather than the device name, so identical synthetic devices
/// share entries. The canonical device/demand encodings are shared with the
/// problem-level [`crate::fingerprint::ProblemFingerprint`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    /// Per-column `(tile-type index, frames per tile)` when the fabric has a
    /// columnar view; empty on heterogeneous fabrics.
    columns: Vec<(usize, u32)>,
    /// Per-cell `(tile-type index, frames per tile)` in row-major order for
    /// heterogeneous fabrics; empty when a columnar view exists (the column
    /// encoding already determines every cell). Die boundaries are
    /// deliberately excluded: they restrict relocation, not placement, so
    /// they cannot change the enumeration.
    cells: Vec<(usize, u32)>,
    rows: u32,
    /// Forbidden rectangles as `(x, y, w, h)`.
    forbidden: Vec<(u32, u32, u32, u32)>,
    /// The region's `(tile-type index, tiles)` requirement.
    req: Vec<(usize, u32)>,
}

impl CacheKey {
    fn new(partition: &FabricPartition, spec: &RegionSpec) -> CacheKey {
        CacheKey {
            columns: device_columns(partition),
            cells: if partition.columnar().is_some() {
                Vec::new()
            } else {
                device_cells(partition)
            },
            rows: partition.rows,
            forbidden: forbidden_rects(partition),
            req: region_demand(spec),
        }
    }
}

/// Upper bound on retained cache entries; the cache is cleared wholesale
/// beyond this (the workloads of one process reuse a handful of devices).
const CACHE_CAPACITY: usize = 512;

fn cache() -> &'static Mutex<HashMap<CacheKey, Vec<Candidate>>> {
    static CACHE: OnceLock<Mutex<HashMap<CacheKey, Vec<Candidate>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Whether a memoised enumeration was answered from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLookup {
    /// The candidate list was cloned from the cache.
    Hit,
    /// The list was enumerated from scratch and inserted into the cache.
    Miss,
}

/// Enumerates the candidate placements of a region, sorted by increasing
/// waste (ties broken by x, then y, then width, then height).
///
/// Results are memoised process-wide keyed on `(device structure, resource
/// demand)`: the combinatorial engine, the greedy heuristics and the online
/// runtime's re-solves repeatedly enumerate identical lists, and the
/// enumeration visits every `(x, w, y)` anchor while a cache hit is a plain
/// clone.
pub fn enumerate_candidates(partition: &FabricPartition, spec: &RegionSpec) -> Vec<Candidate> {
    enumerate_candidates_traced(partition, spec).0
}

/// [`enumerate_candidates`] plus the cache verdict of this lookup, so
/// callers (and the cache's own tests) can observe memoisation behaviour
/// without relying on racy global counters.
pub fn enumerate_candidates_traced(
    partition: &FabricPartition,
    spec: &RegionSpec,
) -> (Vec<Candidate>, CacheLookup) {
    let key = CacheKey::new(partition, spec);
    let guard = cache().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(hit) = guard.get(&key) {
        return (hit.clone(), CacheLookup::Hit);
    }
    drop(guard); // do not hold the lock across the expensive enumeration
    let out = enumerate_candidates_uncached(partition, spec);
    let mut cache = self::cache().lock().unwrap_or_else(|e| e.into_inner());
    if cache.len() >= CACHE_CAPACITY {
        cache.clear();
    }
    cache.insert(key, out.clone());
    (out, CacheLookup::Miss)
}

/// The memoisation-free enumeration behind [`enumerate_candidates`].
fn enumerate_candidates_uncached(partition: &FabricPartition, spec: &RegionSpec) -> Vec<Candidate> {
    let mut out = enumerate_fabric(partition, spec);
    out.sort_by_key(|c| (c.waste, c.rect.x, c.rect.y, c.rect.w, c.rect.h));
    out
}

/// Per-type 2-D prefix sums over the effective cell grid, answering coverage
/// and frame queries for arbitrary rectangles in O(types).
struct FabricTable {
    /// `counts[t][r * (cols + 1) + c]` = tiles of type index `t` in the
    /// prefix rows `1..=r`, columns `1..=c` (row/col 0 = 0).
    counts: Vec<Vec<u32>>,
    /// Frames, prefix-summed the same way.
    frames: Vec<u64>,
    cols: usize,
    n_types: usize,
}

impl FabricTable {
    fn new(partition: &FabricPartition) -> Self {
        let cols = partition.cols as usize;
        let rows = partition.rows as usize;
        let n_types = partition.cell_types().iter().map(|t| t.index() + 1).max().unwrap_or(1);
        let stride = cols + 1;
        let mut counts = vec![vec![0u32; stride * (rows + 1)]; n_types];
        let mut frames = vec![0u64; stride * (rows + 1)];
        for r in 1..=rows {
            for c in 1..=cols {
                let ty = partition.tile_type_at(c as u32, r as u32).expect("cell inside device");
                let i = r * stride + c;
                for (t, grid) in counts.iter_mut().enumerate() {
                    grid[i] = grid[i - 1] + grid[i - stride] - grid[i - stride - 1]
                        + u32::from(t == ty.index());
                }
                frames[i] = frames[i - 1] + frames[i - stride] - frames[i - stride - 1]
                    + u64::from(partition.frames_per_tile(ty));
            }
        }
        FabricTable { counts, frames, cols, n_types }
    }

    #[inline]
    fn sum_u32(grid: &[u32], stride: usize, rect: &Rect) -> u32 {
        let (x0, y0) = ((rect.x - 1) as usize, (rect.y - 1) as usize);
        let (x1, y1) = (rect.x2() as usize, rect.y2() as usize);
        grid[y1 * stride + x1] + grid[y0 * stride + x0]
            - grid[y0 * stride + x1]
            - grid[y1 * stride + x0]
    }

    /// Tiles of type index `t` inside the rectangle.
    fn tiles_of_type(&self, t: usize, rect: &Rect) -> u32 {
        Self::sum_u32(&self.counts[t], self.cols + 1, rect)
    }

    /// Frames inside the rectangle.
    fn frames_in(&self, rect: &Rect) -> u64 {
        let stride = self.cols + 1;
        let (x0, y0) = ((rect.x - 1) as usize, (rect.y - 1) as usize);
        let (x1, y1) = (rect.x2() as usize, rect.y2() as usize);
        self.frames[y1 * stride + x1] + self.frames[y0 * stride + x0]
            - self.frames[y0 * stride + x1]
            - self.frames[y1 * stride + x0]
    }

    /// Whether the rectangle covers the requirement.
    fn covers(&self, spec: &RegionSpec, rect: &Rect) -> bool {
        spec.tile_req().iter().all(|&(ty, need)| {
            ty.index() < self.n_types && self.tiles_of_type(ty.index(), rect) >= need
        })
    }

    /// Minimum height `h` such that `(x, y, w, h)` covers the requirement,
    /// or `None` when no height within the device does. Coverage is monotone
    /// in `h`, so binary search applies.
    fn min_height_at(&self, spec: &RegionSpec, x: u32, y: u32, w: u32, rows: u32) -> Option<u32> {
        let h_cap = rows - y + 1;
        if !self.covers(spec, &Rect::new(x, y, w, h_cap)) {
            return None;
        }
        let (mut lo, mut hi) = (1u32, h_cap);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.covers(spec, &Rect::new(x, y, w, mid)) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }
}

/// The enumeration: coverage depends on the full rectangle, so candidates
/// are anchored per `(x, w, y)` with minimum height, and irredundancy is
/// checked against all four single-side shrinks (the bottom shrink fails by
/// height minimality).
fn enumerate_fabric(partition: &FabricPartition, spec: &RegionSpec) -> Vec<Candidate> {
    let cols = partition.cols;
    let rows = partition.rows;
    let table = FabricTable::new(partition);
    let required = spec.required_frames(partition);

    let mut out: Vec<Candidate> = Vec::new();
    for x in 1..=cols {
        for w in 1..=(cols - x + 1) {
            for y in 1..=rows {
                let Some(h_min) = table.min_height_at(spec, x, y, w, rows) else { continue };
                // Irredundancy in width at this anchor: dropping the leftmost
                // or the rightmost column must break coverage at h_min.
                let left_shrink_ok = w > 1
                    && table.min_height_at(spec, x + 1, y, w - 1, rows).is_some_and(|h| h <= h_min);
                let right_shrink_ok = w > 1
                    && table.min_height_at(spec, x, y, w - 1, rows).is_some_and(|h| h <= h_min);
                if left_shrink_ok || right_shrink_ok {
                    continue;
                }
                if h_min > 1 && table.covers(spec, &Rect::new(x, y + 1, w, h_min - 1)) {
                    // Redundant in height from the top: the anchor one row
                    // down does at least as well.
                    continue;
                }
                let rect = Rect::new(x, y, w, h_min);
                if partition.rect_crosses_forbidden(&rect) {
                    continue;
                }
                out.push(Candidate {
                    rect,
                    waste: table.frames_in(&rect).saturating_sub(required),
                });
            }
        }
    }
    out
}

/// Minimum waste achievable by any placement of the region (ignoring the
/// other regions), or `None` if the region cannot be placed at all.
pub fn min_waste(partition: &FabricPartition, spec: &RegionSpec) -> Option<u64> {
    enumerate_candidates(partition, spec).first().map(|c| c.waste)
}

/// The lowest-waste candidate placement of `spec` that overlaps none of
/// `occupied` (the greedy placer's first fit), or `None` when every
/// candidate collides.
pub fn first_fit(
    partition: &FabricPartition,
    spec: &RegionSpec,
    occupied: &[Rect],
) -> Option<Rect> {
    let cands = enumerate_candidates(partition, spec);
    cands.iter().find(|c| !occupied.iter().any(|o| o.overlaps(&c.rect))).map(|c| c.rect)
}

/// Greedily reserves the requested free-compatible areas, in the order of
/// `fc` (`(request, region, mode)` triples, as
/// [`crate::FloorplanProblem::fc_areas`] lists them). Each area takes the
/// first free-compatible target of `regions[region]` (row-major) clear of
/// `occupied` and of the areas reserved before it. An area with no such
/// target is left `None`, which fails validation for a constraint-mode
/// request and costs Equation 15's term for a metric-mode one.
pub fn reserve_fc_areas(
    partition: &FabricPartition,
    fc: &[(usize, RegionId, RelocationMode)],
    regions: &[Rect],
    mut occupied: Vec<Rect>,
) -> Vec<FcPlacement> {
    let mut fc_areas = Vec::with_capacity(fc.len());
    for &(request, region, mode) in fc {
        let rect =
            enumerate_free_compatible(partition, &regions[region], &occupied).first().copied();
        occupied.extend(rect);
        fc_areas.push(FcPlacement { request, region, mode, rect });
    }
    fc_areas
}

/// Completes a partial placement greedily: each region of `order` takes its
/// [`first_fit`] clear of the rectangles already in `placed` and of those
/// placed before it, and then the requested free-compatible areas are
/// reserved with [`reserve_fc_areas`]. `order` must name every region that
/// `placed` leaves `None`. Returns the floorplan when it validates, and
/// `None` when a region does not fit or the floorplan fails validation
/// (say, an unreservable constraint-mode area).
pub fn greedy_complete(
    problem: &FloorplanProblem,
    mut placed: Vec<Option<Rect>>,
    order: &[usize],
) -> Option<Floorplan> {
    let partition = &problem.partition;
    let mut occupied: Vec<Rect> = placed.iter().flatten().copied().collect();
    for &i in order {
        let rect = first_fit(partition, &problem.regions[i], &occupied)?;
        placed[i] = Some(rect);
        occupied.push(rect);
    }
    let regions = placed.into_iter().collect::<Option<Vec<Rect>>>()?;
    let fc_areas = reserve_fc_areas(partition, &problem.fc_areas(), &regions, occupied);
    let fp = Floorplan { regions, fc_areas };
    fp.validate(problem).is_empty().then_some(fp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::RegionSpec;
    use rfp_device::{fabric_partition, xc5vfx70t, DeviceBuilder, ResourceVec};

    /// Held by the tests that assert hit/miss verdicts: the cache is
    /// process-wide, and `capacity_overflow_clears_stale_entries` clears it
    /// wholesale, which would evict a sibling's key mid-test.
    static VERDICTS: Mutex<()> = Mutex::new(());

    fn small_partition() -> (FabricPartition, rfp_device::TileTypeId, rfp_device::TileTypeId) {
        let mut b = DeviceBuilder::new("small");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
        b.rows(4).columns(&[clb, clb, bram, clb, clb, clb]);
        (fabric_partition(&b.build().unwrap()).unwrap(), clb, bram)
    }

    #[test]
    fn candidates_cover_requirements_and_respect_bounds() {
        let (p, clb, bram) = small_partition();
        let spec = RegionSpec::new("r", vec![(clb, 4), (bram, 1)]);
        let cands = enumerate_candidates(&p, &spec);
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(p.rect_in_bounds(&c.rect));
            let covered = p.tiles_by_type_in_rect(&c.rect);
            let clb_cov = covered.iter().find(|(t, _)| *t == clb).map(|&(_, n)| n).unwrap_or(0);
            let bram_cov = covered.iter().find(|(t, _)| *t == bram).map(|&(_, n)| n).unwrap_or(0);
            assert!(clb_cov >= 4 && bram_cov >= 1, "candidate {:?} under-covers", c.rect);
            assert_eq!(c.waste, p.frames_in_rect(&c.rect) - spec.required_frames(&p));
        }
        // Sorted by waste.
        for w in cands.windows(2) {
            assert!(w[0].waste <= w[1].waste);
        }
    }

    #[test]
    fn irredundant_candidates_cannot_shrink() {
        let (p, clb, bram) = small_partition();
        let spec = RegionSpec::new("r", vec![(clb, 4), (bram, 1)]);
        let cands = enumerate_candidates(&p, &spec);
        for c in &cands {
            let r = c.rect;
            // Shrinking the height must break coverage.
            if r.h > 1 {
                let shorter = Rect::new(r.x, r.y, r.w, r.h - 1);
                let covered = p.tiles_by_type_in_rect(&shorter);
                let ok = spec.tile_req().iter().all(|&(ty, need)| {
                    covered.iter().find(|(t, _)| *t == ty).map(|&(_, n)| n).unwrap_or(0) >= need
                });
                assert!(!ok, "candidate {r} is redundant in height");
            }
        }
    }

    #[test]
    fn impossible_requirement_has_no_candidates() {
        let (p, _, bram) = small_partition();
        // Only one BRAM column of 4 rows exists -> 5 BRAM tiles is impossible.
        let spec = RegionSpec::new("r", vec![(bram, 5)]);
        assert!(enumerate_candidates(&p, &spec).is_empty());
        assert_eq!(min_waste(&p, &spec), None);
    }

    #[test]
    fn forbidden_areas_exclude_candidates() {
        let mut b = DeviceBuilder::new("fb");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        b.rows(3).repeat_column(clb, 3);
        // The forbidden block covers column 2, rows 1-2.
        b.forbidden("blk", rfp_device::Rect::new(2, 1, 1, 2));
        let p = fabric_partition(&b.build().unwrap()).unwrap();
        let spec = RegionSpec::new("r", vec![(clb, 1)]);
        let cands = enumerate_candidates(&p, &spec);
        assert!(!cands.is_empty());
        assert!(
            cands.iter().all(|c| !(c.rect.contains(2, 1) || c.rect.contains(2, 2))),
            "no candidate may cross the forbidden block"
        );
        // The non-forbidden tile of column 2 is still usable.
        assert!(cands.iter().any(|c| c.rect.contains(2, 3)));
    }

    #[test]
    fn sdr_video_decoder_has_candidates_on_fx70t() {
        let device = xc5vfx70t();
        let clb = device.registry.by_name("CLB").unwrap();
        let bram = device.registry.by_name("BRAM").unwrap();
        let dsp = device.registry.by_name("DSP").unwrap();
        let p = fabric_partition(&device).unwrap();
        let video = RegionSpec::new("Video Decoder", vec![(clb, 55), (bram, 2), (dsp, 5)]);
        let cands = enumerate_candidates(&p, &video);
        assert!(!cands.is_empty(), "the video decoder must be placeable on the FX70T");
        // The best candidate's waste is bounded by a sane amount (less than
        // the region's own requirement).
        assert!(cands[0].waste < video.required_frames(&p));
    }

    #[test]
    fn memoised_enumeration_matches_uncached() {
        let (p, clb, bram) = small_partition();
        let spec = RegionSpec::new("r", vec![(clb, 3), (bram, 1)]);
        let cached_cold = enumerate_candidates(&p, &spec);
        let cached_warm = enumerate_candidates(&p, &spec);
        let raw = enumerate_candidates_uncached(&p, &spec);
        assert_eq!(cached_cold, raw);
        assert_eq!(cached_warm, raw);
    }

    /// A device structurally unique to one test, so concurrent tests sharing
    /// the process-wide cache can never collide with its keys.
    fn unique_partition(tag: u32) -> (FabricPartition, rfp_device::TileTypeId) {
        let mut b = DeviceBuilder::new(format!("cache-probe-{tag}"));
        // An unusual frame weight namespaces the cache key (the key hashes
        // per-column frames, not the device name).
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 1000 + tag);
        b.rows(2).repeat_column(clb, 3);
        (fabric_partition(&b.build().unwrap()).unwrap(), clb)
    }

    #[test]
    fn identical_lookups_hit_the_cache() {
        let _verdicts = VERDICTS.lock().unwrap_or_else(|e| e.into_inner());
        let (p, clb) = unique_partition(1);
        let spec = RegionSpec::new("r", vec![(clb, 2)]);
        let (cold, first) = enumerate_candidates_traced(&p, &spec);
        assert_eq!(first, CacheLookup::Miss, "first lookup of a fresh key must miss");
        let (warm, second) = enumerate_candidates_traced(&p, &spec);
        assert_eq!(second, CacheLookup::Hit, "identical device+demand must hit");
        assert_eq!(cold, warm);
        // The region *name* is not part of the demand; a renamed but
        // otherwise identical spec still hits.
        let renamed = RegionSpec::new("other-name", vec![(clb, 2)]);
        assert_eq!(enumerate_candidates_traced(&p, &renamed).1, CacheLookup::Hit);
    }

    #[test]
    fn changed_demand_config_or_device_miss_the_cache() {
        let _verdicts = VERDICTS.lock().unwrap_or_else(|e| e.into_inner());
        let (p, clb) = unique_partition(2);
        let spec = RegionSpec::new("r", vec![(clb, 2)]);
        assert_eq!(enumerate_candidates_traced(&p, &spec).1, CacheLookup::Miss);
        assert_eq!(enumerate_candidates_traced(&p, &spec).1, CacheLookup::Hit);
        // Changed demand: different tile count.
        let bigger = RegionSpec::new("r", vec![(clb, 3)]);
        assert_eq!(enumerate_candidates_traced(&p, &bigger).1, CacheLookup::Miss);
        // Changed device structure: one more row.
        let mut b = DeviceBuilder::new("cache-probe-2b");
        let clb2 = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 1002);
        b.rows(3).repeat_column(clb2, 3);
        let taller = fabric_partition(&b.build().unwrap()).unwrap();
        let spec2 = RegionSpec::new("r", vec![(clb2, 2)]);
        assert_eq!(enumerate_candidates_traced(&taller, &spec2).1, CacheLookup::Miss);
        // The original key is still cached.
        assert_eq!(enumerate_candidates_traced(&p, &spec).1, CacheLookup::Hit);
    }

    #[test]
    fn capacity_overflow_clears_stale_entries() {
        let _verdicts = VERDICTS.lock().unwrap_or_else(|e| e.into_inner());
        let (p, clb) = unique_partition(3);
        let first = RegionSpec::new("r", vec![(clb, 1)]);
        assert_eq!(enumerate_candidates_traced(&p, &first).1, CacheLookup::Miss);
        // Insert enough distinct keys to force at least one wholesale clear
        // after `first` was cached (the cache holds CACHE_CAPACITY entries).
        for extra in 0..=CACHE_CAPACITY as u32 {
            let spec = RegionSpec::new("r", vec![(clb, 2 + extra)]);
            let _ = enumerate_candidates_traced(&p, &spec);
        }
        assert_eq!(
            enumerate_candidates_traced(&p, &first).1,
            CacheLookup::Miss,
            "the capacity sweep must have evicted the first key"
        );
        // Leave room, so that the few keys other tests insert cannot fill
        // the cache and clear it while a verdict test runs.
        cache().lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    #[test]
    fn min_waste_matches_first_candidate() {
        let (p, clb, bram) = small_partition();
        let spec = RegionSpec::new("r", vec![(clb, 3), (bram, 2)]);
        let cands = enumerate_candidates(&p, &spec);
        assert_eq!(min_waste(&p, &spec), Some(cands[0].waste));
    }

    /// A genuinely heterogeneous 4x4 fabric: column 2 is BRAM on rows 1-2
    /// only, so coverage depends on the full rectangle, not just columns.
    fn hetero_partition() -> (FabricPartition, rfp_device::TileTypeId, rfp_device::TileTypeId) {
        use rfp_device::{Device, TileGrid, TileType, TileTypeRegistry};
        let mut reg = TileTypeRegistry::new();
        let clb = reg.register(TileType::new("CLB", ResourceVec::new(1, 0, 0), 36)).unwrap();
        let bram = reg.register(TileType::new("BRAM", ResourceVec::new(0, 1, 0), 30)).unwrap();
        let mut grid = TileGrid::new(4, 4).unwrap();
        for c in 1..=4 {
            grid.fill_column(c, clb).unwrap();
        }
        grid.set(2, 1, Some(bram)).unwrap();
        grid.set(2, 2, Some(bram)).unwrap();
        let device = Device::new("hetero-cand", reg, grid, vec![]).unwrap();
        (fabric_partition(&device).unwrap(), clb, bram)
    }

    #[test]
    fn hetero_candidates_cover_and_are_irredundant() {
        let (p, clb, bram) = hetero_partition();
        assert!(p.columnar().is_none());
        let spec = RegionSpec::new("r", vec![(clb, 2), (bram, 1)]);
        let cands = enumerate_candidates(&p, &spec);
        assert!(!cands.is_empty());
        let covers = |r: &Rect| {
            let covered = p.tiles_by_type_in_rect(r);
            spec.tile_req().iter().all(|&(ty, need)| {
                covered.iter().find(|(t, _)| *t == ty).map(|&(_, n)| n).unwrap_or(0) >= need
            })
        };
        for c in &cands {
            let r = c.rect;
            assert!(p.rect_in_bounds(&r));
            // BRAM only exists on rows 1-2 of column 2.
            assert!(covers(&r), "candidate {r} under-covers");
            assert_eq!(c.waste, p.frames_in_rect(&r) - spec.required_frames(&p));
            // All four single-side shrinks must break coverage.
            if r.h > 1 {
                assert!(!covers(&Rect::new(r.x, r.y, r.w, r.h - 1)), "{r} redundant (bottom)");
                assert!(!covers(&Rect::new(r.x, r.y + 1, r.w, r.h - 1)), "{r} redundant (top)");
            }
            if r.w > 1 {
                assert!(!covers(&Rect::new(r.x + 1, r.y, r.w - 1, r.h)), "{r} redundant (left)");
                assert!(!covers(&Rect::new(r.x, r.y, r.w - 1, r.h)), "{r} redundant (right)");
            }
        }
        // No candidate can live entirely on rows 3-4 (no BRAM there).
        assert!(cands.iter().all(|c| c.rect.y <= 2));
    }

    #[test]
    fn hetero_and_columnar_cache_keys_do_not_collide() {
        let (p, clb, bram) = hetero_partition();
        let spec = RegionSpec::new("r", vec![(clb, 1), (bram, 1)]);
        let key = CacheKey::new(&p, &spec);
        assert!(key.columns.is_empty() && !key.cells.is_empty());
        let (c, _, _) = small_partition();
        let columnar_key = CacheKey::new(&c, &spec);
        assert!(!columnar_key.columns.is_empty() && columnar_key.cells.is_empty());
        assert_ne!(key, columnar_key);
    }
}
