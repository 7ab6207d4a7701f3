//! Property-based tests over the cross-crate invariants.

use proptest::prelude::*;
use relocfp::prelude::*;
use rfp_device::compat::{enumerate_free_compatible, fabric_compatible, free_compatible};
use rfp_device::{ForbiddenArea, SyntheticSpec, TileGrid, TileType, TileTypeRegistry};
use rfp_floorplan::candidates::{enumerate_candidates, Candidate};
use rfp_floorplan::combinatorial::{solve_combinatorial, CombinatorialConfig, TargetTable};
use rfp_workloads::generator::WorkloadSpec;

fn device(cols: u32, rows: u32) -> Device {
    let spec = SyntheticSpec {
        name: "prop".into(),
        cols,
        rows,
        bram_every: 4,
        dsp_every: 7,
        hard_block: None,
    };
    spec.build().unwrap()
}

fn partition(cols: u32, rows: u32) -> FabricPartition {
    fabric_partition(&device(cols, rows)).unwrap()
}

fn arb_rect(cols: u32, rows: u32) -> impl Strategy<Value = Rect> {
    (1..=cols, 1..=rows).prop_flat_map(move |(x, y)| {
        (Just(x), Just(y), 1..=(cols - x + 1), 1..=(rows - y + 1))
            .prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
    })
}

/// A small random fabric, columnar or with a tile type drawn per cell, with
/// an optional forbidden cell and up to two die boundaries, carrying two or
/// three regions. Each region asks for nothing, a constraint-mode or a
/// metric-mode relocation.
fn arb_relocation_problem() -> impl Strategy<Value = FloorplanProblem> {
    arb_relocation_problem_below(10, 6)
}

/// [`arb_relocation_problem`] on fabrics of 4 to `cols - 1` columns and 3 to
/// `rows - 1` rows.
fn arb_relocation_problem_below(cols: u32, rows: u32) -> impl Strategy<Value = FloorplanProblem> {
    (4u32..cols, 3u32..rows)
        .prop_flat_map(|(cols, rows)| {
            (
                Just((cols, rows)),
                any::<bool>(),
                proptest::collection::vec(0u8..5, (cols * rows) as usize),
                proptest::option::of((1..=cols, 1..=rows)),
                proptest::collection::vec(1..rows, 0..3),
                proptest::collection::vec((1u32..4, 0u32..2, 0u8..3, 1u32..3), 2..4),
            )
        })
        .prop_map(|((cols, rows), columnar, types, forbidden, bounds, regions)| {
            let mut reg = TileTypeRegistry::new();
            let clb = reg.register(TileType::new("CLB", ResourceVec::new(1, 0, 0), 36)).unwrap();
            let bram = reg.register(TileType::new("BRAM", ResourceVec::new(0, 1, 0), 30)).unwrap();
            let dsp = reg.register(TileType::new("DSP", ResourceVec::new(0, 0, 1), 28)).unwrap();
            let palette = [clb, clb, clb, bram, dsp];
            let mut grid = TileGrid::new(cols, rows).unwrap();
            for row in 1..=rows {
                for col in 1..=cols {
                    let i = if columnar { col - 1 } else { (row - 1) * cols + col - 1 };
                    grid.set(col, row, Some(palette[usize::from(types[i as usize])])).unwrap();
                }
            }
            let forbidden: Vec<ForbiddenArea> = forbidden
                .map(|(x, y)| ForbiddenArea::new("blk", Rect::new(x, y, 1, 1)))
                .into_iter()
                .collect();
            let device = Device::new("prop-reloc", reg, grid, forbidden).unwrap();
            let mut p =
                FloorplanProblem::new(fabric_partition_with_boundaries(&device, &bounds).unwrap());
            for (i, &(clbs, brams, mode, count)) in regions.iter().enumerate() {
                let r = p
                    .add_region(RegionSpec::new(format!("r{i}"), vec![(clb, clbs), (bram, brams)]));
                match mode {
                    1 => p.request_relocation(RelocationRequest::constraint(r, count)),
                    2 => p.request_relocation(RelocationRequest::metric(r, count, 1.5)),
                    _ => {}
                }
            }
            p
        })
}

/// Every legal rectangle covering `spec`'s requirement, redundant or not,
/// with its wasted frames.
fn all_covering_rects(p: &FabricPartition, spec: &RegionSpec) -> Vec<(Rect, u64)> {
    let required = spec.required_frames(p);
    let mut out = Vec::new();
    for (x, y) in (1..=p.cols).flat_map(|x| (1..=p.rows).map(move |y| (x, y))) {
        for (w, h) in (1..=p.cols - x + 1).flat_map(|w| (1..=p.rows - y + 1).map(move |h| (w, h))) {
            let rect = Rect::new(x, y, w, h);
            let covered = p.tiles_by_type_in_rect(&rect);
            let covers = spec.tile_req().iter().all(|&(ty, need)| {
                covered.iter().find(|(t, _)| *t == ty).map_or(0, |&(_, n)| n) >= need
            });
            if covers && !p.rect_crosses_forbidden(&rect) {
                out.push((rect, p.frames_in_rect(&rect) - required));
            }
        }
    }
    out.sort_by_key(|&(_, waste)| waste);
    out
}

/// Packs one free-compatible area per entry of `sources` (a region index)
/// by backtracking over `enumerate_free_compatible`, clear of `occupied`.
fn pack_free_compatible(
    p: &FabricPartition,
    rects: &[Rect],
    sources: &[usize],
    occupied: &mut Vec<Rect>,
) -> bool {
    let Some((&region, rest)) = sources.split_first() else { return true };
    for target in enumerate_free_compatible(p, &rects[region], occupied) {
        occupied.push(target);
        let packed = pack_free_compatible(p, rects, rest, occupied);
        occupied.pop();
        if packed {
            return true;
        }
    }
    false
}

/// The exhaustive reference for the combinatorial engine: the least
/// `(waste, wire length)` over every assignment of legal covering
/// rectangles, redundant ones included, whose constraint-mode areas pack.
/// Metric-mode areas do not enter the engine's objective.
struct Oracle<'a> {
    problem: &'a FloorplanProblem,
    rects: Vec<Vec<(Rect, u64)>>,
    /// Least waste of the regions from each index on.
    rest: Vec<u64>,
    /// One entry per constraint-mode area: its source region.
    sources: Vec<usize>,
    best: Option<(u64, f64)>,
}

impl Oracle<'_> {
    fn solve(problem: &FloorplanProblem) -> Option<(u64, f64)> {
        let p = &problem.partition;
        let rects: Vec<_> = problem.regions.iter().map(|s| all_covering_rects(p, s)).collect();
        if rects.iter().any(Vec::is_empty) {
            return None;
        }
        let mut rest = vec![0; rects.len() + 1];
        for r in (0..rects.len()).rev() {
            rest[r] = rest[r + 1] + rects[r][0].1;
        }
        let sources = problem
            .fc_areas()
            .into_iter()
            .filter(|&(_, _, mode)| matches!(mode, RelocationMode::Constraint))
            .map(|(_, region, _)| region)
            .collect();
        let mut oracle = Oracle { problem, rects, rest, sources, best: None };
        oracle.search(&mut Vec::new(), 0);
        oracle.best
    }

    fn search(&mut self, placed: &mut Vec<Rect>, waste: u64) {
        let level = placed.len();
        if self.best.is_some_and(|(best, _)| waste + self.rest[level] > best) {
            return;
        }
        let p = &self.problem.partition;
        // A placed source must keep as many compatible targets clear of the
        // placed rects as it has constraint-mode areas.
        for (region, rect) in placed.iter().enumerate() {
            let need = self.sources.iter().filter(|&&s| s == region).count();
            if need > 0 && enumerate_free_compatible(p, rect, placed).len() < need {
                return;
            }
        }
        if level == self.rects.len() {
            if !pack_free_compatible(p, placed, &self.sources, &mut placed.clone()) {
                return;
            }
            let wl: f64 = self
                .problem
                .connections
                .iter()
                .map(|c| c.weight * placed[c.a].center_distance_x2(&placed[c.b]) as f64 / 2.0)
                .sum();
            if self.best.is_none_or(|(bw, bwl)| waste < bw || (waste == bw && wl < bwl)) {
                self.best = Some((waste, wl));
            }
            return;
        }
        for i in 0..self.rects[level].len() {
            let (rect, w) = self.rects[level][i];
            if placed.iter().any(|o| o.overlaps(&rect)) {
                continue;
            }
            placed.push(rect);
            self.search(placed, waste + w);
            placed.pop();
        }
    }
}

/// The oracle's weighted mode: Equation 14's least value over every
/// assignment of legal covering rectangles, redundant ones included, for a
/// relocation-free problem with non-negative weights. Each region's
/// rectangles are tried in increasing order of their own waste and
/// perimeter cost, and a branch stops once that cost, the least cost of the
/// regions left and the wire length among the placed regions exceed the
/// best objective.
struct WeightedOracle<'a> {
    problem: &'a FloorplanProblem,
    rects: Vec<Vec<(Rect, f64)>>,
    /// Least cost of the regions from each index on.
    rest: Vec<f64>,
    best: Option<f64>,
}

impl WeightedOracle<'_> {
    fn solve(problem: &FloorplanProblem) -> Option<f64> {
        let w = problem.weights;
        assert!(problem.relocation.is_empty(), "the weighted oracle prices no relocation");
        assert!(w.wirelength >= 0.0 && w.perimeter >= 0.0 && w.resources >= 0.0);
        let p = &problem.partition;
        let cost = |rect: &Rect, waste: u64| {
            w.resources * waste as f64 / problem.r_max()
                + w.perimeter * f64::from(rect.half_perimeter()) / problem.p_max()
        };
        let rects: Vec<Vec<(Rect, f64)>> = problem
            .regions
            .iter()
            .map(|s| {
                let mut r: Vec<_> = all_covering_rects(p, s)
                    .into_iter()
                    .map(|(rect, waste)| (rect, cost(&rect, waste)))
                    .collect();
                r.sort_by(|a, b| a.1.total_cmp(&b.1));
                r
            })
            .collect();
        if rects.iter().any(Vec::is_empty) {
            return None;
        }
        let mut rest = vec![0.0; rects.len() + 1];
        for r in (0..rects.len()).rev() {
            rest[r] = rest[r + 1] + rects[r][0].1;
        }
        let mut oracle = WeightedOracle { problem, rects, rest, best: None };
        oracle.search(&mut Vec::new(), 0.0);
        oracle.best
    }

    fn search(&mut self, placed: &mut Vec<Rect>, cost: f64) {
        let level = placed.len();
        if level == self.rects.len() {
            let floorplan = Floorplan::from_regions(placed.clone());
            let objective = floorplan.metrics(self.problem).objective;
            if self.best.is_none_or(|best| objective < best) {
                self.best = Some(objective);
            }
            return;
        }
        let wl_scale = self.problem.weights.wirelength / self.problem.wl_max();
        let wire: f64 = self
            .problem
            .connections
            .iter()
            .filter(|c| c.a < level && c.b < level)
            .map(|c| c.weight * placed[c.a].center_distance_x2(&placed[c.b]) as f64 / 2.0)
            .sum::<f64>()
            * wl_scale;
        for i in 0..self.rects[level].len() {
            let (rect, c) = self.rects[level][i];
            let bound = cost + c + self.rest[level + 1] + wire;
            // A margin keeps rounding in the bound from pruning an optimum.
            if self.best.is_some_and(|best| bound > best + 1e-9) {
                break;
            }
            if placed.iter().any(|o| o.overlaps(&rect)) {
                continue;
            }
            placed.push(rect);
            self.search(placed, cost + c);
            placed.pop();
        }
    }
}

/// A small random fabric, columnar or with a tile type drawn per cell, under
/// up to three forbidden rectangles that may overlap, the first possibly
/// twice, carrying two to four regions that each ask for nothing, a
/// constraint-mode or a metric-mode relocation. With `fill`, the regions'
/// CLB demands are scaled to add up to the usable CLB tiles less 0 to 2, so
/// the device's frame capacity binds. `None` when the device does not
/// partition (a column wholly forbidden).
fn arb_search_problem() -> impl Strategy<Value = Option<FloorplanProblem>> {
    (4u32..8, 3u32..5)
        .prop_flat_map(|(cols, rows)| {
            (
                Just((cols, rows)),
                any::<bool>(),
                proptest::collection::vec(0u8..5, (cols * rows) as usize),
                proptest::collection::vec(arb_rect(cols.min(3), rows), 0..4),
                proptest::collection::vec((0u32..cols, 0u32..rows), 3),
                any::<bool>(),
                proptest::collection::vec((1u32..4, 0u32..2, 0u8..3, 1u32..3), 2..5),
                proptest::option::of(0u32..3),
            )
        })
        .prop_map(|((cols, rows), columnar, types, shapes, offsets, twice, regions, fill)| {
            let mut reg = TileTypeRegistry::new();
            let clb = reg.register(TileType::new("CLB", ResourceVec::new(1, 0, 0), 36)).unwrap();
            let bram = reg.register(TileType::new("BRAM", ResourceVec::new(0, 1, 0), 30)).unwrap();
            let dsp = reg.register(TileType::new("DSP", ResourceVec::new(0, 0, 1), 28)).unwrap();
            let palette = [clb, clb, clb, bram, dsp];
            let mut grid = TileGrid::new(cols, rows).unwrap();
            for row in 1..=rows {
                for col in 1..=cols {
                    let i = if columnar { col - 1 } else { (row - 1) * cols + col - 1 };
                    grid.set(col, row, Some(palette[usize::from(types[i as usize])])).unwrap();
                }
            }
            // Place each shape where its offset keeps it on the device.
            let mut forbidden: Vec<ForbiddenArea> = shapes
                .iter()
                .zip(&offsets)
                .map(|(r, &(dx, dy))| {
                    let (x, y) = (1 + dx % (cols - r.w + 1), 1 + dy % (rows - r.h + 1));
                    ForbiddenArea::new("blk", Rect::new(x, y, r.w, r.h))
                })
                .collect();
            if twice && !forbidden.is_empty() {
                forbidden.push(forbidden[0].clone());
            }
            let device = Device::new("prop-search", reg, grid, forbidden).ok()?;
            let mut p = FloorplanProblem::new(fabric_partition(&device).ok()?);
            let mut clb_demand: Vec<u32> = regions.iter().map(|r| r.0).collect();
            if let Some(slack) = fill {
                let usable = (1..=cols)
                    .flat_map(|c| (1..=rows).map(move |r| (c, r)))
                    .filter(|&(c, r)| {
                        p.partition.tile_type_at(c, r) == Some(clb)
                            && !p.partition.forbidden.iter().any(|f| f.covers(c, r))
                    })
                    .count() as u32;
                let (total, weight) =
                    (usable.saturating_sub(slack), clb_demand.iter().sum::<u32>());
                for d in &mut clb_demand {
                    *d = (*d * total / weight).max(1);
                }
                clb_demand[0] += total.saturating_sub(clb_demand.iter().sum());
            }
            for (i, (&(_, brams, mode, count), &clbs)) in
                regions.iter().zip(&clb_demand).enumerate()
            {
                let r = p
                    .add_region(RegionSpec::new(format!("r{i}"), vec![(clb, clbs), (bram, brams)]));
                match mode {
                    1 => p.request_relocation(RelocationRequest::constraint(r, count)),
                    2 => p.request_relocation(RelocationRequest::metric(r, count, 1.5)),
                    _ => {}
                }
            }
            for (a, b) in [(0, 1), (1, 2)] {
                if b < p.regions.len() {
                    p.connect(a, b, (a + 2) as f64);
                }
            }
            Some(p)
        })
}

/// The combinatorial engine's search with no bound at all: the same
/// candidate lists, region order, relocation pruning and leaf packer, so
/// its incumbent is the engine's floorplan bit for bit and every node the
/// engine opens is one of its nodes.
struct Unpruned<'a> {
    problem: &'a FloorplanProblem,
    candidates: Vec<Vec<Candidate>>,
    order: Vec<usize>,
    placed: Vec<Option<Rect>>,
    nodes: u64,
    best: Option<(u64, f64, Floorplan)>,
}

impl<'a> Unpruned<'a> {
    fn solve(problem: &'a FloorplanProblem) -> Self {
        let candidates: Vec<Vec<Candidate>> = problem
            .regions
            .iter()
            .map(|spec| enumerate_candidates(&problem.partition, spec))
            .collect();
        let mut order: Vec<usize> = (0..problem.regions.len()).collect();
        order.sort_by_key(|&r| {
            (candidates[r].len(), usize::MAX - problem.regions[r].total_tiles() as usize)
        });
        let placed = vec![None; problem.regions.len()];
        let mut search = Unpruned { problem, candidates, order, placed, nodes: 0, best: None };
        search.dfs(0, 0);
        search
    }

    fn occupied(&self) -> Vec<Rect> {
        self.placed.iter().flatten().copied().collect()
    }

    fn dfs(&mut self, level: usize, waste: u64) {
        self.nodes += 1;
        if level == self.order.len() {
            let Some(fc_areas) = self.pack() else { return };
            let regions: Vec<Rect> = self.placed.iter().map(|r| r.unwrap()).collect();
            let mut wl = 0.0;
            for c in &self.problem.connections {
                wl += c.weight * regions[c.a].center_distance_x2(&regions[c.b]) as f64 / 2.0;
            }
            if self
                .best
                .as_ref()
                .is_none_or(|(bw, bwl, _)| waste < *bw || (waste == *bw && wl + 1e-9 < *bwl))
            {
                self.best = Some((waste, wl, Floorplan { regions, fc_areas }));
            }
            return;
        }
        let region = self.order[level];
        for i in 0..self.candidates[region].len() {
            let cand = self.candidates[region][i];
            if self.placed.iter().flatten().any(|o| o.overlaps(&cand.rect)) {
                continue;
            }
            self.placed[region] = Some(cand.rect);
            if self.constraints_fit() {
                self.dfs(level + 1, waste + cand.waste);
            }
            self.placed[region] = None;
        }
    }

    /// Every constraint-mode request of a placed region still has `count`
    /// targets clear of the placed regions.
    fn constraints_fit(&self) -> bool {
        let occupied = self.occupied();
        self.problem.relocation.iter().all(|req| {
            let Some(rect) = self.placed[req.region] else { return true };
            !matches!(req.mode, RelocationMode::Constraint)
                || enumerate_free_compatible(&self.problem.partition, &rect, &occupied).len()
                    >= req.count as usize
        })
    }

    /// The constraint-mode areas by backtracking, then the metric-mode
    /// areas first fit, each on targets clear of everything reserved so far.
    fn pack(&self) -> Option<Vec<FcPlacement>> {
        let fc = self.problem.fc_areas();
        let constraint: Vec<usize> =
            (0..fc.len()).filter(|&i| matches!(fc[i].2, RelocationMode::Constraint)).collect();
        let mut chosen = vec![None; fc.len()];
        let mut occupied = self.occupied();
        if !self.pack_constraints(&fc, &constraint, &mut occupied, &mut chosen) {
            return None;
        }
        for (i, &(_, region, mode)) in fc.iter().enumerate() {
            if matches!(mode, RelocationMode::Metric { .. }) {
                let rect = self.placed[region].unwrap();
                let targets = enumerate_free_compatible(&self.problem.partition, &rect, &occupied);
                if let Some(&t) = targets.first() {
                    occupied.push(t);
                    chosen[i] = Some(t);
                }
            }
        }
        let placements = fc.iter().zip(chosen);
        Some(
            placements
                .map(|(&(request, region, mode), rect)| FcPlacement { request, region, mode, rect })
                .collect(),
        )
    }

    fn pack_constraints(
        &self,
        fc: &[(usize, usize, RelocationMode)],
        idx: &[usize],
        occupied: &mut Vec<Rect>,
        chosen: &mut [Option<Rect>],
    ) -> bool {
        let Some((&i, rest)) = idx.split_first() else { return true };
        let rect = self.placed[fc[i].1].unwrap();
        for t in enumerate_free_compatible(&self.problem.partition, &rect, occupied) {
            occupied.push(t);
            chosen[i] = Some(t);
            if self.pack_constraints(fc, rest, occupied, chosen) {
                return true;
            }
            occupied.pop();
            chosen[i] = None;
        }
        false
    }
}

/// Feeds `text` to the JSON parser and to every document reader built on
/// it. None may panic. When the parser rejects the text, the error names a
/// byte position and every reader reports that same error.
fn every_reader_survives(text: &str) -> Result<(), String> {
    use relocfp::floorplan::jsonio;
    let syntax = jsonio::parse(text).err();
    let readers = [
        jsonio::read_problem(text).err(),
        relocfp::runtime::read_scenario(text).err(),
        relocfp::sweep::read_grid(text).err(),
        relocfp::trace::TraceDoc::from_json(text).err(),
    ];
    let Some(syntax) = syntax else { return Ok(()) };
    if !syntax.0.contains("(byte ") {
        return Err(format!("syntax error without a position: {syntax}"));
    }
    match readers.iter().find(|e| e.as_ref() != Some(&syntax)) {
        Some(other) => Err(format!("a reader disagrees with the parser: {other:?} vs {syntax}")),
        None => Ok(()),
    }
}

/// Every truncation of every golden JSON document is an `Ok` or an `Err`
/// from every reader, never a panic.
#[test]
fn golden_truncations_never_panic() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut files = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let doc = std::fs::read_to_string(&path).unwrap();
            for cut in (0..doc.len()).filter(|&c| doc.is_char_boundary(c)) {
                if let Err(e) = every_reader_survives(&doc[..cut]) {
                    panic!("{} cut at byte {cut}: {e}", path.display());
                }
            }
            files += 1;
        }
    }
    assert!(files >= 5, "golden documents missing from {}", dir.display());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compatibility is reflexive and symmetric (Definition .1).
    #[test]
    fn compatibility_is_reflexive_and_symmetric(
        a in arb_rect(16, 5),
        b in arb_rect(16, 5),
    ) {
        let p = partition(16, 5);
        prop_assert!(fabric_compatible(&p, &a, &a).is_compatible());
        prop_assert_eq!(
            fabric_compatible(&p, &a, &b).is_compatible(),
            fabric_compatible(&p, &b, &a).is_compatible()
        );
        // On a boundary-free fabric the per-cell check gives the grid
        // oracle's full report.
        prop_assert_eq!(fabric_compatible(&p, &a, &b), areas_compatible(&device(16, 5), &a, &b));
    }

    /// The bitstream relocation filter accepts exactly the compatible,
    /// in-bounds targets and round-trips payloads.
    #[test]
    fn relocation_filter_agrees_with_the_compatibility_predicate(
        source in arb_rect(16, 5),
        target in arb_rect(16, 5),
        seed in any::<u64>(),
    ) {
        let p = partition(16, 5);
        let bs = Bitstream::generate(&p, "m", source, seed).unwrap();
        let compatible = fabric_compatible(&p, &source, &target).is_compatible();
        match relocate(&p, &bs, target) {
            Ok(moved) => {
                prop_assert!(compatible);
                prop_assert!(moved.verify().is_ok());
                prop_assert_eq!(moved.n_frames(), bs.n_frames());
                // Relocating back restores the original container.
                let back = relocate(&p, &moved, source).unwrap();
                prop_assert_eq!(back, bs);
            }
            Err(_) => prop_assert!(!compatible),
        }
    }

    /// Every enumerated free-compatible area is compatible with the source
    /// and overlaps neither the source nor the occupied rectangles.
    #[test]
    fn free_compatible_enumeration_is_sound(
        source in arb_rect(16, 5),
        blocker in arb_rect(16, 5),
    ) {
        let p = partition(16, 5);
        let occupied = vec![source, blocker];
        for cand in enumerate_free_compatible(&p, &source, &occupied) {
            prop_assert!(fabric_compatible(&p, &source, &cand).is_compatible());
            prop_assert!(!cand.overlaps(&source));
            prop_assert!(!cand.overlaps(&blocker));
        }
    }

    /// Candidate enumeration only returns placements that really satisfy the
    /// region requirement, and its waste accounting is exact.
    #[test]
    fn candidates_cover_their_requirement(
        clb_req in 1u32..10,
        bram_req in 0u32..3,
        seed in 0u64..1000,
    ) {
        let p = partition(14, 4);
        let cp = p.columnar().expect("synthetic fabrics are columnar");
        let clb = cp.portions.iter().find(|q| p.frames_per_tile(q.tile_type) == 36).unwrap().tile_type;
        let bram = cp.portions.iter().find(|q| p.frames_per_tile(q.tile_type) == 30).unwrap().tile_type;
        let spec = RegionSpec::new(format!("r{seed}"), vec![(clb, clb_req), (bram, bram_req)]);
        let required = spec.required_frames(&p);
        for cand in enumerate_candidates(&p, &spec) {
            let covered = p.tiles_by_type_in_rect(&cand.rect);
            for &(ty, need) in spec.tile_req() {
                let have = covered.iter().find(|(t, _)| *t == ty).map(|&(_, c)| c).unwrap_or(0);
                prop_assert!(have >= need);
            }
            prop_assert_eq!(cand.waste, p.frames_in_rect(&cand.rect) - required);
        }
    }

    /// Every randomly generated workload survives the JSON problem format:
    /// parsing the written document yields an equal problem, and re-emission
    /// is byte-stable (the canonical-form property the golden files rely on).
    #[test]
    fn workload_problems_round_trip_through_json(
        seed in 0u64..1000,
        n_regions in 1usize..6,
        fc in 0u32..3,
        bus in 0u32..2,
    ) {
        let spec = WorkloadSpec {
            seed,
            n_regions,
            utilisation: 0.3,
            fc_per_region: fc,
            relocatable_regions: n_regions.min(2),
            bus_width: f64::from(bus * 16),
            ..WorkloadSpec::default()
        };
        let problem = spec.generate().problem;
        let doc = rfp_floorplan::jsonio::write_problem(&problem);
        let back = rfp_floorplan::jsonio::read_problem(&doc).unwrap();
        prop_assert_eq!(&back, &problem);
        prop_assert_eq!(rfp_floorplan::jsonio::write_problem(&back), doc);
    }

    /// Any floorplan returned by the combinatorial engine on a random
    /// feasible workload passes the independent validator, and its reserved
    /// areas match the requests.
    #[test]
    fn solved_workloads_always_validate(
        seed in 0u64..500,
        n_regions in 2usize..5,
        fc in 0u32..2,
    ) {
        let spec = WorkloadSpec {
            seed,
            n_regions,
            utilisation: 0.3,
            device: SyntheticSpec { cols: 18, rows: 5, bram_every: 5, dsp_every: 0, ..Default::default() },
            fc_per_region: fc,
            relocatable_regions: 1,
            bus_width: 8.0,
            ..WorkloadSpec::default()
        };
        let problem = spec.generate().problem;
        let ten_seconds = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let ctl = SolveControl::default().with_deadline(Some(ten_seconds));
        if let Ok(res) = solve_combinatorial(&problem, &CombinatorialConfig::default(), &ctl) {
            if let Some(fp) = res.floorplan {
                let issues = fp.validate(&problem);
                prop_assert!(issues.is_empty(), "violations: {issues:?}");
                prop_assert!(fp.fc_found() <= problem.n_fc_areas());
            }
        }
    }

    /// The largest-free-rectangle sweep of `frag_metrics` agrees with a
    /// brute-force scan over every rectangle of small grids — the pin for
    /// the 1-based → 0-based coordinate translation (a module flush against
    /// column 1 or the last row must block exactly its own tiles).
    #[test]
    fn largest_free_rect_matches_brute_force(
        cols in 1u32..7,
        rows in 1u32..5,
        seeds in proptest::collection::vec((1u32..7, 1u32..5, 1u32..4, 1u32..3), 0..4),
    ) {
        use relocfp::runtime::frag_metrics;
        let p = {
            let mut b = rfp_device::DeviceBuilder::new("frag-prop");
            let clb = b.tile_type("CLB", rfp_device::ResourceVec::new(1, 0, 0), 36);
            b.rows(rows).repeat_column(clb, cols);
            fabric_partition(&b.build().unwrap()).unwrap()
        };
        // Clamp the generated rectangles into the grid (occupied modules may
        // touch any border, including column 1 and the last row).
        let occupied: Vec<Rect> = seeds
            .iter()
            .map(|&(x, y, w, h)| {
                let x = x.min(cols);
                let y = y.min(rows);
                Rect::new(x, y, w.min(cols - x + 1), h.min(rows - y + 1))
            })
            .collect();
        let metrics = frag_metrics(&p, &occupied);

        // Brute force: free-tile count and the best all-free rectangle.
        let is_free = |c: u32, r: u32| !occupied.iter().any(|o| o.contains(c, r));
        let mut free_tiles = 0u64;
        for c in 1..=cols {
            for r in 1..=rows {
                if is_free(c, r) {
                    free_tiles += 1;
                }
            }
        }
        let mut best = 0u64;
        for x in 1..=cols {
            for y in 1..=rows {
                for w in 1..=(cols - x + 1) {
                    for h in 1..=(rows - y + 1) {
                        let all_free = (x..x + w).all(|c| (y..y + h).all(|r| is_free(c, r)));
                        if all_free {
                            best = best.max(u64::from(w) * u64::from(h));
                        }
                    }
                }
            }
        }
        prop_assert_eq!(metrics.free_tiles, free_tiles);
        prop_assert_eq!(
            metrics.largest_free_rect, best,
            "histogram sweep disagrees with brute force on {}x{} with {:?}",
            cols, rows, occupied
        );
        let expected_frag =
            if free_tiles == 0 { 0.0 } else { 1.0 - best as f64 / free_tiles as f64 };
        prop_assert!((metrics.fragmentation - expected_frag).abs() < 1e-12);
    }

    /// Problem fingerprints are stable and mutation-sensitive: regenerating
    /// the same workload (or renaming a region) fingerprints identically,
    /// while any single structural mutation — demand, connectivity,
    /// relocation, objective weights or the device itself — changes the
    /// fingerprint. This is the contract the solve service's outcome cache
    /// keys on.
    #[test]
    fn fingerprints_are_stable_and_mutation_sensitive(
        seed in 0u64..1000,
        n_regions in 1usize..6,
        mutation in 0usize..6,
    ) {
        use rfp_floorplan::fingerprint::ProblemFingerprint;
        use rfp_floorplan::problem::RelocationRequest;
        let spec = WorkloadSpec {
            seed,
            n_regions,
            utilisation: 0.3,
            relocatable_regions: n_regions.min(2),
            ..WorkloadSpec::default()
        };
        let problem = spec.generate().problem;
        let twin = spec.generate().problem;
        let fp = ProblemFingerprint::of(&problem);
        prop_assert_eq!(ProblemFingerprint::of(&twin), fp);

        // Region names are presentation, not structure.
        let mut renamed = problem.clone();
        let req = renamed.regions[0].tile_req().to_vec();
        renamed.regions[0] = RegionSpec::new("renamed-by-the-property", req);
        prop_assert_eq!(ProblemFingerprint::of(&renamed), fp);

        let mut mutated = problem.clone();
        match mutation {
            0 => {
                // One more tile in an existing region's requirement.
                let mut req = mutated.regions[0].tile_req().to_vec();
                req[0].1 += 1;
                let name = mutated.regions[0].name.clone();
                mutated.regions[0] = RegionSpec::new(name, req);
            }
            1 => {
                let ty = mutated.partition.tile_type_at(1, 1).unwrap();
                mutated.add_region(RegionSpec::new("extra", vec![(ty, 1)]));
            }
            2 => mutated.weights.wirelength += 1.0,
            3 => mutated.connect(0, n_regions - 1, 3.25),
            4 => mutated.partition.rows += 1,
            _ => mutated.request_relocation(RelocationRequest::constraint(0, 1)),
        }
        let fp_mutated = ProblemFingerprint::of(&mutated);
        prop_assert_ne!(fp_mutated, fp, "mutation {} left the fingerprint unchanged", mutation);
        prop_assert_ne!(fp_mutated.digest(), fp.digest());
    }

    /// The MILP solver agrees with brute force on random small knapsacks.
    #[test]
    fn milp_matches_brute_force_on_small_knapsacks(
        values in proptest::collection::vec(1u32..20, 6),
        weights in proptest::collection::vec(1u32..10, 6),
        capacity in 5u32..30,
    ) {
        use rfp_milp::{ConOp, LinExpr, Model, Sense, Solver, SolveStatus};
        let mut m = Model::new("knap", Sense::Maximize);
        let vars: Vec<_> = (0..6).map(|i| m.bin_var(format!("x{i}"))).collect();
        m.add_con(
            "cap",
            LinExpr::weighted_sum(vars.iter().zip(&weights).map(|(&v, &w)| (v, w as f64))),
            ConOp::Le,
            capacity as f64,
        );
        m.set_objective(LinExpr::weighted_sum(
            vars.iter().zip(&values).map(|(&v, &c)| (v, c as f64)),
        ));
        let sol = Solver::default().solve(&m);
        prop_assert_eq!(sol.status, SolveStatus::Optimal);
        // Brute force over the 64 subsets.
        let mut best = 0u32;
        for mask in 0u32..64 {
            let w: u32 = (0..6).filter(|i| mask & (1 << i) != 0).map(|i| weights[i]).sum();
            if w <= capacity {
                let v: u32 = (0..6).filter(|i| mask & (1 << i) != 0).map(|i| values[i]).sum();
                best = best.max(v);
            }
        }
        prop_assert!((sol.objective - best as f64).abs() < 1e-6,
            "solver found {} but brute force found {best}", sol.objective);
    }

    /// Binary problem documents round-trip exactly, byte-stably, and decode
    /// to the same problem as the JSON serialisation.
    #[test]
    fn binio_problems_round_trip_and_agree_with_json(
        seed in 0u64..1000,
        n_regions in 1usize..6,
        fc in 0u32..3,
    ) {
        use rfp_floorplan::{binio, jsonio};
        let spec = WorkloadSpec {
            seed,
            n_regions,
            utilisation: 0.3,
            fc_per_region: fc,
            relocatable_regions: n_regions.min(2),
            bus_width: 16.0,
            ..WorkloadSpec::default()
        };
        let problem = spec.generate().problem;
        let bytes = binio::write_problem_bin(&problem);
        let back = binio::read_problem_bin(&bytes).unwrap();
        prop_assert_eq!(&back, &problem);
        prop_assert_eq!(&binio::write_problem_bin(&back), &bytes);
        let via_json = jsonio::read_problem(&jsonio::write_problem(&problem)).unwrap();
        prop_assert_eq!(&via_json, &back);
    }

    /// Binary scenario traces round-trip, and truncating the document at
    /// any byte fails cleanly instead of decoding something else.
    #[test]
    fn binio_scenarios_round_trip_and_reject_truncation(
        seed in 0u64..1000,
        n_modules in 1usize..12,
        cut_permille in 0usize..1000,
    ) {
        use relocfp::runtime::{read_scenario_bin, write_scenario_bin};
        let scenario = rfp_workloads::DefragWorkloadSpec {
            seed,
            n_modules,
            ..Default::default()
        }
        .generate();
        let bytes = write_scenario_bin(&scenario);
        prop_assert_eq!(&read_scenario_bin(&bytes).unwrap(), &scenario);
        let cut = (bytes.len() - 1) * cut_permille / 1000;
        prop_assert!(read_scenario_bin(&bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
    }

    /// Binary floorplan documents round-trip for any rect multiset.
    #[test]
    fn binio_floorplans_round_trip(
        rects in proptest::collection::vec(arb_rect(16, 5), 0..6),
    ) {
        use rfp_floorplan::binio;
        let fp = rfp_floorplan::placement::Floorplan::from_regions(rects);
        let bytes = binio::write_floorplan_bin(&fp);
        prop_assert_eq!(binio::read_floorplan_bin(&bytes).unwrap(), fp);
    }

    /// Any emission program — random span nesting (including left-open
    /// spans), counters and histogram samples over several tracks — drains
    /// to an `rfp-trace` document that round-trips through its JSON and
    /// whose writer is a fixpoint.
    #[test]
    fn trace_documents_round_trip_through_json(
        tracks in proptest::collection::vec(
            proptest::collection::vec((0usize..4, 0usize..3, 0u64..50), 0..12),
            0..4,
        ),
        wall_clock in any::<bool>(),
    ) {
        use relocfp::trace::{Collector, TraceDoc};
        let collector = if wall_clock { Collector::with_wall_clock() } else { Collector::new() };
        for (t, ops) in tracks.iter().enumerate() {
            let name = if t == 0 { "main".to_string() } else { format!("track{t}") };
            let _scope = collector.install(&name);
            let mut open = Vec::new();
            for &(kind, name_idx, value) in ops {
                match kind {
                    0 => open.push(relocfp::trace::span(&format!("s{name_idx}"))),
                    1 => drop(open.pop()),
                    2 => relocfp::trace::count(&format!("c{name_idx}"), value),
                    _ => relocfp::trace::record(&format!("h{name_idx}"), value),
                }
            }
        }
        let doc = collector.drain();
        let text = doc.to_json();
        let parsed = TraceDoc::from_json(&text).unwrap();
        prop_assert_eq!(&parsed, &doc);
        prop_assert_eq!(parsed.to_json(), text, "writer is a fixpoint");
    }

    /// Arbitrary text — a soup of JSON tokens and raw bytes, decoded
    /// lossily — never panics the parser or a document reader, and every
    /// syntax error names its position.
    #[test]
    fn json_readers_never_panic(
        pieces in proptest::collection::vec((any::<bool>(), 0u8..=255), 0..96),
    ) {
        const TOKENS: [&str; 16] = [
            "{", "}", "[", "]", "\"", "\\", ":", ",", "\"format\"", "-", "1", ".5e", "\\u00",
            "true", " ", "18446744073709551616",
        ];
        let mut bytes = Vec::new();
        for &(token, b) in &pieces {
            if token {
                bytes.extend_from_slice(TOKENS[usize::from(b) % TOKENS.len()].as_bytes());
            } else {
                bytes.push(b);
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = every_reader_survives(&text) {
            prop_assert!(false, "{e} on {text:?}");
        }
    }

    /// On random fabrics with forbidden cells and die boundaries, the
    /// combinatorial engine's relocation-target table filtered by a random
    /// occupied set lists exactly `enumerate_free_compatible`, which in turn
    /// lists exactly the positions the pairwise `free_compatible` accepts;
    /// and the parallel search at 2 and 4 threads proves the serial waste and
    /// wire length.
    #[test]
    fn relocation_targets_match_the_enumeration_and_threads_agree(
        problem in arb_relocation_problem(),
        picks in proptest::collection::vec((any::<usize>(), any::<usize>()), 1..4),
        occupied in proptest::collection::vec(arb_rect(9, 5), 0..4),
    ) {
        let p = &problem.partition;
        let candidates: Vec<_> = problem
            .regions
            .iter()
            .map(|spec| enumerate_candidates(p, spec))
            .collect();
        let table = TargetTable::new(&problem, &candidates);
        for &(r, c) in &picks {
            let Some(req) = problem.relocation.get(r % problem.relocation.len().max(1)) else {
                break;
            };
            let region = req.region;
            if candidates[region].is_empty() {
                continue;
            }
            let ci = c % candidates[region].len();
            let source = candidates[region][ci].rect;
            let listed: Vec<Rect> = table
                .targets(region, ci)
                .iter()
                .copied()
                .filter(|t| !occupied.iter().any(|o| o.overlaps(t)))
                .collect();
            let enumerated = enumerate_free_compatible(p, &source, &occupied);
            prop_assert_eq!(&listed, &enumerated, "source {}", source);
            let mut pairwise = Vec::new();
            for y in 1..=(p.rows - source.h + 1) {
                for x in 1..=(p.cols - source.w + 1) {
                    let t = Rect::new(x, y, source.w, source.h);
                    if t != source && free_compatible(p, &source, &t, &occupied) {
                        pairwise.push(t);
                    }
                }
            }
            prop_assert_eq!(&enumerated, &pairwise, "source {}", source);
        }

        let Ok(serial) =
            solve_combinatorial(&problem, &CombinatorialConfig::default(), &SolveControl::default())
        else {
            return Ok(());
        };
        prop_assert!(serial.proven);
        if let Some(fp) = &serial.floorplan {
            prop_assert!(fp.validate(&problem).is_empty());
        }
        for threads in [2usize, 4] {
            let cfg = CombinatorialConfig { threads, ..CombinatorialConfig::default() };
            let par = solve_combinatorial(&problem, &cfg, &SolveControl::default()).unwrap();
            prop_assert!(par.proven, "{} threads", threads);
            prop_assert_eq!(par.best_waste, serial.best_waste, "{} threads", threads);
            match (par.best_wirelength, serial.best_wirelength) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9, "{} vs {}", a, b),
                (a, b) => prop_assert_eq!(a, b),
            }
        }
    }

    /// Forward checking changes no result: on random small problems, some
    /// infeasible, some under overlapping forbidden areas, some with
    /// constraint-mode relocation, the serial engine returns the floorplan,
    /// waste, wire-length bits and proof of the same search with no bound,
    /// in no more nodes.
    #[test]
    fn forward_checking_returns_the_unpruned_search_result(problem in arb_search_problem()) {
        let Some(problem) = problem else { return Ok(()) };
        let reference = Unpruned::solve(&problem);
        let res = match solve_combinatorial(
            &problem,
            &CombinatorialConfig::default(),
            &SolveControl::default(),
        ) {
            Ok(res) => res,
            Err(e) => {
                prop_assert!(
                    problem.validate().is_err() || reference.candidates.iter().any(Vec::is_empty),
                    "engine error {} on a valid problem", e
                );
                return Ok(());
            }
        };
        prop_assert!(res.proven);
        let (waste, wl, floorplan) = match reference.best {
            Some((waste, wl, fp)) => (Some(waste), Some(wl.to_bits()), Some(fp)),
            None => (None, None, None),
        };
        prop_assert_eq!(res.best_waste, waste);
        prop_assert_eq!(res.best_wirelength.map(f64::to_bits), wl);
        prop_assert_eq!(res.floorplan, floorplan);
        prop_assert!(res.nodes <= reference.nodes, "{} > {}", res.nodes, reference.nodes);
    }

    /// Enumerating only irredundant candidates loses no optimum, even under
    /// relocation: the serial combinatorial engine proves the same
    /// feasibility, waste and wire length as an exhaustive search over every
    /// legal covering rectangle.
    #[test]
    fn irredundant_candidates_lose_no_optimum_under_relocation(
        problem in arb_relocation_problem_below(7, 5),
        weights in proptest::collection::vec(0u8..4, 3),
    ) {
        let mut problem = problem;
        let n = problem.regions.len();
        for (k, (a, b)) in [(0, 1), (0, 2), (1, 2)].into_iter().enumerate() {
            if b < n && weights[k] > 0 {
                problem.connect(a, b, f64::from(weights[k]));
            }
        }
        let oracle = Oracle::solve(&problem);
        let Ok(res) =
            solve_combinatorial(&problem, &CombinatorialConfig::default(), &SolveControl::default())
        else {
            prop_assert!(oracle.is_none(), "engine error, oracle {:?}", oracle);
            return Ok(());
        };
        prop_assert!(res.proven);
        prop_assert_eq!(res.best_waste, oracle.map(|(waste, _)| waste));
        match (res.best_wirelength, oracle) {
            (Some(a), Some((_, b))) => prop_assert!((a - b).abs() < 1e-9, "{} vs {}", a, b),
            (a, b) => prop_assert!(a.is_none() && b.is_none(), "{:?} vs {:?}", a, b),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `milp` proves Equation 14, not only the lexicographic objective: on
    /// random small relocation-free problems, columnar or heterogeneous,
    /// with random weights (a zero waste weight among them), every proven
    /// answer matches the weighted oracle. A columnar problem builds the
    /// candidate-assignment model exactly when waste dominates; otherwise it
    /// keeps the portion model, which covers every rectangle.
    #[test]
    fn proven_milp_answers_match_the_equation_14_oracle(
        problem in arb_relocation_problem_below(7, 5),
        flat in any::<bool>(),
        links in proptest::collection::vec(0u8..4, 3),
        weights in (0usize..3, 0usize..3, 0usize..3),
    ) {
        use rfp_floorplan::model::FloorplanMilp;
        let mut problem = problem;
        problem.relocation.clear();
        if flat {
            problem.partition.die_boundaries.clear();
        }
        let n = problem.regions.len();
        for (k, (a, b)) in [(0, 1), (0, 2), (1, 2)].into_iter().enumerate() {
            if b < n && links[k] > 0 {
                problem.connect(a, b, f64::from(links[k]));
            }
        }
        let (wirelength, perimeter, resources) = weights;
        problem.weights = ObjectiveWeights {
            wirelength: [0.0, 1.0, 10.0][wirelength],
            perimeter: [0.0, 0.5, 1.0][perimeter],
            resources: [0.0, 1.0, 1000.0][resources],
            relocation: 0.0,
        };
        let assignment = FloorplanMilp::build(&problem, None).is_assignment();
        if problem.partition.is_columnar_legacy() {
            prop_assert_eq!(assignment, problem.waste_dominates());
        } else {
            prop_assert!(assignment);
        }

        let oracle = WeightedOracle::solve(&problem);
        let request = SolveRequest::new(problem.clone()).with_threads(1).with_time_limit(30.0);
        let outcome = EngineRegistry::builtin()
            .get("milp")
            .unwrap()
            .solve(&request, &SolveControl::default());
        match (&outcome.metrics, oracle) {
            (Some(m), Some(best)) => {
                prop_assert!(m.objective >= best - 1e-9, "{} below the optimum {}", m.objective, best);
                if outcome.is_proven() {
                    prop_assert!((m.objective - best).abs() < 1e-9, "proved {} vs {}", m.objective, best);
                }
            }
            (Some(m), None) => prop_assert!(false, "objective {} on an infeasible problem", m.objective),
            (None, best) => prop_assert!(
                outcome.status != OutcomeStatus::Infeasible || best.is_none(),
                "milp says infeasible, the oracle finds {:?}", best
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The assignment model places constraint-mode areas among its
    /// variables, so `milp` finds a floorplan wherever one exists: on random
    /// small heterogeneous problems with constraint-mode requests and
    /// dominant waste, it answers `Infeasible` only when the proven
    /// combinatorial search finds no floorplan, and a proven answer scores
    /// no worse on Equation 14 than the combinatorial engine's floorplan.
    #[test]
    fn milp_places_constraint_mode_areas_wherever_a_floorplan_exists(
        problem in arb_relocation_problem_below(7, 5),
        links in proptest::collection::vec(0u8..4, 3),
    ) {
        let mut problem = problem;
        for request in &mut problem.relocation {
            request.mode = RelocationMode::Constraint;
        }
        let n = problem.regions.len();
        for (k, (a, b)) in [(0, 1), (0, 2), (1, 2)].into_iter().enumerate() {
            if b < n && links[k] > 0 {
                problem.connect(a, b, f64::from(links[k]));
            }
        }
        prop_assume!(!problem.partition.is_columnar_legacy() && problem.waste_dominates());

        let comb =
            solve_combinatorial(&problem, &CombinatorialConfig::default(), &SolveControl::default());
        let comb = match comb {
            Ok(res) if res.proven => res.floorplan,
            // A refusal before the search (a region with no candidate).
            Err(_) => None,
            Ok(_) => unreachable!("an unbudgeted combinatorial search is proven"),
        };
        let request = SolveRequest::new(problem.clone()).with_threads(1).with_time_limit(30.0);
        let outcome = EngineRegistry::builtin()
            .get("milp")
            .unwrap()
            .solve(&request, &SolveControl::default());
        match (&outcome.metrics, &comb) {
            (None, Some(_)) => prop_assert!(
                outcome.status != OutcomeStatus::Infeasible,
                "milp says infeasible: {:?}", outcome.detail
            ),
            (Some(m), None) => prop_assert!(false, "objective {} on an infeasible problem", m.objective),
            (Some(m), Some(fp)) if outcome.is_proven() => {
                let best = fp.metrics(&problem).objective;
                prop_assert!(m.objective <= best + 1e-9, "proved {} above {}", m.objective, best);
            }
            _ => {}
        }
    }
}
