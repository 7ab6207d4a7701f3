//! The MILP floorplanning formulation.
//!
//! This module generates the mixed-integer linear program at the core of the
//! paper: the base floorplanning model of \[10\] restricted to columnar
//! devices (Section III), extended with
//!
//! * forbidden-area avoidance — Equations (1) and (2);
//! * the portion-offset variables `o_{n,p}` — Equations (4) and (5);
//! * relocation as a constraint — Equations (6), (7), (9) and the tightened
//!   (10);
//! * relocation as a metric — Equations (11), (12) and the cost terms (13)
//!   and (15);
//! * the composite objective — Equation (14).
//!
//! ## Variables
//!
//! For every *entity* (a reconfigurable region of set `N` or a
//! free-compatible pseudo-region of set `FC ⊂ N`):
//!
//! | paper | here | kind | meaning |
//! |-------|------|------|---------|
//! | `x_n` | `x[e]` | integer ≥ 1 | leftmost column |
//! | `w_n` | `w[e]` | integer ≥ 1 | width in columns |
//! | —     | `y[e]` | continuous | topmost row (integrality implied) |
//! | `h_n` | `h[e]` | continuous | height in rows (integrality implied) |
//! | —     | `a[e][r]` | binary | entity covers row `r` |
//! | —     | `cov[e][c]` | binary | entity covers column `c` |
//! | `k_{n,p}` | `k[e][p]` | continuous \[0,1\] | x-projection intersects portion `p` |
//! | `o_{n,p}` | `o[e][p]` | continuous \[0,1\] | `p` is the first covered portion |
//! | `l_{n,p,r}` | `l[e][p][r]` | continuous | tiles covered in portion `p` on row `r` |
//! | `q_{n,a}` | `q[e][a]` | binary | entity not left of forbidden area `a` |
//! | `v_c` | `v[c]` | binary | free-compatible area `c` violated (metric mode) |
//!
//! The column-coverage binaries `cov` are an implementation detail not named
//! in the paper: they pin the per-portion intersection widths exactly, which
//! the relocation equalities of Equation (9) require (the paper inherits this
//! machinery from the base model of \[10\]).
//!
//! Note on Equations (10)/(12): the paper's text states that the constraint
//! must forbid `o_{c,pc} = o_{n,pn} = k_{n,pn+i} = 1` **when the two tile
//! types differ**; the inequality as printed carries an `=` guard, which we
//! read as the evident typo for `≠` and implement accordingly.
//!
//! ## The candidate-assignment model, and when each model runs
//!
//! [`FloorplanMilp::build`] also generates a **candidate-assignment** model:
//! one binary per (region, candidate rectangle) from the irredundant
//! enumeration of [`crate::candidates`], an exactly-one constraint per
//! region, and the same composite objective expressed over the (constant)
//! per-candidate waste, half-perimeter and centre coordinates. Each
//! **constraint-mode** free-compatible area is a pseudo-region as in the
//! paper, but a discrete one: one binary per target compatible with some
//! candidate of its source region (the fabric-aware check, which rejects
//! die-crossing targets), exactly one of them chosen, and a target only
//! with a candidate it is compatible with. Overlaps are excluded by one
//! set-packing row per tile — the columns covering the tile sum to at most
//! 1 — the clique form of the pairwise conflicts (Atamtürk, Nemhauser &
//! Savelsbergh, "Conflict graphs in solving integer programming problems",
//! EJOR 2000), whose LP is far tighter and smaller. Metric-mode areas are
//! not in this model: a greedy pass reserves them at extraction time, and
//! the validator prices the ones it misses.
//!
//! The portion machinery above assumes a columnar device, so a fabric with
//! no columnar view, or a columnar device with die boundaries (whose
//! relocation rules the portion equations cannot express), always gets the
//! assignment model. A columnar device gets it too when the problem requests
//! no free-compatible area, HO's relations are not given and waste dominates
//! ([`FloorplanProblem::waste_dominates`]): an optimum then lies among the
//! irredundant candidates, and the assignment LP prices each candidate's
//! waste where the portion relaxation prices it at 0, so the search is far
//! smaller. Every other columnar problem keeps the portion model, which
//! covers every rectangle and reserves the areas inside the search.

use crate::candidates::{enumerate_candidates, reserve_fc_areas, Candidate};
use crate::placement::{FcPlacement, Floorplan};
use crate::problem::{FloorplanProblem, RelocationMode};
use crate::sequence_pair::{PairRelation, Relation};
use rfp_device::compat::enumerate_free_compatible;
use rfp_device::{ColumnarPartition, FabricPartition, PortionId, Rect};
use rfp_milp::{ConOp, LinExpr, Model, Sense, Solution, VarId};
use std::collections::{BTreeMap, HashSet};

/// Handles to every variable of the generated model, used for extraction and
/// by the white-box tests.
#[derive(Debug, Clone, Default)]
pub struct ModelVars {
    /// Leftmost column per entity.
    pub x: Vec<VarId>,
    /// Width per entity.
    pub w: Vec<VarId>,
    /// Topmost row per entity.
    pub y: Vec<VarId>,
    /// Height per entity.
    pub h: Vec<VarId>,
    /// Row-coverage binaries `a[e][r-1]`.
    pub a: Vec<Vec<VarId>>,
    /// Column-coverage binaries `cov[e][c-1]`.
    pub cov: Vec<Vec<VarId>>,
    /// Portion-intersection indicators `k[e][p]`.
    pub k: Vec<Vec<VarId>>,
    /// First-portion offsets `o[e][p]`.
    pub o: Vec<Vec<VarId>>,
    /// Per-portion per-row intersection `l[e][p][r-1]`.
    pub l: Vec<Vec<Vec<VarId>>>,
    /// Violation binaries `v` per free-compatible entity (index into the FC
    /// list), only present in metric mode.
    pub v: Vec<Option<VarId>>,
    /// Forbidden-area binaries `q[e][a]`, aligned with `partition.forbidden`.
    pub q: Vec<Vec<VarId>>,
    /// Pairwise relative-position binaries
    /// `(i, j, [left_ij, left_ji, below_ij, below_ji])` for every `i < j`.
    pub pair_rel: Vec<(usize, usize, [VarId; 4])>,
    /// Wire-length auxiliaries `(dx, dy)` per connection (empty when the
    /// wire-length weight is zero).
    pub wl: Vec<(VarId, VarId)>,
}

/// Statistics of a generated model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelStats {
    /// Number of entities (regions + free-compatible areas).
    pub entities: usize,
    /// Number of variables.
    pub n_vars: usize,
    /// Number of integer/binary variables.
    pub n_int_vars: usize,
    /// Number of constraints.
    pub n_cons: usize,
    /// Number of non-zero coefficients.
    pub n_nonzeros: usize,
}

/// Which formulation [`FloorplanMilp::build`] generated.
#[derive(Debug, Clone)]
enum ModelKind {
    /// Portion-based model (Equations 1-15); legacy columnar devices.
    Portion,
    /// Candidate-assignment model; heterogeneous or die-bounded fabrics, and
    /// relocation-free columnar problems where waste dominates.
    Assignment(Box<AssignmentModel>),
}

/// Bookkeeping of the candidate-assignment formulation.
#[derive(Debug, Clone)]
struct AssignmentModel {
    /// The fabric, kept for the greedy reservation of metric-mode areas.
    partition: FabricPartition,
    /// Candidate rectangles per region.
    candidates: Vec<Vec<Candidate>>,
    /// Assignment binaries, aligned with `candidates`.
    assign: Vec<Vec<VarId>>,
    /// Per free-compatible entity: its targets when it is a constraint-mode
    /// area, `None` for a metric-mode one.
    targets: Vec<Option<FcTargets>>,
}

/// Every target of a region's candidates, row-major, with the assignment
/// binaries of the candidates it is compatible with.
type TargetSources = Vec<(Rect, Vec<VarId>)>;

/// The free-compatible targets of one constraint-mode area.
#[derive(Debug, Clone)]
struct FcTargets {
    /// Every rect compatible with some candidate of the source region, in
    /// row-major order.
    rects: Vec<Rect>,
    /// Target binaries `f[c][t]`, aligned with `rects`.
    vars: Vec<VarId>,
}

/// A generated floorplanning MILP together with the handles needed to read a
/// floorplan back out of a solution.
#[derive(Debug, Clone)]
pub struct FloorplanMilp {
    /// The generated mixed-integer linear program.
    pub milp: Model,
    /// Variable handles. Only populated by the portion model; the
    /// candidate-assignment model keeps its binaries in its own bookkeeping
    /// (all vectors except `wl` stay empty).
    pub vars: ModelVars,
    n_regions: usize,
    /// `(request index, source region, mode)` per FC entity.
    fc_meta: Vec<(usize, usize, RelocationMode)>,
    kind: ModelKind,
}

impl FloorplanMilp {
    /// Generates the MILP for a problem: the full (O) model, or with
    /// `ho_relations` the HO model, in which each pairwise relation of a
    /// heuristic solution fixes the corresponding relative-position binary,
    /// shrinking the search space (Section II-A).
    ///
    /// Which formulation runs reads only the input:
    ///
    /// * A legacy columnar device gets the portion-based formulation of the
    ///   paper when the problem requests free-compatible areas, when HO's
    ///   relations are given, or when waste does not dominate
    ///   ([`FloorplanProblem::waste_dominates`]). It is the one model here
    ///   that reserves the areas and fixes the relations inside the search,
    ///   and the one whose rectangles are free, so it is exact for every
    ///   weighting.
    /// * Every other columnar problem gets the candidate-assignment
    ///   formulation. With waste dominant an optimum lies among the
    ///   irredundant candidates, so that one candidate set is exact, and
    ///   its LP prices the waste of each candidate where the portion
    ///   relaxation prices it at 0: the tree is a fraction of the size.
    /// * Heterogeneous fabrics (and columnar devices with die boundaries,
    ///   whose relocation rules the portion equations cannot express) always
    ///   get the candidate-assignment formulation, which ignores the
    ///   relations (its assignment space is already discrete and small) and
    ///   places constraint-mode areas among its variables. It proves an
    ///   optimum only when waste dominates; the engine reports its answer as
    ///   feasible otherwise.
    pub fn build(
        problem: &FloorplanProblem,
        ho_relations: Option<&[PairRelation]>,
    ) -> FloorplanMilp {
        let portion = problem.partition.is_columnar_legacy()
            && (problem.n_fc_areas() > 0 || ho_relations.is_some() || !problem.waste_dominates());
        if portion {
            Self::build_portion(problem, ho_relations.unwrap_or_default())
        } else {
            Self::build_assignment(problem)
        }
    }

    /// `true` when this is the candidate-assignment formulation, whose
    /// search space is the irredundant candidates of each region.
    pub fn is_assignment(&self) -> bool {
        matches!(self.kind, ModelKind::Assignment(_))
    }

    /// The portion-offset formulation (Equations 1-15) for columnar devices;
    /// each of `ho_relations` fixes a relative-position binary.
    fn build_portion(problem: &FloorplanProblem, ho_relations: &[PairRelation]) -> FloorplanMilp {
        let partition: &ColumnarPartition =
            problem.partition.columnar().expect("portion model requires a columnar device");
        let cols = partition.cols as f64;
        let rows = partition.rows as f64;
        let max_w = partition.cols;
        let n_rows = partition.rows;
        let n_portions = partition.n_portions();
        let n_regions = problem.regions.len();
        let fc_meta = problem.fc_areas();
        let entities = n_regions + fc_meta.len();

        let mut m = Model::new(format!("floorplan-{}", partition.device_name), Sense::Minimize);

        let entity_name = |e: usize| -> String {
            if e < n_regions {
                problem.regions[e].name.clone()
            } else {
                let (_, region, _) = fc_meta[e - n_regions];
                format!("fc{}_{}", e - n_regions, problem.regions[region].name)
            }
        };

        // ------------------------------------------------------------------
        // Variables.
        // ------------------------------------------------------------------
        let mut vars = ModelVars { v: vec![None; fc_meta.len()], ..ModelVars::default() };
        for e in 0..entities {
            let name = entity_name(e);
            vars.x.push(m.int_var(format!("x[{name}]"), 1.0, cols));
            vars.w.push(m.int_var(format!("w[{name}]"), 1.0, cols));
            vars.y.push(m.cont_var(format!("y[{name}]"), 1.0, rows));
            vars.h.push(m.cont_var(format!("h[{name}]"), 1.0, rows));
            vars.a.push((1..=n_rows).map(|r| m.bin_var(format!("a[{name}][{r}]"))).collect());
            vars.cov.push((1..=max_w).map(|c| m.bin_var(format!("cov[{name}][{c}]"))).collect());
            vars.k.push(
                (0..n_portions)
                    .map(|p| m.cont_var(format!("k[{name}][{}]", p + 1), 0.0, 1.0))
                    .collect(),
            );
            vars.o.push(
                (0..n_portions)
                    .map(|p| m.cont_var(format!("o[{name}][{}]", p + 1), 0.0, 1.0))
                    .collect(),
            );
            let mut l_e = Vec::with_capacity(n_portions);
            for p in 0..n_portions {
                let wp = partition.portion(PortionId(p)).width() as f64;
                l_e.push(
                    (1..=n_rows)
                        .map(|r| m.cont_var(format!("l[{name}][{}][{r}]", p + 1), 0.0, wp))
                        .collect::<Vec<_>>(),
                );
            }
            vars.l.push(l_e);
        }
        // Violation binaries for metric-mode FC areas (Section V).
        for (c, &(_, region, mode)) in fc_meta.iter().enumerate() {
            if matches!(mode, RelocationMode::Metric { .. }) {
                let name = format!("v[fc{c}_{}]", problem.regions[region].name);
                vars.v[c] = Some(m.bin_var(name));
            }
        }

        // Soft-constraint helper: the `+ v_c * M` term for entities that are
        // metric-mode FC areas.
        let soft_term = |e: usize, big_m: f64| -> LinExpr {
            if e >= n_regions {
                if let Some(v) = vars.v[e - n_regions] {
                    return LinExpr::term(v, big_m);
                }
            }
            LinExpr::zero()
        };

        // ------------------------------------------------------------------
        // Geometry of every entity.
        // ------------------------------------------------------------------
        for e in 0..entities {
            let name = entity_name(e);
            // x + w <= maxW + 1 ; y + h <= |R| + 1.
            m.add_con(
                format!("xw_bound[{name}]"),
                LinExpr::from(vars.x[e]) + vars.w[e],
                ConOp::Le,
                cols + 1.0,
            );
            m.add_con(
                format!("yh_bound[{name}]"),
                LinExpr::from(vars.y[e]) + vars.h[e],
                ConOp::Le,
                rows + 1.0,
            );
            // Row window: sum_r a = h ; a_r = 1 <=> y <= r <= y + h - 1.
            m.add_con(
                format!("row_count[{name}]"),
                LinExpr::weighted_sum(vars.a[e].iter().map(|&v| (v, 1.0))) - vars.h[e],
                ConOp::Eq,
                0.0,
            );
            for r in 1..=n_rows {
                let a = vars.a[e][(r - 1) as usize];
                m.add_con(
                    format!("row_lo[{name}][{r}]"),
                    LinExpr::from(vars.y[e]) + LinExpr::term(a, rows),
                    ConOp::Le,
                    r as f64 + rows,
                );
                m.add_con(
                    format!("row_hi[{name}][{r}]"),
                    LinExpr::from(vars.y[e]) + vars.h[e] - LinExpr::term(a, rows),
                    ConOp::Ge,
                    r as f64 + 1.0 - rows,
                );
            }
            // Column window: sum_c cov = w ; cov_c = 1 <=> x <= c <= x + w - 1.
            m.add_con(
                format!("col_count[{name}]"),
                LinExpr::weighted_sum(vars.cov[e].iter().map(|&v| (v, 1.0))) - vars.w[e],
                ConOp::Eq,
                0.0,
            );
            for c in 1..=max_w {
                let cv = vars.cov[e][(c - 1) as usize];
                m.add_con(
                    format!("col_lo[{name}][{c}]"),
                    LinExpr::from(vars.x[e]) + LinExpr::term(cv, cols),
                    ConOp::Le,
                    c as f64 + cols,
                );
                m.add_con(
                    format!("col_hi[{name}][{c}]"),
                    LinExpr::from(vars.x[e]) + vars.w[e] - LinExpr::term(cv, cols),
                    ConOp::Ge,
                    c as f64 + 1.0 - cols,
                );
            }
            // Portion intersection indicator k and per-row intersection l.
            for p in 0..n_portions {
                let portion = partition.portion(PortionId(p));
                let wp = portion.width() as f64;
                let cov_in_p: Vec<VarId> =
                    (portion.x1..=portion.x2).map(|c| vars.cov[e][(c - 1) as usize]).collect();
                let ow_expr = LinExpr::weighted_sum(cov_in_p.iter().map(|&v| (v, 1.0)));
                // k >= cov_c for every column of the portion.
                for &cv in &cov_in_p {
                    m.add_con(
                        format!("k_lo[{name}][{}]", p + 1),
                        LinExpr::from(vars.k[e][p]) - cv,
                        ConOp::Ge,
                        0.0,
                    );
                }
                // k <= sum of cov over the portion.
                m.add_con(
                    format!("k_hi[{name}][{}]", p + 1),
                    LinExpr::from(vars.k[e][p]) - ow_expr.clone(),
                    ConOp::Le,
                    0.0,
                );
                // l[p][r] = (overlap width) * a_r, linearised exactly.
                for r in 1..=n_rows {
                    let l = vars.l[e][p][(r - 1) as usize];
                    let a = vars.a[e][(r - 1) as usize];
                    m.add_con(
                        format!("l_row[{name}][{}][{r}]", p + 1),
                        LinExpr::from(l) - LinExpr::term(a, wp),
                        ConOp::Le,
                        0.0,
                    );
                    m.add_con(
                        format!("l_ow_hi[{name}][{}][{r}]", p + 1),
                        LinExpr::from(l) - ow_expr.clone(),
                        ConOp::Le,
                        0.0,
                    );
                    m.add_con(
                        format!("l_ow_lo[{name}][{}][{r}]", p + 1),
                        LinExpr::from(l) - ow_expr.clone() - LinExpr::term(a, wp),
                        ConOp::Ge,
                        -wp,
                    );
                }
            }
            // Offset variables (Equations 4 and 5).
            m.add_con(
                format!("offset_sum[{name}]"),
                LinExpr::weighted_sum(vars.o[e].iter().map(|&v| (v, 1.0))),
                ConOp::Eq,
                1.0,
            );
            m.add_con(
                format!("offset_first[{name}]"),
                LinExpr::from(vars.o[e][0]) - vars.k[e][0],
                ConOp::Eq,
                0.0,
            );
            for p in 1..n_portions {
                m.add_con(
                    format!("offset_step[{name}][{}]", p + 1),
                    LinExpr::from(vars.o[e][p]) - vars.k[e][p] + vars.k[e][p - 1],
                    ConOp::Ge,
                    0.0,
                );
            }
            // Forbidden areas (Equations 1 and 2).
            vars.q.push(Vec::with_capacity(partition.forbidden.len()));
            for fa in &partition.forbidden {
                let q = m.bin_var(format!("q[{name}][{}]", fa.name));
                vars.q[e].push(q);
                m.add_con(
                    format!("forbidden_left[{name}][{}]", fa.name),
                    LinExpr::from(vars.x[e]) + vars.w[e] - LinExpr::term(q, cols),
                    ConOp::Le,
                    fa.xa1() as f64,
                );
                for r in 1..=n_rows {
                    if !fa.lies_on_row(r) {
                        continue;
                    }
                    let a = vars.a[e][(r - 1) as usize];
                    m.add_con(
                        format!("forbidden_right[{name}][{}][{r}]", fa.name),
                        LinExpr::from(vars.x[e]) - LinExpr::term(q, cols) - LinExpr::term(a, cols),
                        ConOp::Ge,
                        fa.xa2() as f64 + 1.0 - 2.0 * cols,
                    );
                }
            }
        }

        // ------------------------------------------------------------------
        // Resource coverage (reconfigurable regions only, Section IV-A).
        // ------------------------------------------------------------------
        for (e, spec) in problem.regions.iter().enumerate() {
            for &(ty, need) in spec.tile_req() {
                let mut expr = LinExpr::zero();
                for p in 0..n_portions {
                    if partition.portion(PortionId(p)).tile_type != ty {
                        continue;
                    }
                    for r in 0..n_rows as usize {
                        expr.add_term(vars.l[e][p][r], 1.0);
                    }
                }
                m.add_con(format!("coverage[{}][{ty}]", spec.name), expr, ConOp::Ge, need as f64);
            }
        }

        // ------------------------------------------------------------------
        // Pairwise non-overlap (soft for metric-mode FC areas, Section V).
        // ------------------------------------------------------------------
        let fixed_relations = index_relations(ho_relations, entities);
        // Soft entities (metric-mode FC areas) may legally overlap when their
        // violation binary fires, so only *hard* pairs admit the pairwise
        // mutual-exclusion structure below.
        let is_soft = |e: usize| e >= n_regions && vars.v[e - n_regions].is_some();
        for i in 0..entities {
            for j in (i + 1)..entities {
                let ni = entity_name(i);
                let nj = entity_name(j);
                let fixed = fixed_relations[i * entities + j];
                let mut left_ij = m.bin_var(format!("left[{ni}][{nj}]"));
                let mut left_ji = m.bin_var(format!("left[{nj}][{ni}]"));
                let mut below_ij = m.bin_var(format!("above[{ni}][{nj}]"));
                let mut below_ji = m.bin_var(format!("above[{nj}][{ni}]"));
                vars.pair_rel.push((i, j, [left_ij, left_ji, below_ij, below_ji]));
                if !is_soft(i) && !is_soft(j) {
                    // Structural hint for the MILP cut separator: widths and
                    // heights are >= 1, so "i left of j" and "j left of i"
                    // (resp. above) are mutually exclusive cliques. The LP
                    // relaxation routinely splits these 0.5/0.5; the clique
                    // cuts close that gap.
                    m.add_mutex_group(format!("left_mutex[{ni}][{nj}]"), vec![left_ij, left_ji]);
                    m.add_mutex_group(format!("above_mutex[{ni}][{nj}]"), vec![below_ij, below_ji]);
                }
                if let Some(rel) = fixed {
                    // HO: pin the binary corresponding to the seed relation.
                    let pin = |m: &mut Model, var: &mut VarId| m.set_bounds(*var, 1.0, 1.0);
                    match rel {
                        Relation::LeftOf => pin(&mut m, &mut left_ij),
                        Relation::RightOf => pin(&mut m, &mut left_ji),
                        Relation::Above => pin(&mut m, &mut below_ij),
                        Relation::Below => pin(&mut m, &mut below_ji),
                    }
                }
                let soft = soft_term(i, cols.max(rows)) + soft_term(j, cols.max(rows));
                m.add_con(
                    format!("no_overlap[{ni}][{nj}]"),
                    LinExpr::from(left_ij) + left_ji + below_ij + below_ji,
                    ConOp::Ge,
                    1.0,
                );
                m.add_con(
                    format!("left_sep[{ni}][{nj}]"),
                    LinExpr::from(vars.x[i]) + vars.w[i] - vars.x[j] + LinExpr::term(left_ij, cols)
                        - soft.clone(),
                    ConOp::Le,
                    cols,
                );
                m.add_con(
                    format!("left_sep[{nj}][{ni}]"),
                    LinExpr::from(vars.x[j]) + vars.w[j] - vars.x[i] + LinExpr::term(left_ji, cols)
                        - soft.clone(),
                    ConOp::Le,
                    cols,
                );
                m.add_con(
                    format!("above_sep[{ni}][{nj}]"),
                    LinExpr::from(vars.y[i]) + vars.h[i] - vars.y[j]
                        + LinExpr::term(below_ij, rows)
                        - soft.clone(),
                    ConOp::Le,
                    rows,
                );
                m.add_con(
                    format!("above_sep[{nj}][{ni}]"),
                    LinExpr::from(vars.y[j]) + vars.h[j] - vars.y[i]
                        + LinExpr::term(below_ji, rows)
                        - soft,
                    ConOp::Le,
                    rows,
                );
            }
        }

        // ------------------------------------------------------------------
        // Relocation constraints (Sections IV-C and V).
        // ------------------------------------------------------------------
        let big_m_tiles = cols * rows;
        for (c_idx, &(_, region, mode)) in fc_meta.iter().enumerate() {
            let ec = n_regions + c_idx; // entity index of the FC area
            let en = region; // entity index of the source region
            let name_c = entity_name(ec);
            let v_term = |scale: f64| -> LinExpr {
                match (mode, vars.v[c_idx]) {
                    (RelocationMode::Metric { .. }, Some(v)) => LinExpr::term(v, scale),
                    _ => LinExpr::zero(),
                }
            };
            // Equation 6: equal heights.
            m.add_con(
                format!("reloc_height[{name_c}]"),
                LinExpr::from(vars.h[ec]) - vars.h[en],
                ConOp::Eq,
                0.0,
            );
            // Equation 7: equal number of covered portions.
            m.add_con(
                format!("reloc_portions[{name_c}]"),
                LinExpr::weighted_sum(vars.k[ec].iter().map(|&v| (v, 1.0)))
                    - LinExpr::weighted_sum(vars.k[en].iter().map(|&v| (v, 1.0))),
                ConOp::Eq,
                0.0,
            );
            // Equations 9/11 and 10/12, enumerated over (pc, pn, i).
            for pc in 0..n_portions {
                for pn in 0..n_portions {
                    let i_lo = -(pc.min(pn) as i64);
                    let i_hi = (n_portions - 1 - pc.max(pn)) as i64;
                    for i in i_lo..=i_hi {
                        let pci = (pc as i64 + i) as usize;
                        let pni = (pn as i64 + i) as usize;
                        let tid_c = partition.tid(PortionId(pci));
                        let tid_n = partition.tid(PortionId(pni));
                        let gate = LinExpr::term(vars.o[ec][pc], 1.0)
                            + LinExpr::term(vars.o[en][pn], 1.0)
                            + LinExpr::term(vars.k[en][pni], 1.0);
                        if tid_c != tid_n {
                            // Tightened Equation 10 (Equation 12 in metric mode).
                            m.add_con(
                                format!("reloc_type[{name_c}][{}][{}][{i}]", pc + 1, pn + 1),
                                gate.clone() - v_term(1.0),
                                ConOp::Le,
                                2.0,
                            );
                        }
                        // Equation 9 (Equation 11 in metric mode): equal tiles
                        // in aligned portions when the gate is fully active.
                        let sum_l_c = LinExpr::weighted_sum(
                            (0..n_rows as usize).map(|r| (vars.l[ec][pci][r], 1.0)),
                        );
                        let sum_l_n = LinExpr::weighted_sum(
                            (0..n_rows as usize).map(|r| (vars.l[en][pni][r], 1.0)),
                        );
                        let diff = sum_l_c - sum_l_n;
                        // diff <= M (3 - gate + v)
                        m.add_con(
                            format!("reloc_tiles_ub[{name_c}][{}][{}][{i}]", pc + 1, pn + 1),
                            diff.clone() + gate.clone() * big_m_tiles - v_term(big_m_tiles),
                            ConOp::Le,
                            3.0 * big_m_tiles,
                        );
                        // diff >= -M (3 - gate + v)
                        m.add_con(
                            format!("reloc_tiles_lb[{name_c}][{}][{}][{i}]", pc + 1, pn + 1),
                            diff - gate * big_m_tiles + v_term(big_m_tiles),
                            ConOp::Ge,
                            -3.0 * big_m_tiles,
                        );
                    }
                }
            }
        }

        // ------------------------------------------------------------------
        // Objective (Equation 14).
        // ------------------------------------------------------------------
        let weights = &problem.weights;
        let mut objective = LinExpr::zero();

        // Wire-length cost, over the centre coordinates x + w/2 and y + h/2.
        let centre = |e: usize| {
            let cx = LinExpr::from(vars.x[e]) + LinExpr::term(vars.w[e], 0.5);
            (cx, LinExpr::from(vars.y[e]) + LinExpr::term(vars.h[e], 0.5))
        };
        let (wl, wire) = wire_length(&mut m, problem, centre);
        vars.wl = wl;
        objective += wire;

        // Perimeter cost.
        if weights.perimeter != 0.0 {
            let scale = weights.perimeter / problem.p_max();
            for e in 0..n_regions {
                objective += LinExpr::term(vars.w[e], scale) + LinExpr::term(vars.h[e], scale);
            }
        }

        // Resource (wasted frames) cost.
        if weights.resources != 0.0 {
            let scale = weights.resources / problem.r_max();
            for e in 0..n_regions {
                for p in 0..n_portions {
                    let frames =
                        partition.frames_per_tile(partition.portion(PortionId(p)).tile_type) as f64;
                    for r in 0..n_rows as usize {
                        objective += LinExpr::term(vars.l[e][p][r], frames * scale);
                    }
                }
            }
            // Constant shift so the objective reports *wasted* frames rather
            // than covered frames; purely cosmetic for comparisons.
            objective += LinExpr::constant(-(problem.total_required_frames() as f64) * scale);
        }

        // Relocation cost (Equations 13 and 15).
        if weights.relocation != 0.0 {
            let scale = weights.relocation / problem.rl_max();
            for (&(_, _, mode), &v) in fc_meta.iter().zip(&vars.v) {
                if let (RelocationMode::Metric { weight }, Some(v)) = (mode, v) {
                    objective += LinExpr::term(v, weight * scale);
                }
            }
        }

        m.set_objective(objective);

        FloorplanMilp { milp: m, vars, n_regions, fc_meta, kind: ModelKind::Portion }
    }

    /// The candidate-assignment formulation (see [`FloorplanMilp::build`]
    /// for when it runs).
    ///
    /// One binary per (region, candidate) from the irredundant enumeration
    /// and an exactly-one constraint per region; one binary per target of
    /// each constraint-mode area, exactly one chosen, each bounded by the
    /// candidates it is compatible with; one set-packing row per tile.
    /// Waste and half-perimeter are constant per candidate; wire length
    /// reuses the `dx`/`dy` auxiliaries over the linear centre expressions.
    /// Metric-mode areas are *not* variables of this model: they are
    /// reserved greedily at extraction time, so the relocation term of
    /// Equation (14) is priced by the validator rather than the solver. A
    /// candidate with no target (one across a die boundary, say) can hold a
    /// constraint-mode area's source only in an infeasible assignment.
    fn build_assignment(problem: &FloorplanProblem) -> FloorplanMilp {
        let partition = &problem.partition;
        let n_regions = problem.regions.len();
        let fc_meta = problem.fc_areas();
        let mut m = Model::new(format!("floorplan-{}", partition.device_name), Sense::Minimize);

        let candidates: Vec<Vec<Candidate>> =
            problem.regions.iter().map(|spec| enumerate_candidates(partition, spec)).collect();

        let mut assign: Vec<Vec<VarId>> = Vec::with_capacity(n_regions);
        for (n, spec) in problem.regions.iter().enumerate() {
            let row: Vec<VarId> = (0..candidates[n].len())
                .map(|k| m.bin_var(format!("asg[{}][{k}]", spec.name)))
                .collect();
            exactly_one(&mut m, &format!("assign_one[{}]", spec.name), &row);
            assign.push(row);
        }

        // One free-compatible target binary `f[c][t]` per constraint-mode
        // area `c` and target `t` of a candidate of its source region, with
        // `f[c][t] <= sum of asg[n][k]` over the candidates `k` that `t` is
        // compatible with, and exactly one target per area. Metric-mode
        // areas stay out of the model.
        let mut by_region: Vec<Option<TargetSources>> = vec![None; n_regions];
        let mut targets: Vec<Option<FcTargets>> = Vec::with_capacity(fc_meta.len());
        for (c, &(_, n, mode)) in fc_meta.iter().enumerate() {
            if !matches!(mode, RelocationMode::Constraint) {
                targets.push(None);
                continue;
            }
            let sources = by_region[n].get_or_insert_with(|| {
                let mut sources: BTreeMap<(u32, u32, u32, u32), Vec<VarId>> = BTreeMap::new();
                for (cand, &var) in candidates[n].iter().zip(&assign[n]) {
                    for t in enumerate_free_compatible(partition, &cand.rect, &[]) {
                        sources.entry((t.y, t.x, t.w, t.h)).or_default().push(var);
                    }
                }
                sources
                    .into_iter()
                    .map(|((y, x, w, h), vars)| (Rect::new(x, y, w, h), vars))
                    .collect()
            });
            let name = format!("fc{c}_{}", problem.regions[n].name);
            let vars: Vec<VarId> =
                (0..sources.len()).map(|i| m.bin_var(format!("f[{name}][{i}]"))).collect();
            for (i, (_, from)) in sources.iter().enumerate() {
                m.add_con(
                    format!("fc_source[{name}][{i}]"),
                    LinExpr::from(vars[i]) - LinExpr::weighted_sum(from.iter().map(|&v| (v, 1.0))),
                    ConOp::Le,
                    0.0,
                );
            }
            exactly_one(&mut m, &format!("fc_one[{name}]"), &vars);
            targets.push(Some(FcTargets { rects: sources.iter().map(|s| s.0).collect(), vars }));
        }

        // One set-packing row per tile: the columns whose rectangles cover
        // it sum to at most 1. A tile covered by one entity's columns only
        // needs no row (its own `assign_one`/`fc_one` row bounds them), nor
        // does a cover set an earlier tile already emitted. Columns are
        // listed entity by entity, so a set's first and last entries tell.
        let stride = partition.cols as usize;
        let mut cover: Vec<Vec<(usize, VarId)>> =
            vec![Vec::new(); stride * partition.rows as usize];
        let mut mark = |entity: usize, rect: &Rect, var: VarId| {
            for y in rect.y..=rect.y2() {
                for x in rect.x..=rect.x2() {
                    cover[(y - 1) as usize * stride + (x - 1) as usize].push((entity, var));
                }
            }
        };
        for (n, cands) in candidates.iter().enumerate() {
            for (cand, &var) in cands.iter().zip(&assign[n]) {
                mark(n, &cand.rect, var);
            }
        }
        for (c, t) in targets.iter().enumerate() {
            for (rect, &var) in t.iter().flat_map(|t| t.rects.iter().zip(&t.vars)) {
                mark(n_regions + c, rect, var);
            }
        }
        let mut emitted: HashSet<Vec<VarId>> = HashSet::new();
        for (i, set) in cover.iter().enumerate() {
            if set.first().map(|f| f.0) == set.last().map(|l| l.0) {
                continue;
            }
            let vars: Vec<VarId> = set.iter().map(|&(_, v)| v).collect();
            if emitted.insert(vars.clone()) {
                m.add_con(
                    format!("tile[{}][{}]", i % stride + 1, i / stride + 1),
                    LinExpr::weighted_sum(vars.iter().map(|&v| (v, 1.0))),
                    ConOp::Le,
                    1.0,
                );
            }
        }

        // Wire-length cost over linear centre expressions.
        let centre = |n: usize| {
            let cands = || candidates[n].iter().zip(&assign[n]);
            let cx = LinExpr::weighted_sum(cands().map(|(c, &v)| (v, centre_of(&c.rect).0)));
            (cx, LinExpr::weighted_sum(cands().map(|(c, &v)| (v, centre_of(&c.rect).1))))
        };
        let (wl, mut objective) = wire_length(&mut m, problem, centre);
        let vars = ModelVars { wl, ..ModelVars::default() };
        let weights = &problem.weights;

        // Perimeter and wasted-frames costs are constants per candidate.
        if weights.perimeter != 0.0 {
            let scale = weights.perimeter / problem.p_max();
            for n in 0..n_regions {
                for (k, c) in candidates[n].iter().enumerate() {
                    objective += LinExpr::term(
                        assign[n][k],
                        (f64::from(c.rect.w) + f64::from(c.rect.h)) * scale,
                    );
                }
            }
        }
        if weights.resources != 0.0 {
            let scale = weights.resources / problem.r_max();
            for n in 0..n_regions {
                for (k, c) in candidates[n].iter().enumerate() {
                    objective += LinExpr::term(assign[n][k], c.waste as f64 * scale);
                }
            }
        }

        m.set_objective(objective);

        let kind = ModelKind::Assignment(Box::new(AssignmentModel {
            partition: partition.clone(),
            candidates,
            assign,
            targets,
        }));
        FloorplanMilp { milp: m, vars, n_regions, fc_meta, kind }
    }

    /// Statistics of the generated model.
    pub fn stats(&self) -> ModelStats {
        ModelStats {
            entities: self.n_entities(),
            n_vars: self.milp.n_vars(),
            n_int_vars: self.milp.n_integer_vars(),
            n_cons: self.milp.n_cons(),
            n_nonzeros: self.milp.n_nonzeros(),
        }
    }

    /// Number of entities (regions plus free-compatible areas).
    pub fn n_entities(&self) -> usize {
        self.n_regions + self.fc_meta.len()
    }

    /// Reads a floorplan out of a MILP solution.
    pub fn extract(&self, solution: &Solution) -> Floorplan {
        let am = match &self.kind {
            ModelKind::Portion => return self.extract_portion(solution),
            ModelKind::Assignment(am) => am,
        };
        let regions: Vec<Rect> = am
            .assign
            .iter()
            .zip(&am.candidates)
            .map(|(row, cands)| {
                row.iter()
                    .position(|&v| solution.bool_value(v))
                    .and_then(|k| cands.get(k))
                    .or_else(|| cands.first())
                    .map(|c| c.rect)
                    .unwrap_or_else(|| Rect::new(1, 1, 1, 1))
            })
            .collect();
        // Constraint-mode areas take their chosen target; metric-mode ones
        // are then reserved greedily with the fabric-aware (die-boundary-
        // rejecting) compatibility check, clear of everything placed.
        let mut occupied = regions.clone();
        let mut fc_areas: Vec<FcPlacement> = self
            .fc_meta
            .iter()
            .zip(&am.targets)
            .map(|(&(request, region, mode), targets)| {
                let rect = targets.as_ref().and_then(|t| {
                    t.vars.iter().position(|&v| solution.bool_value(v)).map(|i| t.rects[i])
                });
                occupied.extend(rect);
                FcPlacement { request, region, mode, rect }
            })
            .collect();
        let metric: Vec<_> = self
            .fc_meta
            .iter()
            .zip(&am.targets)
            .filter_map(|(&meta, targets)| targets.is_none().then_some(meta))
            .collect();
        let mut reserved = reserve_fc_areas(&am.partition, &metric, &regions, occupied).into_iter();
        for (area, targets) in fc_areas.iter_mut().zip(&am.targets) {
            if targets.is_none() {
                *area = reserved.next().expect("one reservation per metric-mode area");
            }
        }
        Floorplan { regions, fc_areas }
    }

    /// [`FloorplanMilp::extract`] for the portion model.
    fn extract_portion(&self, solution: &Solution) -> Floorplan {
        let rect_of = |e: usize| -> Rect {
            let x = solution.value(self.vars.x[e]).round().max(1.0) as u32;
            let y = solution.value(self.vars.y[e]).round().max(1.0) as u32;
            let w = solution.value(self.vars.w[e]).round().max(1.0) as u32;
            let h = solution.value(self.vars.h[e]).round().max(1.0) as u32;
            Rect::new(x, y, w, h)
        };
        let regions: Vec<Rect> = (0..self.n_regions).map(rect_of).collect();
        let mut fc_areas = Vec::with_capacity(self.fc_meta.len());
        for (c_idx, &(request, region, mode)) in self.fc_meta.iter().enumerate() {
            let violated = self
                .vars
                .v
                .get(c_idx)
                .and_then(|v| *v)
                .map(|v| solution.bool_value(v))
                .unwrap_or(false);
            let rect = if violated { None } else { Some(rect_of(self.n_regions + c_idx)) };
            fc_areas.push(FcPlacement { request, region, mode, rect });
        }
        Floorplan { regions, fc_areas }
    }

    /// Encodes a floorplan as a full variable assignment of this model, for
    /// use as a MILP warm start (the inverse of [`FloorplanMilp::extract`]).
    ///
    /// A metric-mode area the floorplan could not reserve is encoded on top
    /// of its source region with its violation binary set — exactly the
    /// relaxation the soft constraints permit. Returns `None` when the
    /// floorplan cannot be expressed in this model (wrong problem, or a
    /// missing constraint-mode area).
    pub fn encode(&self, problem: &FloorplanProblem, floorplan: &Floorplan) -> Option<Vec<f64>> {
        if floorplan.regions.len() != self.n_regions
            || floorplan.fc_areas.len() != self.fc_meta.len()
        {
            return None;
        }
        let partition = match &self.kind {
            ModelKind::Portion => {
                problem.partition.columnar().expect("portion model requires a columnar device")
            }
            ModelKind::Assignment(am) => {
                return self.encode_assignment(problem, am, floorplan);
            }
        };
        let vars = &self.vars;
        // Effective rectangle per entity: regions first, then FC areas.
        let mut rects: Vec<Rect> = floorplan.regions.clone();
        let mut violated = vec![false; self.fc_meta.len()];
        for (c_idx, fcp) in floorplan.fc_areas.iter().enumerate() {
            match (fcp.rect, self.fc_meta[c_idx].2) {
                (Some(rect), _) => rects.push(rect),
                (None, RelocationMode::Metric { .. }) => {
                    violated[c_idx] = true;
                    rects.push(floorplan.regions[self.fc_meta[c_idx].1]);
                }
                (None, RelocationMode::Constraint) => return None,
            }
        }

        // Every rectangle must lie on this device's grid, or the coverage
        // indexing below would reach past the per-row/column variable arrays.
        if rects
            .iter()
            .any(|r| r.x < 1 || r.y < 1 || r.x2() > partition.cols || r.y2() > partition.rows)
        {
            return None;
        }

        let mut values = vec![0.0; self.milp.n_vars()];
        let mut set = |id: VarId, value: f64| values[id.index()] = value;

        for (e, rect) in rects.iter().enumerate() {
            let (x1, x2) = (rect.x, rect.x2());
            let (y1, y2) = (rect.y, rect.y2());
            set(vars.x[e], f64::from(rect.x));
            set(vars.w[e], f64::from(rect.w));
            set(vars.y[e], f64::from(rect.y));
            set(vars.h[e], f64::from(rect.h));
            for r in y1..=y2 {
                set(vars.a[e][(r - 1) as usize], 1.0);
            }
            for c in x1..=x2 {
                set(vars.cov[e][(c - 1) as usize], 1.0);
            }
            let mut first_covered = true;
            for p in 0..partition.n_portions() {
                let portion = partition.portion(PortionId(p));
                let overlap = (x2.min(portion.x2) + 1).saturating_sub(x1.max(portion.x1)) as f64;
                if overlap <= 0.0 {
                    continue;
                }
                set(vars.k[e][p], 1.0);
                if first_covered {
                    set(vars.o[e][p], 1.0);
                    first_covered = false;
                }
                for r in y1..=y2 {
                    set(vars.l[e][p][(r - 1) as usize], overlap);
                }
            }
            for (ai, fa) in partition.forbidden.iter().enumerate() {
                // q = 0 encodes "entirely left of the area"; anything else
                // needs q = 1 (and a legal floorplan guarantees the entity is
                // then right of the area on every shared row).
                set(vars.q[e][ai], if x2 < fa.xa1() { 0.0 } else { 1.0 });
            }
        }

        for (c_idx, &is_violated) in violated.iter().enumerate() {
            if let (true, Some(v)) = (is_violated, vars.v[c_idx]) {
                set(v, 1.0);
            }
        }

        for &(i, j, [left_ij, left_ji, below_ij, below_ji]) in &vars.pair_rel {
            let (ri, rj) = (rects[i], rects[j]);
            let mut any = false;
            let mut rel = |id: VarId, holds: bool| {
                if holds {
                    set(id, 1.0);
                    any = true;
                }
            };
            rel(left_ij, ri.x + ri.w <= rj.x);
            rel(left_ji, rj.x + rj.w <= ri.x);
            rel(below_ij, ri.y + ri.h <= rj.y);
            rel(below_ji, rj.y + rj.h <= ri.y);
            if !any {
                // Overlapping pair: only legal for a violated metric-mode
                // area, whose separation constraints are soft.
                set(left_ij, 1.0);
            }
        }

        self.encode_wire_length(problem, &rects, &mut values);

        // Respect pinned bounds (HO relation binaries): the relations were
        // extracted from this very floorplan, so raising a variable to a
        // pinned lower bound keeps the assignment consistent.
        for (idx, def) in self.milp.vars().iter().enumerate() {
            values[idx] = values[idx].clamp(def.lb, def.ub);
        }
        Some(values)
    }

    /// [`FloorplanMilp::encode`] for the candidate-assignment model: every
    /// region rectangle must be one of its enumerated candidates and every
    /// constraint-mode area one of its targets, otherwise the floorplan is
    /// outside this model's search space and `None` is returned.
    /// Metric-mode areas carry no variables here (they are re-derived at
    /// extraction).
    fn encode_assignment(
        &self,
        problem: &FloorplanProblem,
        am: &AssignmentModel,
        floorplan: &Floorplan,
    ) -> Option<Vec<f64>> {
        let mut values = vec![0.0; self.milp.n_vars()];
        for (n, rect) in floorplan.regions.iter().enumerate() {
            let k = am.candidates[n].iter().position(|c| c.rect == *rect)?;
            values[am.assign[n][k].index()] = 1.0;
        }
        for (area, targets) in floorplan.fc_areas.iter().zip(&am.targets) {
            if let Some(t) = targets {
                let rect = area.rect?;
                values[t.vars[t.rects.iter().position(|r| *r == rect)?].index()] = 1.0;
            }
        }
        self.encode_wire_length(problem, &floorplan.regions, &mut values);
        for (idx, def) in self.milp.vars().iter().enumerate() {
            values[idx] = values[idx].clamp(def.lb, def.ub);
        }
        Some(values)
    }

    /// Sets the wire-length auxiliaries in `values` from the centres of
    /// `rects`, regions first.
    fn encode_wire_length(&self, problem: &FloorplanProblem, rects: &[Rect], values: &mut [f64]) {
        for (conn, &(dx, dy)) in problem.connections.iter().zip(&self.vars.wl) {
            let ((ax, ay), (bx, by)) = (centre_of(&rects[conn.a]), centre_of(&rects[conn.b]));
            values[dx.index()] = (ax - bx).abs();
            values[dy.index()] = (ay - by).abs();
        }
    }
}

/// Adds the row `name`: exactly one of `vars` is 1. An entity with no
/// choice at all (no candidate, no target) gets a row no binary meets
/// instead, so the model is infeasible rather than missing the entity.
fn exactly_one(m: &mut Model, name: &str, vars: &[VarId]) {
    if vars.is_empty() {
        let stub = m.bin_var(format!("infeasible:{name}"));
        m.add_con(name, LinExpr::from(stub), ConOp::Ge, 2.0);
    } else {
        let sum = LinExpr::weighted_sum(vars.iter().map(|&v| (v, 1.0)));
        m.add_con(name, sum, ConOp::Eq, 1.0);
    }
}

/// Equation 14's wire-length term, shared by both formulations: per
/// connection, auxiliaries `dx`, `dy` bounded below by the distance of its
/// endpoints' centres, `centre(entity)` as linear `(x, y)` expressions.
/// Returns the auxiliaries, one pair per connection (none when wire length
/// is not weighted), and their objective terms.
fn wire_length(
    m: &mut Model,
    problem: &FloorplanProblem,
    centre: impl Fn(usize) -> (LinExpr, LinExpr),
) -> (Vec<(VarId, VarId)>, LinExpr) {
    let (mut wl, mut objective) = (Vec::new(), LinExpr::zero());
    if problem.weights.wirelength == 0.0 {
        return (wl, objective);
    }
    let scale = problem.weights.wirelength / problem.wl_max();
    let (cols, rows) = (f64::from(problem.partition.cols), f64::from(problem.partition.rows));
    for (ci, conn) in problem.connections.iter().enumerate() {
        let dx = m.cont_var(format!("wl_dx[{ci}]"), 0.0, cols);
        let dy = m.cont_var(format!("wl_dy[{ci}]"), 0.0, rows);
        wl.push((dx, dy));
        let ((cx_a, cy_a), (cx_b, cy_b)) = (centre(conn.a), centre(conn.b));
        for (axis, d, a, b) in [("x", dx, cx_a, cx_b), ("y", dy, cy_a, cy_b)] {
            let pos = LinExpr::from(d) - a.clone() + b.clone();
            m.add_con(format!("wl_d{axis}_pos[{ci}]"), pos, ConOp::Ge, 0.0);
            m.add_con(format!("wl_d{axis}_neg[{ci}]"), LinExpr::from(d) + a - b, ConOp::Ge, 0.0);
        }
        objective +=
            LinExpr::term(dx, conn.weight * scale) + LinExpr::term(dy, conn.weight * scale);
    }
    (wl, objective)
}

/// The centre of a rect, `(x + w/2, y + h/2)`.
fn centre_of(rect: &Rect) -> (f64, f64) {
    (f64::from(rect.x) + f64::from(rect.w) * 0.5, f64::from(rect.y) + f64::from(rect.h) * 0.5)
}

/// The relation fixed for each entity pair `(i, j)`, `i < j`, at
/// `i * entities + j`, seen from `i`: the first of `relations` that names the
/// pair, in either order.
fn index_relations(relations: &[PairRelation], entities: usize) -> Vec<Option<Relation>> {
    let mut fixed = vec![None; entities * entities];
    for r in relations {
        let (i, j, relation) = if r.a < r.b {
            (r.a, r.b, r.relation)
        } else {
            let inverse = match r.relation {
                Relation::LeftOf => Relation::RightOf,
                Relation::RightOf => Relation::LeftOf,
                Relation::Above => Relation::Below,
                Relation::Below => Relation::Above,
            };
            (r.b, r.a, inverse)
        };
        if i < j && j < entities {
            fixed[i * entities + j].get_or_insert(relation);
        }
    }
    fixed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinatorial::{solve_combinatorial, CombinatorialConfig};
    use crate::engine::SolveControl;
    use crate::problem::{ObjectiveWeights, RegionSpec, RelocationRequest};
    use rfp_device::{columnar_partition, DeviceBuilder, ResourceVec};
    use rfp_milp::{Solver, SolverConfig};

    /// A tiny device: 5 columns (C C B C C), 3 rows.
    fn tiny_problem() -> (FloorplanProblem, rfp_device::TileTypeId, rfp_device::TileTypeId) {
        let mut b = DeviceBuilder::new("tiny");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
        b.rows(3).columns(&[clb, clb, bram, clb, clb]);
        let p = columnar_partition(&b.build().unwrap()).unwrap();
        (FloorplanProblem::new(p), clb, bram)
    }

    fn milp_solver() -> Solver {
        Solver::new(SolverConfig {
            max_nodes: 200_000,
            cancel: rfp_milp::CancelToken::new().with_deadline(Some(
                std::time::Instant::now() + std::time::Duration::from_secs(60),
            )),
            ..SolverConfig::default()
        })
    }

    #[test]
    fn model_statistics_scale_with_entities() {
        let (mut p, clb, bram) = tiny_problem();
        p.add_region(RegionSpec::new("A", vec![(clb, 2)]));
        let one = FloorplanMilp::build(&p, None);
        p.add_region(RegionSpec::new("B", vec![(bram, 1)]));
        let two = FloorplanMilp::build(&p, None);
        assert_eq!(one.n_entities(), 1);
        assert_eq!(two.n_entities(), 2);
        assert!(two.stats().n_vars > one.stats().n_vars);
        assert!(two.stats().n_cons > one.stats().n_cons);
        assert!(two.stats().n_int_vars > one.stats().n_int_vars);
    }

    #[test]
    fn fc_areas_become_pseudo_regions() {
        let (mut p, clb, _) = tiny_problem();
        let a = p.add_region(RegionSpec::new("A", vec![(clb, 2)]));
        p.request_relocation(RelocationRequest::constraint(a, 2));
        let model = FloorplanMilp::build(&p, None);
        assert_eq!(model.n_entities(), 3, "FC ⊂ N: one entity per requested area");
    }

    #[test]
    fn o_model_matches_combinatorial_on_waste() {
        let (mut p, clb, bram) = tiny_problem();
        p.weights = ObjectiveWeights::area_only();
        p.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
        p.add_region(RegionSpec::new("B", vec![(clb, 2)]));
        let comb =
            solve_combinatorial(&p, &CombinatorialConfig::default(), &SolveControl::default())
                .unwrap();
        // Relocation-free with waste dominant: `build` picks the assignment
        // model, and the portion model must agree with it.
        let assignment = FloorplanMilp::build(&p, None);
        assert!(assignment.is_assignment());
        for model in [FloorplanMilp::build_portion(&p, &[]), assignment] {
            let sol = milp_solver().solve(&model.milp);
            assert!(sol.status.has_solution(), "status {:?}", sol.status);
            let fp = model.extract(&sol);
            assert!(fp.validate(&p).is_empty(), "{:?}", fp.validate(&p));
            let milp_waste = fp.metrics(&p).wasted_frames;
            assert_eq!(Some(milp_waste), comb.best_waste, "O and the combinatorial engine agree");
        }
    }

    #[test]
    fn relocation_as_constraint_yields_a_compatible_area() {
        let (mut p, clb, bram) = tiny_problem();
        p.weights = ObjectiveWeights::area_only();
        let a = p.add_region(RegionSpec::new("A", vec![(clb, 1), (bram, 1)]));
        p.request_relocation(RelocationRequest::constraint(a, 1));
        let model = FloorplanMilp::build(&p, None);
        let sol = milp_solver().solve(&model.milp);
        assert!(sol.status.has_solution(), "status {:?}", sol.status);
        let fp = model.extract(&sol);
        assert!(fp.validate(&p).is_empty(), "{:?}", fp.validate(&p));
        assert_eq!(fp.fc_found(), 1);
    }

    #[test]
    fn relocation_as_metric_allows_violation_when_impossible() {
        let (mut p, clb, bram) = tiny_problem();
        p.weights = ObjectiveWeights::area_only().with_relocation(1.0);
        // The region occupies 2 of the 3 BRAM tiles of the single BRAM
        // column; a compatible copy would need 2 more -> impossible, so the
        // metric-mode area must be reported violated while the floorplan
        // stays feasible.
        let a = p.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 2)]));
        p.request_relocation(RelocationRequest::metric(a, 1, 1.0));
        let model = FloorplanMilp::build(&p, None);
        let sol = milp_solver().solve(&model.milp);
        assert!(sol.status.has_solution(), "status {:?}", sol.status);
        let fp = model.extract(&sol);
        assert!(fp.validate(&p).is_empty(), "{:?}", fp.validate(&p));
        assert_eq!(fp.fc_found(), 0);
        assert!(fp.metrics(&p).relocation_cost > 0.0);
    }

    #[test]
    fn ho_relations_restrict_but_preserve_feasibility() {
        let (mut p, clb, bram) = tiny_problem();
        p.weights = ObjectiveWeights::area_only();
        p.add_region(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
        p.add_region(RegionSpec::new("B", vec![(clb, 2)]));
        // Seed: A on the left block, B on the right block.
        let seed = crate::heuristic::greedy_floorplan(&p).unwrap();
        let relations = crate::sequence_pair::extract_relations(&seed.occupied());
        let model = FloorplanMilp::build(&p, Some(&relations));
        let sol = milp_solver().solve(&model.milp);
        assert!(sol.status.has_solution(), "status {:?}", sol.status);
        let fp = model.extract(&sol);
        assert!(fp.validate(&p).is_empty(), "{:?}", fp.validate(&p));
        // HO explores a subset of the O space, so its waste can only be >= O's.
        let comb =
            solve_combinatorial(&p, &CombinatorialConfig::default(), &SolveControl::default())
                .unwrap();
        assert!(fp.metrics(&p).wasted_frames >= comb.best_waste.unwrap());
    }

    #[test]
    fn forbidden_areas_are_avoided_by_the_milp() {
        let mut b = DeviceBuilder::new("fb");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        b.rows(3).repeat_column(clb, 4);
        // Column 2, rows 1-2 are off limits.
        b.forbidden("blk", rfp_device::Rect::new(2, 1, 1, 2));
        let part = columnar_partition(&b.build().unwrap()).unwrap();
        let mut p = FloorplanProblem::new(part);
        p.weights = ObjectiveWeights::area_only();
        p.add_region(RegionSpec::new("A", vec![(clb, 2)]));
        for model in [FloorplanMilp::build_portion(&p, &[]), FloorplanMilp::build(&p, None)] {
            let sol = milp_solver().solve(&model.milp);
            assert!(sol.status.has_solution());
            let fp = model.extract(&sol);
            assert!(fp.validate(&p).is_empty(), "{:?}", fp.validate(&p));
            assert!(!fp.regions[0].contains(2, 1) && !fp.regions[0].contains(2, 2));
        }
    }

    /// Constraint-mode areas are variables of the assignment model, so its
    /// optimum packs them wherever a floorplan exists. On a two-die 3x2
    /// all-CLB fabric, A (two tiles) and B (one tile) each request one area:
    ///
    /// ```text
    /// row 1 | B  a  a |   a greedy pass that gives B's area the first free
    /// row 2 | A  A  b |   cell, (2,1), leaves A's two-wide area nowhere
    /// ```
    #[test]
    fn constraint_mode_areas_are_chosen_inside_the_assignment_model() {
        let mut b = DeviceBuilder::new("two-die");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        b.rows(2).columns(&[clb, clb, clb]);
        let fabric = rfp_device::fabric_partition_with_boundaries(&b.build().unwrap(), &[1]);
        let mut p = FloorplanProblem::new(fabric.unwrap());
        p.weights = ObjectiveWeights::area_only();
        let a = p.add_region(RegionSpec::new("A", vec![(clb, 2)]));
        let bid = p.add_region(RegionSpec::new("B", vec![(clb, 1)]));
        p.request_relocation(RelocationRequest::constraint(bid, 1));
        p.request_relocation(RelocationRequest::constraint(a, 1));
        let model = FloorplanMilp::build(&p, None);
        assert!(model.is_assignment());
        let sol = milp_solver().solve(&model.milp);
        assert_eq!(sol.status, rfp_milp::SolveStatus::Optimal);
        let fp = model.extract(&sol);
        assert!(fp.validate(&p).is_empty(), "{:?}", fp.validate(&p));
        assert_eq!(fp.fc_found(), 2);
        // The floorplan encodes back to the solution's assignment.
        let values = model.encode(&p, &fp).expect("the floorplan encodes");
        assert!(model.milp.is_feasible(&values, 1e-9));
        assert_eq!(model.extract(&Solution { values, ..sol }), fp);
    }
}
