//! Sparse revised simplex with bounded variables.
//!
//! This is the LP engine under branch and bound. Unlike the retired dense
//! tableau (the test oracle in `tests/dense/mod.rs`), the revised simplex
//! keeps the constraint matrix in CSC form ([`crate::sparse`]) and maintains
//! a basis factorization with LU + eta updates ([`crate::basis`]), so one
//! iteration costs O(nnz) instead of O(rows × columns):
//!
//! * every constraint row carries a *logical* variable `s` with
//!   `a·x + s = rhs` (`s ≥ 0` for `≤`, `s ≤ 0` for `≥`, `s = 0` for `=`), so
//!   the all-logical identity basis is always available as a cold start — no
//!   artificial variables are ever added;
//! * the cold start runs a **composite phase 1** (minimise the sum of bound
//!   violations of basic variables, with costs recomputed per iteration)
//!   followed by the real phase 2;
//! * [`StandardForm::solve_warm`] is a **dual simplex**: starting from a
//!   parent-optimal basis snapshot it repairs primal feasibility after bound
//!   tightenings, which is how branch-and-bound children re-solve in a
//!   handful of pivots instead of from scratch. It picks the leaving row by
//!   **dual Devex** pricing (squared infeasibility against a per-row
//!   reference weight, updated from the FTRAN-ed entering column), which
//!   keeps it out of the degenerate stalls largest-violation pricing falls
//!   into on big-M rows. It keeps its reduced costs and updates them along
//!   the pivot row at each basis change, so a pivot does one BTRAN
//!   (`ρ = B⁻ᵀe_r`); the pivot row `ρᵀA` is built row-wise from the rows
//!   where `ρ` is nonzero. Before returning "optimal" it recomputes the
//!   duals fresh and verifies dual feasibility, falling back to the cold
//!   primal when the updated costs drifted;
//! * a warm start factorizes its snapshot basis once, and an [`LuCache`]
//!   keeps those clean factors for the next warm start of the same thread:
//!   siblings re-solving from the same parent snapshot share one
//!   factorization;
//! * cut rows can be appended ([`StandardForm::add_rows`]) and an existing
//!   snapshot extended with the new logical basics, so a cut round re-solves
//!   dually as well;
//! * the primal prices with **Devex** (approximate steepest edge): reduced
//!   costs are scored against online reference weights `d_j² / w_j`, updated
//!   from the transformed pivot row each iteration, which steers the walk
//!   along steep edges and cuts the iteration count on the near-degenerate
//!   big-M LPs floorplanning produces; pricing switches to Bland's rule
//!   after a run of degenerate pivots, guaranteeing termination.
//!
//! The solver is deterministic: ties are broken by column index everywhere.

use crate::basis::Factorization;
use crate::model::{ConOp, Model, Sense};
use crate::sparse::CscMatrix;
use crate::tol;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic feasible solution was found.
    Optimal,
    /// The constraints are infeasible.
    Infeasible,
    /// The objective is unbounded in the optimisation direction.
    Unbounded,
    /// The iteration limit was hit before optimality was proven.
    IterationLimit,
}

/// Result of an LP solve.
#[derive(Debug, Clone)]
pub struct LpResult {
    /// Solve status.
    pub status: LpStatus,
    /// Objective value in the *model's* sense (meaningful for `Optimal`).
    pub objective: f64,
    /// Values of the structural (model) variables.
    pub values: Vec<f64>,
    /// Number of simplex iterations performed.
    pub iterations: usize,
}

/// Tunable parameters of the simplex.
///
/// The feasibility and pivot tolerances are not settable: they are
/// [`tol::LP_FEAS`] and [`tol::PIVOT`].
#[derive(Debug, Clone)]
pub struct LpConfig {
    /// Hard cap on simplex iterations. `0` means "derive from problem size".
    /// Tests set a tiny cap to force the dual's fallback to the cold primal.
    pub max_iterations: usize,
    /// Refactorize the basis after this many eta updates. Tests shrink it to
    /// stress the refactorization path.
    pub refactor_interval: usize,
    /// Cooperative cancellation, polled once per pivot; an interrupted solve
    /// returns [`LpStatus::IterationLimit`]. The MILP driver shares its own
    /// token here so a cancellation — or the token's deadline — fires even
    /// mid-LP (the root relaxations of full-die models run for minutes
    /// otherwise).
    pub cancel: crate::cancel::CancelToken,
}

impl Default for LpConfig {
    fn default() -> Self {
        LpConfig {
            max_iterations: 0,
            refactor_interval: 64,
            cancel: crate::cancel::CancelToken::default(),
        }
    }
}

/// Status of one column with respect to the current basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VStat {
    Basic,
    AtLower,
    AtUpper,
}

/// A row appended to a [`StandardForm`] (e.g. a cutting plane): sparse terms
/// over structural columns, operator, right-hand side.
pub type CutRow = (Vec<(usize, f64)>, ConOp, f64);

/// A resumable basis: which column is basic in each row and where every
/// non-basic column rests. Cheap to clone and share between the two children
/// of a branch-and-bound node.
#[derive(Debug, Clone)]
pub struct BasisSnapshot {
    basis: Vec<usize>,
    status: Vec<VStat>,
}

impl BasisSnapshot {
    /// Number of rows the snapshot was taken for.
    pub fn n_rows(&self) -> usize {
        self.basis.len()
    }
}

/// The clean LU factors of the last warm-start basis one search thread
/// factorized.
///
/// Sibling nodes re-solve from the same parent snapshot, often back to
/// back; the second one then takes the first one's factors instead of
/// refactorizing the same basis. They are the factors
/// [`Factorization::factorize`] returns for that basis, bit for bit, so
/// every pivot stays the same. An entry belongs to the matrix it was
/// factorized from: another form, or the same form after
/// [`StandardForm::add_rows`], refactorizes. A fresh `LuCache::default()`
/// per call bypasses the reuse.
#[derive(Debug, Default)]
pub struct LuCache {
    /// `(matrix id, basis, factors without etas)` of the last warm start.
    entry: Option<(u64, Vec<usize>, Factorization)>,
}

impl LuCache {
    /// The factors of `basis` over `sf`'s matrix: the kept ones when they
    /// are of this very matrix and basis (counted as `milp.lp.lu_reuses`),
    /// fresh ones, then kept, otherwise. `None` when the basis is singular.
    fn factorize(&mut self, sf: &StandardForm, basis: &[usize]) -> Option<Factorization> {
        if let Some((id, b, fact)) = &self.entry {
            if *id == sf.matrix_id && b == basis {
                rfp_trace::count("milp.lp.lu_reuses", 1);
                return Some(fact.clone());
            }
        }
        let fact = Factorization::factorize(&sf.matrix, basis)?;
        self.entry = Some((sf.matrix_id, basis.to_vec(), fact.clone()));
        Some(fact)
    }
}

/// Source of [`StandardForm`] matrix ids.
static NEXT_MATRIX_ID: AtomicU64 = AtomicU64::new(0);

/// Pre-processed computational form of a model: every row as an equality with
/// a logical column, constraint matrix in CSC form.
///
/// The form depends only on the constraint matrix, so branch and bound builds
/// it once and re-solves with different variable bounds; cut rows may be
/// appended at the root.
#[derive(Debug, Clone)]
pub struct StandardForm {
    /// Number of structural (model) variables.
    n_struct: usize,
    /// Sparse rows over structural columns (logical columns are implicit:
    /// row `i` owns column `n_struct + i` with coefficient 1): the row-wise
    /// copy of `matrix` the dual simplex builds its pivot row from.
    rows: Vec<Vec<(usize, f64)>>,
    /// Right-hand sides.
    rhs: Vec<f64>,
    /// Default bounds of structural + logical columns.
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Minimisation objective over structural columns (sign-adjusted).
    obj: Vec<f64>,
    /// `true` if the model maximises (objective value is negated back).
    maximize: bool,
    /// Constant term of the objective.
    obj_constant: f64,
    /// CSC image of `rows` + logical identity, rebuilt when rows are added.
    matrix: CscMatrix,
    /// Identity of `matrix`: drawn afresh at every rebuild, so an
    /// [`LuCache`] entry never outlives the matrix it factorized (a clone
    /// shares the id with an identical matrix).
    matrix_id: u64,
}

/// Clamps an infinite lower bound to the simplex's finite stand-in.
fn clamp_lb(lb: f64) -> f64 {
    if lb.is_finite() {
        lb
    } else {
        -tol::INFINITE_BOUND
    }
}

impl StandardForm {
    /// Builds the computational form of a model.
    pub fn from_model(model: &Model) -> StandardForm {
        let n_struct = model.n_vars();
        let maximize = model.sense == Sense::Maximize;

        let mut rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(model.n_cons());
        let mut rhs: Vec<f64> = Vec::with_capacity(model.n_cons());
        let mut lb = Vec::with_capacity(n_struct + model.n_cons());
        let mut ub = Vec::with_capacity(n_struct + model.n_cons());
        for v in model.vars() {
            lb.push(clamp_lb(v.lb));
            ub.push(v.ub);
        }
        let mut logical_lb = Vec::with_capacity(model.n_cons());
        let mut logical_ub = Vec::with_capacity(model.n_cons());
        for con in model.constraints() {
            rows.push(con.expr.iter().map(|(v, c)| (v.index(), c)).collect());
            rhs.push(con.rhs);
            let (l, u) = Self::logical_bounds(con.op);
            logical_lb.push(l);
            logical_ub.push(u);
        }
        lb.extend(logical_lb);
        ub.extend(logical_ub);

        let mut obj = vec![0.0; n_struct];
        for (v, c) in model.objective.iter() {
            obj[v.index()] = if maximize { -c } else { c };
        }
        let obj_constant = model.objective.constant_term();

        let mut sf = StandardForm {
            n_struct,
            rows,
            rhs,
            lb,
            ub,
            obj,
            maximize,
            obj_constant,
            matrix: CscMatrix::from_rows(0, 0, &[]),
            matrix_id: 0,
        };
        sf.rebuild_matrix();
        sf
    }

    /// Bounds of the logical column of a row with the given operator.
    fn logical_bounds(op: ConOp) -> (f64, f64) {
        match op {
            ConOp::Le => (0.0, f64::INFINITY),
            ConOp::Ge => (-tol::INFINITE_BOUND, 0.0),
            ConOp::Eq => (0.0, 0.0),
        }
    }

    fn rebuild_matrix(&mut self) {
        let m = self.rows.len();
        let full: Vec<Vec<(usize, f64)>> = self
            .rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let mut r = row.clone();
                r.push((self.n_struct + i, 1.0));
                r
            })
            .collect();
        self.matrix = CscMatrix::from_rows(m, self.n_struct + m, &full);
        self.matrix_id = NEXT_MATRIX_ID.fetch_add(1, Relaxed);
    }

    /// Number of structural variables.
    pub fn n_struct(&self) -> usize {
        self.n_struct
    }

    /// Number of rows (constraints, including appended cut rows).
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Total number of columns (structural + logical).
    fn n_cols(&self) -> usize {
        self.n_struct + self.rows.len()
    }

    /// Minimisation cost of a column (0 on logicals).
    fn cost(&self, j: usize) -> f64 {
        if j < self.n_struct {
            self.obj[j]
        } else {
            0.0
        }
    }

    /// The row-vector product `out = ρᵀA` over structural and logical
    /// columns, walking the rows with `ρ_i ≠ 0` in ascending `i`. That is
    /// the per-column summation order of [`CscMatrix::col_dot`], so every
    /// entry equals `col_dot(j, ρ)` exactly, at the cost of the nonzero
    /// rows only.
    fn row_times(&self, rho: &[f64], out: &mut [f64]) {
        out.iter_mut().for_each(|v| *v = 0.0);
        for (i, (&r, row)) in rho.iter().zip(&self.rows).enumerate() {
            if r == 0.0 {
                continue;
            }
            for &(j, a) in row {
                out[j] += a * r;
            }
            out[self.n_struct + i] += r;
        }
    }

    /// Appends rows (cuts) over structural columns. Each row gets a fresh
    /// logical column; existing column indices are unchanged.
    pub fn add_rows(&mut self, new_rows: &[CutRow]) {
        for (terms, op, rhs) in new_rows {
            debug_assert!(terms.iter().all(|&(j, _)| j < self.n_struct));
            self.rows.push(terms.clone());
            self.rhs.push(*rhs);
            let (l, u) = Self::logical_bounds(*op);
            self.lb.push(l);
            self.ub.push(u);
        }
        self.rebuild_matrix();
    }

    /// Extends a snapshot taken before rows were appended: the new logical
    /// columns enter the basis. Returns `None` if the snapshot does not match
    /// this form.
    pub fn extend_snapshot(&self, snap: &BasisSnapshot) -> Option<BasisSnapshot> {
        let old_rows = snap.basis.len();
        if old_rows > self.n_rows() || snap.status.len() != self.n_struct + old_rows {
            return None;
        }
        let mut basis = snap.basis.clone();
        let mut status = snap.status.clone();
        for i in old_rows..self.n_rows() {
            basis.push(self.n_struct + i);
            status.push(VStat::Basic);
        }
        Some(BasisSnapshot { basis, status })
    }

    /// Solves the LP with the model's own bounds.
    pub fn solve(&self, config: &LpConfig) -> LpResult {
        self.solve_with_bounds(None, config)
    }

    /// Solves the LP from a cold start, overriding the bounds of the
    /// structural variables when provided.
    pub fn solve_with_bounds(
        &self,
        bounds_override: Option<&[(f64, f64)]>,
        config: &LpConfig,
    ) -> LpResult {
        self.solve_cold(bounds_override, config).0
    }

    /// Cold solve that also returns a reusable basis snapshot on optimality.
    pub fn solve_cold(
        &self,
        bounds_override: Option<&[(f64, f64)]>,
        config: &LpConfig,
    ) -> (LpResult, Option<BasisSnapshot>) {
        if let Some(res) = self.crossed_bounds(bounds_override) {
            return (res, None);
        }
        let Some(mut w) = Worker::start(self, config, bounds_override, None) else {
            return (self.failed(LpStatus::IterationLimit), None);
        };
        let status = w.primal();
        let snap = (status == LpStatus::Optimal).then(|| w.snapshot());
        (w.result(status), snap)
    }

    /// Warm re-solve with the **dual simplex** from a parent-optimal basis
    /// after bound changes, taking the snapshot basis's factors from `lu`
    /// when it holds them and leaving them there otherwise. Falls back to a
    /// cold solve when the snapshot is unusable (wrong shape, a column at an
    /// infinite upper bound, singular, or not dual feasible) or the dual
    /// gives up; each fallback counts `milp.lp.dual_fallbacks` and adds the
    /// discarded dual pivots to `milp.lp.wasted_pivots` (both only appear
    /// when nonzero).
    pub fn solve_warm(
        &self,
        snap: &BasisSnapshot,
        bounds_override: Option<&[(f64, f64)]>,
        config: &LpConfig,
        lu: &mut LuCache,
    ) -> (LpResult, Option<BasisSnapshot>) {
        if let Some(res) = self.crossed_bounds(bounds_override) {
            return (res, None);
        }
        let mut wasted = 0;
        if snap.basis.len() == self.n_rows() && snap.status.len() == self.n_cols() {
            if let Some(mut w) = Worker::start(self, config, bounds_override, Some((snap, lu))) {
                match w.dual() {
                    DualOutcome::Done(status) => {
                        let out = (status == LpStatus::Optimal).then(|| w.snapshot());
                        return (w.result(status), out);
                    }
                    DualOutcome::Fallback => wasted = w.iterations,
                }
            }
        }
        rfp_trace::count("milp.lp.dual_fallbacks", 1);
        rfp_trace::count("milp.lp.wasted_pivots", wasted as u64);
        self.solve_cold(bounds_override, config)
    }

    /// Early exit when any *effective* structural bound pair is crossed —
    /// the override where provided, the model's own bounds otherwise (phase 1
    /// only repairs basic variables, so a crossed non-basic column would
    /// silently come back "optimal" without this guard).
    fn crossed_bounds(&self, bounds_override: Option<&[(f64, f64)]>) -> Option<LpResult> {
        if let Some(over) = bounds_override {
            debug_assert_eq!(over.len(), self.n_struct);
        }
        for j in 0..self.n_struct {
            let (l, u) = match bounds_override {
                Some(over) => over[j],
                None => (self.lb[j], self.ub[j]),
            };
            if clamp_lb(l) > u + tol::LP_FEAS {
                return Some(self.failed(LpStatus::Infeasible));
            }
        }
        None
    }

    fn failed(&self, status: LpStatus) -> LpResult {
        LpResult { status, objective: f64::NAN, values: vec![0.0; self.n_struct], iterations: 0 }
    }
}

/// Outcome of a dual-simplex run.
enum DualOutcome {
    /// The run terminated with a trustworthy status.
    Done(LpStatus),
    /// The snapshot was unusable; the caller should solve cold.
    Fallback,
}

/// Working state of one revised-simplex solve.
struct Worker<'a> {
    sf: &'a StandardForm,
    cfg: &'a LpConfig,
    lb: Vec<f64>,
    ub: Vec<f64>,
    status: Vec<VStat>,
    in_basis: Vec<bool>,
    basis: Vec<usize>,
    xb: Vec<f64>,
    fact: Factorization,
    iterations: usize,
}

impl<'a> Worker<'a> {
    /// Builds the working bounds and initial basis, and factorizes it (a
    /// warm start through its [`LuCache`]). `None` when the basis is
    /// singular, or when a warm snapshot rests a column at an infinite
    /// upper bound, where it would have no value.
    fn start(
        sf: &'a StandardForm,
        cfg: &'a LpConfig,
        bounds_override: Option<&[(f64, f64)]>,
        warm: Option<(&BasisSnapshot, &mut LuCache)>,
    ) -> Option<Worker<'a>> {
        let m = sf.n_rows();
        let n = sf.n_cols();
        let mut lb = sf.lb.clone();
        let mut ub = sf.ub.clone();
        if let Some(over) = bounds_override {
            for (j, &(l, u)) in over.iter().enumerate() {
                lb[j] = clamp_lb(l);
                ub[j] = u;
            }
        }
        let (basis, status, lu) = match warm {
            Some((s, lu)) => {
                let at_infinity =
                    |(&st, &u): (&VStat, &f64)| st == VStat::AtUpper && u.is_infinite();
                if s.status.iter().zip(&ub).any(at_infinity) {
                    return None;
                }
                (s.basis.clone(), s.status.clone(), Some(lu))
            }
            None => {
                // Cold start: all-logical basis, structural columns at the
                // finite bound of smallest magnitude.
                let mut status = Vec::with_capacity(n);
                for j in 0..sf.n_struct {
                    let at_upper = ub[j].is_finite() && lb[j].abs() > ub[j].abs();
                    status.push(if at_upper { VStat::AtUpper } else { VStat::AtLower });
                }
                status.extend(std::iter::repeat_n(VStat::Basic, m));
                ((sf.n_struct..n).collect(), status, None)
            }
        };
        let mut in_basis = vec![false; n];
        for &b in &basis {
            in_basis[b] = true;
        }
        let fact = match lu {
            Some(lu) => lu.factorize(sf, &basis)?,
            None => Factorization::factorize(&sf.matrix, &basis)?,
        };
        let mut w = Worker {
            sf,
            cfg,
            lb,
            ub,
            status,
            in_basis,
            basis,
            xb: vec![0.0; m],
            fact,
            iterations: 0,
        };
        w.recompute_xb();
        Some(w)
    }

    fn max_iter(&self) -> usize {
        if self.cfg.max_iterations > 0 {
            self.cfg.max_iterations
        } else {
            20_000 + 60 * (self.sf.n_rows() + self.sf.n_cols())
        }
    }

    /// Resting value of a non-basic column.
    #[inline]
    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.status[j] {
            VStat::AtUpper => self.ub[j],
            _ => self.lb[j],
        }
    }

    /// Recomputes basic values from scratch: `x_B = B⁻¹ (rhs − N x_N)`.
    fn recompute_xb(&mut self) {
        let m = self.sf.n_rows();
        let mut r = self.sf.rhs.clone();
        for j in 0..self.sf.n_cols() {
            if self.in_basis[j] {
                continue;
            }
            let v = self.nonbasic_value(j);
            if v != 0.0 {
                self.sf.matrix.col_axpy(j, -v, &mut r);
            }
        }
        self.fact.ftran(&mut r);
        self.xb[..m].copy_from_slice(&r);
    }

    /// Refactorizes the current basis and refreshes basic values.
    fn refactorize(&mut self) -> bool {
        match Factorization::factorize(&self.sf.matrix, &self.basis) {
            Some(f) => {
                self.fact = f;
                self.recompute_xb();
                true
            }
            None => false,
        }
    }

    fn snapshot(&self) -> BasisSnapshot {
        BasisSnapshot { basis: self.basis.clone(), status: self.status.clone() }
    }

    /// Two-phase primal simplex (composite phase 1, then the real objective).
    fn primal(&mut self) -> LpStatus {
        let m = self.sf.n_rows();
        let n = self.sf.n_cols();
        let tol = tol::LP_FEAS;
        let max_iter = self.max_iter();
        let mut degenerate_run = 0usize;
        let mut cb = vec![0.0f64; m];
        let mut y = vec![0.0f64; m];
        let mut alpha = vec![0.0f64; m];
        // Devex reference weights: one per column, reset to the unit
        // framework whenever the phase flips (the phase-1 objective prices a
        // different gradient, so carried-over weights would mislead it).
        let mut devex = vec![1.0f64; n];
        let mut rho = vec![0.0f64; m];
        let mut prev_phase1: Option<bool> = None;

        loop {
            if self.iterations >= max_iter || self.cfg.cancel.is_cancelled() {
                return LpStatus::IterationLimit;
            }
            if self.fact.n_etas() >= self.cfg.refactor_interval && !self.refactorize() {
                return LpStatus::IterationLimit;
            }

            // Phase: 1 while any basic value violates its bounds.
            let mut phase1 = false;
            for i in 0..m {
                let b = self.basis[i];
                if self.xb[i] < self.lb[b] - tol || self.xb[i] > self.ub[b] + tol {
                    phase1 = true;
                    break;
                }
            }

            // Pricing duals: composite phase-1 costs are the (sub)gradient of
            // the sum of infeasibilities and are recomputed every iteration,
            // which is sound because pricing restarts from `c_B` each time.
            for ((c, &b), &x) in cb.iter_mut().zip(&self.basis).zip(&self.xb) {
                *c = if phase1 {
                    if x < self.lb[b] - tol {
                        -1.0
                    } else if x > self.ub[b] + tol {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    self.sf.cost(b)
                };
            }
            y.copy_from_slice(&cb);
            self.fact.btran(&mut y);

            if prev_phase1 != Some(phase1) {
                devex.iter_mut().for_each(|w| *w = 1.0);
                prev_phase1 = Some(phase1);
            }

            // Entering column: Devex pricing (d_j² against the reference
            // weight), or Bland after a degenerate streak.
            let use_bland = degenerate_run > 2 * (m + 10);
            let mut enter: Option<(usize, f64, i8)> = None;
            for (j, &weight) in devex.iter().enumerate().take(n) {
                if self.in_basis[j] || (self.ub[j] - self.lb[j]).abs() < 1e-15 {
                    continue;
                }
                let cj = if phase1 { 0.0 } else { self.sf.cost(j) };
                let dj = cj - self.sf.matrix.col_dot(j, &y);
                let dir: i8 = if self.status[j] != VStat::AtUpper && dj < -tol {
                    1
                } else if self.status[j] == VStat::AtUpper && dj > tol {
                    -1
                } else {
                    continue;
                };
                let score = dj * dj / weight;
                match (&enter, use_bland) {
                    (_, true) => {
                        enter = Some((j, score, dir));
                        break;
                    }
                    (None, false) => enter = Some((j, score, dir)),
                    (Some((_, best, _)), false) if score > *best => enter = Some((j, score, dir)),
                    _ => {}
                }
            }
            let Some((e, _, dir)) = enter else {
                // No improving column: phase-1 optimal with residual
                // infeasibility proves the LP infeasible; phase-2 optimal is
                // the answer.
                return if phase1 { LpStatus::Infeasible } else { LpStatus::Optimal };
            };

            // Transformed entering column.
            alpha.iter_mut().for_each(|v| *v = 0.0);
            self.sf.matrix.col_axpy(e, 1.0, &mut alpha);
            self.fact.ftran(&mut alpha);

            // Ratio test. In phase 1 an infeasible basic variable only blocks
            // when it reaches the bound it violates (it may move *away* from
            // feasibility freely — the cost row already accounts for it).
            let dirf = f64::from(dir);
            let range = self.ub[e] - self.lb[e];
            let mut t_max = range;
            let mut leave: Option<(usize, bool, f64)> = None;
            for (i, &a) in alpha.iter().enumerate() {
                if a.abs() < tol::PIVOT {
                    continue;
                }
                let b = self.basis[i];
                let delta = dirf * a; // xb[i] moves by −delta·t
                let below = self.xb[i] < self.lb[b] - tol;
                let above = self.xb[i] > self.ub[b] + tol;
                let (target, leaves_upper) = if delta > 0.0 {
                    // Basic value decreasing.
                    if below {
                        continue;
                    }
                    if above {
                        (self.ub[b], true)
                    } else {
                        (self.lb[b], false)
                    }
                } else {
                    // Basic value increasing.
                    if above {
                        continue;
                    }
                    if below {
                        (self.lb[b], false)
                    } else {
                        if !self.ub[b].is_finite() {
                            continue;
                        }
                        (self.ub[b], true)
                    }
                };
                let limit = ((self.xb[i] - target) / delta).max(0.0);
                let replace = match &leave {
                    None => limit < t_max - 1e-12,
                    Some((br, _, ba)) => {
                        limit < t_max - 1e-12
                            || (limit <= t_max + 1e-12
                                && if use_bland {
                                    self.basis[i] < self.basis[*br]
                                } else {
                                    a.abs() > *ba
                                })
                    }
                };
                if replace {
                    t_max = limit.min(t_max);
                    leave = Some((i, leaves_upper, a.abs()));
                }
            }

            if !t_max.is_finite() {
                // Entirely unblocked with an infinite range: unbounded (only
                // meaningful in phase 2 — phase 1 is bounded below by 0, so a
                // phase-1 hit means numerical trouble).
                return if phase1 { LpStatus::IterationLimit } else { LpStatus::Unbounded };
            }

            self.iterations += 1;
            if t_max <= 1e-11 {
                degenerate_run += 1;
            } else {
                degenerate_run = 0;
            }

            match leave {
                None => {
                    // Bound flip.
                    for (x, &a) in self.xb.iter_mut().zip(&alpha) {
                        if a != 0.0 {
                            *x -= dirf * t_max * a;
                        }
                    }
                    self.status[e] = if self.status[e] == VStat::AtUpper {
                        VStat::AtLower
                    } else {
                        VStat::AtUpper
                    };
                }
                Some((r, leaves_upper, _)) => {
                    for (x, &a) in self.xb.iter_mut().zip(&alpha) {
                        if a != 0.0 {
                            *x -= dirf * t_max * a;
                        }
                    }
                    // Devex update from the transformed pivot row: every
                    // non-basic column inherits the steepness the pivot
                    // exposes, the leaving column gets the entering weight
                    // projected through the pivot element. Skipped under
                    // Bland's rule, where the scores are ignored anyway.
                    let aq = alpha[r];
                    if !use_bland && aq.abs() >= tol::PIVOT {
                        let wq = devex[e].max(1.0);
                        let inv = 1.0 / (aq * aq);
                        rho.iter_mut().for_each(|v| *v = 0.0);
                        rho[r] = 1.0;
                        self.fact.btran(&mut rho);
                        let mut w_max = 1.0f64;
                        for (j, w) in devex.iter_mut().enumerate() {
                            if self.in_basis[j] || j == e || (self.ub[j] - self.lb[j]).abs() < 1e-15
                            {
                                continue;
                            }
                            let arj = self.sf.matrix.col_dot(j, &rho);
                            if arj != 0.0 {
                                let cand = arj * arj * inv * wq;
                                if cand > *w {
                                    *w = cand;
                                }
                            }
                            w_max = w_max.max(*w);
                        }
                        devex[self.basis[r]] = (wq * inv).max(1.0);
                        if w_max > 1e12 {
                            // The reference framework drifted too far:
                            // restart it rather than price on noise.
                            devex.iter_mut().for_each(|w| *w = 1.0);
                        }
                    }
                    let entering_value = self.nonbasic_value(e) + dirf * t_max;
                    if !self.pivot(r, e, entering_value, leaves_upper, &alpha) {
                        return LpStatus::IterationLimit;
                    }
                }
            }
        }
    }

    /// Fresh reduced costs `d_j = c_j − yᵀA_j` (`y = B⁻ᵀc_B`, one BTRAN
    /// and one column sweep) of every non-basic, non-fixed column into `d`;
    /// basic and fixed columns get 0. Returns `false` when one of them is
    /// dual infeasible by more than `1e-5`.
    fn fresh_reduced_costs(&mut self, d: &mut [f64]) -> bool {
        let mut y: Vec<f64> = self.basis.iter().map(|&b| self.sf.cost(b)).collect();
        self.fact.btran(&mut y);
        let mut feasible = true;
        for (j, dj) in d.iter_mut().enumerate() {
            if self.in_basis[j] || (self.ub[j] - self.lb[j]).abs() < 1e-15 {
                *dj = 0.0;
                continue;
            }
            *dj = self.sf.cost(j) - self.sf.matrix.col_dot(j, &y);
            feasible &= match self.status[j] {
                VStat::AtUpper => *dj <= 1e-5,
                _ => *dj >= -1e-5,
            };
        }
        feasible
    }

    /// Dual simplex: repairs primal feasibility from a dual-feasible basis.
    ///
    /// The reduced costs are state: computed fresh once up front, then
    /// updated along the pivot row at every basis change, so a pivot costs
    /// one BTRAN (`ρ = B⁻ᵀe_r`). "Optimal" is only returned after a fresh
    /// recomputation confirms dual feasibility, so drift in the updated
    /// costs can cost pivots but never a wrong bound.
    ///
    /// The leaving row is priced by dual Devex (Forrest & Goldfarb, 1992):
    /// each basis position keeps a reference weight `w_i`, 1 at the start
    /// of every solve, and the row with the largest `viol² / w_i` leaves.
    /// After a pivot the weights follow the FTRAN-ed entering column `α`,
    /// which the pivot needs anyway: `w_i = max(w_i, (α_i/α_r)² w_r)` for
    /// `i ≠ r`, and the entering position takes `max(w_r/α_r², 1)`.
    fn dual(&mut self) -> DualOutcome {
        let m = self.sf.n_rows();
        let n = self.sf.n_cols();
        let tol = tol::LP_FEAS;
        let max_iter = self.max_iter();
        let mut rho = vec![0.0f64; m];
        let mut alpha = vec![0.0f64; m];
        let mut row = vec![0.0f64; n];
        let mut d = vec![0.0f64; n];
        let mut weights = vec![1.0f64; m];
        let mut cands: Vec<(f64, f64, usize)> = Vec::new(); // (ratio, |α|, col)

        // Up-front dual-feasibility check: a snapshot from an aborted parent
        // solve is not worth iterating on.
        if !self.fresh_reduced_costs(&mut d) {
            return DualOutcome::Fallback;
        }

        // Budget: a healthy warm re-solve takes a handful of pivots. These
        // LPs are massively dual degenerate (most columns have zero cost),
        // and a degenerate dual can ping-pong for thousands of iterations —
        // past the budget a cold primal solve is strictly cheaper.
        let dual_budget = (m / 2 + 200).min(max_iter);
        let mut degenerate_run = 0usize;
        loop {
            if self.iterations >= dual_budget || self.cfg.cancel.is_cancelled() {
                // An interrupt falls back to the cold primal, which then
                // notices the same interrupt immediately and unwinds.
                return DualOutcome::Fallback;
            }
            if self.fact.n_etas() >= self.cfg.refactor_interval && !self.refactorize() {
                return DualOutcome::Fallback;
            }

            // Leaving row: the largest Devex score `viol² / w_i` (the first
            // violated row after a degenerate streak, Bland-style). The
            // ratio test below absorbs the row's true violation.
            let use_bland = degenerate_run > 2 * (m + 10);
            let mut leave: Option<(usize, bool, f64, f64)> = None;
            for (i, &w) in weights.iter().enumerate() {
                let b = self.basis[i];
                let (viol, above) = if self.xb[i] > self.ub[b] + tol {
                    (self.xb[i] - self.ub[b], true)
                } else if self.xb[i] < self.lb[b] - tol {
                    (self.lb[b] - self.xb[i], false)
                } else {
                    continue;
                };
                let score = viol * viol / w;
                if leave.is_none_or(|(.., best)| score > best) {
                    leave = Some((i, above, viol, score));
                }
                if use_bland {
                    break;
                }
            }
            let Some((r, above, viol, _)) = leave else {
                // Primal feasible. The updated reduced costs may have
                // drifted; only fresh ones may certify the bound.
                return if self.fresh_reduced_costs(&mut d) {
                    DualOutcome::Done(LpStatus::Optimal)
                } else {
                    DualOutcome::Fallback
                };
            };

            // The transformed pivot row `α_r = ρᵀA`.
            rho.iter_mut().for_each(|v| *v = 0.0);
            rho[r] = 1.0;
            self.fact.btran(&mut rho);
            self.sf.row_times(&rho, &mut row);

            // Bound-flipping dual ratio test (BFRT). Candidates are the
            // non-basic columns whose move towards their *other* bound
            // repairs the violated row; each has a breakpoint ratio
            // |d_j/α_rj| (where its reduced cost crosses zero as the dual
            // step grows) and an absorption capacity `range_j · |α_rj|`.
            // Walking candidates in breakpoint order, columns too narrow to
            // absorb the remaining violation *bound-flip* (binaries against
            // big-M rows constantly are) and the first wide-enough column
            // enters. Without the flips the entering variable overshoots its
            // own bounds and the violation just migrates, which degrades the
            // warm re-solve into thousands of pivots.
            cands.clear();
            for (j, &a) in row.iter().enumerate() {
                if self.in_basis[j] || (self.ub[j] - self.lb[j]).abs() < 1e-15 {
                    continue;
                }
                if a.abs() < tol::PIVOT {
                    continue;
                }
                let at_upper = self.status[j] == VStat::AtUpper;
                // xb[r] must decrease when above its upper bound, increase
                // when below its lower bound.
                let eligible = if above {
                    (!at_upper && a > 0.0) || (at_upper && a < 0.0)
                } else {
                    (!at_upper && a < 0.0) || (at_upper && a > 0.0)
                };
                if !eligible {
                    continue;
                }
                cands.push((d[j].abs() / a.abs(), a.abs(), j));
            }
            cands.sort_by(|x, y| x.0.total_cmp(&y.0).then(y.1.total_cmp(&x.1)).then(x.2.cmp(&y.2)));
            let mut remaining = viol;
            let mut enter: Option<usize> = None;
            let mut flipped = false;
            for &(_, amag, j) in &cands {
                let cap = (self.ub[j] - self.lb[j]) * amag;
                if !cap.is_finite() || cap + 1e-9 >= remaining {
                    enter = Some(j);
                    break;
                }
                self.status[j] =
                    if self.status[j] == VStat::AtUpper { VStat::AtLower } else { VStat::AtUpper };
                flipped = true;
                remaining -= cap;
            }
            let Some(e) = enter else {
                // Even with every eligible column at its most helpful bound
                // the row stays violated: the LP is infeasible.
                return DualOutcome::Done(LpStatus::Infeasible);
            };
            if flipped {
                self.recompute_xb();
            }

            alpha.iter_mut().for_each(|v| *v = 0.0);
            self.sf.matrix.col_axpy(e, 1.0, &mut alpha);
            self.fact.ftran(&mut alpha);
            if alpha[r].abs() < tol::PIVOT {
                // FTRAN disagrees with the BTRAN row: refactorize and retry.
                // The retry burns an iteration so that a deterministic
                // disagreement (fresh factors reproducing the same pivot)
                // drains the budget and falls back instead of spinning.
                self.iterations += 1;
                if !self.refactorize() {
                    return DualOutcome::Fallback;
                }
                continue;
            }

            let b_leave = self.basis[r];
            let target = if above { self.ub[b_leave] } else { self.lb[b_leave] };
            let t = (self.xb[r] - target) / alpha[r];
            if t.abs() <= 1e-11 && !flipped {
                degenerate_run += 1;
            } else {
                degenerate_run = 0;
            }
            // Position r lands exactly on `target` here and is then
            // overwritten with the entering value inside `pivot`.
            for (x, &a) in self.xb.iter_mut().zip(&alpha) {
                if a != 0.0 {
                    *x -= t * a;
                }
            }
            // Dual step along the pivot row: the entering column's reduced
            // cost reaches zero, the leaving column (α_r of it is 1) takes
            // `−θ`; basic columns have α_rj = 0 and bound flips leave `d`
            // alone.
            let theta = d[e] / row[e];
            for (j, dj) in d.iter_mut().enumerate() {
                if !self.in_basis[j] {
                    *dj -= theta * row[j];
                }
            }
            d[e] = 0.0;
            d[b_leave] = -theta;
            // Devex weights along the entering column.
            let (ar, wr) = (alpha[r], weights[r]);
            for (w, &a) in weights.iter_mut().zip(&alpha) {
                if a != 0.0 {
                    let ratio = a / ar;
                    *w = w.max(ratio * ratio * wr);
                }
            }
            weights[r] = (wr / (ar * ar)).max(1.0);
            let entering_value = self.nonbasic_value(e) + t;
            self.iterations += 1;
            if !self.pivot(r, e, entering_value, above, &alpha) {
                return DualOutcome::Fallback;
            }
        }
    }

    /// Executes a basis change: `e` enters in row `r`, the leaving column
    /// rests at the bound it reached. Returns `false` on numerical failure.
    fn pivot(
        &mut self,
        r: usize,
        e: usize,
        entering_value: f64,
        leaves_upper: bool,
        alpha: &[f64],
    ) -> bool {
        let leaving = self.basis[r];
        self.status[leaving] = if leaves_upper { VStat::AtUpper } else { VStat::AtLower };
        self.in_basis[leaving] = false;
        self.basis[r] = e;
        self.in_basis[e] = true;
        self.status[e] = VStat::Basic;
        self.xb[r] = entering_value;
        if !self.fact.update(r, alpha) {
            return self.refactorize();
        }
        true
    }

    /// Assembles an [`LpResult`] from the final state.
    fn result(&self, status: LpStatus) -> LpResult {
        let n_struct = self.sf.n_struct;
        let mut values = vec![0.0f64; n_struct];
        for (j, value) in values.iter_mut().enumerate() {
            *value = self.nonbasic_value(j);
        }
        for (i, &b) in self.basis.iter().enumerate() {
            if b < n_struct {
                values[b] = self.xb[i];
            }
        }
        let objective = if status == LpStatus::Optimal || status == LpStatus::IterationLimit {
            let raw: f64 = self.sf.obj.iter().enumerate().map(|(j, &c)| c * values[j]).sum();
            self.sf.obj_constant + if self.sf.maximize { -raw } else { raw }
        } else {
            f64::NAN
        };
        LpResult { status, objective, values, iterations: self.iterations }
    }
}

/// Solves the LP relaxation of a model (integrality requirements are ignored,
/// variable kinds only contribute their bounds).
pub fn solve_lp(model: &Model, config: &LpConfig) -> LpResult {
    StandardForm::from_model(model).solve(config)
}

/// Returns `true` if every integer/binary variable of the model takes an
/// integral value (within `tol`) in the assignment.
pub fn is_integral(model: &Model, values: &[f64], tol: f64) -> bool {
    model
        .vars()
        .iter()
        .enumerate()
        .filter(|(_, v)| v.kind.is_integral())
        .all(|(j, _)| (values[j] - values[j].round()).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{ConOp, Model, Sense};

    fn cfg() -> LpConfig {
        LpConfig::default()
    }

    #[test]
    fn simple_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> obj 36 at (2,6).
        let mut m = Model::new("lp1", Sense::Maximize);
        let x = m.cont_var("x", 0.0, f64::INFINITY);
        let y = m.cont_var("y", 0.0, f64::INFINITY);
        m.add_con("c1", LinExpr::from(x), ConOp::Le, 4.0);
        m.add_con("c2", LinExpr::from(y) * 2.0, ConOp::Le, 12.0);
        m.add_con("c3", LinExpr::from(x) * 3.0 + LinExpr::from(y) * 2.0, ConOp::Le, 18.0);
        m.set_objective(LinExpr::from(x) * 3.0 + LinExpr::from(y) * 5.0);
        let r = solve_lp(&m, &cfg());
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 36.0).abs() < 1e-6);
        assert!((r.values[x.index()] - 2.0).abs() < 1e-6);
        assert!((r.values[y.index()] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn simple_minimization_with_ge() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 1 -> x=9, y=1, obj 21.
        let mut m = Model::new("lp2", Sense::Minimize);
        let x = m.cont_var("x", 2.0, f64::INFINITY);
        let y = m.cont_var("y", 1.0, f64::INFINITY);
        m.add_con("cover", LinExpr::from(x) + y, ConOp::Ge, 10.0);
        m.set_objective(LinExpr::from(x) * 2.0 + LinExpr::from(y) * 3.0);
        let r = solve_lp(&m, &cfg());
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 21.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 8, x - y = 2 -> x=4, y=2, obj 6.
        let mut m = Model::new("lp3", Sense::Minimize);
        let x = m.cont_var("x", 0.0, f64::INFINITY);
        let y = m.cont_var("y", 0.0, f64::INFINITY);
        m.add_con("e1", LinExpr::from(x) + LinExpr::from(y) * 2.0, ConOp::Eq, 8.0);
        m.add_con("e2", LinExpr::from(x) - y, ConOp::Eq, 2.0);
        m.set_objective(LinExpr::from(x) + y);
        let r = solve_lp(&m, &cfg());
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.values[x.index()] - 4.0).abs() < 1e-6);
        assert!((r.values[y.index()] - 2.0).abs() < 1e-6);
        assert!((r.objective - 6.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_problem_detected() {
        let mut m = Model::new("inf", Sense::Minimize);
        let x = m.cont_var("x", 0.0, 1.0);
        m.add_con("hi", LinExpr::from(x), ConOp::Ge, 2.0);
        m.set_objective(LinExpr::from(x));
        let r = solve_lp(&m, &cfg());
        assert_eq!(r.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_problem_detected() {
        let mut m = Model::new("unb", Sense::Maximize);
        let x = m.cont_var("x", 0.0, f64::INFINITY);
        let y = m.cont_var("y", 0.0, f64::INFINITY);
        m.add_con("c", LinExpr::from(x) - y, ConOp::Le, 1.0);
        m.set_objective(LinExpr::from(x) + y);
        let r = solve_lp(&m, &cfg());
        assert_eq!(r.status, LpStatus::Unbounded);
    }

    #[test]
    fn crossed_bounds_are_infeasible() {
        let mut m = Model::new("xb", Sense::Minimize);
        let x = m.cont_var("x", 0.0, 5.0);
        m.set_objective(LinExpr::from(x));
        let sf = StandardForm::from_model(&m);
        let r = sf.solve_with_bounds(Some(&[(3.0, 2.0)]), &cfg());
        assert_eq!(r.status, LpStatus::Infeasible);
    }

    #[test]
    fn crossed_native_bounds_are_infeasible_without_override() {
        // The model's own bounds can be crossed via set_bounds; the solver
        // must report infeasibility (as the dense oracle does, see
        // `tests/dense/mod.rs`) rather than parking the column outside its
        // bounds and claiming optimality.
        let mut m = Model::new("xbn", Sense::Minimize);
        let x = m.cont_var("x", 0.0, 5.0);
        m.set_bounds(x, 3.0, 2.0);
        m.set_objective(LinExpr::from(x));
        let r = StandardForm::from_model(&m).solve(&cfg());
        assert_eq!(r.status, LpStatus::Infeasible);
    }

    #[test]
    fn bound_overrides_are_respected() {
        // min x with default bound [0, 5] but overridden to [2, 5].
        let mut m = Model::new("bo", Sense::Minimize);
        let x = m.cont_var("x", 0.0, 5.0);
        let y = m.cont_var("y", 0.0, 5.0);
        m.add_con("link", LinExpr::from(x) + y, ConOp::Ge, 3.0);
        m.set_objective(LinExpr::from(x) + LinExpr::from(y) * 10.0);
        let sf = StandardForm::from_model(&m);
        let base = sf.solve(&cfg());
        assert!((base.objective - 3.0).abs() < 1e-6, "x=3, y=0");
        let tightened = sf.solve_with_bounds(Some(&[(0.0, 1.0), (0.0, 5.0)]), &cfg());
        assert_eq!(tightened.status, LpStatus::Optimal);
        // x can only reach 1, y must cover the remaining 2.
        assert!((tightened.objective - 21.0).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_rows_handled() {
        // x - y >= -2 with minimization pushing towards the constraint.
        let mut m = Model::new("neg", Sense::Minimize);
        let x = m.cont_var("x", 0.0, 10.0);
        let y = m.cont_var("y", 0.0, 10.0);
        m.add_con("c", LinExpr::from(x) - y, ConOp::Ge, -2.0);
        m.set_objective(LinExpr::from(x) * 2.0 - LinExpr::from(y));
        let r = solve_lp(&m, &cfg());
        assert_eq!(r.status, LpStatus::Optimal);
        // Optimum: x = 0, y = 2 -> objective -2.
        assert!((r.objective + 2.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Highly degenerate: many redundant constraints through the optimum.
        let mut m = Model::new("degen", Sense::Maximize);
        let x = m.cont_var("x", 0.0, 1.0);
        let y = m.cont_var("y", 0.0, 1.0);
        for i in 0..30 {
            m.add_con(format!("r{i}"), LinExpr::from(x) + y, ConOp::Le, 1.0);
        }
        m.set_objective(LinExpr::from(x) + y);
        let r = solve_lp(&m, &cfg());
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn objective_constant_is_reported() {
        let mut m = Model::new("const", Sense::Minimize);
        let x = m.cont_var("x", 1.0, 4.0);
        m.set_objective(LinExpr::from(x) + 100.0);
        let r = solve_lp(&m, &cfg());
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 101.0).abs() < 1e-6);
    }

    #[test]
    fn warm_dual_resolve_matches_cold_solve() {
        // min x + 2y s.t. x + y >= 4, x <= 3, y <= 5.
        let mut m = Model::new("warm", Sense::Minimize);
        let x = m.cont_var("x", 0.0, 3.0);
        let y = m.cont_var("y", 0.0, 5.0);
        m.add_con("cover", LinExpr::from(x) + y, ConOp::Ge, 4.0);
        m.set_objective(LinExpr::from(x) + LinExpr::from(y) * 2.0);
        let sf = StandardForm::from_model(&m);
        let (root, snap) = sf.solve_cold(None, &cfg());
        assert_eq!(root.status, LpStatus::Optimal);
        assert!((root.objective - 5.0).abs() < 1e-6, "x=3, y=1");
        let snap = snap.unwrap();
        // Tighten x <= 1: optimum moves to x=1, y=3 -> 7.
        let (warm, warm_snap) =
            sf.solve_warm(&snap, Some(&[(0.0, 1.0), (0.0, 5.0)]), &cfg(), &mut LuCache::default());
        assert_eq!(warm.status, LpStatus::Optimal);
        assert!((warm.objective - 7.0).abs() < 1e-6, "objective {}", warm.objective);
        assert!(warm_snap.is_some());
        let cold = sf.solve_with_bounds(Some(&[(0.0, 1.0), (0.0, 5.0)]), &cfg());
        assert!((warm.objective - cold.objective).abs() < 1e-9);
        // And an infeasible tightening is detected dually.
        let (inf, _) =
            sf.solve_warm(&snap, Some(&[(0.0, 1.0), (0.0, 1.0)]), &cfg(), &mut LuCache::default());
        assert_eq!(inf.status, LpStatus::Infeasible);
    }

    #[test]
    fn row_wise_pivot_row_equals_the_column_dots() {
        // Duplicate terms, empty rows, a cut row and zero entries of ρ: every
        // entry of ρᵀA must equal the column-wise dot product exactly.
        let mut m = Model::new("rows", Sense::Minimize);
        let v: Vec<_> = (0..4).map(|j| m.cont_var(format!("x{j}"), 0.0, 1.0)).collect();
        m.add_con("a", LinExpr::from(v[0]) * 0.1 + LinExpr::from(v[2]) * 0.7, ConOp::Le, 1.0);
        m.add_con("b", LinExpr::zero(), ConOp::Le, 1.0);
        m.add_con("c", LinExpr::from(v[1]) * -0.3 + LinExpr::from(v[2]) * 0.2, ConOp::Ge, 0.0);
        m.add_con("d", LinExpr::from(v[0]) * 1e-3 + LinExpr::from(v[3]) * 3.3, ConOp::Eq, 1.0);
        let mut sf = StandardForm::from_model(&m);
        sf.add_rows(&[(vec![(0, 0.9), (2, -0.6), (0, 0.45)], ConOp::Le, 2.0)]);
        // The buffer is reused, as across pivots: a second product must
        // not see the first.
        let mut row = vec![f64::NAN; sf.n_cols()];
        for rho in [[0.3, 0.0, -1.7, 1.0 / 3.0, 0.11], [0.0, 2.0, 0.0, 0.0, -0.5]] {
            sf.row_times(&rho, &mut row);
            for (j, &a) in row.iter().enumerate() {
                assert_eq!(a, sf.matrix.col_dot(j, &rho), "column {j}");
            }
        }
    }

    #[test]
    fn a_dual_fallback_is_counted_with_its_wasted_pivots() {
        // min x + y + 5u + 5v s.t. x + u >= 1, y + v >= 1: x and y are basic
        // at the root. Fixing both at 0 violates both rows, which takes the
        // dual two pivots; a one-iteration budget gives up after the first.
        let mut m = Model::new("fallback", Sense::Minimize);
        let x = m.cont_var("x", 0.0, 10.0);
        let y = m.cont_var("y", 0.0, 10.0);
        let u = m.cont_var("u", 0.0, 10.0);
        let v = m.cont_var("v", 0.0, 10.0);
        m.add_con("cx", LinExpr::from(x) + u, ConOp::Ge, 1.0);
        m.add_con("cy", LinExpr::from(y) + v, ConOp::Ge, 1.0);
        m.set_objective(LinExpr::from(x) + y + LinExpr::from(u) * 5.0 + LinExpr::from(v) * 5.0);
        let sf = StandardForm::from_model(&m);
        let (root, snap) = sf.solve_cold(None, &cfg());
        assert!((root.objective - 2.0).abs() < 1e-9);
        let snap = snap.unwrap();
        let child = [(0.0, 0.0), (0.0, 0.0), (0.0, 10.0), (0.0, 10.0)];
        let counters = |config: &LpConfig| {
            let collector = rfp_trace::Collector::new();
            let res = {
                let _scope = collector.install("lp");
                sf.solve_warm(&snap, Some(&child), config, &mut LuCache::default()).0
            };
            (res, collector.counter_snapshot())
        };

        let (warm, seen) = counters(&cfg());
        assert_eq!((warm.status, warm.iterations), (LpStatus::Optimal, 2));
        assert!((warm.objective - 10.0).abs() < 1e-9);
        assert!(seen.is_empty(), "a finished dual counts nothing: {seen:?}");

        let (_, seen) = counters(&LpConfig { max_iterations: 1, ..cfg() });
        assert_eq!(seen.get("milp.lp.dual_fallbacks"), Some(&1), "{seen:?}");
        assert_eq!(seen.get("milp.lp.wasted_pivots"), Some(&1), "{seen:?}");
    }

    #[test]
    fn appended_cut_rows_are_honoured() {
        // max x + y s.t. x + y <= 10 with a cut x + y <= 4 appended.
        let mut m = Model::new("cuts", Sense::Maximize);
        let x = m.cont_var("x", 0.0, 10.0);
        let y = m.cont_var("y", 0.0, 10.0);
        m.add_con("cap", LinExpr::from(x) + y, ConOp::Le, 10.0);
        m.set_objective(LinExpr::from(x) + y);
        let mut sf = StandardForm::from_model(&m);
        let (root, snap) = sf.solve_cold(None, &cfg());
        assert!((root.objective - 10.0).abs() < 1e-6);
        sf.add_rows(&[(vec![(x.index(), 1.0), (y.index(), 1.0)], ConOp::Le, 4.0)]);
        let ext = sf.extend_snapshot(&snap.unwrap()).unwrap();
        let (cut, _) = sf.solve_warm(&ext, None, &cfg(), &mut LuCache::default());
        assert_eq!(cut.status, LpStatus::Optimal);
        assert!((cut.objective - 4.0).abs() < 1e-6, "objective {}", cut.objective);
        // A cold solve of the extended form agrees.
        let cold = sf.solve(&cfg());
        assert!((cold.objective - 4.0).abs() < 1e-6);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // 2-D index math reads clearest as written
    fn bigger_random_like_lp_is_consistent() {
        // A transportation-style LP with a known optimum of 150.
        let mut m = Model::new("transport", Sense::Minimize);
        let costs = [[2.0, 3.0, 1.0], [5.0, 4.0, 8.0]];
        let supply = [20.0, 30.0];
        let demand = [10.0, 25.0, 15.0];
        let mut vars = [[None; 3]; 2];
        for s in 0..2 {
            for d in 0..3 {
                vars[s][d] = Some(m.cont_var(format!("x{s}{d}"), 0.0, f64::INFINITY));
            }
        }
        for s in 0..2 {
            let e = LinExpr::weighted_sum((0..3).map(|d| (vars[s][d].unwrap(), 1.0)));
            m.add_con(format!("supply{s}"), e, ConOp::Le, supply[s]);
        }
        for d in 0..3 {
            let e = LinExpr::weighted_sum((0..2).map(|s| (vars[s][d].unwrap(), 1.0)));
            m.add_con(format!("demand{d}"), e, ConOp::Ge, demand[d]);
        }
        let obj = LinExpr::weighted_sum(
            (0..2).flat_map(|s| (0..3).map(move |d| (vars[s][d].unwrap(), costs[s][d]))),
        );
        m.set_objective(obj.clone());
        let r = solve_lp(&m, &cfg());
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(m.is_feasible(&r.values, 1e-6));
        assert!((r.objective - obj.eval(&r.values)).abs() < 1e-6);
        assert!((r.objective - 150.0).abs() < 1e-6, "objective was {}", r.objective);
    }
}
