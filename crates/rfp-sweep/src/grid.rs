//! The parameter grid: what a sweep runs, as data.
//!
//! A [`SweepGrid`] names the axes of a Monte-Carlo study — device shapes ×
//! utilisation targets × lifetime distributions × defragmentation policies ×
//! seeds — plus the fixed per-run knobs (modules per trace, escalation
//! engine, budgets). [`SweepGrid::plan`] expands the axes into the concrete
//! work list: one **cell** per (device, utilisation, lifetime, policy), one
//! **trace** per (device, utilisation, lifetime, seed) — deliberately
//! policy-independent, so every policy replays the *same* materialised trace
//! — and one **run** per (cell, seed).
//!
//! Grids are exchanged as `rfp-sweep-grid` v1 JSON documents (deterministic
//! writer, golden-file friendly):
//!
//! ```json
//! {
//!   "format": "rfp-sweep-grid",
//!   "version": 1,
//!   "name": "smoke",
//!   "devices": [ {"cols":12,"rows":2,"bram_every":0} ],
//!   "utilisations": [0.5,0.75],
//!   "lifetimes": [6],
//!   "policies": ["aware","oblivious","no_break"],
//!   "seeds": [1,2],
//!   "modules": 12,
//!   "checkpoint_every": 6,
//!   "engine": "combinatorial",
//!   "engine_time_limit": 5,
//!   "run_budget_seconds": 60
//! }
//! ```

use rfp_floorplan::jsonio::{escape, num, parse, JsonError, JsonValue, MAX_DEVICE_CELLS};
use rfp_runtime::DefragPolicy;
use rfp_workloads::DefragWorkloadSpec;
use std::fmt::Write as _;

/// Format tag of sweep-grid documents.
pub const GRID_FORMAT: &str = "rfp-sweep-grid";
/// Current schema version of the sweep-grid format.
pub const GRID_VERSION: u64 = 1;

/// Device family of one device-axis point: how the tile fabric is laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeviceFamily {
    /// Homogeneous columnar device (the paper's Virtex-style fabric) —
    /// the default, and what every pre-existing grid document means.
    #[default]
    Columnar,
    /// Heterogeneous fabric: BRAM columns are row-striped (no columnar
    /// partition exists) and a die boundary splits the device at
    /// mid-height (see [`DefragWorkloadSpec::hetero`]).
    Hetero,
}

impl DeviceFamily {
    /// Stable string id used in grid documents.
    pub fn id(&self) -> &'static str {
        match self {
            DeviceFamily::Columnar => "columnar",
            DeviceFamily::Hetero => "hetero",
        }
    }

    /// Parses a stable id back into a family.
    pub fn from_id(id: &str) -> Option<DeviceFamily> {
        match id {
            "columnar" => Some(DeviceFamily::Columnar),
            "hetero" => Some(DeviceFamily::Hetero),
            _ => None,
        }
    }
}

/// One point on the device axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceAxis {
    /// Device columns.
    pub cols: u32,
    /// Device rows.
    pub rows: u32,
    /// Every `bram_every`-th column is a BRAM column (0 = all-CLB).
    pub bram_every: u32,
    /// Fabric family of the device (columnar vs heterogeneous).
    pub family: DeviceFamily,
}

impl DeviceAxis {
    /// Stable label used in cell keys (`"16x3"`, `"16x3+bram4"`,
    /// `"16x3+bram4+hetero"`).
    pub fn label(&self) -> String {
        let mut label = format!("{}x{}", self.cols, self.rows);
        if self.bram_every > 0 {
            label.push_str(&format!("+bram{}", self.bram_every));
        }
        if self.family == DeviceFamily::Hetero {
            label.push_str("+hetero");
        }
        label
    }

    /// Total tiles on the device.
    pub fn tiles(&self) -> u64 {
        u64::from(self.cols) * u64::from(self.rows)
    }
}

/// The axes and fixed knobs of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Grid name (carried into the report).
    pub name: String,
    /// Device shapes to sweep.
    pub devices: Vec<DeviceAxis>,
    /// Target steady-state utilisations in `(0, 1]` (fraction of device
    /// tiles occupied by concurrently-running modules).
    pub utilisations: Vec<f64>,
    /// Mean module lifetimes (logical time units; see
    /// [`DefragWorkloadSpec::mean_lifetime`]).
    pub lifetimes: Vec<u64>,
    /// Defragmentation policies to compare.
    pub policies: Vec<DefragPolicy>,
    /// RNG seeds — one Monte-Carlo repetition per seed.
    pub seeds: Vec<u64>,
    /// Module instances per generated trace.
    pub modules: usize,
    /// Checkpoint cadence of generated traces (events per checkpoint;
    /// 0 disables all but the final checkpoint).
    pub checkpoint_every: usize,
    /// Registry engine used for escalation re-solves.
    pub engine: String,
    /// Wall-clock budget (seconds) per escalation re-solve.
    pub engine_time_limit: f64,
    /// Advisory wall-clock budget (seconds) per simulation run; runs that
    /// exceed it are flagged by the runner (stderr), never killed mid-run.
    pub run_budget_seconds: f64,
}

impl SweepGrid {
    /// The committed CI smoke grid: 2 devices × 2 utilisations × 1 lifetime
    /// × 3 policies × 2 seeds = 12 cells, 24 runs — small enough for a CI
    /// smoke job, wide enough to cover every policy on two device shapes.
    pub fn smoke() -> SweepGrid {
        SweepGrid {
            name: "smoke".to_string(),
            devices: vec![
                DeviceAxis { cols: 12, rows: 2, bram_every: 0, family: DeviceFamily::Columnar },
                DeviceAxis { cols: 16, rows: 3, bram_every: 0, family: DeviceFamily::Columnar },
            ],
            // 0.75 is the highest pressure at which the no-break policy can
            // still double-buffer every move on these devices — the committed
            // baseline pins its downtime at zero, so the smoke grid stays
            // inside that regime (perfbench's `online` workload replays
            // high-utilisation traces beyond it, where shadows are scarce).
            utilisations: vec![0.5, 0.75],
            lifetimes: vec![6],
            policies: DefragPolicy::ALL.to_vec(),
            seeds: vec![1, 2],
            modules: 12,
            checkpoint_every: 6,
            engine: "combinatorial".to_string(),
            engine_time_limit: 5.0,
            run_budget_seconds: 60.0,
        }
    }

    /// Structural validation: every axis non-empty, utilisations in
    /// `(0, 1]`, devices of 1 to [`MAX_DEVICE_CELLS`] tiles, positive module
    /// count, finite positive time budgets. Returns human-readable issues.
    pub fn validate(&self) -> Vec<String> {
        let mut issues = Vec::new();
        let mut axis = |name: &str, empty: bool| {
            if empty {
                issues.push(format!("axis `{name}` is empty"));
            }
        };
        axis("devices", self.devices.is_empty());
        axis("utilisations", self.utilisations.is_empty());
        axis("lifetimes", self.lifetimes.is_empty());
        axis("policies", self.policies.is_empty());
        axis("seeds", self.seeds.is_empty());
        for &u in &self.utilisations {
            if !(u > 0.0 && u <= 1.0) {
                issues.push(format!("utilisation {} outside (0, 1]", num(u)));
            }
        }
        for d in &self.devices {
            if d.cols == 0 || d.rows == 0 {
                issues.push(format!("degenerate device {}", d.label()));
            } else if d.tiles() > MAX_DEVICE_CELLS {
                issues.push(format!(
                    "implausible device {}: more than {MAX_DEVICE_CELLS} tiles",
                    d.label()
                ));
            }
        }
        if self.modules == 0 {
            issues.push("modules must be positive".to_string());
        }
        // A limit that is not finite and positive would mean "no deadline"
        // to the engine, or never flag a run as over budget.
        for (name, secs) in [
            ("engine_time_limit", self.engine_time_limit),
            ("run_budget_seconds", self.run_budget_seconds),
        ] {
            if !(secs.is_finite() && secs > 0.0) {
                issues.push(format!("`{name}` {secs} is not positive finite seconds"));
            }
        }
        issues
    }

    /// Expands the axes into the concrete work list. Ordering is the
    /// deterministic row-major nesting of the axes (devices → utilisations →
    /// lifetimes → policies for cells, seeds innermost for runs), which is
    /// what makes the merged report independent of execution order.
    pub fn plan(&self) -> GridPlan {
        let mut cells = Vec::new();
        let mut traces = Vec::new();
        let mut runs = Vec::new();
        for &device in &self.devices {
            for &utilisation in &self.utilisations {
                for &mean_lifetime in &self.lifetimes {
                    // One trace per seed, shared by every policy cell.
                    let trace_base = traces.len();
                    for &seed in &self.seeds {
                        traces.push(TraceSpec {
                            device,
                            utilisation,
                            mean_lifetime,
                            seed,
                            modules: self.modules,
                            checkpoint_every: self.checkpoint_every,
                        });
                    }
                    for &policy in &self.policies {
                        let cell = cells.len();
                        cells.push(CellKey {
                            device: device.label(),
                            utilisation,
                            mean_lifetime,
                            policy,
                        });
                        for (s, &seed) in self.seeds.iter().enumerate() {
                            runs.push(RunSpec {
                                index: runs.len(),
                                cell,
                                trace: trace_base + s,
                                policy,
                                seed,
                            });
                        }
                    }
                }
            }
        }
        GridPlan { cells, traces, runs }
    }
}

/// Identity of one aggregation cell (everything but the seed axis).
#[derive(Debug, Clone, PartialEq)]
pub struct CellKey {
    /// Device label ([`DeviceAxis::label`]).
    pub device: String,
    /// Target utilisation.
    pub utilisation: f64,
    /// Mean module lifetime.
    pub mean_lifetime: u64,
    /// Defragmentation policy.
    pub policy: DefragPolicy,
}

/// One trace to materialise: a seeded workload at a grid point, shared by
/// every policy cell of that point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpec {
    /// Device shape.
    pub device: DeviceAxis,
    /// Target utilisation.
    pub utilisation: f64,
    /// Mean module lifetime.
    pub mean_lifetime: u64,
    /// RNG seed.
    pub seed: u64,
    /// Module instances in the trace.
    pub modules: usize,
    /// Checkpoint cadence.
    pub checkpoint_every: usize,
}

impl TraceSpec {
    /// Maps the grid point onto a [`DefragWorkloadSpec`].
    ///
    /// Arrivals are spaced 1-2 time units apart (mean 1.5), so roughly
    /// `mean_lifetime / 1.5` modules run concurrently in steady state.
    /// Hitting a target utilisation `u` therefore needs a mean module size
    /// of `u × device_tiles / concurrent`; the generator draws uniformly,
    /// so the min/max bounds are set to ±40 % around that mean.
    pub fn workload(&self) -> DefragWorkloadSpec {
        let concurrent = (self.mean_lifetime as f64 / 1.5).max(1.0);
        let mean_tiles = (self.utilisation * self.device.tiles() as f64 / concurrent).max(1.0);
        let min_tiles = ((mean_tiles * 0.6).round() as u32).max(1);
        let max_tiles = ((mean_tiles * 1.4).round() as u32).max(min_tiles);
        DefragWorkloadSpec {
            seed: self.seed,
            cols: self.device.cols,
            rows: self.device.rows,
            bram_every: self.device.bram_every,
            n_modules: self.modules,
            min_tiles,
            max_tiles: max_tiles.min(self.device.tiles().min(u64::from(u32::MAX)) as u32),
            mean_lifetime: self.mean_lifetime,
            checkpoint_every: self.checkpoint_every,
            hetero: self.device.family == DeviceFamily::Hetero,
        }
    }
}

/// The expanded work list of a grid ([`SweepGrid::plan`]).
#[derive(Debug, Clone, PartialEq)]
pub struct GridPlan {
    /// Aggregation cells, in deterministic axis order.
    pub cells: Vec<CellKey>,
    /// Traces to materialise (policy-independent).
    pub traces: Vec<TraceSpec>,
    /// Simulation runs; `runs[i].index == i`.
    pub runs: Vec<RunSpec>,
}

/// One simulation to execute: a trace replayed under a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// Position in the run list (the deterministic merge key).
    pub index: usize,
    /// Cell this run's metrics aggregate into.
    pub cell: usize,
    /// Trace to replay.
    pub trace: usize,
    /// Policy to replay it under.
    pub policy: DefragPolicy,
    /// Seed of the trace (carried for labelling).
    pub seed: u64,
}

// ---------------------------------------------------------------------------
// `rfp-sweep-grid` v1 writer / reader.
// ---------------------------------------------------------------------------

/// Renders a grid as an `rfp-sweep-grid` v1 JSON document (deterministic,
/// trailing newline — usable as a golden file).
pub fn write_grid(grid: &SweepGrid) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"format\": \"{GRID_FORMAT}\",");
    let _ = writeln!(out, "  \"version\": {GRID_VERSION},");
    let _ = writeln!(out, "  \"name\": \"{}\",", escape(&grid.name));
    out.push_str("  \"devices\": [");
    for (i, d) in grid.devices.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // `family` is emitted only when non-default, so every pre-existing
        // (columnar) grid document stays byte-identical.
        let family = match d.family {
            DeviceFamily::Columnar => String::new(),
            family => format!(",\"family\":\"{}\"", family.id()),
        };
        let _ = write!(
            out,
            "\n    {{\"cols\":{},\"rows\":{},\"bram_every\":{}{family}}}",
            d.cols, d.rows, d.bram_every
        );
    }
    out.push_str(if grid.devices.is_empty() { "],\n" } else { "\n  ],\n" });
    let floats = |xs: &[f64]| xs.iter().map(|&x| num(x)).collect::<Vec<_>>().join(",");
    let ints = |xs: &[u64]| xs.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
    let _ = writeln!(out, "  \"utilisations\": [{}],", floats(&grid.utilisations));
    let _ = writeln!(out, "  \"lifetimes\": [{}],", ints(&grid.lifetimes));
    let policies =
        grid.policies.iter().map(|p| format!("\"{}\"", p.id())).collect::<Vec<_>>().join(",");
    let _ = writeln!(out, "  \"policies\": [{policies}],");
    let _ = writeln!(out, "  \"seeds\": [{}],", ints(&grid.seeds));
    let _ = writeln!(out, "  \"modules\": {},", grid.modules);
    let _ = writeln!(out, "  \"checkpoint_every\": {},", grid.checkpoint_every);
    let _ = writeln!(out, "  \"engine\": \"{}\",", escape(&grid.engine));
    let _ = writeln!(out, "  \"engine_time_limit\": {},", num(grid.engine_time_limit));
    let _ = writeln!(out, "  \"run_budget_seconds\": {}", num(grid.run_budget_seconds));
    out.push_str("}\n");
    out
}

/// Parses an `rfp-sweep-grid` v1 document and validates it structurally.
pub fn read_grid(input: &str) -> Result<SweepGrid, JsonError> {
    let doc = parse(input)?;
    let tag = doc.field("format")?.as_str()?;
    if tag != GRID_FORMAT {
        return Err(JsonError(format!("expected format `{GRID_FORMAT}`, found `{tag}`")));
    }
    let version = doc.field("version")?.as_u64()?;
    if version != GRID_VERSION {
        return Err(JsonError(format!(
            "unsupported {GRID_FORMAT} version {version} (this build reads version \
             {GRID_VERSION})"
        )));
    }
    let mut devices = Vec::new();
    for d in doc.field("devices")?.as_arr()? {
        // `family` is optional: documents written before the device-family
        // axis existed (and all columnar entries since) omit it.
        let family = match d.get("family") {
            Some(v) => {
                let id = v.as_str()?;
                DeviceFamily::from_id(id)
                    .ok_or_else(|| JsonError(format!("unknown device family `{id}`")))?
            }
            None => DeviceFamily::Columnar,
        };
        devices.push(DeviceAxis {
            cols: d.field("cols")?.as_u32()?,
            rows: d.field("rows")?.as_u32()?,
            bram_every: d.field("bram_every")?.as_u32()?,
            family,
        });
    }
    let f64s = |v: &JsonValue| -> Result<Vec<f64>, JsonError> {
        v.as_arr()?.iter().map(|x| x.as_f64()).collect()
    };
    let u64s = |v: &JsonValue| -> Result<Vec<u64>, JsonError> {
        v.as_arr()?.iter().map(|x| x.as_u64()).collect()
    };
    let mut policies = Vec::new();
    for p in doc.field("policies")?.as_arr()? {
        let id = p.as_str()?;
        policies.push(
            DefragPolicy::from_id(id).ok_or_else(|| JsonError(format!("unknown policy `{id}`")))?,
        );
    }
    let grid = SweepGrid {
        name: doc.field("name")?.as_str()?.to_string(),
        devices,
        utilisations: f64s(doc.field("utilisations")?)?,
        lifetimes: u64s(doc.field("lifetimes")?)?,
        policies,
        seeds: u64s(doc.field("seeds")?)?,
        modules: doc.field("modules")?.as_u64()? as usize,
        checkpoint_every: doc.field("checkpoint_every")?.as_u64()? as usize,
        engine: doc.field("engine")?.as_str()?.to_string(),
        engine_time_limit: doc.field("engine_time_limit")?.as_f64()?,
        run_budget_seconds: doc.field("run_budget_seconds")?.as_f64()?,
    };
    let issues = grid.validate();
    if !issues.is_empty() {
        return Err(JsonError(format!("invalid grid: {}", issues.join("; "))));
    }
    Ok(grid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_round_trip_byte_stable() {
        let grid = SweepGrid::smoke();
        let doc = write_grid(&grid);
        let back = read_grid(&doc).unwrap();
        assert_eq!(back, grid);
        assert_eq!(write_grid(&back), doc);
        // Seeds are u64s and round-trip exactly, past 2^53 too.
        let big = SweepGrid { seeds: vec![(1 << 53) + 1, u64::MAX], ..grid };
        assert_eq!(read_grid(&write_grid(&big)).unwrap(), big);
        // One past u64::MAX is rejected, not saturated.
        let over = write_grid(&big).replace("18446744073709551615", "18446744073709551616");
        let e = read_grid(&over).unwrap_err();
        assert!(e.0.contains("expected a non-negative integer"), "{e}");
    }

    #[test]
    fn the_smoke_plan_shares_traces_across_policies() {
        let grid = SweepGrid::smoke();
        assert!(grid.validate().is_empty());
        let plan = grid.plan();
        // 2 devices x 2 utilisations x 1 lifetime x 3 policies, 2 seeds each.
        assert_eq!(plan.cells.len(), 2 * 2 * 3);
        assert_eq!(plan.runs.len(), plan.cells.len() * 2);
        assert_eq!(plan.traces.len(), 2 * 2 * 2, "traces must be policy-independent");
        for (i, run) in plan.runs.iter().enumerate() {
            assert_eq!(run.index, i);
            assert_eq!(plan.cells[run.cell].policy, run.policy);
            assert_eq!(plan.traces[run.trace].seed, run.seed);
        }
        // All three policies of one grid point replay the same trace.
        let first_point: Vec<_> = plan.runs.iter().filter(|r| r.seed == 1).take(3).collect();
        assert!(first_point.windows(2).all(|w| w[0].trace == w[1].trace));
    }

    #[test]
    fn utilisation_scales_module_sizes() {
        let base = TraceSpec {
            device: DeviceAxis { cols: 16, rows: 3, bram_every: 0, family: DeviceFamily::Columnar },
            utilisation: 0.5,
            mean_lifetime: 6,
            seed: 1,
            modules: 12,
            checkpoint_every: 6,
        };
        let low = base.workload();
        let high = TraceSpec { utilisation: 0.9, ..base }.workload();
        assert!(high.min_tiles >= low.min_tiles);
        assert!(high.max_tiles > low.max_tiles, "{low:?} vs {high:?}");
        assert!(u64::from(high.max_tiles) <= base.device.tiles());
        // The workload itself stays reproducible.
        assert_eq!(low.generate(), low.generate());
    }

    #[test]
    fn hetero_device_entries_round_trip_and_label_distinctly() {
        let mut grid = SweepGrid::smoke();
        grid.devices.push(DeviceAxis {
            cols: 16,
            rows: 4,
            bram_every: 4,
            family: DeviceFamily::Hetero,
        });
        let doc = write_grid(&grid);
        assert!(doc.contains("\"family\":\"hetero\""));
        // Columnar entries never gain the field, so pre-existing documents
        // stay byte-identical.
        assert_eq!(doc.matches("\"family\"").count(), 1);
        let back = read_grid(&doc).unwrap();
        assert_eq!(back, grid);
        assert_eq!(write_grid(&back), doc);
        assert_eq!(back.devices[2].label(), "16x4+bram4+hetero");
        // The hetero flag flows into the materialised workloads.
        let plan = back.plan();
        let hetero_traces: Vec<_> =
            plan.traces.iter().filter(|t| t.device.family == DeviceFamily::Hetero).collect();
        assert!(!hetero_traces.is_empty());
        for t in hetero_traces {
            let w = t.workload();
            assert!(w.hetero);
            let scenario = w.generate();
            assert!(!scenario.partition.is_columnar_legacy());
        }
        let bad = doc.replace("\"family\":\"hetero\"", "\"family\":\"psychic\"");
        assert!(read_grid(&bad).unwrap_err().0.contains("unknown device family"));
    }

    #[test]
    fn malformed_grids_are_rejected() {
        let doc = write_grid(&SweepGrid::smoke());
        let wrong = doc.replace(GRID_FORMAT, "rfp-problem");
        assert!(read_grid(&wrong).unwrap_err().0.contains("expected format"));
        let future = doc.replace("\"version\": 1", "\"version\": 9");
        assert!(read_grid(&future).unwrap_err().0.contains("version 9"));
        let bad_policy = doc.replace("\"oblivious\"", "\"psychic\"");
        assert!(read_grid(&bad_policy).unwrap_err().0.contains("unknown policy `psychic`"));
        let no_seeds = doc.replace("\"seeds\": [1,2]", "\"seeds\": []");
        assert!(read_grid(&no_seeds).unwrap_err().0.contains("`seeds` is empty"));
        let bad_util = doc.replace("[0.5,0.75]", "[0.5,1.75]");
        assert!(read_grid(&bad_util).unwrap_err().0.contains("outside (0, 1]"));
        // Rejected before any device is built: 2^32 tiles.
        let huge = doc.replace("\"cols\":12,\"rows\":2", "\"cols\":65536,\"rows\":65536");
        assert!(read_grid(&huge).unwrap_err().0.contains("implausible device 65536x65536"));
        let zero_limit = doc.replace("\"engine_time_limit\": 5", "\"engine_time_limit\": 0");
        assert!(read_grid(&zero_limit).unwrap_err().0.contains("`engine_time_limit` 0 is not"));
        let negative_budget =
            doc.replace("\"run_budget_seconds\": 60", "\"run_budget_seconds\": -1");
        assert!(read_grid(&negative_budget)
            .unwrap_err()
            .0
            .contains("`run_budget_seconds` -1 is not"));
        // JSON has no NaN or infinity; a grid built in code can hold them.
        let nan_limit = SweepGrid { engine_time_limit: f64::NAN, ..SweepGrid::smoke() };
        assert_eq!(
            nan_limit.validate(),
            ["`engine_time_limit` NaN is not positive finite seconds"]
        );
        let infinite_budget = SweepGrid { run_budget_seconds: f64::INFINITY, ..SweepGrid::smoke() };
        assert_eq!(
            infinite_budget.validate(),
            ["`run_budget_seconds` inf is not positive finite seconds"]
        );
    }
}
