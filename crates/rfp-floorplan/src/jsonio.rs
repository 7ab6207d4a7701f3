//! Versioned JSON interchange for problems and floorplans.
//!
//! Both directions of two small, versioned formats, built on the
//! workspace's one JSON codec, `rfp_trace::json` (re-exported here as
//! [`JsonValue`], [`JsonError`], [`parse`], [`escape`] and [`num`]). The
//! codec caps nesting depth, so a hostile document is an error rather
//! than a stack overflow, and reads integers as exact `u64`s:
//!
//! * **`rfp-problem` v1** — a complete [`FloorplanProblem`] including the
//!   device description (tile types, per-column type layout, forbidden
//!   areas), the regions, connections, relocation requests and objective
//!   weights. Reading rebuilds the device through the public `rfp-device`
//!   constructors and re-runs the columnar partitioning, so a written
//!   problem round-trips to an *equal* [`FloorplanProblem`].
//! * **`rfp-floorplan` v1** — a [`Floorplan`]: one rectangle per region plus
//!   the reserved free-compatible areas.
//!
//! The writer is deterministic (stable field order, stable number
//! formatting), which makes the emitted documents usable as golden files:
//! `write(read(doc)) == write(problem)` byte for byte.
//!
//! The `rfp` CLI (`rfp solve / validate / engines / convert`) is a thin
//! shell around this module and [`crate::engine`].

use crate::placement::{FcPlacement, Floorplan};
use crate::problem::{
    Connection, FloorplanProblem, ObjectiveWeights, RegionSpec, RelocationMode, RelocationRequest,
};
use rfp_device::{
    columnar_partition, fabric_partition_with_boundaries, Device, FabricPartition, ForbiddenArea,
    Rect, ResourceVec, TileGrid, TileType, TileTypeId, TileTypeRegistry,
};
pub use rfp_trace::json::{escape, num, parse, JsonError, JsonValue};
use std::collections::BTreeMap;

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

/// Format tag of problem documents.
pub const PROBLEM_FORMAT: &str = "rfp-problem";
/// Format tag of floorplan documents.
pub const FLOORPLAN_FORMAT: &str = "rfp-floorplan";
/// Base schema version of both formats (columnar devices).
pub const FORMAT_VERSION: u64 = 1;
/// Schema version of documents whose device section carries a per-cell tile
/// grid (`cells`) and/or die boundaries — heterogeneous fabrics. Version-1
/// documents keep reading unchanged, and legacy columnar devices keep
/// *writing* version 1 byte-for-byte.
pub const FORMAT_VERSION_V2: u64 = 2;

fn rect_json(r: &Rect) -> String {
    format!("{{\"x\":{},\"y\":{},\"w\":{},\"h\":{}}}", r.x, r.y, r.w, r.h)
}

fn rect_from_json(v: &JsonValue) -> Result<Rect, JsonError> {
    let x = v.field("x")?.as_u32()?;
    let y = v.field("y")?.as_u32()?;
    let w = v.field("w")?.as_u32()?;
    let h = v.field("h")?.as_u32()?;
    if x < 1 || y < 1 || w < 1 || h < 1 {
        return err(format!("invalid rectangle ({x},{y},{w},{h}): 1-based, non-empty"));
    }
    Ok(Rect::new(x, y, w, h))
}

// ---------------------------------------------------------------------------
// Shared device/region sections (used by the problem format here and by the
// `rfp-scenario` format of `rfp-runtime`).
// ---------------------------------------------------------------------------

/// The tile-type table of a device section: which registry indices are
/// emitted, and at which array position. Built by [`DeviceSection::new`] from
/// the partition plus every region/module requirement that must remain
/// expressible — requirement-only types (a demand no column can serve; the
/// problem is invalid but still writable) are emitted too.
#[derive(Debug, Clone)]
pub struct DeviceSection {
    order: Vec<usize>,
    pos_of: BTreeMap<usize, usize>,
}

impl DeviceSection {
    /// Builds the emission table for a partition and the requirements of
    /// `regions` (tile types referenced only by requirements are kept).
    pub fn new(part: &FabricPartition, regions: &[RegionSpec]) -> Self {
        let mut present: BTreeMap<usize, ()> = BTreeMap::new();
        if let Some(cp) = part.columnar() {
            for c in 1..=cp.cols {
                if let Some(ty) = cp.column_type(c) {
                    present.insert(ty.index(), ());
                }
            }
        } else {
            for &ty in part.cell_types() {
                present.insert(ty.index(), ());
            }
        }
        for region in regions {
            for &(ty, _) in region.tile_req() {
                present.insert(ty.index(), ());
            }
        }
        let order: Vec<usize> = present.keys().copied().collect();
        let pos_of: BTreeMap<usize, usize> =
            order.iter().enumerate().map(|(pos, &idx)| (idx, pos)).collect();
        DeviceSection { order, pos_of }
    }

    /// The registry indices emitted, in array order — the shared vocabulary
    /// of every serialised device section (JSON and binary alike).
    pub fn type_indices(&self) -> &[usize] {
        &self.order
    }

    /// Array position of a registry index (`None` for a type the section
    /// does not emit).
    pub fn position(&self, type_index: usize) -> Option<usize> {
        self.pos_of.get(&type_index).copied()
    }

    /// The canonical serialised name of a tile type: `CLB`/`BRAM`/`DSP` for
    /// single-resource types, `T{idx}` otherwise. Shared by the JSON and
    /// binary device writers so both emit identical tables.
    pub fn type_name(part: &FabricPartition, idx: usize) -> String {
        let res = part.resources_per_tile(TileTypeId(idx as u16));
        let [clb, bram, dsp, other] = res.0;
        match (clb > 0, bram > 0, dsp > 0, other > 0) {
            (true, false, false, false) => "CLB".to_string(),
            (false, true, false, false) => "BRAM".to_string(),
            (false, false, true, false) => "DSP".to_string(),
            _ => format!("T{idx}"),
        }
    }

    /// Renders the `"device": {...}` object (two-space base indentation,
    /// no trailing separator).
    ///
    /// A legacy columnar fabric renders the exact version-1 section (a
    /// `columns` array, no `die_boundaries` key), keeping pre-existing
    /// goldens byte-identical. Any other fabric renders the version-2 shape:
    /// `columns` when a columnar view exists, a row-major `cells` grid
    /// otherwise, plus a trailing `die_boundaries` array.
    pub fn write_device(&self, part: &FabricPartition) -> String {
        let type_name = |idx: usize| -> String { DeviceSection::type_name(part, idx) };
        let mut out = String::new();
        out.push_str("  \"device\": {\n");
        out.push_str(&format!("    \"name\": \"{}\",\n", escape(&part.device_name)));
        out.push_str(&format!("    \"rows\": {},\n", part.rows));
        out.push_str("    \"tile_types\": [\n");
        for (i, &idx) in self.order.iter().enumerate() {
            let res = part.resources_per_tile(TileTypeId(idx as u16));
            let [clb, bram, dsp, other] = res.0;
            out.push_str(&format!(
                "      {{\"name\":\"{}\",\"resources\":[{clb},{bram},{dsp},{other}],\"frames\":{}}}{}\n",
                escape(&type_name(idx)),
                part.frames_per_tile(TileTypeId(idx as u16)),
                if i + 1 < self.order.len() { "," } else { "" }
            ));
        }
        out.push_str("    ],\n");
        match part.columnar() {
            Some(cp) => {
                let columns: Vec<String> = (1..=cp.cols)
                    .map(|c| {
                        self.pos_of[&cp.column_type(c).expect("column inside device").index()]
                            .to_string()
                    })
                    .collect();
                out.push_str(&format!("    \"columns\": [{}],\n", columns.join(",")));
            }
            None => {
                out.push_str("    \"cells\": [\n");
                for row in 1..=part.rows {
                    let items: Vec<String> = (1..=part.cols)
                        .map(|c| {
                            self.pos_of
                                [&part.tile_type_at(c, row).expect("cell inside device").index()]
                                .to_string()
                        })
                        .collect();
                    out.push_str(&format!(
                        "      [{}]{}\n",
                        items.join(","),
                        if row < part.rows { "," } else { "" }
                    ));
                }
                out.push_str("    ],\n");
            }
        }
        out.push_str("    \"forbidden\": [");
        for (i, fa) in part.forbidden.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n      {{\"name\":\"{}\",\"rect\":{}}}",
                escape(&fa.name),
                rect_json(&fa.rect)
            ));
        }
        if !part.forbidden.is_empty() {
            out.push_str("\n    ");
        }
        if part.is_columnar_legacy() {
            out.push_str("]\n");
        } else {
            let db: Vec<String> = part.die_boundaries.iter().map(|b| b.to_string()).collect();
            out.push_str("],\n");
            out.push_str(&format!("    \"die_boundaries\": [{}]\n", db.join(",")));
        }
        out.push_str("  }");
        out
    }

    /// Renders one region/module object: `{"name":...,"req":[[type,tiles]...]}`.
    pub fn write_region(&self, region: &RegionSpec) -> String {
        let req: Vec<String> = region
            .tile_req()
            .iter()
            .map(|&(ty, n)| format!("[{},{n}]", self.pos_of[&ty.index()]))
            .collect();
        format!("{{\"name\":\"{}\",\"req\":[{}]}}", escape(&region.name), req.join(","))
    }
}

/// The largest device grid (rows x columns, in tiles) a document may
/// describe. Far above any real fabric, yet small enough that rebuilding the
/// grid cannot exhaust memory: a columnar document states its row count as a
/// bare integer, so its size is not bounded by the document's length.
pub const MAX_DEVICE_CELLS: u64 = 1 << 24;

/// The raw fields of a parsed device section, decoded but not yet rebuilt.
///
/// Both the JSON reader ([`read_device`]) and the binary reader
/// ([`crate::binio::read_device_bin`]) decode into this struct and share
/// [`DeviceSpec::build`], so the two formats rebuild byte-for-byte equal
/// partitions from equal content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceSpec {
    /// Device name.
    pub name: String,
    /// Device rows.
    pub rows: u32,
    /// Tile types in emission order: `(name, [clb, bram, dsp, other], frames)`.
    pub tile_types: Vec<(String, [u32; 4], u32)>,
    /// Per-column positions into `tile_types` (columnar devices; empty when
    /// `cells` is used instead).
    pub columns: Vec<usize>,
    /// Row-major per-cell positions into `tile_types` (heterogeneous
    /// fabrics; empty when `columns` is used instead).
    pub cells: Vec<usize>,
    /// Forbidden areas.
    pub forbidden: Vec<(String, Rect)>,
    /// Die-boundary rows (empty in version-1 documents).
    pub die_boundaries: Vec<u32>,
}

impl DeviceSpec {
    /// Rebuilds the partition through the public `rfp-device` constructors
    /// plus the tile-type ids at each emitted-array position (needed to
    /// resolve region requirements).
    ///
    /// A columnar spec without die boundaries rebuilds through
    /// [`columnar_partition`] exactly as version 1 always has (so version-1
    /// documents read as legacy columnar fabrics); anything else rebuilds
    /// through [`fabric_partition_with_boundaries`].
    pub fn build(self) -> Result<(FabricPartition, Vec<TileTypeId>), String> {
        let mut registry = TileTypeRegistry::new();
        let mut ids: Vec<TileTypeId> = Vec::new();
        for (i, (tname, resources, frames)) in self.tile_types.into_iter().enumerate() {
            // A per-entry configuration signature keeps ids aligned with the
            // array positions even when two entries share resources and
            // frames (Definition .1 would otherwise merge them).
            let tile = TileType {
                name: tname.clone(),
                resources: ResourceVec(resources),
                frames,
                config_signature: i as u32,
            };
            let id = registry.register(tile).map_err(|e| format!("tile type `{tname}`: {e}"))?;
            ids.push(id);
        }

        let per_cell = !self.cells.is_empty();
        let cols = if per_cell {
            if self.rows == 0 || !self.cells.len().is_multiple_of(self.rows as usize) {
                return Err(format!(
                    "cell grid of {} entries does not divide into {} rows",
                    self.cells.len(),
                    self.rows
                ));
            }
            (self.cells.len() / self.rows as usize) as u32
        } else {
            if self.columns.is_empty() {
                return Err("device has no columns".to_string());
            }
            self.columns.len() as u32
        };
        if u64::from(cols) * u64::from(self.rows) > MAX_DEVICE_CELLS {
            return Err(format!(
                "implausible device of {cols} columns x {} rows: more than {MAX_DEVICE_CELLS} tiles",
                self.rows
            ));
        }
        let mut grid = TileGrid::new(cols, self.rows).map_err(|e| format!("invalid grid: {e}"))?;
        if per_cell {
            for (i, &pos) in self.cells.iter().enumerate() {
                let row = (i / cols as usize) as u32 + 1;
                let col = (i % cols as usize) as u32 + 1;
                let ty = *ids
                    .get(pos)
                    .ok_or_else(|| format!("cell ({col},{row}): unknown tile type {pos}"))?;
                grid.set(col, row, Some(ty)).map_err(|e| format!("cell ({col},{row}): {e}"))?;
            }
        } else {
            for (c, &pos) in self.columns.iter().enumerate() {
                let ty = *ids
                    .get(pos)
                    .ok_or_else(|| format!("column {}: unknown tile type {pos}", c + 1))?;
                grid.fill_column(c as u32 + 1, ty).map_err(|e| format!("column {}: {e}", c + 1))?;
            }
        }

        let forbidden: Vec<ForbiddenArea> = self
            .forbidden
            .into_iter()
            .map(|(fname, rect)| ForbiddenArea::new(fname, rect))
            .collect();

        let dev = Device::new(self.name, registry, grid, forbidden)
            .map_err(|e| format!("invalid device: {e}"))?;
        let partition: FabricPartition = if per_cell || !self.die_boundaries.is_empty() {
            fabric_partition_with_boundaries(&dev, &self.die_boundaries)
                .map_err(|e| format!("invalid fabric: {e}"))?
        } else {
            columnar_partition(&dev).map_err(|e| format!("device is not columnar: {e}"))?.into()
        };
        Ok((partition, ids))
    }
}

/// Parses a `"device"` object back into a partition plus the tile-type ids at
/// each emitted-array position (needed to resolve region requirements).
pub fn read_device(device: &JsonValue) -> Result<(FabricPartition, Vec<TileTypeId>), JsonError> {
    let name = device.field("name")?.as_str()?.to_string();
    let rows = device.field("rows")?.as_u32()?;
    let mut tile_types = Vec::new();
    for t in device.field("tile_types")?.as_arr()? {
        let tname = t.field("name")?.as_str()?.to_string();
        let res = t.field("resources")?.as_arr()?;
        if res.len() != 4 {
            return err(format!("tile type `{tname}`: `resources` must have 4 entries"));
        }
        let mut v = [0u32; 4];
        for (slot, item) in v.iter_mut().zip(res) {
            *slot = item.as_u32()?;
        }
        let frames = t.field("frames")?.as_u32()?;
        tile_types.push((tname, v, frames));
    }

    let mut columns = Vec::new();
    let mut cells = Vec::new();
    match (device.get("columns"), device.get("cells")) {
        (Some(cols), _) => {
            for col in cols.as_arr()? {
                columns.push(col.as_u64()? as usize);
            }
        }
        (None, Some(grid)) => {
            let grid_rows = grid.as_arr()?;
            if grid_rows.len() != rows as usize {
                return err(format!(
                    "`cells` has {} rows, device declares {rows}",
                    grid_rows.len()
                ));
            }
            let mut width = None;
            for row in grid_rows {
                let row = row.as_arr()?;
                match width {
                    None => width = Some(row.len()),
                    Some(w) if w != row.len() => {
                        return err("ragged `cells` rows".to_string());
                    }
                    Some(_) => {}
                }
                for cell in row {
                    cells.push(cell.as_u64()? as usize);
                }
            }
        }
        (None, None) => return err("missing field `columns` (or `cells`)".to_string()),
    }

    let mut forbidden = Vec::new();
    for fa in device.field("forbidden")?.as_arr()? {
        let fname = fa.field("name")?.as_str()?.to_string();
        forbidden.push((fname, rect_from_json(fa.field("rect")?)?));
    }

    let mut die_boundaries = Vec::new();
    if let Some(db) = device.get("die_boundaries") {
        for b in db.as_arr()? {
            die_boundaries.push(b.as_u32()?);
        }
    }

    DeviceSpec { name, rows, tile_types, columns, cells, forbidden, die_boundaries }
        .build()
        .map_err(JsonError)
}

/// Parses one region/module object written by [`DeviceSection::write_region`].
pub fn read_region(region: &JsonValue, ids: &[TileTypeId]) -> Result<RegionSpec, JsonError> {
    let rname = region.field("name")?.as_str()?.to_string();
    let mut req = Vec::new();
    for pair in region.field("req")?.as_arr()? {
        let pair = pair.as_arr()?;
        if pair.len() != 2 {
            return err(format!("region `{rname}`: requirement entries are [type, tiles]"));
        }
        let pos = pair[0].as_u64()? as usize;
        let tiles = pair[1].as_u32()?;
        let ty = *ids
            .get(pos)
            .ok_or_else(|| JsonError(format!("region `{rname}`: unknown tile type {pos}")))?;
        req.push((ty, tiles));
    }
    Ok(RegionSpec::new(rname, req))
}

// ---------------------------------------------------------------------------
// Problem writer.
// ---------------------------------------------------------------------------

/// Renders a problem as an `rfp-problem` v1 JSON document (deterministic,
/// human-readable, trailing newline).
pub fn write_problem(problem: &FloorplanProblem) -> String {
    let part = &problem.partition;
    let section = DeviceSection::new(part, &problem.regions);

    let version = if part.is_columnar_legacy() { FORMAT_VERSION } else { FORMAT_VERSION_V2 };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"format\": \"{PROBLEM_FORMAT}\",\n"));
    out.push_str(&format!("  \"version\": {version},\n"));

    // Device.
    out.push_str(&section.write_device(part));
    out.push_str(",\n");

    // Regions.
    out.push_str("  \"regions\": [\n");
    for (i, region) in problem.regions.iter().enumerate() {
        out.push_str(&format!(
            "    {}{}\n",
            section.write_region(region),
            if i + 1 < problem.regions.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");

    // Connections.
    out.push_str("  \"connections\": [");
    for (i, c) in problem.connections.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"a\":{},\"b\":{},\"weight\":{}}}",
            c.a,
            c.b,
            num(c.weight)
        ));
    }
    if !problem.connections.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");

    // Relocation requests.
    out.push_str("  \"relocation\": [");
    for (i, r) in problem.relocation.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mode = match r.mode {
            RelocationMode::Constraint => "\"mode\":\"constraint\"".to_string(),
            RelocationMode::Metric { weight } => {
                format!("\"mode\":\"metric\",\"weight\":{}", num(weight))
            }
        };
        out.push_str(&format!("\n    {{\"region\":{},\"count\":{},{mode}}}", r.region, r.count));
    }
    if !problem.relocation.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");

    // Objective weights.
    let w = &problem.weights;
    out.push_str(&format!(
        "  \"weights\": {{\"wirelength\":{},\"perimeter\":{},\"resources\":{},\"relocation\":{}}}\n",
        num(w.wirelength),
        num(w.perimeter),
        num(w.resources),
        num(w.relocation)
    ));
    out.push_str("}\n");
    out
}

// ---------------------------------------------------------------------------
// Problem reader.
// ---------------------------------------------------------------------------

fn check_header(doc: &JsonValue, format: &str) -> Result<(), JsonError> {
    let tag = doc.field("format")?.as_str()?;
    if tag != format {
        return err(format!("expected format `{format}`, found `{tag}`"));
    }
    let version = doc.field("version")?.as_u64()?;
    if version != FORMAT_VERSION && version != FORMAT_VERSION_V2 {
        return err(format!(
            "unsupported {format} version {version} (this build reads versions \
             {FORMAT_VERSION} and {FORMAT_VERSION_V2})"
        ));
    }
    Ok(())
}

/// Parses an `rfp-problem` v1 document back into a [`FloorplanProblem`].
///
/// The device is rebuilt through the public `rfp-device` constructors and
/// re-partitioned, so the result is structurally identical to the problem
/// the document was written from. The problem is *not* semantically
/// validated here; call [`FloorplanProblem::validate`] before solving.
pub fn read_problem(input: &str) -> Result<FloorplanProblem, JsonError> {
    let doc = parse(input)?;
    read_problem_value(&doc)
}

/// Parses an already-parsed `rfp-problem` v1 value into a
/// [`FloorplanProblem`] — the entry point for documents that *embed* a
/// problem (e.g. the `problem` field of an `rfp serve` submit line), where
/// the caller has parsed the enclosing line already.
pub fn read_problem_value(doc: &JsonValue) -> Result<FloorplanProblem, JsonError> {
    check_header(doc, PROBLEM_FORMAT)?;

    let (partition, ids) = read_device(doc.field("device")?)?;

    // Problem.
    let mut problem = FloorplanProblem::new(partition);
    for region in doc.field("regions")?.as_arr()? {
        problem.add_region(read_region(region, &ids)?);
    }

    for c in doc.field("connections")?.as_arr()? {
        problem.connections.push(Connection {
            a: c.field("a")?.as_u64()? as usize,
            b: c.field("b")?.as_u64()? as usize,
            weight: c.field("weight")?.as_f64()?,
        });
    }

    for r in doc.field("relocation")?.as_arr()? {
        let region = r.field("region")?.as_u64()? as usize;
        let count = r.field("count")?.as_u32()?;
        let mode = match r.field("mode")?.as_str()? {
            "constraint" => RelocationMode::Constraint,
            "metric" => RelocationMode::Metric { weight: r.field("weight")?.as_f64()? },
            other => return err(format!("unknown relocation mode `{other}`")),
        };
        problem.relocation.push(RelocationRequest { region, count, mode });
    }

    let w = doc.field("weights")?;
    problem.weights = ObjectiveWeights {
        wirelength: w.field("wirelength")?.as_f64()?,
        perimeter: w.field("perimeter")?.as_f64()?,
        resources: w.field("resources")?.as_f64()?,
        relocation: w.field("relocation")?.as_f64()?,
    };

    Ok(problem)
}

// ---------------------------------------------------------------------------
// Floorplan writer / reader.
// ---------------------------------------------------------------------------

/// Renders a floorplan as an `rfp-floorplan` v1 JSON document.
pub fn write_floorplan(floorplan: &Floorplan) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"format\": \"{FLOORPLAN_FORMAT}\",\n"));
    out.push_str(&format!("  \"version\": {FORMAT_VERSION},\n"));
    out.push_str("  \"regions\": [");
    for (i, r) in floorplan.regions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {}", rect_json(r)));
    }
    if !floorplan.regions.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str("  \"fc_areas\": [");
    for (i, f) in floorplan.fc_areas.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mode = match f.mode {
            RelocationMode::Constraint => "\"mode\":\"constraint\"".to_string(),
            RelocationMode::Metric { weight } => {
                format!("\"mode\":\"metric\",\"weight\":{}", num(weight))
            }
        };
        let rect = match &f.rect {
            Some(r) => rect_json(r),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "\n    {{\"request\":{},\"region\":{},{mode},\"rect\":{rect}}}",
            f.request, f.region
        ));
    }
    if !floorplan.fc_areas.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n");
    out.push_str("}\n");
    out
}

/// Parses an `rfp-floorplan` v1 document.
pub fn read_floorplan(input: &str) -> Result<Floorplan, JsonError> {
    read_floorplan_value(&parse(input)?)
}

/// Reads an already-parsed `rfp-floorplan` v1 value.
pub fn read_floorplan_value(doc: &JsonValue) -> Result<Floorplan, JsonError> {
    check_header(doc, FLOORPLAN_FORMAT)?;
    let mut regions = Vec::new();
    for r in doc.field("regions")?.as_arr()? {
        regions.push(rect_from_json(r)?);
    }
    let mut fc_areas = Vec::new();
    for f in doc.field("fc_areas")?.as_arr()? {
        let mode = match f.field("mode")?.as_str()? {
            "constraint" => RelocationMode::Constraint,
            "metric" => RelocationMode::Metric { weight: f.field("weight")?.as_f64()? },
            other => return err(format!("unknown relocation mode `{other}`")),
        };
        let rect = match f.field("rect")? {
            JsonValue::Null => None,
            v => Some(rect_from_json(v)?),
        };
        fc_areas.push(FcPlacement {
            request: f.field("request")?.as_u64()? as usize,
            region: f.field("region")?.as_u64()? as usize,
            mode,
            rect,
        });
    }
    Ok(Floorplan { regions, fc_areas })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ObjectiveWeights, RegionSpec, RelocationRequest};
    use rfp_device::{columnar_partition, xc5vfx70t, DeviceBuilder};

    fn sample_problem() -> FloorplanProblem {
        let mut b = DeviceBuilder::new("json-sample");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
        b.rows(4).columns(&[clb, clb, bram, clb, clb, bram, clb]);
        b.forbidden("blk", Rect::new(4, 1, 1, 2));
        let mut p = FloorplanProblem::new(columnar_partition(&b.build().unwrap()).unwrap());
        let a = p.add_region(RegionSpec::new("A \"quoted\"", vec![(clb, 2), (bram, 1)]));
        let b2 = p.add_region(RegionSpec::new("B", vec![(clb, 2)]));
        p.connect(a, b2, 12.5);
        p.request_relocation(RelocationRequest::constraint(a, 1));
        p.request_relocation(RelocationRequest::metric(b2, 2, 1.5));
        p.weights = ObjectiveWeights::paper_default().with_relocation(2.0);
        p
    }

    #[test]
    fn parser_handles_scalars_strings_and_nesting() {
        let v = parse(r#"{"a": [1, -2.5, true, null], "b": {"c": "x\n\"y\""}}"#).unwrap();
        assert_eq!(v.field("a").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(v.field("a").unwrap().as_arr().unwrap()[0].as_u64().unwrap(), 1);
        assert_eq!(v.field("b").unwrap().field("c").unwrap().as_str().unwrap(), "x\n\"y\"");
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("42 43").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("nulL").is_err());
    }

    #[test]
    fn trailing_garbage_after_the_document_is_rejected_with_a_position() {
        // Trailing whitespace is fine; anything else after the closing
        // brace/bracket/value must fail with the exact offending location.
        assert!(parse("{\"a\":1}\n\t ").is_ok());
        let e = parse("{\"a\":1} garbage").unwrap_err();
        assert!(e.0.contains("trailing characters"), "{e}");
        assert!(e.0.contains("line 1, column 9 (byte 8)"), "{e}");
        let e = parse("{\n  \"a\": 1\n}\n}").unwrap_err();
        assert!(e.0.contains("line 4, column 1 (byte 13)"), "{e}");
        // Two concatenated documents are not one document.
        assert!(parse("{}{}").unwrap_err().0.contains("trailing characters"));
        assert!(parse("[1] [2]").unwrap_err().0.contains("trailing characters"));
        assert!(parse("null null").unwrap_err().0.contains("trailing characters"));
        // The document readers inherit the rejection.
        let doc = write_problem(&sample_problem());
        let appended = format!("{doc}extra");
        let e = read_problem(&appended).unwrap_err();
        assert!(e.0.contains("trailing characters"), "{e}");
        let fp_doc = write_floorplan(&Floorplan { regions: Vec::new(), fc_areas: Vec::new() });
        assert!(read_floorplan(&format!("{fp_doc}[]"))
            .unwrap_err()
            .0
            .contains("trailing characters"));
    }

    #[test]
    fn problem_round_trips_to_an_equal_problem() {
        let p = sample_problem();
        let doc = write_problem(&p);
        let back = read_problem(&doc).unwrap();
        assert_eq!(back, p);
        // Canonical: re-emission is byte-identical.
        assert_eq!(write_problem(&back), doc);
    }

    #[test]
    fn fx70t_problem_round_trips() {
        let device = xc5vfx70t();
        let clb = device.registry.by_name("CLB").unwrap();
        let mut p = FloorplanProblem::new(columnar_partition(&device).unwrap());
        p.add_region(RegionSpec::new("R", vec![(clb, 3)]));
        let back = read_problem(&write_problem(&p)).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.partition.total_frames(), p.partition.total_frames());
    }

    #[test]
    fn floorplan_round_trips_including_missing_areas() {
        let fp = Floorplan {
            regions: vec![Rect::new(1, 1, 3, 2), Rect::new(4, 1, 2, 1)],
            fc_areas: vec![
                FcPlacement {
                    request: 0,
                    region: 0,
                    mode: RelocationMode::Constraint,
                    rect: Some(Rect::new(5, 3, 3, 2)),
                },
                FcPlacement {
                    request: 1,
                    region: 1,
                    mode: RelocationMode::Metric { weight: 2.5 },
                    rect: None,
                },
            ],
        };
        let doc = write_floorplan(&fp);
        let back = read_floorplan(&doc).unwrap();
        assert_eq!(back, fp);
        assert_eq!(write_floorplan(&back), doc);
    }

    #[test]
    fn version_and_format_mismatches_are_rejected() {
        let p = sample_problem();
        let doc = write_problem(&p);
        assert!(read_floorplan(&doc).is_err(), "floorplan reader must reject problem docs");
        let bumped = doc.replace("\"version\": 1", "\"version\": 99");
        let e = read_problem(&bumped).unwrap_err();
        assert!(e.0.contains("version 99"), "{e}");
    }

    #[test]
    fn identical_resource_profiles_stay_distinct_types() {
        // Two tile types with equal resources and frames would merge under
        // Definition .1; the reader keeps them apart via per-entry
        // configuration signatures so column indices stay valid.
        let doc = r#"{
  "format": "rfp-problem",
  "version": 1,
  "device": {
    "name": "twins",
    "rows": 2,
    "tile_types": [
      {"name":"CLBL","resources":[1,0,0,0],"frames":36},
      {"name":"CLBM","resources":[1,0,0,0],"frames":36}
    ],
    "columns": [0,1,0],
    "forbidden": []
  },
  "regions": [{"name":"R","req":[[0,1]]}],
  "connections": [],
  "relocation": [],
  "weights": {"wirelength":1,"perimeter":0,"resources":1000,"relocation":0}
}"#;
        let p = read_problem(doc).unwrap();
        assert_eq!(
            p.partition.columnar().unwrap().n_portions(),
            3,
            "alternating twin types form three portions"
        );
        assert!(p.validate().is_ok());
    }

    #[test]
    fn requirement_only_tile_types_are_emitted_not_panicked_on() {
        // A registered tile type with no column can still appear in a region
        // requirement (the problem is invalid, but must serialise cleanly).
        let mut b = DeviceBuilder::new("req-only");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        let dsp = b.tile_type("DSP", ResourceVec::new(0, 0, 1), 28);
        b.rows(2).columns(&[clb, clb]);
        let mut p = FloorplanProblem::new(columnar_partition(&b.build().unwrap()).unwrap());
        p.add_region(RegionSpec::new("R", vec![(clb, 1), (dsp, 1)]));
        let doc = write_problem(&p);
        assert!(doc.contains("\"DSP\""), "the demanded-but-absent type must be emitted");
        let back = read_problem(&doc).unwrap();
        assert_eq!(back, p);
        // Both sides agree the problem is unsatisfiable.
        assert!(back.validate().is_err());
        assert!(p.validate().is_err());
    }

    #[test]
    fn truncated_documents_error_at_every_cut_point() {
        // Cutting the document anywhere must produce an error, never a
        // partial problem or a panic. Step through the byte length so the
        // loop stays fast on the ~1.5 kB sample document.
        let doc = write_problem(&sample_problem());
        for cut in (1..doc.len()).step_by(7) {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            assert!(
                read_problem(&doc[..cut]).is_err(),
                "truncation at byte {cut} must be rejected"
            );
        }
        assert!(read_problem("").is_err());
    }

    #[test]
    fn missing_header_fields_are_reported_by_name() {
        let doc = write_problem(&sample_problem());
        let no_format = doc.replacen("\"format\"", "\"fmt\"", 1);
        assert!(read_problem(&no_format).unwrap_err().0.contains("missing field `format`"));
        let no_version = doc.replacen("\"version\"", "\"ver\"", 1);
        assert!(read_problem(&no_version).unwrap_err().0.contains("missing field `version`"));
        let no_weights = doc.replacen("\"weights\"", "\"objective\"", 1);
        assert!(read_problem(&no_weights).unwrap_err().0.contains("missing field `weights`"));
    }

    #[test]
    fn unknown_tile_type_references_are_rejected() {
        // A column referencing a tile-type position that was never declared.
        let doc = write_problem(&sample_problem());
        let bad_column =
            doc.replacen("\"columns\": [0,0,1,0,0,1,0]", "\"columns\": [0,0,9,0,0,1,0]", 1);
        assert_ne!(bad_column, doc, "fixture out of sync with the writer");
        let e = read_problem(&bad_column).unwrap_err();
        assert!(e.0.contains("unknown tile type 9"), "{e}");
        // A region requirement referencing an unknown tile type.
        let bad_req = doc.replacen("\"req\":[[0,2],[1,1]]", "\"req\":[[7,2],[1,1]]", 1);
        assert_ne!(bad_req, doc, "fixture out of sync with the writer");
        let e = read_problem(&bad_req).unwrap_err();
        assert!(e.0.contains("unknown tile type 7"), "{e}");
    }

    #[test]
    fn unknown_relocation_modes_and_malformed_numbers_are_rejected() {
        let doc = write_problem(&sample_problem());
        let bad_mode = doc.replacen("\"mode\":\"constraint\"", "\"mode\":\"teleport\"", 1);
        let e = read_problem(&bad_mode).unwrap_err();
        assert!(e.0.contains("unknown relocation mode `teleport`"), "{e}");
        // A fractional region count.
        let bad_count = doc.replacen("\"count\":1,", "\"count\":1.5,", 1);
        assert_ne!(bad_count, doc);
        assert!(read_problem(&bad_count).is_err());
        // A u32 overflow in a rectangle coordinate.
        let bad_rect = doc.replacen("\"rect\":{\"x\":4,", "\"rect\":{\"x\":4294967296,", 1);
        assert_ne!(bad_rect, doc);
        let e = read_problem(&bad_rect).unwrap_err();
        assert!(e.0.contains("overflows u32"), "{e}");
        // Zero-sized rectangles are invalid (1-based, non-empty).
        let empty_rect = doc.replacen(
            "\"rect\":{\"x\":4,\"y\":1,\"w\":1,",
            "\"rect\":{\"x\":4,\"y\":1,\"w\":0,",
            1,
        );
        assert_ne!(empty_rect, doc);
        assert!(read_problem(&empty_rect).unwrap_err().0.contains("invalid rectangle"));
    }

    #[test]
    fn malformed_device_sections_are_rejected() {
        let doc = write_problem(&sample_problem());
        // Wrong arity of a tile type's resource vector.
        let bad_res = doc.replacen("\"resources\":[1,0,0,0]", "\"resources\":[1,0,0]", 1);
        let e = read_problem(&bad_res).unwrap_err();
        assert!(e.0.contains("must have 4 entries"), "{e}");
        // An empty column list.
        let no_cols = doc.replacen("\"columns\": [0,0,1,0,0,1,0]", "\"columns\": []", 1);
        assert!(read_problem(&no_cols).unwrap_err().0.contains("no columns"));
    }

    #[test]
    fn floorplan_error_paths_mirror_the_problem_ones() {
        let fp = Floorplan {
            regions: vec![Rect::new(1, 1, 2, 2)],
            fc_areas: vec![FcPlacement {
                request: 0,
                region: 0,
                mode: RelocationMode::Metric { weight: 1.5 },
                rect: None,
            }],
        };
        let doc = write_floorplan(&fp);
        for cut in (1..doc.len()).step_by(5) {
            assert!(read_floorplan(&doc[..cut]).is_err(), "truncation at byte {cut}");
        }
        let bad_mode = doc.replacen("\"mode\":\"metric\"", "\"mode\":\"psychic\"", 1);
        assert!(read_floorplan(&bad_mode).unwrap_err().0.contains("unknown relocation mode"));
        // Metric mode without its weight.
        let no_weight =
            doc.replacen("\"mode\":\"metric\",\"weight\":1.5", "\"mode\":\"metric\"", 1);
        assert!(read_floorplan(&no_weight).unwrap_err().0.contains("missing field `weight`"));
        let bumped = doc.replacen("\"version\": 1", "\"version\": 3", 1);
        assert!(read_floorplan(&bumped).unwrap_err().0.contains("version 3"));
    }

    #[test]
    fn solving_a_round_tripped_problem_matches_the_original() {
        use crate::combinatorial::{solve_combinatorial, CombinatorialConfig};
        use crate::engine::SolveControl;
        let p = sample_problem();
        let q = read_problem(&write_problem(&p)).unwrap();
        let a = solve_combinatorial(&p, &CombinatorialConfig::default(), &SolveControl::default())
            .unwrap();
        let b = solve_combinatorial(&q, &CombinatorialConfig::default(), &SolveControl::default())
            .unwrap();
        assert_eq!(a.best_waste, b.best_waste);
        assert_eq!(a.floorplan, b.floorplan);
    }
}
