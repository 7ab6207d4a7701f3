//! Versioned **binary** interchange for problems and floorplans — the
//! length-prefixed little-endian twin of [`crate::jsonio`].
//!
//! Every `rfp` input that takes a problem, floorplan or scenario also
//! takes its `rfpb` encoding (sniffed from the magic, never the file name),
//! and `rfp convert` transcodes between the two. A large trace decodes
//! faster from `rfpb` than from JSON, and its floats round-trip exactly.
//! The encoding is a direct transcription of the v1 JSON content model, so
//! the two formats are interconvertible without loss:
//!
//! * `read_problem_bin(write_problem_bin(p)) == p` for every problem, and
//! * a document converted `json → bin → json` is byte-identical to the
//!   original (both writers are canonical over the same model).
//!
//! ## Layout
//!
//! Every document starts with a 7-byte header: the magic bytes `RFPB`, one
//! *kind* byte ([`BinKind`]: `1` problem, `2` floorplan, `3` scenario — the
//! scenario codec itself lives in `rfp-runtime`, next to the [`Scenario`]
//! type, built on the primitives here), and a little-endian `u16` format
//! version ([`BIN_VERSION`]). The body is a flat sequence of fields:
//!
//! * integers are little-endian (`u8`/`u16`/`u32`/`u64`),
//! * `f64` values are their IEEE-754 bit patterns, little-endian (floats
//!   round-trip *exactly*, unlike decimal JSON),
//! * strings are a `u32` byte length followed by UTF-8 bytes,
//! * sequences are a `u32` element count followed by the elements,
//! * rectangles are four `u32`s (`x`, `y`, `w`, `h`, 1-based, non-empty).
//!
//! Readers bounds-check every primitive (truncation at *any* byte is an
//! error, never a partial document), validate the header before touching the
//! body, and reject trailing bytes after the document — the same paranoia
//! the JSON readers apply.
//!
//! [`Scenario`]: https://docs.rs/rfp-runtime

use crate::jsonio::{DeviceSection, DeviceSpec};
use crate::placement::{FcPlacement, Floorplan};
use crate::problem::{
    Connection, FloorplanProblem, ObjectiveWeights, RegionSpec, RelocationMode, RelocationRequest,
};
use rfp_device::{FabricPartition, Rect, TileTypeId};
use std::fmt;

/// The magic bytes every `rfpb` document starts with.
pub const MAGIC: [u8; 4] = *b"RFPB";
/// Base version of the binary encoding (all three kinds share it).
pub const BIN_VERSION: u16 = 1;
/// Version of documents whose device section carries a per-cell tile grid
/// and/or die boundaries (heterogeneous fabrics). Version-1 documents keep
/// reading unchanged, and legacy columnar devices keep writing version 1
/// byte-for-byte.
pub const BIN_VERSION_V2: u16 = 2;

/// The binary version a document embedding this partition must declare:
/// version 1 for legacy columnar fabrics (byte-identical to the historical
/// encoding), version 2 otherwise.
pub fn bin_version_for(part: &FabricPartition) -> u16 {
    if part.is_columnar_legacy() {
        BIN_VERSION
    } else {
        BIN_VERSION_V2
    }
}

/// What a binary document contains (the header's kind byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinKind {
    /// An `rfp-problem` ([`write_problem_bin`] / [`read_problem_bin`]).
    Problem,
    /// An `rfp-floorplan` ([`write_floorplan_bin`] / [`read_floorplan_bin`]).
    Floorplan,
    /// An `rfp-scenario` (codec in `rfp-runtime`).
    Scenario,
}

impl BinKind {
    /// The header byte of this kind.
    pub fn tag(self) -> u8 {
        match self {
            BinKind::Problem => 1,
            BinKind::Floorplan => 2,
            BinKind::Scenario => 3,
        }
    }

    /// Parses a header byte.
    pub fn from_tag(tag: u8) -> Option<BinKind> {
        match tag {
            1 => Some(BinKind::Problem),
            2 => Some(BinKind::Floorplan),
            3 => Some(BinKind::Scenario),
            _ => None,
        }
    }

    /// The format tag the kind corresponds to in the JSON family
    /// (`rfp-problem` / `rfp-floorplan` / `rfp-scenario`).
    pub fn format_name(self) -> &'static str {
        match self {
            BinKind::Problem => "rfp-problem",
            BinKind::Floorplan => "rfp-floorplan",
            BinKind::Scenario => "rfp-scenario",
        }
    }
}

impl fmt::Display for BinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.format_name())
    }
}

/// Error raised by the binary readers, positioned at the offending byte.
#[derive(Debug, Clone, PartialEq)]
pub struct BinError {
    /// Byte offset the reader was at when the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub msg: String,
}

impl BinError {
    fn new(offset: usize, msg: impl Into<String>) -> BinError {
        BinError { offset, msg: msg.into() }
    }
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "binary format error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for BinError {}

/// `true` when the bytes look like an `rfpb` document (magic match). The
/// CLI's transparent `.rfpb` support sniffs inputs with this — JSON can
/// never start with `RFPB`.
pub fn is_binary(bytes: &[u8]) -> bool {
    bytes.starts_with(&MAGIC)
}

/// Reads and validates a header, returning the document kind. Fails on bad
/// magic, an unknown kind byte or an unsupported version.
pub fn detect_kind(bytes: &[u8]) -> Result<BinKind, BinError> {
    let mut r = BinReader::new(bytes);
    r.header()
}

// ---------------------------------------------------------------------------
// Primitives.
// ---------------------------------------------------------------------------

/// Builds an `rfpb` document. A thin wrapper over `Vec<u8>` providing the
/// length-prefixed primitives of the format.
#[derive(Debug, Default)]
pub struct BinWriter {
    bytes: Vec<u8>,
}

impl BinWriter {
    /// Starts a version-1 document of the given kind (magic + kind +
    /// version).
    pub fn new(kind: BinKind) -> BinWriter {
        BinWriter::with_version(kind, BIN_VERSION)
    }

    /// Starts a document of the given kind and header version. Documents
    /// embedding a device section pick the version with [`bin_version_for`].
    pub fn with_version(kind: BinKind, version: u16) -> BinWriter {
        let mut w = BinWriter { bytes: Vec::with_capacity(256) };
        w.bytes.extend_from_slice(&MAGIC);
        w.u8(kind.tag());
        w.u16(version);
        w
    }

    /// The finished document.
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its little-endian IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes.extend_from_slice(s.as_bytes());
    }

    /// Appends a sequence length prefix.
    pub fn len(&mut self, n: usize) {
        self.u32(n as u32);
    }

    /// Appends a rectangle (four `u32`s).
    pub fn rect(&mut self, r: &Rect) {
        self.u32(r.x);
        self.u32(r.y);
        self.u32(r.w);
        self.u32(r.h);
    }
}

/// Decodes an `rfpb` document. Every read is bounds-checked; errors carry
/// the byte offset they were detected at.
#[derive(Debug)]
pub struct BinReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    version: u16,
}

impl<'a> BinReader<'a> {
    /// A reader over a complete document (header not yet consumed).
    pub fn new(bytes: &'a [u8]) -> BinReader<'a> {
        BinReader { bytes, pos: 0, version: BIN_VERSION }
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// The header version, once [`BinReader::header`] has been consumed
    /// (`BIN_VERSION` before that).
    pub fn version(&self) -> u16 {
        self.version
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], BinError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len()).ok_or_else(|| {
            BinError::new(
                self.pos,
                format!(
                    "truncated document: {what} needs {n} byte(s), {} left",
                    self.bytes.len() - self.pos
                ),
            )
        })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads and validates the header, returning the document kind.
    pub fn header(&mut self) -> Result<BinKind, BinError> {
        let magic = self.take(4, "magic")?;
        if magic != MAGIC {
            return Err(BinError::new(0, format!("bad magic {magic:?} (expected `RFPB`)")));
        }
        let at = self.pos;
        let tag = self.u8("kind")?;
        let kind = BinKind::from_tag(tag)
            .ok_or_else(|| BinError::new(at, format!("unknown document kind {tag}")))?;
        let at = self.pos;
        let version = self.u16("version")?;
        if version != BIN_VERSION && version != BIN_VERSION_V2 {
            return Err(BinError::new(
                at,
                format!(
                    "unsupported {kind} binary version {version} (this build reads versions \
                     {BIN_VERSION} and {BIN_VERSION_V2})"
                ),
            ));
        }
        self.version = version;
        Ok(kind)
    }

    /// Reads the header and requires a specific kind.
    pub fn expect_kind(&mut self, want: BinKind) -> Result<(), BinError> {
        let found = self.header()?;
        if found != want {
            return Err(BinError::new(4, format!("expected an {want} document, found {found}")));
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, BinError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, what: &str) -> Result<u16, BinError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, BinError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, BinError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self, what: &str) -> Result<f64, BinError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<String, BinError> {
        let at = self.pos;
        let n = self.u32(what)? as usize;
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| BinError::new(at, format!("{what} is not valid UTF-8")))
    }

    /// Reads a sequence length prefix. Sanity-capped by the remaining bytes
    /// (each element needs at least one byte), so a corrupt length prefix
    /// cannot trigger a huge allocation.
    pub fn len(&mut self, what: &str) -> Result<usize, BinError> {
        let at = self.pos;
        let n = self.u32(what)? as usize;
        if n > self.bytes.len() - self.pos {
            return Err(BinError::new(
                at,
                format!(
                    "implausible {what} count {n}: only {} byte(s) left",
                    self.bytes.len() - self.pos
                ),
            ));
        }
        Ok(n)
    }

    /// Reads a rectangle and validates it (1-based, non-empty).
    pub fn rect(&mut self, what: &str) -> Result<Rect, BinError> {
        let at = self.pos;
        let x = self.u32(what)?;
        let y = self.u32(what)?;
        let w = self.u32(what)?;
        let h = self.u32(what)?;
        if x < 1 || y < 1 || w < 1 || h < 1 {
            return Err(BinError::new(
                at,
                format!("invalid rectangle ({x},{y},{w},{h}): 1-based, non-empty"),
            ));
        }
        Ok(Rect::new(x, y, w, h))
    }

    /// Fails unless every byte of the document has been consumed — the
    /// binary equivalent of the JSON parser's trailing-garbage rejection.
    pub fn expect_end(&self) -> Result<(), BinError> {
        if self.pos != self.bytes.len() {
            return Err(BinError::new(
                self.pos,
                format!("{} trailing byte(s) after the document", self.bytes.len() - self.pos),
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Shared device/region sections (binary side of `jsonio`'s device sections).
// ---------------------------------------------------------------------------

/// Writes the device section (same emission table as the JSON writer, so
/// both formats agree on tile-type array positions).
///
/// A legacy columnar fabric writes the exact version-1 layout. Any other
/// fabric writes the version-2 layout — a shape tag (`0` columns, `1`
/// per-cell grid), the corresponding position array, the forbidden areas and
/// a trailing die-boundary list — and the enclosing document must have been
/// started with [`bin_version_for`].
pub fn write_device_bin(w: &mut BinWriter, part: &FabricPartition, section: &DeviceSection) {
    w.str(&part.device_name);
    w.u32(part.rows);
    w.len(section.type_indices().len());
    for &idx in section.type_indices() {
        let ty = TileTypeId(idx as u16);
        w.str(&DeviceSection::type_name(part, idx));
        for r in part.resources_per_tile(ty).0 {
            w.u32(r);
        }
        w.u32(part.frames_per_tile(ty));
    }
    let legacy = part.is_columnar_legacy();
    match part.columnar() {
        Some(cp) => {
            if !legacy {
                w.u8(0);
            }
            w.len(cp.cols as usize);
            for c in 1..=cp.cols {
                let idx = cp.column_type(c).expect("column inside device").index();
                w.u32(section.position(idx).expect("emitted type") as u32);
            }
        }
        None => {
            w.u8(1);
            let cells = part.cell_types();
            w.len(cells.len());
            for &ty in cells {
                w.u32(section.position(ty.index()).expect("emitted type") as u32);
            }
        }
    }
    w.len(part.forbidden.len());
    for fa in &part.forbidden {
        w.str(&fa.name);
        w.rect(&fa.rect);
    }
    if !legacy {
        w.len(part.die_boundaries.len());
        for &b in &part.die_boundaries {
            w.u32(b);
        }
    }
}

/// Reads a device section back into a partition plus the tile-type ids at
/// each emitted-array position. The layout is selected by the header version
/// the reader consumed ([`BinReader::version`]).
pub fn read_device_bin(
    r: &mut BinReader<'_>,
) -> Result<(FabricPartition, Vec<TileTypeId>), BinError> {
    let name = r.str("device name")?;
    let rows = r.u32("device rows")?;
    let n_types = r.len("tile type")?;
    let mut tile_types = Vec::with_capacity(n_types);
    for _ in 0..n_types {
        let tname = r.str("tile type name")?;
        let mut res = [0u32; 4];
        for slot in &mut res {
            *slot = r.u32("tile type resources")?;
        }
        let frames = r.u32("tile type frames")?;
        tile_types.push((tname, res, frames));
    }
    let v2 = r.version() >= BIN_VERSION_V2;
    let mut columns = Vec::new();
    let mut cells = Vec::new();
    let per_cell = if v2 {
        let at = r.offset();
        match r.u8("device shape tag")? {
            0 => false,
            1 => true,
            other => {
                return Err(BinError::new(at, format!("invalid device shape tag {other} (0 or 1)")))
            }
        }
    } else {
        false
    };
    if per_cell {
        let n_cells = r.len("cell")?;
        cells.reserve(n_cells);
        for _ in 0..n_cells {
            cells.push(r.u32("cell type")? as usize);
        }
    } else {
        let n_cols = r.len("column")?;
        columns.reserve(n_cols);
        for _ in 0..n_cols {
            columns.push(r.u32("column type")? as usize);
        }
    }
    let n_forbidden = r.len("forbidden area")?;
    let mut forbidden = Vec::with_capacity(n_forbidden);
    for _ in 0..n_forbidden {
        let fname = r.str("forbidden area name")?;
        forbidden.push((fname, r.rect("forbidden area rect")?));
    }
    let mut die_boundaries = Vec::new();
    if v2 {
        let n_db = r.len("die boundary")?;
        die_boundaries.reserve(n_db);
        for _ in 0..n_db {
            die_boundaries.push(r.u32("die boundary row")?);
        }
    }
    let at = r.offset();
    DeviceSpec { name, rows, tile_types, columns, cells, forbidden, die_boundaries }
        .build()
        .map_err(|e| BinError::new(at, e))
}

/// Writes one region/module (name + length-prefixed requirement pairs).
pub fn write_region_bin(w: &mut BinWriter, region: &RegionSpec, section: &DeviceSection) {
    w.str(&region.name);
    w.len(region.tile_req().len());
    for &(ty, n) in region.tile_req() {
        w.u32(section.position(ty.index()).expect("emitted type") as u32);
        w.u32(n);
    }
}

/// Reads one region/module written by [`write_region_bin`].
pub fn read_region_bin(r: &mut BinReader<'_>, ids: &[TileTypeId]) -> Result<RegionSpec, BinError> {
    let rname = r.str("region name")?;
    let n_req = r.len("requirement")?;
    let mut req = Vec::with_capacity(n_req);
    for _ in 0..n_req {
        let at = r.offset();
        let pos = r.u32("requirement type")? as usize;
        let tiles = r.u32("requirement tiles")?;
        let ty = *ids.get(pos).ok_or_else(|| {
            BinError::new(at, format!("region `{rname}`: unknown tile type {pos}"))
        })?;
        req.push((ty, tiles));
    }
    Ok(RegionSpec::new(rname, req))
}

fn write_mode(w: &mut BinWriter, mode: &RelocationMode) {
    match mode {
        RelocationMode::Constraint => w.u8(0),
        RelocationMode::Metric { weight } => {
            w.u8(1);
            w.f64(*weight);
        }
    }
}

fn read_mode(r: &mut BinReader<'_>) -> Result<RelocationMode, BinError> {
    let at = r.offset();
    match r.u8("relocation mode")? {
        0 => Ok(RelocationMode::Constraint),
        1 => Ok(RelocationMode::Metric { weight: r.f64("relocation weight")? }),
        other => Err(BinError::new(at, format!("unknown relocation mode {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Problem writer / reader.
// ---------------------------------------------------------------------------

/// Encodes a problem as an `rfpb` problem document.
pub fn write_problem_bin(problem: &FloorplanProblem) -> Vec<u8> {
    let part = &problem.partition;
    let section = DeviceSection::new(part, &problem.regions);
    let mut w = BinWriter::with_version(BinKind::Problem, bin_version_for(part));
    write_device_bin(&mut w, part, &section);
    w.len(problem.regions.len());
    for region in &problem.regions {
        write_region_bin(&mut w, region, &section);
    }
    w.len(problem.connections.len());
    for c in &problem.connections {
        w.u64(c.a as u64);
        w.u64(c.b as u64);
        w.f64(c.weight);
    }
    w.len(problem.relocation.len());
    for req in &problem.relocation {
        w.u64(req.region as u64);
        w.u32(req.count);
        write_mode(&mut w, &req.mode);
    }
    let weights = &problem.weights;
    w.f64(weights.wirelength);
    w.f64(weights.perimeter);
    w.f64(weights.resources);
    w.f64(weights.relocation);
    w.finish()
}

/// Decodes an `rfpb` problem document back into a [`FloorplanProblem`].
///
/// The device is rebuilt through the public `rfp-device` constructors and
/// re-partitioned exactly like the JSON reader, so a document converted from
/// JSON decodes to an *equal* problem. Not semantically validated; call
/// [`FloorplanProblem::validate`] before solving.
pub fn read_problem_bin(bytes: &[u8]) -> Result<FloorplanProblem, BinError> {
    let mut r = BinReader::new(bytes);
    r.expect_kind(BinKind::Problem)?;
    let (partition, ids) = read_device_bin(&mut r)?;
    let mut problem = FloorplanProblem::new(partition);
    let n_regions = r.len("region")?;
    for _ in 0..n_regions {
        problem.add_region(read_region_bin(&mut r, &ids)?);
    }
    let n_connections = r.len("connection")?;
    for _ in 0..n_connections {
        problem.connections.push(Connection {
            a: r.u64("connection endpoint")? as usize,
            b: r.u64("connection endpoint")? as usize,
            weight: r.f64("connection weight")?,
        });
    }
    let n_relocation = r.len("relocation request")?;
    for _ in 0..n_relocation {
        let region = r.u64("relocation region")? as usize;
        let count = r.u32("relocation count")?;
        let mode = read_mode(&mut r)?;
        problem.relocation.push(RelocationRequest { region, count, mode });
    }
    problem.weights = ObjectiveWeights {
        wirelength: r.f64("weight")?,
        perimeter: r.f64("weight")?,
        resources: r.f64("weight")?,
        relocation: r.f64("weight")?,
    };
    r.expect_end()?;
    Ok(problem)
}

// ---------------------------------------------------------------------------
// Floorplan writer / reader.
// ---------------------------------------------------------------------------

/// Encodes a floorplan as an `rfpb` floorplan document.
pub fn write_floorplan_bin(floorplan: &Floorplan) -> Vec<u8> {
    let mut w = BinWriter::new(BinKind::Floorplan);
    w.len(floorplan.regions.len());
    for r in &floorplan.regions {
        w.rect(r);
    }
    w.len(floorplan.fc_areas.len());
    for f in &floorplan.fc_areas {
        w.u64(f.request as u64);
        w.u64(f.region as u64);
        write_mode(&mut w, &f.mode);
        match &f.rect {
            Some(rect) => {
                w.u8(1);
                w.rect(rect);
            }
            None => w.u8(0),
        }
    }
    w.finish()
}

/// Decodes an `rfpb` floorplan document.
pub fn read_floorplan_bin(bytes: &[u8]) -> Result<Floorplan, BinError> {
    let mut r = BinReader::new(bytes);
    r.expect_kind(BinKind::Floorplan)?;
    let n_regions = r.len("region rect")?;
    let mut regions = Vec::with_capacity(n_regions);
    for _ in 0..n_regions {
        regions.push(r.rect("region rect")?);
    }
    let n_fc = r.len("fc area")?;
    let mut fc_areas = Vec::with_capacity(n_fc);
    for _ in 0..n_fc {
        let request = r.u64("fc request")? as usize;
        let region = r.u64("fc region")? as usize;
        let mode = read_mode(&mut r)?;
        let at = r.offset();
        let rect = match r.u8("fc rect presence")? {
            0 => None,
            1 => Some(r.rect("fc rect")?),
            other => return Err(BinError::new(at, format!("invalid option tag {other} (0 or 1)"))),
        };
        fc_areas.push(FcPlacement { request, region, mode, rect });
    }
    r.expect_end()?;
    Ok(Floorplan { regions, fc_areas })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonio;
    use crate::problem::{ObjectiveWeights, RegionSpec, RelocationRequest};
    use rfp_device::{columnar_partition, DeviceBuilder, ResourceVec};

    fn sample_problem() -> FloorplanProblem {
        let mut b = DeviceBuilder::new("binio-sample");
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

    fn sample_floorplan() -> Floorplan {
        Floorplan {
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
        }
    }

    #[test]
    fn problems_round_trip_byte_stable() {
        let p = sample_problem();
        let bytes = write_problem_bin(&p);
        assert!(is_binary(&bytes));
        assert_eq!(detect_kind(&bytes).unwrap(), BinKind::Problem);
        let back = read_problem_bin(&bytes).unwrap();
        assert_eq!(back, p);
        assert_eq!(write_problem_bin(&back), bytes);
    }

    #[test]
    fn floorplans_round_trip_byte_stable() {
        let fp = sample_floorplan();
        let bytes = write_floorplan_bin(&fp);
        assert_eq!(detect_kind(&bytes).unwrap(), BinKind::Floorplan);
        let back = read_floorplan_bin(&bytes).unwrap();
        assert_eq!(back, fp);
        assert_eq!(write_floorplan_bin(&back), bytes);
    }

    #[test]
    fn json_and_binary_decode_to_equal_problems() {
        let p = sample_problem();
        let json = jsonio::write_problem(&p);
        let bin = write_problem_bin(&p);
        assert_eq!(jsonio::read_problem(&json).unwrap(), read_problem_bin(&bin).unwrap());
        // Converting json -> struct -> bin -> struct -> json is the identity.
        let reconverted = jsonio::write_problem(
            &read_problem_bin(&write_problem_bin(&jsonio::read_problem(&json).unwrap())).unwrap(),
        );
        assert_eq!(reconverted, json);
    }

    #[test]
    fn truncation_at_every_byte_is_an_error() {
        let p = sample_problem();
        let bytes = write_problem_bin(&p);
        for cut in 0..bytes.len() {
            assert!(read_problem_bin(&bytes[..cut]).is_err(), "cut at byte {cut} must fail");
        }
        let fp_bytes = write_floorplan_bin(&sample_floorplan());
        for cut in 0..fp_bytes.len() {
            assert!(read_floorplan_bin(&fp_bytes[..cut]).is_err(), "cut at byte {cut} must fail");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = write_problem_bin(&sample_problem());
        bytes.push(0);
        let e = read_problem_bin(&bytes).unwrap_err();
        assert!(e.msg.contains("trailing"), "{e}");
        assert_eq!(e.offset, bytes.len() - 1);
    }

    #[test]
    fn bad_magic_kind_and_version_are_rejected_by_position() {
        let good = write_problem_bin(&sample_problem());

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        let e = read_problem_bin(&bad_magic).unwrap_err();
        assert!(e.msg.contains("bad magic"), "{e}");
        assert!(!is_binary(&bad_magic));

        let mut bad_kind = good.clone();
        bad_kind[4] = 9;
        let e = read_problem_bin(&bad_kind).unwrap_err();
        assert!(e.msg.contains("unknown document kind 9"), "{e}");
        assert_eq!(e.offset, 4);

        let mut bad_version = good.clone();
        bad_version[5] = 0xFF;
        bad_version[6] = 0xFF;
        let e = read_problem_bin(&bad_version).unwrap_err();
        assert!(e.msg.contains("version 65535"), "{e}");

        // A floorplan document handed to the problem reader (and vice versa).
        let fp_bytes = write_floorplan_bin(&sample_floorplan());
        let e = read_problem_bin(&fp_bytes).unwrap_err();
        assert!(e.msg.contains("expected an rfp-problem"), "{e}");
        let e = read_floorplan_bin(&good).unwrap_err();
        assert!(e.msg.contains("expected an rfp-floorplan"), "{e}");
    }

    #[test]
    fn corrupt_length_prefixes_cannot_demand_huge_allocations() {
        // Overwrite the region-count prefix with u32::MAX; the reader must
        // reject it as implausible instead of trying to reserve 4 G entries.
        let p = sample_problem();
        let mut bytes = write_problem_bin(&p);
        // The region count is the first `len` after the device section; find
        // it by re-encoding with a sentinel count and diffing is brittle, so
        // instead corrupt the *last* 4 bytes-long prefix we know: patch the
        // connection count by scanning for its exact offset via a reader.
        let mut r = BinReader::new(&bytes);
        r.expect_kind(BinKind::Problem).unwrap();
        let _ = read_device_bin(&mut r).unwrap();
        let region_count_at = r.offset();
        bytes[region_count_at..region_count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let e = read_problem_bin(&bytes).unwrap_err();
        assert!(e.msg.contains("implausible"), "{e}");
    }

    #[test]
    fn unknown_tile_type_and_mode_bytes_are_rejected() {
        let p = sample_problem();
        let bytes = write_problem_bin(&p);
        // Find the first region's first requirement-type position and point
        // it at a type the device section never emitted.
        let mut r = BinReader::new(&bytes);
        r.expect_kind(BinKind::Problem).unwrap();
        let _ = read_device_bin(&mut r).unwrap();
        let _ = r.len("region").unwrap();
        let _ = r.str("region name").unwrap();
        let _ = r.len("requirement").unwrap();
        let req_type_at = r.offset();
        let mut corrupt = bytes.clone();
        corrupt[req_type_at..req_type_at + 4].copy_from_slice(&7u32.to_le_bytes());
        let e = read_problem_bin(&corrupt).unwrap_err();
        assert!(e.msg.contains("unknown tile type 7"), "{e}");

        // An invalid relocation-mode byte in a floorplan.
        let fp = sample_floorplan();
        let fp_bytes = write_floorplan_bin(&fp);
        let mut r = BinReader::new(&fp_bytes);
        r.expect_kind(BinKind::Floorplan).unwrap();
        let n = r.len("region rect").unwrap();
        for _ in 0..n {
            let _ = r.rect("region rect").unwrap();
        }
        let _ = r.len("fc area").unwrap();
        let _ = r.u64("fc request").unwrap();
        let _ = r.u64("fc region").unwrap();
        let mode_at = r.offset();
        let mut corrupt = fp_bytes.clone();
        corrupt[mode_at] = 9;
        let e = read_floorplan_bin(&corrupt).unwrap_err();
        assert!(e.msg.contains("unknown relocation mode 9"), "{e}");
        assert_eq!(e.offset, mode_at);
    }

    #[test]
    fn floats_round_trip_exactly() {
        // Values decimal JSON would mangle or lengthen survive bit-for-bit.
        let mut p = sample_problem();
        p.weights.wirelength = 0.1 + 0.2; // 0.30000000000000004
        p.weights.perimeter = f64::MIN_POSITIVE;
        p.connections[0].weight = 1.0 / 3.0;
        let back = read_problem_bin(&write_problem_bin(&p)).unwrap();
        assert_eq!(back.weights.wirelength.to_bits(), p.weights.wirelength.to_bits());
        assert_eq!(back.weights.perimeter.to_bits(), p.weights.perimeter.to_bits());
        assert_eq!(back.connections[0].weight.to_bits(), p.connections[0].weight.to_bits());
    }

    #[test]
    fn empty_documents_round_trip() {
        let fp = Floorplan { regions: Vec::new(), fc_areas: Vec::new() };
        assert_eq!(read_floorplan_bin(&write_floorplan_bin(&fp)).unwrap(), fp);
    }
}
