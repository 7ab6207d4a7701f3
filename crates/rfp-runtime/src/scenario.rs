//! Online reconfiguration scenarios: timestamped module arrival/departure
//! event streams, plus the `rfp-scenario` v1 JSON format.
//!
//! A [`Scenario`] is the input of the online simulator: the device, a
//! catalogue of module instances (one [`RegionSpec`] per instance — every
//! instance arrives at most once and departs at most once), and a
//! time-ordered list of [`Event`]s. This is the scenario class of Fekete et
//! al.'s defragmentation work: modules come and go while the device keeps
//! running, and placement quality is judged over the whole stream rather
//! than on one static instance.
//!
//! The JSON document reuses the device/region sections of
//! [`rfp_floorplan::jsonio`] (`rfp-problem` v1), so problems and scenarios
//! stay mutually readable by the same tooling:
//!
//! ```json
//! {
//!   "format": "rfp-scenario",
//!   "version": 1,
//!   "device": { ... },
//!   "modules": [ {"name":"M0","req":[[0,4]]}, ... ],
//!   "events": [ {"t":0,"kind":"arrive","module":0},
//!               {"t":7,"kind":"depart","module":0},
//!               {"t":9,"kind":"checkpoint"} ]
//! }
//! ```

use rfp_device::FabricPartition;
use rfp_floorplan::binio::{
    bin_version_for, read_device_bin, read_region_bin, write_device_bin, write_region_bin,
    BinError, BinKind, BinReader, BinWriter,
};
use rfp_floorplan::jsonio::{
    escape, parse, read_device, read_region, DeviceSection, JsonError, JsonValue,
};
use rfp_floorplan::RegionSpec;

/// Format tag of scenario documents (`jsonio` v1 family).
pub const SCENARIO_FORMAT: &str = "rfp-scenario";
/// Current schema version of the scenario format.
pub const SCENARIO_VERSION: u64 = 1;
/// Schema version of scenarios on heterogeneous fabrics (per-cell device
/// grid and/or die boundaries). Legacy columnar scenarios keep writing
/// version 1 byte-for-byte.
pub const SCENARIO_VERSION_V2: u64 = 2;

/// Index of a module instance inside a [`Scenario`].
pub type ModuleId = usize;

/// What happens at one point of the event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A module instance requests admission.
    Arrive(ModuleId),
    /// A running module instance terminates and releases its area.
    Depart(ModuleId),
    /// A measurement point: the simulator records the fragmentation state
    /// and re-checks every runtime invariant.
    Checkpoint,
}

/// One timestamped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Logical timestamp (non-decreasing along the stream).
    pub time: u64,
    /// The event itself.
    pub kind: EventKind,
}

/// A complete online reconfiguration scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (used in reports and artifact files).
    pub name: String,
    /// The tile fabric the stream runs on (columnar devices are the special
    /// case with a columnar view).
    pub partition: FabricPartition,
    /// The module-instance catalogue; events reference entries by index.
    pub modules: Vec<RegionSpec>,
    /// The event stream, in time order.
    pub events: Vec<Event>,
}

impl Scenario {
    /// Creates an empty scenario on a device.
    pub fn new(name: impl Into<String>, partition: impl Into<FabricPartition>) -> Self {
        Scenario {
            name: name.into(),
            partition: partition.into(),
            modules: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Adds a module instance to the catalogue and returns its id.
    pub fn add_module(&mut self, spec: RegionSpec) -> ModuleId {
        self.modules.push(spec);
        self.modules.len() - 1
    }

    /// Appends an arrival event.
    pub fn arrive(&mut self, time: u64, module: ModuleId) {
        self.events.push(Event { time, kind: EventKind::Arrive(module) });
    }

    /// Appends a departure event.
    pub fn depart(&mut self, time: u64, module: ModuleId) {
        self.events.push(Event { time, kind: EventKind::Depart(module) });
    }

    /// Appends a checkpoint event.
    pub fn checkpoint(&mut self, time: u64) {
        self.events.push(Event { time, kind: EventKind::Checkpoint });
    }

    /// Number of arrival events.
    pub fn n_arrivals(&self) -> usize {
        self.events.iter().filter(|e| matches!(e.kind, EventKind::Arrive(_))).count()
    }

    /// Validates the stream: timestamps non-decreasing, every referenced
    /// module exists, every instance arrives at most once, departs at most
    /// once and only while running. Returns human-readable violations.
    pub fn validate(&self) -> Vec<String> {
        let mut issues = Vec::new();
        let mut last_time = 0u64;
        let mut state: Vec<u8> = vec![0; self.modules.len()]; // 0 new, 1 running, 2 departed
        for (i, e) in self.events.iter().enumerate() {
            if e.time < last_time {
                issues.push(format!("event #{i}: timestamp {} goes backwards", e.time));
            }
            last_time = last_time.max(e.time);
            match e.kind {
                EventKind::Checkpoint => {}
                EventKind::Arrive(m) | EventKind::Depart(m) if m >= self.modules.len() => {
                    issues.push(format!("event #{i}: unknown module {m}"));
                }
                EventKind::Arrive(m) => {
                    if state[m] != 0 {
                        issues.push(format!("event #{i}: module {m} arrives more than once"));
                    }
                    state[m] = 1;
                }
                EventKind::Depart(m) => {
                    if state[m] != 1 {
                        issues.push(format!("event #{i}: module {m} departs while not running"));
                    }
                    state[m] = 2;
                }
            }
        }
        issues
    }
}

// ---------------------------------------------------------------------------
// `rfp-scenario` v1 writer / reader.
// ---------------------------------------------------------------------------

/// Renders a scenario as an `rfp-scenario` v1 JSON document (deterministic,
/// trailing newline — usable as a golden file).
pub fn write_scenario(scenario: &Scenario) -> String {
    let section = DeviceSection::new(&scenario.partition, &scenario.modules);
    let version = if scenario.partition.is_columnar_legacy() {
        SCENARIO_VERSION
    } else {
        SCENARIO_VERSION_V2
    };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"format\": \"{SCENARIO_FORMAT}\",\n"));
    out.push_str(&format!("  \"version\": {version},\n"));
    out.push_str(&format!("  \"name\": \"{}\",\n", escape(&scenario.name)));
    out.push_str(&section.write_device(&scenario.partition));
    out.push_str(",\n");
    out.push_str("  \"modules\": [");
    for (i, m) in scenario.modules.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {}", section.write_region(m)));
    }
    if !scenario.modules.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str("  \"events\": [");
    for (i, e) in scenario.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let body = match e.kind {
            EventKind::Arrive(m) => format!("\"kind\":\"arrive\",\"module\":{m}"),
            EventKind::Depart(m) => format!("\"kind\":\"depart\",\"module\":{m}"),
            EventKind::Checkpoint => "\"kind\":\"checkpoint\"".to_string(),
        };
        out.push_str(&format!("\n    {{\"t\":{},{body}}}", e.time));
    }
    if !scenario.events.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n");
    out.push_str("}\n");
    out
}

/// Parses an `rfp-scenario` v1 document.
///
/// The device is rebuilt through the public `rfp-device` constructors exactly
/// like `rfp-problem` documents, so `read(write(s)) == s`. The event stream
/// is *not* semantically validated here; call [`Scenario::validate`] before
/// simulating.
pub fn read_scenario(input: &str) -> Result<Scenario, JsonError> {
    read_scenario_value(&parse(input)?)
}

/// Reads an already-parsed `rfp-scenario` v1 value (see [`read_scenario`]).
pub fn read_scenario_value(doc: &JsonValue) -> Result<Scenario, JsonError> {
    let tag = doc.field("format")?.as_str()?;
    if tag != SCENARIO_FORMAT {
        return Err(JsonError(format!("expected format `{SCENARIO_FORMAT}`, found `{tag}`")));
    }
    let version = doc.field("version")?.as_u64()?;
    if version != SCENARIO_VERSION && version != SCENARIO_VERSION_V2 {
        return Err(JsonError(format!(
            "unsupported {SCENARIO_FORMAT} version {version} (this build reads versions \
             {SCENARIO_VERSION} and {SCENARIO_VERSION_V2})"
        )));
    }
    let name = doc.field("name")?.as_str()?.to_string();
    let (partition, ids) = read_device(doc.field("device")?)?;
    let mut scenario = Scenario::new(name, partition);
    for m in doc.field("modules")?.as_arr()? {
        scenario.modules.push(read_region(m, &ids)?);
    }
    for (i, e) in doc.field("events")?.as_arr()?.iter().enumerate() {
        let time = e.field("t")?.as_u64()?;
        let module = |e: &JsonValue| -> Result<usize, JsonError> {
            Ok(e.field("module")?.as_u64()? as usize)
        };
        let kind = match e.field("kind")?.as_str()? {
            "arrive" => EventKind::Arrive(module(e)?),
            "depart" => EventKind::Depart(module(e)?),
            "checkpoint" => EventKind::Checkpoint,
            other => return Err(JsonError(format!("event #{i}: unknown kind `{other}`"))),
        };
        scenario.events.push(Event { time, kind });
    }
    Ok(scenario)
}

// ---------------------------------------------------------------------------
// `rfpb` scenario writer / reader (kind 3 of `rfp_floorplan::binio`).
// ---------------------------------------------------------------------------

/// Encodes a scenario as an `rfpb` scenario document — the binary twin of
/// [`write_scenario`], built on the shared device/region sections of
/// [`rfp_floorplan::binio`]. This is the trace format the sweep harness
/// materialises generated workloads into: written once, replayed per policy
/// without paying JSON parse costs.
pub fn write_scenario_bin(scenario: &Scenario) -> Vec<u8> {
    let section = DeviceSection::new(&scenario.partition, &scenario.modules);
    let mut w = BinWriter::with_version(BinKind::Scenario, bin_version_for(&scenario.partition));
    w.str(&scenario.name);
    write_device_bin(&mut w, &scenario.partition, &section);
    w.len(scenario.modules.len());
    for m in &scenario.modules {
        write_region_bin(&mut w, m, &section);
    }
    w.len(scenario.events.len());
    for e in &scenario.events {
        w.u64(e.time);
        match e.kind {
            EventKind::Arrive(m) => {
                w.u8(0);
                w.u64(m as u64);
            }
            EventKind::Depart(m) => {
                w.u8(1);
                w.u64(m as u64);
            }
            EventKind::Checkpoint => w.u8(2),
        }
    }
    w.finish()
}

/// Decodes an `rfpb` scenario document written by [`write_scenario_bin`].
///
/// Like [`read_scenario`], the stream is not semantically validated; call
/// [`Scenario::validate`] before simulating.
pub fn read_scenario_bin(bytes: &[u8]) -> Result<Scenario, BinError> {
    let mut r = BinReader::new(bytes);
    r.expect_kind(BinKind::Scenario)?;
    let name = r.str("scenario name")?;
    let (partition, ids) = read_device_bin(&mut r)?;
    let mut scenario = Scenario::new(name, partition);
    let n_modules = r.len("module")?;
    for _ in 0..n_modules {
        scenario.modules.push(read_region_bin(&mut r, &ids)?);
    }
    let n_events = r.len("event")?;
    for i in 0..n_events {
        let time = r.u64("event time")?;
        let at = r.offset();
        let kind = match r.u8("event kind")? {
            0 => EventKind::Arrive(r.u64("event module")? as usize),
            1 => EventKind::Depart(r.u64("event module")? as usize),
            2 => EventKind::Checkpoint,
            other => {
                return Err(BinError {
                    offset: at,
                    msg: format!("event #{i}: unknown kind {other}"),
                })
            }
        };
        scenario.events.push(Event { time, kind });
    }
    r.expect_end()?;
    Ok(scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_device::{columnar_partition, DeviceBuilder, ResourceVec};

    fn tiny_scenario() -> Scenario {
        let mut b = DeviceBuilder::new("scenario-tiny");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        let bram = b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30);
        b.rows(3).columns(&[clb, clb, bram, clb, clb, bram]);
        let p = columnar_partition(&b.build().unwrap()).unwrap();
        let mut s = Scenario::new("tiny \"stream\"", p);
        let a = s.add_module(RegionSpec::new("A", vec![(clb, 2), (bram, 1)]));
        let b2 = s.add_module(RegionSpec::new("B", vec![(clb, 2)]));
        s.arrive(0, a);
        s.arrive(1, b2);
        s.checkpoint(2);
        s.depart(5, a);
        s.checkpoint(6);
        s
    }

    #[test]
    fn scenarios_round_trip_byte_stable() {
        let s = tiny_scenario();
        let doc = write_scenario(&s);
        let back = read_scenario(&doc).unwrap();
        assert_eq!(back, s);
        assert_eq!(write_scenario(&back), doc);
    }

    #[test]
    fn validation_catches_bad_streams() {
        let mut s = tiny_scenario();
        assert!(s.validate().is_empty());
        s.depart(7, 1);
        s.depart(8, 1);
        let issues = s.validate();
        assert!(issues.iter().any(|m| m.contains("departs while not running")), "{issues:?}");
        let mut s2 = tiny_scenario();
        s2.arrive(9, 0);
        assert!(s2.validate().iter().any(|m| m.contains("arrives more than once")));
        let mut s3 = tiny_scenario();
        s3.events[2].time = 0; // goes backwards after t=1
        assert!(s3.validate().iter().any(|m| m.contains("goes backwards")));
        let mut s4 = tiny_scenario();
        s4.arrive(9, 42);
        assert!(s4.validate().iter().any(|m| m.contains("unknown module 42")));
    }

    #[test]
    fn scenarios_round_trip_through_binary_byte_stable() {
        let s = tiny_scenario();
        let bytes = write_scenario_bin(&s);
        assert!(rfp_floorplan::binio::is_binary(&bytes));
        assert_eq!(rfp_floorplan::binio::detect_kind(&bytes).unwrap(), BinKind::Scenario);
        let back = read_scenario_bin(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(write_scenario_bin(&back), bytes);
        // And the two formats decode to the same scenario.
        assert_eq!(read_scenario(&write_scenario(&s)).unwrap(), back);
    }

    #[test]
    fn binary_reader_rejects_truncation_and_corruption() {
        let s = tiny_scenario();
        let bytes = write_scenario_bin(&s);
        for cut in 0..bytes.len() {
            assert!(read_scenario_bin(&bytes[..cut]).is_err(), "cut at byte {cut} must fail");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(read_scenario_bin(&trailing).unwrap_err().msg.contains("trailing"));
        // A problem document handed to the scenario reader.
        let mut wrong_kind = bytes.clone();
        wrong_kind[4] = BinKind::Problem.tag();
        let e = read_scenario_bin(&wrong_kind).unwrap_err();
        assert!(e.msg.contains("expected an rfp-scenario"), "{e}");
        // An out-of-range event-kind byte: the last event is a checkpoint,
        // so its kind byte is the last byte of the document.
        let mut bad_kind = bytes.clone();
        *bad_kind.last_mut().unwrap() = 7;
        let e = read_scenario_bin(&bad_kind).unwrap_err();
        assert!(e.msg.contains("unknown kind 7"), "{e}");
    }

    #[test]
    fn reader_rejects_foreign_and_future_documents() {
        let s = tiny_scenario();
        let doc = write_scenario(&s);
        let bumped = doc.replace("\"version\": 1", "\"version\": 9");
        assert!(read_scenario(&bumped).unwrap_err().0.contains("version 9"));
        let wrong = doc.replace("rfp-scenario", "rfp-problem");
        assert!(read_scenario(&wrong).is_err());
        let truncated = &doc[..doc.len() / 2];
        assert!(read_scenario(truncated).is_err());
        let bad_kind = doc.replace("\"kind\":\"depart\"", "\"kind\":\"pause\"");
        assert!(read_scenario(&bad_kind).unwrap_err().0.contains("unknown kind `pause`"));
    }
}
