//! Fekete-style defragmentation traces for the online simulator.
//!
//! "Defragmenting the Module Layout of a Partially Reconfigurable Device"
//! and "No-Break Dynamic Defragmentation of Reconfigurable Devices" (Fekete
//! et al.) evaluate module layouts on *event streams*: modules arrive with a
//! lifetime, depart, and the free space slowly shatters until a large
//! arrival forces the layout to be compacted. [`DefragWorkloadSpec`]
//! generates reproducible streams of that shape for
//! [`rfp_runtime::simulate`]; [`smoke_scenario`] is the small deterministic
//! instance pinned as `tests/golden/smoke.scenario.json` and run by the CI
//! `sim-smoke` job.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfp_device::{columnar_partition, DeviceBuilder, FabricPartition, ResourceVec, TileTypeId};
use rfp_floorplan::RegionSpec;
use rfp_runtime::Scenario;

use crate::hetero::HeteroDeviceSpec;

/// Specification of a synthetic defragmentation trace.
///
/// The device is built from scratch (rather than through
/// [`rfp_device::SyntheticSpec`]) so that only the tile types that actually
/// appear on it are registered — a requirement for byte-stable
/// `rfp-scenario` round trips.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefragWorkloadSpec {
    /// RNG seed; equal specs generate identical scenarios.
    pub seed: u64,
    /// Device columns.
    pub cols: u32,
    /// Device rows.
    pub rows: u32,
    /// Every `bram_every`-th column is a BRAM column (0 keeps the device
    /// all-CLB — a fully relocatable layout).
    pub bram_every: u32,
    /// Number of module instances in the stream.
    pub n_modules: usize,
    /// Smallest module requirement, in CLB tiles.
    pub min_tiles: u32,
    /// Largest module requirement, in CLB tiles.
    pub max_tiles: u32,
    /// Mean lifetime in logical time units (actual lifetimes are drawn
    /// uniformly from `mean_lifetime/2 ..= mean_lifetime*3/2`).
    pub mean_lifetime: u64,
    /// Insert a checkpoint every this many events (0 disables; a final
    /// checkpoint is always appended).
    pub checkpoint_every: usize,
    /// Generate the trace on a **heterogeneous fabric** instead of the
    /// columnar device: BRAM columns are striped (BRAM on odd rows only, so
    /// no columnar partition exists when `bram_every > 0`) and a die
    /// boundary splits the device at mid-height, making tall relocations
    /// fall back to regeneration. `false` keeps the original columnar
    /// device byte-for-byte.
    pub hetero: bool,
}

impl Default for DefragWorkloadSpec {
    fn default() -> Self {
        DefragWorkloadSpec {
            seed: 42,
            cols: 16,
            rows: 3,
            bram_every: 0,
            n_modules: 12,
            min_tiles: 3,
            max_tiles: 9,
            mean_lifetime: 6,
            checkpoint_every: 6,
            hetero: false,
        }
    }
}

impl DefragWorkloadSpec {
    /// A **high-utilisation** trace: modules are large relative to the
    /// device and live long, so many run concurrently and the free space
    /// rarely holds both buffers of a double-buffered move at once. This is
    /// the stress regime for the `no_break` policy — shadows are scarce, so
    /// its planner must chain and bounce moves (and the executor's
    /// stop-and-move fallback, with its non-zero downtime, actually gets
    /// exercised).
    pub fn high_utilisation(seed: u64) -> Self {
        DefragWorkloadSpec {
            seed,
            cols: 20,
            rows: 2,
            bram_every: 0,
            n_modules: 12,
            min_tiles: 5,
            max_tiles: 10,
            mean_lifetime: 10,
            checkpoint_every: 6,
            hetero: false,
        }
    }

    /// The device partition this spec generates its trace on, plus the CLB
    /// and (optional) BRAM tile-type ids of its registry.
    fn device_partition(&self) -> (FabricPartition, TileTypeId, Option<TileTypeId>) {
        if self.hetero {
            let spec = HeteroDeviceSpec {
                cols: self.cols,
                rows: self.rows,
                bram_every: self.bram_every,
                bram_stripe: 1,
                hard_block: None,
                die_boundaries: if self.rows >= 2 { vec![self.rows / 2] } else { vec![] },
            };
            let partition = spec.partition();
            let mut clb = None;
            let mut bram = None;
            for &ty in partition.cell_types() {
                match partition.frames_per_tile(ty) {
                    36 => clb = Some(ty),
                    30 => bram = Some(ty),
                    _ => {}
                }
            }
            (partition, clb.expect("hetero devices always have CLB cells"), bram)
        } else {
            let mut b = DeviceBuilder::new(format!("defrag-{}x{}", self.cols, self.rows));
            let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
            let bram =
                (self.bram_every > 0).then(|| b.tile_type("BRAM", ResourceVec::new(0, 1, 0), 30));
            b.rows(self.rows);
            for c in 1..=self.cols {
                match bram {
                    Some(bram) if c % self.bram_every == 0 => b.column(bram),
                    _ => b.column(clb),
                };
            }
            let device = b.build().expect("defrag workload device must build");
            let partition = columnar_partition(&device).expect("single-type columns are columnar");
            (partition.into(), clb, bram)
        }
    }

    /// Generates the scenario.
    ///
    /// Arrivals are spaced 1-2 time units apart; each instance departs after
    /// its lifetime. Departures at a timestamp precede arrivals at the same
    /// timestamp, so freed space is visible to the incoming module.
    ///
    /// # Panics
    /// Panics if the device dimensions are degenerate (zero columns/rows).
    pub fn generate(&self) -> Scenario {
        let (partition, clb, bram) = self.device_partition();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xDEF2A6);

        let mut scenario =
            Scenario::new(format!("defrag-{}x{}-{}", self.cols, self.rows, self.seed), partition);
        let lo = self.min_tiles.max(1);
        let hi = self.max_tiles.max(lo);
        // (time, is_departure, module): departures sort before arrivals at
        // the same timestamp.
        let mut timeline: Vec<(u64, bool, usize)> = Vec::new();
        let mut t = 0u64;
        for i in 0..self.n_modules {
            let tiles = rng.gen_range(lo..=hi);
            let mut req = vec![(clb, tiles)];
            if let Some(bram) = bram {
                // A quarter of the modules also need one BRAM tile, which
                // pins their relocation targets to the BRAM period.
                if rng.gen_bool(0.25) {
                    req.push((bram, 1));
                }
            }
            let id = scenario.add_module(RegionSpec::new(format!("M{i}"), req));
            timeline.push((t, false, id));
            // `mean_lifetime: 0` is clamped to 1 so the sample range is
            // never empty.
            let mean = self.mean_lifetime.max(1);
            let lifetime = rng.gen_range((mean / 2).max(1)..=(mean * 3 / 2).max(1));
            timeline.push((t + lifetime, true, id));
            t += rng.gen_range(1u64..=2);
        }
        timeline.sort_by_key(|&(t, depart, id)| (t, !depart, id));
        for (i, &(time, depart, id)) in timeline.iter().enumerate() {
            if depart {
                scenario.depart(time, id);
            } else {
                scenario.arrive(time, id);
            }
            if self.checkpoint_every > 0 && (i + 1) % self.checkpoint_every == 0 {
                scenario.checkpoint(time);
            }
        }
        let end = timeline.last().map(|&(t, ..)| t).unwrap_or(0);
        scenario.checkpoint(end);
        debug_assert!(scenario.validate().is_empty(), "{:?}", scenario.validate());
        scenario
    }
}

/// The deterministic CI-smoke scenario (golden file
/// `tests/golden/smoke.scenario.json`).
///
/// A 12x2 all-CLB device is filled with four 6-tile modules; two alternating
/// departures shatter the free space into islands, and a 10-tile arrival
/// then forces a defragmentation: the relocation-aware planner frees a
/// window with a single compatible move, while the oblivious baseline
/// left-compacts every survivor — the gap the acceptance test pins.
pub fn smoke_scenario() -> Scenario {
    let mut b = DeviceBuilder::new("smoke-12x2");
    let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
    b.rows(2).repeat_column(clb, 12);
    let partition = columnar_partition(&b.build().unwrap()).unwrap();
    let mut s = Scenario::new("defrag-smoke", partition);
    let fillers: Vec<_> =
        (0..4).map(|i| s.add_module(RegionSpec::new(format!("F{i}"), vec![(clb, 6)]))).collect();
    let big = s.add_module(RegionSpec::new("BIG", vec![(clb, 10)]));
    let tail = s.add_module(RegionSpec::new("TAIL", vec![(clb, 4)]));
    for (i, &f) in fillers.iter().enumerate() {
        s.arrive(i as u64, f);
    }
    s.depart(4, fillers[0]);
    s.depart(5, fillers[2]);
    s.checkpoint(6);
    s.arrive(7, big); // fits only after defragmentation
    s.checkpoint(8);
    s.depart(9, fillers[1]);
    s.arrive(10, tail);
    s.checkpoint(11);
    s
}

/// The smoke scenario as an `rfp-scenario` v1 JSON document.
pub fn smoke_scenario_json() -> String {
    rfp_runtime::write_scenario(&smoke_scenario())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_runtime::{simulate, DefragPolicy, OnlineConfig};

    #[test]
    fn generation_is_deterministic_and_valid() {
        let spec = DefragWorkloadSpec::default();
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a, b);
        assert!(a.validate().is_empty(), "{:?}", a.validate());
        assert_eq!(a.n_arrivals(), spec.n_modules);
        let other = DefragWorkloadSpec { seed: 7, ..spec }.generate();
        assert_ne!(a.modules, other.modules);
    }

    #[test]
    fn generated_traces_round_trip_through_the_scenario_format() {
        let s = DefragWorkloadSpec::default().generate();
        let doc = rfp_runtime::write_scenario(&s);
        let back = rfp_runtime::read_scenario(&doc).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn generated_traces_simulate_cleanly_under_all_policies() {
        let spec = DefragWorkloadSpec { n_modules: 8, ..DefragWorkloadSpec::default() };
        let s = spec.generate();
        for policy in DefragPolicy::ALL {
            let config = OnlineConfig { policy, ..OnlineConfig::default() };
            let report = simulate(&s, &config).unwrap();
            assert_eq!(report.violations(), 0, "{policy:?}: {report:#?}");
        }
    }

    #[test]
    fn high_utilisation_traces_keep_the_device_busy_and_stay_clean() {
        let spec = DefragWorkloadSpec::high_utilisation(3);
        let s = spec.generate();
        assert!(s.validate().is_empty(), "{:?}", s.validate());
        let device_tiles = u64::from(spec.cols) * u64::from(spec.rows);
        for policy in DefragPolicy::ALL {
            let config = OnlineConfig { policy, ..OnlineConfig::default() };
            let report = simulate(&s, &config).unwrap();
            assert_eq!(report.violations(), 0, "{policy:?}: {report:#?}");
            // The trace must actually reach high utilisation: at some point
            // at most a third of the device is free.
            let min_free = report.events.iter().map(|e| e.free_tiles).min().unwrap();
            assert!(
                min_free <= device_tiles / 3,
                "{policy:?}: trace never fills the device (min free {min_free})"
            );
        }
        // Stop-and-move policies pay downtime for every frame they move.
        let aware = simulate(
            &s,
            &OnlineConfig { policy: DefragPolicy::RelocationAware, ..OnlineConfig::default() },
        )
        .unwrap();
        assert_eq!(aware.downtime_frames(), aware.frames_moved());
    }

    #[test]
    fn smoke_scenario_is_valid_and_fragments_on_schedule() {
        let s = smoke_scenario();
        assert!(s.validate().is_empty());
        assert_eq!(s.n_arrivals(), 6);
        assert!(smoke_scenario_json().contains("\"rfp-scenario\""));
    }
}
