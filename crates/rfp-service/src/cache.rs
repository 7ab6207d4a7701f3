//! The cross-request outcome cache.
//!
//! Keyed on [`ProblemFingerprint`] — the stable digest of device structure,
//! demand and configuration — so two submissions of the *same* problem hit
//! the same entry no matter how their JSON was formatted or what the regions
//! were called. Three outcomes of a lookup:
//!
//! * **exact** — an identical problem was solved before; its
//!   [`SolveOutcome`] is returned as-is. A proven outcome can be served
//!   without running any engine at all (the fast path behind the service's
//!   repeat-job throughput).
//! * **near** — a problem on the same device at a small
//!   [`ProblemFingerprint::distance`]; the cached floorplan is adapted to
//!   the new region list (regions are matched *by name* across requests)
//!   and handed back as a warm start.
//! * **miss** — nothing usable; the job solves cold.
//!
//! Only floorplan-bearing outcomes are cached: an infeasibility proof is
//! cheap to re-derive relative to the risk of serving it for a near-match,
//! and a budget-exhausted run carries nothing to warm-start from.

use rfp_floorplan::engine::{adapt_floorplan, SolveOutcome};
use rfp_floorplan::fingerprint::ProblemFingerprint;
use rfp_floorplan::placement::Floorplan;
use rfp_floorplan::problem::FloorplanProblem;

/// Result of an [`OutcomeCache::lookup`].
#[derive(Debug, Clone)]
pub enum CacheLookup {
    /// An identical problem (same fingerprint) was solved before. Boxed so
    /// the miss arm of a lookup stays pointer-sized.
    Exact(Box<SolveOutcome>),
    /// A nearby problem's floorplan was adapted into a warm start.
    Near {
        /// The adapted, validated floorplan to warm-start from.
        warm: Floorplan,
        /// The fingerprint distance of the donor entry.
        distance: u64,
    },
    /// Nothing usable cached.
    Miss,
}

struct CacheEntry {
    fingerprint: ProblemFingerprint,
    /// Region names of the cached problem, in region order — the join key
    /// that maps a near-match's regions onto the cached floorplan.
    region_names: Vec<String>,
    outcome: SolveOutcome,
    /// Times this entry served a lookup (exact, or as a near-hit donor).
    hits: u64,
    /// Seconds the stored outcome took to solve — what a miss on this entry
    /// would cost to re-derive.
    cost_seconds: f64,
}

impl CacheEntry {
    /// Eviction weight: expected re-derivation cost saved by keeping the
    /// entry, `(1 + hits) × solve seconds`. The `1 +` keeps never-hit
    /// entries comparable by cost instead of uniformly zero, and the floor
    /// keeps instant solves from pinning the weight to zero regardless of
    /// how hot the entry is.
    fn weight(&self) -> f64 {
        (1 + self.hits) as f64 * self.cost_seconds.max(MIN_COST_SECONDS)
    }
}

/// Floor on an entry's recorded solve cost when computing eviction weights.
const MIN_COST_SECONDS: f64 = 1e-6;

/// A bounded outcome cache with cost-weighted eviction: when full, the entry
/// with the lowest `(1 + hits) × solve seconds` weight goes first, ties
/// broken by insertion order (oldest first). A frequently-hit entry survives
/// a flood of one-off submissions, and an expensive-to-recompute outcome
/// survives a flood of cheap ones. Exact re-insertions refresh the entry's
/// position and keep its accumulated hit count.
pub struct OutcomeCache {
    entries: Vec<CacheEntry>,
    capacity: usize,
    max_distance: u64,
    hits: u64,
    near_hits: u64,
    misses: u64,
    evictions: u64,
}

/// A lifetime snapshot of the cache's behaviour, as exposed by the serve
/// protocol's service-wide `status` and `stats` responses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheStats {
    /// Outcomes currently held.
    pub len: usize,
    /// Exact-fingerprint lookups served.
    pub hits: u64,
    /// Lookups served by adapting a nearby entry's floorplan.
    pub near_hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries displaced by the cost-weighted eviction policy.
    pub evictions: u64,
    /// Sum of the resident entries' eviction weights,
    /// `(1 + hits) × solve seconds` — the re-derivation cost the cache is
    /// currently protecting.
    pub weight_mass: f64,
}

/// Default maximum number of cached outcomes.
const DEFAULT_CAPACITY: usize = 256;

/// Default maximum fingerprint distance accepted for a near hit. The
/// distance scale (see [`ProblemFingerprint::distance`]) charges 1 for a
/// weight change, and `16 + 4·Δregions + Δframes` for a demand change, so
/// 256 admits moderate demand edits while rejecting wholesale rewrites.
const DEFAULT_MAX_DISTANCE: u64 = 256;

impl Default for OutcomeCache {
    fn default() -> Self {
        OutcomeCache::new(DEFAULT_CAPACITY, DEFAULT_MAX_DISTANCE)
    }
}

impl OutcomeCache {
    /// An empty cache holding at most `capacity` entries and accepting near
    /// hits up to `max_distance`.
    pub fn new(capacity: usize, max_distance: u64) -> Self {
        OutcomeCache {
            entries: Vec::new(),
            capacity: capacity.max(1),
            max_distance,
            hits: 0,
            near_hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Number of cached outcomes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The full lifetime snapshot, including evictions and the resident
    /// weight mass (see [`CacheStats`]).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            len: self.entries.len(),
            hits: self.hits,
            near_hits: self.near_hits,
            misses: self.misses,
            evictions: self.evictions,
            // `Sum for f64` folds from -0.0; re-anchor so an empty cache
            // reports 0, not -0, in the JSON snapshot.
            weight_mass: 0.0 + self.entries.iter().map(|e| e.weight()).sum::<f64>(),
        }
    }

    /// Looks the problem up. `fingerprint` must be
    /// [`ProblemFingerprint::of`] the same problem (the caller usually has
    /// it already for the job record).
    pub fn lookup(
        &mut self,
        problem: &FloorplanProblem,
        fingerprint: &ProblemFingerprint,
    ) -> CacheLookup {
        if let Some(i) = self.entries.iter().position(|e| e.fingerprint == *fingerprint) {
            self.hits += 1;
            self.entries[i].hits += 1;
            rfp_trace::count("service.cache.hits", 1);
            return CacheLookup::Exact(Box::new(self.entries[i].outcome.clone()));
        }

        // Near lookup: rank same-device entries by fingerprint distance and
        // take the first whose floorplan actually adapts to the new problem.
        let mut nearby: Vec<(u64, usize)> = self
            .entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                let d = fingerprint.distance(&e.fingerprint)?;
                (d <= self.max_distance).then_some((d, i))
            })
            .collect();
        nearby.sort_unstable();
        for (distance, i) in nearby {
            let adapted = {
                let entry = &self.entries[i];
                let previous =
                    entry.outcome.floorplan.as_ref().expect("only floorplans are cached");
                let mapping: Vec<Option<usize>> = problem
                    .regions
                    .iter()
                    .map(|r| entry.region_names.iter().position(|n| *n == r.name))
                    .collect();
                adapt_floorplan(previous, &mapping, problem)
            };
            if let Some(warm) = adapted {
                self.near_hits += 1;
                self.entries[i].hits += 1;
                rfp_trace::count("service.cache.near_hits", 1);
                return CacheLookup::Near { warm, distance };
            }
        }
        self.misses += 1;
        rfp_trace::count("service.cache.misses", 1);
        CacheLookup::Miss
    }

    /// Caches a solved outcome. Outcomes without a floorplan are ignored. An
    /// existing entry with the same fingerprint is replaced only when the
    /// new outcome is at least as good (proven beats unproven, then lower
    /// composite objective); either way the entry moves to the freshest
    /// position.
    pub fn insert(&mut self, problem: &FloorplanProblem, outcome: &SolveOutcome) {
        if outcome.floorplan.is_none() {
            return;
        }
        let fingerprint = ProblemFingerprint::of(problem);
        let region_names: Vec<String> = problem.regions.iter().map(|r| r.name.clone()).collect();
        let cost_seconds = outcome.stats.solve_seconds;
        let replaced = match self.entries.iter().position(|e| e.fingerprint == fingerprint) {
            Some(i) => {
                let old = self.entries.remove(i);
                if Self::better(outcome, &old.outcome) {
                    // The problem's popularity, not the outcome's age, is
                    // what eviction should weigh: keep the hit count. The
                    // cost follows the outcome actually stored — that is
                    // what a future miss would have to re-derive.
                    CacheEntry {
                        fingerprint,
                        region_names,
                        outcome: outcome.clone(),
                        hits: old.hits,
                        cost_seconds,
                    }
                } else {
                    old
                }
            }
            None => CacheEntry {
                fingerprint,
                region_names,
                outcome: outcome.clone(),
                hits: 0,
                cost_seconds,
            },
        };
        self.entries.push(replaced);
        while self.entries.len() > self.capacity {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by(|(i, a), (j, b)| a.weight().total_cmp(&b.weight()).then_with(|| i.cmp(j)))
                .map(|(i, _)| i)
                .expect("the cache is over capacity, so non-empty");
            self.entries.remove(victim);
            self.evictions += 1;
            rfp_trace::count("service.cache.evictions", 1);
        }
    }

    fn better(new: &SolveOutcome, old: &SolveOutcome) -> bool {
        if new.is_proven() != old.is_proven() {
            return new.is_proven();
        }
        let obj = |o: &SolveOutcome| o.metrics.as_ref().map_or(f64::INFINITY, |m| m.objective);
        obj(new) <= obj(old)
    }
}

impl std::fmt::Debug for OutcomeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OutcomeCache")
            .field("len", &self.entries.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits)
            .field("near_hits", &self.near_hits)
            .field("misses", &self.misses)
            .field("evictions", &self.evictions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_device::{columnar_partition, DeviceBuilder, ResourceVec};
    use rfp_floorplan::engine::{EngineStats, OutcomeStatus};
    use rfp_floorplan::problem::RegionSpec;

    /// A one-region problem whose demand (`tag + 1` CLB tiles) makes its
    /// fingerprint distinct per tag.
    fn problem(tag: u32) -> FloorplanProblem {
        let mut b = DeviceBuilder::new("cache-evict");
        let clb = b.tile_type("CLB", ResourceVec::new(1, 0, 0), 36);
        b.rows(4).columns(&[clb, clb, clb, clb]);
        let mut p = FloorplanProblem::new(columnar_partition(&b.build().unwrap()).unwrap());
        p.add_region(RegionSpec::new(format!("R{tag}"), vec![(clb, tag + 1)]));
        p
    }

    /// A floorplan-bearing outcome; the cache never validates it.
    fn outcome() -> SolveOutcome {
        SolveOutcome {
            status: OutcomeStatus::Proven,
            floorplan: Some(Floorplan::from_regions(vec![rfp_device::Rect::new(1, 1, 1, 1)])),
            metrics: None,
            detail: None,
            stats: EngineStats::new("test"),
        }
    }

    /// Like [`outcome`], but recording `seconds` of solve time.
    fn outcome_costing(seconds: f64) -> SolveOutcome {
        let mut o = outcome();
        o.stats.solve_seconds = seconds;
        o
    }

    #[test]
    fn hot_entries_survive_a_flood_of_cold_ones() {
        let mut cache = OutcomeCache::new(4, 0);
        let hot = problem(100);
        let hot_fp = ProblemFingerprint::of(&hot);
        cache.insert(&hot, &outcome());
        for _ in 0..5 {
            assert!(matches!(cache.lookup(&hot, &hot_fp), CacheLookup::Exact(_)));
        }
        // Flood with one-off entries, several times past capacity. Plain
        // FIFO eviction would push the hot entry out after the fourth.
        for tag in 0..16 {
            cache.insert(&problem(tag), &outcome());
        }
        assert_eq!(cache.len(), 4);
        assert!(
            matches!(cache.lookup(&hot, &hot_fp), CacheLookup::Exact(_)),
            "the repeatedly-hit entry must outlive the flood"
        );
    }

    #[test]
    fn expensive_entries_survive_a_flood_of_cheap_ones() {
        let mut cache = OutcomeCache::new(4, 0);
        let costly = problem(100);
        let costly_fp = ProblemFingerprint::of(&costly);
        // Never looked up — only its recorded 30s solve cost protects it.
        cache.insert(&costly, &outcome_costing(30.0));
        for tag in 0..16 {
            cache.insert(&problem(tag), &outcome_costing(0.001));
        }
        assert_eq!(cache.len(), 4);
        assert!(
            matches!(cache.lookup(&costly, &costly_fp), CacheLookup::Exact(_)),
            "the expensive outcome must outlive a flood of instant ones"
        );
        // But popularity can still beat raw cost: a cheap entry hit often
        // enough (weight 101 x 0.5s) outweighs an idle expensive one
        // (weight 1 x 30s) when a 40s newcomer forces an eviction.
        let hot = problem(200);
        let hot_fp = ProblemFingerprint::of(&hot);
        let mut cache = OutcomeCache::new(2, 0);
        cache.insert(&hot, &outcome_costing(0.5));
        cache.insert(&costly, &outcome_costing(30.0));
        for _ in 0..100 {
            assert!(matches!(cache.lookup(&hot, &hot_fp), CacheLookup::Exact(_)));
        }
        cache.insert(&problem(300), &outcome_costing(40.0));
        assert!(matches!(cache.lookup(&hot, &hot_fp), CacheLookup::Exact(_)));
        assert!(
            matches!(cache.lookup(&costly, &costly_fp), CacheLookup::Miss),
            "hits x cost weighting must prefer the hot cheap entry"
        );
    }

    #[test]
    fn untouched_entries_still_evict_oldest_first() {
        let mut cache = OutcomeCache::new(2, 0);
        for tag in 0..3 {
            cache.insert(&problem(tag), &outcome());
        }
        // Nothing was ever looked up, so the tie on zero hits breaks by
        // age: the first insertion is the victim.
        let p0 = problem(0);
        assert!(matches!(cache.lookup(&p0, &ProblemFingerprint::of(&p0)), CacheLookup::Miss));
        let p2 = problem(2);
        assert!(matches!(cache.lookup(&p2, &ProblemFingerprint::of(&p2)), CacheLookup::Exact(_)));
    }
}
