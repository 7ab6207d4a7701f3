//! The seeded inputs of every workload. The harness generates them from the
//! `--seed` argument; the program under test only ever sees the generated
//! problems, scenarios and job documents.

use crate::catalogue::COMB_CATALOGUE;
use relocfp::device::SyntheticSpec;
use relocfp::floorplan::{binio, jsonio, FloorplanProblem, RegionSpec, RelocationRequest};
use relocfp::runtime::Scenario;
use relocfp::workloads::defrag::DefragWorkloadSpec;
use relocfp::workloads::generator::WorkloadSpec;
use relocfp::workloads::hetero::HeteroDeviceSpec;

/// The paper's SDR case study, as committed in `tests/golden`.
pub const SDR_RFPB: &[u8] = include_bytes!("../../tests/golden/sdr.problem.rfpb");
/// The heterogeneous golden instance, as committed in `tests/golden`.
pub const HETERO_RFPB: &[u8] = include_bytes!("../../tests/golden/hetero.problem.rfpb");

/// SplitMix64: a tiny seeded generator, so the harness needs no RNG crate.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE9C_4F1E_u64)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded Fisher-Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i as u64 + 1) as usize);
        }
        order
    }
}

/// Decodes a problem document the way `rfp solve` does: `rfpb` by its magic
/// bytes, `rfp-problem` JSON otherwise.
pub fn decode_problem(bytes: &[u8]) -> Result<FloorplanProblem, String> {
    if binio::is_binary(bytes) {
        binio::read_problem_bin(bytes).map_err(|e| e.to_string())
    } else {
        let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
        jsonio::read_problem(text).map_err(|e| e.to_string())
    }
}

/// One encoded solve input.
#[derive(Debug, Clone)]
pub struct SolveInput {
    pub name: String,
    /// The encoded problem (`rfp-problem` JSON or `rfpb`).
    pub bytes: Vec<u8>,
    /// The committed proven objective, when one exists.
    pub expected: Option<f64>,
}

impl SolveInput {
    fn json(name: String, problem: &FloorplanProblem, expected: Option<f64>) -> SolveInput {
        SolveInput { name, bytes: jsonio::write_problem(problem).into_bytes(), expected }
    }
}

/// MILP portion-model instance: a columnar 8x3 device (BRAM every third
/// column), two regions chained by a 32-bit bus, paper-default weights.
pub fn portion_instance(seed: u64) -> FloorplanProblem {
    WorkloadSpec {
        seed,
        n_regions: 2,
        utilisation: 0.4,
        device: SyntheticSpec {
            cols: 8,
            rows: 3,
            bram_every: 3,
            dsp_every: 0,
            ..Default::default()
        },
        dsp_fraction: 0.0,
        ..WorkloadSpec::default()
    }
    .generate()
    .problem
}

/// MILP candidate-assignment instance: the default heterogeneous 8x4 fabric
/// (striped BRAM, one die boundary), two regions, one free-compatible area
/// requested in metric mode.
pub fn assignment_instance(seed: u64) -> FloorplanProblem {
    let mut problem = WorkloadSpec {
        seed,
        n_regions: 2,
        utilisation: 0.4,
        dsp_fraction: 0.0,
        fc_per_region: 1,
        relocatable_regions: 1,
        ..WorkloadSpec::default()
    }
    .generate_on(HeteroDeviceSpec::default().partition());
    for request in std::mem::take(&mut problem.relocation) {
        problem.request_relocation(RelocationRequest::metric(request.region, request.count, 1.0));
    }
    problem
}

/// Combinatorial scaling instance of the `solver_bench` family: 6 rows,
/// BRAM every fifth and DSP every ninth column, four regions, one
/// constraint-mode free-compatible area for each of the first two.
pub fn scaling_instance(cols: u32, seed: u64) -> FloorplanProblem {
    WorkloadSpec {
        seed,
        n_regions: 4,
        utilisation: 0.35,
        device: SyntheticSpec { cols, rows: 6, bram_every: 5, dsp_every: 9, ..Default::default() },
        fc_per_region: 1,
        relocatable_regions: 2,
        ..WorkloadSpec::default()
    }
    .generate()
    .problem
}

/// Generator seeds of each MILP family in the `solve-milp` catalogue.
const MILP_FAMILY_SIZE: u64 = 24;

/// `problem` with its regions in a seeded order. Connections and
/// relocation requests follow their regions, so the optimum — and every
/// committed objective — is unchanged, while the engines see a different
/// variable and branching order.
fn permute_regions(problem: &FloorplanProblem, rng: &mut Rng) -> FloorplanProblem {
    let order = rng.permutation(problem.regions.len());
    let mut new_index = vec![0; order.len()];
    for (new, &old) in order.iter().enumerate() {
        new_index[old] = new;
    }
    let mut permuted = FloorplanProblem::new(problem.partition.clone());
    permuted.weights = problem.weights;
    for &old in &order {
        permuted.add_region(problem.regions[old].clone());
    }
    for c in &problem.connections {
        permuted.connect(new_index[c.a], new_index[c.b], c.weight);
    }
    for r in &problem.relocation {
        permuted.request_relocation(RelocationRequest { region: new_index[r.region], ..*r });
    }
    permuted
}

/// A run's inputs from a catalogue: every entry, in an order drawn from
/// `seed`, region-permuted when `permute`. Covering the whole catalogue
/// keeps the mix of easy and hard instances the same from seed to seed.
fn seeded(
    catalogue: Vec<(String, FloorplanProblem, Option<f64>)>,
    seed: u64,
    permute: bool,
) -> Vec<SolveInput> {
    let mut rng = Rng::new(seed);
    let order = rng.permutation(catalogue.len());
    order
        .into_iter()
        .map(|i| {
            let (name, problem, expected) = &catalogue[i];
            let problem =
                if permute { permute_regions(problem, &mut rng) } else { problem.clone() };
            SolveInput::json(name.clone(), &problem, *expected)
        })
        .collect()
}

/// The `solve-milp` inputs: both MILP families in seeded order, plus the
/// heterogeneous golden problem. Expected values come from the independent
/// combinatorial engine at check time. Regions keep their generated order:
/// swapping the two regions of an instance moves its `milp` time by up to
/// a factor of two, which would drown a regression in seed-to-seed noise.
pub fn milp_inputs(seed: u64) -> Vec<SolveInput> {
    let mut catalogue = Vec::new();
    for s in 0..MILP_FAMILY_SIZE {
        catalogue.push((format!("portion-{s}"), portion_instance(s), None));
        catalogue.push((format!("assign-{s}"), assignment_instance(s), None));
    }
    let mut inputs = seeded(catalogue, seed, false);
    inputs.push(SolveInput {
        name: "hetero-golden".into(),
        bytes: HETERO_RFPB.to_vec(),
        expected: None,
    });
    inputs
}

/// The `solve-comb` inputs: the committed scaling catalogue, in seeded
/// order and region-permuted, plus the paper's SDR instance.
pub fn comb_inputs(seed: u64) -> Vec<SolveInput> {
    let catalogue = COMB_CATALOGUE
        .iter()
        .map(|&(cols, s, objective)| {
            (format!("scaling-{cols}c-{s}"), scaling_instance(cols, s), Some(objective))
        })
        .collect();
    let mut inputs = seeded(catalogue, seed, true);
    inputs.push(SolveInput {
        name: "sdr-golden".into(),
        bytes: SDR_RFPB.to_vec(),
        expected: Some(crate::catalogue::SDR_OBJECTIVE),
    });
    inputs
}

/// Modules per generated defragmentation trace.
const TRACE_MODULES: usize = 24;

/// The `online` inputs: `groups` seeded trace groups, each the default
/// columnar trace, a high-utilisation trace and a heterogeneous-fabric trace.
pub fn online_scenarios(seed: u64, groups: usize) -> Vec<Scenario> {
    let mut rng = Rng::new(seed);
    let mut scenarios = Vec::with_capacity(3 * groups);
    for _ in 0..groups {
        let s = rng.next_u64();
        let columnar =
            DefragWorkloadSpec { seed: s, n_modules: TRACE_MODULES, ..Default::default() };
        let high = DefragWorkloadSpec {
            n_modules: TRACE_MODULES,
            ..DefragWorkloadSpec::high_utilisation(s ^ 1)
        };
        let hetero = DefragWorkloadSpec {
            seed: s ^ 2,
            n_modules: TRACE_MODULES,
            bram_every: 4,
            hetero: true,
            ..Default::default()
        };
        scenarios.extend([columnar.generate(), high.generate(), hetero.generate()]);
    }
    scenarios
}

/// How a serve job relates to the jobs before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// An exact repeat of a hot-set problem.
    Hot,
    /// A hot-set problem with one region's demand edited.
    Near,
    /// A problem nobody submitted before.
    Fresh,
}

/// The `serve` job stream: one `rfp-problem` document per job, plus the
/// bookkeeping the answer checks need.
#[derive(Debug, Clone)]
pub struct JobStream {
    pub docs: Vec<String>,
    pub kinds: Vec<JobKind>,
    /// Index into `problems` of each job's problem.
    pub problem_of: Vec<usize>,
    /// The distinct problems of the stream.
    pub problems: Vec<FloorplanProblem>,
}

/// Hot-set size of the serve stream.
const HOT_SET: usize = 16;

/// A small serve problem on a columnar device of the given shape.
fn serve_problem(seed: u64, cols: u32, rows: u32) -> FloorplanProblem {
    WorkloadSpec {
        seed,
        n_regions: 3,
        utilisation: 0.4,
        device: SyntheticSpec { cols, rows, bram_every: 4, dsp_every: 0, ..Default::default() },
        dsp_fraction: 0.0,
        ..WorkloadSpec::default()
    }
    .generate()
    .problem
}

/// Generator seed of the serve problem population: the hot set and the
/// sequence of fresh problems are fixed, and `--seed` draws the job
/// sequence over them. Drawing the population from `--seed` too swung the
/// median latency by 60% across five seeds.
const STREAM_CATALOGUE_SEED: u64 = 0;

/// A stream of `jobs` jobs drawn from `seed`, in bursts of `burst` jobs.
/// Every burst holds the same mix — 60% exact repeats of a 16-problem hot
/// set, 20% near repeats (one region of a hot problem gains one CLB tile),
/// 20% fresh problems on columnar devices of 8-12 columns and 2-3 rows — in
/// a seeded order, so no burst is heavier than another by the luck of the
/// draw.
pub fn serve_stream(seed: u64, jobs: usize, burst: usize) -> JobStream {
    let mut population = Rng::new(STREAM_CATALOGUE_SEED);
    let mut rng = Rng::new(seed);
    let mut problems: Vec<FloorplanProblem> =
        (0..HOT_SET).map(|_| serve_problem(population.next_u64(), 12, 3)).collect();
    let mut near_index: std::collections::BTreeMap<(usize, usize), usize> = Default::default();
    let mix: Vec<JobKind> = (0..burst)
        .map(|i| match i * 5 / burst {
            0..=2 => JobKind::Hot,
            3 => JobKind::Near,
            _ => JobKind::Fresh,
        })
        .collect();
    let mut stream = JobStream {
        docs: Vec::with_capacity(jobs),
        kinds: Vec::with_capacity(jobs),
        problem_of: Vec::with_capacity(jobs),
        problems: Vec::new(),
    };
    while stream.docs.len() < jobs {
        for slot in rng.permutation(burst).into_iter().take(jobs - stream.docs.len()) {
            let kind = mix[slot];
            let index = match kind {
                JobKind::Hot => rng.below(HOT_SET as u64) as usize,
                JobKind::Near => {
                    let hot = rng.below(HOT_SET as u64) as usize;
                    let region = rng.below(problems[hot].regions.len() as u64) as usize;
                    *near_index.entry((hot, region)).or_insert_with(|| {
                        problems.push(grow_region(&problems[hot], region));
                        problems.len() - 1
                    })
                }
                JobKind::Fresh => {
                    let cols = 8 + population.below(5) as u32;
                    let rows = 2 + population.below(2) as u32;
                    problems.push(serve_problem(population.next_u64(), cols, rows));
                    problems.len() - 1
                }
            };
            stream.docs.push(jsonio::write_problem(&problems[index]));
            stream.kinds.push(kind);
            stream.problem_of.push(index);
        }
    }
    stream.problems = problems;
    stream
}

/// `problem` with one more CLB tile in region `region`.
fn grow_region(problem: &FloorplanProblem, region: usize) -> FloorplanProblem {
    let mut edited = problem.clone();
    let partition = &edited.partition;
    let spec = &edited.regions[region];
    let req: Vec<_> = spec
        .tile_req()
        .iter()
        .map(
            |&(ty, n)| {
                if partition.frames_per_tile(ty) == CLB_FRAMES {
                    (ty, n + 1)
                } else {
                    (ty, n)
                }
            },
        )
        .collect();
    edited.regions[region] = RegionSpec::new(spec.name.clone(), req);
    edited
}

/// Frames per CLB tile, by which the generators recognise the CLB type.
const CLB_FRAMES: u32 = 36;
