//! Criterion benchmarks of the core floorplanning pipeline and the
//! evaluation instances of the paper (Table II / Figures 4-5 inputs, the
//! solve-time discussion of Section VI).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rfp_baselines::{
    tessellation_floorplan, AnnealingConfig, AnnealingFloorplanner, TessellationConfig,
};
use rfp_bitstream::{relocate, Bitstream};
use rfp_device::compat::enumerate_free_compatible;
use rfp_device::{fabric_partition, xc5vfx70t, Rect};
use rfp_floorplan::candidates::{enumerate_candidates, CandidateConfig};
use rfp_floorplan::combinatorial::{solve_combinatorial, CombinatorialConfig};
use rfp_floorplan::engine::{
    FloorplanEngine, HeuristicMilpEngine, MilpEngine, SolveControl, SolveRequest,
};
use rfp_floorplan::heuristic::greedy_floorplan;
use rfp_floorplan::model::{FloorplanMilp, MilpBuildConfig};
use rfp_milp::{Solver, SolverConfig};
use rfp_workloads::generator::WorkloadSpec;
use rfp_workloads::{sdr2_problem, sdr3_problem, sdr_problem};

/// Table II / Section VI: solve the SDR, SDR2 and SDR3 instances on the
/// Virtex-5 FX70T with the combinatorial engine (lexicographic waste then
/// wire length), as used to regenerate Table II and Figures 4-5.
fn bench_sdr_instances(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_sdr_instances");
    group.sample_size(10);
    for (name, problem) in
        [("SDR", sdr_problem()), ("SDR2", sdr2_problem()), ("SDR3", sdr3_problem())]
    {
        group.bench_function(name, |b| {
            b.iter(|| {
                let cfg = CombinatorialConfig::with_time_limit(120.0);
                let r = solve_combinatorial(&problem, &cfg).expect("feasible");
                assert!(r.floorplan.is_some());
                r.best_waste
            })
        });
    }
    group.finish();
}

/// Feasibility analysis of Section VI: one free-compatible area for one
/// region at a time (first-feasible search per region).
fn bench_feasibility(c: &mut Criterion) {
    let mut group = c.benchmark_group("feasibility_analysis");
    group.sample_size(10);
    group.bench_function("sdr_all_regions", |b| {
        let problem = sdr_problem();
        b.iter(|| {
            rfp_floorplan::feasibility::feasibility_analysis(
                &problem,
                &CombinatorialConfig::default(),
            )
            .unwrap()
        })
    });
    group.finish();
}

/// Baselines of Table II: greedy seed, tessellation ([8]-style) and simulated
/// annealing ([9]-style) on the SDR design.
fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baselines_sdr");
    group.sample_size(10);
    let problem = sdr_problem();
    group.bench_function("greedy_seed", |b| b.iter(|| greedy_floorplan(&problem).unwrap()));
    group.bench_function("tessellation", |b| {
        b.iter(|| tessellation_floorplan(&problem, &TessellationConfig::default()).unwrap())
    });
    group.bench_function("simulated_annealing_5k", |b| {
        let annealer = AnnealingFloorplanner::new(AnnealingConfig {
            iterations: 5_000,
            ..AnnealingConfig::default()
        });
        b.iter(|| annealer.solve(&problem).unwrap())
    });
    group.finish();
}

/// Building blocks: candidate enumeration and free-compatible-area
/// enumeration on the full FX70T.
fn bench_building_blocks(c: &mut Criterion) {
    let mut group = c.benchmark_group("building_blocks");
    let problem = sdr_problem();
    let partition = problem.partition.clone();
    group.bench_function("candidates_video_decoder", |b| {
        let spec = &problem.regions[4];
        b.iter(|| enumerate_candidates(&partition, spec, &CandidateConfig::default()))
    });
    group.bench_function("free_compatible_enumeration", |b| {
        let source = Rect::new(1, 1, 4, 3);
        let occupied = [source, Rect::new(10, 1, 6, 8), Rect::new(25, 3, 5, 4)];
        b.iter(|| enumerate_free_compatible(&partition, &source, &occupied))
    });
    group.finish();
}

/// The O and HO MILP paths on a reduced device (the from-scratch solver's
/// scale), mirroring the paper's O-vs-HO trade-off discussion.
fn bench_milp_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("milp_o_vs_ho");
    group.sample_size(10);
    let spec = WorkloadSpec {
        n_regions: 2,
        utilisation: 0.3,
        device: rfp_device::SyntheticSpec {
            cols: 6,
            rows: 3,
            bram_every: 3,
            dsp_every: 0,
            ..Default::default()
        },
        bus_width: 8.0,
        ..WorkloadSpec::default()
    };
    let problem = spec.generate().problem;
    group.bench_function("model_generation", |b| {
        b.iter(|| FloorplanMilp::build(&problem, &MilpBuildConfig::optimal()).stats())
    });
    let request = SolveRequest::new(problem.clone()).with_time_limit(60.0);
    let engines: [(&str, Box<dyn FloorplanEngine>); 2] =
        [("O", Box::new(MilpEngine::default())), ("HO", Box::new(HeuristicMilpEngine::default()))];
    for (name, engine) in engines {
        group.bench_function(name, |b| {
            b.iter(|| {
                engine.solve(&request, &SolveControl::default()).wasted_frames().expect("feasible")
            })
        });
    }
    group.finish();
}

/// The raw MILP solver on a reference knapsack-style instance.
fn bench_milp_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("milp_solver");
    group.bench_function("knapsack_20_items", |b| {
        use rfp_milp::{ConOp, LinExpr, Model, Sense};
        b.iter_batched(
            || {
                let mut m = Model::new("knap", Sense::Maximize);
                let vars: Vec<_> = (0..20).map(|i| m.bin_var(format!("x{i}"))).collect();
                m.add_con(
                    "cap",
                    LinExpr::weighted_sum(
                        vars.iter().enumerate().map(|(i, &v)| (v, ((i * 7) % 13 + 1) as f64)),
                    ),
                    ConOp::Le,
                    40.0,
                );
                m.set_objective(LinExpr::weighted_sum(
                    vars.iter().enumerate().map(|(i, &v)| (v, ((i * 11) % 17 + 1) as f64)),
                ));
                m
            },
            |m| Solver::new(SolverConfig::default()).solve(&m).objective,
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Bitstream substrate: generation, relocation filtering and CRC.
fn bench_bitstream(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitstream");
    let partition = fabric_partition(&xc5vfx70t()).unwrap();
    let source = Rect::new(1, 1, 4, 3);
    let bs = Bitstream::generate(&partition, "module", source, 7).unwrap();
    group.bench_function("generate_4x3", |b| {
        b.iter(|| Bitstream::generate(&partition, "module", source, 7).unwrap().n_frames())
    });
    group.bench_function("relocate_4x3", |b| {
        let target = Rect::new(1, 5, 4, 3);
        b.iter(|| relocate(&partition, &bs, target).unwrap().crc)
    });
    group.bench_function("crc_verify_4x3", |b| b.iter(|| bs.verify().is_ok()));
    group.finish();
}

criterion_group!(
    benches,
    bench_sdr_instances,
    bench_feasibility,
    bench_baselines,
    bench_building_blocks,
    bench_milp_paths,
    bench_milp_solver,
    bench_bitstream
);
criterion_main!(benches);
