//! Scaling benchmarks beyond the paper's single case study:
//!
//! * device-size sweep (columns) at fixed utilisation;
//! * number of requested free-compatible areas per relocatable region
//!   (the SDR2 -> SDR3 axis of Table II, extended).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rfp_device::SyntheticSpec;
use rfp_floorplan::combinatorial::{solve_combinatorial, CombinatorialConfig};
use rfp_workloads::generator::WorkloadSpec;
use rfp_workloads::sdr::{sdr_problem, with_relocation_constraints};

fn bench_device_size_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_device_columns");
    group.sample_size(10);
    for cols in [12u32, 20, 32, 48] {
        let spec = WorkloadSpec {
            n_regions: 4,
            utilisation: 0.35,
            device: SyntheticSpec {
                cols,
                rows: 6,
                bram_every: 5,
                dsp_every: 9,
                ..Default::default()
            },
            fc_per_region: 1,
            relocatable_regions: 2,
            ..WorkloadSpec::default()
        };
        let problem = spec.generate().problem;
        group.bench_with_input(BenchmarkId::from_parameter(cols), &problem, |b, p| {
            b.iter(|| {
                solve_combinatorial(p, &CombinatorialConfig::with_time_limit(30.0))
                    .unwrap()
                    .best_waste
            })
        });
    }
    group.finish();
}

fn bench_fc_count_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_fc_areas_per_region");
    group.sample_size(10);
    for count in [0u32, 1, 2, 3] {
        let problem = with_relocation_constraints(sdr_problem(), count);
        group.bench_with_input(BenchmarkId::from_parameter(count), &problem, |b, p| {
            b.iter(|| {
                solve_combinatorial(p, &CombinatorialConfig::with_time_limit(120.0))
                    .unwrap()
                    .best_waste
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_device_size_sweep, bench_fc_count_sweep);
criterion_main!(benches);
