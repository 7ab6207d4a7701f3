//! Diagnostic probe for warm-started node re-solves on the reduced
//! floorplanning O model (ignored by default; run with `--ignored` and
//! `--nocapture` to see the numbers).

use rfp_floorplan::model::{FloorplanMilp, MilpBuildConfig};
use rfp_milp::simplex::{LpConfig, LpStatus, LuCache, StandardForm};
use rfp_workloads::generator::WorkloadSpec;

#[test]
#[ignore = "diagnostic probe, not a correctness test"]
fn warm_resolve_iteration_counts() {
    let spec = WorkloadSpec {
        n_regions: 3,
        utilisation: 0.35,
        device: rfp_device::SyntheticSpec {
            cols: 8,
            rows: 3,
            bram_every: 4,
            dsp_every: 0,
            ..Default::default()
        },
        fc_per_region: 1,
        relocatable_regions: 1,
        ..WorkloadSpec::default()
    };
    let problem = spec.generate().problem;
    let model = FloorplanMilp::build(&problem, &MilpBuildConfig::optimal());
    let m = &model.milp;
    let sf = StandardForm::from_model(m);
    let cfg = LpConfig::default();
    let bounds: Vec<(f64, f64)> = m.vars().iter().map(|v| (v.lb, v.ub)).collect();

    let t0 = std::time::Instant::now();
    let (root, snap) = sf.solve_cold(Some(&bounds), &cfg);
    println!(
        "root: status {:?}, obj {:.6}, iterations {}, {:.1} ms",
        root.status,
        root.objective,
        root.iterations,
        t0.elapsed().as_secs_f64() * 1e3
    );
    let snap = snap.expect("root optimal");

    // Branch on each fractional integer variable in turn; measure the warm
    // re-solve. Every child starts from the root basis, so all but the
    // first reuse its factors, as siblings do in the search.
    let mut lu = LuCache::default();
    let int_vars: Vec<usize> =
        m.vars().iter().enumerate().filter(|(_, v)| v.kind.is_integral()).map(|(j, _)| j).collect();
    let mut shown = 0;
    for &j in &int_vars {
        let v = root.values[j];
        if (v - v.round()).abs() <= 1e-6 {
            continue;
        }
        for up in [false, true] {
            let mut b = bounds.clone();
            b[j] = if up { (v.ceil(), b[j].1) } else { (b[j].0, v.floor()) };
            let t1 = std::time::Instant::now();
            let (warm, _) = sf.solve_warm(&snap, Some(&b), &cfg, &mut lu);
            let warm_ms = t1.elapsed().as_secs_f64() * 1e3;
            let t2 = std::time::Instant::now();
            let cold = sf.solve_with_bounds(Some(&b), &cfg);
            let cold_ms = t2.elapsed().as_secs_f64() * 1e3;
            println!(
                "var {j} {}: warm {:?} obj {:.6} iters {} ({:.1} ms) | cold {:?} obj {:.6} iters {} ({:.1} ms)",
                if up { "up  " } else { "down" },
                warm.status,
                warm.objective,
                warm.iterations,
                warm_ms,
                cold.status,
                cold.objective,
                cold.iterations,
                cold_ms,
            );
            if warm.status == LpStatus::Optimal && cold.status == LpStatus::Optimal {
                assert!((warm.objective - cold.objective).abs() < 1e-5);
            }
        }
        shown += 1;
        if shown >= 8 {
            break;
        }
    }
}
