//! E08 — autotuning: kernel performance is a non-monotone function of
//! blocking parameters, so the tiled-Cholesky tile size and the blocked
//! GEMM's configuration — cache parameters (`MC`/`KC`/`NC`) *and*
//! micro-kernel variant — are *searched for*. The GEMM winner is printed,
//! not installed: every other experiment's `gemm`/`par_gemm` runs the
//! default configuration whether or not E08 ran first.

use crate::table::{f2, secs, Table};
use crate::Scale;
use xsc_autotune::gemm_tune::tune_gemm_config;
use xsc_autotune::{exhaustive, hill_climb, median_of};
use xsc_core::{flops, gen, GemmParams, MicroKernel, TileMatrix};
use xsc_dense::cholesky;
use xsc_runtime::{Executor, SchedPolicy};

/// Median-of-3 timing of a tiled Cholesky at tile size `nb`.
fn measure(a: &xsc_core::Matrix<f64>, nb: usize, exec: &Executor) -> f64 {
    median_of(3, || {
        let tiles = TileMatrix::from_matrix(a, nb);
        let t = std::time::Instant::now();
        cholesky::cholesky_dag(&tiles, exec).unwrap();
        t.elapsed().as_secs_f64()
    })
}

/// Runs the experiment and prints its table.
pub fn run(scale: Scale) {
    let n = scale.pick(768, 1536);
    let a = gen::random_spd::<f64>(n, 21);
    let exec = Executor::with_all_cores(SchedPolicy::CriticalPath);
    let candidates: Vec<usize> = vec![16, 24, 32, 48, 64, 96, 128, 192, 256, 384];

    let sweep = exhaustive(&candidates, |nb| measure(&a, nb, &exec));
    let mut t = Table::new(&["tile size nb", "time", "Gflop/s", "winner"]);
    for &(nb, cost) in &sweep.samples {
        t.row(vec![
            nb.to_string(),
            secs(cost),
            f2(flops::gflops(flops::cholesky(n), cost)),
            if nb == sweep.best {
                "<-- best".into()
            } else {
                String::new()
            },
        ]);
    }
    t.print(&format!("E08: tile-size sweep, tiled DAG Cholesky n={n}"));

    let hc = hill_climb(&candidates, 20, |nb| measure(&a, nb, &exec));
    println!(
        "  hill-climb found nb={} in {} evaluations (exhaustive: {}), within {:.1}% of the sweep optimum",
        hc.best,
        hc.evaluations,
        sweep.evaluations,
        ((hc.best_cost / sweep.best_cost - 1.0) * 100.0).max(0.0)
    );
    println!("  keynote claim: kernel performance is a non-obvious function of blocking");
    println!("  parameters; autotuning search replaces hand-derived settings.");

    // Part 2: joint GEMM configuration sweep — cache blocking crossed with
    // every micro-kernel variant runnable on this CPU. All variants are
    // bit-identical, so the winner would change only speed, never results.
    let s = scale.pick(256, 512);
    let sweep = tune_gemm_config(s, scale.pick(1, 3), &[]);
    let gemm_flops = flops::gemm(s, s, s);
    let mut t = Table::new(&["MC", "KC", "NC", "kernel", "time", "Gflop/s", "winner"]);
    for &(cfg, cost) in &sweep.samples {
        t.row(vec![
            cfg.params.mc.to_string(),
            cfg.params.kc.to_string(),
            cfg.params.nc.to_string(),
            cfg.kernel.to_string(),
            secs(cost),
            f2(flops::gflops(gemm_flops, cost)),
            if cfg == sweep.best {
                "<-- best".into()
            } else {
                String::new()
            },
        ]);
    }
    t.print(&format!(
        "E08b: GEMM config sweep (MC/KC/NC x microkernel), dgemm {s}^3"
    ));
    let default_cost = sweep
        .samples
        .iter()
        .find(|(cfg, _)| cfg.params == GemmParams::DEFAULT && cfg.kernel == MicroKernel::Scalar)
        .map(|&(_, c)| c);
    println!(
        "  best {} ({:.2} Gflop/s{}); gemm/par_gemm keep the defaults",
        sweep.best,
        flops::gflops(gemm_flops, sweep.best_cost),
        default_cost
            .map(|c| format!(
                ", {:.1}% over the scalar hand-picked default",
                (c / sweep.best_cost - 1.0) * 100.0
            ))
            .unwrap_or_default()
    );
}
