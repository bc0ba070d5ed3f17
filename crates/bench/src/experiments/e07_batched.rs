//! E07 — batched small-matrix BLAS vs the one-call-per-matrix loop.

use crate::table::{f2, secs, Table};
use crate::{best_of, time_it, Scale};
use xsc_batched::{batched_gemm, batched_potrf, looped_gemm, Batch};
use xsc_core::flops;

/// Runs the experiment and prints its table.
pub fn run(scale: Scale) {
    let total_flops: u64 = scale.pick(200_000_000, 2_000_000_000);
    let reps = scale.pick(2, 3);
    let mut t = Table::new(&[
        "matrix size",
        "batch count",
        "looped",
        "batched",
        "speedup",
        "batched Gflop/s",
    ]);
    for m in [4usize, 8, 16, 32] {
        let per = flops::gemm(m, m, m);
        let count = (total_flops / per).max(1) as usize;
        let a = Batch::<f64>::from_fn(m, m, count, |k, i, j| {
            ((k + i * 3 + j) % 7) as f64 * 0.25 - 0.5
        });
        let b = a.clone();
        let mut c = Batch::<f64>::zeros(m, m, count);
        let t_loop = best_of(reps, || looped_gemm(1.0, &a, &b, 0.0, &mut c));
        let t_batch = best_of(reps, || batched_gemm(1.0, &a, &b, 0.0, &mut c));
        t.row(vec![
            format!("{m}x{m}"),
            count.to_string(),
            secs(t_loop),
            secs(t_batch),
            f2(t_loop / t_batch),
            f2(flops::gflops(per * count as u64, t_batch)),
        ]);
    }
    t.print("E07: batched GEMM vs per-matrix loop (constant total flops)");

    // Batched Cholesky throughput.
    let m = 8usize;
    let count = scale.pick(20_000, 200_000);
    let spd = Batch::<f64>::from_fn(m, m, count, |k, i, j| {
        if i == j {
            (m + (k % 5)) as f64
        } else {
            -0.5 + ((i * j + k) % 3) as f64 * 0.25
        }
    });
    // Each repetition factors a fresh copy of `spd`, restored outside the
    // timed region so the rate counts factorizations only.
    let mut work = spd.clone();
    let t_potrf = (0..reps)
        .map(|_| {
            work.clone_from(&spd);
            time_it(|| batched_potrf(&mut work).unwrap())
        })
        .fold(f64::INFINITY, f64::min);
    let rate = count as f64 / t_potrf;
    println!(
        "\n  batched potrf: {count} x {m}x{m} factorizations in {:.3}s = {:.0} factors/s",
        t_potrf, rate
    );
    println!("  keynote claim: flat batched execution beats per-call dispatch by integer factors");
    println!("  for tiny matrices, where call overhead rivals the arithmetic.");
}
