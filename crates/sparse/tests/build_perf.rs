//! Performance gates for the HPCG set-up.
//!
//! * `build_matrix`, which writes the CSR arrays directly in row order,
//!   must take at most 0.8x the time `CsrMatrix::from_triplets` takes on
//!   the same 48³ stencil's triplets, and both must give the same matrix
//!   (Gauss–Seidel schedule included). Both arms run in a one-thread
//!   pool, so the gate compares assembly methods, not thread counts.
//! * On two or more cores, building the 64³ four-level hierarchy and its
//!   right-hand side on the pool must take at most 0.8x the time it takes
//!   in a one-thread pool, with the same `b`. `#[ignore]`d in
//!   `cargo test` only because the parallel test runner keeps both cores
//!   busy with other tests; CI runs it in release:
//!   `cargo test --release -p xsc-sparse --test build_perf -- --ignored parallel_setup_beats_one_thread_at_64`.
//!
//! The arms alternate in one process (5 pairs, medians), so each gate
//! compares a ratio, not absolute seconds.

use xsc_metrics::Stopwatch;
use xsc_sparse::mg::{MgPreconditioner, Smoother};
use xsc_sparse::stencil::{build_matrix, build_rhs, Geometry};
use xsc_sparse::{CsrMatrix, SparseFormat};

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn one_thread() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
}

#[test]
fn direct_assembly_beats_triplets_at_48() {
    let g = Geometry::new(48, 48, 48);
    let n = g.len();
    let one = one_thread();
    let reference = one.install(|| build_matrix(g));
    let trips: Vec<(usize, usize, f64)> = (0..n)
        .flat_map(|i| {
            let (cols, vals) = reference.row(i);
            cols.iter().zip(vals).map(move |(&c, &v)| (i, c, v))
        })
        .collect();
    drop(reference);
    let (mut t_direct, mut t_trips) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Stopwatch::start();
        let direct = one.install(|| build_matrix(g));
        t_direct.push(t.seconds());
        let input = trips.clone();
        let t = Stopwatch::start();
        let via = one.install(|| CsrMatrix::from_triplets(n, n, input));
        t_trips.push(t.seconds());
        assert!(
            direct == via,
            "the two assemblies must give the same matrix"
        );
    }
    let (direct, via) = (median(t_direct), median(t_trips));
    eprintln!(
        "build_matrix: {direct:.4}s  from_triplets: {via:.4}s  ratio {:.2}",
        direct / via
    );
    assert!(
        direct <= 0.8 * via,
        "build_matrix ({direct:.4}s) must take at most 0.8x from_triplets ({via:.4}s) at 48³"
    );
}

/// `run_hpcg`'s set-up: the `csr32` hierarchy, whose level 0 is the
/// operator, and `b` from that operator.
fn setup(g: Geometry) -> (MgPreconditioner, Vec<f64>) {
    let mg = MgPreconditioner::with_format(g, 4, Smoother::SymGs, SparseFormat::Csr32)
        .expect("a 64³ operator fits u32 indices");
    let (b, _) = build_rhs(mg.fine_matrix());
    (mg, b)
}

#[test]
#[ignore = "wall-clock perf gate; needs two cores the parallel test runner does not leave free"]
fn parallel_setup_beats_one_thread_at_64() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        eprintln!("single-core host; skipping the parallel set-up gate");
        return;
    }
    let g = Geometry::new(64, 64, 64);
    let one = one_thread();
    let (mut t_one, mut t_pool, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Stopwatch::start();
        let serial = one.install(|| setup(g));
        let s = t.seconds();
        let t = Stopwatch::start();
        let pooled = setup(g);
        let p = t.seconds();
        assert!(
            serial.1 == pooled.1,
            "the pool must build the same right-hand side"
        );
        t_one.push(s);
        t_pool.push(p);
        ratios.push(p / s);
    }
    let ratio = median(ratios);
    eprintln!(
        "set-up 64³: one thread {:.4}s  pool ({} threads) {:.4}s  median ratio {ratio:.2}",
        median(t_one),
        rayon::current_num_threads(),
        median(t_pool)
    );
    assert!(
        ratio <= 0.8,
        "the set-up on the pool must take at most 0.8x one thread at 64³ (median ratio {ratio:.2})"
    );
}
