//! Performance gate for the HPCG operator's assembly: `build_matrix`,
//! which writes the CSR arrays directly in row order, must take at most
//! 0.8x the time `CsrMatrix::from_triplets` takes on the same 48³
//! stencil's triplets, and both must give the same matrix (Gauss–Seidel
//! schedule included). The arms alternate in one process (5 pairs,
//! medians), so the gate compares a ratio, not absolute seconds. Both arms
//! run on one thread, so a busy parallel test runner slows them alike.

use xsc_metrics::Stopwatch;
use xsc_sparse::stencil::{build_matrix, Geometry};
use xsc_sparse::CsrMatrix;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

#[test]
fn direct_assembly_beats_triplets_at_48() {
    let g = Geometry::new(48, 48, 48);
    let n = g.len();
    let reference = build_matrix(g);
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
        let direct = build_matrix(g);
        t_direct.push(t.seconds());
        let input = trips.clone();
        let t = Stopwatch::start();
        let via = CsrMatrix::from_triplets(n, n, input);
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
