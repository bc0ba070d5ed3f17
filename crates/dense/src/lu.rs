//! Tiled LU factorization without pivoting, run as a dataflow task graph.
//!
//! Tile-level pivoting serializes the panel across tiles, which is exactly
//! the synchronization the keynote wants removed; the tiled engines here
//! therefore factor *without* pivoting and are intended for diagonally
//! dominant matrices or matrices preconditioned with the random butterfly
//! transform ([`crate::rbt`]). The pivoted, thread-parallel blocked LU used
//! by the HPL driver lives in [`crate::hpl`].

use crate::poison::Poison;
use xsc_core::{factor, flops, gemm, trsm};
use xsc_core::{Result, Scalar, TileMatrix, Transpose};
use xsc_runtime::{trace::Trace, Access, Executor, TaskGraph};

/// Builds the tiled no-pivot LU task graph over `a`:
///
/// * `GETRF A[k][k]`
/// * `TRSM  A[k][j] <- L[k][k]^-1 * A[k][j]` (unit-lower)    for `j > k`
/// * `TRSM  A[i][k] <- A[i][k] * U[k][k]^-1` (upper)         for `i > k`
/// * `GEMM  A[i][j] <- A[i][j] - A[i][k]*A[k][j]`             for `i, j > k`
pub fn build_graph<T: Scalar>(a: &TileMatrix<T>, poison: &Poison) -> TaskGraph {
    let nt = a.tile_cols();
    assert_eq!(a.tile_rows(), nt, "lu requires a square tile grid");
    let mut g = TaskGraph::new();
    for k in 0..nt {
        let (kb, _) = a.tile_dims(k, k);
        {
            let tkk = a.tile(k, k);
            let p = poison.clone();
            let id = g.add_task_with_cost(
                format!("getrf({k})"),
                [Access::Write(a.data_id(k, k))],
                flops::lu(kb),
                move || {
                    if p.is_set() {
                        return;
                    }
                    if let Err(e) = factor::getrf_nopiv(&mut tkk.write()) {
                        p.set(e);
                    }
                },
            );
            g.set_affinity(id, k as u64);
        }
        for j in k + 1..nt {
            let tkk = a.tile(k, k);
            let tkj = a.tile(k, j);
            let p = poison.clone();
            let (_, jb) = a.tile_dims(k, j);
            let id = g.add_task_with_cost(
                format!("trsm_l({k},{j})"),
                [
                    Access::Read(a.data_id(k, k)),
                    Access::Write(a.data_id(k, j)),
                ],
                flops::trsm(kb, jb),
                move || {
                    if p.is_set() {
                        return;
                    }
                    let lu_kk = tkk.read();
                    trsm::trsm(
                        trsm::Side::Left,
                        trsm::Uplo::Lower,
                        Transpose::No,
                        trsm::Diag::Unit,
                        T::one(),
                        &lu_kk,
                        &mut tkj.write(),
                    );
                },
            );
            g.set_affinity(id, k as u64);
        }
        for i in k + 1..nt {
            let tkk = a.tile(k, k);
            let tik = a.tile(i, k);
            let p = poison.clone();
            let (ib, _) = a.tile_dims(i, k);
            let id = g.add_task_with_cost(
                format!("trsm_u({i},{k})"),
                [
                    Access::Read(a.data_id(k, k)),
                    Access::Write(a.data_id(i, k)),
                ],
                flops::trsm(kb, ib),
                move || {
                    if p.is_set() {
                        return;
                    }
                    let lu_kk = tkk.read();
                    trsm::trsm(
                        trsm::Side::Right,
                        trsm::Uplo::Upper,
                        Transpose::No,
                        trsm::Diag::NonUnit,
                        T::one(),
                        &lu_kk,
                        &mut tik.write(),
                    );
                },
            );
            g.set_affinity(id, k as u64);
        }
        for i in k + 1..nt {
            for j in k + 1..nt {
                let tik = a.tile(i, k);
                let tkj = a.tile(k, j);
                let tij = a.tile(i, j);
                let p = poison.clone();
                let (ib, _) = a.tile_dims(i, k);
                let (_, jb) = a.tile_dims(k, j);
                let id = g.add_task_with_cost(
                    format!("gemm({i},{j},{k})"),
                    [
                        Access::Read(a.data_id(i, k)),
                        Access::Read(a.data_id(k, j)),
                        Access::Write(a.data_id(i, j)),
                    ],
                    flops::gemm(ib, jb, kb),
                    move || {
                        if p.is_set() {
                            return;
                        }
                        let l = tik.read();
                        let u = tkj.read();
                        gemm::gemm(
                            Transpose::No,
                            Transpose::No,
                            -T::one(),
                            &l,
                            &u,
                            T::one(),
                            &mut tij.write(),
                        );
                    },
                );
                g.set_affinity(id, k as u64);
            }
        }
    }
    g
}

/// Dataflow tiled LU without pivoting: factors `a` in place (unit-lower `L`
/// below the diagonal, `U` on and above).
pub fn lu_nopiv_dag<T: Scalar>(a: &TileMatrix<T>, executor: &Executor) -> Result<Trace> {
    let poison = Poison::new();
    let g = build_graph(a, &poison);
    let trace = executor.execute(g);
    poison.into_result()?;
    Ok(trace)
}

/// Solves `A x = b` from the tiled no-pivot factor (`b` overwritten).
pub fn solve_nopiv<T: Scalar>(lu_tiles: &TileMatrix<T>, b: &mut [T]) {
    let lu = lu_tiles.to_matrix();
    factor::getrf_nopiv_solve(&lu, b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsc_core::{gen, norms, Matrix};
    use xsc_runtime::SchedPolicy;

    fn reference(a: &Matrix<f64>) -> Matrix<f64> {
        let mut f = a.clone();
        factor::getrf_nopiv(&mut f).unwrap();
        f
    }

    #[test]
    fn dag_matches_reference() {
        for (n, nb) in [(32, 8), (45, 16), (30, 7)] {
            let a = gen::diag_dominant::<f64>(n, 1);
            let tiles = TileMatrix::from_matrix(&a, nb);
            let exec = Executor::new(4, SchedPolicy::CriticalPath);
            lu_nopiv_dag(&tiles, &exec).unwrap();
            let got = tiles.to_matrix();
            let expect = reference(&a);
            assert!(
                got.approx_eq(&expect, 1e-8),
                "n={n} nb={nb} diff {}",
                got.max_abs_diff(&expect)
            );
        }
    }

    #[test]
    fn dag_solve_end_to_end() {
        let n = 50;
        let a = gen::diag_dominant::<f64>(n, 3);
        let b = gen::rhs_for_unit_solution(&a);
        let tiles = TileMatrix::from_matrix(&a, 16);
        let exec = Executor::new(4, SchedPolicy::CriticalPath);
        lu_nopiv_dag(&tiles, &exec).unwrap();
        let mut x = b.clone();
        solve_nopiv(&tiles, &mut x);
        assert!(norms::relative_residual(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn singular_tile_reports_error() {
        let mut a = gen::diag_dominant::<f64>(16, 4);
        // Make the (0,0) tile singular: zero the first row of the matrix.
        for j in 0..16 {
            a.set(0, j, 0.0);
        }
        let tiles = TileMatrix::from_matrix(&a, 8);
        let exec = Executor::new(2, SchedPolicy::Fifo);
        assert!(lu_nopiv_dag(&tiles, &exec).is_err());
    }

    #[test]
    fn graph_task_count() {
        // nt = 3: getrf 3, trsm 2*(2+1), gemm 4+1 = 5.
        let a = TileMatrix::<f64>::zeros(24, 24, 8);
        let g = build_graph(&a, &Poison::new());
        assert_eq!(g.len(), 3 + 2 * 3 + 5);
    }
}
