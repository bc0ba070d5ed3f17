//! Tiled Householder QR (PLASMA-style flat-tree elimination), with a
//! dataflow engine and a sequential reference engine.
//!
//! For each step `k`:
//!
//! * `GEQRT` — QR of the diagonal tile `A[k][k]` (V + R in place, τ aside);
//! * `GEMQRT` — apply Qᵀ to the row tiles `A[k][j]`, `j > k`;
//! * `TPQRT` — annihilate `A[i][k]` against the triangle in `A[k][k]`, `i > k`;
//! * `TPMQRT` — apply each of those Qᵀs to the tile pairs `(A[k][j], A[i][j])`.
//!
//! The reflector tiles (`V`) and `τ` vectors are retained in [`TiledQr`], so
//! `Q` and `Qᵀ` can be applied later (solves, orthogonality tests).
//!
//! Limitation: the tiled engine requires `rows` and `cols` to be multiples
//! of the tile size `nb` with `rows >= cols` (edge-tile TPQRT needs
//! rectangular-pentagonal kernels the paper's evaluation does not exercise).

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use xsc_core::householder::{geqrf, ormqr, tpmqrt, tpqrt};
use xsc_core::{flops, trsm};
use xsc_core::{Matrix, Result, Scalar, TileMatrix, Transpose};
use xsc_runtime::{trace::Trace, Access, Executor, TaskGraph};

type TauSlot<T> = Arc<Mutex<Vec<T>>>;

/// A tiled QR factorization: reflectors and `R` packed in the tiles, `τ`
/// scalars stored per tile.
pub struct TiledQr<T> {
    /// Tiles holding `R` (upper part) and the reflector tails (`V`).
    pub tiles: TileMatrix<T>,
    taus_diag: Vec<TauSlot<T>>,
    taus_ts: BTreeMap<(usize, usize), TauSlot<T>>,
}

fn check_shape<T: Scalar>(a: &TileMatrix<T>) {
    assert!(
        a.rows().is_multiple_of(a.nb()) && a.cols().is_multiple_of(a.nb()),
        "tiled QR requires dimensions divisible by the tile size"
    );
    assert!(a.rows() >= a.cols(), "tiled QR requires rows >= cols");
}

/// Builds the task graph for the tiled QR of `a`, allocating the `τ` slots
/// that the returned [`TiledQr`] will own.
pub fn build_graph<T: Scalar>(a: TileMatrix<T>) -> (TaskGraph, TiledQr<T>) {
    check_shape(&a);
    let mt = a.tile_rows();
    let nt = a.tile_cols();
    let nb = a.nb();
    let kt = nt.min(mt);
    let taus_diag: Vec<TauSlot<T>> = (0..kt).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
    let mut taus_ts: BTreeMap<(usize, usize), TauSlot<T>> = BTreeMap::new();
    for k in 0..kt {
        for i in k + 1..mt {
            taus_ts.insert((i, k), Arc::new(Mutex::new(Vec::new())));
        }
    }

    let mut g = TaskGraph::new();
    for k in 0..kt {
        {
            let tkk = a.tile(k, k);
            let tau = Arc::clone(&taus_diag[k]);
            g.add_task_with_cost(
                format!("geqrt({k})"),
                [Access::Write(a.data_id(k, k))],
                flops::qr(nb, nb),
                move || {
                    let mut tile = tkk.write();
                    *tau.lock() = geqrf(&mut tile);
                },
            );
        }
        for j in k + 1..nt {
            let tkk = a.tile(k, k);
            let tkj = a.tile(k, j);
            let tau = Arc::clone(&taus_diag[k]);
            g.add_task_with_cost(
                format!("gemqrt({k},{j})"),
                [
                    Access::Read(a.data_id(k, k)),
                    Access::Write(a.data_id(k, j)),
                ],
                flops::gemm(nb, nb, nb),
                move || {
                    let v = tkk.read();
                    let tau = tau.lock();
                    ormqr(Transpose::Yes, &v, &tau, &mut tkj.write());
                },
            );
        }
        for i in k + 1..mt {
            {
                let tkk = a.tile(k, k);
                let tik = a.tile(i, k);
                let tau = Arc::clone(&taus_ts[&(i, k)]);
                g.add_task_with_cost(
                    format!("tpqrt({i},{k})"),
                    [
                        Access::Write(a.data_id(k, k)),
                        Access::Write(a.data_id(i, k)),
                    ],
                    2 * flops::gemm(nb, nb, nb),
                    move || {
                        let mut r = tkk.write();
                        let mut b = tik.write();
                        *tau.lock() = tpqrt(&mut r, &mut b);
                    },
                );
            }
            for j in k + 1..nt {
                let tik = a.tile(i, k);
                let tkj = a.tile(k, j);
                let tij = a.tile(i, j);
                let tau = Arc::clone(&taus_ts[&(i, k)]);
                g.add_task_with_cost(
                    format!("tpmqrt({i},{j},{k})"),
                    [
                        Access::Read(a.data_id(i, k)),
                        Access::Write(a.data_id(k, j)),
                        Access::Write(a.data_id(i, j)),
                    ],
                    2 * flops::gemm(nb, nb, nb),
                    move || {
                        let v2 = tik.read();
                        let tau = tau.lock();
                        tpmqrt(
                            Transpose::Yes,
                            &v2,
                            &tau,
                            &mut tkj.write(),
                            &mut tij.write(),
                        );
                    },
                );
            }
        }
    }
    (
        g,
        TiledQr {
            tiles: a,
            taus_diag,
            taus_ts,
        },
    )
}

/// Dataflow tiled QR: consumes `a` and returns the factorization plus the
/// execution trace.
pub fn qr_dag<T: Scalar>(a: TileMatrix<T>, executor: &Executor) -> Result<(TiledQr<T>, Trace)> {
    let (g, fact) = build_graph(a);
    let trace = executor.execute(g);
    Ok((fact, trace))
}

/// Sequential tiled QR (serial execution of the same kernel sequence) —
/// the reference the DAG engine is tested against.
pub fn qr_seq<T: Scalar>(a: TileMatrix<T>) -> Result<TiledQr<T>> {
    let (g, fact) = build_graph(a);
    g.execute_serial();
    Ok(fact)
}

impl<T: Scalar> TiledQr<T> {
    /// Applies `Qᵀ` (trans = Yes) or `Q` (trans = No) to a tiled block `b`
    /// with the same row tiling as the factored matrix.
    pub fn apply_q(&self, trans: Transpose, b: &TileMatrix<T>) {
        let a = &self.tiles;
        let mt = a.tile_rows();
        let nt = a.tile_cols();
        let kt = nt.min(mt);
        assert_eq!(b.tile_rows(), mt, "rhs row tiling mismatch");
        assert_eq!(b.nb(), a.nb(), "rhs tile size mismatch");
        let bn = b.tile_cols();
        match trans {
            Transpose::Yes => {
                for k in 0..kt {
                    for j in 0..bn {
                        let v = a.tile(k, k);
                        let v = v.read();
                        let tau = self.taus_diag[k].lock();
                        let bkj = b.tile(k, j);
                        ormqr(Transpose::Yes, &v, &tau, &mut bkj.write());
                    }
                    for i in k + 1..mt {
                        for j in 0..bn {
                            let v2 = a.tile(i, k);
                            let v2 = v2.read();
                            let tau = self.taus_ts[&(i, k)].lock();
                            let bkj = b.tile(k, j);
                            let bij = b.tile(i, j);
                            tpmqrt(
                                Transpose::Yes,
                                &v2,
                                &tau,
                                &mut bkj.write(),
                                &mut bij.write(),
                            );
                        }
                    }
                }
            }
            Transpose::No => {
                for k in (0..kt).rev() {
                    for i in (k + 1..mt).rev() {
                        for j in 0..bn {
                            let v2 = a.tile(i, k);
                            let v2 = v2.read();
                            let tau = self.taus_ts[&(i, k)].lock();
                            let bkj = b.tile(k, j);
                            let bij = b.tile(i, j);
                            tpmqrt(Transpose::No, &v2, &tau, &mut bkj.write(), &mut bij.write());
                        }
                    }
                    for j in 0..bn {
                        let v = a.tile(k, k);
                        let v = v.read();
                        let tau = self.taus_diag[k].lock();
                        let bkj = b.tile(k, j);
                        ormqr(Transpose::No, &v, &tau, &mut bkj.write());
                    }
                }
            }
        }
    }

    /// Gathers the `n × n` upper-triangular `R` factor.
    pub fn r_matrix(&self) -> Matrix<T> {
        let full = self.tiles.to_matrix();
        let n = self.tiles.cols();
        Matrix::from_fn(n, n, |i, j| if i <= j { full.get(i, j) } else { T::zero() })
    }

    /// Least-squares solve `min ‖A x − b‖₂`: applies `Qᵀ`, then solves with
    /// `R`. Returns `x` of length `cols`.
    pub fn solve_ls(&self, b: &[T]) -> Vec<T> {
        let m = self.tiles.rows();
        let n = self.tiles.cols();
        assert_eq!(b.len(), m, "rhs length mismatch");
        let bm = Matrix::from_col_major(m, 1, b.to_vec());
        let bt = TileMatrix::from_matrix(&bm, self.tiles.nb());
        self.apply_q(Transpose::Yes, &bt);
        let qtb = bt.to_matrix();
        let mut x: Vec<T> = (0..n).map(|i| qtb.get(i, 0)).collect();
        let r = self.r_matrix();
        trsm::trsv(
            trsm::Uplo::Upper,
            Transpose::No,
            trsm::Diag::NonUnit,
            &r,
            &mut x,
        );
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsc_core::{gemm::gemm, gen, norms};
    use xsc_runtime::SchedPolicy;

    fn gram(a: &Matrix<f64>) -> Matrix<f64> {
        let n = a.cols();
        let mut g = Matrix::zeros(n, n);
        gemm(Transpose::Yes, Transpose::No, 1.0, a, a, 0.0, &mut g);
        g
    }

    #[test]
    fn r_gram_matches_a_gram() {
        // R from QR satisfies RᵀR = AᵀA regardless of sign conventions.
        for (m, n, nb) in [(32, 32, 8), (48, 16, 16), (40, 24, 8)] {
            let a = gen::random_matrix::<f64>(m, n, 1);
            let tiles = TileMatrix::from_matrix(&a, nb);
            let f = qr_seq(tiles).unwrap();
            let r = f.r_matrix();
            let ga = gram(&a);
            let gr = gram(&r);
            assert!(
                gr.approx_eq(&ga, 1e-9 * m as f64),
                "({m},{n},{nb}) diff {}",
                gr.max_abs_diff(&ga)
            );
        }
    }

    #[test]
    fn dag_matches_sequential() {
        let m = 48;
        let n = 32;
        let nb = 16;
        let a = gen::random_matrix::<f64>(m, n, 2);
        let f_seq = qr_seq(TileMatrix::from_matrix(&a, nb)).unwrap();
        let exec = Executor::new(4, SchedPolicy::CriticalPath);
        let (f_dag, trace) = qr_dag(TileMatrix::from_matrix(&a, nb), &exec).unwrap();
        assert!(trace.tasks_run() > 0);
        let got = f_dag.tiles.to_matrix();
        let expect = f_seq.tiles.to_matrix();
        assert!(
            got.approx_eq(&expect, 1e-10),
            "diff {}",
            got.max_abs_diff(&expect)
        );
    }

    #[test]
    fn apply_qt_then_q_is_identity() {
        let m = 32;
        let n = 32;
        let a = gen::random_matrix::<f64>(m, n, 3);
        let f = qr_seq(TileMatrix::from_matrix(&a, 8)).unwrap();
        let b = gen::random_matrix::<f64>(m, 3, 4);
        let bt = TileMatrix::from_matrix(&b, 8);
        f.apply_q(Transpose::Yes, &bt);
        f.apply_q(Transpose::No, &bt);
        assert!(bt.to_matrix().approx_eq(&b, 1e-11));
    }

    #[test]
    fn q_times_r_reconstructs_a() {
        let m = 40;
        let n = 24;
        let nb = 8;
        let a = gen::random_matrix::<f64>(m, n, 5);
        let f = qr_seq(TileMatrix::from_matrix(&a, nb)).unwrap();
        // Build [R; 0] as a tiled matrix and apply Q to it.
        let r = f.r_matrix();
        let mut stacked = Matrix::<f64>::zeros(m, n);
        r.copy_block_into(0, 0, n, n, &mut stacked, 0, 0);
        let st = TileMatrix::from_matrix(&stacked, nb);
        f.apply_q(Transpose::No, &st);
        let qr_product = st.to_matrix();
        assert!(
            qr_product.approx_eq(&a, 1e-10),
            "diff {}",
            qr_product.max_abs_diff(&a)
        );
    }

    #[test]
    fn solve_square_system() {
        let n = 32;
        let a = gen::random_matrix::<f64>(n, n, 6);
        let b = gen::rhs_for_unit_solution(&a);
        let f = qr_seq(TileMatrix::from_matrix(&a, 8)).unwrap();
        let x = f.solve_ls(&b);
        assert!(norms::relative_residual(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn solve_overdetermined_normal_equations() {
        let m = 64;
        let n = 16;
        let a = gen::random_matrix::<f64>(m, n, 7);
        let b = gen::random_vector::<f64>(m, 8);
        let f = qr_seq(TileMatrix::from_matrix(&a, 16)).unwrap();
        let x = f.solve_ls(&b);
        let mut resid = b.clone();
        let mut ax = vec![0.0; m];
        xsc_core::gemm::gemv(Transpose::No, 1.0, &a, &x, 0.0, &mut ax);
        for (r, axi) in resid.iter_mut().zip(ax.iter()) {
            *r -= axi;
        }
        let mut atr = vec![0.0; n];
        xsc_core::gemm::gemv(Transpose::Yes, 1.0, &a, &resid, 0.0, &mut atr);
        assert!(norms::vec_inf_norm(&atr) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn ragged_tiles_rejected() {
        let a = gen::random_matrix::<f64>(33, 32, 9);
        let _ = qr_seq(TileMatrix::from_matrix(&a, 8));
    }
}
