//! Tiled Cholesky factorization, dataflow and fork-join engines.
//!
//! Right-looking tile algorithm (PLASMA `dpotrf`): for each step `k`
//!
//! * `POTRF  A[k][k]`
//! * `TRSM   A[i][k] <- A[i][k] * A[k][k]^-T`           for `i > k`
//! * `SYRK   A[i][i] <- A[i][i] - A[i][k]*A[i][k]^T`    for `i > k`
//! * `GEMM   A[i][j] <- A[i][j] - A[i][k]*A[j][k]^T`    for `i > j > k`
//!
//! `tile_ops` lists these operations once, in program order; every
//! engine is a wrapper around that list. The dataflow engine submits all
//! `O(nt³)` tasks up front with tile-level read/write declarations; the
//! fork-join engine runs the same graph one dependence level at a time
//! (potrf | trsm panel | trailing update of each step) with a barrier
//! between levels, which is exactly the utilization loss experiment E02
//! measures; the ABFT engine ([`crate::resilient`]) guards each op with a
//! checksum.

use crate::poison::Poison;
use parking_lot::RwLock;
use rayon::prelude::*;
use std::sync::Arc;
use xsc_core::{factor, flops, gemm, syrk, trsm};
use xsc_core::{Error, Matrix, Result, Scalar, TileMatrix, Transpose};
use xsc_runtime::{trace::Trace, Access, Executor, TaskGraph};

/// The xsc-core kernel a [`TileOp`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Potrf,
    Trsm,
    Syrk,
    Gemm,
}

impl Kind {
    /// Lower-case kernel name, as in task names.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Kind::Potrf => "potrf",
            Kind::Trsm => "trsm",
            Kind::Syrk => "syrk",
            Kind::Gemm => "gemm",
        }
    }
}

/// One tile operation of the factorization: it reads `ins` and updates
/// `out` in place.
pub(crate) struct TileOp<T> {
    pub kind: Kind,
    /// Task name, e.g. `gemm(3,1,0)`.
    pub name: String,
    /// Reads of `ins`, then the write of `out`.
    pub accesses: Vec<Access>,
    /// Flop count, the task cost.
    pub cost: u64,
    /// Step `k`: every op of a step reads the column-`k` panel.
    pub step: usize,
    ins: Vec<Arc<RwLock<Matrix<T>>>>,
    out: Arc<RwLock<Matrix<T>>>,
    /// Global index of the first row of `out`.
    row0: usize,
}

impl<T: Scalar> TileOp<T> {
    /// Locks the tiles (inputs shared, then the output exclusive) and hands
    /// them to `f`.
    pub(crate) fn with_tiles<R>(&self, f: impl FnOnce(&[&Matrix<T>], &mut Matrix<T>) -> R) -> R {
        let guards: Vec<_> = self.ins.iter().map(|t| t.read()).collect();
        let ins: Vec<&Matrix<T>> = guards.iter().map(|g| &**g).collect();
        f(&ins, &mut self.out.write())
    }

    /// Runs the op's kernel on locked tiles. A non-SPD diagonal tile
    /// reports its pivot as a global row index.
    pub(crate) fn apply(&self, ins: &[&Matrix<T>], out: &mut Matrix<T>) -> Result<()> {
        let one = T::one();
        match self.kind {
            Kind::Potrf => {
                return factor::potrf_unblocked(out).map_err(|e| shift_pivot(e, self.row0))
            }
            Kind::Trsm => trsm::trsm(
                trsm::Side::Right,
                trsm::Uplo::Lower,
                Transpose::Yes,
                trsm::Diag::NonUnit,
                one,
                ins[0],
                out,
            ),
            Kind::Syrk => syrk::syrk(trsm::Uplo::Lower, Transpose::No, -one, ins[0], one, out),
            Kind::Gemm => gemm::gemm(
                Transpose::No,
                Transpose::Yes,
                -one,
                ins[0],
                ins[1],
                one,
                out,
            ),
        }
        Ok(())
    }
}

/// The tile operations of the tiled Cholesky of `a`, in program order.
pub(crate) fn tile_ops<T: Scalar>(a: &TileMatrix<T>) -> Vec<TileOp<T>> {
    let nt = a.tile_cols();
    assert_eq!(a.tile_rows(), nt, "cholesky requires a square tile grid");
    let dim = |i| a.tile_dims(i, i).0;
    // The op of kind `kind` at step `k` that updates tile (i, j).
    let op = |kind, i, j, k| {
        let (name, ins, cost): (_, &[(usize, usize)], _) = match kind {
            Kind::Potrf => (format!("potrf({k})"), &[], flops::cholesky(dim(k))),
            Kind::Trsm => (
                format!("trsm({i},{k})"),
                &[(k, k)],
                flops::trsm(dim(k), dim(i)),
            ),
            Kind::Syrk => (
                format!("syrk({i},{k})"),
                &[(i, k)],
                flops::syrk(dim(i), dim(k)),
            ),
            Kind::Gemm => {
                let cost = flops::gemm(dim(i), dim(j), dim(k));
                (format!("gemm({i},{j},{k})"), &[(i, k), (j, k)], cost)
            }
        };
        TileOp {
            kind,
            name,
            accesses: ins
                .iter()
                .map(|&(r, c)| Access::Read(a.data_id(r, c)))
                .chain([Access::Write(a.data_id(i, j))])
                .collect(),
            cost,
            step: k,
            ins: ins.iter().map(|&(r, c)| a.tile(r, c)).collect(),
            out: a.tile(i, j),
            row0: i * a.nb(),
        }
    };
    let mut ops = Vec::new();
    for k in 0..nt {
        ops.push(op(Kind::Potrf, k, k, k));
        for i in k + 1..nt {
            ops.push(op(Kind::Trsm, i, k, k));
        }
        for i in k + 1..nt {
            ops.push(op(Kind::Syrk, i, i, k));
            for j in k + 1..i {
                ops.push(op(Kind::Gemm, i, j, k));
            }
        }
    }
    ops
}

/// Builds the tiled-Cholesky task graph over `a` (overwriting its lower
/// triangle of tiles with `L`). Exposed so the discrete-event simulator in
/// `xsc-machine` can replay the same DAG on a modeled machine.
pub fn build_graph<T: Scalar>(a: &TileMatrix<T>, poison: &Poison) -> TaskGraph {
    let mut g = TaskGraph::new();
    for op in tile_ops(a) {
        let p = poison.clone();
        let (name, accesses, step) = (op.name.clone(), op.accesses.clone(), op.step);
        let id = g.add_task_with_cost(name, accesses, op.cost, move || {
            if p.is_set() {
                return;
            }
            if let Err(e) = op.with_tiles(|ins, out| op.apply(ins, out)) {
                p.set(e);
            }
        });
        // Tag each step with affinity k: a stealing worker then prefers
        // tasks whose panel inputs it already has cached.
        g.set_affinity(id, step as u64);
    }
    g
}

fn shift_pivot(e: Error, base: usize) -> Error {
    match e {
        Error::NotPositiveDefinite { pivot } => Error::NotPositiveDefinite {
            pivot: base + pivot,
        },
        other => other,
    }
}

/// Dataflow tiled Cholesky: factors `a` in place (lower tiles become `L`)
/// using `executor`, returning the execution trace.
pub fn cholesky_dag<T: Scalar>(a: &TileMatrix<T>, executor: &Executor) -> Result<Trace> {
    let _scope = xsc_metrics::record(
        "cholesky",
        xsc_metrics::traffic::cholesky_blocked(a.rows(), a.nb(), std::mem::size_of::<T>() as u64),
    );
    let poison = Poison::new();
    let g = build_graph(a, &poison);
    let trace = executor.execute(g);
    poison.into_result()?;
    Ok(trace)
}

/// Fork-join (bulk-synchronous) tiled Cholesky: [`build_graph`]'s tasks,
/// run one dependence level at a time on the rayon pool with a barrier
/// after each level — after the potrf, the trsm panel and the trailing
/// update of every step `k`.
pub fn cholesky_forkjoin<T: Scalar>(a: &TileMatrix<T>) -> Result<()> {
    let _scope = xsc_metrics::record(
        "cholesky",
        xsc_metrics::traffic::cholesky_blocked(a.rows(), a.nb(), std::mem::size_of::<T>() as u64),
    );
    let poison = Poison::new();
    for level in build_graph(a, &poison).into_levels() {
        level.into_par_iter().for_each(|body| body());
    }
    poison.into_result()
}

/// Solves `A x = b` using the tiled factor produced by either engine;
/// gathers `L` and runs the two triangular solves. `b` is overwritten.
pub fn solve<T: Scalar>(l_tiles: &TileMatrix<T>, b: &mut [T]) {
    let l = lower_from_tiles(l_tiles);
    factor::potrf_solve(&l, b);
}

/// Gathers the tiled factor into a dense matrix whose lower triangle is `L`
/// (upper triangle zeroed — the tiled algorithm never touches upper tiles).
pub fn lower_from_tiles<T: Scalar>(a: &TileMatrix<T>) -> Matrix<T> {
    let full = a.to_matrix();
    let n = full.rows();
    Matrix::from_fn(n, n, |i, j| if i >= j { full.get(i, j) } else { T::zero() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsc_core::{gen, norms};
    use xsc_runtime::SchedPolicy;

    fn reference_lower(a: &Matrix<f64>, nb: usize) -> Matrix<f64> {
        let mut f = a.clone();
        factor::potrf_blocked(&mut f, nb).unwrap();
        let n = a.rows();
        Matrix::from_fn(n, n, |i, j| if i >= j { f.get(i, j) } else { 0.0 })
    }

    #[test]
    fn dag_matches_reference() {
        for (n, nb) in [(32, 8), (40, 12), (33, 16)] {
            let a = gen::random_spd::<f64>(n, 1);
            let tiles = TileMatrix::from_matrix(&a, nb);
            let exec = Executor::new(4, SchedPolicy::CriticalPath);
            cholesky_dag(&tiles, &exec).unwrap();
            let got = lower_from_tiles(&tiles);
            let expect = reference_lower(&a, nb);
            assert!(
                got.approx_eq(&expect, 1e-9),
                "n={n} nb={nb} diff {}",
                got.max_abs_diff(&expect)
            );
        }
    }

    #[test]
    fn forkjoin_matches_reference() {
        for (n, nb) in [(32, 8), (37, 10)] {
            let a = gen::random_spd::<f64>(n, 2);
            let tiles = TileMatrix::from_matrix(&a, nb);
            cholesky_forkjoin(&tiles).unwrap();
            let got = lower_from_tiles(&tiles);
            let expect = reference_lower(&a, nb);
            assert!(got.approx_eq(&expect, 1e-9), "n={n} nb={nb}");
        }
    }

    #[test]
    fn dag_solve_end_to_end() {
        let n = 48;
        let a = gen::random_spd::<f64>(n, 3);
        let b = gen::rhs_for_unit_solution(&a);
        let tiles = TileMatrix::from_matrix(&a, 16);
        let exec = Executor::new(4, SchedPolicy::CriticalPath);
        cholesky_dag(&tiles, &exec).unwrap();
        let mut x = b.clone();
        solve(&tiles, &mut x);
        assert!(norms::relative_residual(&a, &x, &b) < 1e-9);
    }

    #[test]
    fn dag_reports_not_spd_with_global_pivot() {
        let n = 24;
        let mut a = gen::random_spd::<f64>(n, 4);
        // Poison a diagonal entry deep in the matrix.
        a.set(17, 17, -100.0);
        let tiles = TileMatrix::from_matrix(&a, 8);
        let exec = Executor::new(4, SchedPolicy::CriticalPath);
        let err = cholesky_dag(&tiles, &exec).unwrap_err();
        match err {
            Error::NotPositiveDefinite { pivot } => assert!(pivot >= 16, "pivot {pivot}"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn forkjoin_reports_not_spd() {
        let mut a = gen::random_spd::<f64>(16, 5);
        a.set(3, 3, -1.0);
        let tiles = TileMatrix::from_matrix(&a, 8);
        assert!(cholesky_forkjoin(&tiles).is_err());
    }

    #[test]
    fn trace_utilization_is_sane() {
        let a = gen::random_spd::<f64>(64, 6);
        let tiles = TileMatrix::from_matrix(&a, 16);
        let exec = Executor::new(2, SchedPolicy::CriticalPath);
        let trace = cholesky_dag(&tiles, &exec).unwrap();
        assert!(trace.tasks_run() > 0);
        let u = trace.utilization();
        assert!(u > 0.0 && u <= 1.0);
    }

    #[test]
    fn graph_levels_are_the_fork_join_phases() {
        // Each step k is potrf | trsm panel | trailing update; the last
        // step is a lone potrf, so nt steps give 3·nt − 2 levels.
        for nt in [1usize, 2, 3, 5, 8] {
            let a = TileMatrix::<f64>::zeros(nt * 4, nt * 4, 4);
            let mut g = build_graph(&a, &Poison::new());
            let levels = g.levels();
            assert_eq!(levels.len(), 3 * nt - 2, "nt={nt}");
            for (l, level) in levels.iter().enumerate() {
                let kinds: Vec<&str> = level
                    .iter()
                    .map(|&id| g.task_name(id).split('(').next().unwrap())
                    .collect();
                let expect: &[&str] = match l % 3 {
                    0 => &["potrf"],
                    1 => &["trsm"],
                    _ => &["syrk", "gemm"],
                };
                assert!(
                    kinds.iter().all(|k| expect.contains(k)),
                    "nt={nt} level {l}: {kinds:?}"
                );
                assert!(l % 3 != 0 || level.len() == 1, "one potrf per step");
            }
        }
    }

    #[test]
    fn graph_task_count_is_nt_choose_formula() {
        // nt tiles: potrf nt, trsm nt(nt-1)/2, syrk nt(nt-1)/2,
        // gemm nt(nt-1)(nt-2)/6.
        let a = TileMatrix::<f64>::zeros(64, 64, 16); // nt = 4
        let g = build_graph(&a, &Poison::new());
        let nt = 4u64;
        let expect = nt + nt * (nt - 1) / 2 + nt * (nt - 1) / 2 + nt * (nt - 1) * (nt - 2) / 6;
        assert_eq!(g.len() as u64, expect);
    }
}
