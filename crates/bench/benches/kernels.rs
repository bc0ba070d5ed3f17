//! Criterion microbenchmarks for the node-level kernels every experiment
//! builds on: GEMM, tiled Cholesky (both engines), SpMV, SymGS, batched
//! GEMM, and the mixed-precision solve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use xsc_batched::{batched_gemm, Batch};
use xsc_core::gemm::{gemm, par_gemm, Transpose};
use xsc_core::{flops, gen, Matrix, TileMatrix};
use xsc_dense::cholesky;
use xsc_precision::ir::lu_ir_solve;
use xsc_runtime::{Executor, SchedPolicy};
use xsc_sparse::stencil::{build_matrix, build_rhs, Geometry};
use xsc_sparse::symgs::symgs;
use xsc_sparse::SparseOps;

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    group.sample_size(10);
    for n in [128usize, 256] {
        let a = gen::random_matrix::<f64>(n, n, 1);
        let b = gen::random_matrix::<f64>(n, n, 2);
        let mut out = Matrix::<f64>::zeros(n, n);
        group.throughput(Throughput::Elements(flops::gemm(n, n, n)));
        group.bench_with_input(BenchmarkId::new("seq", n), &n, |bch, _| {
            bch.iter(|| gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut out));
        });
        group.bench_with_input(BenchmarkId::new("par", n), &n, |bch, _| {
            bch.iter(|| par_gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut out));
        });
    }
    group.finish();
}

fn bench_cholesky(c: &mut Criterion) {
    let mut group = c.benchmark_group("cholesky_tiled");
    group.sample_size(10);
    let n = 512;
    let nb = 64;
    let a = gen::random_spd::<f64>(n, 3);
    let exec = Executor::with_all_cores(SchedPolicy::CriticalPath);
    group.throughput(Throughput::Elements(flops::cholesky(n)));
    group.bench_function("dag", |bch| {
        bch.iter(|| {
            let tiles = TileMatrix::from_matrix(&a, nb);
            cholesky::cholesky_dag(&tiles, &exec).unwrap();
        });
    });
    group.bench_function("forkjoin", |bch| {
        bch.iter(|| {
            let tiles = TileMatrix::from_matrix(&a, nb);
            cholesky::cholesky_forkjoin(&tiles).unwrap();
        });
    });
    group.finish();
}

fn bench_sparse(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse");
    group.sample_size(10);
    let g = Geometry::new(32, 32, 32);
    let a = build_matrix(g);
    let (b, _) = build_rhs(&a);
    let x: Vec<f64> = (0..a.nrows()).map(|i| (i % 7) as f64).collect();
    let mut y = vec![0.0; a.nrows()];
    group.throughput(Throughput::Elements(flops::spmv(a.nnz())));
    group.bench_function("spmv_seq", |bch| bch.iter(|| a.spmv(&x, &mut y)));
    group.bench_function("spmv_par", |bch| bch.iter(|| a.spmv_par(&x, &mut y)));
    let mut xs = vec![0.0; a.nrows()];
    group.bench_function("symgs", |bch| bch.iter(|| symgs(&a, &b, &mut xs)));
    group.finish();
}

fn bench_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_gemm_8x8");
    group.sample_size(10);
    let count = 10_000;
    let a = Batch::<f64>::from_fn(8, 8, count, |k, i, j| ((k + i + j) % 5) as f64);
    let b = a.clone();
    let mut out = Batch::<f64>::zeros(8, 8, count);
    group.throughput(Throughput::Elements(flops::gemm(8, 8, 8) * count as u64));
    group.bench_function("batched", |bch| {
        bch.iter(|| batched_gemm(1.0, &a, &b, 0.0, &mut out));
    });
    group.finish();
}

fn bench_mixed_precision(c: &mut Criterion) {
    let mut group = c.benchmark_group("solve_256");
    group.sample_size(10);
    let n = 256;
    let a = gen::diag_dominant::<f64>(n, 5);
    let b = gen::rhs_for_unit_solution(&a);
    group.bench_function("f64_direct", |bch| {
        bch.iter(|| xsc_precision::ir::full_f64_solve(&a, &b).unwrap());
    });
    group.bench_function("f32_ir", |bch| {
        bch.iter(|| lu_ir_solve::<f32>(&a, &b, 30, None).unwrap());
    });
    group.finish();
}

fn bench_tsqr(c: &mut Criterion) {
    let mut group = c.benchmark_group("tall_skinny_qr_50000x16");
    group.sample_size(10);
    let a = gen::random_matrix::<f64>(50_000, 16, 7);
    group.bench_function("tsqr_16_leaves", |bch| {
        bch.iter(|| xsc_dense::tsqr::tsqr(&a, 50_000 / 16));
    });
    group.bench_function("flat_householder", |bch| {
        bch.iter(|| xsc_dense::tsqr::flat_qr_r(&a));
    });
    group.finish();
}

fn bench_abft(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_256_protection");
    group.sample_size(10);
    let a = gen::random_matrix::<f64>(256, 256, 8);
    let b = gen::random_matrix::<f64>(256, 256, 9);
    let mut out = Matrix::<f64>::zeros(256, 256);
    group.bench_function("plain", |bch| {
        bch.iter(|| gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut out));
    });
    group.bench_function("abft_protected", |bch| {
        bch.iter(|| xsc_ft::abft::abft_gemm(&a, &b, |_| {}));
    });
    group.finish();
}

fn bench_krylov_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("cg_variants_12cubed");
    group.sample_size(10);
    let g = Geometry::new(12, 12, 12);
    let a = build_matrix(g);
    let (mut b, _) = build_rhs(&a);
    for (i, v) in b.iter_mut().enumerate() {
        *v += ((i * 97) % 41) as f64 / 41.0 - 0.5;
    }
    group.bench_function("classic", |bch| {
        bch.iter(|| {
            let mut x = vec![0.0; a.nrows()];
            xsc_sparse::pcg(&a, &b, &mut x, 500, 1e-9, &xsc_sparse::Identity)
        });
    });
    group.bench_function("pipelined", |bch| {
        bch.iter(|| {
            let mut x = vec![0.0; a.nrows()];
            xsc_sparse::pipelined_cg(&a, &b, &mut x, 500, 1e-9)
        });
    });
    group.bench_function("s_step_4", |bch| {
        bch.iter(|| {
            let mut x = vec![0.0; a.nrows()];
            xsc_sparse::sstep::s_step_cg(&a, &b, &mut x, 4, 500, 1e-9)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_cholesky,
    bench_sparse,
    bench_batched,
    bench_mixed_precision,
    bench_tsqr,
    bench_abft,
    bench_krylov_variants
);
criterion_main!(benches);
