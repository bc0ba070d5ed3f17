//! Symmetric Gauss–Seidel: HPCG's smoother.
//!
//! One application is a forward sweep followed by a backward sweep of
//! Gauss–Seidel on `A x = b`. In the forward sweep row `i` reads the new
//! value of every earlier row it references and the old value of every
//! later one, so the rows cannot simply be cut into ranges. The sweep is
//! not inherently sequential, though: on a lexicographically ordered
//! stencil most pairs of rows share no stored entry, and such rows can
//! update at the same time without changing a single bit.
//!
//! [`GsSchedule`] finds that wavefront parallelism once per matrix, from
//! the sparsity pattern alone:
//!
//! * **blocks** are maximal runs of consecutive rows in which each row
//!   stores an entry in the previous row's column (on the HPCG stencil,
//!   the x-lines); one thread runs a block's rows in order;
//! * **levels**: block `p` goes one level above every block `q < p` that
//!   `p` references *or* that references `p`.
//!
//! So two blocks joined by a stored entry, in either direction, sit on
//! different levels, ordered like their rows. The forward sweep runs the
//! levels in ascending order; the backward sweep runs them in descending
//! order with each block's rows reversed. A barrier separates levels.
//! Every row then reads each `x_j` in exactly the state the natural loop
//! reads it: rows before it (lower levels going forward) are already
//! updated, rows after it (higher levels) are not yet. The argument does
//! not assume a symmetric pattern. Each row folds its entries in stored
//! order as before, so the iterates are bit-identical to the natural loop
//! on any thread count.
//!
//! Blocks of one level share no stored entry, so a thread takes its
//! level's blocks two at a time and folds one row of each per step in one
//! loop (`GsRow::gs_pair`). A row's fold is a chain of dependent
//! subtractions; two independent chains overlap in the core, so the sweep
//! waits less on each subtraction's latency. Each row still folds
//! its own entries in stored order, so nothing changes a bit.
//!
//! This module owns the crate's only natural-order sweep; the multicolour
//! sweep lives in [`crate::coloring`]. Both are generic over `GsRow`, the
//! one per-row update each storage layout implements (CSR of either index
//! width, and SELL-C-σ), so every format runs the same loops and produces
//! bit-identical iterates.

use crate::csr::{kernel_threads, Csr};
use crate::idx::SparseIndex;
use crate::ops::SparseOps;
use rayon::prelude::*;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// How a row update reads `x`: a plain slice on one thread, shared
/// atomics (relaxed, ordered by the level barrier) in a scheduled sweep.
pub(crate) trait XView {
    /// `x_j`.
    fn at(&self, j: usize) -> f64;
}

impl XView for [f64] {
    #[inline(always)]
    fn at(&self, j: usize) -> f64 {
        self[j]
    }
}

impl XView for [AtomicU64] {
    #[inline(always)]
    fn at(&self, j: usize) -> f64 {
        f64::from_bits(self[j].load(Ordering::Relaxed))
    }
}

/// The running fold of one Gauss–Seidel row update: `acc` starts at
/// `b_i` and each off-diagonal entry subtracts `a_ij·x_j` in stored order;
/// the diagonal is kept aside for the one divide at the end. Every format
/// and both the single-row and the pair update step through it, so they
/// all fold a row the same way.
pub(crate) struct GsFold {
    i: usize,
    acc: f64,
    diag: f64,
}

impl GsFold {
    /// The fold of row `i`, before its first entry.
    #[inline(always)]
    pub(crate) fn new(i: usize, b: &[f64]) -> Self {
        GsFold {
            i,
            acc: b[i],
            diag: 0.0,
        }
    }

    /// Folds in the stored entry `a_ic = v`.
    #[inline(always)]
    pub(crate) fn step<X: XView + ?Sized>(&mut self, c: usize, v: f64, x: &X) {
        if c == self.i {
            self.diag = v;
        } else {
            self.acc -= v * x.at(c);
        }
    }

    /// The updated `x_i`: `acc / a_ii`.
    #[inline(always)]
    pub(crate) fn finish(self) -> f64 {
        debug_assert!(self.diag != 0.0, "zero diagonal at row {}", self.i);
        self.acc / self.diag
    }
}

/// One Gauss–Seidel row update, implemented once per storage layout.
pub(crate) trait GsRow: SparseOps + Sync {
    /// `(b_i - Σ_{j≠i} a_ij·x_j) / a_ii`, folding row `i`'s entries in
    /// stored (CSR) order.
    fn gs_row<X: XView + ?Sized>(&self, i: usize, b: &[f64], x: &X) -> f64;

    /// The updates of two rows that share no stored entry, both read from
    /// the same `x`: equal bit for bit to two [`GsRow::gs_row`] calls. A
    /// layout overrides it to fold the two rows in one loop, so that their
    /// independent chains of dependent subtractions overlap in the core.
    fn gs_pair<X: XView + ?Sized>(&self, i: usize, j: usize, b: &[f64], x: &X) -> (f64, f64) {
        (self.gs_row(i, b, x), self.gs_row(j, b, x))
    }

    /// The level schedule built with the matrix (`None` if not square).
    fn gs_schedule(&self) -> Option<&GsSchedule>;
}

/// The level schedule of the natural-order Gauss–Seidel sweep: which rows
/// form blocks, and which blocks may update at the same time (see the
/// [module docs](self)). Built once from the sparsity pattern when a
/// square matrix is built; the compact formats copy it, since they keep
/// the row indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GsSchedule {
    /// Block `p` is rows `block_start[p]..block_start[p + 1]`.
    block_start: Vec<usize>,
    /// Block ids level by level, ascending within a level.
    by_level: Vec<usize>,
    /// Level `l` is `by_level[level_start[l]..level_start[l + 1]]`.
    level_start: Vec<usize>,
}

impl GsSchedule {
    /// Builds the schedule of a square CSR pattern: a scan over the
    /// pattern on the pool's threads (see [`GsSchedule::build_split`]),
    /// then a sequential pass over the blocks.
    pub(crate) fn build<I: SparseIndex>(row_ptr: &[I], col_idx: &[I]) -> Self {
        Self::build_split(row_ptr, col_idx, kernel_threads(col_idx.len()))
    }

    /// [`GsSchedule::build`] with its scan cut into `tasks` contiguous
    /// parts; the schedule is the same for every `tasks`.
    ///
    /// The scan cuts the blocks and maps rows to blocks, row range by row
    /// range, then lists the distinct other blocks each block references,
    /// block range by block range. The pass places the blocks in order: block `p` goes one
    /// level above the earlier blocks it references and above its lower
    /// bound, then raises the bound of each later block it references.
    /// A bound comes only from earlier blocks, so it is final once the
    /// pass reaches its block.
    pub(crate) fn build_split<I: SparseIndex>(row_ptr: &[I], col_idx: &[I], tasks: usize) -> Self {
        let n = row_ptr.len().saturating_sub(1);
        let cols = |i: usize| &col_idx[row_ptr[i].widen()..row_ptr[i + 1].widen()];
        let part = |t: usize, len: usize| len * t / tasks..len * (t + 1) / tasks;
        let cuts: Vec<Vec<usize>> = (0..tasks)
            .into_par_iter()
            .map(|t| {
                let rows = part(t, n.saturating_sub(1));
                (rows.start + 1..rows.end + 1)
                    .filter(|&i| !cols(i).iter().any(|c| c.widen() + 1 == i))
                    .collect()
            })
            .collect();
        let mut block_start = vec![0];
        block_start.extend(cuts.into_iter().flatten());
        if n > 0 {
            block_start.push(n);
        }
        let nblocks = block_start.len() - 1;
        let mut block_of = vec![0usize; n];
        let chunk = n.div_ceil(tasks).max(1);
        block_of
            .par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(k, part)| {
                let first = k * chunk;
                let mut p = block_start.partition_point(|&s| s <= first) - 1;
                for (i, b) in (first..).zip(part) {
                    while block_start[p + 1] <= i {
                        p += 1;
                    }
                    *b = p;
                }
            });
        let neighbours: Vec<Vec<Vec<usize>>> = (0..tasks)
            .into_par_iter()
            .map(|t| {
                let mut seen = vec![usize::MAX; nblocks];
                part(t, nblocks)
                    .map(|p| {
                        let mut nb = Vec::new();
                        for i in block_start[p]..block_start[p + 1] {
                            for c in cols(i) {
                                let q = block_of[c.widen()];
                                if q != p && seen[q] != p {
                                    seen[q] = p;
                                    nb.push(q);
                                }
                            }
                        }
                        nb
                    })
                    .collect()
            })
            .collect();
        let mut level = vec![0usize; nblocks];
        for (p, around) in neighbours.iter().flatten().enumerate() {
            let lp = around
                .iter()
                .filter(|&&q| q < p)
                .fold(level[p], |lp, &q| lp.max(level[q] + 1));
            level[p] = lp;
            for &q in around.iter().filter(|&&q| q > p) {
                level[q] = level[q].max(lp + 1);
            }
        }
        let nlevels = level.iter().max().map_or(0, |&m| m + 1);
        let mut level_start = vec![0usize; nlevels + 1];
        for &l in &level {
            level_start[l + 1] += 1;
        }
        for l in 0..nlevels {
            level_start[l + 1] += level_start[l];
        }
        let mut fill = level_start.clone();
        let mut by_level = vec![0usize; nblocks];
        for (p, &l) in level.iter().enumerate() {
            by_level[fill[l]] = p;
            fill[l] += 1;
        }
        GsSchedule {
            block_start,
            by_level,
            level_start,
        }
    }

    /// Number of blocks (runs of rows one thread updates in order).
    pub fn num_blocks(&self) -> usize {
        self.block_start.len().saturating_sub(1)
    }

    /// Number of levels (barrier-separated steps of one sweep).
    pub fn num_levels(&self) -> usize {
        self.level_start.len() - 1
    }

    /// Most blocks on any one level: the widest step's parallelism.
    pub fn max_width(&self) -> usize {
        self.level_start
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    /// Rows of block `p`, in the order one thread updates them.
    pub fn rows(&self, p: usize) -> Range<usize> {
        self.block_start[p]..self.block_start[p + 1]
    }

    /// Blocks of level `l`, ascending.
    pub fn level(&self, l: usize) -> &[usize] {
        &self.by_level[self.level_start[l]..self.level_start[l + 1]]
    }

    /// Thread `t`'s contiguous stripe (of `threads`) of level `l`'s blocks.
    fn stripe(&self, l: usize, t: usize, threads: usize) -> &[usize] {
        let blocks = self.level(l);
        let w = blocks.len();
        &blocks[w * t / threads..w * (t + 1) / threads]
    }
}

/// Spin iterations a barrier waiter burns before it starts yielding its
/// core (an oversubscribed pool must not livelock).
const SPINS_BEFORE_YIELD: u32 = 1 << 10;

/// A reusable spin barrier for the threads of one scheduled sweep. Its
/// acquire/release pair orders one level's `x` writes before the next
/// level's reads. A waiter whose peer panicked panics too, instead of
/// waiting forever.
struct SpinBarrier {
    threads: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    fn new(threads: usize) -> Self {
        SpinBarrier {
            threads,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.threads {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            return;
        }
        let mut spins = 0;
        while self.generation.load(Ordering::Acquire) == generation {
            assert!(
                !self.poisoned.load(Ordering::Relaxed),
                "another Gauss-Seidel sweep thread panicked"
            );
            if spins < SPINS_BEFORE_YIELD {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Poisons the barrier if its thread unwinds.
struct PoisonOnUnwind<'a>(&'a SpinBarrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Relaxed);
        }
    }
}

/// Updates `x` in place over `rows`, in order.
fn sweep<M: GsRow>(a: &M, rows: impl Iterator<Item = usize>, b: &[f64], x: &mut [f64]) {
    assert_eq!(b.len(), a.nrows());
    assert_eq!(x.len(), a.nrows());
    for i in rows {
        x[i] = a.gs_row(i, b, &*x);
    }
}

/// The natural row loop on the calling thread: forward, then backward.
fn natural_sweeps<M: GsRow>(a: &M, b: &[f64], x: &mut [f64]) {
    let n = a.nrows();
    sweep(a, 0..n, b, x);
    sweep(a, (0..n).rev(), b, x);
}

/// Updates the rows of `blocks` (all on one level) in the shared `xs`, two
/// blocks at a time: the first rows the pair has in common go through
/// [`GsRow::gs_pair`], one row of each block per step, so their two
/// independent fold chains overlap in the core; the longer block's rest
/// goes row by row. `backward` walks each block's rows in reverse; the
/// order across blocks of one level does not matter.
fn run_blocks<M: GsRow>(
    a: &M,
    s: &GsSchedule,
    blocks: &[usize],
    backward: bool,
    b: &[f64],
    xs: &[AtomicU64],
) {
    let store = |i: usize, v: f64| xs[i].store(v.to_bits(), Ordering::Relaxed);
    let single = |i: usize| store(i, a.gs_row(i, b, xs));
    let pair = |i: usize, j: usize| {
        let (u, v) = a.gs_pair(i, j, b, xs);
        store(i, u);
        store(j, v);
    };
    for blocks in blocks.chunks(2) {
        let p = s.rows(blocks[0]);
        let q = blocks.get(1).map_or(0..0, |&q| s.rows(q));
        let common = p.len().min(q.len());
        if backward {
            for k in 1..=common {
                pair(p.end - k, q.end - k);
            }
            (p.start..p.end - common).rev().for_each(single);
            (q.start..q.end - common).rev().for_each(single);
        } else {
            for k in 0..common {
                pair(p.start + k, q.start + k);
            }
            (p.start + common..p.end).for_each(single);
            (q.start + common..q.end).for_each(single);
        }
    }
}

/// One symmetric Gauss–Seidel application on every thread of the current
/// pool (`rayon::broadcast`), level by level along `s`. Bit-identical to
/// the natural loop for any thread count, including one.
pub(crate) fn scheduled_sweeps<M: GsRow>(a: &M, s: &GsSchedule, b: &[f64], x: &mut [f64]) {
    assert_eq!(b.len(), a.nrows());
    assert_eq!(x.len(), a.nrows());
    assert_eq!(s.block_start.last().copied().unwrap_or(0), a.nrows());
    let shared: Vec<AtomicU64> = x.iter().map(|xi| AtomicU64::new(xi.to_bits())).collect();
    let xs = &shared[..];
    let barrier = SpinBarrier::new(rayon::current_num_threads());
    let levels = s.num_levels();
    rayon::broadcast(|ctx| {
        let _poison = PoisonOnUnwind(&barrier);
        let (t, threads) = (ctx.index(), ctx.num_threads());
        assert_eq!(threads, barrier.threads);
        for l in 0..levels {
            run_blocks(a, s, s.stripe(l, t, threads), false, b, xs);
            if l + 1 < levels {
                barrier.wait();
            }
        }
        // The backward sweep starts on the top level, where this thread
        // owns the same blocks it just finished, so it needs no barrier.
        for l in (0..levels).rev() {
            run_blocks(a, s, s.stripe(l, t, threads), true, b, xs);
            if l > 0 {
                barrier.wait();
            }
        }
    });

    for (xi, xs) in x.iter_mut().zip(shared) {
        *xi = f64::from_bits(xs.into_inner());
    }
}

/// One symmetric Gauss–Seidel application (forward then backward sweep)
/// on any format, recorded as one `symgs` kernel. Runs the level schedule
/// on every pool thread when the matrix is big enough for more than one
/// thread (as for the parallel SpMV) and the schedule has a level with
/// more than one block. Otherwise it runs the natural row loop: on one
/// thread, level order only slows the sweep down.
pub(crate) fn symgs_sweeps<M: GsRow>(a: &M, b: &[f64], x: &mut [f64]) {
    let _scope = xsc_metrics::record("symgs", a.symgs_traffic());
    match a.gs_schedule() {
        Some(s) if kernel_threads(a.nnz()) > 1 && s.max_width() > 1 => {
            scheduled_sweeps(a, s, b, x);
        }
        _ => natural_sweeps(a, b, x),
    }
}

/// One forward Gauss–Seidel sweep: `x` updated in place, rows in order.
pub fn forward_sweep<I: SparseIndex>(a: &Csr<I>, b: &[f64], x: &mut [f64]) {
    sweep(a, 0..a.nrows(), b, x);
}

/// One symmetric Gauss–Seidel application (forward then backward sweep) —
/// the HPCG `ComputeSYMGS` reference kernel, in natural row order, on the
/// current pool's threads along the matrix's [`GsSchedule`].
pub fn symgs<I: SparseIndex>(a: &Csr<I>, b: &[f64], x: &mut [f64]) {
    symgs_sweeps(a, b, x);
}

/// Flops of one symmetric Gauss–Seidel application (HPCG accounting:
/// ~`4·nnz`, two sweeps at `2·nnz` each).
pub fn symgs_flops<I: SparseIndex>(a: &Csr<I>) -> u64 {
    4 * a.nnz() as u64
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::csr::{Csr32, CsrMatrix};
    use crate::ops::unfused_residual;
    use crate::sell::SellCSigma;
    use crate::stencil::{build_matrix, build_rhs, Geometry};
    use rand::{Rng, SeedableRng};

    fn residual_norm(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        unfused_residual(a, x, b, &mut r);
        xsc_core::blas1::nrm2(&r)
    }

    #[test]
    fn sweeps_reduce_residual_monotonically() {
        let a = build_matrix(Geometry::new(6, 6, 6));
        let (b, _) = build_rhs(&a);
        let mut x = vec![0.0; a.nrows()];
        let mut prev = residual_norm(&a, &x, &b);
        for _ in 0..5 {
            symgs(&a, &b, &mut x);
            let r = residual_norm(&a, &x, &b);
            assert!(r < prev, "residual must shrink: {r} vs {prev}");
            prev = r;
        }
    }

    #[test]
    fn exact_solution_is_fixed_point() {
        let a = build_matrix(Geometry::new(4, 4, 4));
        let (b, x_exact) = build_rhs(&a);
        let mut x = x_exact.clone();
        symgs(&a, &b, &mut x);
        for (xi, ei) in x.iter().zip(x_exact.iter()) {
            assert!((xi - ei).abs() < 1e-12);
        }
    }

    #[test]
    fn converges_to_exact_solution_eventually() {
        let a = build_matrix(Geometry::new(4, 4, 2));
        let (b, x_exact) = build_rhs(&a);
        let mut x = vec![0.0; a.nrows()];
        for _ in 0..200 {
            symgs(&a, &b, &mut x);
        }
        for (xi, ei) in x.iter().zip(x_exact.iter()) {
            assert!((xi - ei).abs() < 1e-8, "{xi} vs {ei}");
        }
    }

    #[test]
    fn forward_sweep_solves_lower_triangular_exactly() {
        // For a lower-triangular matrix, one forward sweep IS the solve.
        let a = CsrMatrix::from_triplets(
            3,
            3,
            vec![
                (0, 0, 2.0),
                (1, 0, 1.0),
                (1, 1, 4.0),
                (2, 1, -1.0),
                (2, 2, 5.0),
            ],
        );
        let b = vec![2.0, 9.0, 3.0];
        let mut x = vec![0.0; 3];
        forward_sweep(&a, &b, &mut x);
        // x0 = 1, x1 = (9-1)/4 = 2, x2 = (3+2)/5 = 1.
        assert!((x[0] - 1.0).abs() < 1e-15);
        assert!((x[1] - 2.0).abs() < 1e-15);
        assert!((x[2] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn flop_accounting() {
        let a = build_matrix(Geometry::new(4, 4, 4));
        assert_eq!(symgs_flops(&a), 4 * a.nnz() as u64);
    }

    /// Each of three scheduled applications on 1, 2, 3 and 4 threads must
    /// equal the natural one bit for bit. The right-hand side is not
    /// `A·1`, so the iterates do not settle on an exact solution.
    fn assert_scheduled_is_natural<M: GsRow>(a: &M) {
        let n = a.nrows();
        let s = a.gs_schedule().expect("a square matrix has a schedule");
        assert!(s.max_width() > 1, "the case must have parallel levels");
        let b: Vec<f64> = (0..n).map(|i| (i * 37 % 101) as f64 * 0.02 - 1.0).collect();
        for threads in 1..=4 {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut want = vec![0.0; n];
            let mut got = vec![0.0; n];
            for app in 1..=3 {
                natural_sweeps(a, &b, &mut want);
                pool.install(|| scheduled_sweeps(a, s, &b, &mut got));
                let same = got
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.to_bits() == w.to_bits());
                let name = a.format_name();
                assert!(
                    same,
                    "{name}: application {app} on {threads} threads differs"
                );
            }
        }
    }

    /// The 27-point pattern on `g` with seeded off-diagonal values in
    /// `[-1, 1)` and a dominant diagonal.
    pub(crate) fn irregular(g: Geometry, seed: u64) -> CsrMatrix {
        let pattern = build_matrix(g);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut trips = Vec::new();
        for i in 0..pattern.nrows() {
            let mut off = 0.0;
            for &j in pattern.row(i).0.iter().filter(|&&j| j != i) {
                let v: f64 = rng.gen_range(-1.0..1.0);
                off += v.abs();
                trips.push((i, j, v));
            }
            trips.push((i, i, off + 1.0));
        }
        CsrMatrix::from_triplets(pattern.nrows(), pattern.ncols(), trips)
    }

    /// A structurally non-symmetric matrix: 20 blocks of 10 rows chained
    /// by their subdiagonals. Even blocks reference the even block two
    /// before them (a chain of levels) and, one way, the odd block three
    /// after them; no odd block references anything earlier. Without
    /// the "referenced by" half of the level rule, odd blocks land on
    /// level 0 and run before the even blocks that read their old values.
    fn one_way() -> CsrMatrix {
        let n = 200;
        let mut trips = Vec::new();
        for i in 0..n {
            let (k, r) = (i / 10, i % 10);
            trips.push((i, i, 4.0));
            if r != 0 {
                trips.push((i, i - 1, -1.0));
            }
            if k % 2 == 0 && k >= 2 && r == 5 {
                trips.push((i, i - 20, -0.5));
            }
            if k % 2 == 0 && k + 3 < 20 && r == 3 {
                trips.push((i, i + 30, -0.25));
            }
        }
        CsrMatrix::from_triplets(n, n, trips)
    }

    /// Every stored entry that joins two different blocks puts them on
    /// different levels, ordered like the blocks (in both directions).
    fn assert_levels_respect_entries(a: &CsrMatrix) {
        let s = a.gs_schedule().unwrap();
        let mut block = vec![0; a.nrows()];
        for p in 0..s.num_blocks() {
            block[s.rows(p)].fill(p);
        }
        let mut level = vec![0; s.num_blocks()];
        for l in 0..s.num_levels() {
            for &p in s.level(l) {
                level[p] = l;
            }
        }
        for i in 0..a.nrows() {
            for &j in a.row(i).0 {
                let (p, q) = (block[i], block[j]);
                if p != q {
                    assert_ne!(level[p], level[q], "a[{i}][{j}] joins one level");
                    assert_eq!(p < q, level[p] < level[q], "a[{i}][{j}] inverts levels");
                }
            }
        }
    }

    #[test]
    fn scheduled_sweep_is_natural_on_every_format() {
        let a = build_matrix(Geometry::new(16, 16, 16));
        assert_scheduled_is_natural(&Csr32::try_from(&a).unwrap());
        assert_scheduled_is_natural(&SellCSigma::try_from(&a).unwrap());
        assert_scheduled_is_natural(&a);
    }

    #[test]
    fn scheduled_sweep_is_natural_on_irregular_and_non_cubic_grids() {
        let a = irregular(Geometry::new(7, 6, 5), 42);
        assert_scheduled_is_natural(&a);
        assert_scheduled_is_natural(&SellCSigma::try_from(&a).unwrap());
        assert_scheduled_is_natural(&build_matrix(Geometry::new(8, 4, 12)));
    }

    /// `gs_pair(i, j)` equals `(gs_row(i), gs_row(j))` bit for bit for
    /// every ordered pair of `rows`.
    fn assert_pair_is_two_rows<M: GsRow>(a: &M, rows: &[usize], b: &[f64], x: &[f64]) {
        for &i in rows {
            for &j in rows {
                let (u, v) = a.gs_pair(i, j, b, x);
                let (want_u, want_v) = (a.gs_row(i, b, x), a.gs_row(j, b, x));
                let name = a.format_name();
                assert_eq!(
                    u.to_bits(),
                    want_u.to_bits(),
                    "{name}: row {i} of ({i}, {j})"
                );
                assert_eq!(
                    v.to_bits(),
                    want_v.to_bits(),
                    "{name}: row {j} of ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn pair_update_is_two_single_row_folds() {
        let g = Geometry::new(5, 4, 3);
        let a = irregular(g, 11);
        let n = a.nrows();
        // A corner, an edge, a face and an interior row, and the last row.
        let rows = [
            g.index(0, 0, 0),
            g.index(1, 0, 0),
            g.index(1, 1, 0),
            g.index(1, 1, 1),
            n - 1,
        ];
        let lens: Vec<usize> = rows.iter().map(|&i| a.row(i).0.len()).collect();
        assert_eq!(lens, [8, 12, 18, 27, 8]);
        // The corner row's 8 entries end before the interior row reaches
        // its diagonal, so the pair's lockstep loop never sees that one.
        let diag_at = a.row(rows[3]).0.iter().position(|&c| c == rows[3]);
        assert!(diag_at.is_some_and(|d| d >= lens[0]));
        let b: Vec<f64> = (0..n).map(|i| (i * 37 % 101) as f64 * 0.02 - 1.0).collect();
        let x: Vec<f64> = (0..n).map(|i| ((i * 29 % 83) as f64).sin()).collect();
        assert_pair_is_two_rows(&a, &rows, &b, &x);
        assert_pair_is_two_rows(&Csr32::try_from(&a).unwrap(), &rows, &b, &x);
        assert_pair_is_two_rows(&SellCSigma::try_from(&a).unwrap(), &rows, &b, &x);
    }

    #[test]
    fn scheduled_sweep_is_natural_on_an_operator_built_at_u32() {
        let a = crate::stencil::build_csr::<u32>(Geometry::new(16, 16, 16));
        assert_scheduled_is_natural(&a);
    }

    #[test]
    fn scheduled_sweep_is_natural_on_a_non_symmetric_pattern() {
        let a = one_way();
        assert!(!a.is_symmetric(0.0));
        assert_levels_respect_entries(&a);
        assert_scheduled_is_natural(&a);
    }

    #[test]
    fn schedule_counts_pin_the_parallelism() {
        // x-lines are the blocks; block (y, z) sits on level y + 2z.
        for (g, blocks, levels) in [(12, 144, 34), (24, 576, 70), (32, 1024, 94)] {
            let a = build_matrix(Geometry::new(g, g, g));
            let s = a.gs_schedule().unwrap();
            assert_eq!((s.num_blocks(), s.num_levels()), (blocks, levels), "{g}^3");
        }
        let a = build_matrix(Geometry::new(32, 32, 32));
        assert_eq!(a.gs_schedule().unwrap().max_width(), 16);
        assert_levels_respect_entries(&a);
    }

    /// The counted twin of `tests/symgs_perf.rs`'s wall-clock gate: the
    /// rows the scheduled sweep's critical path updates at 64³. Each level
    /// waits for its slowest thread, so a sweep costs the sum over levels
    /// of the largest stripe's rows; the natural loop costs every row.
    #[test]
    fn scheduled_sweep_parallelism_at_64_is_counted() {
        let a = crate::stencil::build_csr::<u32>(Geometry::new(64, 64, 64));
        let s = a.gs_schedule().unwrap();
        let critical_rows = |threads: usize| -> usize {
            (0..s.num_levels())
                .map(|l| {
                    (0..threads)
                        .map(|t| s.stripe(l, t, threads).iter().map(|&p| s.rows(p).len()))
                        .map(Iterator::sum::<usize>)
                        .max()
                        .unwrap_or(0)
                })
                .sum()
        };
        assert_eq!(critical_rows(1), 262_144);
        // 262,144 / 133,120 = 1.97x on 2 threads; / 91,520 = 2.86x on 3.
        assert_eq!(critical_rows(2), 133_120);
        assert_eq!(critical_rows(3), 91_520);
    }

    /// `a`'s schedule built again with its scan cut into 2–4 parts, on a
    /// 4-thread pool: the parts must give the one-part schedule.
    fn assert_split_scan_is_serial(a: &CsrMatrix) {
        let mut row_ptr = vec![0];
        let mut col_idx = Vec::new();
        for i in 0..a.nrows() {
            col_idx.extend_from_slice(a.row(i).0);
            row_ptr.push(col_idx.len());
        }
        let one = GsSchedule::build_split(&row_ptr, &col_idx, 1);
        assert_eq!(a.gs_schedule(), Some(&one));
        // Blocks are the maximal runs of rows that each store an entry in
        // the previous row's column.
        for p in 0..one.num_blocks() {
            for i in one.rows(p) {
                let chained = i > 0 && a.row(i).0.contains(&(i - 1));
                assert_eq!(chained, i != one.rows(p).start, "row {i}");
            }
        }
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        for tasks in 2..=4 {
            let split = pool.install(|| GsSchedule::build_split(&row_ptr, &col_idx, tasks));
            assert_eq!(split, one, "{tasks} parts");
        }
    }

    #[test]
    fn split_schedule_scan_is_the_serial_one() {
        let irregular = irregular(Geometry::new(7, 6, 5), 42);
        let one_way = one_way();
        for a in [&irregular, &one_way] {
            assert_split_scan_is_serial(a);
            assert_levels_respect_entries(a);
        }
        // Every row its own block, so every part boundary is a cut.
        assert_split_scan_is_serial(&CsrMatrix::from_triplets(
            50,
            50,
            (0..50).map(|i| (i, i, 1.0)),
        ));
        // One block, and no rows at all: most parts are empty.
        assert_split_scan_is_serial(&build_matrix(Geometry::new(2, 1, 1)));
        assert_split_scan_is_serial(&CsrMatrix::from_triplets(0, 0, Vec::new()));
    }

    #[test]
    fn schedule_is_copied_not_rebuilt_and_only_square() {
        let a = build_matrix(Geometry::new(6, 5, 4));
        let s = a.gs_schedule().unwrap();
        assert_eq!(Csr32::try_from(&a).unwrap().gs_schedule(), Some(s));
        assert_eq!(SellCSigma::try_from(&a).unwrap().gs_schedule(), Some(s));
        let wide = CsrMatrix::from_triplets(2, 3, vec![(0, 0, 1.0), (1, 2, 1.0)]);
        assert!(wide.gs_schedule().is_none());
    }

    #[test]
    fn a_panicking_row_does_not_hang_the_barrier() {
        // A zero diagonal trips the row update's debug assertion (in a
        // release build the division just yields inf): the peer threads
        // waiting at the barrier must give up rather than spin forever.
        let pattern = build_matrix(Geometry::new(8, 8, 8));
        let n = pattern.nrows();
        let trips = (0..n).flat_map(|i| {
            let diag = if i == n / 2 { 0.0 } else { 26.0 };
            let row = pattern.row(i).0.iter();
            row.map(move |&j| (i, j, if j == i { diag } else { -1.0 }))
        });
        let a = CsrMatrix::from_triplets(n, n, trips);
        let s = a.gs_schedule().unwrap();
        let b = vec![1.0; n];
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut x = vec![0.0; n];
            pool.install(|| scheduled_sweeps(&a, s, &b, &mut x));
        }));
        assert_eq!(r.is_err(), cfg!(debug_assertions));
    }
}
