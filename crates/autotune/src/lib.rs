//! # xsc-autotune — empirical parameter tuning
//!
//! The keynote lists autotuning as a pillar of the extreme-scale software
//! stack: kernel performance is a non-obvious, non-monotone function of
//! blocking parameters, so the right tile size is *searched for*, not
//! derived. This crate provides the search strategies the benchmark suite
//! uses to pick tile sizes (experiment E08):
//!
//! * [`exhaustive`] — measure every candidate (the ground truth);
//! * [`hill_climb`] — local search over an ordered parameter axis;
//! * [`successive_halving`] — multi-fidelity search: measure everything
//!   cheaply, keep the best half, re-measure with a bigger budget.
//!
//! Measurements are noisy, so [`median_of`] wraps a measurement closure
//! with median-of-`k` repetition.
//!
//! [`gemm_tune`] applies these strategies to the blocked GEMM's cache
//! parameters (`MC`/`KC`/`NC`) and micro-kernel variant, the search E08
//! runs alongside its tile-size sweep.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod gemm_tune;

/// Outcome of a tuning run: the winning parameter and every sample taken.
#[derive(Debug, Clone)]
pub struct SweepResult<P> {
    /// Parameter with the lowest measured cost.
    pub best: P,
    /// Cost of the winner.
    pub best_cost: f64,
    /// Every `(parameter, cost)` sample, in measurement order.
    pub samples: Vec<(P, f64)>,
    /// Total number of measurements taken.
    pub evaluations: usize,
}

/// Measures every candidate and returns the argmin.
///
/// # Panics
/// Panics if `candidates` is empty or a measurement returns NaN.
pub fn exhaustive<P: Copy>(candidates: &[P], mut measure: impl FnMut(P) -> f64) -> SweepResult<P> {
    assert!(!candidates.is_empty(), "no candidates to tune over");
    let mut samples = Vec::with_capacity(candidates.len());
    for &p in candidates {
        let c = measure(p);
        assert!(!c.is_nan(), "measurement returned NaN");
        samples.push((p, c));
    }
    let (best, best_cost) = samples
        .iter()
        .copied()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .expect("nonempty");
    SweepResult {
        best,
        best_cost,
        evaluations: samples.len(),
        samples,
    }
}

/// Hill climbing over an *ordered* candidate axis (e.g. tile sizes sorted
/// ascending): starts in the middle, moves to the better neighbor until a
/// local minimum, restarting from the best unexplored point until
/// `max_evals` is exhausted. Finds the global optimum on unimodal
/// responses with a fraction of the measurements.
pub fn hill_climb<P: Copy + PartialEq>(
    candidates: &[P],
    max_evals: usize,
    mut measure: impl FnMut(P) -> f64,
) -> SweepResult<P> {
    assert!(!candidates.is_empty(), "no candidates to tune over");
    let n = candidates.len();
    let mut cost_cache: Vec<Option<f64>> = vec![None; n];
    let mut samples = Vec::new();
    let mut evals = 0usize;

    let mut eval = |i: usize,
                    cache: &mut Vec<Option<f64>>,
                    samples: &mut Vec<(P, f64)>,
                    evals: &mut usize|
     -> f64 {
        if let Some(c) = cache[i] {
            return c;
        }
        let c = measure(candidates[i]);
        assert!(!c.is_nan(), "measurement returned NaN");
        cache[i] = Some(c);
        samples.push((candidates[i], c));
        *evals += 1;
        c
    };

    let mut pos = n / 2;
    let mut cur = eval(pos, &mut cost_cache, &mut samples, &mut evals);
    while evals < max_evals {
        let mut moved = false;
        // Look at both neighbors; move to the best strictly-better one.
        let mut best_next = None;
        for next in [pos.checked_sub(1), (pos + 1 < n).then_some(pos + 1)]
            .into_iter()
            .flatten()
        {
            if evals >= max_evals && cost_cache[next].is_none() {
                continue;
            }
            let c = eval(next, &mut cost_cache, &mut samples, &mut evals);
            if c < cur && best_next.is_none_or(|(_, bc)| c < bc) {
                best_next = Some((next, c));
            }
        }
        if let Some((next, c)) = best_next {
            pos = next;
            cur = c;
            moved = true;
        }
        if !moved {
            break;
        }
    }

    let (best, best_cost) = samples
        .iter()
        .copied()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .expect("nonempty");
    SweepResult {
        best,
        best_cost,
        evaluations: evals,
        samples,
    }
}

/// Successive halving: measure all candidates at the cheapest budget level,
/// keep the best half, repeat with `budget * 2`, until one survives.
/// `measure(p, budget)` should get less noisy as `budget` grows (e.g.
/// budget = repetitions).
pub fn successive_halving<P: Copy + PartialEq>(
    candidates: &[P],
    initial_budget: usize,
    mut measure: impl FnMut(P, usize) -> f64,
) -> SweepResult<P> {
    assert!(!candidates.is_empty(), "no candidates to tune over");
    let mut alive: Vec<P> = candidates.to_vec();
    let mut budget = initial_budget.max(1);
    let mut samples = Vec::new();
    let mut evals = 0usize;
    while alive.len() > 1 {
        let mut scored: Vec<(P, f64)> = alive
            .iter()
            .map(|&p| {
                let c = measure(p, budget);
                assert!(!c.is_nan(), "measurement returned NaN");
                evals += 1;
                samples.push((p, c));
                (p, c)
            })
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        scored.truncate(scored.len().div_ceil(2));
        alive = scored.into_iter().map(|(p, _)| p).collect();
        budget *= 2;
    }
    let best = alive[0];
    let best_cost = samples
        .iter()
        .rev()
        .find(|(p, _)| *p == best)
        .map(|&(_, c)| c)
        .unwrap_or(f64::INFINITY);
    SweepResult {
        best,
        best_cost,
        evaluations: evals,
        samples,
    }
}

/// Median-of-`k` measurement wrapper (robust against scheduling noise).
pub fn median_of(k: usize, mut f: impl FnMut() -> f64) -> f64 {
    assert!(k >= 1);
    let mut v: Vec<f64> = (0..k).map(|_| f()).collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic non-monotone "tile size" response: parabola with the
    /// minimum at 128, like a real blocking sweep.
    fn response(nb: usize) -> f64 {
        let x = nb as f64;
        (x - 128.0).powi(2) / 1000.0 + 1.0
    }

    const CANDIDATES: &[usize] = &[16, 32, 48, 64, 96, 128, 192, 256, 384, 512];

    #[test]
    fn exhaustive_finds_global_minimum() {
        let res = exhaustive(CANDIDATES, response);
        assert_eq!(res.best, 128);
        assert_eq!(res.evaluations, CANDIDATES.len());
        assert_eq!(res.samples.len(), CANDIDATES.len());
        assert!((res.best_cost - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hill_climb_finds_unimodal_minimum_with_fewer_evals() {
        let res = hill_climb(CANDIDATES, 100, response);
        assert_eq!(res.best, 128);
        assert!(
            res.evaluations < CANDIDATES.len(),
            "hill climb used {} evals",
            res.evaluations
        );
    }

    #[test]
    fn hill_climb_respects_eval_budget() {
        let res = hill_climb(CANDIDATES, 3, response);
        assert!(res.evaluations <= 4, "{} evals", res.evaluations); // initial + <= budget slack
    }

    #[test]
    fn successive_halving_converges_to_minimum() {
        let res = successive_halving(CANDIDATES, 1, |p, _budget| response(p));
        assert_eq!(res.best, 128);
        assert!(res.evaluations >= CANDIDATES.len());
    }

    #[test]
    fn successive_halving_with_noise_and_growing_budget() {
        // Noise shrinks as budget grows: late rounds are accurate.
        let mut calls = 0usize;
        let res = successive_halving(CANDIDATES, 1, |p, budget| {
            calls += 1;
            let noise = ((calls * 2654435761) % 100) as f64 / 100.0 / budget as f64;
            response(p) + noise * 0.4
        });
        // With noise bounded by 0.4 at budget 1 the winner must be near the
        // true optimum (96..192 band).
        assert!(
            (96..=192).contains(&res.best),
            "winner {} too far from optimum",
            res.best
        );
    }

    #[test]
    fn median_of_is_robust_to_outliers() {
        let mut i = 0;
        let m = median_of(5, || {
            i += 1;
            if i == 3 {
                1000.0
            } else {
                1.0
            }
        });
        assert_eq!(m, 1.0);
    }

    #[test]
    #[should_panic(expected = "no candidates")]
    fn empty_candidates_rejected() {
        let _ = exhaustive::<usize>(&[], |_| 0.0);
    }

    #[test]
    fn single_candidate_wins_trivially() {
        let res = exhaustive(&[64usize], response);
        assert_eq!(res.best, 64);
        let res = hill_climb(&[64usize], 10, response);
        assert_eq!(res.best, 64);
        let res = successive_halving(&[64usize], 1, |p, _| response(p));
        assert_eq!(res.best, 64);
    }
}
