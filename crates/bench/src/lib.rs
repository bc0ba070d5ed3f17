//! # xsc-bench — the experiment harness
//!
//! One module per keynote table/figure (see `DESIGN.md`'s experiment
//! index). Each experiment prints the series the keynote reports; run one
//! via its binary (`cargo run --release -p xsc-bench --bin e01_hpl_vs_hpcg`)
//! or all of them via `cargo bench -p xsc-bench --bench experiments`.
//!
//! Problem sizes scale with the `XSC_SCALE` environment variable:
//! `quick` (default — seconds per experiment) or `full` (minutes, sharper
//! separation between the compared methods).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod json;
pub mod measured;
pub mod table;

pub use xsc_runtime::fnv1a;

/// Problem-size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small sizes for CI and `cargo bench` (seconds per experiment).
    Quick,
    /// Paper-shaped sizes (minutes per experiment).
    Full,
}

impl Scale {
    /// Reads `XSC_SCALE` from the environment (`quick` default).
    pub fn from_env() -> Scale {
        match std::env::var("XSC_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Picks between the quick and full variant of a parameter.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Times a closure in seconds.
pub fn time_it(f: impl FnOnce()) -> f64 {
    let t = std::time::Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Best-of-`reps` timing (picks the minimum — standard for throughput
/// benchmarks, robust against scheduler noise).
pub fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps.max(1))
        .map(|_| time_it(&mut f))
        .fold(f64::INFINITY, f64::min)
}

/// Runs a closure on a dedicated rayon pool with `threads` workers.
pub fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build rayon pool")
        .install(f)
}

/// Number of hardware threads available.
pub fn ncpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Thread counts to sweep: 1, 2, 4, ... up to the hardware limit.
pub fn thread_sweep() -> Vec<usize> {
    let max = ncpus();
    let mut v = vec![1usize];
    while *v.last().unwrap() * 2 <= max {
        v.push(v.last().unwrap() * 2);
    }
    if *v.last().unwrap() != max {
        v.push(max);
    }
    v
}

/// Makes this binary's experiment tests run one at a time (the cheap unit
/// tests still run alongside). The E17 overhead gate compares two
/// executor makespans; an experiment test busy on the same two cores
/// (E21's CPU-dense burst) moved that ratio by 10–40%.
#[cfg(test)]
pub(crate) fn serial_experiment_test() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    fn thread_sweep_is_increasing_and_capped() {
        let s = thread_sweep();
        assert_eq!(s[0], 1);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*s.last().unwrap(), ncpus());
    }

    #[test]
    fn timing_helpers_positive() {
        let t = time_it(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert!(t >= 0.002);
        let b = best_of(3, || {});
        assert!(b >= 0.0);
    }

    #[test]
    fn with_threads_runs_on_requested_pool() {
        let n = with_threads(2, rayon::current_num_threads);
        assert_eq!(n, 2);
    }
}
