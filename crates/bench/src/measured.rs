//! Helpers for reading `xsc-metrics` counter deltas inside experiments.

use xsc_metrics::KernelCounters;

/// Scopes that aggregate leaf kernels nested inside them ("mg_vcycle"
/// re-counts its smoother's "symgs"/"spmv" entries; "cholesky" the
/// gemm/syrk/trsm its tile tasks run); excluded when summing the distinct
/// measured traffic of a whole solve. "hpl_lu" is *not* here: `par_getrf`
/// runs its panel, triangular solve and trailing update on crate-private
/// kernels that record nothing, so its entry is a leaf.
pub const AGGREGATES: [&str; 2] = ["cholesky", "mg_vcycle"];

/// Field-wise sum of the non-aggregate entries in a
/// [`xsc_metrics::measure`] delta: the distinct leaf-kernel traffic of the
/// measured region, with no double counting from nested scopes.
pub fn leaf_sum(delta: &[(&'static str, KernelCounters)]) -> KernelCounters {
    let mut t = KernelCounters::default();
    for (k, c) in delta {
        if !AGGREGATES.contains(k) {
            t.merge(c);
        }
    }
    t
}

/// The counters one named kernel produced in a `measure` delta (empty
/// counters when it never ran).
pub fn kernel(delta: &[(&'static str, KernelCounters)], name: &str) -> KernelCounters {
    delta
        .iter()
        .find(|(k, _)| *k == name)
        .map(|(_, c)| *c)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(flops: u64, bytes_read: u64) -> KernelCounters {
        KernelCounters {
            flops,
            bytes_read,
            invocations: 1,
            ..Default::default()
        }
    }

    #[test]
    fn leaf_sum_skips_aggregates() {
        let delta = vec![
            ("hpl_lu", c(5, 50)),
            ("spmv", c(10, 100)),
            ("symgs", c(20, 200)),
            ("mg_vcycle", c(30, 300)),
        ];
        let leaf = leaf_sum(&delta);
        assert_eq!(leaf.flops, 35, "hpl_lu is a leaf, mg_vcycle is not");
        assert_eq!(leaf.bytes_read, 350);
        assert_eq!(kernel(&delta, "mg_vcycle").flops, 30);
        assert!(kernel(&delta, "absent").is_empty());
    }
}
