//! Fault kinds: how an injected fault perturbs its victim value.
//!
//! Real extreme-scale faults (DRAM upsets, failed nodes) cannot be
//! scheduled on a laptop, so experiments inject them. *When* a fault fires
//! and *which* element it hits is a seeded [`FaultPlan`](crate::plan::FaultPlan)'s
//! decision; this module only says what the fault does to the value.

/// How an injected fault perturbs the victim value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Flip a high mantissa/exponent bit: value becomes wildly wrong.
    BitFlip,
    /// Overwrite with a fixed garbage value.
    Stuck(f64),
    /// Scale by a factor (a "silent" small corruption).
    Scale(f64),
    /// Overwrite with exactly zero (a dead tile / lost update).
    Zero,
}

impl FaultKind {
    /// Applies this corruption to one value — the single implementation
    /// behind every injected corruption.
    pub fn apply(self, v: f64) -> f64 {
        match self {
            FaultKind::BitFlip => {
                // Flip a high bit of the f64 image: deterministic, large.
                f64::from_bits(v.to_bits() ^ (1u64 << 61))
            }
            FaultKind::Stuck(g) => g,
            FaultKind::Scale(s) => v * s,
            FaultKind::Zero => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;

    #[test]
    fn injection_is_reproducible() {
        let corrupt = |seed| {
            let plan = FaultPlan::new(seed, 1.0, FaultKind::BitFlip);
            let mut v: Vec<f64> = (0..64).map(f64::from).collect();
            let kind = plan.decide(3, 0).unwrap();
            let i = plan.element_index(v.len(), 3, 0).unwrap();
            v[i] = kind.apply(v[i]);
            v
        };
        assert_eq!(corrupt(7), corrupt(7));
    }

    #[test]
    fn bit_flip_changes_value_substantially() {
        let v = FaultKind::BitFlip.apply(1.0);
        assert_ne!(v, 1.0);
        // Flipping exponent bit 61 either explodes the value (~1e154) or
        // collapses it (~1e-154); both are a large *relative* change.
        assert!((v - 1.0).abs() >= 0.5, "bit 61 flip must be large: {v}");
        assert_eq!(FaultKind::BitFlip.apply(v), 1.0, "a flip is an involution");
    }

    #[test]
    fn stuck_and_scale_kinds() {
        assert_eq!(FaultKind::Stuck(42.0).apply(7.0), 42.0);
        assert_eq!(FaultKind::Scale(2.0).apply(7.0), 14.0);
    }

    #[test]
    fn zero_kind_kills_value() {
        assert_eq!(FaultKind::Zero.apply(3.5), 0.0);
        assert_eq!(FaultKind::Zero.apply(-7.0), 0.0);
    }

    #[test]
    fn rate_is_validated_and_readable() {
        let plan = FaultPlan::new(12, 0.25, FaultKind::BitFlip);
        assert_eq!(plan.rate(), 0.25);
        assert!(std::panic::catch_unwind(|| FaultPlan::new(0, 1.5, FaultKind::Zero)).is_err());
        assert!(std::panic::catch_unwind(|| FaultPlan::new(0, -0.1, FaultKind::Zero)).is_err());
        assert!(std::panic::catch_unwind(|| FaultPlan::new(0, f64::NAN, FaultKind::Zero)).is_err());
    }

    #[test]
    fn rate_zero_never_fires() {
        let plan = FaultPlan::new(4, 0.0, FaultKind::BitFlip);
        assert!((0..1000).all(|it| plan.decide(it, 0).is_none()));
        assert_eq!(plan.total_fired(), 0);
    }

    #[test]
    fn rate_one_always_fires() {
        let plan = FaultPlan::new(5, 1.0, FaultKind::Stuck(9.0));
        assert!((0..100).all(|it| plan.decide(it, 0) == Some(FaultKind::Stuck(9.0))));
        assert_eq!(plan.total_fired(), 100);
    }

    #[test]
    fn vector_corruption_in_bounds() {
        let plan = FaultPlan::new(6, 1.0, FaultKind::BitFlip);
        for it in 0..100 {
            let i = plan.element_index(17, it, 0).unwrap();
            assert!(i < 17);
        }
        assert_eq!(plan.element_index(0, 0, 0), None);
    }
}
