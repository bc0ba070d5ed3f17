//! Offline stand-in for the `rand` crate (API subset used by `xsc`).
//!
//! Provides a deterministic, seedable [`rngs::SmallRng`] (xoshiro256++ with
//! SplitMix64 seeding — the same generator family the real `small_rng`
//! feature selects) and the [`Rng`]/[`SeedableRng`] trait surface the
//! workspace calls: `gen_range` over integer and float ranges and
//! `gen_bool`. Streams are stable across runs and platforms, which is all
//! the reproducible experiments require; they do not match the real
//! `rand` crate's streams.
//!
//! [`rngs::SmallRng::advance`] goes beyond `rand`'s API, which offers
//! xoshiro's fixed-distance `jump()`/`long_jump()` only. It moves the
//! stream ahead by any number of words in O(log words) time, so parallel
//! workers can each start at their own offset into one seeded stream and
//! together produce the same values the serial loop would.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Seedable random number generators.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Sampling from a range, used by [`Rng::gen_range`].
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one value from `self` using `rng`.
    fn sample<R: RngCore>(self, rng: &mut R) -> Self::Output;
}

/// Minimal core RNG interface: a stream of uniform 64-bit words.
pub trait RngCore {
    /// Next uniform 64-bit word.
    fn next_u64(&mut self) -> u64;
}

/// User-facing RNG methods (blanket-implemented over [`RngCore`]).
pub trait Rng: RngCore {
    /// Uniform sample from a range (half-open).
    fn gen_range<S: SampleRange>(&mut self, range: S) -> S::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Bernoulli trial with probability `p` of `true`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        if p <= 0.0 {
            // Consume a word either way so the stream advances identically
            // for every rate, keeping sweeps at different rates aligned.
            self.next_u64();
            return false;
        }
        unit_f64(self.next_u64()) < p
    }
}

impl<T: RngCore> Rng for T {}

/// Maps a 64-bit word to `[0, 1)` with 53-bit resolution.
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                // Modulo reduction: the bias is < 2^-64 per draw for the
                // span sizes these experiments use, far below any effect
                // the tests measure.
                let off = (rng.next_u64() as u128 % span) as i128;
                (self.start as i128 + off) as $t
            }
        }
    )*};
}
int_range!(usize, u64, u32, i64, i32);

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample<R: RngCore>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range in gen_range");
        self.start + unit_f64(rng.next_u64()) * (self.end - self.start)
    }
}

/// RNG implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — small, fast, and statistically solid; seeded via
    /// SplitMix64 exactly as the reference implementation recommends.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    /// The characteristic polynomial `P(x)` of xoshiro256's state update
    /// over GF(2), low coefficient word first; the `x^256` term is implied.
    /// The tests re-derive it by Berlekamp–Massey.
    pub(crate) const CHAR_POLY: [u64; 4] = [
        0x9d11_6f2b_b0f0_f001,
        0x0280_002b_cefd_1a5e,
        0x04b4_edcf_2625_9f85,
        0x0003_c03c_3f3e_cb19,
    ];

    /// A polynomial over GF(2) of degree below 256, bit `i` the
    /// coefficient of `x^i`.
    type Poly = [u64; 4];

    /// `a · x mod P`.
    fn times_x(a: Poly) -> Poly {
        let carry = a[3] >> 63;
        let mut r = [
            a[0] << 1,
            (a[1] << 1) | (a[0] >> 63),
            (a[2] << 1) | (a[1] >> 63),
            (a[3] << 1) | (a[2] >> 63),
        ];
        if carry == 1 {
            for (w, p) in r.iter_mut().zip(CHAR_POLY) {
                *w ^= p;
            }
        }
        r
    }

    /// `a · b mod P`, by Horner's rule over `b`'s bits, high bit first.
    fn mul_mod(a: Poly, b: Poly) -> Poly {
        let mut r = [0u64; 4];
        for i in (0..256).rev() {
            r = times_x(r);
            if (b[i / 64] >> (i % 64)) & 1 == 1 {
                for (w, x) in r.iter_mut().zip(a) {
                    *w ^= x;
                }
            }
        }
        r
    }

    /// `x^k mod P`, by square-and-multiply over `k`'s bits, high bit first.
    fn x_pow_mod(k: u64) -> Poly {
        let mut r: Poly = [1, 0, 0, 0];
        for bit in (0..64 - k.leading_zeros()).rev() {
            r = mul_mod(r, r);
            if (k >> bit) & 1 == 1 {
                r = times_x(r);
            }
        }
        r
    }

    impl SmallRng {
        /// Moves the stream `words` outputs ahead in O(log words) time: the
        /// generator ends where `words` calls to `next_u64` would leave it.
        ///
        /// An extension of this shim; real `rand` has only xoshiro's
        /// fixed-distance `jump()` and `long_jump()`. The state update `T`
        /// is linear over GF(2) and `P(T) = 0`, so with
        /// `x^words mod P = Σ c_i x^i` the new state is `Σ c_i Tⁱ(s)`:
        /// 256 steps of a copy, XORing in the states whose `c_i` is set.
        pub fn advance(&mut self, words: u64) {
            let c = x_pow_mod(words);
            let mut out = [0u64; 4];
            for i in 0..256 {
                if (c[i / 64] >> (i % 64)) & 1 == 1 {
                    for (w, s) in out.iter_mut().zip(self.s) {
                        *w ^= s;
                    }
                }
                self.next_u64();
            }
            self.s = out;
        }

        /// The raw state words, for the tests that check [`CHAR_POLY`].
        #[cfg(test)]
        pub(crate) fn state(&self) -> [u64; 4] {
            self.s
        }
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            SmallRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let out = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::{SmallRng, CHAR_POLY};
    use super::{Rng, RngCore, SeedableRng};

    /// `rng` after `k` calls to `next_u64`.
    fn stepped(mut rng: SmallRng, k: u64) -> SmallRng {
        for _ in 0..k {
            rng.next_u64();
        }
        rng
    }

    #[test]
    fn advance_equals_stepping() {
        let start = SmallRng::seed_from_u64(17);
        for k in [0u64, 1, 255, 256, 257, 65_537, 1_000_003] {
            let mut jumped = start.clone();
            jumped.advance(k);
            assert_eq!(jumped, stepped(start.clone(), k), "advance({k})");
        }
    }

    #[test]
    fn advances_compose() {
        let (a, b) = ((1u64 << 40) + 7, 3 << 33);
        let mut two = SmallRng::seed_from_u64(23);
        let mut one = two.clone();
        two.advance(a);
        two.advance(b);
        one.advance(a + b);
        assert_eq!(two, one);
    }

    /// The shortest linear recurrence over GF(2) that generates `bits`,
    /// as its connection polynomial `1 + c_1 x + … + c_L x^L` (index `i`
    /// holds `c_i`; Berlekamp–Massey).
    fn berlekamp_massey(bits: &[u8]) -> Vec<u8> {
        let n = bits.len();
        let (mut c, mut b) = (vec![0u8; n + 1], vec![0u8; n + 1]);
        c[0] = 1;
        b[0] = 1;
        let (mut len, mut gap) = (0usize, 1usize);
        for i in 0..n {
            let d = (1..=len).fold(bits[i], |d, j| d ^ (c[j] & bits[i - j]));
            if d == 0 {
                gap += 1;
                continue;
            }
            let before = c.clone();
            for j in 0..=n - gap {
                c[j + gap] ^= b[j];
            }
            if 2 * len <= i {
                len = i + 1 - len;
                b = before;
                gap = 1;
            } else {
                gap += 1;
            }
        }
        c.truncate(len + 1);
        c
    }

    #[test]
    fn char_poly_matches_berlekamp_massey() {
        for (seed, word, bit) in [(1u64, 0usize, 0u32), (2, 2, 37), (3, 3, 63)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let bits: Vec<u8> = (0..512)
                .map(|_| {
                    let b = ((rng.state()[word] >> bit) & 1) as u8;
                    rng.next_u64();
                    b
                })
                .collect();
            let c = berlekamp_massey(&bits);
            assert_eq!(c.len(), 257, "state bit recurrence has degree 256");
            // P(x) = x^256 C(1/x): the coefficient of x^j is c_{256-j}.
            let mut p = [0u64; 4];
            for j in 0..256 {
                p[j / 64] |= u64::from(c[256 - j]) << (j % 64);
            }
            assert_eq!(p, CHAR_POLY, "seed {seed}, bit {bit} of word {word}");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0usize..1000), b.gen_range(0usize..1000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..64)
            .filter(|_| a.gen_range(0u64..1 << 40) == b.gen_range(0u64..1 << 40))
            .count();
        assert!(same < 4, "streams should differ ({same} collisions)");
    }

    #[test]
    fn ranges_in_bounds() {
        let mut r = SmallRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = r.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&v));
            let i = r.gen_range(5usize..17);
            assert!((5..17).contains(&i));
            let n = r.gen_range(-3i64..4);
            assert!((-3..4).contains(&n));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = SmallRng::seed_from_u64(4);
        assert!((0..200).all(|_| !r.gen_bool(0.0)));
        assert!((0..200).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn gen_bool_rate_is_roughly_respected() {
        let mut r = SmallRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn uniform_mean_is_centered() {
        let mut r = SmallRng::seed_from_u64(6);
        let mean: f64 = (0..10_000).map(|_| r.gen_range(-1.0..1.0)).sum::<f64>() / 10_000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }
}
