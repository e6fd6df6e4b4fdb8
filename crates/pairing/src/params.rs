//! Pairing parameter sets (PBC "type A" analogue) and the user-facing
//! [`PairingCtx`].
//!
//! Generation follows the shape of PBC's type-A generator: the group order
//! is a Solinas prime `q = 2^a ± 2^b ± 1`, so the signed-digit Miller loop
//! over `q` is all doublings plus two additions. The cofactor search and
//! the generator are independent of that shape.

use crate::curve::{CombTable, Point};
use crate::fp::FpCtx;
use crate::fp2::Fp2;
use crate::pairing::TatePairing;
use crate::prepared::PreparedPoint;
use crate::{at_width, FpW, PairingError};
use mws_bigint::{is_prime, random_below, random_nonzero_below, MillerRabinRounds};
use mws_crypto::{HmacDrbg, Rng};
use std::sync::{Arc, OnceLock};

const ROUNDS: MillerRabinRounds = MillerRabinRounds(32);

/// Draws a Solinas prime `q = 2^a ± 2^b ± 1` of exactly `qbits` bits, with
/// `b ∈ [1, qbits − 2]` and both signs from `rng`. A subtracted `2^b`
/// pairs with `a = qbits`, an added one with `a = qbits − 1`, so every
/// sign pattern keeps the length. `None` if no candidate passed within
/// the draw budget, so a size with no such prime fails instead of looping.
fn solinas_prime<R: Rng + ?Sized>(rng: &mut R, qbits: u32) -> Option<FpW> {
    for _ in 0..64 * qbits {
        let draw = rng.next_u32();
        let (minus_b, minus_one) = (draw & 1 == 1, draw & 2 == 2);
        let b = 1 + (draw >> 2) % (qbits - 2);
        let mut q = FpW::ZERO;
        q.set_bit(if minus_b { qbits } else { qbits - 1 }, true);
        let mut two_b = FpW::ZERO;
        two_b.set_bit(b, true);
        q = if minus_b {
            q.wrapping_sub(&two_b)
        } else {
            q.wrapping_add(&two_b)
        };
        q = if minus_one {
            q.wrapping_sub(&FpW::ONE)
        } else {
            q.wrapping_add(&FpW::ONE)
        };
        if q.bits() == qbits && is_prime(&q, ROUNDS, rng) {
            return Some(q);
        }
    }
    None
}

/// Raw curve parameters: `p + 1 = q·h`, `E : y² = x³ + x` over `F_p`,
/// generator of the order-`q` subgroup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairingParams {
    /// Field prime, `≡ 3 (mod 4)`.
    pub p: FpW,
    /// Prime subgroup order.
    pub q: FpW,
    /// Cofactor `(p+1)/q`.
    pub h: FpW,
    /// Compressed encoding of the subgroup generator.
    pub generator: Vec<u8>,
}

/// Named parameter sizes.
///
/// All sets are deterministic (derived from a fixed seed via HMAC-DRBG) so
/// every test and benchmark runs on identical curves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SecurityLevel {
    /// 80-bit `q`, 160-bit `p` — unit tests; *no* real security.
    Toy,
    /// 128-bit `q`, 256-bit `p` — integration tests.
    Light,
    /// 160-bit `q`, 512-bit `p` — the classic PBC type-A demo size;
    /// benchmarks. (Production deployments would want ≥1024-bit `p`,
    /// beyond this build's fixed 512-bit field width.)
    Standard,
}

impl SecurityLevel {
    /// `(q bits, p bits, seed)` for deterministic generation.
    fn shape(self) -> (u32, u32, u64) {
        match self {
            SecurityLevel::Toy => (80, 160, 0x544f59),
            SecurityLevel::Light => (128, 256, 0x4c49474854),
            SecurityLevel::Standard => (160, 512, 0x535444),
        }
    }
}

/// A ready-to-use pairing context: field, curve, subgroup and pairing engine.
///
/// The field's width is picked once, from `p` (see the crate docs'
/// *Widths*); each group-level method dispatches on it once and runs the
/// whole operation there.
///
/// Carries lazily built, `Arc`-shared generator precomputations (a
/// fixed-base comb table and a prepared Miller tape), so cloned contexts —
/// including every clone handed out by [`PairingCtx::named`] — reuse one
/// copy per process.
#[derive(Clone, Debug)]
pub struct PairingCtx {
    fp: FpCtx,
    tate: TatePairing,
    generator: Point,
    params: PairingParams,
    gen_comb: Arc<OnceLock<CombTable>>,
    gen_prepared: Arc<OnceLock<PreparedPoint>>,
}

impl PairingCtx {
    /// Builds a context from raw parameters, validating their consistency.
    pub fn from_params(params: &PairingParams) -> Result<Self, PairingError> {
        // p ≡ 3 (mod 4), q·h = p + 1, and q narrow enough for the Miller
        // loop's signed-digit recoding.
        if params.p.is_even() || params.p.as_u64() & 3 != 3 {
            return Err(PairingError::BadParameters);
        }
        if params.q.bits() + 2 > FpW::BITS {
            return Err(PairingError::BadParameters);
        }
        let (qh, overflow) = {
            let (lo, hi) = params.q.widening_mul(&params.h);
            (lo, !hi.is_zero())
        };
        if overflow || qh != params.p.wrapping_add(&FpW::ONE) {
            return Err(PairingError::BadParameters);
        }
        // q ∤ h: then h·T = O exactly when T's order is prime to q, that is
        // when ê(P, T) = 1 — what the cofactor-free compose relies on
        // (DESIGN D7).
        if params.h.rem(&params.q).is_zero() {
            return Err(PairingError::BadParameters);
        }
        let fp = FpCtx::new(&params.p);
        let generator = fp.point_from_bytes(&params.generator)?;
        if generator.is_infinity() || !fp.is_on_curve(&generator) {
            return Err(PairingError::InvalidPoint);
        }
        // Generator must have exact order q (the ladder's `q·G = O`; the group
        // E(F_p) ≅ Z_{p+1} is cyclic — gcd(p+1, p−1) = 2 and there is a
        // single 2-torsion point — so `q·G = O` characterizes the unique
        // order-q subgroup exactly).
        if !fp.mul_is_infinity(&generator, &params.q) {
            return Err(PairingError::InvalidPoint);
        }
        Ok(Self {
            fp,
            tate: TatePairing::new(params.q, params.h),
            generator,
            params: params.clone(),
            gen_comb: Arc::new(OnceLock::new()),
            gen_prepared: Arc::new(OnceLock::new()),
        })
    }

    /// Generates fresh parameters: a `qbits`-bit Solinas prime subgroup
    /// order `q = 2^a ± 2^b ± 1` inside a `pbits`-bit field with
    /// `p = q·h − 1`, `12 | h`.
    pub fn generate<R: Rng + ?Sized>(
        rng: &mut R,
        qbits: u32,
        pbits: u32,
    ) -> Result<Self, PairingError> {
        if qbits < 16 || pbits <= qbits + 8 || pbits > FpW::BITS {
            return Err(PairingError::BadParameters);
        }
        let q = solinas_prime(rng, qbits).ok_or(PairingError::BadParameters)?;
        Ok(Self::with_order(rng, q, pbits))
    }

    /// The rest of generation for a chosen prime order `q`: the cofactor
    /// search, `p = q·h − 1`, and the generator.
    fn with_order<R: Rng + ?Sized>(rng: &mut R, q: FpW, pbits: u32) -> Self {
        // h ranges so that q·h − 1 has exactly pbits bits; h ≡ 0 (mod 12)
        // forces p ≡ 3 (mod 4) (and keeps the PBC convention 12 | h).
        let twelve = FpW::from_u64(12);
        let mut low = FpW::ZERO;
        low.set_bit(pbits - 1, true);
        let (h_lo, _) = low.div_rem(&q);
        let h_span = h_lo; // [h_lo, 2·h_lo) spans one binade
        let p = loop {
            let r = random_below(rng, &h_span);
            let h_raw = h_lo.wrapping_add(&r);
            // Round down to a multiple of 12.
            let h = h_raw.wrapping_sub(&h_raw.rem(&twelve));
            if h.is_zero() || h.rem(&q).is_zero() {
                continue;
            }
            let (qh, hi) = q.widening_mul(&h);
            if !hi.is_zero() {
                continue;
            }
            let p = qh.wrapping_sub(&FpW::ONE);
            if p.bits() != pbits {
                continue;
            }
            debug_assert_eq!(p.as_u64() & 3, 3);
            if is_prime(&p, ROUNDS, rng) {
                break p;
            }
        };
        let (h, _) = p.wrapping_add(&FpW::ONE).div_rem(&q);
        let fp = FpCtx::new(&p);
        // Generator: cofactor-clear random points until nonzero. Because
        // p + 1 = q·h, multiplying by h lands in the order-q subgroup *by
        // construction* — the cofactor-based membership argument that lets
        // hash-to-point and generation skip an explicit order check.
        let generator = loop {
            let r = fp.random_curve_point(rng);
            let g = fp.point_mul(&r, &h, q.bits());
            if !g.is_infinity() {
                debug_assert!(fp.mul_is_infinity(&g, &q));
                break g;
            }
        };
        let params = PairingParams {
            p,
            q,
            h,
            generator: fp.point_to_bytes(&generator),
        };
        Self {
            fp,
            tate: TatePairing::new(q, h),
            generator,
            params,
            gen_comb: Arc::new(OnceLock::new()),
            gen_prepared: Arc::new(OnceLock::new()),
        }
    }

    /// Returns the deterministic named parameter set (cached per process).
    pub fn named(level: SecurityLevel) -> Self {
        static TOY: OnceLock<PairingCtx> = OnceLock::new();
        static LIGHT: OnceLock<PairingCtx> = OnceLock::new();
        static STANDARD: OnceLock<PairingCtx> = OnceLock::new();
        let cell = match level {
            SecurityLevel::Toy => &TOY,
            SecurityLevel::Light => &LIGHT,
            SecurityLevel::Standard => &STANDARD,
        };
        cell.get_or_init(|| {
            let (qbits, pbits, seed) = level.shape();
            let mut rng = HmacDrbg::new(&seed.to_be_bytes(), b"mws-pairing-params");
            Self::generate(&mut rng, qbits, pbits).expect("sizes are valid")
        })
        .clone()
    }

    /// The raw parameters (for persistence / wire transfer).
    pub fn params(&self) -> &PairingParams {
        &self.params
    }

    /// The field context.
    pub fn field(&self) -> &FpCtx {
        &self.fp
    }

    /// The subgroup generator `P`.
    pub fn generator(&self) -> Point {
        self.generator
    }

    /// The prime subgroup order `q`.
    pub fn group_order(&self) -> &FpW {
        &self.tate.q
    }

    /// The cofactor `h`.
    pub fn cofactor(&self) -> &FpW {
        &self.tate.h
    }

    /// Uniformly random nonzero scalar in `[1, q)`.
    pub fn random_scalar<R: Rng + ?Sized>(&self, rng: &mut R) -> FpW {
        random_nonzero_below(rng, &self.tate.q)
    }

    /// Scalar multiplication on the curve: the Montgomery ladder, over
    /// `max(bits(k), bits(q))` steps whatever `k` is.
    pub fn mul(&self, p: &Point, k: &FpW) -> Point {
        self.fp.point_mul(p, k, self.tate.q.bits())
    }

    /// The generator's comb table (built on first use, shared across
    /// clones).
    fn generator_comb(&self) -> &CombTable {
        self.gen_comb
            .get_or_init(|| self.fp.comb_table(&self.generator, self.tate.q.bits()))
    }

    /// Fixed-base multiplication `k·P` of the generator through the cached
    /// comb table (built on first use, shared across clones).
    pub fn mul_generator(&self, k: &FpW) -> Point {
        self.fp.comb_mul(self.generator_comb(), k)
    }

    /// The generator with its Miller tape precomputed (built on first use,
    /// shared across clones) — for pairings whose fixed argument is `P`.
    pub fn prepared_generator(&self) -> &PreparedPoint {
        self.gen_prepared
            .get_or_init(|| self.prepare(&self.generator))
    }

    /// Prepares an arbitrary long-lived pairing argument (e.g. `P_pub`,
    /// `d_ID`); see [`PreparedPoint`].
    pub fn prepare(&self, p: &Point) -> PreparedPoint {
        PreparedPoint {
            point: *p,
            tape: at_width!(wide, self.fp, |f| self.tate.prepare(f, &p.at())),
        }
    }

    /// Pairing with a prepared first argument — bit-identical to
    /// [`Self::pairing`] on the same points.
    pub fn pairing_with(&self, p: &PreparedPoint, q: &Point) -> Fp2 {
        at_width!(self.fp, &p.tape, |f, tape| Fp2::from_fe(
            &self.tate.pairing_prepared(f, tape, &q.at())
        ))
    }

    /// Eagerly builds the generator caches (comb table + prepared tape).
    /// Long-lived services call this at construction so the first request
    /// doesn't pay the one-time cost.
    pub fn warm_caches(&self) {
        let _ = self.generator_comb();
        let _ = self.prepared_generator();
    }

    /// Membership test for the order-`q` subgroup (on-curve and `q·P = O`,
    /// via the x-only ladder; infinity is a member).
    ///
    /// `E(F_p)` is cyclic of order `p + 1 = q·h`, so the annihilation check
    /// is exact. Points obtained by cofactor multiplication (hash-to-point,
    /// generator construction) are members by construction and don't need
    /// this.
    pub fn in_subgroup(&self, p: &Point) -> bool {
        match p {
            Point::Infinity => true,
            _ => self.fp.is_on_curve(p) && self.fp.mul_is_infinity(p, &self.tate.q),
        }
    }

    /// Point addition.
    pub fn add(&self, a: &Point, b: &Point) -> Point {
        self.fp.point_add(a, b)
    }

    /// The modified Tate pairing via the projective signed-digit Miller
    /// loop.
    pub fn pairing(&self, p: &Point, q: &Point) -> Fp2 {
        at_width!(self.fp, |f| Fp2::from_fe(&self.tate.pairing(
            f,
            &p.at(),
            &q.at()
        )))
    }

    /// The modified Tate pairing via the affine Miller loop over the binary
    /// digits of `q` (one inversion per step) — the independent reference
    /// and pre-optimization baseline, bit-identical to [`Self::pairing`].
    pub fn pairing_affine(&self, p: &Point, q: &Point) -> Fp2 {
        at_width!(self.fp, |f| Fp2::from_fe(&self.tate.pairing_affine(
            f,
            &p.at(),
            &q.at()
        )))
    }

    /// Hash-to-point (BF `MapToPoint`): see [`crate::maptopoint`].
    pub fn hash_to_point(&self, msg: &[u8]) -> Point {
        crate::maptopoint::hash_to_point(self, msg)
    }

    /// The `counter`-th `MapToPoint` candidate for `msg`, before the
    /// cofactor is cleared: a point of the full group `E(F_p)`, or `None`
    /// when the expanded `x` has `f(x) = 0`. [`Self::hash_to_point`] is
    /// `h·Q` for the first candidate `Q` with `h·Q ≠ O` (see
    /// [`crate::maptopoint`]).
    pub fn map_candidate(&self, msg: &[u8], counter: u32) -> Option<Point> {
        at_width!(self.fp, |f| {
            let q = crate::maptopoint::candidate_at(f, msg, counter)?;
            Some(Point::from_aff(&Some(q)))
        })
    }

    /// Canonical bytes of a pairing value (for KDF input).
    pub fn gt_to_bytes(&self, v: &Fp2) -> Vec<u8> {
        self.fp.fp2_to_bytes(v)
    }
}

/// Parameter sets every signed-digit loop is cross-checked on against the
/// binary affine reference: the three named sets, one small [`generate`]
/// output per NAF sign pattern of `q = 2^a ± 2^b ± 1`, and a random
/// (`gen_prime`) order of full NAF weight rebuilt through
/// [`PairingCtx::from_params`], as a device receiving foreign parameters
/// would.
///
/// [`generate`]: PairingCtx::generate
#[cfg(test)]
pub(crate) fn cross_check_sets() -> &'static [(String, PairingCtx)] {
    static SETS: OnceLock<Vec<(String, PairingCtx)>> = OnceLock::new();
    SETS.get_or_init(|| {
        let mut sets: Vec<(String, PairingCtx)> = [
            SecurityLevel::Toy,
            SecurityLevel::Light,
            SecurityLevel::Standard,
        ]
        .into_iter()
        .map(|level| (format!("{level:?}"), PairingCtx::named(level)))
        .collect();
        let mut patterns = Vec::new();
        for seed in 0u64.. {
            let c = PairingCtx::generate(&mut HmacDrbg::from_u64(seed), 32, 96).unwrap();
            let naf = crate::naf::wnaf_digits(c.group_order(), 2);
            let signs: Vec<i8> = naf.into_iter().filter(|d| *d != 0).collect();
            if let [low, mid, 1] = signs[..] {
                if !patterns.contains(&(mid, low)) {
                    patterns.push((mid, low));
                    sets.push((format!("solinas {mid:+}·2^b {low:+}"), c));
                }
            }
            if patterns.len() == 4 {
                break;
            }
        }
        let mut rng = HmacDrbg::from_u64(0x52414e44);
        let q = mws_bigint::gen_prime(&mut rng, 32, ROUNDS);
        let random = PairingCtx::with_order(&mut rng, q, 96);
        let rebuilt = PairingCtx::from_params(random.params()).unwrap();
        sets.push(("gen_prime q".to_string(), rebuilt));
        sets
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_draws_solinas_orders() {
        for (qbits, pbits, seed) in [(16, 48, 1), (32, 96, 2), (80, 160, 3)] {
            let c = PairingCtx::generate(&mut HmacDrbg::from_u64(seed), qbits, pbits).unwrap();
            let q = c.group_order();
            assert_eq!(q.bits(), qbits, "q is exactly qbits long");
            let weight = crate::naf::wnaf_digits(q, 2)
                .iter()
                .filter(|d| **d != 0)
                .count();
            assert!(
                weight <= 3,
                "NAF weight {weight} > 3 for q = {}",
                q.to_hex()
            );
        }
        for (name, c) in cross_check_sets() {
            let q = c.group_order();
            let weight = crate::naf::wnaf_digits(q, 2)
                .iter()
                .filter(|d| **d != 0)
                .count();
            if name == "gen_prime q" {
                assert!(weight > 3, "the random order is not Solinas-shaped");
            } else {
                assert!(weight <= 3, "{name}: NAF weight {weight}");
            }
        }
    }

    #[test]
    fn toy_params_self_consistent() {
        let c = PairingCtx::named(SecurityLevel::Toy);
        let p = c.params();
        assert_eq!(p.q.bits(), 80);
        assert_eq!(p.p.bits(), 160);
        assert_eq!(p.p.as_u64() & 3, 3, "p ≡ 3 (mod 4)");
        assert!(p.h.rem(&FpW::from_u64(12)).is_zero(), "12 | h");
        // q·h == p + 1
        let (qh, hi) = p.q.widening_mul(&p.h);
        assert!(hi.is_zero());
        assert_eq!(qh, p.p.wrapping_add(&FpW::ONE));
        // Generator has order q.
        assert!(c.mul(&c.generator(), c.group_order()).is_infinity());
        assert!(!c.generator().is_infinity());
    }

    #[test]
    fn named_params_are_deterministic() {
        let a = PairingCtx::named(SecurityLevel::Toy);
        let b = PairingCtx::named(SecurityLevel::Toy);
        assert_eq!(a.params(), b.params());
    }

    #[test]
    fn from_params_roundtrip() {
        let c = PairingCtx::named(SecurityLevel::Toy);
        let rebuilt = PairingCtx::from_params(c.params()).unwrap();
        assert_eq!(rebuilt.generator(), c.generator());
        assert_eq!(rebuilt.group_order(), c.group_order());
    }

    #[test]
    fn from_params_rejects_corruption() {
        let c = PairingCtx::named(SecurityLevel::Toy);
        let good = c.params().clone();

        let mut bad = good.clone();
        bad.q = bad.q.wrapping_add(&FpW::ONE);
        assert!(PairingCtx::from_params(&bad).is_err());

        let mut bad = good.clone();
        bad.p = bad.p.wrapping_add(&FpW::from_u64(4)); // keeps 3 mod 4, breaks q·h
        assert!(PairingCtx::from_params(&bad).is_err());

        // q | h (p + 1 = 299 + 1 = 5·60): refused whatever the generator.
        let q = FpW::from_u64(5);
        let h = FpW::from_u64(60);
        let square = PairingParams {
            p: q.wrapping_mul(&h).wrapping_sub(&FpW::ONE),
            q,
            h,
            generator: good.generator.clone(),
        };
        assert_eq!(
            PairingCtx::from_params(&square).unwrap_err(),
            PairingError::BadParameters
        );

        let mut bad = good.clone();
        bad.generator = vec![0x00]; // infinity
        assert!(PairingCtx::from_params(&bad).is_err());

        let mut bad = good;
        bad.generator[5] ^= 0xff;
        assert!(PairingCtx::from_params(&bad).is_err());
    }

    #[test]
    fn generate_rejects_bad_shapes() {
        let mut rng = HmacDrbg::from_u64(1);
        assert!(PairingCtx::generate(&mut rng, 8, 160).is_err());
        assert!(PairingCtx::generate(&mut rng, 80, 80).is_err());
        assert!(PairingCtx::generate(&mut rng, 80, 1024).is_err());
    }

    #[test]
    fn fresh_generation_works() {
        let mut rng = HmacDrbg::from_u64(77);
        let c = PairingCtx::generate(&mut rng, 32, 96).unwrap();
        assert_eq!(c.params().q.bits(), 32);
        assert_eq!(c.params().p.bits(), 96);
        // Pairing sanity on the fresh curve.
        let g = c.generator();
        let e = c.pairing(&g, &g);
        assert_ne!(e, c.field().fp2_one());
        assert_eq!(c.field().fp2_pow(&e, c.group_order()), c.field().fp2_one());
    }

    /// Comb, the Montgomery ladder and binary double-and-add must agree
    /// bit-for-bit on the generator, including the edge scalars `0`, `1`,
    /// `q−1`, `q`.
    fn scalar_mul_cross_check(level: SecurityLevel) {
        let c = PairingCtx::named(level);
        let g = c.generator();
        let f = c.field();
        let q = *c.group_order();
        let mut rng = HmacDrbg::from_u64(0x434f4d42);
        let mut scalars = vec![
            FpW::ZERO,
            FpW::ONE,
            q.wrapping_sub(&FpW::ONE),
            q, // annihilates the generator
            q.wrapping_add(&FpW::ONE),
        ];
        for _ in 0..4 {
            scalars.push(c.random_scalar(&mut rng));
        }
        for k in &scalars {
            let reference = f.point_mul_binary(&g, k);
            assert_eq!(c.mul(&g, k), reference, "ladder vs binary");
            assert_eq!(c.mul_generator(k), reference, "comb vs binary");
        }
        assert_eq!(c.mul_generator(&q), Point::Infinity);
        // Hashed points through the ladder.
        let h = c.hash_to_point(b"scalar-mul/cross-check");
        let k = c.random_scalar(&mut rng);
        assert_eq!(c.mul(&h, &k), f.point_mul_binary(&h, &k));
    }

    #[test]
    fn scalar_mul_cross_check_toy() {
        scalar_mul_cross_check(SecurityLevel::Toy);
    }

    #[test]
    fn scalar_mul_cross_check_light() {
        scalar_mul_cross_check(SecurityLevel::Light);
    }

    #[test]
    fn subgroup_membership() {
        let c = PairingCtx::named(SecurityLevel::Toy);
        let g = c.generator();
        assert!(c.in_subgroup(&g));
        assert!(c.in_subgroup(&Point::Infinity));
        let mut rng = HmacDrbg::from_u64(0x535542);
        assert!(c.in_subgroup(&c.mul(&g, &c.random_scalar(&mut rng))));
        // Hashed points are cofactor-cleared — members by construction.
        assert!(c.in_subgroup(&c.hash_to_point(b"attr|x")));
        // A random full-group point is (overwhelmingly) not in the
        // subgroup; find one that isn't.
        let mut found = false;
        for _ in 0..16 {
            let p = c.field().random_curve_point(&mut rng);
            if !c.in_subgroup(&p) {
                found = true;
                break;
            }
        }
        assert!(found, "random points fall outside the q-subgroup");
    }

    #[test]
    fn warm_caches_is_idempotent() {
        let c = PairingCtx::named(SecurityLevel::Toy);
        c.warm_caches();
        c.warm_caches();
        let g = c.generator();
        assert_eq!(c.mul_generator(&FpW::ONE), g);
    }

    #[test]
    fn random_scalars_in_range() {
        let c = PairingCtx::named(SecurityLevel::Toy);
        let mut rng = HmacDrbg::from_u64(9);
        for _ in 0..20 {
            let s = c.random_scalar(&mut rng);
            assert!(!s.is_zero());
            assert!(s < *c.group_order());
        }
    }
}
