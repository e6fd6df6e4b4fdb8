//! Pairing parameter sets (PBC "type A" analogue) and the user-facing
//! [`PairingCtx`].
//!
//! Generation follows the shape of PBC's type-A generator: the group order
//! is a Solinas prime `q = 2^a ± 2^b ± 1`, so the signed-digit Miller loop
//! over `q` is all doublings plus two additions. The cofactor search and
//! the generator are independent of that shape.

use crate::curve::{FixedBase, Point};
use crate::fp::FpCtx;
use crate::fp2::Fp2;
use crate::naf::regular_digits;
use crate::pairing::TatePairing;
use crate::prepared::PreparedPoint;
use crate::{at_width, FpW, PairingError, FP_LIMBS};
use mws_bigint::{
    is_prime, mont_mul_limbs, mont_neg_inv, random_below, random_nonzero_below, MillerRabinRounds,
};
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

/// `h·k mod q` as one Montgomery product modulo `q`: `(h·R mod q)·k·R⁻¹`
/// with `R = 2^(64·limbs)`, through `mws-bigint`'s one CIOS body — a fixed
/// sequence of word operations, where `mul_mod`'s schoolbook product skips
/// zero limbs and its division branches on the value.
#[derive(Clone, Debug)]
struct CofactorModQ {
    q: FpW,
    /// `h·R mod q`.
    h_r: FpW,
    /// `−q⁻¹ mod 2^64`.
    n0: u64,
    /// Active limbs of `q`.
    limbs: usize,
}

impl CofactorModQ {
    fn new(q: &FpW, h: &FpW) -> Self {
        let limbs = q.bits().div_ceil(64) as usize;
        let wide = |v: &FpW| v.widen::<{ 2 * FP_LIMBS }>();
        let h_r = wide(&h.rem(q))
            .wrapping_shl(64 * limbs as u32)
            .rem(&wide(q))
            .narrow()
            .expect("below q");
        Self {
            q: *q,
            h_r,
            n0: mont_neg_inv(q.as_u64()),
            limbs,
        }
    }

    /// `h·k mod q` for `k < q`.
    fn times(&self, k: &FpW) -> FpW {
        debug_assert!(*k < self.q, "a reduced scalar");
        let product = mont_mul_limbs(
            self.limbs,
            self.h_r.limbs(),
            k.limbs(),
            self.q.limbs(),
            self.n0,
        );
        FpW::from_limbs(product)
    }
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
/// fixed-base table and a prepared Miller tape), so cloned contexts —
/// including every clone handed out by [`PairingCtx::named`] — reuse one
/// copy per process.
#[derive(Clone, Debug)]
pub struct PairingCtx {
    fp: FpCtx,
    tate: TatePairing,
    generator: Point,
    params: PairingParams,
    cofactor_mod_q: CofactorModQ,
    gen_table: Arc<OnceLock<FixedBase>>,
    gen_prepared: Arc<OnceLock<PreparedPoint>>,
}

impl PairingCtx {
    /// Builds a context from raw parameters, validating their consistency.
    pub fn from_params(params: &PairingParams) -> Result<Self, PairingError> {
        // p ≡ 3 (mod 4), q·h = p + 1, and q narrow enough for the Miller
        // loop's signed-digit recoding. q > 15 keeps the odd multiples in
        // the fixed-base table finite (and h short enough for the final
        // exponentiation's wNAF).
        if params.p.is_even() || params.p.as_u64() & 3 != 3 {
            return Err(PairingError::BadParameters);
        }
        if params.q.bits() + 2 > FpW::BITS || params.q < FpW::from_u64(16) {
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
        Ok(Self::assemble(fp, generator, params.clone()))
    }

    /// A context over checked parameters, its caches empty.
    fn assemble(fp: FpCtx, generator: Point, params: PairingParams) -> Self {
        Self {
            fp,
            tate: TatePairing::new(params.q, params.h),
            generator,
            cofactor_mod_q: CofactorModQ::new(&params.q, &params.h),
            params,
            gen_table: Arc::new(OnceLock::new()),
            gen_prepared: Arc::new(OnceLock::new()),
        }
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
        Self::assemble(fp, generator, params)
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

    /// The generator's fixed-base table (built on first use, shared across
    /// clones).
    fn generator_table(&self) -> &FixedBase {
        self.gen_table.get_or_init(|| {
            let windows = crate::naf::windows(&self.tate.q);
            self.fp.fixed_base(&self.generator, windows)
        })
    }

    /// Fixed-base multiplication `k·P` of the generator through the cached
    /// signed-window table (built on first use, shared across clones).
    ///
    /// `k` is recoded into `⌈(bits(q)+1)/4⌉` odd digits (`k mod q`, or
    /// `k mod q + q` when that is even), and each digit costs one masked
    /// scan of its row and one mixed addition, then one inversion: the
    /// same operations for every scalar below `q` (DESIGN D8). Larger
    /// scalars are reduced first.
    pub fn mul_generator(&self, k: &FpW) -> Point {
        let digits = regular_digits(k, &self.tate.q);
        self.fp.fixed_base_mul(self.generator_table(), &digits)
    }

    /// `g^k` for a pairing value `g` (an element of the order-`q` group
    /// `μ_q`): a regular signed 4-bit window over the same odd digits as
    /// [`Self::mul_generator`], conjugation for negative digits and a
    /// masked scan of `g, g³, …, g¹⁵` — four squarings and one product per
    /// digit whatever `k` is. The compose raises `ê(sP, Q)` to its secret
    /// `h·r mod q` here.
    pub fn gt_pow(&self, g: &Fp2, k: &FpW) -> Fp2 {
        let digits = regular_digits(k, &self.tate.q);
        at_width!(self.fp, |f| Fp2::from_fe(
            &f.fp2_pow_regular(&g.at(), &digits)
        ))
    }

    /// `h·k mod q` for a scalar `k < q`: one Montgomery product against
    /// the cached `h·R mod q`, the same word operations whatever `k` is —
    /// the exponent the compose folds the cofactor into (DESIGN D7).
    pub fn cofactor_times(&self, k: &FpW) -> FpW {
        self.cofactor_mod_q.times(k)
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

    /// Eagerly builds the generator caches (fixed-base table + prepared
    /// tape).
    /// Long-lived services call this at construction so the first request
    /// doesn't pay the one-time cost.
    pub fn warm_caches(&self) {
        let _ = self.generator_table();
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
        assert_eq!(
            c.field().fp2_pow_binary(&e, c.group_order()),
            c.field().fp2_one()
        );
    }

    /// The fixed-base table, the Montgomery ladder and binary double-and-add must agree
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
            assert_eq!(c.mul_generator(k), reference, "table vs binary");
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

    /// The fixed-base table and the regular `G_T` exponent against their
    /// binary references on every cross-check set: the edge scalars, powers
    /// of two, even and odd random scalars, scalars at and above `q`, and
    /// the two that meet the mixed addition's one branch. With
    /// `t = 16^(windows−1)`, `k = t − q` recodes to digits whose partial
    /// sum reaches `−q` one window early (the accumulator is infinity
    /// before the last addition), and `k = 2t − 2q` to a last addition of
    /// a point to itself (a doubling) — whenever those values lie in
    /// `(0, q)`.
    #[test]
    fn fixed_base_matches_binary() {
        let mut branch_hits = 0;
        for (name, c) in cross_check_sets() {
            let (g, f, q) = (c.generator(), c.field(), *c.group_order());
            let e = c.pairing(&g, &g);
            let mut rng = HmacDrbg::from_u64(0x4649_5845);
            let pow2 = |j: u32| {
                let mut k = FpW::ZERO;
                k.set_bit(j, true);
                k
            };
            let mut scalars = vec![FpW::ZERO, FpW::ONE, FpW::from_u64(2), pow2(7)];
            scalars.extend([pow2(q.bits() - 1), q.wrapping_sub(&FpW::ONE), q]);
            scalars.extend([q.wrapping_add(&FpW::ONE), q.wrapping_add(&q)]);
            for _ in 0..8 {
                scalars.push(c.random_scalar(&mut rng));
            }
            let t = pow2(4 * (crate::naf::windows(&q) - 1));
            for k in [
                t.wrapping_sub(&q),
                t.wrapping_add(&t).wrapping_sub(&q).wrapping_sub(&q),
            ] {
                if !k.is_zero() && k < q {
                    branch_hits += 1;
                    scalars.push(k);
                }
            }
            for k in &scalars {
                let want = f.point_mul_binary(&g, k);
                assert_eq!(c.mul_generator(k), want, "{name}: {k:?}");
                assert_eq!(c.gt_pow(&e, k), f.fp2_pow_binary(&e, k), "{name}: {k:?}");
            }
        }
        assert!(branch_hits >= 4, "the collision scalars apply to few sets");
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
