//! Threshold (distributed) PKG — paper §VIII future work.
//!
//! "A form of threshold cryptography may also be considered, to create a
//! distributed PKG, instead of a key escrow." The master secret `s` is
//! Shamir-shared over `Z_q`; each share server performs a *partial extract*
//! `d_i = s_i·Q_ID`, and any `t` partial keys combine by Lagrange
//! interpolation in the exponent:
//!
//! ```text
//! d = Σ λ_i·d_i = (Σ λ_i·s_i)·Q_ID = s·Q_ID
//! ```
//!
//! No share server ever sees `s`, and fewer than `t` of them learn nothing.

use crate::bf::{IbeSystem, MasterSecret, UserPrivateKey};
use crate::IbeError;
use mws_crypto::Rng;
use mws_pairing::{FpW, Point};

/// One server's share of the master secret: `(x, f(x))` with `x ≠ 0`.
#[derive(Clone)]
pub struct MasterShare {
    /// Share index (the evaluation point), `1..=n`.
    pub index: u32,
    value: FpW,
}

impl core::fmt::Debug for MasterShare {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "MasterShare {{ index: {}, .. }}", self.index)
    }
}

/// A partial private key `d_i = s_i·Q_ID` produced by share server `i`.
#[derive(Clone, Debug)]
pub struct PartialKey {
    /// Producing share index.
    pub index: u32,
    /// `s_i·Q_ID`.
    pub point: Point,
}

impl IbeSystem {
    /// Splits a master secret into `n` shares with reconstruction
    /// threshold `t` (`1 ≤ t ≤ n`, `n` servers indexed `1..=n`).
    pub fn share_master<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        msk: &MasterSecret,
        t: u32,
        n: u32,
    ) -> Result<Vec<MasterShare>, IbeError> {
        if t == 0 || t > n {
            return Err(IbeError::BadShares);
        }
        let q = self.pairing().group_order();
        // f(X) = s + a₁X + … + a_{t−1}X^{t−1} over Z_q.
        let mut coeffs = Vec::with_capacity(t as usize);
        coeffs.push(msk.0);
        for _ in 1..t {
            coeffs.push(self.pairing().random_scalar(rng));
        }
        Ok((1..=n)
            .map(|i| {
                let x = FpW::from_u64(i as u64);
                // Horner evaluation mod q.
                let mut acc = FpW::ZERO;
                for c in coeffs.iter().rev() {
                    acc = acc.mul_mod(&x, q).add_mod(&c.rem(q), q);
                }
                MasterShare {
                    index: i,
                    value: acc,
                }
            })
            .collect())
    }

    /// Share server operation: partial extract for an identity point
    /// (variable-base wNAF multiplication, like the monolithic `Extract`).
    pub fn partial_extract(&self, share: &MasterShare, q_id: &Point) -> PartialKey {
        PartialKey {
            index: share.index,
            point: self.pairing().mul(q_id, &share.value),
        }
    }

    /// Combines `t` (or more) partial keys into the full private key
    /// `s·Q_ID`.
    ///
    /// Fails on duplicate indices or an empty set. Supplying fewer shares
    /// than the sharing threshold yields a *wrong* key (not an error — the
    /// combiner cannot know `t`); callers verify usability downstream, as
    /// the decryption MAC does.
    pub fn combine_partial_keys(
        &self,
        partials: &[PartialKey],
    ) -> Result<UserPrivateKey, IbeError> {
        if partials.is_empty() {
            return Err(IbeError::BadShares);
        }
        let mut seen: Vec<u32> = partials.iter().map(|p| p.index).collect();
        seen.sort_unstable();
        if seen.windows(2).any(|w| w[0] == w[1]) || seen.contains(&0) {
            return Err(IbeError::BadShares);
        }
        let ctx = self.pairing();
        let q = ctx.group_order();
        let mut acc = Point::Infinity;
        for p_i in partials {
            // λ_i = Π_{j≠i} x_j / (x_j − x_i)  (mod q)
            let xi = FpW::from_u64(p_i.index as u64);
            let mut num = FpW::ONE;
            let mut den = FpW::ONE;
            for p_j in partials {
                if p_j.index == p_i.index {
                    continue;
                }
                let xj = FpW::from_u64(p_j.index as u64);
                num = num.mul_mod(&xj, q);
                den = den.mul_mod(&xj.sub_mod(&xi.rem(q), q), q);
            }
            let lambda = num.mul_mod(&den.inv_mod(q).map_err(|_| IbeError::BadShares)?, q);
            acc = ctx.add(&acc, &ctx.mul(&p_i.point, &lambda));
        }
        Ok(UserPrivateKey::from_point(acc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mws_crypto::HmacDrbg;
    use mws_pairing::SecurityLevel;

    fn system() -> IbeSystem {
        IbeSystem::named(SecurityLevel::Toy)
    }

    #[test]
    fn t_of_n_reconstructs_extract() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(1);
        let (msk, _) = ibe.setup(&mut rng);
        let shares = ibe.share_master(&mut rng, &msk, 3, 5).unwrap();
        let q_id = ibe.identity_point(b"attr|nonce");
        let expect = ibe.extract(&msk, b"attr|nonce");

        // Any 3 of the 5 shares suffice.
        for pick in [[0usize, 1, 2], [0, 2, 4], [1, 3, 4], [2, 3, 4]] {
            let partials: Vec<_> = pick
                .iter()
                .map(|&i| ibe.partial_extract(&shares[i], &q_id))
                .collect();
            let combined = ibe.combine_partial_keys(&partials).unwrap();
            assert_eq!(combined, expect, "shares {pick:?}");
        }
        // All 5 also work.
        let all: Vec<_> = shares
            .iter()
            .map(|s| ibe.partial_extract(s, &q_id))
            .collect();
        assert_eq!(ibe.combine_partial_keys(&all).unwrap(), expect);
    }

    #[test]
    fn fewer_than_t_shares_give_wrong_key() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(2);
        let (msk, _) = ibe.setup(&mut rng);
        let shares = ibe.share_master(&mut rng, &msk, 3, 5).unwrap();
        let q_id = ibe.identity_point(b"id");
        let expect = ibe.extract(&msk, b"id");
        let partials: Vec<_> = shares[..2]
            .iter()
            .map(|s| ibe.partial_extract(s, &q_id))
            .collect();
        let combined = ibe.combine_partial_keys(&partials).unwrap();
        assert_ne!(combined, expect);
    }

    #[test]
    fn end_to_end_with_threshold_pkg() {
        // Full flow: encrypt to an attribute, extract via 2-of-3 servers.
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(3);
        let (msk, mpk) = ibe.setup(&mut rng);
        let shares = ibe.share_master(&mut rng, &msk, 2, 3).unwrap();
        let ct = ibe.encrypt_basic(&mut rng, &mpk, b"GAS-APT-9", b"pressure nominal");
        let q_id = ibe.identity_point(b"GAS-APT-9");
        let partials = vec![
            ibe.partial_extract(&shares[0], &q_id),
            ibe.partial_extract(&shares[2], &q_id),
        ];
        let sk = ibe.combine_partial_keys(&partials).unwrap();
        assert_eq!(ibe.decrypt_basic(&sk, &ct).unwrap(), b"pressure nominal");
    }

    #[test]
    fn rejects_bad_share_sets() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(4);
        let (msk, _) = ibe.setup(&mut rng);
        assert!(ibe.share_master(&mut rng, &msk, 0, 5).is_err());
        assert!(ibe.share_master(&mut rng, &msk, 6, 5).is_err());
        let shares = ibe.share_master(&mut rng, &msk, 2, 3).unwrap();
        let q_id = ibe.identity_point(b"id");
        let p = ibe.partial_extract(&shares[0], &q_id);
        assert!(ibe.combine_partial_keys(&[]).is_err());
        assert!(
            ibe.combine_partial_keys(&[p.clone(), p.clone()]).is_err(),
            "duplicate indices"
        );
    }

    #[test]
    fn one_of_one_sharing_is_identity() {
        let ibe = system();
        let mut rng = HmacDrbg::from_u64(5);
        let (msk, _) = ibe.setup(&mut rng);
        let shares = ibe.share_master(&mut rng, &msk, 1, 1).unwrap();
        let q_id = ibe.identity_point(b"id");
        let combined = ibe
            .combine_partial_keys(&[ibe.partial_extract(&shares[0], &q_id)])
            .unwrap();
        assert_eq!(combined, ibe.extract(&msk, b"id"));
    }
}
