//! Key derivation from pairing values (the `h[·]` in the paper's §IV
//! notation `C = E{M, h[e(Q_ID, sP)^r]}`).

use mws_crypto::kdf;
use mws_pairing::{Fp2, PairingCtx};

/// Derives `len` key bytes from a pairing value under a domain label.
pub fn derive_from_gt(ctx: &PairingCtx, gt: &Fp2, label: &str, len: usize) -> Vec<u8> {
    kdf(&ctx.gt_to_bytes(gt), label, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mws_pairing::SecurityLevel;

    #[test]
    fn derivation_depends_on_value_and_label() {
        let ctx = PairingCtx::named(SecurityLevel::Toy);
        let g = ctx.generator();
        let e1 = ctx.pairing(&g, &g);
        let e2 = ctx.field().fp2_sqr(&e1);
        let k1 = derive_from_gt(&ctx, &e1, "a", 16);
        let k2 = derive_from_gt(&ctx, &e2, "a", 16);
        let k3 = derive_from_gt(&ctx, &e1, "b", 16);
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        assert_eq!(k1, derive_from_gt(&ctx, &e1, "a", 16));
    }
}
