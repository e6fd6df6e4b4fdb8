//! E4 — the §I claim: "traditional certificate based public-key
//! cryptosystems are not useful" for constrained depositing clients.
//!
//! Device-side cost of confidentially addressing one reading to `N`
//! recipients:
//!
//! * **IBE-attribute** (this paper): ONE hybrid encryption under the
//!   attribute, independent of `N` — recipients need not even exist yet.
//! * **RSA-PKI baseline**: the device must know every recipient's
//!   certificate and hybrid-encrypt the session key once per recipient
//!   (`N` RSA operations, `N` wrapped keys on the wire).
//!
//! Regenerates: the cost-vs-recipients series whose crossover at N=1 is the
//! paper's central motivation.

use mws_bench::Bench;
use mws_crypto::{seal, Aes128, HmacDrbg, Rng, RsaKeyPair, RsaPublicKey};
use mws_ibe::bf::IbeSystem;
use mws_ibe::CipherAlgo;
use mws_pairing::SecurityLevel;

/// The RSA-PKI baseline: hybrid-encrypt `msg` to every recipient key.
fn pki_encrypt_to_all(rng: &mut HmacDrbg, recipients: &[RsaPublicKey], msg: &[u8]) -> Vec<Vec<u8>> {
    // One symmetric encryption...
    let mut sym_key = [0u8; 16];
    let mut mac_key = [0u8; 32];
    let nonce = [0u8; 8];
    rng.fill_bytes(&mut sym_key);
    rng.fill_bytes(&mut mac_key);
    let cipher = Aes128::new(&sym_key).unwrap();
    let body = seal(&cipher, &mac_key, &nonce, b"", msg).unwrap();
    // ...then one RSA wrap per recipient.
    let mut out = Vec::with_capacity(recipients.len() + 1);
    out.push(body);
    let mut wrap = sym_key.to_vec();
    wrap.extend_from_slice(&mac_key);
    for pk in recipients {
        out.push(pk.encrypt_pkcs1(rng, &wrap).unwrap());
    }
    out
}

fn main() {
    let mut bench = Bench::new("e4_pki_baseline");

    let ibe = IbeSystem::named(SecurityLevel::Light);
    let mut rng = HmacDrbg::from_u64(1);
    let (_, mpk) = ibe.setup(&mut rng);
    let msg = b"kWh=42.70;err=none".to_vec();

    // RSA-1024 recipient certificates (generated once, outside the timer).
    let recipient_keys: Vec<RsaPublicKey> = (0..16)
        .map(|_| RsaKeyPair::generate(&mut rng, 1024).unwrap().public)
        .collect();

    // IBE: flat in N (encrypt once; shown for each N to make the series
    // explicit in the report).
    for n in [1usize, 2, 4, 8, 16] {
        let mut rng = HmacDrbg::from_u64(2);
        bench.run(format!("ibe_attribute/{n}"), || {
            ibe.encrypt_attr(
                &mut rng,
                &mpk,
                "ELECTRIC-APT9-SV-CA",
                b"nonce",
                CipherAlgo::Aes128,
                b"",
                &msg,
            )
        });

        let mut rng = HmacDrbg::from_u64(3);
        let recipients = &recipient_keys[..n];
        bench.run(format!("rsa_pki_per_recipient/{n}"), || {
            pki_encrypt_to_all(&mut rng, recipients, &msg)
        });
    }
    bench.finish();
}
