//! Token Generator (Figure 3).
//!
//! "This component generates a ticket, which a RC uses to authenticate with
//! PKG. … The Ticket is a cipher text of the session key SecK_RC-PKG
//! encrypted with the secret key SecK_MWS-PKG. It also contains an
//! 'Attribute ID – Attribute' pairing. The purpose of this pairing is that
//! we do not want RC to know his attribute A." (§V.D)
//!
//! The outer *Token* the paper writes as `E(PubK_RC, SecK_RC-PKG ‖ Ticket)`.
//! RSA-PKCS#1 cannot carry a multi-kilobyte ticket, so this implementation
//! uses the standard hybrid realization: the session key travels under
//! `PubK_RC`, the ticket rides alongside in plaintext — it is already opaque
//! to the RC (sealed under `SecK_MWS-PKG`), so confidentiality is unchanged.
//! Documented as a substitution in DESIGN.md §3.

use crate::sealed::{open_blob, seal_blob};
use mws_crypto::{Rng, RsaPrivateKey, RsaPublicKey};
use mws_wire::{WireReader, WireWriter};

/// What the MWS locks inside a ticket for the PKG's eyes only.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TicketContent {
    /// The RC this ticket was issued to.
    pub rc_id: String,
    /// Fresh session key `SecK_RC-PKG`.
    pub session_key: Vec<u8>,
    /// Issue timestamp (lets the PKG expire tickets).
    pub issued_at: u64,
    /// The AID → attribute table ("PKG replaces AID with A").
    pub table: Vec<(u64, String)>,
}

const TICKET_LABEL: &str = "mws-pkg-ticket";
/// Session keys are 256-bit.
pub const SESSION_KEY_LEN: usize = 32;

/// The MWS-side token/ticket factory, holding `SecK_MWS-PKG`.
pub struct TokenGenerator {
    mws_pkg_secret: Vec<u8>,
}

impl TokenGenerator {
    /// Creates a generator over the MWS↔PKG shared secret.
    pub fn new(mws_pkg_secret: &[u8]) -> Self {
        Self {
            mws_pkg_secret: mws_pkg_secret.to_vec(),
        }
    }

    /// Draws a fresh session key.
    pub fn fresh_session_key<R: Rng + ?Sized>(rng: &mut R) -> Vec<u8> {
        let mut k = vec![0u8; SESSION_KEY_LEN];
        rng.fill_bytes(&mut k);
        k
    }

    /// Seals a ticket for the PKG.
    pub fn build_ticket<R: Rng + ?Sized>(&self, rng: &mut R, content: &TicketContent) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.string(&content.rc_id)
            .bytes(&content.session_key)
            .u64(content.issued_at)
            .u32(content.table.len() as u32);
        for (aid, attr) in &content.table {
            w.u64(*aid).string(attr);
        }
        seal_blob(rng, &self.mws_pkg_secret, TICKET_LABEL, &w.finish())
    }

    /// PKG-side: opens and parses a ticket. `None` on auth/codec failure.
    pub fn open_ticket(mws_pkg_secret: &[u8], blob: &[u8]) -> Option<TicketContent> {
        let body = open_blob(mws_pkg_secret, TICKET_LABEL, blob)?;
        let mut r = WireReader::new(&body);
        let rc_id = r.string().ok()?;
        let session_key = r.bytes().ok()?;
        let issued_at = r.u64().ok()?;
        let n = r.u32().ok()? as usize;
        if n > 1 << 20 {
            return None;
        }
        let mut table = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let aid = r.u64().ok()?;
            let attr = r.string().ok()?;
            table.push((aid, attr));
        }
        r.finish().ok()?;
        Some(TicketContent {
            rc_id,
            session_key,
            issued_at,
            table,
        })
    }

    /// Builds the RC-facing token: `RSA(PubK_RC, session_key) ‖ ticket`.
    pub fn build_token<R: Rng + ?Sized>(
        rng: &mut R,
        rc_public: &RsaPublicKey,
        session_key: &[u8],
        ticket: &[u8],
    ) -> Result<Vec<u8>, mws_crypto::RsaError> {
        let wrapped = rc_public.encrypt_pkcs1(rng, session_key)?;
        let mut w = WireWriter::new();
        w.bytes(&wrapped).bytes(ticket);
        Ok(w.finish())
    }

    /// RC-side: recovers `(session_key, ticket)` from a token.
    pub fn parse_token(rc_private: &RsaPrivateKey, token: &[u8]) -> Option<(Vec<u8>, Vec<u8>)> {
        let mut r = WireReader::new(token);
        let wrapped = r.bytes().ok()?;
        let ticket = r.bytes().ok()?;
        r.finish().ok()?;
        let session_key = rc_private.decrypt_pkcs1(&wrapped).ok()?;
        if session_key.len() != SESSION_KEY_LEN {
            return None;
        }
        Some((session_key, ticket))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mws_crypto::{HmacDrbg, RsaKeyPair};

    fn content() -> TicketContent {
        TicketContent {
            rc_id: "C-Services".into(),
            session_key: vec![7; SESSION_KEY_LEN],
            issued_at: 99,
            table: vec![(1, "ELECTRIC-1".into()), (2, "WATER-1".into())],
        }
    }

    #[test]
    fn ticket_roundtrip() {
        let mut rng = HmacDrbg::from_u64(1);
        let tg = TokenGenerator::new(b"mws-pkg-shared");
        let blob = tg.build_ticket(&mut rng, &content());
        let opened = TokenGenerator::open_ticket(b"mws-pkg-shared", &blob).unwrap();
        assert_eq!(opened, content());
    }

    #[test]
    fn ticket_opaque_to_wrong_secret() {
        let mut rng = HmacDrbg::from_u64(2);
        let tg = TokenGenerator::new(b"real-secret");
        let blob = tg.build_ticket(&mut rng, &content());
        assert!(TokenGenerator::open_ticket(b"guess", &blob).is_none());
        // The RC cannot see its attributes: the blob never contains the
        // attribute string in the clear.
        let haystack = String::from_utf8_lossy(&blob).to_string();
        assert!(!haystack.contains("ELECTRIC"));
    }

    #[test]
    fn ticket_tamper_rejected() {
        let mut rng = HmacDrbg::from_u64(3);
        let tg = TokenGenerator::new(b"s");
        let blob = tg.build_ticket(&mut rng, &content());
        for i in (0..blob.len()).step_by(7) {
            let mut bad = blob.clone();
            bad[i] ^= 1;
            assert!(
                TokenGenerator::open_ticket(b"s", &bad).is_none(),
                "byte {i}"
            );
        }
    }

    #[test]
    fn token_roundtrip() {
        let mut rng = HmacDrbg::from_u64(4);
        let kp = RsaKeyPair::generate(&mut rng, 512).unwrap();
        let sk = TokenGenerator::fresh_session_key(&mut rng);
        let token =
            TokenGenerator::build_token(&mut rng, &kp.public, &sk, b"opaque-ticket").unwrap();
        let (got_sk, got_ticket) = TokenGenerator::parse_token(&kp.private, &token).unwrap();
        assert_eq!(got_sk, sk);
        assert_eq!(got_ticket, b"opaque-ticket");
    }

    #[test]
    fn token_needs_matching_private_key() {
        let mut rng = HmacDrbg::from_u64(5);
        let kp1 = RsaKeyPair::generate(&mut rng, 512).unwrap();
        let kp2 = RsaKeyPair::generate(&mut rng, 512).unwrap();
        let sk = TokenGenerator::fresh_session_key(&mut rng);
        let token = TokenGenerator::build_token(&mut rng, &kp1.public, &sk, b"t").unwrap();
        assert!(TokenGenerator::parse_token(&kp2.private, &token).is_none());
    }

    #[test]
    fn fresh_session_keys_differ() {
        let mut rng = HmacDrbg::from_u64(6);
        assert_ne!(
            TokenGenerator::fresh_session_key(&mut rng),
            TokenGenerator::fresh_session_key(&mut rng)
        );
    }

    #[test]
    fn empty_table_ticket() {
        let mut rng = HmacDrbg::from_u64(7);
        let tg = TokenGenerator::new(b"s");
        let c = TicketContent {
            table: vec![],
            ..content()
        };
        let blob = tg.build_ticket(&mut rng, &c);
        assert_eq!(TokenGenerator::open_ticket(b"s", &blob).unwrap(), c);
    }
}
