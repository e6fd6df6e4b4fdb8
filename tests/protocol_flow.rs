//! Integration: the exact §V.D protocol sequence (Figures 2 and 4),
//! exercised phase by phase at the PDU level rather than through the
//! convenience pipeline.

use mws::core::{Deployment, DeploymentConfig};
use mws::wire::Pdu;

fn deployment() -> Deployment {
    Deployment::new(DeploymentConfig::test_default())
}

#[test]
fn figure4_pdu_sequence_phase_by_phase() {
    let mut dep = deployment();
    dep.register_device("sd-1");
    dep.register_client("rc-1", "pw", &["ATTR-X"]);

    // ---- Phase SD–MWS ----
    let mut sd = dep.device("sd-1");
    let deposit = sd.compose_deposit("ATTR-X", b"payload-1");
    // The deposit PDU carries exactly the §V.D fields.
    let Pdu::DepositRequest {
        ref sd_id,
        ref u,
        ref attribute,
        ref nonce,
        ref mac,
        ..
    } = deposit
    else {
        panic!("expected DepositRequest");
    };
    assert_eq!(sd_id, "sd-1");
    assert_eq!(attribute, "ATTR-X");
    assert!(!u.is_empty() && !nonce.is_empty() && mac.len() == 32);

    let reply = dep.network().client("mws").call(&deposit).unwrap();
    let Pdu::DepositAck { message_id } = reply else {
        panic!("expected DepositAck, got {reply:?}");
    };

    // ---- Phase MWS–RC ----
    let mut rc = dep.client("rc-1", "pw");
    let (token, messages) = rc.retrieve(0).unwrap();
    assert_eq!(messages.len(), 1);
    let msg = &messages[0];
    assert_eq!(msg.message_id, message_id);
    // The RC-visible row is rP ‖ C ‖ (AID ‖ Nonce): attribute only as AID.
    assert_eq!(msg.aid, 1);
    assert_eq!(&msg.nonce, nonce);
    assert!(!token.is_empty());

    // ---- Phase RC–PKG ----
    let session = rc.open_pkg_session(&token).unwrap();
    let sk = rc.fetch_key(&session, msg.aid, &msg.nonce).unwrap();
    let plaintext = rc.decrypt_message(msg, &sk).unwrap();
    assert_eq!(plaintext, b"payload-1");
}

#[test]
fn key_served_once_per_session() {
    // "It handles RC revocation and makes sure that a private key can only
    // be used once" — the PKG refuses to re-serve (AID, nonce) in a session.
    let mut dep = deployment();
    dep.register_device("sd");
    dep.register_client("rc", "pw", &["A"]);
    let mut sd = dep.device("sd");
    sd.deposit("A", b"m").unwrap();
    let mut rc = dep.client("rc", "pw");
    let (token, messages) = rc.retrieve(0).unwrap();
    let session = rc.open_pkg_session(&token).unwrap();
    let msg = &messages[0];
    rc.fetch_key(&session, msg.aid, &msg.nonce).unwrap();
    let err = rc.fetch_key(&session, msg.aid, &msg.nonce).unwrap_err();
    assert!(matches!(
        err,
        mws::core::CoreError::Remote {
            code: mws::core::ErrorCode::Replay,
            ..
        }
    ));
    // A fresh session (fresh retrieval/token) can fetch again.
    let (token2, _) = rc.retrieve(0).unwrap();
    let session2 = rc.open_pkg_session(&token2).unwrap();
    rc.fetch_key(&session2, msg.aid, &msg.nonce).unwrap();
}

#[test]
fn pkg_rejects_aid_outside_ticket() {
    // An RC cannot ask for keys of attributes it was not mapped to, even
    // with a valid session: the AID must be inside its own ticket.
    let mut dep = deployment();
    dep.register_device("sd");
    dep.register_client("rc-a", "pw", &["A"]);
    dep.register_client("rc-b", "pw", &["B"]);
    let mut sd = dep.device("sd");
    sd.deposit("A", b"for a").unwrap();
    sd.deposit("B", b"for b").unwrap();

    // rc-b learns (by observing traffic shapes, say) that AID 1 exists.
    let mut rc_b = dep.client("rc-b", "pw");
    let (token, messages) = rc_b.retrieve(0).unwrap();
    assert_eq!(messages.len(), 1, "rc-b only sees B's message");
    let session = rc_b.open_pkg_session(&token).unwrap();
    let err = rc_b.fetch_key(&session, 1, b"whatever").unwrap_err();
    assert!(matches!(
        err,
        mws::core::CoreError::Remote {
            code: mws::core::ErrorCode::Forbidden,
            ..
        }
    ));
    assert_eq!(dep.pkg().rejection_count(), 1);
}

#[test]
fn paged_retrieval_covers_everything_once() {
    let mut dep = deployment();
    dep.register_device("sd");
    dep.register_client("rc", "pw", &["A"]);
    let mut sd = dep.device("sd");
    for i in 0..7u32 {
        dep.clock().advance(1);
        sd.deposit("A", format!("m{i}").as_bytes()).unwrap();
    }
    let mut rc = dep.client("rc", "pw");
    // Page through with limit 3, resuming by timestamp, deduping by id.
    let mut seen = std::collections::BTreeSet::new();
    let mut since = 0u64;
    loop {
        let (_, page) = rc.retrieve_page(since, 3).unwrap();
        let fresh: Vec<_> = page.iter().filter(|m| seen.insert(m.message_id)).collect();
        if fresh.is_empty() {
            break;
        }
        since = fresh.iter().map(|m| m.timestamp).max().unwrap();
    }
    assert_eq!(seen.len(), 7, "every message seen exactly once");
}

#[test]
fn pkg_sessions_expire() {
    let mut dep = Deployment::new(DeploymentConfig {
        session_ttl: 10,
        ..DeploymentConfig::test_default()
    });
    dep.register_device("sd");
    dep.register_client("rc", "pw", &["A"]);
    let mut sd = dep.device("sd");
    sd.deposit("A", b"m").unwrap();
    let mut rc = dep.client("rc", "pw");
    let (token, messages) = rc.retrieve(0).unwrap();
    let session = rc.open_pkg_session(&token).unwrap();
    dep.clock().advance(50); // long past the TTL
    let err = rc
        .fetch_key(&session, messages[0].aid, &messages[0].nonce)
        .unwrap_err();
    assert!(matches!(
        err,
        mws::core::CoreError::Remote {
            code: mws::core::ErrorCode::NotFound,
            ..
        }
    ));
}

#[test]
fn stolen_token_useless_without_rsa_key() {
    // The token is bound to the RC's RSA keypair: a different registered
    // client cannot open a captured token.
    let mut dep = deployment();
    dep.register_device("sd");
    dep.register_client("victim", "pw1", &["A"]);
    dep.register_client("thief", "pw2", &["B"]);
    let mut sd = dep.device("sd");
    sd.deposit("A", b"sensitive").unwrap();
    let mut victim = dep.client("victim", "pw1");
    let (token, _) = victim.retrieve(0).unwrap();
    // The thief replays the victim's token on their own session.
    let mut thief = dep.client("thief", "pw2");
    assert!(thief.open_pkg_session(&token).is_err());
}

#[test]
fn protocol_survives_lossy_network_with_retries() {
    use mws::net::{BusTransport, Client, FaultConfig, FaultyTransport, NetError};
    let mut dep = deployment();
    dep.register_device("sd");
    let mut sd = dep.device("sd");
    // The link to the warehouse loses requests (drops) and replies
    // (resets: the warehouse acted on the deposit, the ack never came back).
    let link = FaultyTransport::new(
        BusTransport::new(dep.network().clone(), "mws").into_dyn(),
        FaultConfig {
            drop_rate: 0.3,
            reset_rate: 0.3,
            seed: 11,
            ..Default::default()
        },
    );
    let mws = Client::from_transport(link.into_dyn());
    let (mut acked_at_once, mut ack_lost) = (0, 0);
    for i in 0..12 {
        // The composing path is deterministic, so a resent PDU is a
        // *replay* by design — the MWS must store exactly one.
        let pdu = sd.compose_deposit("A", format!("lossy-{i}").as_bytes());
        // What reached the warehouse, in order: its reply, or `None` when
        // the reply was lost.
        let mut arrived = Vec::new();
        for _ in 0..50 {
            match mws.call(&pdu) {
                Ok(reply) => arrived.push(Some(reply)),
                Err(NetError::Io(_)) => arrived.push(None),
                Err(NetError::Dropped) => {}
                Err(e) => panic!("unexpected {e}"),
            }
        }
        let (first, resends) = arrived.split_first().expect("a request arrived");
        match first {
            Some(Pdu::DepositAck { .. }) => acked_at_once += 1,
            None => ack_lost += 1,
            Some(other) => panic!("deposit {i}: unexpected {other:?}"),
        }
        let answered: Vec<_> = resends.iter().flatten().collect();
        assert!(!answered.is_empty(), "deposit {i}: no resend was answered");
        for reply in answered {
            // The replay guard catches every resend, whether or not the
            // device saw the ack.
            assert!(
                matches!(reply, Pdu::Error { code: 409, .. }),
                "deposit {i}: {reply:?}"
            );
        }
    }
    assert_eq!(dep.mws().message_count(), 12, "exactly-once storage");
    assert!(
        acked_at_once > 0 && ack_lost > 0,
        "{acked_at_once} / {ack_lost}"
    );
}
