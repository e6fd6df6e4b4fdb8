//! Property-based end-to-end tests: for arbitrary payloads, attribute
//! shapes and policy populations, every deposited message is decrypted
//! exactly by the RCs whose grants cover it — and by nobody else.

use mws::core::{Deployment, DeploymentConfig};
use mws_prop::{cases, Gen};

fn attr_name(g: &mut Gen) -> String {
    // Dash-separated segments from a tiny alphabet, like the paper's
    // ELECTRIC-<APT>-SV-CA shapes.
    g.vec(1..4, |g| ["EL", "WA", "GA", "X1"][g.size(0..4)])
        .join("-")
}

// Each case provisions a full deployment with pairing crypto; keep the
// counts modest but meaningful.

#[test]
fn roundtrip_arbitrary_payloads() {
    cases(12, |g| (g.vec(1..5, |g| g.bytes(0..600)), attr_name(g))).check(|(payloads, attr)| {
        let mut dep = Deployment::new(DeploymentConfig::test_default());
        dep.register_device("sd");
        dep.register_client("rc", "pw", &[attr.as_str()]);
        let mut sd = dep.device("sd");
        for p in &payloads {
            sd.deposit(&attr, p).unwrap();
        }
        let mut rc = dep.client("rc", "pw");
        let got = rc.retrieve_and_decrypt(0).unwrap();
        assert_eq!(got.len(), payloads.len());
        for (m, p) in got.iter().zip(payloads.iter()) {
            assert_eq!(&m.plaintext, p);
        }
    });
}

#[test]
fn visibility_matches_grants_exactly() {
    cases(12, |g| {
        (g.vec(4..5, |g| g.bool()), g.vec(1..8, |g| g.size(0..4)))
    })
    .check(|(grants, deposits)| {
        let attrs = ["AT-0", "AT-1", "AT-2", "AT-3"];
        let mut dep = Deployment::new(DeploymentConfig::test_default());
        dep.register_device("sd");
        let granted: Vec<&str> = attrs
            .iter()
            .zip(grants.iter())
            .filter(|(_, &g)| g)
            .map(|(a, _)| *a)
            .collect();
        dep.register_client("rc", "pw", &granted);
        let mut sd = dep.device("sd");
        for &idx in &deposits {
            sd.deposit(attrs[idx], format!("m-{idx}").as_bytes())
                .unwrap();
        }
        let expected = deposits.iter().filter(|&&i| grants[i]).count();
        let mut rc = dep.client("rc", "pw");
        let got = rc.retrieve_and_decrypt(0).unwrap();
        assert_eq!(got.len(), expected);
        // Every decrypted payload corresponds to a granted attribute.
        for m in &got {
            let text = String::from_utf8(m.plaintext.clone()).unwrap();
            let idx: usize = text.strip_prefix("m-").unwrap().parse().unwrap();
            assert!(grants[idx]);
        }
    });
}

#[test]
fn wire_tamper_never_yields_plaintext() {
    cases(12, |g| (g.bytes(1..200), g.u16())).check(|(payload, flip_byte)| {
        use mws::wire::Pdu;
        let mut dep = Deployment::new(DeploymentConfig::test_default());
        dep.register_device("sd");
        dep.register_client("rc", "pw", &["A"]);
        let mut sd = dep.device("sd");
        let pdu = sd.compose_deposit("A", &payload);
        // Tamper with one byte of the sealed body before it reaches the MWS.
        let Pdu::DepositRequest {
            mut sealed,
            sd_id,
            timestamp,
            u,
            algo,
            attribute,
            nonce,
            mac,
        } = pdu
        else {
            unreachable!()
        };
        let pos = (flip_byte as usize) % sealed.len();
        sealed[pos] ^= 1;
        let tampered = Pdu::DepositRequest {
            sd_id,
            timestamp,
            u,
            algo,
            sealed,
            attribute,
            nonce,
            mac,
        };
        let reply = dep.network().client("mws").call(&tampered).unwrap();
        // The SDA's MAC catches it at the door.
        let rejected = matches!(reply, Pdu::Error { code: 401, .. });
        assert!(rejected);
        let mut rc = dep.client("rc", "pw");
        assert!(rc.retrieve_and_decrypt(0).unwrap().is_empty());
    });
}
