//! Property-based tests for the transport: any PDU survives the bus
//! unchanged; metrics account exactly; deterministic fault injection is
//! reproducible.

use mws_net::{FaultConfig, Network, Service};
use mws_prop::cases;
use mws_wire::{encode_envelope, Pdu};

fn echo() -> impl Service {
    |req: Pdu| req
}

#[test]
fn any_pdu_survives_the_bus() {
    cases(64, |g| {
        (
            g.string("abcdefghijklmnopqrstuvwxyz0123456789-", 1..21),
            g.bytes(0..300),
            g.u64(),
        )
    })
    .check(|(sd_id, payload, ts)| {
        let net = Network::new();
        net.bind("echo", echo());
        let pdu = Pdu::DepositRequest {
            sd_id,
            timestamp: ts,
            u: payload.clone(),
            algo: 3,
            sealed: payload.clone(),
            attribute: "A-B".into(),
            nonce: payload,
            mac: vec![9; 32],
        };
        let reply = net.client("echo").call(&pdu).unwrap();
        assert_eq!(reply, pdu);
    });
}

#[test]
fn metrics_account_every_byte() {
    cases(64, |g| g.vec(1..10, |g| g.bytes(0..100))).check(|msgs| {
        let net = Network::new();
        net.bind("echo", echo());
        let client = net.client("echo");
        let mut expect_bytes = 0u64;
        for m in &msgs {
            let pdu = Pdu::KeyResponse {
                encrypted_key: m.clone(),
            };
            expect_bytes += encode_envelope(&pdu).len() as u64;
            client.call(&pdu).unwrap();
        }
        let metrics = net.metrics("echo").unwrap();
        assert_eq!(metrics.requests, msgs.len() as u64);
        assert_eq!(metrics.bytes_in, expect_bytes);
        assert_eq!(metrics.bytes_out, expect_bytes); // echo
        assert_eq!(metrics.dropped, 0);
    });
}

#[test]
fn fault_injection_is_reproducible() {
    cases(64, |g| (g.u64(), g.int(1..100) as u32)).check(|(seed, rate_pct)| {
        let run = || {
            let net = Network::new();
            net.bind_with(
                "lossy",
                echo(),
                FaultConfig {
                    drop_rate: rate_pct as f64 / 100.0,
                    seed,
                    ..Default::default()
                },
            );
            let client = net.client("lossy");
            (0..50)
                .map(|_| client.call(&Pdu::ParamsRequest).is_ok())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    });
}
