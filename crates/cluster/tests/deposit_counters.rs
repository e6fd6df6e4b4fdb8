//! The router's deposit counters count deposits — batch items and single
//! deposits alike — not PDUs: `mws_cluster_deposits_acked_total` moves by
//! the items that reached the write quorum W, and
//! `mws_cluster_quorum_failures_total` by the items that did not. This is
//! its own test binary because the metrics registry is process-wide and the
//! router's unit tests deposit concurrently.

use mws_cluster::{ClusterConfig, ClusterNode, ClusterRouter};
use mws_net::{Network, Service};
use mws_wire::{DepositItem, DepositOutcome, Pdu};

/// A warehouse that stores whatever it is sent.
fn accepting() -> impl Service {
    |req: Pdu| match req {
        Pdu::DepositRequest { .. } => Pdu::DepositAck { message_id: 1 },
        Pdu::DepositBatch { items, .. } => Pdu::DepositBatchAck {
            results: items
                .iter()
                .map(|_| DepositOutcome {
                    status: DepositOutcome::STORED,
                    message_id: 1,
                })
                .collect(),
        },
        Pdu::HealthRequest => Pdu::HealthResponse {
            role: "mms".into(),
            ready: true,
            detail: String::new(),
        },
        _ => Pdu::Error {
            code: 400,
            detail: "unexpected".into(),
        },
    }
}

fn item(i: u8) -> DepositItem {
    DepositItem {
        timestamp: 1,
        u: b"\x02u".to_vec(),
        algo: 1,
        sealed: b"c".to_vec(),
        attribute: format!("ATTR-{i}"),
        nonce: vec![i],
        mac: b"mac".to_vec(),
    }
}

fn batch(items: impl Iterator<Item = u8>) -> Pdu {
    Pdu::DepositBatch {
        sd_id: "m".into(),
        items: items.map(item).collect(),
    }
}

/// (acked, quorum failures) so far.
fn counters() -> (u64, u64) {
    let r = mws_obs::registry();
    (
        r.counter("mws_cluster_deposits_acked_total").get(),
        r.counter("mws_cluster_quorum_failures_total").get(),
    )
}

#[test]
fn deposit_counters_count_items_not_pdus() {
    let net = Network::new();
    let names: Vec<String> = (0..3).map(|i| format!("node-{i}")).collect();
    for name in &names {
        net.bind(name, accepting());
    }
    let nodes = names
        .iter()
        .map(|name| ClusterNode::new(name, vec![net.client(name)]))
        .collect();
    let router = ClusterRouter::new(nodes, ClusterConfig::new(2, 2), b"key".to_vec());

    // Two of three nodes down: every item finds one holder, short of W=2.
    net.unbind("node-0");
    net.unbind("node-1");
    let before = counters();
    let Pdu::DepositBatchAck { results } = router.handle(batch(0..6)) else {
        panic!("expected a batch ack");
    };
    assert!(results
        .iter()
        .all(|o| o.status == DepositOutcome::STORAGE_ERROR));
    assert_eq!(counters().0, before.0, "a batch no item of which acked");
    assert_eq!(counters().1, before.1 + 6, "six items missed W");
    let reply = router.handle(Pdu::DepositRequest {
        sd_id: "m".into(),
        timestamp: 1,
        u: b"\x02u".to_vec(),
        algo: 1,
        sealed: b"c".to_vec(),
        attribute: "ATTR-9".into(),
        nonce: vec![9],
        mac: b"mac".to_vec(),
    });
    assert!(matches!(reply, Pdu::Error { code: 503, .. }), "{reply:?}");
    assert_eq!(counters(), (before.0, before.1 + 7), "one single missed W");

    // All back: every item of a batch acks, and each counts once.
    net.bind("node-0", accepting());
    net.bind("node-1", accepting());
    router.probe_once();
    let before = counters();
    let Pdu::DepositBatchAck { results } = router.handle(batch(10..15)) else {
        panic!("expected a batch ack");
    };
    assert!(results.iter().all(|o| o.status == DepositOutcome::STORED));
    assert_eq!(counters(), (before.0 + 5, before.1), "five items acked");
}
