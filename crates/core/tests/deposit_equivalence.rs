//! One deposit path: a `DepositRequest` and the equivalent one-item
//! `DepositBatch` leave the warehouse in the same state — the same rows,
//! the same audit trail, the same replay-guard state — and answer alike (a
//! single deposit's reply maps onto the batch item's outcome). Drawn over a
//! mix of valid, forged, replayed and unknown-cipher deposits, with fsync
//! failures injected through a `FaultPlan`.

use mws_core::clock::{LogicalClock, ReplayPolicy};
use mws_core::protocol::MwsService;
use mws_core::registry::DeviceRegistry;
use mws_core::sda::{deposit_mac, DeviceAuthVerifier};
use mws_net::Service;
use mws_prop::{cases, Gen};
use mws_store::{FaultPlan, StorageKind};
use mws_wire::{DepositItem, DepositOutcome, Pdu};

const DEVICE: &str = "meter-eq";
const KEY: &[u8] = b"equivalence-device-key";

#[derive(Clone, Copy, Debug)]
enum Step {
    /// A valid deposit under one of three attributes.
    Fresh(u8),
    /// A deposit whose MAC does not verify.
    BadMac(u8),
    /// A retransmission of an earlier deposit (mod the count so far).
    Replay(usize),
    /// A deposit naming no known cipher.
    UnknownCipher(u8),
    /// The next fsync on shard 0 fails.
    FailSync,
}

fn arb_steps(g: &mut Gen) -> Vec<Step> {
    g.vec(1..24, |g| match g.int(0..6) {
        0 | 1 => Step::Fresh(g.int(0..3) as u8),
        2 => Step::BadMac(g.int(0..3) as u8),
        3 => Step::Replay(g.size(0..64)),
        4 => Step::UnknownCipher([0, 2, 4, 255][g.size(0..4)]),
        _ => Step::FailSync,
    })
}

/// A two-shard memory warehouse whose shard 0 fails on `plan`'s orders.
fn warehouse(plan: &FaultPlan) -> (MwsService, impl Service) {
    let mut registry = DeviceRegistry::new();
    registry.register(DEVICE, KEY);
    let mws = MwsService::new_sharded(
        registry,
        vec![
            StorageKind::Memory.with_faults(plan.clone()),
            StorageKind::Memory,
        ],
        StorageKind::Memory,
        StorageKind::Memory,
        b"equivalence-secret",
        LogicalClock::new(),
        ReplayPolicy::standard(),
        1,
        DeviceAuthVerifier::Mac,
    )
    .unwrap();
    let service = mws.as_service();
    (mws, service)
}

fn item(n: usize, attr: u8, algo: u8, forged: bool) -> DepositItem {
    let (u, sealed) = (vec![2u8; 33], vec![n as u8; 24]);
    let attribute = format!("WATER-APT{attr}");
    let nonce = (n as u64).to_le_bytes().to_vec();
    let mut mac = deposit_mac(KEY, &u, &sealed, &attribute, &nonce, DEVICE, 0);
    mac[0] ^= u8::from(forged);
    DepositItem {
        timestamp: 0,
        u,
        algo,
        sealed,
        attribute,
        nonce,
        mac,
    }
}

fn single(item: &DepositItem) -> Pdu {
    Pdu::DepositRequest {
        sd_id: DEVICE.into(),
        timestamp: item.timestamp,
        u: item.u.clone(),
        algo: item.algo,
        sealed: item.sealed.clone(),
        attribute: item.attribute.clone(),
        nonce: item.nonce.clone(),
        mac: item.mac.clone(),
    }
}

fn batch_of_one(item: &DepositItem) -> Pdu {
    Pdu::DepositBatch {
        sd_id: DEVICE.into(),
        items: vec![item.clone()],
    }
}

/// Does a single deposit's reply map onto the one-item batch's outcome?
fn maps_onto(reply: &Pdu, batch_reply: &Pdu) -> bool {
    let Pdu::DepositBatchAck { results } = batch_reply else {
        return false;
    };
    let [outcome] = results.as_slice() else {
        return false;
    };
    match reply {
        Pdu::DepositAck { message_id } => {
            matches!(
                outcome.status,
                DepositOutcome::STORED | DepositOutcome::DUPLICATE
            ) && outcome.message_id == *message_id
        }
        Pdu::Error {
            code: 400 | 401, ..
        } => outcome.status == DepositOutcome::REJECTED,
        Pdu::Error { code: 409, .. } => outcome.status == DepositOutcome::REPLAY,
        Pdu::Error { code: 500, .. } => outcome.status == DepositOutcome::STORAGE_ERROR,
        _ => false,
    }
}

#[test]
fn a_single_deposit_is_a_batch_of_one() {
    cases(48, arb_steps).check(|steps| {
        let (plan_a, plan_b) = (FaultPlan::new(), FaultPlan::new());
        let (mws_a, mut singles) = warehouse(&plan_a);
        let (mws_b, mut batches) = warehouse(&plan_b);
        let mut sent: Vec<DepositItem> = Vec::new();
        for (n, step) in steps.into_iter().enumerate() {
            let item = match step {
                Step::FailSync => {
                    plan_a.fail_sync(plan_a.syncs());
                    plan_b.fail_sync(plan_b.syncs());
                    continue;
                }
                Step::Fresh(attr) => item(n, attr, 1, false),
                Step::BadMac(attr) => item(n, attr, 1, true),
                Step::UnknownCipher(algo) => item(n, 0, algo, false),
                Step::Replay(of) if !sent.is_empty() => sent[of % sent.len()].clone(),
                Step::Replay(_) => item(n, 1, 3, false),
            };
            let reply = singles.handle(single(&item));
            let batch_reply = batches.handle(batch_of_one(&item));
            assert!(
                maps_onto(&reply, &batch_reply),
                "step {n} {step:?}: {reply:?} vs {batch_reply:?}"
            );
            sent.push(item);
        }
        let rows = |mws: &MwsService| {
            let store = mws.store_handle();
            store.by_attributes(&store.attributes()).unwrap()
        };
        assert_eq!(rows(&mws_a), rows(&mws_b), "same rows");
        assert_eq!(mws_a.audit_events(), mws_b.audit_events(), "same audit");
        assert_eq!(plan_a.syncs(), plan_b.syncs(), "same fsyncs");
        // The replay guards agree on every nonce sent: a retransmission of
        // each deposit gets the same answer from both warehouses.
        for item in &sent {
            assert_eq!(
                singles.handle(single(item)),
                batches.handle(single(item)),
                "replay-guard state for {:?}",
                item.nonce
            );
        }
    });
}
