//! The warehouse's deposit allocation budget: one `DepositRequest` and one
//! 16-item `DepositBatch` through `MwsService::as_service()` on memory
//! shards, counted by a global allocator that tallies per thread (a
//! memory-shard deposit runs entirely on the calling thread, and the test
//! harness's own threads cannot disturb the count).
//!
//! The ceilings are the counts the warehouse had when a single deposit
//! and a batch still took separate paths (36 and 805); the shared write
//! pass must not cost more than either did. It costs 24 and 316: rows are
//! encoded from their borrowed fields and group-committed without a copy.

use mws_core::clock::{LogicalClock, ReplayPolicy};
use mws_core::protocol::MwsService;
use mws_core::registry::DeviceRegistry;
use mws_core::sda::{deposit_mac, DeviceAuthVerifier};
use mws_net::Service;
use mws_store::StorageKind;
use mws_wire::{DepositItem, DepositOutcome, Pdu};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a counter in a
// const-initialised, destructor-free thread-local, which itself never
// allocates. `try_with` tolerates a thread that is already tearing down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const DEVICE: &str = "meter-alloc";
const KEY: &[u8] = b"alloc-device-key";

/// A four-shard memory warehouse that knows [`DEVICE`].
fn warehouse() -> impl Service {
    let mut registry = DeviceRegistry::new();
    registry.register(DEVICE, KEY);
    MwsService::new_sharded(
        registry,
        vec![StorageKind::Memory; 4],
        StorageKind::Memory,
        StorageKind::Memory,
        b"alloc-secret",
        LogicalClock::new(),
        ReplayPolicy::standard(),
        1,
        DeviceAuthVerifier::Mac,
    )
    .unwrap()
    .as_service()
}

/// Deposit `n`: a fresh nonce, one of four attributes, a valid MAC.
fn item(n: u64) -> DepositItem {
    let (u, sealed) = (vec![2u8; 33], vec![n as u8; 48]);
    let attribute = format!("ELECTRIC-APT{}", n % 4);
    let nonce = n.to_le_bytes().to_vec();
    let mac = deposit_mac(KEY, &u, &sealed, &attribute, &nonce, DEVICE, 0);
    DepositItem {
        timestamp: 0,
        u,
        algo: 1,
        sealed,
        attribute,
        nonce,
        mac,
    }
}

fn single(n: u64) -> Pdu {
    let DepositItem {
        timestamp,
        u,
        algo,
        sealed,
        attribute,
        nonce,
        mac,
    } = item(n);
    Pdu::DepositRequest {
        sd_id: DEVICE.into(),
        timestamp,
        u,
        algo,
        sealed,
        attribute,
        nonce,
        mac,
    }
}

fn batch(first: u64, len: u64) -> Pdu {
    Pdu::DepositBatch {
        sd_id: DEVICE.into(),
        items: (first..first + len).map(item).collect(),
    }
}

/// Allocations of each `handle` call over `requests`, after `warm` calls
/// that grow the audit log, replay cache and indices past their first
/// doublings. Returns the median, which steps over the rare call that
/// lands on an amortised regrowth.
fn median_allocations(warm: usize, requests: Vec<Pdu>, check: fn(&Pdu)) -> usize {
    let mut service = warehouse();
    let mut requests = requests.into_iter();
    for req in requests.by_ref().take(warm) {
        check(&service.handle(req));
    }
    let mut counts = Vec::with_capacity(requests.len());
    for req in requests {
        let before = ALLOCATIONS.with(Cell::get);
        let reply = service.handle(req);
        counts.push(ALLOCATIONS.with(Cell::get) - before);
        check(&reply);
    }
    counts.sort_unstable();
    counts[counts.len() / 2]
}

#[test]
fn deposit_allocations_stay_within_budget() {
    let one = median_allocations(512, (0..576).map(single).collect(), |reply| {
        assert!(matches!(reply, Pdu::DepositAck { .. }), "{reply:?}");
    });
    let sixteen = median_allocations(32, (0..48).map(|b| batch(b * 16, 16)).collect(), |reply| {
        let Pdu::DepositBatchAck { results } = reply else {
            panic!("{reply:?}");
        };
        assert!(results.iter().all(|o| o.status == DepositOutcome::STORED));
    });
    eprintln!("allocations: DepositRequest {one}, 16-item DepositBatch {sixteen}");
    assert!(one <= 36, "one DepositRequest: {one} allocations");
    assert!(
        sixteen <= 805,
        "one 16-item DepositBatch: {sixteen} allocations"
    );
}
