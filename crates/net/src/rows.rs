//! The row plane: one authenticated, paged pull of stored rows.
//!
//! A cluster router pulls a peer warehouse's rows (read-repair, catch-up,
//! rebalance), and the central warehouse pulls an ingest point's buffered
//! deposits (paper §VIII): both with [`pull_rows`] against [`serve_pull`],
//! under the key the two ends share. The rows name attribute strings and
//! device identities the client-facing protocol withholds, so a request
//! carries a fresh nonce and its MAC, and each page's MAC binds the
//! request it answers: a peer without the key reads and changes nothing,
//! and a page captured on the wire answers no later pull.

use crate::NetError;
use mws_crypto::{ct_eq, Hmac, HmacDrbg, Sha256};
use mws_obs::sync::lock;
use mws_wire::pdu::{replica_pull_bytes, replica_rows_bytes};
use mws_wire::{Pdu, RelayEntry};
use std::sync::{Mutex, OnceLock};

/// Rows a puller asks for per page, a server's page for `max = 0`, and
/// the rows per `ReplicaPush` frame.
pub const PAGE_ROWS: usize = 512;

/// The most rows a server answers in one page, whatever `max` asks for.
pub const MAX_PAGE_ROWS: usize = 4096;

/// Why a pull returned no rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PullError {
    /// The transport failed.
    Net(NetError),
    /// The server answered an error PDU (401: it refused the request MAC).
    Refused(u16, String),
    /// The reply was no page, its MAC did not verify against the request,
    /// or its rows broke cursor order.
    Forged(&'static str),
}

/// Pulls the rows of `attribute` (`""`: every attribute) from `seq = after`
/// on through `call`, page by page, until the last page or `limit` rows.
/// Each page must verify under `key` as the answer to its request and
/// continue the cursor in strictly increasing `seq`, or nothing returns.
pub fn pull_rows(
    mut call: impl FnMut(&Pdu) -> Result<Pdu, NetError>,
    key: &[u8],
    attribute: &str,
    mut after: u64,
    limit: usize,
) -> Result<Vec<RelayEntry>, PullError> {
    let mut all = Vec::new();
    while all.len() < limit {
        let max = (limit - all.len()).min(PAGE_ROWS) as u32;
        let nonce = fresh_nonce();
        let pull = replica_pull_bytes(attribute, after, max, &nonce);
        let req = Pdu::ReplicaPull {
            attribute: attribute.to_string(),
            after,
            max,
            nonce,
            mac: Hmac::<Sha256>::mac(key, &pull),
        };
        let (rows, done, mac) = match call(&req).map_err(PullError::Net)? {
            Pdu::ReplicaRows { rows, done, mac } => (rows, done, mac),
            Pdu::Error { code, detail } => return Err(PullError::Refused(code, detail)),
            _ => return Err(forged("not a row page")),
        };
        let expect = Hmac::<Sha256>::mac(key, &replica_rows_bytes(&pull, &rows, done));
        if !ct_eq(&mac, &expect) {
            return Err(forged("row page MAC rejected"));
        }
        if !done && rows.is_empty() {
            return Err(forged("empty page before the last"));
        }
        for row in &rows {
            if row.seq < after {
                return Err(forged("row page out of order"));
            }
            after = row.seq.saturating_add(1);
        }
        all.extend(rows);
        if done {
            break;
        }
    }
    Ok(all)
}

fn forged(why: &'static str) -> PullError {
    mws_obs::warn!(target: "mws_net", "row page rejected", reason = why,);
    PullError::Forged(why)
}

/// Answers `req`, a [`Pdu::ReplicaPull`], under `key`: 401 for a bad
/// request MAC, without calling `rows`. Otherwise `rows(attribute, after)`
/// yields the matching rows in `seq` order from the cursor on (`None`:
/// unreadable, 500), and one page of them answers, bound to the request.
pub fn serve_pull<'r, I: Iterator<Item = RelayEntry>>(
    key: &[u8],
    req: &'r Pdu,
    rows: impl FnOnce(&'r str, u64) -> Option<I>,
) -> Pdu {
    let Pdu::ReplicaPull {
        attribute,
        after,
        max,
        nonce,
        mac,
    } = req
    else {
        return refused(400, "not a row pull");
    };
    let pull = replica_pull_bytes(attribute, *after, *max, nonce);
    if !ct_eq(mac, &Hmac::<Sha256>::mac(key, &pull)) {
        mws_obs::warn!(target: "mws_net", "row pull refused", reason = "bad mac",);
        return refused(401, "pull MAC verification failed");
    }
    let Some(mut rows) = rows(attribute, *after) else {
        return refused(500, "row scan failure");
    };
    let page_len = match *max {
        0 => PAGE_ROWS,
        max => (max as usize).min(MAX_PAGE_ROWS),
    };
    let page: Vec<RelayEntry> = rows.by_ref().take(page_len).collect();
    let done = rows.next().is_none();
    let mac = Hmac::<Sha256>::mac(key, &replica_rows_bytes(&pull, &page, done));
    Pdu::ReplicaRows {
        rows: page,
        done,
        mac,
    }
}

fn refused(code: u16, detail: &str) -> Pdu {
    Pdu::Error {
        code,
        detail: detail.to_string(),
    }
}

/// A pull nonce: unique, not secret. One DRBG per process, seeded with
/// the pid and the clock so processes sharing a deployment seed differ.
fn fresh_nonce() -> Vec<u8> {
    static DRBG: OnceLock<Mutex<HmacDrbg>> = OnceLock::new();
    let drbg = DRBG.get_or_init(|| {
        let t = std::time::UNIX_EPOCH
            .elapsed()
            .map_or(0, |d| d.as_nanos() as u64);
        let seed = [u64::from(std::process::id()).to_be_bytes(), t.to_be_bytes()].concat();
        Mutex::new(HmacDrbg::new(&seed, b"mws-net row pull"))
    });
    lock(drbg).bytes(16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Network;
    use std::sync::Arc;

    const KEY: &[u8] = b"plane-key";

    fn row(seq: u64) -> RelayEntry {
        RelayEntry {
            seq,
            sd_id: "m".into(),
            timestamp: seq,
            u: vec![2],
            algo: 1,
            sealed: vec![3],
            attribute: if seq.is_multiple_of(2) { "EVEN" } else { "ODD" }.into(),
            nonce: seq.to_le_bytes().to_vec(),
        }
    }

    /// A node holding rows 0..n, served through [`serve_pull`].
    fn node(n: u64) -> impl FnMut(Pdu) -> Pdu + Send {
        move |req: Pdu| {
            serve_pull(KEY, &req, |attribute, after| {
                Some(
                    (after..n)
                        .map(row)
                        .filter(move |r| attribute.is_empty() || r.attribute == attribute),
                )
            })
        }
    }

    #[test]
    fn pages_walk_to_the_end_or_the_limit() {
        let net = Network::new();
        net.bind("node", node(1200));
        let client = net.client("node");
        let call = |req: &Pdu| client.call(req);
        let all = pull_rows(call, KEY, "", 0, usize::MAX).unwrap();
        assert_eq!(all.len(), 1200, "three pages of at most {PAGE_ROWS}");
        assert!(all.iter().enumerate().all(|(i, r)| r.seq == i as u64));
        let odd = pull_rows(call, KEY, "ODD", 0, usize::MAX).unwrap();
        assert_eq!(odd.len(), 600);
        let some = pull_rows(call, KEY, "", 1000, 7).unwrap();
        assert_eq!(
            some.iter().map(|r| r.seq).collect::<Vec<_>>(),
            (1000..1007).collect::<Vec<_>>()
        );
        assert!(pull_rows(call, KEY, "", 0, 0).unwrap().is_empty());
    }

    #[test]
    fn a_pull_without_the_key_is_refused() {
        let net = Network::new();
        net.bind("node", node(3));
        let client = net.client("node");
        assert_eq!(
            pull_rows(|req| client.call(req), b"other", "", 0, 10),
            Err(PullError::Refused(
                401,
                "pull MAC verification failed".into()
            ))
        );
    }

    #[test]
    fn a_captured_final_page_does_not_answer_a_later_pull() {
        // A man in the middle records the empty last page a node served,
        // then answers every later pull with it: a catch-up fed this page
        // would conclude the peer holds nothing.
        let net = Network::new();
        let captured: Arc<Mutex<Option<Pdu>>> = Arc::default();
        let tap = captured.clone();
        let mut honest = node(0);
        net.bind("node", move |req: Pdu| {
            let mut tap = lock(&tap);
            tap.get_or_insert_with(|| honest(req)).clone()
        });
        let client = net.client("node");
        let first = pull_rows(|req| client.call(req), KEY, "", 0, 10);
        assert_eq!(first, Ok(Vec::new()), "the recorded answer was genuine");
        assert!(matches!(
            lock(&captured).as_ref(),
            Some(Pdu::ReplicaRows { rows, done: true, .. }) if rows.is_empty()
        ));
        assert_eq!(
            pull_rows(|req| client.call(req), KEY, "", 0, 10),
            Err(PullError::Forged("row page MAC rejected")),
            "the replay answers a request with a different nonce"
        );
    }

    #[test]
    fn rows_behind_the_cursor_are_refused() {
        let net = Network::new();
        net.bind("node", |req: Pdu| {
            serve_pull(KEY, &req, |_, _| Some([row(5), row(4)].into_iter()))
        });
        let client = net.client("node");
        assert_eq!(
            pull_rows(|req| client.call(req), KEY, "", 0, 10),
            Err(PullError::Forged("row page out of order"))
        );
    }

    #[test]
    fn nonces_are_fresh() {
        assert_ne!(fresh_nonce(), fresh_nonce());
    }
}
