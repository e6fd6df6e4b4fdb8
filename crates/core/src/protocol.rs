//! End-to-end wiring: the MWS service and a full [`Deployment`].
//!
//! [`MwsService`] is the network-facing warehouse (SDA + MMS + Gatekeeper +
//! Token Generator behind one endpoint, as in Figure 3). [`Deployment`]
//! provisions a complete system — PKG, MWS, devices and clients on one
//! simulated network — and is the entry point used by the examples,
//! integration tests and benchmarks.
//!
//! The warehouse has one deposit path: a `DepositRequest`, every item of a
//! `DepositBatch`, a peer's `ReplicaPush` row and a relayed row are all
//! stored through the sharded store's group commit
//! ([`ShardedMessageDb::deposit_batch`]); a single deposit is a batch of
//! one, answered with its own reply. Rows that arrive over the row plane —
//! pushed by a cluster peer or pulled from a distribution point — share
//! one apply (`MwsService::apply_rows`).

use crate::audit::{AuditEvent, AuditLog, AuditRecord};
use crate::clock::{LogicalClock, ReplayPolicy};
use crate::device::{deposit_aad, DeviceCredential, SmartDevice};
use crate::errors::CoreError;
use crate::gatekeeper::Gatekeeper;
use crate::mms::MessageManagementSystem;
use crate::obs::stats;
use crate::pkg_service::{PkgMaster, PkgService};
use crate::policy::AttrPattern;
use crate::registry::DeviceRegistry;
use crate::sda::{DeviceAuthVerifier, SdAuthenticator, SdaReject, SD_IDENTITY_PREFIX};
use crate::token::{TicketContent, TokenGenerator};
use mws_crypto::{ct_eq, Hmac, HmacDrbg, Rng, RsaKeyPair, RsaPublicKey, Sha256};
use mws_ibe::{CipherAlgo, IbeSystem};
use mws_net::{Client, Network};
use mws_obs::sync::lock;
use mws_pairing::SecurityLevel;
use mws_store::{FaultPlan, MessageId, PendingDeposit, PolicyRow, ShardedMessageDb, StorageKind};
use mws_wire::pdu::{replica_evict_bytes, replica_push_bytes};
use mws_wire::{DepositOutcome, Pdu, RelayEntry, WireMessage};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

pub use crate::client::{ReceivingClient, RetrievedMessage};

/// Derives the cluster replica-plane MAC key from the MWS–PKG secret.
/// Every warehouse replica provisions the same secret from the shared
/// deployment seed, so routers and warehouses agree on this key without a
/// distribution step; the label separates it from the secret's ticket and
/// token uses.
pub fn replica_key(mws_pkg_secret: &[u8]) -> Vec<u8> {
    Hmac::<Sha256>::mac(mws_pkg_secret, b"mws-cluster-replica")
}

/// The warehouse service state.
struct MwsInner {
    sda: SdAuthenticator,
    mms: MessageManagementSystem,
    gatekeeper: Gatekeeper,
    tokens: TokenGenerator,
    clock: LogicalClock,
    rng: HmacDrbg,
    audit: AuditLog,
}

/// The network-facing Message Warehousing Service.
///
/// The deposit hot path is split across two locks: authentication, replay
/// accounting and auditing run under the service lock (`inner`), while the
/// WAL append + fsync runs against the sharded `store` handle under that
/// shard's own lock — so deposits routed to different shards overlap their
/// fsyncs instead of serializing behind one global mutex (DESIGN.md §9).
#[derive(Clone)]
pub struct MwsService {
    inner: Arc<Mutex<MwsInner>>,
    store: Arc<ShardedMessageDb>,
    clock: LogicalClock,
    /// MAC key for the cluster replica plane ([`Pdu::ReplicaPull`] /
    /// [`Pdu::ReplicaPush`]), derived from the MWS–PKG secret.
    replica_key: Vec<u8>,
    /// Every message shard is plain memory and devices authenticate by
    /// MAC: a deposit neither fsyncs nor pairs, so it may run on the
    /// server's event loop (see [`Warehouse::runs_inline`]).
    cheap_deposits: bool,
}

/// The server-facing face of an [`MwsService`]: dispatches requests and
/// says which of them may run on the event loop.
struct Warehouse(MwsService);

impl mws_net::Service for Warehouse {
    fn handle(&mut self, req: Pdu) -> Pdu {
        self.0.dispatch(req)
    }

    /// Deposits and health checks, when deposits touch neither a disk nor
    /// a pairing. `File` shards fsync, `Faulty` shards are chaos fixtures
    /// and IBS-authenticated deposits verify a signature with pairings, so
    /// all of those stay on the worker pool, as does everything else.
    fn runs_inline(&self, req: &Pdu) -> bool {
        self.0.cheap_deposits
            && matches!(
                req,
                Pdu::DepositRequest { .. } | Pdu::DepositBatch { .. } | Pdu::HealthRequest
            )
    }
}

impl MwsService {
    /// Creates the service over a single-shard warehouse.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        registry: DeviceRegistry,
        message_storage: StorageKind,
        policy_storage: StorageKind,
        user_storage: StorageKind,
        mws_pkg_secret: &[u8],
        clock: LogicalClock,
        replay: ReplayPolicy,
        rng_seed: u64,
        device_auth: DeviceAuthVerifier,
    ) -> Result<Self, CoreError> {
        Self::new_sharded(
            registry,
            vec![message_storage],
            policy_storage,
            user_storage,
            mws_pkg_secret,
            clock,
            replay,
            rng_seed,
            device_auth,
        )
    }

    /// Creates the service with one warehouse shard per entry of
    /// `message_storages` (see [`mws_store::shard_kinds`] for deriving
    /// per-shard kinds from a base path).
    #[allow(clippy::too_many_arguments)]
    pub fn new_sharded(
        registry: DeviceRegistry,
        message_storages: Vec<StorageKind>,
        policy_storage: StorageKind,
        user_storage: StorageKind,
        mws_pkg_secret: &[u8],
        clock: LogicalClock,
        replay: ReplayPolicy,
        rng_seed: u64,
        device_auth: DeviceAuthVerifier,
    ) -> Result<Self, CoreError> {
        let cheap_deposits = message_storages
            .iter()
            .all(|kind| matches!(kind, StorageKind::Memory))
            && matches!(device_auth, DeviceAuthVerifier::Mac);
        let mms = MessageManagementSystem::open_sharded(message_storages, policy_storage)?;
        let store = mms.store_handle();
        let replica_key = replica_key(mws_pkg_secret);
        Ok(Self {
            inner: Arc::new(Mutex::new(MwsInner {
                sda: SdAuthenticator::with_verifier(registry, replay.clone(), device_auth),
                mms,
                gatekeeper: Gatekeeper::open(user_storage, replay)?,
                tokens: TokenGenerator::new(mws_pkg_secret),
                clock: clock.clone(),
                rng: HmacDrbg::new(&rng_seed.to_be_bytes(), b"mws-service"),
                audit: AuditLog::new(4096),
            })),
            store,
            clock,
            replica_key,
            cheap_deposits,
        })
    }

    /// A bindable service facade.
    pub fn as_service(&self) -> impl mws_net::Service + 'static {
        Warehouse(self.clone())
    }

    /// Routes one request. Deposits take the split-lock path; everything
    /// else is handled under the service lock as before.
    fn dispatch(&self, req: Pdu) -> Pdu {
        match req {
            Pdu::DepositRequest {
                sd_id,
                timestamp,
                u,
                algo,
                sealed,
                attribute,
                nonce,
                mac,
            } => {
                let start = std::time::Instant::now();
                let row = PendingDeposit {
                    attribute,
                    nonce,
                    u,
                    algo,
                    sealed,
                    sd_id,
                    timestamp,
                };
                let [verdict] = self.deposit_rows([(row, mac)], [Verdict::StorageError]);
                stats().deposit_us.record_duration(start.elapsed());
                verdict.reply()
            }
            Pdu::DepositBatch { sd_id, items } => {
                let start = std::time::Instant::now();
                stats().deposit_batch_items.record(items.len() as u64);
                let verdicts = vec![Verdict::StorageError; items.len()];
                let rows = items.into_iter().map(|item| {
                    let row = PendingDeposit {
                        attribute: item.attribute,
                        nonce: item.nonce,
                        u: item.u,
                        algo: item.algo,
                        sealed: item.sealed,
                        sd_id: sd_id.clone(),
                        timestamp: item.timestamp,
                    };
                    (row, item.mac)
                });
                let verdicts = self.deposit_rows(rows, verdicts);
                stats().deposit_batch_us.record_duration(start.elapsed());
                Pdu::DepositBatchAck {
                    results: verdicts.into_iter().map(Verdict::outcome).collect(),
                }
            }
            req @ Pdu::ReplicaPull { .. } => {
                let reply = mws_net::serve_pull(&self.replica_key, &req, |attribute, after| {
                    self.rows_from(attribute, after)
                });
                if let Pdu::ReplicaRows { rows, .. } = &reply {
                    stats().replica_rows_served.add(rows.len() as u64);
                }
                reply
            }
            Pdu::ReplicaPush { rows, mac } => self.handle_replica_push(rows, &mac),
            Pdu::ReplicaEvict {
                attribute,
                epoch,
                mac,
            } => self.handle_replica_evict(&attribute, epoch, &mac),
            other => lock(&self.inner).handle(other),
        }
    }

    /// Full rows for a cluster peer's pull (MAC'd under the replica key),
    /// in id order from `after` on: one attribute's, or every attribute's
    /// when `attribute` is empty (node catch-up).
    fn rows_from(&self, attribute: &str, after: u64) -> Option<impl Iterator<Item = RelayEntry>> {
        let attributes = if attribute.is_empty() {
            self.store.attributes()
        } else {
            vec![attribute.to_string()]
        };
        let mut newer = Vec::new();
        for attr in attributes {
            let rows = self.store.by_attribute(&attr).ok()?;
            newer.extend(rows.into_iter().filter(|m| m.id >= after));
        }
        newer.sort_unstable_by_key(|m| m.id);
        Some(newer.into_iter().map(|m| RelayEntry {
            seq: m.id,
            sd_id: m.sd_id,
            timestamp: m.timestamp,
            u: m.u,
            algo: m.algo,
            sealed: m.sealed,
            attribute: m.attribute,
            nonce: m.nonce,
        }))
    }

    /// Stores rows a cluster peer pushed (read-repair or catch-up) through
    /// [`Self::apply_rows`]. The SDA replay guard is deliberately *not*
    /// touched — a later live retransmission of the same deposit must
    /// still converge to the same single row instead of 409ing.
    fn handle_replica_push(&self, rows: Vec<RelayEntry>, mac: &[u8]) -> Pdu {
        let expect = Hmac::<Sha256>::mac(&self.replica_key, &replica_push_bytes(&rows));
        if !ct_eq(mac, &expect) {
            stats().replica_mac_rejected.inc();
            mws_obs::warn!(target: "mws_core", "replica push rejected", reason = "bad mac",);
            return err(401, "replica MAC verification failed");
        }
        let Some(outcomes) = self.apply_rows(rows) else {
            return err(500, "storage failure");
        };
        let stored = outcomes.iter().filter(|(_, fresh)| *fresh).count() as u32;
        let deduped = outcomes.len() as u32 - stored;
        stats().replica_rows_stored.add(u64::from(stored));
        if stored > 0 {
            mws_obs::debug!(target: "mws_core", "replica push stored",
                stored = u64::from(stored), deduped = u64::from(deduped),);
        }
        Pdu::ReplicaPushAck { stored, deduped }
    }

    /// The one apply of rows pushed by a cluster peer or pulled from a
    /// distribution point (§VIII), checked where they were first deposited:
    /// one group commit (one fsync per touched shard; a row present under
    /// its `(sd_id, nonce)` origin is a dedup hit), fresh rows audited.
    /// Each row's `(id, fresh)`, or `None` unless every row is durable.
    fn apply_rows(&self, rows: Vec<RelayEntry>) -> Option<Vec<(MessageId, bool)>> {
        let now = self.clock.now();
        let rows: Vec<PendingDeposit> = rows.into_iter().map(pending_row).collect();
        let outcomes = self.store.deposit_batch(&rows);
        let mut inner = lock(&self.inner);
        for (row, outcome) in rows.into_iter().zip(&outcomes) {
            if let Some((message_id, true)) = *outcome {
                let sd_id = row.sd_id;
                inner
                    .audit
                    .record(now, AuditEvent::DepositAccepted { sd_id, message_id });
            }
        }
        outcomes.into_iter().collect()
    }

    /// Replica handover finalizer: a MAC'd order to drop every row of one
    /// attribute, sent by the rebalance worker once the inheriting
    /// replicas hold the arc. The rows keep existing on R other nodes —
    /// this sweep is what brings a membership change back to *exactly* R
    /// copies instead of leaking stale donors.
    fn handle_replica_evict(&self, attribute: &str, epoch: u64, mac: &[u8]) -> Pdu {
        let expect = Hmac::<Sha256>::mac(&self.replica_key, &replica_evict_bytes(attribute, epoch));
        if !ct_eq(mac, &expect) {
            stats().replica_mac_rejected.inc();
            mws_obs::warn!(target: "mws_core", "replica evict rejected", reason = "bad mac",);
            return err(401, "replica MAC verification failed");
        }
        match self.store.evict_attribute(attribute) {
            Ok(removed) => {
                stats().replica_rows_evicted.add(removed as u64);
                if removed > 0 {
                    mws_obs::debug!(target: "mws_core", "replica evict swept",
                        attribute = attribute.to_string(), removed = removed as u64,
                        epoch = epoch,);
                }
                Pdu::ReplicaEvicted {
                    removed: removed as u64,
                }
            }
            Err(_) => err(500, "storage failure"),
        }
    }

    /// The one write pass every deposit takes, single or batched (§V.B):
    /// verify each row's evidence under the service lock, group-commit the
    /// verified rows outside it with one [`ShardedMessageDb::deposit_batch`]
    /// (one WAL append and one fsync per touched shard), then record nonces
    /// and audit under the lock again. A row's nonce is recorded only after
    /// its shard reported it durable, so a failed store stays honestly
    /// retryable, and batching changes how rows share a frame, never the
    /// durable-before-ack order.
    ///
    /// `verdicts` holds one slot per row (an array for a single deposit, so
    /// that path allocates nothing here); every slot is overwritten.
    fn deposit_rows<V: AsMut<[Verdict]>>(
        &self,
        rows: impl IntoIterator<Item = (PendingDeposit, Vec<u8>)>,
        mut verdicts: V,
    ) -> V {
        let now = self.clock.now();
        let slots = verdicts.as_mut();
        let mut verified = Vec::with_capacity(slots.len());
        {
            let mut inner = lock(&self.inner);
            for ((row, mac), slot) in rows.into_iter().zip(slots.iter_mut()) {
                let checked = if CipherAlgo::from_wire_id(row.algo).is_none() {
                    Err(Verdict::UnknownCipher)
                } else {
                    inner
                        .sda
                        .verify_fresh(
                            now,
                            &row.sd_id,
                            row.timestamp,
                            &row.u,
                            &row.sealed,
                            &row.attribute,
                            &row.nonce,
                            &mac,
                        )
                        .map_err(Verdict::Rejected)
                };
                match checked {
                    Ok(()) => {
                        // Stays a storage error unless the store makes the
                        // row durable below.
                        *slot = Verdict::StorageError;
                        verified.push(row);
                    }
                    Err(verdict) => {
                        audit_reject(&mut inner, now, row.sd_id, &verdict, row.algo);
                        *slot = verdict;
                    }
                }
            }
        }
        let stored = self.store.deposit_batch(&verified);
        let mut inner = lock(&self.inner);
        let pending = slots
            .iter_mut()
            .filter(|slot| matches!(slot, Verdict::StorageError));
        for ((slot, row), outcome) in pending.zip(verified).zip(stored) {
            let Some((message_id, fresh)) = outcome else {
                // Nonce NOT recorded: the device's retransmission of this
                // row will be accepted.
                stats().deposit_storage_error.inc();
                continue;
            };
            inner.sda.record_deposit(&row.sd_id, &row.nonce);
            if fresh {
                stats().deposit_accepted.inc();
                let sd_id = row.sd_id;
                inner
                    .audit
                    .record(now, AuditEvent::DepositAccepted { sd_id, message_id });
            } else {
                // Honest retransmission answered from the origin index.
                stats().deposit_duplicate.inc();
            }
            mws_obs::debug!(
                target: "mws_core",
                "deposit acked",
                message_id = message_id,
                deduplicated = !fresh,
            );
            *slot = Verdict::Durable(message_id, fresh);
        }
        verdicts
    }

    /// Registers a device MAC key (SDA key management).
    pub fn register_device(&self, sd_id: &str, mac_key: &[u8]) {
        lock(&self.inner)
            .sda
            .registry_mut()
            .register(sd_id, mac_key);
    }

    /// Disables a device.
    pub fn disable_device(&self, sd_id: &str) -> bool {
        lock(&self.inner).sda.registry_mut().disable(sd_id)
    }

    /// Registers an RC.
    pub fn register_client(
        &self,
        rc_id: &str,
        password: &str,
        public_key: &[u8],
    ) -> Result<(), CoreError> {
        Ok(lock(&self.inner)
            .gatekeeper
            .register(rc_id, password, public_key)?)
    }

    /// The stored RSA public key of a registered RC (None if unknown).
    pub fn client_public_key(&self, rc_id: &str) -> Option<Vec<u8>> {
        lock(&self.inner)
            .gatekeeper
            .user(rc_id)
            .ok()
            .map(|rec| rec.public_key)
    }

    /// Grants a literal attribute.
    pub fn grant(&self, rc_id: &str, attribute: &str) -> Result<(), CoreError> {
        let mut inner = lock(&self.inner);
        inner.mms.grant(rc_id, attribute)?;
        let now = inner.clock.now();
        inner.audit.record(
            now,
            AuditEvent::Granted {
                rc_id: rc_id.into(),
                attribute: attribute.into(),
            },
        );
        Ok(())
    }

    /// Grants by pattern (§VIII enhanced policies).
    pub fn grant_pattern(&self, rc_id: &str, pattern: &str) -> Result<(), CoreError> {
        let parsed =
            AttrPattern::parse(pattern).map_err(|_| CoreError::Crypto("invalid pattern"))?;
        lock(&self.inner).mms.grant_pattern(rc_id, parsed)?;
        Ok(())
    }

    /// Revokes one attribute (requirement iii).
    pub fn revoke(&self, rc_id: &str, attribute: &str) -> Result<(), CoreError> {
        let mut inner = lock(&self.inner);
        inner.mms.revoke(rc_id, attribute)?;
        let now = inner.clock.now();
        inner.audit.record(
            now,
            AuditEvent::Revoked {
                rc_id: rc_id.into(),
                attribute: attribute.into(),
            },
        );
        Ok(())
    }

    /// Revokes an identity entirely.
    pub fn revoke_identity(&self, rc_id: &str) -> Result<usize, CoreError> {
        Ok(lock(&self.inner).mms.revoke_identity(rc_id)?)
    }

    /// Applies a batch of edge-verified deposits pulled from a distribution
    /// point (§VIII) through the row-plane apply a replica push takes, so
    /// re-applying a batch (after a failure part-way, say) stores nothing
    /// twice and returns the same ids. Only fresh rows are audited.
    pub fn store_relayed(&self, entries: &[RelayEntry]) -> Result<Vec<u64>, CoreError> {
        let stored = self.apply_rows(entries.to_vec());
        let stored = stored.ok_or(mws_store::StoreError::NotDurable)?;
        Ok(stored.into_iter().map(|(id, _)| id).collect())
    }

    /// The current Table 1 rows.
    pub fn policy_table(&self) -> Vec<PolicyRow> {
        lock(&self.inner).mms.policy().table()
    }

    /// Messages currently warehoused.
    pub fn message_count(&self) -> usize {
        lock(&self.inner).mms.messages().len()
    }

    /// A shared handle to the sharded message warehouse, for inspecting
    /// per-shard state (row counts, metrics) without the service lock.
    pub fn store_handle(&self) -> Arc<ShardedMessageDb> {
        Arc::clone(&self.store)
    }

    /// Audit rejections so far.
    pub fn rejection_count(&self) -> usize {
        lock(&self.inner).audit.rejection_count()
    }

    /// Snapshot of all audit records.
    pub fn audit_events(&self) -> Vec<AuditRecord> {
        lock(&self.inner).audit.events().cloned().collect()
    }
}

/// What the write pass made of one deposit. A single deposit answers with
/// [`Self::reply`], a batch item with [`Self::outcome`].
#[derive(Clone, Debug)]
enum Verdict {
    /// Durable: the row's id, and whether this deposit stored it fresh
    /// (`false` is an honest retransmission answered from the origin index).
    Durable(MessageId, bool),
    /// Turned away at the door: the cipher id names no [`CipherAlgo`], so no
    /// receiver could open it and storing it would fail every collect page
    /// that covers it. Checked before the SDA, so the nonce is not consumed.
    UnknownCipher,
    /// The SDA refused the deposit's evidence.
    Rejected(SdaReject),
    /// The row's shard failed to append or sync it.
    StorageError,
}

/// Why a deposit naming no [`CipherAlgo`] is turned away.
const UNKNOWN_CIPHER: &str = "unknown cipher id";

impl Verdict {
    /// The error code and detail a rejected deposit is answered with.
    fn rejection(&self) -> Option<(u16, String)> {
        match self {
            Verdict::UnknownCipher => Some((400, UNKNOWN_CIPHER.into())),
            Verdict::Rejected(reject) => {
                let code = if *reject == SdaReject::Replay {
                    409
                } else {
                    401
                };
                Some((code, reject.to_string()))
            }
            Verdict::Durable(..) | Verdict::StorageError => None,
        }
    }

    /// A single deposit's reply.
    fn reply(self) -> Pdu {
        if let Some((code, detail)) = self.rejection() {
            return Pdu::Error { code, detail };
        }
        match self {
            Verdict::Durable(message_id, _) => Pdu::DepositAck { message_id },
            _ => err(500, "storage failure"),
        }
    }

    /// A batch item's outcome.
    fn outcome(self) -> DepositOutcome {
        let (status, message_id) = match self {
            Verdict::Durable(id, true) => (DepositOutcome::STORED, id),
            Verdict::Durable(id, false) => (DepositOutcome::DUPLICATE, id),
            Verdict::Rejected(SdaReject::Replay) => (DepositOutcome::REPLAY, 0),
            Verdict::UnknownCipher | Verdict::Rejected(_) => (DepositOutcome::REJECTED, 0),
            Verdict::StorageError => (DepositOutcome::STORAGE_ERROR, 0),
        };
        DepositOutcome { status, message_id }
    }
}

/// Audits a deposit the write pass turned away ("the message is discarded
/// and optionally an alert is sent").
fn audit_reject(inner: &mut MwsInner, now: u64, sd_id: String, verdict: &Verdict, algo: u8) {
    let Some((code, reason)) = verdict.rejection() else {
        return;
    };
    if code == 409 {
        stats().deposit_replay.inc();
    } else {
        stats().deposit_rejected.inc();
    }
    mws_obs::warn!(
        target: "mws_core",
        "deposit rejected",
        code = u64::from(code),
        reason = reason.clone(),
        algo = u64::from(algo),
    );
    inner
        .audit
        .record(now, AuditEvent::DepositRejected { sd_id, reason });
}

impl MwsInner {
    fn handle(&mut self, req: Pdu) -> Pdu {
        match req {
            Pdu::RetrieveRequest {
                rc_id,
                auth,
                since,
                limit,
            } => {
                let start = std::time::Instant::now();
                let reply = self.handle_retrieve(rc_id, auth, since, limit);
                stats().retrieve_us.record_duration(start.elapsed());
                reply
            }
            Pdu::HealthRequest => Pdu::HealthResponse {
                role: "mms".into(),
                ready: true,
                detail: format!("{} messages warehoused", self.mms.messages().len()),
            },
            Pdu::StatsRequest => Pdu::StatsResponse {
                role: "mms".into(),
                text: mws_obs::registry().exposition(),
            },
            _ => err(400, "unexpected PDU at MWS"),
        }
    }

    fn handle_retrieve(&mut self, rc_id: String, auth: Vec<u8>, since: u64, limit: u32) -> Pdu {
        let now = self.clock.now();
        let rec = match self.gatekeeper.verify(now, &rc_id, &auth) {
            Ok(rec) => rec,
            Err(reject) => {
                self.audit.record(
                    now,
                    AuditEvent::RetrieveRejected {
                        rc_id,
                        reason: reject.to_string(),
                    },
                );
                stats().retrieve_rejected.inc();
                let code = match reject {
                    crate::gatekeeper::GkReject::Replay => 409,
                    _ => 401,
                };
                mws_obs::warn!(
                    target: "mws_core",
                    "retrieve rejected",
                    code = u64::from(code),
                    reason = reject.to_string(),
                );
                return err(code, &reject.to_string());
            }
        };
        let Ok(rsa_pub) = RsaPublicKey::from_bytes(&rec.public_key) else {
            return err(500, "corrupt client public key");
        };
        let table = match self.mms.attribute_table_for(&rc_id) {
            Ok(t) => t,
            Err(_) => return err(500, "policy failure"),
        };
        let session_key = TokenGenerator::fresh_session_key(&mut self.rng);
        let ticket = self.tokens.build_ticket(
            &mut self.rng,
            &TicketContent {
                rc_id: rc_id.clone(),
                session_key: session_key.clone(),
                issued_at: now,
                table: table.clone(),
            },
        );
        let Ok(token) = TokenGenerator::build_token(&mut self.rng, &rsa_pub, &session_key, &ticket)
        else {
            return err(500, "token construction failed");
        };
        let rows = match self.mms.retrieve_for(&rc_id, since, limit) {
            Ok(rows) => rows,
            Err(_) => return err(500, "retrieval failure"),
        };
        let messages: Vec<WireMessage> = rows
            .into_iter()
            .map(|(m, aid)| WireMessage {
                message_id: m.id,
                aad: deposit_aad(&m.attribute, &m.nonce, &m.sd_id, m.timestamp),
                u: m.u,
                algo: m.algo,
                sealed: m.sealed,
                aid,
                nonce: m.nonce,
                timestamp: m.timestamp,
            })
            .collect();
        stats().retrieve_served.inc();
        stats().tickets_issued.inc();
        mws_obs::debug!(
            target: "mws_core",
            "retrieve served",
            count = messages.len(),
        );
        self.audit.record(
            now,
            AuditEvent::RetrieveServed {
                rc_id,
                count: messages.len(),
            },
        );
        Pdu::RetrieveResponse { token, messages }
    }
}

fn err(code: u16, detail: &str) -> Pdu {
    Pdu::Error {
        code,
        detail: detail.to_string(),
    }
}

/// A peer- or relay-supplied row as a deposit awaiting storage.
fn pending_row(e: RelayEntry) -> PendingDeposit {
    PendingDeposit {
        attribute: e.attribute,
        nonce: e.nonce,
        u: e.u,
        algo: e.algo,
        sealed: e.sealed,
        sd_id: e.sd_id,
        timestamp: e.timestamp,
    }
}

/// How smart devices authenticate deposits (see `sda`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceAuthMode {
    /// Per-device shared MAC keys (§V.B).
    Mac,
    /// Cha–Cheon identity-based signatures (§VIII).
    Ibs,
}

/// Deployment-wide configuration.
#[derive(Clone, Debug)]
pub struct DeploymentConfig {
    /// Pairing parameter set.
    pub level: SecurityLevel,
    /// Symmetric cipher for the hybrid layer (D1).
    pub algo: CipherAlgo,
    /// Replay policy for MWS and PKG.
    pub replay: ReplayPolicy,
    /// Storage backend factory (memory or a directory of WAL files).
    pub storage_dir: Option<std::path::PathBuf>,
    /// RSA modulus bits for RC keypairs.
    pub rsa_bits: u32,
    /// Deployment master seed (all randomness derives from it).
    pub seed: u64,
    /// `Some((t, n))` runs the PKG over a threshold-shared master (§VIII).
    pub threshold: Option<(u32, u32)>,
    /// Device deposit authentication: shared-key MAC (the paper's design)
    /// or identity-based signatures (§VIII future work).
    pub device_auth: DeviceAuthMode,
    /// PKG session lifetime in logical ticks.
    pub session_ttl: u64,
    /// Injected-failure schedule for the message store (chaos testing);
    /// the caller keeps a clone of the plan to steer it. Applies to every
    /// shard; use [`Self::message_shard_faults`] for per-shard plans.
    pub message_store_faults: Option<FaultPlan>,
    /// Warehouse shard count (DESIGN.md §9). `1` reproduces the unsharded
    /// layout bit-for-bit, including WAL file names.
    pub message_shards: usize,
    /// Per-shard-index injected-failure schedules (chaos testing of shard
    /// recovery isolation). Indices outside `0..message_shards` are ignored.
    pub message_shard_faults: Vec<(usize, FaultPlan)>,
}

impl DeploymentConfig {
    /// Fast deterministic defaults for tests: toy curve, AES-128, memory
    /// storage, 512-bit RSA, hardened replay policy.
    pub fn test_default() -> Self {
        Self {
            level: SecurityLevel::Toy,
            algo: CipherAlgo::Aes128,
            replay: ReplayPolicy::standard(),
            storage_dir: None,
            rsa_bits: 512,
            seed: 42,
            threshold: None,
            device_auth: DeviceAuthMode::Mac,
            session_ttl: 1000,
            message_store_faults: None,
            message_shards: 1,
            message_shard_faults: Vec::new(),
        }
    }

    fn storage(&self, name: &str) -> StorageKind {
        let base = match &self.storage_dir {
            None => StorageKind::Memory,
            Some(dir) => StorageKind::File(dir.join(format!("{name}.wal"))),
        };
        match (&self.message_store_faults, name) {
            (Some(plan), "messages") => base.with_faults(plan.clone()),
            _ => base,
        }
    }

    /// Per-shard message storage kinds: the base layout from
    /// [`Self::storage`], striped `message_shards` ways, with any per-shard
    /// fault plans attached to their shard index.
    fn message_storages(&self) -> Vec<StorageKind> {
        let mut kinds =
            mws_store::shard_kinds(&self.storage("messages"), self.message_shards.max(1));
        for (idx, plan) in &self.message_shard_faults {
            if let Some(kind) = kinds.get_mut(*idx) {
                *kind = kind.clone().with_faults(plan.clone());
            }
        }
        kinds
    }
}

/// A fully provisioned system: PKG + MWS on a network, plus the
/// provisioning records needed to mint device and client handles.
pub struct Deployment {
    config: DeploymentConfig,
    network: Network,
    clock: LogicalClock,
    ibe: IbeSystem,
    msk: mws_ibe::MasterSecret,
    mpk: mws_ibe::MasterPublic,
    mws: MwsService,
    pkg: PkgService,
    rng: HmacDrbg,
    mws_pkg_secret: Vec<u8>,
    device_keys: HashMap<String, DeviceCredential>,
    client_keys: HashMap<String, RsaKeyPair>,
}

impl Deployment {
    /// Provisions a complete deployment.
    pub fn new(config: DeploymentConfig) -> Self {
        let clock = LogicalClock::new();
        let network = Network::new();
        let mut rng = HmacDrbg::new(&config.seed.to_be_bytes(), b"mws-deployment");
        let ibe = IbeSystem::named(config.level);
        let (msk, mpk) = ibe.setup(&mut rng);
        let master = match config.threshold {
            None => PkgMaster::Single(msk.clone()),
            Some((t, n)) => {
                let shares = ibe
                    .share_master(&mut rng, &msk, t, n)
                    .expect("valid threshold shape");
                PkgMaster::Threshold {
                    shares,
                    t: t as usize,
                }
            }
        };
        let mut mws_pkg_secret = vec![0u8; 32];
        rng.fill_bytes(&mut mws_pkg_secret);

        let pkg = PkgService::new(
            ibe.clone(),
            master,
            mpk.clone(),
            &mws_pkg_secret,
            clock.clone(),
            config.replay.clone(),
            rng.next_u64(),
            config.session_ttl,
        );
        network.bind("pkg", pkg.as_service());

        let device_auth = match config.device_auth {
            DeviceAuthMode::Mac => DeviceAuthVerifier::Mac,
            DeviceAuthMode::Ibs => DeviceAuthVerifier::Ibs {
                ibe: ibe.clone(),
                mpk: mpk.clone(),
            },
        };
        let mws = MwsService::new_sharded(
            DeviceRegistry::new(),
            config.message_storages(),
            config.storage("policy"),
            config.storage("users"),
            &mws_pkg_secret,
            clock.clone(),
            config.replay.clone(),
            rng.next_u64(),
            device_auth,
        )
        .expect("storage open");
        network.bind("mws", mws.as_service());

        Self {
            config,
            network,
            clock,
            ibe,
            msk,
            mpk,
            mws,
            pkg,
            rng,
            mws_pkg_secret,
            device_keys: HashMap::new(),
            client_keys: HashMap::new(),
        }
    }

    /// Registers a smart device: in MAC mode a fresh shared key is
    /// generated and installed; in IBS mode the PKG-side master extracts the
    /// device's signing key `d_SD` (and the MWS only records admission).
    pub fn register_device(&mut self, sd_id: &str) {
        let credential = match self.config.device_auth {
            DeviceAuthMode::Mac => {
                let mut key = vec![0u8; 32];
                self.rng.fill_bytes(&mut key);
                self.mws.register_device(sd_id, &key);
                DeviceCredential::MacKey(key)
            }
            DeviceAuthMode::Ibs => {
                let signing_id = format!("{SD_IDENTITY_PREFIX}{sd_id}");
                let d_sd = self.ibe.extract(&self.msk, signing_id.as_bytes());
                self.mws.register_device(sd_id, &[]); // admission only
                DeviceCredential::IbsKey(d_sd)
            }
        };
        self.device_keys.insert(sd_id.to_string(), credential);
    }

    /// Registers a receiving client with initial attribute grants.
    ///
    /// Idempotent across restarts of a durable deployment: all key material
    /// derives deterministically from the deployment seed, so replaying the
    /// same provisioning sequence against reloaded storage reattaches the
    /// identical keypair (verified against the stored record) instead of
    /// failing on the duplicate.
    pub fn register_client(&mut self, rc_id: &str, password: &str, attributes: &[&str]) {
        let rsa =
            RsaKeyPair::generate(&mut self.rng, self.config.rsa_bits).expect("configured key size");
        match self
            .mws
            .register_client(rc_id, password, &rsa.public.to_bytes())
        {
            Ok(()) => {}
            Err(_) => {
                // Already registered (reloaded from durable storage): the
                // regenerated key must match the stored one.
                let stored = self
                    .mws
                    .client_public_key(rc_id)
                    .expect("duplicate implies stored record");
                assert_eq!(
                    stored,
                    rsa.public.to_bytes(),
                    "re-registration with diverging key material for {rc_id}"
                );
            }
        }
        for attr in attributes {
            self.mws.grant(rc_id, attr).expect("grant");
        }
        self.client_keys.insert(rc_id.to_string(), rsa);
    }

    /// Mints a device handle (bootstraps parameters from the PKG).
    pub fn device(&mut self, sd_id: &str) -> SmartDevice {
        let mws = self.network.client("mws");
        let pkg = self.network.client("pkg");
        self.device_with(sd_id, mws, &pkg)
            .expect("bootstrap against live PKG")
    }

    /// Mints a device handle over explicit transports — e.g. `mws-server`
    /// TCP clients pointed at remote MMS and PKG daemons — instead of the
    /// deployment's in-process bus. Fails if the PKG is unreachable during
    /// parameter bootstrap.
    pub fn device_with(
        &mut self,
        sd_id: &str,
        mws: Client,
        pkg: &Client,
    ) -> Result<SmartDevice, CoreError> {
        let credential = self
            .device_keys
            .get(sd_id)
            .expect("device registered")
            .clone();
        SmartDevice::bootstrap(
            sd_id,
            credential,
            self.config.algo,
            self.clock.clone(),
            self.rng.next_u64(),
            mws,
            pkg,
        )
    }

    /// Mints a client handle.
    pub fn client(&mut self, rc_id: &str, password: &str) -> ReceivingClient {
        let mws = self.network.client("mws");
        let pkg = self.network.client("pkg");
        self.client_with(rc_id, password, mws, pkg)
    }

    /// Mints a client handle over explicit transports (see
    /// [`Self::device_with`]). In the four-server topology the `mws` client
    /// points at the Gatekeeper front door, which authenticates and relays
    /// to the warehouse.
    pub fn client_with(
        &mut self,
        rc_id: &str,
        password: &str,
        mws: Client,
        pkg: Client,
    ) -> ReceivingClient {
        let rsa = self
            .client_keys
            .get(rc_id)
            .expect("client registered")
            .clone();
        ReceivingClient::new(
            rc_id,
            password,
            rsa,
            self.ibe.clone(),
            self.clock.clone(),
            self.rng.next_u64(),
            mws,
            pkg,
        )
    }

    /// The warehouse admin handle.
    pub fn mws(&self) -> &MwsService {
        &self.mws
    }

    /// The PKG handle.
    pub fn pkg(&self) -> &PkgService {
        &self.pkg
    }

    /// The deployment clock.
    pub fn clock(&self) -> &LogicalClock {
        &self.clock
    }

    /// The underlying network (metrics, custom clients).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The shared IBE system.
    pub fn ibe(&self) -> &IbeSystem {
        &self.ibe
    }

    /// The deployment master seed.
    pub fn seed(&self) -> u64 {
        self.config.seed
    }

    /// Master public parameters. Transport-level IBS verification
    /// (DESIGN.md §12) needs them on every daemon; like all provisioning
    /// they are seed-deterministic, so every deployment of the same seed
    /// verifies the same endpoint signatures.
    pub fn master_public(&self) -> &mws_ibe::MasterPublic {
        &self.mpk
    }

    /// Extracts the IBS signing key for a transport endpoint identity
    /// (e.g. `"mws/gatekeeper"`). This is the PKG-side extraction the
    /// paper performs for devices, reused to give each daemon a
    /// transport credential without any extra key distribution.
    pub fn extract_transport_key(&self, identity: &str) -> mws_ibe::UserPrivateKey {
        self.ibe.extract(&self.msk, identity.as_bytes())
    }

    /// The cluster replica-plane MAC key (see [`replica_key`]). Seed-
    /// deterministic like all provisioning: every replica deployment of
    /// the same seed derives the same key, which is what lets a cluster
    /// router authenticate the repair plane against all of them.
    pub fn replica_key(&self) -> Vec<u8> {
        replica_key(&self.mws_pkg_secret)
    }

    /// MACs a [`Pdu::ClusterJoin`] order for
    /// `node` against ring `epoch` with this deployment's replica key —
    /// the operator-side half of the membership admin plane. Any
    /// deployment of the cluster's seed produces the same MAC, so a
    /// control tool needs only the seed, never a key file.
    pub fn cluster_join_mac(&self, node: &str, epoch: u64) -> Vec<u8> {
        Hmac::<Sha256>::mac(
            &self.replica_key(),
            &mws_wire::cluster_join_bytes(node, epoch),
        )
    }

    /// MACs a [`Pdu::ClusterDrain`] order —
    /// see [`cluster_join_mac`](Self::cluster_join_mac).
    pub fn cluster_drain_mac(&self, node: &str, epoch: u64) -> Vec<u8> {
        Hmac::<Sha256>::mac(
            &self.replica_key(),
            &mws_wire::cluster_drain_bytes(node, epoch),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mws_wire::pdu::{replica_pull_bytes, replica_rows_bytes};

    fn deployment() -> Deployment {
        Deployment::new(DeploymentConfig::test_default())
    }

    #[test]
    fn seed_to_master_key_derivation_is_pinned() {
        // Daemons, `mws-clusterctl` and seeded provisioning agree on keys
        // only because every build derives the same ones from a seed; a
        // moved DRBG stream would show up here. Both values were
        // re-captured once, on purpose, when the named parameter sets moved
        // to Solinas group orders (they were first pinned at e1e27ef):
        // - `mpk`: the generator, and so `P_pub = s·P`, changed with them;
        // - `replica_key`: the secret it is derived from is drawn right
        //   after the master key `s`, which is rejection-sampled below the
        //   new `q`, so the DRBG stream reaches it after a different number
        //   of draws. The stream itself did not move
        //   (`drbg::tests::rng_stream_is_pinned`).
        use mws_crypto::Digest;
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let dep = deployment();
        let mpk = dep.ibe().mpk_to_bytes(dep.master_public());
        assert_eq!(
            hex(&Sha256::digest(&mpk)),
            "a5fda097982c2278f9bbd14e440f7f4e9bbba4fea2639604d7a5b3d06fccb8fe"
        );
        assert_eq!(
            hex(&dep.replica_key()),
            "33dfbd6315ff1701c89e440ee2df602c4e790a21ef64a123788ca874bc2fbc45"
        );
    }

    #[test]
    fn end_to_end_single_message() {
        let mut dep = deployment();
        dep.register_device("meter-1");
        dep.register_client("utility", "pw", &["ELECTRIC-APT9"]);
        let mut meter = dep.device("meter-1");
        let id = meter.deposit("ELECTRIC-APT9", b"kwh=42.7").unwrap();
        let mut rc = dep.client("utility", "pw");
        let msgs = rc.retrieve_and_decrypt(0).unwrap();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].message_id, id);
        assert_eq!(msgs[0].plaintext, b"kwh=42.7");
    }

    #[test]
    fn unauthorized_attribute_invisible() {
        let mut dep = deployment();
        dep.register_device("meter-1");
        dep.register_client("water-co", "pw", &["WATER-APT9"]);
        let mut meter = dep.device("meter-1");
        meter.deposit("ELECTRIC-APT9", b"secret").unwrap();
        meter.deposit("WATER-APT9", b"visible").unwrap();
        let mut rc = dep.client("water-co", "pw");
        let msgs = rc.retrieve_and_decrypt(0).unwrap();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].plaintext, b"visible");
    }

    #[test]
    fn wrong_password_rejected_at_gatekeeper() {
        let mut dep = deployment();
        dep.register_client("rc", "right", &["A"]);
        let mut rc = dep.client("rc", "wrong");
        let err = rc.retrieve_and_decrypt(0).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Remote {
                code: crate::ErrorCode::AuthFailed,
                ..
            }
        ));
    }

    #[test]
    fn forged_deposit_rejected_and_audited() {
        let mut dep = deployment();
        dep.register_device("meter-1");
        dep.register_client("rc", "pw", &["A"]);
        let mut meter = dep.device("meter-1");
        let mut pdu = meter.compose_deposit("A", b"payload");
        if let Pdu::DepositRequest { sealed, .. } = &mut pdu {
            sealed[0] ^= 1; // MWS-side tamper
        }
        let reply = dep.network().client("mws").call(&pdu).unwrap();
        assert!(matches!(reply, Pdu::Error { code: 401, .. }));
        assert_eq!(dep.mws().rejection_count(), 1);
        assert_eq!(dep.mws().message_count(), 0, "discarded, not stored");
    }

    #[test]
    fn deposit_replay_rejected() {
        let mut dep = deployment();
        dep.register_device("meter-1");
        dep.register_client("rc", "pw", &["A"]);
        let mut meter = dep.device("meter-1");
        let pdu = meter.compose_deposit("A", b"payload");
        let mws = dep.network().client("mws");
        assert!(matches!(mws.call(&pdu).unwrap(), Pdu::DepositAck { .. }));
        assert!(matches!(
            mws.call(&pdu).unwrap(),
            Pdu::Error { code: 409, .. }
        ));
    }

    #[test]
    fn deposit_retries_through_injected_storage_failure() {
        // A failed store write returns 500 WITHOUT recording the nonce, so
        // the device's retransmission of the identical frame succeeds
        // instead of bouncing off the replay guard.
        let plan = FaultPlan::default();
        let mut dep = Deployment::new(DeploymentConfig {
            message_store_faults: Some(plan.clone()),
            ..DeploymentConfig::test_default()
        });
        dep.register_device("m");
        dep.register_client("rc", "pw", &["A"]);
        let mut meter = dep.device("m");
        plan.fail_append(plan.appends());
        let id = meter.deposit_reliable("A", b"durable reading", 3).unwrap();
        assert!(id.is_some(), "acked after retry");
        assert_eq!(dep.mws().message_count(), 1, "stored exactly once");
        let mut rc = dep.client("rc", "pw");
        let msgs = rc.retrieve_and_decrypt(0).unwrap();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].plaintext, b"durable reading");
    }

    #[test]
    fn batched_deposit_end_to_end_on_a_sharded_warehouse() {
        let mut dep = Deployment::new(DeploymentConfig {
            message_shards: 4,
            ..DeploymentConfig::test_default()
        });
        dep.register_device("m");
        dep.register_client("rc", "pw", &["A", "B", "C"]);
        let mut meter = dep.device("m");
        let outcomes = meter
            .deposit_batch(&[
                ("A", b"one".as_slice()),
                ("B", b"two".as_slice()),
                ("C", b"three".as_slice()),
            ])
            .unwrap();
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes.iter().all(|o| o.status == DepositOutcome::STORED));
        assert_eq!(dep.mws().message_count(), 3);
        // Every batched item decrypts like a single deposit would.
        let mut rc = dep.client("rc", "pw");
        let msgs = rc.retrieve_and_decrypt(0).unwrap();
        assert_eq!(msgs.len(), 3);
        let mut plain: Vec<&[u8]> = msgs.iter().map(|m| m.plaintext.as_slice()).collect();
        plain.sort_unstable();
        assert_eq!(plain, vec![b"one".as_slice(), b"three", b"two"]);
    }

    #[test]
    fn batch_mixes_statuses_per_item() {
        let mut dep = deployment();
        dep.register_device("m");
        dep.register_client("rc", "pw", &["A"]);
        let mut meter = dep.device("m");
        let mut pdu = meter
            .compose_deposit_batch(&[("A", b"good".as_slice()), ("A", b"tampered".as_slice())]);
        if let Pdu::DepositBatch { items, .. } = &mut pdu {
            items[1].sealed[0] ^= 1; // in-flight tamper on item 1 only
            let dup = items[0].clone();
            items.push(dup); // same origin as item 0, inside one batch
        }
        let reply = dep.network().client("mws").call(&pdu).unwrap();
        let Pdu::DepositBatchAck { results } = reply else {
            panic!("expected batch ack");
        };
        assert_eq!(results[0].status, DepositOutcome::STORED);
        assert_eq!(results[1].status, DepositOutcome::REJECTED);
        assert_eq!(results[2].status, DepositOutcome::DUPLICATE);
        assert_eq!(results[2].message_id, results[0].message_id);
        assert_eq!(dep.mws().message_count(), 1, "tampered item discarded");
        assert_eq!(dep.mws().rejection_count(), 1);
        // Retransmitting the whole batch now trips the replay guard.
        let reply = dep.network().client("mws").call(&pdu).unwrap();
        let Pdu::DepositBatchAck { results } = reply else {
            panic!("expected batch ack");
        };
        assert_eq!(results[0].status, DepositOutcome::REPLAY);
    }

    #[test]
    fn unknown_cipher_id_rejected_at_the_door() {
        let mut dep = deployment();
        dep.register_device("m");
        dep.register_client("rc", "pw", &["A"]);
        let mut meter = dep.device("m");
        let mws = dep.network().client("mws");
        for (n, id) in [0u8, 2, 4, 5, 255].into_iter().enumerate() {
            let mut pdu = meter.compose_deposit("A", b"payload");
            if let Pdu::DepositRequest { algo, .. } = &mut pdu {
                *algo = id;
            }
            let reply = mws.call(&pdu).unwrap();
            assert!(matches!(reply, Pdu::Error { code: 400, .. }), "id {id}");
            assert_eq!(dep.mws().rejection_count(), n + 1, "id {id} audited");
        }
        assert_eq!(dep.mws().message_count(), 0);
        // Both known ids pass the door. `algo` is outside the deposit MAC,
        // so a flip between them is stored and fails closed at the RC.
        for id in [3u8, 1] {
            let mut pdu = meter.compose_deposit("A", b"payload");
            if let Pdu::DepositRequest { algo, .. } = &mut pdu {
                *algo = id;
            }
            assert!(matches!(mws.call(&pdu).unwrap(), Pdu::DepositAck { .. }));
        }
        let mut rc = dep.client("rc", "pw");
        assert!(
            rc.retrieve_and_decrypt(0).is_err(),
            "flipped id fails the tag"
        );
    }

    #[test]
    fn batch_rejects_unknown_cipher_ids_per_item() {
        let mut dep = deployment();
        dep.register_device("m");
        let mut meter = dep.device("m");
        let ids = [0u8, 2, 4, 5, 255, 1, 3];
        let plain: Vec<(&str, &[u8])> = ids.iter().map(|_| ("A", b"m".as_slice())).collect();
        let mut pdu = meter.compose_deposit_batch(&plain);
        if let Pdu::DepositBatch { items, .. } = &mut pdu {
            for (item, id) in items.iter_mut().zip(ids) {
                item.algo = id;
            }
        }
        let Pdu::DepositBatchAck { results } = dep.network().client("mws").call(&pdu).unwrap()
        else {
            panic!("expected batch ack");
        };
        let statuses: Vec<u8> = results.iter().map(|r| r.status).collect();
        let (rejected, stored) = (DepositOutcome::REJECTED, DepositOutcome::STORED);
        assert_eq!(
            statuses,
            [rejected, rejected, rejected, rejected, rejected, stored, stored]
        );
        assert_eq!(dep.mws().rejection_count(), 5);
        assert_eq!(dep.mws().message_count(), 2);
    }

    #[test]
    fn sharded_deployment_serves_single_deposits_too() {
        let mut dep = Deployment::new(DeploymentConfig {
            message_shards: 3,
            ..DeploymentConfig::test_default()
        });
        dep.register_device("m");
        dep.register_client("rc", "pw", &["X", "Y"]);
        let mut meter = dep.device("m");
        let a = meter.deposit("X", b"one").unwrap();
        let b = meter.deposit("Y", b"two").unwrap();
        assert_ne!(a, b, "ids unique across shards");
        let mut rc = dep.client("rc", "pw");
        assert_eq!(rc.retrieve_and_decrypt(0).unwrap().len(), 2);
    }

    #[test]
    fn health_pdu_served_by_mws_and_pkg() {
        let mut dep = deployment();
        dep.register_device("m");
        dep.register_client("rc", "pw", &["A"]);
        dep.device("m").deposit("A", b"x").unwrap();
        let mws = dep.network().client("mws");
        match mws.call(&Pdu::HealthRequest).unwrap() {
            Pdu::HealthResponse { role, ready, .. } => {
                assert_eq!(role, "mms");
                assert!(ready);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        let pkg = dep.network().client("pkg");
        match pkg.call(&Pdu::HealthRequest).unwrap() {
            Pdu::HealthResponse { role, ready, .. } => {
                assert_eq!(role, "pkg");
                assert!(ready);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn revocation_blocks_future_messages_only() {
        let mut dep = deployment();
        dep.register_device("m");
        dep.register_client("c-services", "pw", &["ELECTRIC-APT"]);
        let mut meter = dep.device("m");
        meter.deposit("ELECTRIC-APT", b"before").unwrap();
        let mut rc = dep.client("c-services", "pw");
        assert_eq!(rc.retrieve_and_decrypt(0).unwrap().len(), 1);
        // Revoke, deposit more: the RC must see nothing new.
        dep.mws().revoke("c-services", "ELECTRIC-APT").unwrap();
        meter.deposit("ELECTRIC-APT", b"after").unwrap();
        assert_eq!(rc.retrieve_and_decrypt(0).unwrap().len(), 0);
    }

    #[test]
    fn threshold_pkg_deployment_works() {
        let mut dep = Deployment::new(DeploymentConfig {
            threshold: Some((2, 3)),
            ..DeploymentConfig::test_default()
        });
        dep.register_device("m");
        dep.register_client("rc", "pw", &["A"]);
        let mut meter = dep.device("m");
        meter.deposit("A", b"via threshold pkg").unwrap();
        let mut rc = dep.client("rc", "pw");
        let msgs = rc.retrieve_and_decrypt(0).unwrap();
        assert_eq!(msgs[0].plaintext, b"via threshold pkg");
    }

    #[test]
    fn every_cipher_algo_end_to_end() {
        for algo in [CipherAlgo::Des, CipherAlgo::Aes128] {
            let mut dep = Deployment::new(DeploymentConfig {
                algo,
                ..DeploymentConfig::test_default()
            });
            dep.register_device("m");
            dep.register_client("rc", "pw", &["A"]);
            let mut meter = dep.device("m");
            meter.deposit("A", b"payload").unwrap();
            let mut rc = dep.client("rc", "pw");
            assert_eq!(
                rc.retrieve_and_decrypt(0).unwrap()[0].plaintext,
                b"payload",
                "{algo:?}"
            );
        }
    }

    #[test]
    fn ibs_device_auth_end_to_end() {
        // §VIII: deposits signed with identity-based signatures instead of
        // shared MAC keys — the MWS verifies with public parameters only.
        let mut dep = Deployment::new(DeploymentConfig {
            device_auth: DeviceAuthMode::Ibs,
            ..DeploymentConfig::test_default()
        });
        dep.register_device("meter-1");
        dep.register_client("rc", "pw", &["A"]);
        let mut meter = dep.device("meter-1");
        meter.deposit("A", b"signed reading").unwrap();
        let mut rc = dep.client("rc", "pw");
        assert_eq!(
            rc.retrieve_and_decrypt(0).unwrap()[0].plaintext,
            b"signed reading"
        );
        // Tampering still caught — now by signature verification.
        let mut pdu = meter.compose_deposit("A", b"x");
        if let Pdu::DepositRequest { attribute, .. } = &mut pdu {
            *attribute = "B".into();
        }
        let reply = dep.network().client("mws").call(&pdu).unwrap();
        assert!(matches!(reply, Pdu::Error { code: 401, .. }));
        // A MAC-mode authenticator (32 bytes) is not a valid signature.
        let mut pdu = meter.compose_deposit("A", b"y");
        if let Pdu::DepositRequest { mac, .. } = &mut pdu {
            *mac = vec![0u8; 32];
        }
        let reply = dep.network().client("mws").call(&pdu).unwrap();
        assert!(matches!(reply, Pdu::Error { code: 401, .. }));
    }

    #[test]
    fn pattern_grant_covers_new_devices() {
        let mut dep = deployment();
        dep.register_client("c-services", "pw", &[]);
        dep.mws()
            .grant_pattern("c-services", "ELECTRIC-**")
            .unwrap();
        dep.register_device("new-meter");
        let mut meter = dep.device("new-meter");
        meter
            .deposit("ELECTRIC-BRAND-NEW", b"first reading")
            .unwrap();
        let mut rc = dep.client("c-services", "pw");
        let msgs = rc.retrieve_and_decrypt(0).unwrap();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].plaintext, b"first reading");
    }

    #[test]
    fn since_filter_supports_incremental_polling() {
        let mut dep = deployment();
        dep.register_device("m");
        dep.register_client("rc", "pw", &["A"]);
        let mut meter = dep.device("m");
        meter.deposit("A", b"one").unwrap();
        dep.clock().advance(5);
        meter.deposit("A", b"two").unwrap();
        let mut rc = dep.client("rc", "pw");
        let all = rc.retrieve_and_decrypt(0).unwrap();
        assert_eq!(all.len(), 2);
        let newer = rc.retrieve_and_decrypt(5).unwrap();
        assert_eq!(newer.len(), 1);
        assert_eq!(newer[0].plaintext, b"two");
    }

    #[test]
    fn table1_shape_reproduced_through_service() {
        let mut dep = deployment();
        dep.register_client("IDRC1", "p1", &["A1", "A2"]);
        dep.register_client("IDRC2", "p2", &["A1"]);
        dep.register_client("IDRC3", "p3", &["A3"]);
        dep.register_client("IDRC4", "p4", &["A4"]);
        let table = dep.mws().policy_table();
        assert_eq!(table.len(), 5);
        let aids: Vec<u64> = table.iter().map(|r| r.attribute_id).collect();
        assert_eq!(aids, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn mws_cannot_decrypt_stored_messages() {
        // The core confidentiality claim: the warehouse sees only
        // ciphertext. We check that the stored payload does not contain the
        // plaintext and that without the PKG's key no decryption path exists.
        let mut dep = deployment();
        dep.register_device("m");
        dep.register_client("rc", "pw", &["A"]);
        let mut meter = dep.device("m");
        let secret = b"very-secret-reading-000".to_vec();
        meter.deposit("A", &secret).unwrap();
        let events = dep.mws().audit_events();
        assert!(!events.is_empty());
        // Inspect the raw stored bytes via a retrieval at the wire level.
        let mut rc = dep.client("rc", "pw");
        let (_, wire_msgs) = rc.retrieve(0).unwrap();
        let sealed = &wire_msgs[0].sealed;
        assert!(!sealed.windows(secret.len()).any(|w| w == secret.as_slice()));
    }

    #[test]
    fn replica_plane_round_trips_between_seed_replicas() {
        // Two deployments from one seed = two cluster nodes: same device
        // keys, same replica key. Rows pulled from one must push into the
        // other durably, idempotently, and survive a later live
        // retransmission of the same deposit.
        let mut a = deployment();
        let mut b = deployment();
        for dep in [&mut a, &mut b] {
            dep.register_device("m");
            dep.register_client("rc", "pw", &["A"]);
        }
        assert_eq!(a.replica_key(), b.replica_key(), "seed-deterministic key");
        let mut meter = a.device("m");
        let pdu_one = meter.compose_deposit("A", b"one");
        let mws_a_direct = a.network().client("mws");
        assert!(matches!(
            mws_a_direct.call(&pdu_one).unwrap(),
            Pdu::DepositAck { .. }
        ));
        meter.deposit("A", b"two").unwrap();

        let mws_a = a.network().client("mws");
        let rows = mws_net::pull_rows(|req| mws_a.call(req), &a.replica_key(), "", 0, 10).unwrap();
        assert_eq!(rows.len(), 2, "pages verify under the replica key");

        // Push into B: both rows fresh, then both dedup on a second push.
        let mws_b = b.network().client("mws");
        let mac = Hmac::<Sha256>::mac(&b.replica_key(), &replica_push_bytes(&rows));
        let push = Pdu::ReplicaPush {
            rows: rows.clone(),
            mac,
        };
        let Pdu::ReplicaPushAck { stored, deduped } = mws_b.call(&push).unwrap() else {
            panic!("expected push ack");
        };
        assert_eq!((stored, deduped), (2, 0));
        assert_eq!(b.mws().message_count(), 2);
        let Pdu::ReplicaPushAck { stored, deduped } = mws_b.call(&push).unwrap() else {
            panic!("expected push ack");
        };
        assert_eq!((stored, deduped), (0, 2), "push is idempotent");

        // The replicated rows decrypt end-to-end on the receiving node.
        let mut rc = b.client("rc", "pw");
        let msgs = rc.retrieve_and_decrypt(0).unwrap();
        let mut plain: Vec<&[u8]> = msgs.iter().map(|m| m.plaintext.as_slice()).collect();
        plain.sort_unstable();
        assert_eq!(plain, vec![b"one".as_slice(), b"two"]);

        // A tampered MAC is rejected before anything is stored.
        let bad = Pdu::ReplicaPush {
            rows: rows.clone(),
            mac: vec![0; 32],
        };
        assert!(matches!(
            mws_b.call(&bad).unwrap(),
            Pdu::Error { code: 401, .. }
        ));

        // The device retransmitting its original deposit to B (same nonce
        // the replica push already carried) still converges: the push
        // never touched B's replay guard, so the deposit verifies fresh
        // and answers from the origin-dedup index — one row, one ack.
        assert!(matches!(
            mws_b.call(&pdu_one).unwrap(),
            Pdu::DepositAck { .. }
        ));
        assert_eq!(b.mws().message_count(), 2, "retransmission deduped");
    }

    #[test]
    fn peer_and_relay_rows_group_commit_one_fsync_per_shard() {
        let path = std::env::temp_dir().join(format!("mws-push-fsync-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::new();
        let mws = MwsService::new(
            DeviceRegistry::new(),
            StorageKind::File(path.clone()).with_faults(plan.clone()),
            StorageKind::Memory,
            StorageKind::Memory,
            b"secret",
            LogicalClock::new(),
            ReplayPolicy::standard(),
            1,
            DeviceAuthVerifier::Mac,
        )
        .unwrap();
        let rows = |from: u64| -> Vec<RelayEntry> {
            (from..from + 100)
                .map(|n| RelayEntry {
                    seq: n,
                    sd_id: "m".into(),
                    timestamp: n,
                    u: vec![2; 33],
                    algo: 1,
                    sealed: vec![7; 40],
                    attribute: format!("A{}", n % 5),
                    nonce: n.to_le_bytes().to_vec(),
                })
                .collect()
        };
        let pushed = rows(0);
        let mac = Hmac::<Sha256>::mac(&replica_key(b"secret"), &replica_push_bytes(&pushed));
        let syncs = plan.syncs();
        let ack = mws.dispatch(Pdu::ReplicaPush { rows: pushed, mac });
        assert_eq!(
            ack,
            Pdu::ReplicaPushAck {
                stored: 100,
                deduped: 0
            }
        );
        assert_eq!(plan.syncs() - syncs, 1, "a 100-row push is one fsync");
        let syncs = plan.syncs();
        assert_eq!(mws.store_relayed(&rows(100)).unwrap().len(), 100);
        assert_eq!(plan.syncs() - syncs, 1, "100 relayed rows are one fsync");
        assert_eq!(mws.message_count(), 200);
        // A failed fsync still answers 500, and nothing is acked.
        plan.fail_sync(plan.syncs());
        let pushed = rows(200);
        let mac = Hmac::<Sha256>::mac(&replica_key(b"secret"), &replica_push_bytes(&pushed));
        let reply = mws.dispatch(Pdu::ReplicaPush { rows: pushed, mac });
        assert!(matches!(reply, Pdu::Error { code: 500, .. }), "{reply:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_keyless_replica_pull_reads_nothing() {
        let mut dep = deployment();
        dep.register_device("m");
        dep.device("m").deposit("A", b"one").unwrap();
        let mws = dep.network().client("mws");
        for attribute in ["", "A"] {
            let pull = Pdu::ReplicaPull {
                attribute: attribute.into(),
                after: 0,
                max: 0,
                nonce: vec![1; 16],
                mac: vec![0; 32],
            };
            let reply = mws.call(&pull).unwrap();
            assert!(matches!(reply, Pdu::Error { code: 401, .. }), "{reply:?}");
        }
        let key = dep.replica_key();
        assert_eq!(
            mws_net::pull_rows(|req| mws.call(req), &key, "", 0, 10)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn replica_pull_pages_with_cursor() {
        let mut dep = deployment();
        dep.register_device("m");
        dep.register_client("rc", "pw", &["A"]);
        let mut meter = dep.device("m");
        for i in 0..5u8 {
            meter.deposit("A", &[i]).unwrap();
        }
        let mws = dep.network().client("mws");
        let key = dep.replica_key();
        let mut after = 0;
        let mut seen = Vec::new();
        loop {
            let pull = replica_pull_bytes("A", after, 2, b"nonce");
            let mac = Hmac::<Sha256>::mac(&key, &pull);
            let Pdu::ReplicaRows { rows, done, mac } = mws
                .call(&Pdu::ReplicaPull {
                    attribute: "A".into(),
                    after,
                    max: 2,
                    nonce: b"nonce".to_vec(),
                    mac,
                })
                .unwrap()
            else {
                panic!("expected replica rows");
            };
            let expect = Hmac::<Sha256>::mac(&key, &replica_rows_bytes(&pull, &rows, done));
            assert_eq!(mac, expect, "each page is bound to its request");
            assert!(rows.len() <= 2, "page size respected");
            if let Some(last) = rows.last() {
                after = last.seq + 1;
            }
            seen.extend(rows);
            if done {
                break;
            }
        }
        assert_eq!(seen.len(), 5);
        assert!(seen.windows(2).all(|w| w[0].seq < w[1].seq), "id order");
    }

    #[test]
    fn only_memory_warehouse_deposits_run_inline() {
        use mws_net::Service;
        let dir = std::env::temp_dir().join(format!("mws-inline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let warehouse = |shards: Vec<StorageKind>, auth: DeviceAuthVerifier| {
            let mws = MwsService::new_sharded(
                DeviceRegistry::new(),
                shards,
                StorageKind::Memory,
                StorageKind::Memory,
                b"secret",
                LogicalClock::new(),
                ReplayPolicy::standard(),
                1,
                auth,
            )
            .unwrap();
            mws.as_service()
        };
        let memory = || vec![StorageKind::Memory; 2];
        let deposit = Pdu::DepositRequest {
            sd_id: "m".into(),
            timestamp: 1,
            u: vec![1],
            algo: 0,
            sealed: vec![2],
            attribute: "A".into(),
            nonce: vec![3],
            mac: vec![4],
        };
        let batch = Pdu::DepositBatch {
            sd_id: "m".into(),
            items: Vec::new(),
        };
        let cheap = [deposit, batch, Pdu::HealthRequest];
        let pooled = [
            Pdu::RetrieveRequest {
                rc_id: "rc".into(),
                auth: vec![1],
                since: 0,
                limit: 8,
            },
            Pdu::ReplicaPull {
                attribute: "A".into(),
                after: 0,
                max: 8,
                nonce: vec![1],
                mac: vec![1],
            },
            Pdu::ReplicaPush {
                rows: Vec::new(),
                mac: vec![1],
            },
            Pdu::ReplicaEvict {
                attribute: "A".into(),
                epoch: 1,
                mac: vec![1],
            },
            Pdu::StatsRequest,
        ];

        let on_memory = warehouse(memory(), DeviceAuthVerifier::Mac);
        assert!(cheap.iter().all(|req| on_memory.runs_inline(req)));
        assert!(!pooled.iter().any(|req| on_memory.runs_inline(req)));

        let dep = deployment();
        let ibs = DeviceAuthVerifier::Ibs {
            ibe: dep.ibe().clone(),
            mpk: dep.master_public().clone(),
        };
        let on_file = warehouse(
            mws_store::shard_kinds(&StorageKind::File(dir.join("messages.wal")), 2),
            DeviceAuthVerifier::Mac,
        );
        let one_faulty = {
            let mut kinds = memory();
            kinds[1] = StorageKind::Memory.with_faults(FaultPlan::new());
            kinds
        };
        for (why, service) in [
            ("file shards fsync", on_file),
            (
                "faulty shards are chaos fixtures",
                warehouse(one_faulty, DeviceAuthVerifier::Mac),
            ),
            (
                "IBS deposits verify with pairings",
                warehouse(memory(), ibs),
            ),
        ] {
            let inline: Vec<_> = cheap
                .iter()
                .chain(&pooled)
                .filter(|r| service.runs_inline(r))
                .collect();
            assert!(inline.is_empty(), "{why}: {inline:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
