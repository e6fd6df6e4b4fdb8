//! Smart Device (Figure 3) — the depositing client.
//!
//! "This component uses the public parameters from the PKG and an attribute
//! describing an eligible receiver to generate a public key. … The SD will
//! also transmit a MAC generated using a symmetric key that it shared during
//! registration with MWS." (§V.B)
//!
//! Devices bootstrap their pairing parameters *from the PKG* over the wire
//! (`ParamsRequest`) — the §VIII fix for the prototype's "the smart device
//! currently generates the parameters as the PKG does, which is not helpful".

use crate::clock::LogicalClock;
use crate::errors::CoreError;
use crate::sda::{deposit_auth_bytes, deposit_mac, encode_ibs_signature, SD_IDENTITY_PREFIX};
use mws_crypto::{HmacDrbg, Rng};
use mws_ibe::{CipherAlgo, IbeSystem, MasterPublic, UserPrivateKey};
use mws_net::Client;
use mws_pairing::{PairingCtx, PairingParams};
use mws_wire::Pdu;

/// What a device holds to authenticate its deposits.
#[derive(Clone)]
pub enum DeviceCredential {
    /// `SecK_SD-MWS` for the paper's shared-key MAC (§V.B).
    MacKey(Vec<u8>),
    /// Cha–Cheon signing key `d_SD = s·Q("sd:"‖ID)` (§VIII future work).
    IbsKey(UserPrivateKey),
}

impl core::fmt::Debug for DeviceCredential {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DeviceCredential::MacKey(_) => f.write_str("DeviceCredential::MacKey(..)"),
            DeviceCredential::IbsKey(_) => f.write_str("DeviceCredential::IbsKey(..)"),
        }
    }
}

/// Length of the per-message nonce a device draws.
const DEPOSIT_NONCE_LEN: usize = 16;

/// Builds the associated data a deposit's seal binds end-to-end.
///
/// The attribute enters as a hash: the RC receives this AAD verbatim and
/// must not learn the attribute string (§V.D's AID indirection), but the
/// binding still detects any MWS-side swap of attribute, nonce, origin or
/// timestamp.
pub fn deposit_aad(attribute: &str, nonce: &[u8], sd_id: &str, timestamp: u64) -> Vec<u8> {
    use mws_crypto::{Digest, Sha256};
    let mut out = Vec::with_capacity(32 + nonce.len() + sd_id.len() + 8 + 12);
    let attr_digest = Sha256::digest(attribute.as_bytes());
    for field in [attr_digest.as_slice(), nonce, sd_id.as_bytes()] {
        out.extend_from_slice(&(field.len() as u32).to_le_bytes());
        out.extend_from_slice(field);
    }
    out.extend_from_slice(&timestamp.to_be_bytes());
    out
}

/// A provisioned smart device.
pub struct SmartDevice {
    sd_id: String,
    credential: DeviceCredential,
    ibe: IbeSystem,
    mpk: MasterPublic,
    algo: CipherAlgo,
    clock: LogicalClock,
    rng: HmacDrbg,
    mws: Client,
}

impl SmartDevice {
    /// Bootstraps a device: fetches system parameters and the master public
    /// key from the PKG, then binds to the MWS.
    pub fn bootstrap(
        sd_id: &str,
        credential: DeviceCredential,
        algo: CipherAlgo,
        clock: LogicalClock,
        rng_seed: u64,
        mws: Client,
        pkg: &Client,
    ) -> Result<Self, CoreError> {
        let reply = pkg.call(&Pdu::ParamsRequest)?;
        let (params, mpk_bytes) = match reply {
            Pdu::ParamsResponse {
                p,
                q,
                h,
                generator,
                mpk,
            } => (
                PairingParams {
                    p: mws_pairing::FpW::from_be_bytes(&p)
                        .map_err(|_| CoreError::Crypto("bad p"))?,
                    q: mws_pairing::FpW::from_be_bytes(&q)
                        .map_err(|_| CoreError::Crypto("bad q"))?,
                    h: mws_pairing::FpW::from_be_bytes(&h)
                        .map_err(|_| CoreError::Crypto("bad h"))?,
                    generator,
                },
                mpk,
            ),
            Pdu::Error { code, detail } => return Err(CoreError::from_wire_error(code, detail)),
            _ => return Err(CoreError::UnexpectedReply),
        };
        let ctx = PairingCtx::from_params(&params)?;
        let ibe = IbeSystem::new(ctx);
        let mpk = ibe.mpk_from_bytes(&mpk_bytes)?;
        // Precompute once at bootstrap: the generator fixed-base table + tape and
        // P_pub's prepared tape serve every subsequent deposit encryption.
        ibe.pairing().warm_caches();
        mpk.prepared(ibe.pairing());
        Ok(Self {
            sd_id: sd_id.to_string(),
            credential,
            ibe,
            mpk,
            algo,
            clock,
            rng: HmacDrbg::new(&rng_seed.to_be_bytes(), sd_id.as_bytes()),
            mws,
        })
    }

    /// The device identity.
    pub fn id(&self) -> &str {
        &self.sd_id
    }

    /// Composes a deposit PDU without sending it (used by benchmarks to
    /// isolate device-side compute and wire size).
    pub fn compose_deposit(&mut self, attribute: &str, payload: &[u8]) -> Pdu {
        let timestamp = self.clock.now();
        let mut nonce = [0u8; DEPOSIT_NONCE_LEN];
        self.rng.fill_bytes(&mut nonce);
        let aad = deposit_aad(attribute, &nonce, &self.sd_id, timestamp);
        let ct = self.ibe.encrypt_attr(
            &mut self.rng,
            &self.mpk,
            attribute,
            &nonce,
            self.algo,
            &aad,
            payload,
        );
        let u = self.ibe.pairing().field().point_to_bytes(&ct.u);
        let mac = match &self.credential {
            DeviceCredential::MacKey(key) => deposit_mac(
                key,
                &u,
                &ct.sealed,
                attribute,
                &nonce,
                &self.sd_id,
                timestamp,
            ),
            DeviceCredential::IbsKey(d_sd) => {
                let body =
                    deposit_auth_bytes(&u, &ct.sealed, attribute, &nonce, &self.sd_id, timestamp);
                let signing_id = format!("{SD_IDENTITY_PREFIX}{}", self.sd_id);
                let sig = self
                    .ibe
                    .ibs_sign(&mut self.rng, signing_id.as_bytes(), d_sd, &body);
                encode_ibs_signature(&self.ibe, &sig)
            }
        };
        Pdu::DepositRequest {
            sd_id: self.sd_id.clone(),
            timestamp,
            u,
            algo: self.algo.wire_id(),
            sealed: ct.sealed,
            attribute: attribute.to_string(),
            nonce: nonce.to_vec(),
            mac,
        }
    }

    /// Composes a [`Pdu::DepositBatch`] without sending it: one PDU
    /// carrying several independently encrypted and authenticated deposits,
    /// so the warehouse can group-commit rows landing on the same shard
    /// into a single WAL append + fsync (DESIGN.md §9).
    pub fn compose_deposit_batch(&mut self, deposits: &[(&str, &[u8])]) -> Pdu {
        let items = deposits
            .iter()
            .map(
                |(attribute, payload)| match self.compose_deposit(attribute, payload) {
                    Pdu::DepositRequest {
                        timestamp,
                        u,
                        algo,
                        sealed,
                        attribute,
                        nonce,
                        mac,
                        ..
                    } => mws_wire::DepositItem {
                        timestamp,
                        u,
                        algo,
                        sealed,
                        attribute,
                        nonce,
                        mac,
                    },
                    _ => unreachable!("compose_deposit returns DepositRequest"),
                },
            )
            .collect();
        Pdu::DepositBatch {
            sd_id: self.sd_id.clone(),
            items,
        }
    }

    /// Encrypts and deposits several messages in one round trip. Returns
    /// the per-item outcomes in order; an item is only `STORED` /
    /// `DUPLICATE` once durable on its shard, so callers may treat those
    /// statuses exactly like a single deposit's ack.
    pub fn deposit_batch(
        &mut self,
        deposits: &[(&str, &[u8])],
    ) -> Result<Vec<mws_wire::DepositOutcome>, CoreError> {
        let pdu = self.compose_deposit_batch(deposits);
        let _span = mws_obs::trace::enter(mws_obs::trace::mint());
        match self.mws.call(&pdu)? {
            Pdu::DepositBatchAck { results } => {
                if results.len() == deposits.len() {
                    Ok(results)
                } else {
                    Err(CoreError::UnexpectedReply)
                }
            }
            Pdu::Error { code, detail } => Err(CoreError::from_wire_error(code, detail)),
            _ => Err(CoreError::UnexpectedReply),
        }
    }

    /// Encrypts and deposits one message, returning the warehouse id.
    pub fn deposit(&mut self, attribute: &str, payload: &[u8]) -> Result<u64, CoreError> {
        let pdu = self.compose_deposit(attribute, payload);
        // The deposit originates here: mint a fresh trace so the request
        // can be followed through gatekeeper, MMS, store and audit trail.
        let _span = mws_obs::trace::enter(mws_obs::trace::mint());
        match self.mws.call(&pdu)? {
            Pdu::DepositAck { message_id } => Ok(message_id),
            Pdu::Error { code, detail } => Err(CoreError::from_wire_error(code, detail)),
            _ => Err(CoreError::UnexpectedReply),
        }
    }

    /// Deposits one message reliably over a lossy transport: composes the
    /// PDU once (fixed nonce) and retransmits the identical frame up to
    /// `attempts` times until the warehouse acknowledges.
    ///
    /// Returns `Ok(Some(id))` on a fresh or deduplicated ack, and
    /// `Ok(None)` when the warehouse answers 409 Replay — which, given the
    /// MWS's store-then-record ordering, means the deposit is already
    /// warehoused but the original ack (with its id) was lost in transit.
    /// Either way the message is durably stored exactly once.
    pub fn deposit_reliable(
        &mut self,
        attribute: &str,
        payload: &[u8],
        attempts: u32,
    ) -> Result<Option<u64>, CoreError> {
        let pdu = self.compose_deposit(attribute, payload);
        // One trace for the whole reliable exchange: every retransmission
        // is a new span under the same trace id.
        let _span = mws_obs::trace::enter(mws_obs::trace::mint());
        let mut last = CoreError::UnexpectedReply;
        for _ in 0..attempts.max(1) {
            match self.mws.call(&pdu) {
                Ok(Pdu::DepositAck { message_id }) => return Ok(Some(message_id)),
                Ok(Pdu::Error { code, detail }) => {
                    let err = CoreError::from_wire_error(code, detail);
                    match err {
                        CoreError::Remote {
                            code: crate::ErrorCode::Replay,
                            ..
                        } => return Ok(None),
                        // 500 (e.g. a failed store write or fsync) is
                        // retryable: the MWS has not recorded the nonce.
                        CoreError::Remote {
                            code: crate::ErrorCode::Internal,
                            ..
                        } => last = err,
                        other => return Err(other),
                    }
                }
                Ok(_) => return Err(CoreError::UnexpectedReply),
                Err(e) => match e {
                    // Transient transport faults: retry the same frame.
                    mws_net::NetError::Dropped
                    | mws_net::NetError::Timeout
                    | mws_net::NetError::Io(_)
                    | mws_net::NetError::CircuitOpen => last = CoreError::Net(e),
                    other => return Err(CoreError::Net(other)),
                },
            }
        }
        Err(last)
    }
}
