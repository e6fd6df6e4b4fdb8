//! Authenticated, encrypted transport sessions ("secure channels").
//!
//! The envelope layer ([`crate::envelope`]) moves plaintext frames; this
//! module wraps those frames in a mutually authenticated session so that
//! PDU types, identities, attributes, and membership orders are no longer
//! observable or spoofable on the wire. The design is the identity-based
//! analog of mTLS, specified in full in `DESIGN.md` §12:
//!
//! 1. **Handshake** — a SIGMA-style three-message exchange
//!    (`HELLO → ACCEPT → FINISH`). Each side contributes a fresh ephemeral
//!    public value and a 32-byte nonce, and proves its identity by signing
//!    the running transcript hash (identity-based signatures in
//!    production, HMAC under a pre-shared key in tests — see
//!    [`ChannelAuth`]). The shared secret is bound to the transcript so
//!    records cannot be spliced between sessions.
//! 2. **Key schedule** — HKDF-Extract(salt = transcript hash, ikm = DH
//!    secret), then HKDF-Expand into independent client→server and
//!    server→client direction secrets, plus a key-confirmation key.
//! 3. **Record layer** — every plaintext envelope frame rides in exactly
//!    one AES-128-GCM record (`0x03 ‖ rtype ‖ len(4 LE) ‖ sealed`). The
//!    GCM nonce is the direction IV XOR the record sequence number, the
//!    additional data binds record type, key generation, and sequence,
//!    and each direction ratchets to a fresh key every
//!    [`SessionConfig::rekey_every`] records without any wire message.
//! 4. **Close** — a `CLOSE` record is an authenticated end-of-session
//!    marker; a bare TCP FIN remains distinguishable as truncation.
//!
//! Everything here is sans-io: the handshake driver ([`Handshaker`]) takes
//! raw bytes in arbitrary fragments and hands back whatever it wants
//! written, [`RecordDecoder`] splits records out of the same kind of
//! fragments, and the session halves seal and open them. No type here
//! touches a socket; `mws-server` owns the one byte-stream layer that
//! drives them, for the client and the server end of a connection alike.

use crate::{WireError, WireReader, WireWriter, MAX_BODY};
use mws_crypto::{
    ct_eq, hkdf_expand, hkdf_extract, Aes128, Digest, Gcm, Hmac, Sha256, GCM_TAG_LEN,
};

/// Envelope version byte that marks a secure record rather than a
/// plaintext envelope. Sharing the `version ‖ type ‖ len(4 LE)` header
/// shape with v1/v2 keeps every frame splitter in the tree (stream
/// decoder, chaos proxy) able to delimit secure traffic, while plaintext
/// decoders reject it cleanly as [`WireError::BadVersion`].
pub const WIRE_VERSION_SECURE: u8 = 3;

/// Secure record types (second header byte).
mod record {
    /// Client handshake opener: protocol version, identity, nonce,
    /// ephemeral public value.
    pub(super) const HELLO: u8 = 1;
    /// Server reply: identity, nonce, ephemeral public value, transcript
    /// signature.
    pub(super) const ACCEPT: u8 = 2;
    /// Client transcript signature + key-confirmation MAC.
    pub(super) const FINISH: u8 = 3;
    /// One sealed envelope frame.
    pub(super) const DATA: u8 = 4;
    /// Authenticated end-of-session marker (sealed, empty plaintext).
    pub(super) const CLOSE: u8 = 5;
}

/// Handshake protocol version inside `HELLO`/`ACCEPT`.
const SECURE_PROTO_V1: u8 = 1;

/// Secure record header: `version ‖ rtype ‖ len(4 LE)`.
pub const RECORD_HEADER: usize = 6;

/// Upper bound on a handshake record payload — identities and group
/// elements are small; anything larger is hostile.
const MAX_HANDSHAKE_PAYLOAD: usize = 16 << 10;

/// Upper bound on a data record payload: a max envelope plus GCM tag.
const MAX_RECORD_PAYLOAD: usize = MAX_BODY + 64 + GCM_TAG_LEN;

/// Default number of records a direction key seals before ratcheting.
const DEFAULT_REKEY_EVERY: u64 = 1 << 20;

/// Errors produced by the secure channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecureError {
    /// The peer spoke plaintext envelopes (or garbage) where a secure
    /// record was required — the downgrade-detection signal.
    PlaintextPeer(u8),
    /// A record or handshake field failed structural decoding.
    Malformed(&'static str),
    /// A record declared a length beyond the layer's bounds.
    Oversized(usize),
    /// The handshake saw a record type it did not expect in its state.
    UnexpectedRecord(u8),
    /// Unsupported secure protocol version in `HELLO`/`ACCEPT`.
    BadProtoVersion(u8),
    /// The peer's transcript signature did not verify.
    BadSignature,
    /// The peer's key-confirmation MAC did not verify.
    BadConfirm,
    /// The authenticated peer is not the identity this side required.
    IdentityMismatch {
        /// Identity the local endpoint insisted on.
        expected: String,
        /// Identity the peer actually proved.
        actual: String,
    },
    /// AEAD open failed: tampered, replayed, or reordered record.
    Aead,
    /// Key agreement failed (e.g. peer ephemeral not on the curve).
    Agreement,
    /// The session was already closed by a `CLOSE` record.
    Closed,
}

impl core::fmt::Display for SecureError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SecureError::PlaintextPeer(v) => {
                write!(
                    f,
                    "peer is not speaking the secure protocol (version byte {v})"
                )
            }
            SecureError::Malformed(what) => write!(f, "malformed secure record: {what}"),
            SecureError::Oversized(n) => write!(f, "secure record length {n} out of bounds"),
            SecureError::UnexpectedRecord(t) => write!(f, "unexpected record type {t}"),
            SecureError::BadProtoVersion(v) => write!(f, "unsupported secure protocol {v}"),
            SecureError::BadSignature => write!(f, "handshake signature verification failed"),
            SecureError::BadConfirm => write!(f, "key confirmation failed"),
            SecureError::IdentityMismatch { expected, actual } => {
                write!(
                    f,
                    "peer identity mismatch: expected {expected:?}, got {actual:?}"
                )
            }
            SecureError::Aead => write!(f, "record authentication failed"),
            SecureError::Agreement => write!(f, "key agreement failed"),
            SecureError::Closed => write!(f, "session closed"),
        }
    }
}

impl std::error::Error for SecureError {}

impl From<WireError> for SecureError {
    fn from(_: WireError) -> Self {
        SecureError::Malformed("handshake field")
    }
}

/// Endpoint credentials: how a channel proves who it is and agrees on a
/// shared secret. `mws-server` implements this with identity-based
/// signatures over the pairing group; [`PskAuth`] is the zero-setup
/// implementation for tests and examples. Keeping this a trait keeps
/// `mws-wire` free of the pairing/IBE crates.
pub trait ChannelAuth: Send + Sync {
    /// The identity string this endpoint will claim and prove.
    fn identity(&self) -> &str;
    /// Generates a fresh ephemeral keypair `(secret, public)` as opaque
    /// byte strings. The public half goes on the wire.
    fn eph_keypair(&self) -> (Vec<u8>, Vec<u8>);
    /// Combines the local ephemeral secret with the peer's public value
    /// into the shared secret fed to the key schedule.
    fn agree(&self, eph_secret: &[u8], peer_public: &[u8]) -> Result<Vec<u8>, SecureError>;
    /// Signs a transcript hash under this endpoint's identity key.
    fn sign(&self, transcript_hash: &[u8]) -> Vec<u8>;
    /// Verifies `sig` over `transcript_hash` under `peer_identity`.
    fn verify(
        &self,
        peer_identity: &str,
        transcript_hash: &[u8],
        sig: &[u8],
    ) -> Result<(), SecureError>;
}

/// Pre-shared-key [`ChannelAuth`]: key agreement and transcript
/// signatures are HMACs under one shared secret. Authentication is only
/// as strong as key possession (any holder can claim any identity), which
/// is exactly what loopback tests and doctests need — production
/// deployments use the IBS-backed implementation in `mws-server`.
pub struct PskAuth {
    psk: Vec<u8>,
    identity: String,
    seed: u64,
    counter: std::sync::atomic::AtomicU64,
}

impl PskAuth {
    /// Builds a PSK endpoint. `seed` decorrelates the ephemeral values of
    /// endpoints sharing one PSK.
    pub fn new(psk: &[u8], identity: &str, seed: u64) -> Self {
        Self {
            psk: psk.to_vec(),
            identity: identity.to_string(),
            seed,
            counter: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl ChannelAuth for PskAuth {
    fn identity(&self) -> &str {
        &self.identity
    }

    fn eph_keypair(&self) -> (Vec<u8>, Vec<u8>) {
        let n = self
            .counter
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let secret = Hmac::<Sha256>::mac_parts(
            &self.psk,
            &[
                b"mws-sec psk eph",
                self.identity.as_bytes(),
                &self.seed.to_be_bytes(),
                &n.to_be_bytes(),
            ],
        );
        let public = Hmac::<Sha256>::mac(&secret, b"mws-sec psk pub");
        (secret, public)
    }

    fn agree(&self, eph_secret: &[u8], peer_public: &[u8]) -> Result<Vec<u8>, SecureError> {
        // Commutative in the two public values so both sides derive the
        // same secret: HMAC(psk, min ‖ max).
        let own_public = Hmac::<Sha256>::mac(eph_secret, b"mws-sec psk pub");
        let (lo, hi) = if own_public.as_slice() <= peer_public {
            (own_public.as_slice(), peer_public)
        } else {
            (peer_public, own_public.as_slice())
        };
        Ok(Hmac::<Sha256>::mac_parts(
            &self.psk,
            &[b"mws-sec psk dh", lo, hi],
        ))
    }

    fn sign(&self, transcript_hash: &[u8]) -> Vec<u8> {
        Hmac::<Sha256>::mac_parts(
            &self.psk,
            &[
                b"mws-sec psk sig",
                self.identity.as_bytes(),
                transcript_hash,
            ],
        )
    }

    fn verify(
        &self,
        peer_identity: &str,
        transcript_hash: &[u8],
        sig: &[u8],
    ) -> Result<(), SecureError> {
        let expect = Hmac::<Sha256>::mac_parts(
            &self.psk,
            &[
                b"mws-sec psk sig",
                peer_identity.as_bytes(),
                transcript_hash,
            ],
        );
        if ct_eq(&expect, sig) {
            Ok(())
        } else {
            Err(SecureError::BadSignature)
        }
    }
}

/// Tunables for an established session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Records a direction seals under one key before ratcheting to the
    /// next generation. Both peers count independently; TCP ordering
    /// keeps them in lockstep.
    pub rekey_every: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            rekey_every: DEFAULT_REKEY_EVERY,
        }
    }
}

/// Appends one secure record, `0x03 ‖ rtype ‖ len(4 LE) ‖ payload`, to
/// `out`.
fn encode_record(rtype: u8, payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&record_header(rtype, payload.len()));
    out.extend_from_slice(payload);
}

/// A record header, `0x03 ‖ rtype ‖ len(4 LE)`.
fn record_header(rtype: u8, payload_len: usize) -> [u8; RECORD_HEADER] {
    let [l0, l1, l2, l3] = (payload_len as u32).to_le_bytes();
    [WIRE_VERSION_SECURE, rtype, l0, l1, l2, l3]
}

/// Incremental secure-record splitter, the record-layer analog of
/// [`crate::StreamDecoder`]: feed arbitrary byte fragments, pull complete
/// `(rtype, payload)` records.
#[derive(Debug, Default)]
pub struct RecordDecoder {
    buf: Vec<u8>,
    pos: usize,
    handshake_only: bool,
}

impl RecordDecoder {
    /// Decoder for an established session (data-sized records allowed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Decoder restricted to handshake-sized records — bounds allocation
    /// before the peer has authenticated.
    pub fn handshake() -> Self {
        Self {
            handshake_only: true,
            ..Self::default()
        }
    }

    /// Appends raw bytes from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Same amortized-compaction policy as the stream decoder.
        crate::stream::compact(&mut self.buf, &mut self.pos);
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as records.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Drains any buffered-but-unparsed bytes (handshake → data phase
    /// handoff between decoders).
    fn take_buffered(&mut self) -> Vec<u8> {
        let rest = self.buf.split_off(self.pos);
        *self = Self::default();
        rest
    }

    /// Pulls the next complete record, `Ok(None)` if more bytes are
    /// needed. The payload is lent from the decoder's buffer (valid until
    /// the next [`RecordDecoder::feed`]): opening a record copies it once,
    /// into the plaintext. The version byte is validated here, so a
    /// plaintext peer is reported as [`SecureError::PlaintextPeer`] before
    /// any length is trusted.
    pub fn next_record(&mut self) -> Result<Option<(u8, &[u8])>, SecureError> {
        let avail = &self.buf[self.pos..];
        match avail.first() {
            None => return Ok(None),
            Some(&WIRE_VERSION_SECURE) => {}
            Some(&other) => return Err(SecureError::PlaintextPeer(other)),
        }
        let [_, rtype, l0, l1, l2, l3, ..] = *avail else {
            return Ok(None);
        };
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        let max = if self.handshake_only {
            MAX_HANDSHAKE_PAYLOAD
        } else {
            MAX_RECORD_PAYLOAD
        };
        if len > max {
            return Err(SecureError::Oversized(len));
        }
        if avail.len() < RECORD_HEADER + len {
            return Ok(None);
        }
        let start = self.pos + RECORD_HEADER;
        self.pos = start + len;
        Ok(Some((rtype, &self.buf[start..start + len])))
    }
}

/// Running SHA-256 transcript over exact handshake payload bytes.
struct Transcript {
    h: Sha256,
}

impl Transcript {
    fn new() -> Self {
        let mut h = Sha256::new();
        h.update(b"mws-sec v1 transcript");
        Self { h }
    }

    fn absorb(&mut self, label: &[u8], payload: &[u8]) {
        self.h.update(label);
        self.h.update(&(payload.len() as u64).to_be_bytes());
        self.h.update(payload);
    }

    fn hash(&self, label: &[u8]) -> Vec<u8> {
        let mut h = self.h.clone();
        h.update(label);
        h.finalize()
    }
}

/// One direction's record crypto: the AES-128-GCM context (key schedule
/// and hash subkey `H`) and IV of the current key generation, derived from
/// a ratcheting direction secret, with an implicit sequence number.
struct DirectionState {
    secret: Vec<u8>,
    gcm: Gcm<Aes128>,
    iv: [u8; 12],
    seq: u64,
    generation: u32,
    rekey_every: u64,
    rekeys: u64,
}

impl DirectionState {
    fn new(secret: Vec<u8>, rekey_every: u64) -> Self {
        let (gcm, iv) = Self::derive(&secret);
        Self {
            secret,
            gcm,
            iv,
            seq: 0,
            generation: 0,
            rekey_every: rekey_every.max(1),
            rekeys: 0,
        }
    }

    fn derive(secret: &[u8]) -> (Gcm<Aes128>, [u8; 12]) {
        let key = hkdf_expand::<Sha256>(secret, b"mws-sec key", 16);
        let ivv = hkdf_expand::<Sha256>(secret, b"mws-sec iv", 12);
        // Infallible: `hkdf_expand` returns the 16 key bytes asked for, and
        // AES blocks are the 128 bits GCM needs.
        let gcm = Gcm::new(Aes128::new(&key).expect("16-byte key")).expect("128-bit block");
        let mut iv = [0u8; 12];
        iv.copy_from_slice(&ivv);
        (gcm, iv)
    }

    fn nonce(&self) -> [u8; 12] {
        let mut n = self.iv;
        let seq = self.seq.to_be_bytes();
        for (b, s) in n[4..].iter_mut().zip(seq.iter()) {
            *b ^= s;
        }
        n
    }

    fn aad(&self, rtype: u8) -> [u8; 13] {
        let mut aad = [0u8; 13];
        aad[0] = rtype;
        aad[1..5].copy_from_slice(&self.generation.to_be_bytes());
        aad[5..13].copy_from_slice(&self.seq.to_be_bytes());
        aad
    }

    /// Advances seq, ratcheting the key after `rekey_every` records. The
    /// ratchet is one-way (HMAC of the old secret), so a compromised
    /// current key does not expose earlier generations.
    fn advance(&mut self) {
        self.seq += 1;
        if self.seq >= self.rekey_every {
            self.secret = Hmac::<Sha256>::mac(&self.secret, b"mws-sec rekey");
            // The old generation's key schedule and `H` are dropped here.
            (self.gcm, self.iv) = Self::derive(&self.secret);
            self.seq = 0;
            self.generation = self.generation.wrapping_add(1);
            self.rekeys += 1;
            mws_obs::registry()
                .counter("mws_wire_secure_rekeys_total")
                .inc();
        }
    }

    /// Appends one sealed record to `out`, in place: the header, then the
    /// plaintext `write` appends, encrypted where it lies, then the tag;
    /// the header's length is filled in last.
    fn seal(&mut self, rtype: u8, out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
        let start = out.len();
        out.extend_from_slice(&record_header(rtype, 0));
        write(out);
        let payload = start + RECORD_HEADER;
        // Infallible: the nonce is 12 bytes, an IV length GCM always takes.
        let tag = self
            .gcm
            .seal_in_place(&self.nonce(), &self.aad(rtype), &mut out[payload..])
            .expect("12-byte nonce");
        out.extend_from_slice(&tag);
        let header = record_header(rtype, out.len() - payload);
        out[start..payload].copy_from_slice(&header);
        self.advance();
    }

    /// Opens a record payload into one fresh buffer, the plaintext.
    fn open(&mut self, rtype: u8, payload: &[u8]) -> Result<Vec<u8>, SecureError> {
        let pt = self
            .gcm
            .open(&self.nonce(), &self.aad(rtype), payload)
            .map_err(|_| SecureError::Aead)?;
        self.advance();
        Ok(pt)
    }
}

/// Sending half of an established session, owned apart from the
/// [`RecvHalf`].
pub struct SendHalf {
    dir: DirectionState,
    closed: bool,
}

impl SendHalf {
    /// Appends one `DATA` record to `out`, sealing in place the envelope
    /// frame that `write` appends: nothing is copied, and a buffer with
    /// room takes the record without allocating. A closed half writes
    /// nothing.
    pub fn seal_into(
        &mut self,
        out: &mut Vec<u8>,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), SecureError> {
        if self.closed {
            return Err(SecureError::Closed);
        }
        self.dir.seal(record::DATA, out, write);
        Ok(())
    }

    /// Produces the authenticated `CLOSE` record and marks the half shut.
    pub fn seal_close(&mut self) -> Result<Vec<u8>, SecureError> {
        if self.closed {
            return Err(SecureError::Closed);
        }
        self.closed = true;
        let mut record = Vec::with_capacity(RECORD_HEADER + GCM_TAG_LEN);
        self.dir.seal(record::CLOSE, &mut record, |_| {});
        Ok(record)
    }
}

/// What [`RecvHalf::open_record`] yielded.
#[derive(Debug, PartialEq, Eq)]
pub enum Opened {
    /// One plaintext envelope frame.
    Frame(Vec<u8>),
    /// The peer ended the session cleanly.
    Close,
}

/// Receiving half of an established session.
pub struct RecvHalf {
    dir: DirectionState,
    closed: bool,
}

impl RecvHalf {
    /// Opens one record pulled from a [`RecordDecoder`].
    pub fn open_record(&mut self, rtype: u8, payload: &[u8]) -> Result<Opened, SecureError> {
        if self.closed {
            return Err(SecureError::Closed);
        }
        match rtype {
            record::DATA => Ok(Opened::Frame(self.dir.open(rtype, payload)?)),
            record::CLOSE => {
                let pt = self.dir.open(rtype, payload)?;
                if !pt.is_empty() {
                    return Err(SecureError::Malformed("close payload"));
                }
                self.closed = true;
                Ok(Opened::Close)
            }
            other => Err(SecureError::UnexpectedRecord(other)),
        }
    }
}

/// An established secure session: independent send/receive directions.
pub struct SecureSession {
    /// Sealing direction.
    pub send: SendHalf,
    /// Opening direction.
    pub recv: RecvHalf,
}

impl SecureSession {
    fn derive(
        dh: &[u8],
        transcript_hash: &[u8],
        is_client: bool,
        cfg: &SessionConfig,
    ) -> (Self, Vec<u8>) {
        let prk = hkdf_extract::<Sha256>(transcript_hash, dh);
        let c2s = hkdf_expand::<Sha256>(&prk, b"mws-sec c2s", 32);
        let s2c = hkdf_expand::<Sha256>(&prk, b"mws-sec s2c", 32);
        let confirm = hkdf_expand::<Sha256>(&prk, b"mws-sec confirm", 32);
        let (send, recv) = if is_client { (c2s, s2c) } else { (s2c, c2s) };
        (
            Self {
                send: SendHalf {
                    dir: DirectionState::new(send, cfg.rekey_every),
                    closed: false,
                },
                recv: RecvHalf {
                    dir: DirectionState::new(recv, cfg.rekey_every),
                    closed: false,
                },
            },
            confirm,
        )
    }

    /// Splits into independently owned halves.
    pub fn into_halves(self) -> (SendHalf, RecvHalf) {
        (self.send, self.recv)
    }

    /// Seals a copy of one envelope frame into a fresh `DATA` record, in
    /// one allocation (a wrapper over [`SendHalf::seal_into`]).
    pub fn seal_frame(&mut self, frame: &[u8]) -> Result<Vec<u8>, SecureError> {
        let mut record = Vec::with_capacity(RECORD_HEADER + frame.len() + GCM_TAG_LEN);
        self.send
            .seal_into(&mut record, |out| out.extend_from_slice(frame))?;
        Ok(record)
    }

    /// Opens one record (convenience over [`RecvHalf`]).
    pub fn open_record(&mut self, rtype: u8, payload: &[u8]) -> Result<Opened, SecureError> {
        self.recv.open_record(rtype, payload)
    }
}

/// Outcome of a completed handshake.
pub struct Established {
    /// The keyed session.
    pub session: SecureSession,
    /// The peer identity that was proved (not merely claimed).
    pub peer: String,
    /// Bytes that arrived after the final handshake record — already
    /// record-framed data the caller must feed to its data-phase decoder.
    pub leftover: Vec<u8>,
}

impl core::fmt::Debug for Established {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Session keys deliberately stay out of Debug output.
        f.debug_struct("Established")
            .field("peer", &self.peer)
            .field("leftover", &self.leftover.len())
            .finish()
    }
}

#[allow(clippy::large_enum_variant)] // one per in-flight handshake; consumed on completion
enum HsState {
    /// Client: HELLO sent, waiting for ACCEPT.
    ClientHello { eph_secret: Vec<u8> },
    /// Server: waiting for HELLO.
    ServerIdle,
    /// Server: ACCEPT sent, waiting for FINISH.
    ServerAccept {
        client_identity: String,
        confirm_key: Vec<u8>,
        session: SecureSession,
    },
    /// Terminal (success or failure).
    Done,
}

/// Sans-io handshake driver: [`Handshaker::feed`] consumes transport
/// bytes, [`Handshaker::take_output`] yields bytes to write. Completion
/// returns [`Established`]. Fragmentation-agnostic by construction — the
/// proptests feed one byte at a time.
pub struct Handshaker {
    auth: std::sync::Arc<dyn ChannelAuth>,
    expect_peer: Option<String>,
    cfg: SessionConfig,
    records: RecordDecoder,
    transcript: Transcript,
    out: Vec<u8>,
    state: HsState,
}

impl Handshaker {
    /// Client-side handshake. `expect_peer` pins the identity the server
    /// must prove; `None` accepts any identity that verifies (the proved
    /// identity is still reported in [`Established::peer`]).
    pub fn client(
        auth: std::sync::Arc<dyn ChannelAuth>,
        expect_peer: Option<String>,
        cfg: SessionConfig,
    ) -> Self {
        let (eph_secret, eph_public) = auth.eph_keypair();
        let nonce = eph_nonce(&*auth, &eph_public);
        let mut hello = Vec::new();
        WireWriter::new(&mut hello)
            .u8(SECURE_PROTO_V1)
            .string(auth.identity())
            .bytes(&nonce)
            .bytes(&eph_public);
        let mut transcript = Transcript::new();
        transcript.absorb(b"hello", &hello);
        let mut out = Vec::new();
        encode_record(record::HELLO, &hello, &mut out);
        Self {
            auth,
            expect_peer,
            cfg,
            records: RecordDecoder::handshake(),
            transcript,
            out,
            state: HsState::ClientHello { eph_secret },
        }
    }

    /// Server-side handshake (speaks second).
    pub fn server(auth: std::sync::Arc<dyn ChannelAuth>, cfg: SessionConfig) -> Self {
        Self {
            auth,
            expect_peer: None,
            cfg,
            records: RecordDecoder::handshake(),
            transcript: Transcript::new(),
            out: Vec::new(),
            state: HsState::ServerIdle,
        }
    }

    /// Bytes the handshake wants written to the transport. Call after
    /// construction and after every [`Handshaker::feed`].
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    /// Consumes transport bytes. Returns `Ok(Some(established))` once the
    /// handshake completes on this side. Any error is terminal for the
    /// connection.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Option<Established>, SecureError> {
        self.records.feed(bytes);
        loop {
            // A completed handshake stops parsing: remaining buffered
            // bytes are data records, returned via `leftover`.
            if matches!(self.state, HsState::Done) {
                return Err(SecureError::Closed);
            }
            // Handshake records are copied out: `step` needs the whole
            // driver, decoder included.
            let Some((rtype, payload)) = self.records.next_record()? else {
                return Ok(None);
            };
            let payload = payload.to_vec();
            if let Some(est) = self.step(rtype, &payload)? {
                return Ok(Some(est));
            }
        }
    }

    fn step(&mut self, rtype: u8, payload: &[u8]) -> Result<Option<Established>, SecureError> {
        match std::mem::replace(&mut self.state, HsState::Done) {
            HsState::ClientHello { eph_secret } => {
                if rtype != record::ACCEPT {
                    return Err(SecureError::UnexpectedRecord(rtype));
                }
                // ACCEPT: core (signed fields) ‖ signature.
                let mut r = WireReader::new(payload);
                let core = r.bytes()?;
                let sig = r.bytes()?;
                r.finish()?;
                let mut cr = WireReader::new(&core);
                let proto = cr.u8()?;
                if proto != SECURE_PROTO_V1 {
                    return Err(SecureError::BadProtoVersion(proto));
                }
                let server_id = cr.string()?;
                let _nonce = cr.bytes()?;
                let server_eph = cr.bytes()?;
                cr.finish()?;
                self.transcript.absorb(b"accept-core", &core);
                let th_s = self.transcript.hash(b"server-auth");
                self.auth.verify(&server_id, &th_s, &sig)?;
                if let Some(expected) = &self.expect_peer {
                    if *expected != server_id {
                        return Err(SecureError::IdentityMismatch {
                            expected: expected.clone(),
                            actual: server_id,
                        });
                    }
                }
                self.transcript.absorb(b"accept-sig", &sig);
                let dh = self.auth.agree(&eph_secret, &server_eph)?;
                let th_c = self.transcript.hash(b"client-auth");
                let sig_c = self.auth.sign(&th_c);
                let th_keys = self.transcript.hash(b"keys");
                let (session, confirm_key) = SecureSession::derive(&dh, &th_keys, true, &self.cfg);
                let confirm = Hmac::<Sha256>::mac(&confirm_key, &th_c);
                let mut finish = Vec::new();
                WireWriter::new(&mut finish).bytes(&sig_c).bytes(&confirm);
                encode_record(record::FINISH, &finish, &mut self.out);
                Ok(Some(Established {
                    session,
                    peer: server_id,
                    leftover: self.records.take_buffered(),
                }))
            }
            HsState::ServerIdle => {
                if rtype != record::HELLO {
                    return Err(SecureError::UnexpectedRecord(rtype));
                }
                let mut r = WireReader::new(payload);
                let proto = r.u8()?;
                if proto != SECURE_PROTO_V1 {
                    return Err(SecureError::BadProtoVersion(proto));
                }
                let client_id = r.string()?;
                let _nonce = r.bytes()?;
                let client_eph = r.bytes()?;
                r.finish()?;
                self.transcript.absorb(b"hello", payload);
                let (eph_secret, eph_public) = self.auth.eph_keypair();
                let nonce = eph_nonce(&*self.auth, &eph_public);
                let mut core = Vec::new();
                WireWriter::new(&mut core)
                    .u8(SECURE_PROTO_V1)
                    .string(self.auth.identity())
                    .bytes(&nonce)
                    .bytes(&eph_public);
                self.transcript.absorb(b"accept-core", &core);
                let th_s = self.transcript.hash(b"server-auth");
                let sig = self.auth.sign(&th_s);
                self.transcript.absorb(b"accept-sig", &sig);
                let mut accept = Vec::new();
                WireWriter::new(&mut accept).bytes(&core).bytes(&sig);
                encode_record(record::ACCEPT, &accept, &mut self.out);
                let dh = self.auth.agree(&eph_secret, &client_eph)?;
                let th_keys = self.transcript.hash(b"keys");
                let (session, confirm_key) = SecureSession::derive(&dh, &th_keys, false, &self.cfg);
                self.state = HsState::ServerAccept {
                    client_identity: client_id,
                    confirm_key,
                    session,
                };
                Ok(None)
            }
            HsState::ServerAccept {
                client_identity,
                confirm_key,
                session,
            } => {
                if rtype != record::FINISH {
                    return Err(SecureError::UnexpectedRecord(rtype));
                }
                let mut r = WireReader::new(payload);
                let sig_c = r.bytes()?;
                let confirm = r.bytes()?;
                r.finish()?;
                let th_c = self.transcript.hash(b"client-auth");
                self.auth.verify(&client_identity, &th_c, &sig_c)?;
                let expect = Hmac::<Sha256>::mac(&confirm_key, &th_c);
                if !ct_eq(&expect, &confirm) {
                    return Err(SecureError::BadConfirm);
                }
                Ok(Some(Established {
                    session,
                    peer: client_identity,
                    leftover: self.records.take_buffered(),
                }))
            }
            HsState::Done => Err(SecureError::Closed),
        }
    }
}

/// Derives the 32-byte handshake nonce. Freshness rides on the ephemeral
/// value (new per session); hashing it through the identity gives a
/// distinct transcript component without a second RNG draw.
fn eph_nonce(auth: &dyn ChannelAuth, eph_public: &[u8]) -> Vec<u8> {
    Sha256::digest_parts(&[b"mws-sec nonce", auth.identity().as_bytes(), eph_public])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn pair() -> (Arc<dyn ChannelAuth>, Arc<dyn ChannelAuth>) {
        (
            Arc::new(PskAuth::new(b"test-psk", "client", 1)),
            Arc::new(PskAuth::new(b"test-psk", "server", 2)),
        )
    }

    /// Runs a full sans-io handshake, returning both established ends.
    fn loopback(
        client_auth: Arc<dyn ChannelAuth>,
        server_auth: Arc<dyn ChannelAuth>,
        expect: Option<String>,
    ) -> Result<(Established, Established), SecureError> {
        let cfg = SessionConfig::default();
        let mut c = Handshaker::client(client_auth, expect, cfg.clone());
        let mut s = Handshaker::server(server_auth, cfg);
        let hello = c.take_output();
        assert!(s.feed(&hello)?.is_none());
        let accept = s.take_output();
        let est_c = c.feed(&accept)?.expect("client done");
        let finish = c.take_output();
        let est_s = s.feed(&finish)?.expect("server done");
        Ok((est_c, est_s))
    }

    #[test]
    fn handshake_and_roundtrip() {
        let (ca, sa) = pair();
        let (mut c, mut s) = loopback(ca, sa, Some("server".into())).unwrap();
        assert_eq!(c.peer, "server");
        assert_eq!(s.peer, "client");
        assert!(c.leftover.is_empty() && s.leftover.is_empty());

        // client → server
        let rec = c.session.seal_frame(b"deposit").unwrap();
        let mut rd = RecordDecoder::new();
        rd.feed(&rec);
        let (rt, pl) = rd.next_record().unwrap().unwrap();
        assert_eq!(
            s.session.open_record(rt, pl).unwrap(),
            Opened::Frame(b"deposit".to_vec())
        );

        // server → client
        let rec = s.session.seal_frame(b"ack").unwrap();
        let mut rd = RecordDecoder::new();
        rd.feed(&rec);
        let (rt, pl) = rd.next_record().unwrap().unwrap();
        assert_eq!(
            c.session.open_record(rt, pl).unwrap(),
            Opened::Frame(b"ack".to_vec())
        );
    }

    #[test]
    fn directional_keys_differ() {
        let (ca, sa) = pair();
        let (mut c, mut s) = loopback(ca, sa, None).unwrap();
        // A record sealed client→server must not open in the client's
        // own receive direction (keys are directional).
        let rec = c.session.seal_frame(b"x").unwrap();
        let mut rd = RecordDecoder::new();
        rd.feed(&rec);
        let (rt, pl) = rd.next_record().unwrap().unwrap();
        assert_eq!(c.session.open_record(rt, pl), Err(SecureError::Aead));
        // Fresh session state on the server side still opens it.
        drop(s.session.open_record(rt, pl));
    }

    #[test]
    fn tampered_tag_rejected() {
        let (ca, sa) = pair();
        let (mut c, mut s) = loopback(ca, sa, None).unwrap();
        let mut rec = c.session.seal_frame(b"payload").unwrap();
        let last = rec.len() - 1;
        rec[last] ^= 0x01;
        let mut rd = RecordDecoder::new();
        rd.feed(&rec);
        let (rt, pl) = rd.next_record().unwrap().unwrap();
        assert_eq!(s.session.open_record(rt, pl), Err(SecureError::Aead));
    }

    #[test]
    fn replayed_record_rejected() {
        let (ca, sa) = pair();
        let (mut c, mut s) = loopback(ca, sa, None).unwrap();
        let rec = c.session.seal_frame(b"once").unwrap();
        let mut rd = RecordDecoder::new();
        rd.feed(&rec);
        rd.feed(&rec);
        let (rt, pl) = rd.next_record().unwrap().unwrap();
        assert!(s.session.open_record(rt, pl).is_ok());
        let (rt, pl) = rd.next_record().unwrap().unwrap();
        // Same bytes, advanced sequence → tag mismatch.
        assert_eq!(s.session.open_record(rt, pl), Err(SecureError::Aead));
    }

    #[test]
    fn identity_mismatch_is_typed() {
        let (ca, sa) = pair();
        let err = loopback(ca, sa, Some("warehouse".into())).unwrap_err();
        assert_eq!(
            err,
            SecureError::IdentityMismatch {
                expected: "warehouse".into(),
                actual: "server".into(),
            }
        );
    }

    #[test]
    fn wrong_psk_fails_signature() {
        let ca: Arc<dyn ChannelAuth> = Arc::new(PskAuth::new(b"psk-a", "client", 1));
        let sa: Arc<dyn ChannelAuth> = Arc::new(PskAuth::new(b"psk-b", "server", 2));
        // DH secrets disagree before signatures are even checked on the
        // client, so the failure surfaces as a bad server signature.
        assert_eq!(
            loopback(ca, sa, None).unwrap_err(),
            SecureError::BadSignature
        );
    }

    #[test]
    fn replayed_handshake_rejected() {
        let (ca, sa) = pair();
        let cfg = SessionConfig::default();
        // Record a legitimate exchange.
        let mut c = Handshaker::client(ca.clone(), None, cfg.clone());
        let mut s1 = Handshaker::server(sa.clone(), cfg.clone());
        let hello = c.take_output();
        s1.feed(&hello).unwrap();
        let accept = s1.take_output();
        c.feed(&accept).unwrap().expect("client done");
        let finish = c.take_output();
        s1.feed(&finish).unwrap().expect("server done");

        // Replay HELLO ‖ FINISH against a fresh server: its ACCEPT
        // carries a new ephemeral, so the replayed FINISH signature is
        // over the wrong transcript.
        let mut s2 = Handshaker::server(sa, cfg);
        s2.feed(&hello).unwrap();
        let _accept2 = s2.take_output();
        assert_eq!(s2.feed(&finish).unwrap_err(), SecureError::BadSignature);
    }

    #[test]
    fn plaintext_peer_detected() {
        let (_, sa) = pair();
        let mut s = Handshaker::server(sa, SessionConfig::default());
        // A v1 envelope header: version 1, type 9, len 0.
        let err = s.feed(&[1, 9, 0, 0, 0, 0]).unwrap_err();
        assert_eq!(err, SecureError::PlaintextPeer(1));
    }

    #[test]
    fn oversized_handshake_record_rejected() {
        let (_, sa) = pair();
        let mut s = Handshaker::server(sa, SessionConfig::default());
        let mut rec = vec![WIRE_VERSION_SECURE, record::HELLO];
        rec.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            s.feed(&rec).unwrap_err(),
            SecureError::Oversized(_)
        ));
    }

    #[test]
    fn rekey_ratchet_stays_in_sync() {
        let (ca, sa) = pair();
        let cfg = SessionConfig { rekey_every: 4 };
        let mut c = Handshaker::client(ca, None, cfg.clone());
        let mut s = Handshaker::server(sa, cfg);
        let hello = c.take_output();
        s.feed(&hello).unwrap();
        let accept = s.take_output();
        let mut est_c = c.feed(&accept).unwrap().unwrap();
        let finish = c.take_output();
        let mut est_s = s.feed(&finish).unwrap().unwrap();

        let mut rd = RecordDecoder::new();
        for i in 0..64u32 {
            let msg = format!("frame {i}");
            let rec = est_c.session.seal_frame(msg.as_bytes()).unwrap();
            rd.feed(&rec);
            let (rt, pl) = rd.next_record().unwrap().unwrap();
            assert_eq!(
                est_s.session.open_record(rt, pl).unwrap(),
                Opened::Frame(msg.into_bytes())
            );
        }
        assert_eq!(est_c.session.send.dir.rekeys, 16);
        assert_eq!(est_s.session.recv.dir.rekeys, 16);
    }

    /// Three records as the parent commit (17a353b: byte-wise AES, bitwise
    /// GHASH, copy-then-frame sealing) put them on the wire, for the fixed
    /// PSK handshake of `pair()` with `rekey_every = 2`: sequence 0,
    /// sequence 1, and the first record under the ratcheted key. A daemon
    /// built from this tree must produce and accept exactly these bytes, or
    /// it cannot talk to a peer that has not been upgraded yet.
    #[test]
    fn golden_records_interoperate_with_parent_commit() {
        const GOLDEN: [(&[u8], &str); 3] = [
            (
                b"golden frame, sequence 0",
                "030428000000ba0bfbbae7a597ac2a9d444366645eb6e4703613727b2da74c3a\
                 e33ffcc3b635f303722f6fabb122",
            ),
            (
                b"golden frame, sequence 1 -- long enough to cross two AES blocks and a tail",
                "03045a0000002382f3a7ce167635f2bdea0e26e1bdabf42bc41ade3d5fd13550\
                 72fa73c35c551f1be3777645edad511f0b9d328b6ec90f9ab663592e4068a6b2\
                 ad43090b327d66b8fdd6d5f0df1b029852f0b22c1589294dd06ad2b48b825577",
            ),
            (b"", "0304100000009e55da01ae13e19d5369416a64beabfc"),
        ];
        let unhex = |s: &str| -> Vec<u8> {
            (0..s.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
                .collect()
        };
        let (ca, sa) = pair();
        let cfg = SessionConfig { rekey_every: 2 };
        let mut c = Handshaker::client(ca, None, cfg.clone());
        let mut s = Handshaker::server(sa, cfg);
        let hello = c.take_output();
        s.feed(&hello).unwrap();
        let accept = s.take_output();
        let mut est_c = c.feed(&accept).unwrap().unwrap();
        let finish = c.take_output();
        let mut est_s = s.feed(&finish).unwrap().unwrap();

        let mut rd = RecordDecoder::new();
        for (frame, record) in GOLDEN {
            let record = unhex(record);
            assert_eq!(est_c.session.seal_frame(frame).unwrap(), record);
            // The receiver is fed the parent's bytes, not ours.
            rd.feed(&record);
            let (rt, pl) = rd.next_record().unwrap().unwrap();
            assert_eq!(
                est_s.session.open_record(rt, pl).unwrap(),
                Opened::Frame(frame.to_vec())
            );
        }
        assert_eq!(est_c.session.send.dir.rekeys, 1);
        assert_eq!(est_s.session.recv.dir.rekeys, 1);
    }

    #[test]
    fn close_is_authenticated_and_terminal() {
        let (ca, sa) = pair();
        let (mut c, mut s) = loopback(ca, sa, None).unwrap();
        let rec = c.session.send.seal_close().unwrap();
        let mut rd = RecordDecoder::new();
        rd.feed(&rec);
        let (rt, pl) = rd.next_record().unwrap().unwrap();
        assert_eq!(s.session.open_record(rt, pl).unwrap(), Opened::Close);
        // Both halves refuse further traffic.
        assert_eq!(c.session.seal_frame(b"late"), Err(SecureError::Closed));
        assert_eq!(
            s.session.open_record(record::DATA, b""),
            Err(SecureError::Closed)
        );
    }

    #[test]
    fn leftover_bytes_hand_off_to_data_phase() {
        let (ca, sa) = pair();
        let cfg = SessionConfig::default();
        let mut c = Handshaker::client(ca, None, cfg.clone());
        let mut s = Handshaker::server(sa, cfg);
        let hello = c.take_output();
        s.feed(&hello).unwrap();
        let accept = s.take_output();
        let mut est_c = c.feed(&accept).unwrap().unwrap();
        // FINISH and the first DATA record arrive in one burst.
        let mut burst = c.take_output();
        burst.extend_from_slice(&est_c.session.seal_frame(b"early data").unwrap());
        let est_s = s.feed(&burst).unwrap().unwrap();
        let mut est_s = est_s;
        let mut rd = RecordDecoder::new();
        rd.feed(&est_s.leftover);
        let (rt, pl) = rd.next_record().unwrap().unwrap();
        assert_eq!(
            est_s.session.open_record(rt, pl).unwrap(),
            Opened::Frame(b"early data".to_vec())
        );
    }
}
