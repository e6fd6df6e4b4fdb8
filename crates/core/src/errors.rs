//! Error taxonomy shared by every MWS component, with stable wire codes.

use mws_ibe::IbeError;
use mws_net::NetError;
use mws_pairing::PairingError;
use mws_store::StoreError;
use mws_wire::WireError;

/// Machine-readable protocol error codes (carried in `Pdu::Error`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Malformed or unexpected request.
    BadRequest = 400,
    /// Authentication failed (MAC, password, ticket or authenticator).
    AuthFailed = 401,
    /// Authenticated but not authorized for the resource.
    Forbidden = 403,
    /// Unknown identity / message / session.
    NotFound = 404,
    /// Timestamp outside the freshness window or nonce replayed.
    Replay = 409,
    /// Internal service failure.
    Internal = 500,
}

impl ErrorCode {
    /// Parses a wire code.
    fn from_u16(v: u16) -> Option<Self> {
        Some(match v {
            400 => ErrorCode::BadRequest,
            401 => ErrorCode::AuthFailed,
            403 => ErrorCode::Forbidden,
            404 => ErrorCode::NotFound,
            409 => ErrorCode::Replay,
            500 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// Errors produced by the MWS core.
#[derive(Debug)]
pub enum CoreError {
    /// The peer replied with a protocol error.
    Remote {
        /// Error code.
        code: ErrorCode,
        /// Server-provided detail.
        detail: String,
    },
    /// The peer replied with an unexpected PDU type.
    UnexpectedReply,
    /// Local cryptographic failure (decryption, MAC, signature).
    Crypto(&'static str),
    /// Transport failure.
    Net(NetError),
    /// Storage failure.
    Store(StoreError),
    /// Wire codec failure.
    Wire(WireError),
    /// IBE-layer failure.
    Ibe(IbeError),
    /// Pairing-layer failure.
    Pairing(PairingError),
}

impl core::fmt::Display for CoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CoreError::Remote { code, detail } => write!(f, "remote error {code:?}: {detail}"),
            CoreError::UnexpectedReply => write!(f, "unexpected reply PDU"),
            CoreError::Crypto(what) => write!(f, "crypto failure: {what}"),
            CoreError::Net(e) => write!(f, "net: {e}"),
            CoreError::Store(e) => write!(f, "store: {e}"),
            CoreError::Wire(e) => write!(f, "wire: {e}"),
            CoreError::Ibe(e) => write!(f, "ibe: {e}"),
            CoreError::Pairing(e) => write!(f, "pairing: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<NetError> for CoreError {
    fn from(e: NetError) -> Self {
        CoreError::Net(e)
    }
}

impl From<StoreError> for CoreError {
    fn from(e: StoreError) -> Self {
        CoreError::Store(e)
    }
}

impl From<WireError> for CoreError {
    fn from(e: WireError) -> Self {
        CoreError::Wire(e)
    }
}

impl From<IbeError> for CoreError {
    fn from(e: IbeError) -> Self {
        CoreError::Ibe(e)
    }
}

impl From<PairingError> for CoreError {
    fn from(e: PairingError) -> Self {
        CoreError::Pairing(e)
    }
}

impl CoreError {
    /// Converts a remote `Pdu::Error` into a typed error.
    pub fn from_wire_error(code: u16, detail: String) -> Self {
        CoreError::Remote {
            code: ErrorCode::from_u16(code).unwrap_or(ErrorCode::Internal),
            detail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::AuthFailed,
            ErrorCode::Forbidden,
            ErrorCode::NotFound,
            ErrorCode::Replay,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u16(code as u16), Some(code));
        }
        assert_eq!(ErrorCode::from_u16(999), None);
    }

    #[test]
    fn unknown_code_maps_to_internal() {
        assert!(matches!(
            CoreError::from_wire_error(777, "?".into()),
            CoreError::Remote {
                code: ErrorCode::Internal,
                ..
            }
        ));
    }
}
