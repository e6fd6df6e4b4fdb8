//! The Message Warehousing Service — the paper's contribution (§V).
//!
//! Every component of Figure 3 exists as a typed unit:
//!
//! | Paper component | Module |
//! |---|---|
//! | Smart Device (SD) | [`device::SmartDevice`] |
//! | Smart Device Authenticator (SDA) + key management | [`sda::SdAuthenticator`], [`registry::DeviceRegistry`] |
//! | Message Database (MD) | `mws_store::MessageDb` (owned by the MMS) |
//! | Message Management System (MMS) | [`mms::MessageManagementSystem`] |
//! | Policy Database (PD) | `mws_store::PolicyDb` (owned by the MMS) |
//! | Token Generator (TG) | [`token::TokenGenerator`] |
//! | User Database | `mws_store::UserDb` (owned by the Gatekeeper) |
//! | Gatekeeper | [`gatekeeper::Gatekeeper`] |
//! | Private Key Generator (PKG) | [`pkg_service::PkgService`] |
//! | Receiving Client (RC) | [`client::ReceivingClient`] |
//!
//! [`protocol::Deployment`] wires all of them onto an `mws-net` network and
//! is the API the examples, integration tests and benchmarks drive. The
//! protocol implemented is §V.D verbatim (all three phases, tickets, tokens,
//! authenticators, AID indirection, per-message nonces), plus the paper's
//! §VIII future-work items: replay windows with real timestamps, pattern
//! policies ([`policy`]), device signatures, and a threshold-PKG deployment
//! option.
//!
//! # Quickstart
//!
//! ```
//! use mws_core::protocol::{Deployment, DeploymentConfig};
//!
//! let mut dep = Deployment::new(DeploymentConfig::test_default());
//! dep.register_device("meter-1");
//! dep.register_client("utility-co", "pw", &["ELECTRIC-APT9"]);
//! let mut meter = dep.device("meter-1");
//! meter.deposit("ELECTRIC-APT9", b"kwh=42").unwrap();
//! let mut rc = dep.client("utility-co", "pw");
//! let msgs = rc.retrieve_and_decrypt(0).unwrap();
//! assert_eq!(msgs.len(), 1);
//! assert_eq!(msgs[0].plaintext, b"kwh=42");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod client;
pub mod clock;
pub mod device;
pub mod errors;
pub mod gatekeeper;
pub mod mms;
pub(crate) mod obs;
pub mod pkg_service;
pub mod policy;
pub mod protocol;
pub mod registry;
pub mod relay;
pub mod sda;
pub mod sealed;
pub mod token;

pub use errors::{CoreError, ErrorCode};
pub use protocol::{Deployment, DeploymentConfig, RetrievedMessage};
