//! Minimal synchronous HTTP/1.1 stack used by the *No Keys to the Kingdom*
//! reproduction.
//!
//! The scanning pipeline of the paper talks plain HTTP(S) to millions of
//! hosts. This crate provides everything the pipeline needs and nothing
//! more:
//!
//! * message types ([`Request`], [`Response`], [`Headers`], [`Method`],
//!   [`StatusCode`]),
//! * an incremental HTTP/1.1 parser ([`parse`]) and serializer ([`encode`]),
//! * a byte-stream [`transport::Transport`] abstraction with a real TCP
//!   implementation ([`transport::TcpTransport`], which bounds each
//!   exchange in time); the simulated Internet in `nokeys-netsim`
//!   provides an in-memory implementation,
//! * [`client::Visit`], the one fetch type: one endpoint over one
//!   scheme through a transport, optionally under a virtual-host name,
//!   with redirect following and body caps mirroring the constraints of
//!   the paper's ethical scanning setup, and
//! * a [`server::serve_connection`] loop used to expose application models
//!   over real sockets.
//!
//! The stack is deliberately small: HTTP/1.1 only, `Content-Length` and
//! `chunked` bodies, no compression, no TLS (the simulation models TLS at
//! the transport layer; see `DESIGN.md`).

#![forbid(unsafe_code)]

pub mod cases;
pub mod client;
pub mod encode;
pub mod error;
pub mod headers;
pub mod ip;
pub mod memory;
pub mod method;
pub mod parse;
pub mod request;
pub mod response;
pub mod rng;
pub mod server;
pub mod status;
pub mod transport;
pub mod version;

pub use client::Visit;
pub use error::{Error, Result};
pub use headers::Headers;
pub use method::Method;
pub use request::Request;
pub use response::Response;
pub use status::StatusCode;
pub use transport::{Attempt, Endpoint, FaultLane, FaultObserver, ProbeOutcome, Scheme, Transport};
pub use version::Version;
