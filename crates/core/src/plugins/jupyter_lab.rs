//! Jupyter Lab open-terminal detection.

use crate::plugins::ok_body_of;
use nokeys_http::{Client, Endpoint, Scheme, Transport};

pub const STEPS: &[&str] = &[
    "Visit '/api/terminals'",
    "Check that response contains 'JupyterLab'",
];

pub fn detect<T: Transport>(client: &Client<T>, ep: Endpoint, scheme: Scheme) -> bool {
    match ok_body_of(client, ep, scheme, "/api/terminals") {
        Some(body) => body.contains("JupyterLab"),
        None => false,
    }
}
