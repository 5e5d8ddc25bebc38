//! Zeppelin open-API detection.

use crate::plugins::ok_body_of;
use nokeys_http::{Client, Endpoint, Scheme, Transport};

pub const STEPS: &[&str] = &[
    "Visit '/api/notebook'",
    "Check that response contains '{\"status\":\"OK\",'",
];

pub fn detect<T: Transport>(client: &Client<T>, ep: Endpoint, scheme: Scheme) -> bool {
    match ok_body_of(client, ep, scheme, "/api/notebook") {
        Some(body) => body.contains("{\"status\":\"OK\","),
        None => false,
    }
}
