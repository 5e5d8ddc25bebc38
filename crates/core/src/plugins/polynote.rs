//! Polynote detection (mere presence is the vulnerability).

use crate::plugins::ok_body_of;
use nokeys_http::{Client, Endpoint, Scheme, Transport};

pub const STEPS: &[&str] = &[
    "Visit '/'",
    "Check that response contains '<title>Polynote</title>'",
];

pub fn detect<T: Transport>(client: &Client<T>, ep: Endpoint, scheme: Scheme) -> bool {
    match ok_body_of(client, ep, scheme, "/") {
        Some(body) => body.contains("<title>Polynote</title>"),
        None => false,
    }
}
