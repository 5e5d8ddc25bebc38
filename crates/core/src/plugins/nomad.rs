//! Nomad open-agent detection.

use crate::plugins::ok_body_of;
use nokeys_http::{Client, Endpoint, Scheme, Transport};

pub const STEPS: &[&str] = &[
    "Visit '/v1/jobs'",
    "Check that response contains '<title>Nomad</title>'",
];

pub fn detect<T: Transport>(client: &Client<T>, ep: Endpoint, scheme: Scheme) -> bool {
    match ok_body_of(client, ep, scheme, "/v1/jobs") {
        Some(body) => body.contains("<title>Nomad</title>"),
        None => false,
    }
}
