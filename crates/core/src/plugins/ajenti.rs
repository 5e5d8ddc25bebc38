//! Ajenti autologin detection.

use crate::plugins::ok_body_of;
use nokeys_http::{Client, Endpoint, Scheme, Transport};

pub const STEPS: &[&str] = &[
    "Visit '/view/'",
    "Check that response contains 'customization.plugins.core.title || 'Ajenti'' \
     and 'ajentiPlatformUnmapped'",
];

pub fn detect<T: Transport>(client: &Client<T>, ep: Endpoint, scheme: Scheme) -> bool {
    match ok_body_of(client, ep, scheme, "/view/") {
        Some(body) => {
            body.contains("customization.plugins.core.title || 'Ajenti'")
                && body.contains("ajentiPlatformUnmapped")
        }
        None => false,
    }
}
