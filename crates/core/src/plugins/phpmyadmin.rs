//! phpMyAdmin passwordless-login detection.

use crate::plugins::ok_body_of;
use nokeys_http::{Client, Endpoint, Scheme, Transport};

pub const STEPS: &[&str] = &[
    "Visit '/' and check that it contains 'Server connection collation' and \
     'phpMyAdmin documentation'",
    "If step 1 is not successful, visit '/phpmyadmin' and check that it contains \
     the same two strings",
];

fn markers(body: &str) -> bool {
    body.contains("Server connection collation") && body.contains("phpMyAdmin documentation")
}

pub fn detect<T: Transport>(client: &Client<T>, ep: Endpoint, scheme: Scheme) -> bool {
    if let Some(body) = ok_body_of(client, ep, scheme, "/") {
        if markers(&body) {
            return true;
        }
    }
    match ok_body_of(client, ep, scheme, "/phpmyadmin") {
        Some(body) => markers(&body),
        None => false,
    }
}
