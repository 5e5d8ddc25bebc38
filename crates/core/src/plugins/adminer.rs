//! Adminer empty-password login detection.

use crate::plugins::ok_body_of;
use nokeys_http::{Client, Endpoint, Scheme, Transport};

pub const STEPS: &[&str] = &[
    "Visit '/adminer.php?username=root' and check that it contains \
     'through PHP extension' and 'Logged as'",
    "If step 1 is not successful, visit '/adminer/adminer.php?username=root' and \
     check that it contains the same two strings",
];

fn markers(body: &str) -> bool {
    body.contains("through PHP extension") && body.contains("Logged as")
}

pub fn detect<T: Transport>(client: &Client<T>, ep: Endpoint, scheme: Scheme) -> bool {
    for path in [
        "/adminer.php?username=root",
        "/adminer/adminer.php?username=root",
    ] {
        if let Some(body) = ok_body_of(client, ep, scheme, path) {
            if markers(&body) {
                return true;
            }
        }
    }
    false
}
