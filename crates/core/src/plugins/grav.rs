//! Grav account-creation detection.

use crate::plugins::body_of;
use nokeys_http::{Client, Endpoint, Scheme, Transport};

pub const STEPS: &[&str] = &[
    "Visit '/' and check that body contains 'The Admin plugin has been installed' \
     and 'Create User'",
    "If step 1 is not successful, visit '/admin' and check that body contains \
     'No user accounts found' and 'create one'",
];

pub fn detect<T: Transport>(client: &Client<T>, ep: Endpoint, scheme: Scheme) -> bool {
    if let Some(body) = body_of(client, ep, scheme, "/") {
        if body.contains("The Admin plugin has been installed") && body.contains("Create User") {
            return true;
        }
    }
    if let Some(body) = body_of(client, ep, scheme, "/admin") {
        return body.contains("No user accounts found") && body.contains("create one");
    }
    false
}
