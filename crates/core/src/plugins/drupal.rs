//! Drupal installer detection.

use crate::pattern::Pattern;
use crate::plugins::ok_body_of;
use nokeys_http::{Client, Endpoint, Scheme, Transport};

pub const STEPS: &[&str] = &[
    "Visit '/core/install.php?langcode=en&profile=standard&continue=1'",
    "Remove all whitespace from response, as their placement differs across versions",
    "Check that body contains '<li class=\"is-active\">Set up database' (whitespace-free)",
];

pub fn detect<T: Transport>(client: &Client<T>, ep: Endpoint, scheme: Scheme) -> bool {
    let Some(body) = ok_body_of(
        client,
        ep,
        scheme,
        "/core/install.php?langcode=en&profile=standard&continue=1",
    ) else {
        return false;
    };
    Pattern::nospace("<liclass=\"is-active\">Setupdatabase").matches_str(&body)
}
