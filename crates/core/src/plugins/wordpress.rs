//! WordPress installation-hijack detection.

use crate::htmlcheck::{has_element, is_valid_html};
use crate::plugins::body_of;
use nokeys_http::{Client, Endpoint, Scheme, Transport};

pub const STEPS: &[&str] = &[
    "Visit '/wp-admin/install.php?step=1'",
    "Check that body contains 'WordPress' and is valid HTML",
    "Parse HTML response and verify that elements 'form#setup' and \
     'form#setup input#pass1' exist",
];

pub fn detect<T: Transport>(client: &Client<T>, ep: Endpoint, scheme: Scheme) -> bool {
    let Some(body) = body_of(client, ep, scheme, "/wp-admin/install.php?step=1") else {
        return false;
    };
    body.contains("WordPress")
        && is_valid_html(&body)
        && has_element(&body, "form#setup")
        && has_element(&body, "form#setup input#pass1")
}
