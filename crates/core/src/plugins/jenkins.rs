//! Jenkins MAV detection.

use crate::htmlcheck::{has_element, is_valid_html};
use crate::plugins::body_of;
use nokeys_http::{Client, Endpoint, Scheme, Transport};

pub const STEPS: &[&str] = &[
    "Visit '/view/all/newJob'",
    "Check that body contains 'Jenkins' and is valid HTML",
    "Parse HTML response and verify that element 'form#createItem' exists",
];

pub fn detect<T: Transport>(client: &Client<T>, ep: Endpoint, scheme: Scheme) -> bool {
    let Some(body) = body_of(client, ep, scheme, "/view/all/newJob") else {
        return false;
    };
    body.contains("Jenkins") && is_valid_html(&body) && has_element(&body, "form#createItem")
}
