//! Kubernetes anonymous-API detection.

use crate::pattern::Pattern;
use crate::plugins::ok_body_of;
use nokeys_http::{Client, Endpoint, Scheme, Transport};

pub const STEPS: &[&str] = &[
    "Visit '/' and check that body contains 'certificates.k8s.io' and 'healthz/ping'",
    "Visit '/api/v1/pods', remove all whitespace from the response and check that it \
     contains '\"phase\":\"Running\"'",
    "Parse the response as JSON and check that the 'items' array exists and is not empty",
];

pub fn detect<T: Transport>(client: &Client<T>, ep: Endpoint, scheme: Scheme) -> bool {
    let Some(root) = ok_body_of(client, ep, scheme, "/") else {
        return false;
    };
    if !(root.contains("certificates.k8s.io") && root.contains("healthz/ping")) {
        return false;
    }
    let Some(pods) = ok_body_of(client, ep, scheme, "/api/v1/pods") else {
        return false;
    };
    if !Pattern::nospace("\"phase\":\"Running\"").matches_str(&pods) {
        return false;
    }
    let Ok(json) = crate::json::parse(pods.as_bytes()) else {
        return false;
    };
    json.get("items")
        .and_then(|i| i.as_array())
        .map(|a| !a.is_empty())
        .unwrap_or(false)
}
