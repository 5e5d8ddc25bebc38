//! GoCD MAV detection.

use crate::plugins::body_of;
use nokeys_http::{Client, Endpoint, Scheme, Transport};

pub const STEPS: &[&str] = &[
    "Visit '/go/home'",
    "Check that body contains 'Create a pipeline - Go' and 'pipelines-page', or \
     'Add Pipeline' and 'admin_pipelines', or 'Dashboard - Go' and '/go/admin/pipelines/', \
     or 'Pipelines - Go' and '/go/admin/pipelines'",
];

pub fn detect<T: Transport>(client: &Client<T>, ep: Endpoint, scheme: Scheme) -> bool {
    let Some(body) = body_of(client, ep, scheme, "/go/home") else {
        return false;
    };
    let pairs: [(&str, &str); 4] = [
        ("Create a pipeline - Go", "pipelines-page"),
        ("Add Pipeline", "admin_pipelines"),
        ("Dashboard - Go", "/go/admin/pipelines/"),
        ("Pipelines - Go", "/go/admin/pipelines"),
    ];
    pairs
        .iter()
        .any(|(a, b)| body.contains(a) && body.contains(b))
}
