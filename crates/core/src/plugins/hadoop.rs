//! Hadoop YARN ResourceManager detection.

use crate::pattern::Pattern;
use crate::plugins::ok_body_of;
use nokeys_http::{Client, Endpoint, Scheme, Transport};

pub const STEPS: &[&str] = &[
    "Visit '/cluster/cluster' and convert response to lower case",
    "Check that response contains 'hadoop', 'resourcemanager' and 'logged in as: dr.who'",
    "Visit '/ws/v1/cluster/apps/new-application' and check that it is valid JSON",
    "Parse the JSON response and check that it contains the 'application-id' object",
];

pub fn detect<T: Transport>(client: &Client<T>, ep: Endpoint, scheme: Scheme) -> bool {
    let Some(cluster) = ok_body_of(client, ep, scheme, "/cluster/cluster") else {
        return false;
    };
    if !["hadoop", "resourcemanager", "logged in as: dr.who"]
        .into_iter()
        .all(|marker| Pattern::nocase(marker).matches_str(&cluster))
    {
        return false;
    }
    let Some(new_app) = ok_body_of(client, ep, scheme, "/ws/v1/cluster/apps/new-application")
    else {
        return false;
    };
    let Ok(json) = crate::json::parse(new_app.as_bytes()) else {
        return false;
    };
    json.get("application-id").is_some()
}
