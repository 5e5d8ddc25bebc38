//! Docker exposed-daemon detection.

use crate::pattern::Pattern;
use crate::plugins::body_of;
use nokeys_http::{Client, Endpoint, Scheme, Transport};

pub const STEPS: &[&str] = &[
    "Visit '/' and check that body contains '{\"message\":\"page not found\"}'",
    "Visit '/version', convert response to lower case and check that it contains \
     'minapiversion' and 'kernelversion'",
];

pub fn detect<T: Transport>(client: &Client<T>, ep: Endpoint, scheme: Scheme) -> bool {
    let Some(root) = body_of(client, ep, scheme, "/") else {
        return false;
    };
    if !root.contains("{\"message\":\"page not found\"}") {
        return false;
    }
    let Some(version) = body_of(client, ep, scheme, "/version") else {
        return false;
    };
    ["minapiversion", "kernelversion"]
        .into_iter()
        .all(|marker| Pattern::nocase(marker).matches_str(&version))
}
