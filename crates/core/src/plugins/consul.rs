//! Consul script-checks detection.

use crate::plugins::ok_body_of;
use nokeys_http::{Client, Endpoint, Scheme, Transport};

pub const STEPS: &[&str] = &[
    "Visit '/v1/agent/self' and check that response is valid JSON",
    "Parse JSON response and check that the 'DebugConfig' property does exist",
    "Check that at least one of 'DebugConfig.EnableScriptChecks' and \
     'DebugConfig.EnableRemoteScriptChecks' is enabled",
];

pub fn detect<T: Transport>(client: &Client<T>, ep: Endpoint, scheme: Scheme) -> bool {
    let Some(body) = ok_body_of(client, ep, scheme, "/v1/agent/self") else {
        return false;
    };
    let Ok(json) = crate::json::parse(body.as_bytes()) else {
        return false;
    };
    let Some(debug) = json.get("DebugConfig") else {
        return false;
    };
    ["EnableScriptChecks", "EnableRemoteScriptChecks"]
        .iter()
        .any(|k| debug.get(k).and_then(|v| v.as_bool()).unwrap_or(false))
}
