//! The 18 MAV detection plugins (paper Appendix Table 10).
//!
//! Each module exposes `detect` (the verification routine) and
//! `STEPS` (the documented pseudo-code steps). Unless noted otherwise, a
//! MAV is only reported when *all* steps succeed.

pub mod adminer;
pub mod ajenti;
pub mod consul;
pub mod docker;
pub mod drupal;
pub mod gocd;
pub mod grav;
pub mod hadoop;
pub mod jenkins;
pub mod joomla;
pub mod jupyter_lab;
pub mod jupyter_notebook;
pub mod kubernetes;
pub mod nomad;
pub mod phpmyadmin;
pub mod polynote;
pub mod wordpress;
pub mod zeppelin;

use nokeys_http::{Client, Endpoint, Scheme, Transport};

/// Fetch `path` from the target (following redirects, as the client is
/// configured) and return the final body, or `None` on any error.
pub(crate) fn body_of<T: Transport>(
    client: &Client<T>,
    ep: Endpoint,
    scheme: Scheme,
    path: &str,
) -> Option<String> {
    client
        .get_path(ep, scheme, path)
        .ok()
        .map(|fetched| fetched.response.body_text())
}

/// Like [`body_of`], but only for 2xx responses (several plugins treat
/// error pages as "step failed" even when a body exists).
pub(crate) fn ok_body_of<T: Transport>(
    client: &Client<T>,
    ep: Endpoint,
    scheme: Scheme,
    path: &str,
) -> Option<String> {
    let fetched = client.get_path(ep, scheme, path).ok()?;
    if !fetched.response.status.is_success() {
        return None;
    }
    Some(fetched.response.body_text())
}
