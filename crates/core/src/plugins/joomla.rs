//! Joomla installer detection.

use crate::plugins::ok_body_of;
use nokeys_http::{Client, Endpoint, Scheme, Transport};

pub const STEPS: &[&str] = &[
    "Visit '/installation/index.php'",
    "Check that the body contains 'Joomla! Web Installer' or \
     'Enter the name of your Joomla! site'",
];

pub fn detect<T: Transport>(client: &Client<T>, ep: Endpoint, scheme: Scheme) -> bool {
    let Some(body) = ok_body_of(client, ep, scheme, "/installation/index.php") else {
        return false;
    };
    body.contains("Joomla! Web Installer") || body.contains("Enter the name of your Joomla! site")
}
