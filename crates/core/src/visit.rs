//! A host visit: one endpoint over one scheme through one client, and
//! so at one instant. Stage II's `/`, a stage-III plugin, stage IV's
//! disclosure and crawl, the Figure 2 recheck, CT and the defender model
//! all fetch through a visit: [`Visit::get`] is the one place they call
//! [`Client::get_path`].

use nokeys_http::client::Fetched;
use nokeys_http::{Client, Endpoint, Result, Scheme, Transport};

/// One endpoint over one scheme through one client.
pub struct Visit<'a, T> {
    client: &'a Client<T>,
    ep: Endpoint,
    scheme: Scheme,
}

impl<'a, T: Transport> Visit<'a, T> {
    pub fn new(client: &'a Client<T>, ep: Endpoint, scheme: Scheme) -> Self {
        Visit { client, ep, scheme }
    }

    /// `GET path` on the endpoint, following redirects.
    pub fn get(&self, path: &str) -> Result<Fetched> {
        self.client.get_path(self.ep, self.scheme, path)
    }
}
