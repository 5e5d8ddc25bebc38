//! Responsible-disclosure planning (Section 3.2, "Responsible
//! disclosure").
//!
//! "Reporting vulnerabilities discovered during an IP scan is a
//! non-trivial problem, as no direct connection to a domain name and thus
//! email address exists." The paper's routing: (1) assets inside large
//! cloud/hosting providers are reported to the provider in bulk; (2) for
//! the rest, connect via HTTPS and mine the certificate for a contactable
//! domain (`security@domain`); (3) anything else cannot be notified.

use crate::report::HostFinding;
use nokeys_http::transport::Connection;
use nokeys_http::{Attempt, Scheme, Transport};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// How one vulnerable host will be notified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Contact {
    /// Reported to the hosting/cloud provider with the affected asset.
    Provider(String),
    /// Direct mail to `security@<domain>` from the certificate subject.
    SecurityAt(String),
    /// No contact path found.
    Unreachable,
}

/// The complete notification plan.
#[derive(Debug, Default)]
pub struct ContactPlan {
    /// Provider name → affected addresses (bulk reports).
    pub by_provider: BTreeMap<String, Vec<Ipv4Addr>>,
    /// Direct `security@domain` notifications.
    pub by_domain: Vec<(Ipv4Addr, String)>,
    /// Hosts with no contact path.
    pub unreachable: Vec<Ipv4Addr>,
}

impl ContactPlan {
    /// Number of hosts with *some* notification path.
    pub fn notifiable(&self) -> usize {
        self.by_provider.values().map(Vec::len).sum::<usize>() + self.by_domain.len()
    }

    /// Contact decided for `ip`, if it is part of the plan.
    pub fn contact_of(&self, ip: Ipv4Addr) -> Option<Contact> {
        for (provider, ips) in &self.by_provider {
            if ips.contains(&ip) {
                return Some(Contact::Provider(provider.clone()));
            }
        }
        if let Some((_, domain)) = self.by_domain.iter().find(|(i, _)| *i == ip) {
            return Some(Contact::SecurityAt(domain.clone()));
        }
        self.unreachable
            .contains(&ip)
            .then_some(Contact::Unreachable)
    }
}

/// Plan notifications for the vulnerable findings.
///
/// `provider_of` is the IP-metadata lookup: `Some(provider_name)` when
/// the address belongs to a dedicated hosting/cloud provider.
pub fn plan_notifications<T, F>(
    transport: &T,
    findings: &[HostFinding],
    provider_of: F,
) -> ContactPlan
where
    T: Transport,
    F: Fn(Ipv4Addr) -> Option<String>,
{
    let mut plan = ContactPlan::default();
    for finding in findings.iter().filter(|f| f.vulnerable) {
        let ip = finding.endpoint.ip;
        if let Some(provider) = provider_of(ip) {
            plan.by_provider.entry(provider).or_default().push(ip);
            continue;
        }
        // Inspect the certificate: try the finding's own port first (it
        // may be HTTPS), then 443.
        let mut domain = None;
        for port in [finding.endpoint.port, 443] {
            let ep = nokeys_http::Endpoint::new(ip, port);
            if let Ok(conn) = transport.connect(ep, Scheme::Https, Attempt::FIRST) {
                if let Some(cert) = conn.certificate() {
                    if let Some(subject) = cert.subject {
                        domain = Some(subject);
                        break;
                    }
                }
            }
        }
        match domain {
            Some(d) => plan.by_domain.push((ip, d)),
            None => plan.unreachable.push(ip),
        }
    }
    plan
}

/// Render the plan as notification-report text.
pub fn render(plan: &ContactPlan) -> String {
    let mut out = String::from("== Responsible-disclosure plan ==\n");
    for (provider, ips) in &plan.by_provider {
        out.push_str(&format!(
            "bulk report to {provider}: {} assets\n",
            ips.len()
        ));
    }
    out.push_str(&format!(
        "direct security@ notifications: {}\n",
        plan.by_domain.len()
    ));
    out.push_str(&format!("no contact path: {}\n", plan.unreachable.len()));
    out.push_str(&format!(
        "notifiable: {} of {}\n",
        plan.notifiable(),
        plan.notifiable() + plan.unreachable.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nokeys_http::Endpoint;

    fn finding(ip: [u8; 4], vulnerable: bool) -> HostFinding {
        HostFinding {
            endpoint: Endpoint::new(Ipv4Addr::from(ip), 80),
            scheme: Scheme::Http,
            app: nokeys_apps::AppId::Docker,
            vulnerable,
            version: None,
            fingerprint_method: None,
        }
    }

    #[test]
    fn providers_take_precedence_and_secure_hosts_are_skipped() {
        let transport = nokeys_http::memory::HandlerTransport::new();
        let findings = vec![finding([10, 0, 0, 1], true), finding([10, 0, 0, 2], false)];
        let plan = plan_notifications(&transport, &findings, |_| Some("ExampleCloud".to_string()));
        assert_eq!(
            plan.by_provider["ExampleCloud"],
            vec![Ipv4Addr::new(10, 0, 0, 1)]
        );
        assert_eq!(plan.notifiable(), 1);
        assert_eq!(
            plan.contact_of(Ipv4Addr::new(10, 0, 0, 1)),
            Some(Contact::Provider("ExampleCloud".to_string()))
        );
        assert_eq!(plan.contact_of(Ipv4Addr::new(10, 0, 0, 2)), None);
    }

    #[test]
    fn hosts_without_provider_or_cert_are_unreachable() {
        // HandlerTransport has no mounted endpoints: HTTPS connects fail.
        let transport = nokeys_http::memory::HandlerTransport::new();
        let findings = vec![finding([10, 0, 0, 3], true)];
        let plan = plan_notifications(&transport, &findings, |_| None);
        assert_eq!(plan.unreachable, vec![Ipv4Addr::new(10, 0, 0, 3)]);
        assert_eq!(plan.notifiable(), 0);
        let text = render(&plan);
        assert!(text.contains("no contact path: 1"));
    }
}
