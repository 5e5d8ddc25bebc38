//! Stage II: HTTP(S) probe + signature prefilter.
//!
//! For each open port the prefilter checks whether it speaks HTTP and/or
//! HTTPS — except port 80 (HTTP only) and 443 (HTTPS only) — follows
//! redirects until a response body arrives, and matches the body against
//! the 90 prefilter signatures. Hosts matching no signature are discarded
//! before the expensive stage III.

use crate::multipattern::MultiPattern;
use crate::scratch::Scratch;
use crate::signatures::{all_signatures, rank_candidates, Signature};
use crate::telemetry::{Counter, Histogram, Telemetry};
use nokeys_apps::AppId;
use nokeys_http::{Client, Endpoint, Scheme, Transport};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// A stage-II hit: an endpoint that speaks HTTP(S) and looks like one or
/// more of the studied applications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefilterHit {
    pub endpoint: Endpoint,
    /// Scheme the body was obtained over.
    pub scheme: Scheme,
    /// Candidate applications (signature matches), catalog order.
    pub candidates: Vec<AppId>,
    /// Number of redirects followed before the body arrived.
    pub redirects: usize,
}

/// Per-port protocol statistics (Table 2's "# HTTP" / "# HTTPS").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PortProtocolStats {
    pub http: u64,
    pub https: u64,
}

/// Result of prefiltering a set of endpoints.
#[derive(Debug, Default)]
pub struct PrefilterResult {
    pub hits: Vec<PrefilterHit>,
    /// Endpoints that spoke HTTP(S) but matched no signature.
    pub discarded: u64,
    /// Endpoints that spoke neither protocol.
    pub silent: u64,
    /// Protocol stats per port.
    pub per_port: BTreeMap<u16, PortProtocolStats>,
}

/// Cached stage-II telemetry handles.
struct PrefilterMetrics {
    endpoints: Counter,
    http_responses: Counter,
    https_responses: Counter,
    hits: Counter,
    discarded: Counter,
    silent: Counter,
    bodies_matched: Counter,
    /// One hit counter per signature, catalog order.
    signature_hits: Vec<Counter>,
    redirects: Histogram,
    body_bytes: Histogram,
    /// `stage2.error.<class>` by [`nokeys_http::Error::class_index`],
    /// each registered with `telemetry` on first use: a snapshot lists
    /// only the classes that occurred.
    errors: [OnceLock<Counter>; nokeys_http::Error::CLASSES.len()],
    telemetry: Telemetry,
}

impl PrefilterMetrics {
    fn new(telemetry: &Telemetry, signatures: &[Signature]) -> Self {
        PrefilterMetrics {
            endpoints: telemetry.counter("stage2.endpoints_probed"),
            http_responses: telemetry.counter("stage2.http_responses"),
            https_responses: telemetry.counter("stage2.https_responses"),
            hits: telemetry.counter("stage2.hits"),
            discarded: telemetry.counter("stage2.discarded"),
            silent: telemetry.counter("stage2.silent"),
            bodies_matched: telemetry.counter("stage2.multipattern.bodies"),
            signature_hits: signatures
                .iter()
                .enumerate()
                .map(|(i, s)| telemetry.counter(&format!("stage2.signature.{i:02}.{}", s.app)))
                .collect(),
            redirects: telemetry.histogram("stage2.redirects", &[0, 1, 2, 4, 8]),
            body_bytes: telemetry.histogram("stage2.body_bytes", &[256, 1024, 4096, 16384, 65536]),
            errors: Default::default(),
            telemetry: telemetry.clone(),
        }
    }

    /// The counter of fetches that failed as `error` did.
    fn error(&self, error: &nokeys_http::Error) -> &Counter {
        self.errors[error.class_index()].get_or_init(|| {
            self.telemetry
                .counter(&format!("stage2.error.{}", error.class()))
        })
    }
}

/// The stage-II prefilter.
pub struct Prefilter {
    /// The compiled signature catalog — the per-body hot loop reads
    /// the body once instead of running 90 searches.
    matcher: &'static MultiPattern,
    metrics: PrefilterMetrics,
}

impl Default for Prefilter {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefilter {
    pub fn new() -> Self {
        Self::with_telemetry(&Telemetry::default())
    }

    /// Build a prefilter that records probe counts and per-signature
    /// hit counts into `telemetry`.
    pub fn with_telemetry(telemetry: &Telemetry) -> Self {
        Prefilter {
            matcher: MultiPattern::catalog(),
            metrics: PrefilterMetrics::new(telemetry, &all_signatures()),
        }
    }

    /// Schemes to try on `port` ("we checked if they speak HTTP or
    /// HTTPS, except port 80 where we only tested HTTP, and port 443
    /// where we only tested for HTTPS").
    pub fn schemes_for_port(port: u16) -> &'static [Scheme] {
        match port {
            80 => &[Scheme::Http],
            443 => &[Scheme::Https],
            _ => &[Scheme::Http, Scheme::Https],
        }
    }

    /// Probe a single endpoint; returns the hit (if any signature
    /// matched) plus which schemes answered. All matching buffers are
    /// borrowed from `scratch`: with a reused arena the multipattern
    /// pass allocates nothing.
    pub fn probe_endpoint_scratch<T: Transport>(
        &self,
        client: &Client<T>,
        ep: Endpoint,
        scratch: &mut Scratch,
    ) -> (Option<PrefilterHit>, PortProtocolStats) {
        let mut stats = PortProtocolStats::default();
        let mut hit: Option<PrefilterHit> = None;
        let schemes = Self::schemes_for_port(ep.port);
        self.metrics.endpoints.incr();
        for &scheme in schemes {
            let fetched = match client.get_path(ep, scheme, "/") {
                Ok(fetched) => fetched,
                Err(e) => {
                    self.metrics.error(&e).incr();
                    continue;
                }
            };
            match scheme {
                Scheme::Http => {
                    stats.http += 1;
                    self.metrics.http_responses.incr();
                }
                Scheme::Https => {
                    stats.https += 1;
                    self.metrics.https_responses.incr();
                }
            }
            self.metrics.redirects.observe(fetched.redirects as u64);
            if hit.is_none() {
                let body = fetched.response.body_str();
                self.metrics.bodies_matched.incr();
                self.metrics.body_bytes.observe(body.len() as u64);
                self.matcher.matched_signatures_scratch(&body, scratch);
                for id in scratch.matched().iter() {
                    self.metrics.signature_hits[id].incr();
                }
                let candidates =
                    rank_candidates(self.matcher.counts_from_matched(scratch.matched()));
                if !candidates.is_empty() {
                    hit = Some(PrefilterHit {
                        endpoint: ep,
                        scheme,
                        candidates,
                        redirects: fetched.redirects,
                    });
                }
            }
        }
        (hit, stats)
    }

    /// Merge one endpoint's probe outcome into `result`, recording the
    /// hit / discarded / silent classification.
    fn absorb_probe(
        &self,
        result: &mut PrefilterResult,
        ep: Endpoint,
        hit: Option<PrefilterHit>,
        stats: PortProtocolStats,
    ) {
        let spoke = stats.http + stats.https > 0;
        let entry = result.per_port.entry(ep.port).or_default();
        entry.http += stats.http;
        entry.https += stats.https;
        match hit {
            Some(h) => {
                self.metrics.hits.incr();
                result.hits.push(h);
            }
            None if spoke => {
                self.metrics.discarded.incr();
                result.discarded += 1;
            }
            None => {
                self.metrics.silent.incr();
                result.silent += 1;
            }
        }
    }

    /// Prefilter a batch of endpoints, one after another, borrowing all
    /// matching buffers from `scratch` (a shard worker passes the arena
    /// it keeps for its whole life).
    pub fn run<T: Transport>(
        &self,
        client: &Client<T>,
        endpoints: &[Endpoint],
        scratch: &mut Scratch,
    ) -> PrefilterResult {
        let mut result = PrefilterResult::default();
        for &ep in endpoints {
            let (hit, stats) = self.probe_endpoint_scratch(client, ep, scratch);
            self.absorb_probe(&mut result, ep, hit, stats);
        }
        result
    }

    /// Number of loaded signatures (90 in the paper's configuration).
    pub fn signature_count(&self) -> usize {
        self.matcher.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portscan::{PortScanConfig, PortScanner};
    use nokeys_netsim::{SimTransport, Universe, UniverseConfig};
    use std::sync::Arc;

    fn client() -> Client<SimTransport> {
        let t = SimTransport::new(Arc::new(Universe::generate(UniverseConfig::tiny(42))));
        Client::new(t)
    }

    #[test]
    fn scheme_rules_match_the_paper() {
        assert_eq!(Prefilter::schemes_for_port(80), &[Scheme::Http]);
        assert_eq!(Prefilter::schemes_for_port(443), &[Scheme::Https]);
        assert_eq!(
            Prefilter::schemes_for_port(8080),
            &[Scheme::Http, Scheme::Https]
        );
        assert_eq!(Prefilter::new().signature_count(), 90);
    }

    #[test]
    fn classifies_awe_noise_and_silence() {
        let client = client();
        let scanner = PortScanner::new(PortScanConfig::new(vec!["20.0.0.0/16".parse().unwrap()]));
        let scan = scanner.scan(client.transport());
        let prefilter = Prefilter::new();
        let result = prefilter.run(&client, &scan.open, &mut Scratch::new());

        // Every non-tarpit AWE endpoint that speaks HTTP or HTTPS must be
        // identified as a candidate.
        let universe = client.transport().universe();
        let awe_services: u64 = universe
            .hosts()
            .filter(|h| h.awe().is_some())
            .map(|h| h.services.len() as u64)
            .sum();
        assert!(
            result.hits.len() as u64 >= awe_services / 2,
            "most AWE endpoints hit"
        );

        // Background noise is discarded, tarpits and NotHttp are silent.
        assert!(
            result.discarded > 0,
            "background noise present and discarded"
        );
        assert!(result.silent > 0, "silent services present");

        // Candidate attribution is correct for each hit.
        for hit in &result.hits {
            let host = universe.host(hit.endpoint.ip).expect("hit host exists");
            let (_, actual_app) = host.awe().expect("hits are AWE hosts");
            assert!(
                hit.candidates.contains(&actual_app),
                "{} misattributed: {:?} (actual {actual_app})",
                hit.endpoint,
                hit.candidates
            );
        }
    }

    #[test]
    fn prefilter_telemetry_reconciles_with_result() {
        let client = client();
        let scanner = PortScanner::new(PortScanConfig::new(vec!["20.0.0.0/16".parse().unwrap()]));
        let scan = scanner.scan(client.transport());
        let telemetry = Telemetry::new();
        let prefilter = Prefilter::with_telemetry(&telemetry);
        let result = prefilter.run(&client, &scan.open, &mut Scratch::new());
        let snap = telemetry.snapshot();
        assert_eq!(
            snap.counter("stage2.endpoints_probed"),
            scan.open.len() as u64
        );
        assert_eq!(snap.counter("stage2.hits"), result.hits.len() as u64);
        assert_eq!(snap.counter("stage2.discarded"), result.discarded);
        assert_eq!(snap.counter("stage2.silent"), result.silent);
        let http: u64 = result.per_port.values().map(|s| s.http).sum();
        let https: u64 = result.per_port.values().map(|s| s.https).sum();
        assert_eq!(snap.counter("stage2.http_responses"), http);
        assert_eq!(snap.counter("stage2.https_responses"), https);
        // All 90 per-signature counters are registered, some fired.
        assert_eq!(
            snap.counters
                .keys()
                .filter(|k| k.starts_with("stage2.signature."))
                .count(),
            90
        );
        assert!(snap.prefixed_total("stage2.signature.") > 0);
        // Redirect observations: one per HTTP(S) response.
        assert_eq!(snap.histograms["stage2.redirects"].count, http + https);
    }

    #[test]
    fn per_port_stats_accumulate() {
        let client = client();
        let scanner = PortScanner::new(PortScanConfig::new(vec!["20.0.0.0/16".parse().unwrap()]));
        let scan = scanner.scan(client.transport());
        let result = Prefilter::new().run(&client, &scan.open, &mut Scratch::new());
        // Port 80 must have zero HTTPS responses, port 443 zero HTTP.
        if let Some(p80) = result.per_port.get(&80) {
            assert_eq!(p80.https, 0);
            assert!(p80.http > 0);
        }
        if let Some(p443) = result.per_port.get(&443) {
            assert_eq!(p443.http, 0);
        }
    }
}
