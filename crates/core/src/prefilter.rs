//! Stage II: HTTP(S) probe + signature prefilter.
//!
//! For each open port the prefilter checks whether it speaks HTTP and/or
//! HTTPS — except port 80 (HTTP only) and 443 (HTTPS only) — follows
//! redirects until a response body arrives, and matches the body against
//! the 90 prefilter signatures. Hosts matching no signature are discarded
//! before the expensive stage III.
//!
//! A run returns its hits; every count — endpoints probed, hits,
//! discarded, silent, responses per scheme and port
//! (`stage2.{http,https}_responses.<port>`), failed fetches by error
//! class — goes to the telemetry registry alone.

use crate::multipattern::MultiPattern;
use crate::scratch::Scratch;
use crate::signatures::{all_signatures, rank_candidates, Signature};
use crate::telemetry::{Counter, Histogram, Telemetry};
use nokeys_apps::AppId;
use nokeys_http::{Client, Endpoint, Scheme, Transport};
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

/// Cached stage-II telemetry handles.
struct PrefilterMetrics {
    endpoints: Counter,
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
    /// Registers `stage2.{http,https}_responses.<port>` (Table 2's
    /// "# HTTP" / "# HTTPS") and the error classes on first use.
    telemetry: Telemetry,
}

impl PrefilterMetrics {
    fn new(telemetry: &Telemetry, signatures: &[Signature]) -> Self {
        PrefilterMetrics {
            endpoints: telemetry.counter("stage2.endpoints_probed"),
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

    /// The counter of `scheme` responses on `port`: a port's family
    /// member exists once that port has answered over that scheme.
    fn responses(&self, scheme: Scheme, port: u16) -> Counter {
        let scheme = scheme.as_str();
        self.telemetry
            .counter(&format!("stage2.{scheme}_responses.{port}"))
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

    /// Probe a single endpoint over each of its port's schemes and
    /// classify it as a hit, discarded (spoke HTTP(S), matched nothing)
    /// or silent in the stage-II counters; returns the hit, if any. All
    /// matching buffers are borrowed from `scratch`: with a reused arena
    /// the multipattern pass allocates nothing.
    pub fn probe_endpoint_scratch<T: Transport>(
        &self,
        client: &Client<T>,
        ep: Endpoint,
        scratch: &mut Scratch,
    ) -> Option<PrefilterHit> {
        let mut spoke = false;
        let mut hit: Option<PrefilterHit> = None;
        self.metrics.endpoints.incr();
        for &scheme in Self::schemes_for_port(ep.port) {
            let fetched = match client.get_path(ep, scheme, "/") {
                Ok(fetched) => fetched,
                Err(e) => {
                    self.metrics.error(&e).incr();
                    continue;
                }
            };
            spoke = true;
            self.metrics.responses(scheme, ep.port).incr();
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
        match hit {
            Some(_) => self.metrics.hits.incr(),
            None if spoke => self.metrics.discarded.incr(),
            None => self.metrics.silent.incr(),
        }
        hit
    }

    /// Prefilter a batch of endpoints, one after another, borrowing all
    /// matching buffers from `scratch` (a shard worker passes the arena
    /// it keeps for its whole life). Returns the hits in endpoint order.
    pub fn run<T: Transport>(
        &self,
        client: &Client<T>,
        endpoints: &[Endpoint],
        scratch: &mut Scratch,
    ) -> Vec<PrefilterHit> {
        (endpoints.iter())
            .filter_map(|&ep| self.probe_endpoint_scratch(client, ep, scratch))
            .collect()
    }

    /// Number of loaded signatures (90 in the paper's configuration).
    pub fn signature_count(&self) -> usize {
        self.matcher.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use crate::portscan::PortScanner;
    use crate::telemetry::TelemetrySnapshot;
    use nokeys_netsim::{SimTransport, Universe, UniverseConfig};
    use std::sync::Arc;

    fn client() -> Client<SimTransport> {
        let t = SimTransport::new(Arc::new(Universe::generate(UniverseConfig::tiny(42))));
        Client::new(t)
    }

    /// Sweep the tiny universe and prefilter every open endpoint,
    /// recording stage II into a registry of its own.
    fn prefilter_tiny(
        client: &Client<SimTransport>,
    ) -> (Vec<Endpoint>, Vec<PrefilterHit>, TelemetrySnapshot) {
        let scanner = PortScanner::new(&PipelineConfig::new(vec!["20.0.0.0/16".parse().unwrap()]));
        let open = scanner.scan(client.transport());
        let telemetry = Telemetry::new();
        let hits = Prefilter::with_telemetry(&telemetry).run(client, &open, &mut Scratch::new());
        (open, hits, telemetry.snapshot())
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
        let (_, hits, snap) = prefilter_tiny(&client);

        // Every non-tarpit AWE endpoint that speaks HTTP or HTTPS must be
        // identified as a candidate.
        let universe = client.transport().universe();
        let awe_services: u64 = universe
            .hosts()
            .filter(|h| h.awe().is_some())
            .map(|h| h.services.len() as u64)
            .sum();
        assert!(
            hits.len() as u64 >= awe_services / 2,
            "most AWE endpoints hit"
        );

        // Background noise is discarded, tarpits and NotHttp are silent.
        assert!(
            snap.counter("stage2.discarded") > 0,
            "background noise present and discarded"
        );
        assert!(snap.counter("stage2.silent") > 0, "silent services present");

        // Candidate attribution is correct for each hit.
        for hit in &hits {
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
        let (open, hits, snap) = prefilter_tiny(&client);
        let probed = snap.counter("stage2.endpoints_probed");
        assert_eq!(probed, open.len() as u64);
        assert_eq!(snap.counter("stage2.hits"), hits.len() as u64);
        // Every endpoint is classified exactly once.
        assert_eq!(
            snap.counter("stage2.hits")
                + snap.counter("stage2.discarded")
                + snap.counter("stage2.silent"),
            probed
        );
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
        let responses = snap.prefixed_total("stage2.http_responses.")
            + snap.prefixed_total("stage2.https_responses.");
        assert!(responses > 0);
        assert_eq!(snap.histograms["stage2.redirects"].count, responses);
    }

    #[test]
    fn per_port_stats_accumulate() {
        let client = client();
        let (open, _, snap) = prefilter_tiny(&client);
        // Port 80 is only asked for HTTP, port 443 only for HTTPS: the
        // other scheme's counter never registers.
        assert!(snap.counter("stage2.http_responses.80") > 0);
        assert!(!snap.counters.contains_key("stage2.https_responses.80"));
        assert!(!snap.counters.contains_key("stage2.http_responses.443"));
        // Only ports that answered have a counter, and no port answers
        // a scheme more often than it has open endpoints.
        for (name, &n) in &snap.counters {
            let Some(port) = (name.strip_prefix("stage2.http_responses."))
                .or_else(|| name.strip_prefix("stage2.https_responses."))
            else {
                continue;
            };
            let port: u16 = port.parse().expect("a port number");
            assert!(n > 0, "{name} registered without a response");
            let open = open.iter().filter(|ep| ep.port == port).count() as u64;
            assert!(
                n <= open,
                "{name}: {n} responses from {open} open endpoints"
            );
        }
    }
}
