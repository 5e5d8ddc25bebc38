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
use crate::telemetry::{Buckets, Counter, ErrorCounters, Telemetry};
use nokeys_apps::AppId;
use nokeys_http::{Endpoint, Scheme, Transport, Visit};

/// A stage-II hit: an endpoint that speaks HTTP(S) and looks like one or
/// more of the studied applications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefilterHit {
    pub endpoint: Endpoint,
    /// Scheme the body was obtained over.
    pub scheme: Scheme,
    /// Candidate applications (signature matches), catalog order.
    pub candidates: Vec<AppId>,
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
    redirects: Buckets,
    body_bytes: Buckets,
    /// `stage2.error.<class>`: failed fetches.
    errors: ErrorCounters,
    /// Registers `stage2.{http,https}_responses.<port>` (Table 2's
    /// "# HTTP" / "# HTTPS") on first use.
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
            redirects: telemetry.buckets("stage2.redirects", &[0, 1, 2, 4, 8]),
            body_bytes: telemetry.buckets("stage2.body_bytes", &[256, 1024, 4096, 16384, 65536]),
            errors: ErrorCounters::new(telemetry, "stage2"),
            telemetry: telemetry.clone(),
        }
    }

    /// The counter of `scheme` responses on `port`: a port's family
    /// member exists once that port has answered over that scheme.
    fn responses(&self, scheme: Scheme, port: u16) -> Counter {
        let scheme = scheme.as_str();
        self.telemetry
            .counter(&format!("stage2.{scheme}_responses.{port}"))
    }
}

/// The candidate applications of `body`, strongest first: the catalog
/// automaton walks the body once into `scratch` (not 90 searches), and
/// the matched signatures are tallied per application and ranked.
/// `scratch.matched()` holds the matched signatures until its next use.
pub fn candidates(body: &str, scratch: &mut Scratch) -> Vec<AppId> {
    let matcher = MultiPattern::catalog();
    matcher.matched_signatures_scratch(body, scratch);
    rank_candidates(matcher.counts_from_matched(scratch.matched()))
}

/// The stage-II prefilter.
pub struct Prefilter {
    metrics: PrefilterMetrics,
    /// The match set of the body being classified, reused across every
    /// endpoint the prefilter probes.
    scratch: Scratch,
}

impl Prefilter {
    /// Build a prefilter that records probe counts and per-signature
    /// hit counts into `telemetry`.
    pub fn with_telemetry(telemetry: &Telemetry) -> Self {
        Prefilter {
            metrics: PrefilterMetrics::new(telemetry, &all_signatures()),
            scratch: Scratch::new(),
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
    /// or silent in the stage-II counters; returns the hit, if any. After
    /// the first body the multipattern pass allocates nothing.
    pub fn probe_endpoint<T: Transport>(
        &mut self,
        transport: &T,
        ep: Endpoint,
    ) -> Option<PrefilterHit> {
        let mut spoke = false;
        let mut hit: Option<PrefilterHit> = None;
        self.metrics.endpoints.incr();
        for &scheme in Self::schemes_for_port(ep.port) {
            let fetched = match Visit::new(transport, ep, scheme).get("/") {
                Ok(fetched) => fetched,
                Err(e) => {
                    self.metrics.errors.count(&e);
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
                let candidates = candidates(&body, &mut self.scratch);
                for id in self.scratch.matched().iter() {
                    self.metrics.signature_hits[id].incr();
                }
                if !candidates.is_empty() {
                    hit = Some(PrefilterHit {
                        endpoint: ep,
                        scheme,
                        candidates,
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

    /// Prefilter a batch of endpoints, one after another. Returns the
    /// hits in endpoint order.
    pub fn run<T: Transport>(
        &mut self,
        transport: &T,
        endpoints: &[Endpoint],
    ) -> Vec<PrefilterHit> {
        (endpoints.iter())
            .filter_map(|&ep| self.probe_endpoint(transport, ep))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use crate::portscan::{shuffled_blocks, sweep};
    use crate::telemetry::TelemetrySnapshot;
    use nokeys_netsim::{SimTransport, Universe, UniverseConfig};
    use std::sync::Arc;

    fn transport() -> SimTransport {
        SimTransport::new(Arc::new(Universe::generate(UniverseConfig::tiny(42))))
    }

    /// Sweep the tiny universe and prefilter every open endpoint,
    /// recording stage II into a registry of its own.
    fn prefilter_tiny(
        transport: &SimTransport,
    ) -> (Vec<Endpoint>, Vec<PrefilterHit>, TelemetrySnapshot) {
        let config = PipelineConfig::new(vec!["20.0.0.0/16".parse().unwrap()]);
        let blocks = shuffled_blocks(&config);
        let open = sweep(&config, &Telemetry::new(), transport, &blocks, None);
        let telemetry = Telemetry::new();
        let hits = Prefilter::with_telemetry(&telemetry).run(transport, &open);
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
    }

    #[test]
    fn classifies_awe_noise_and_silence() {
        let t = transport();
        let (_, hits, snap) = prefilter_tiny(&t);

        // Every non-tarpit AWE endpoint that speaks HTTP or HTTPS must be
        // identified as a candidate.
        let universe = t.universe();
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
        let (open, hits, snap) = prefilter_tiny(&transport());
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
        let redirects =
            snap.prefixed_total("stage2.redirects.") - snap.counter("stage2.redirects.sum");
        assert_eq!(redirects, responses);
    }

    #[test]
    fn per_port_stats_accumulate() {
        let (open, _, snap) = prefilter_tiny(&transport());
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
