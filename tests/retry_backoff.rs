//! Cross-layer retry/backoff integration: the scanner's
//! [`RetryTransport`] stacked on netsim's fault injection, exercised
//! through the public facade the way the pipeline composes them.

use nokeys::http::{Attempt, Endpoint, Error, ProbeOutcome, Scheme, Transport, Visit};
use nokeys::netsim::{FaultPlan, FaultyTransport, SimTime, SimTransport, Universe, UniverseConfig};
use nokeys::scanner::{Pipeline, PipelineConfig, RetryTransport, Telemetry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The first few AWE endpoints of the universe, in address order, that
/// answer plain HTTP, discovered behaviourally through a fault-free
/// transport. (`Universe::hosts` iterates a hash map, whose order
/// changes from one process to the next.)
fn open_http_endpoints(universe: &Arc<Universe>, want: usize) -> Vec<Endpoint> {
    let clean = SimTransport::new(Arc::clone(universe));
    let mut hosts: Vec<_> = universe.hosts().collect();
    hosts.sort_by_key(|h| h.ip);
    let mut found = Vec::new();
    for host in hosts {
        let Some((service, _)) = host.awe() else {
            continue;
        };
        let ep = Endpoint::new(host.ip, service.port);
        let first = Attempt::FIRST;
        if clean.probe(ep, first) == ProbeOutcome::Open
            && clean.connect(ep, Scheme::Http, first).is_ok()
        {
            found.push(ep);
            if found.len() == want {
                break;
            }
        }
    }
    assert_eq!(found.len(), want, "tiny universe lacks HTTP AWE hosts");
    found
}

/// `universe` behind the fault layer, failing attempts at `rate`.
fn faulty(universe: &Arc<Universe>, rate: f64) -> FaultyTransport<SimTransport> {
    FaultyTransport::new(
        SimTransport::new(Arc::clone(universe)),
        FaultPlan::new(rate, 0xfa17_5eed),
    )
}

/// `t` reporting its injected faults to a count of their own, through
/// the hook the scan engine uses for `fault.*`.
fn counted(
    mut t: FaultyTransport<SimTransport>,
) -> (FaultyTransport<SimTransport>, Arc<AtomicU64>) {
    let injected = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&injected);
    t.report_faults_to(Arc::new(move |_| {
        seen.fetch_add(1, Ordering::Relaxed);
    }));
    (t, injected)
}

/// SYN loss injected at 25% is invisible behind a generous retry
/// budget, and every injected fault shows up as exactly one retry. The
/// rounds are a minute apart: a repeat at one instant would repeat its
/// fate.
#[test]
fn retrying_probe_masks_injected_syn_loss() {
    let universe = Arc::new(Universe::generate(UniverseConfig::tiny(3)));
    let ep = open_http_endpoints(&universe, 1)[0];
    let telemetry = Telemetry::new();
    let (faulty, injected) = counted(faulty(&universe, 0.25));
    for round in 0..40 {
        let at = faulty.at(SimTime(round * 60));
        let t = RetryTransport::new(at, 8, Duration::ZERO, &telemetry);
        assert_eq!(
            t.probe(ep, Attempt::FIRST),
            ProbeOutcome::Open,
            "round {round}"
        );
    }
    let snap = telemetry.snapshot();
    let injected = injected.load(Ordering::Relaxed);
    assert!(injected > 0, "40 probes at 25% must inject something");
    // Every probe above came back Open, so no budget was exhausted:
    // each injected drop corresponds to exactly one retry.
    assert_eq!(snap.counter("retry.probe.retries"), injected);
    assert_eq!(snap.counter("retry.probe.exhausted"), 0);
    assert!(snap.counter("retry.probe.recovered") > 0);
}

/// A visit through the retry transport completes whole fetches
/// through injected connect timeouts, one fetch a minute.
#[test]
fn retrying_client_fetches_through_connect_timeouts() {
    let universe = Arc::new(Universe::generate(UniverseConfig::tiny(3)));
    let ep = open_http_endpoints(&universe, 1)[0];
    let telemetry = Telemetry::new();
    let faulty = faulty(&universe, 0.25);
    for round in 0..20 {
        let at = faulty.at(SimTime(round * 60));
        let retrying = RetryTransport::new(at, 8, Duration::ZERO, &telemetry);
        let fetched = Visit::new(&retrying, ep, Scheme::Http).get("/");
        assert!(fetched.is_ok(), "round {round}: {fetched:?}");
    }
    let snap = telemetry.snapshot();
    assert!(snap.counter("retry.connect.retries") > 0);
    assert_eq!(
        snap.counter("retry.connect.exhausted"),
        0,
        "8 attempts at 25% do not exhaust"
    );
    assert!(snap.counter("retry.connect.backoff_units") > 0);
}

/// Two identically-seeded fault stacks draw identical per-endpoint
/// schedules even when their probe calls interleave differently — the
/// property the whole retry stack inherits its shard-count independence
/// from, checked here all the way up through the telemetry snapshot.
/// Each of an endpoint's 16 probes is a later try of a caller's retry
/// loop, so each draws a fate of its own.
#[test]
fn fault_draws_are_order_independent_across_the_retry_stack() {
    let universe = Arc::new(Universe::generate(UniverseConfig::tiny(5)));
    let eps = open_http_endpoints(&universe, 2);
    let (a, b) = (eps[0], eps[1]);

    let stack = |u: &Arc<Universe>| {
        let telemetry = Telemetry::new();
        let (faulty, injected) = counted(faulty(u, 0.5));
        let t = RetryTransport::new(faulty, 3, Duration::ZERO, &telemetry);
        (t, telemetry, injected)
    };
    let (t1, tel1, injected1) = stack(&universe);
    let (t2, tel2, injected2) = stack(&universe);

    // Stack 1: all of a's probes, then all of b's.
    let mut a1 = Vec::new();
    let mut b1 = Vec::new();
    let nth = |n: u32| Attempt { target: "", n };
    for i in 0..16 {
        a1.push(t1.probe(a, nth(i)));
    }
    for i in 0..16 {
        b1.push(t1.probe(b, nth(i)));
    }
    // Stack 2: strictly interleaved, b first.
    let mut a2 = Vec::new();
    let mut b2 = Vec::new();
    for i in 0..16 {
        b2.push(t2.probe(b, nth(i)));
        a2.push(t2.probe(a, nth(i)));
    }

    assert_eq!(a1, a2, "endpoint a's schedule depended on interleaving");
    assert_eq!(b1, b2, "endpoint b's schedule depended on interleaving");
    assert_eq!(
        injected1.load(Ordering::Relaxed),
        injected2.load(Ordering::Relaxed)
    );
    assert_eq!(tel1.snapshot().to_json(), tel2.snapshot().to_json());
}

/// The facade-level contract the retry layer is built on: which errors
/// are worth retrying, and how the configuration clamps its budget.
#[test]
fn transient_classification_drives_the_retry_budget() {
    assert!(Error::Timeout.is_transient());
    assert!(Error::UnexpectedEof.is_transient());
    assert!(Error::Io("reset".into()).is_transient());
    assert!(!Error::Connect("refused".into()).is_transient());
    assert!(!Error::Malformed("bad status line").is_transient());
    // A budget of 0 is the one try a budget of 1 is.
    let budget = |max_attempts| {
        let config = PipelineConfig {
            max_attempts,
            ..PipelineConfig::new(Vec::new())
        };
        config.fingerprint()
    };
    assert_eq!(budget(0), budget(1));
    assert_ne!(budget(1), PipelineConfig::new(Vec::new()).fingerprint());
}

/// `max_attempts` 1 means "one attempt, no retries" at the pipeline
/// config level, and a retry-less fault-free pipeline still
/// scans clean — the config plumbing does not disturb the report.
#[test]
fn pipeline_retry_knob_plumbs_through() {
    let config = UniverseConfig::tiny(8);
    let universe = Arc::new(Universe::generate(config.clone()));
    let run = |retries: u32, u: Arc<Universe>| {
        let config = PipelineConfig {
            max_attempts: retries,
            ..PipelineConfig::new(vec![config.space])
        };
        let pipeline = Pipeline::new(config, &Telemetry::new());
        let report = pipeline
            .run(&SimTransport::new(u))
            .expect("pipeline failed");
        report.to_json_string()
    };
    let without = run(1, Arc::clone(&universe));
    let with = run(3, universe);
    assert_eq!(without, with, "retries are a no-op on a clean network");
}

/// A service that answers with another protocol's banner has given a
/// definite answer: the scan takes it once per scheme tried and retries
/// nothing, whatever the budget.
#[test]
fn a_banner_host_is_connected_to_once_per_scheme() {
    use nokeys::apps::background::BackgroundKind;
    use nokeys::netsim::ServiceKind;
    use nokeys::scanner::Prefilter;

    let universe = Arc::new(Universe::generate(UniverseConfig::tiny(42)));
    let banner = ServiceKind::Background(BackgroundKind::NotHttp);
    let (ip, port) = universe
        .hosts()
        .filter(|h| !h.tarpit && h.services.len() == 1 && h.services[0].kind == banner)
        .map(|h| (h.ip, h.services[0].port))
        .min()
        .expect("tiny universe has a banner-only host");

    let transport = SimTransport::new(Arc::clone(&universe));
    let telemetry = Telemetry::new();
    let pipeline = Pipeline::new(
        PipelineConfig::new(vec![format!("{ip}/32").parse().expect("cidr")]),
        &telemetry,
    );
    let report = pipeline.run(&transport).expect("pipeline failed");
    assert_eq!(report.prefilter_silent, 1, "open, but not HTTP");
    assert!(report.findings.is_empty());

    let schemes = Prefilter::schemes_for_port(port).len() as u64;
    assert_eq!(transport.stats().connects(), schemes);
    let snap = telemetry.snapshot();
    for lane in ["probe", "connect"] {
        assert_eq!(snap.counter(&format!("retry.{lane}.retries")), 0, "{lane}");
        assert_eq!(
            snap.counter(&format!("retry.{lane}.exhausted")),
            0,
            "{lane}"
        );
    }
}

/// Counts every dial and times each one out; probes see the simulator.
#[derive(Clone)]
struct Unreachable {
    inner: SimTransport,
    dials: Arc<AtomicU64>,
}

impl Transport for Unreachable {
    type Conn = <SimTransport as Transport>::Conn;

    fn probe(&self, ep: Endpoint, attempt: Attempt<'_>) -> ProbeOutcome {
        self.inner.probe(ep, attempt)
    }

    fn connect(&self, _: Endpoint, _: Scheme, _: Attempt<'_>) -> Result<Self::Conn, Error> {
        self.dials.fetch_add(1, Ordering::Relaxed);
        Err(Error::Timeout)
    }
}

/// One retry loop per dial: a stage-II fetch whose every connect times
/// out costs `max_attempts` dials per scheme, as every other stage's
/// operations do, not a retry budget nested inside another.
#[test]
fn a_stage_two_fetch_dials_at_most_max_attempts_times() {
    let universe = Arc::new(Universe::generate(UniverseConfig::tiny(3)));
    let ep = open_http_endpoints(&universe, 1)[0];
    let dials = Arc::new(AtomicU64::new(0));
    let transport = Unreachable {
        inner: SimTransport::new(Arc::clone(&universe)),
        dials: Arc::clone(&dials),
    };
    let telemetry = Telemetry::new();
    let config = PipelineConfig {
        ports: vec![ep.port],
        max_attempts: 3,
        ..PipelineConfig::new(vec![format!("{}/32", ep.ip).parse().expect("cidr")])
    };
    let pipeline = Pipeline::new(config, &telemetry);
    let report = pipeline.run(&transport).expect("pipeline failed");
    assert_eq!(report.prefilter_silent, 1, "open, but never answered");

    let schemes = nokeys::scanner::Prefilter::schemes_for_port(ep.port).len() as u64;
    assert_eq!(dials.load(Ordering::Relaxed), 3 * schemes);
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("retry.connect.retries"), 2 * schemes);
    assert_eq!(snap.counter("retry.connect.exhausted"), schemes);
    assert_eq!(snap.counter("stage2.error.timeout"), schemes);
}
