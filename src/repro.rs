//! The experiment-regeneration harness: one entry point per table and
//! figure of the paper. Used by the `repro` binary, the examples and the
//! integration tests.

use nokeys_analysis as analysis;
use nokeys_defend::VendorFinding;
use nokeys_honeypot::{run_study, StudyConfig, StudyResult};
use nokeys_http::{Client, Transport};
use nokeys_netsim::{
    FaultLane, FaultPlan, FaultyTransport, SimTime, SimTransport, Universe, UniverseConfig,
};
use nokeys_scanner::observer::{observe, LongevityStudy, ObserverConfig};
use nokeys_scanner::{Pipeline, PipelineConfig, ScanReport, Telemetry};
use std::sync::Arc;

/// Seed of the injected-fault schedule (`--fault-rate`).
const FAULT_SEED: u64 = 0xfa17_5eed;

/// The scan's client as it answers `secs` after the scan start: the same
/// universe and fault plan, with the universe and the fault draws both
/// at that instant. The scan's own transport stays at the scan time.
fn client_at(
    scan: &FaultyTransport<SimTransport>,
) -> impl Fn(i64) -> Client<FaultyTransport<SimTransport>> + Sync + '_ {
    move |secs| Client::new(scan.at(SimTime(secs)))
}

/// Scale of a reproduction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full-shape reproduction: MAVs at paper scale (4,221 hosts),
    /// 3-hourly longevity rescans. Under ten seconds in a release
    /// build, most of it the longevity study.
    Full,
    /// Small universe and daily rescans — integration-test speed.
    Quick,
}

/// The harness: lazily runs and caches the expensive studies.
pub struct Repro {
    pub seed: u64,
    pub scale: Scale,
    /// The scan's configuration, over the universe's address space with
    /// the paper's settings. Set its fields — shards, attempts, a
    /// checkpoint path — before the first experiment runs the scan.
    /// Like fault injection, the shard count never changes an output.
    pub config: PipelineConfig,
    /// Continue the log at [`PipelineConfig::checkpoint_path`] instead of
    /// starting over (a fresh scan if there is no file there yet).
    pub resume: bool,
    universe_config: UniverseConfig,
    telemetry: Telemetry,
    fault_rate: f64,
    scan: Option<(FaultyTransport<SimTransport>, ScanReport)>,
    longevity: Option<LongevityStudy>,
    study: Option<StudyResult>,
    defenders: Option<(Vec<VendorFinding>, Vec<VendorFinding>)>,
}

impl Repro {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let universe_config = match scale {
            Scale::Full => UniverseConfig::repro(seed),
            Scale::Quick => UniverseConfig::tiny(seed),
        };
        Repro {
            seed,
            scale,
            config: PipelineConfig::new(vec![universe_config.space]),
            resume: false,
            universe_config,
            telemetry: Telemetry::new(),
            fault_rate: 0.0,
            scan: None,
            longevity: None,
            study: None,
            defenders: None,
        }
    }

    /// Inject transient faults (SYN loss + connect timeouts) into the
    /// simulated transport at this per-attempt probability. Each fate is
    /// a pure function of (lane, endpoint, instant, request target,
    /// try), so every output stays byte-identical at any shard count,
    /// in any experiment order and across a resume.
    pub fn with_fault_rate(mut self, rate: f64) -> Self {
        self.fault_rate = rate;
        self
    }

    /// The universe configuration in use.
    pub fn universe_config(&self) -> &UniverseConfig {
        &self.universe_config
    }

    /// The telemetry registry every study of this harness records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Run (or reuse) the Internet-wide scan.
    pub fn scan(&mut self) -> &(FaultyTransport<SimTransport>, ScanReport) {
        if self.scan.is_none() {
            let universe = Arc::new(Universe::generate(self.universe_config.clone()));
            let plan = FaultPlan::new(self.fault_rate, FAULT_SEED);
            let mut transport = FaultyTransport::new(SimTransport::new(universe), plan);
            if self.fault_rate > 0.0 {
                // Bridge injected faults into the telemetry registry so a
                // snapshot can reconcile them against the retry counters.
                // The scan's workers report theirs batch by batch instead
                // (and a checkpoint keeps them); this observer sees the
                // faults of the studies that reuse the scan's transport.
                let probe = self.telemetry.counter("fault.probe.injected");
                let connect = self.telemetry.counter("fault.connect.injected");
                transport.report_faults_to(Arc::new(move |lane| match lane {
                    FaultLane::Probe => probe.incr(),
                    FaultLane::Connect => connect.incr(),
                }));
            }
            let client = Client::new(transport.clone());
            // Faults or not, the report is byte-identical at any shard
            // count: no fault draw depends on what ran before it.
            let pipeline = Pipeline::new(self.config.clone(), &self.telemetry);
            // Resume when asked to and a checkpoint exists; otherwise a
            // fresh (checkpointed) run.
            let resume = self.resume
                && self
                    .config
                    .checkpoint_path
                    .as_ref()
                    .is_some_and(|p| p.exists());
            let report = if resume {
                pipeline.resume(&client)
            } else {
                pipeline.run(&client)
            }
            .unwrap_or_else(|e| panic!("scan pipeline failed: {e}"));
            self.scan = Some((transport, report));
        }
        self.scan.as_ref().expect("just initialized")
    }

    /// Run (or reuse) the four-week longevity observation.
    pub fn longevity(&mut self) -> &LongevityStudy {
        if self.longevity.is_none() {
            let interval = match self.scale {
                Scale::Full => 3 * 3600,
                Scale::Quick => 86_400,
            };
            let (transport, report) = self.scan();
            let transport = transport.clone();
            let vulnerable: Vec<_> = report.vulnerable_findings().cloned().collect();
            let config = ObserverConfig {
                interval_secs: interval,
                ..ObserverConfig::default()
            };
            let study = observe(&self.telemetry, client_at(&transport), &vulnerable, &config);
            self.longevity = Some(study);
        }
        self.longevity.as_ref().expect("just initialized")
    }

    /// Run (or reuse) the honeypot study.
    pub fn study(&mut self) -> &StudyResult {
        if self.study.is_none() {
            let config = StudyConfig {
                seed: self.seed,
                background_noise: self.scale == Scale::Full,
            };
            self.study = Some(run_study(&config));
        }
        self.study.as_ref().expect("just initialized")
    }

    /// Run (or reuse) both commercial-scanner models against a fresh
    /// honeypot fleet.
    pub fn defenders(&mut self) -> &(Vec<VendorFinding>, Vec<VendorFinding>) {
        if self.defenders.is_none() {
            let fleet = nokeys_honeypot::Fleet::deploy();
            let s1 = nokeys_defend::SCANNER1.scan_fleet(&fleet);
            let s2 = nokeys_defend::SCANNER2.scan_fleet(&fleet);
            self.defenders = Some((s1, s2));
        }
        self.defenders.as_ref().expect("just initialized")
    }

    /// Regenerate one experiment by id; returns the rendered artifact.
    pub fn run(&mut self, id: &str) -> Result<String, String> {
        let out = match id {
            "table1" => analysis::table1::build().render(),
            "table2" => {
                let divisor = self.universe_config.background_divisor;
                let (_, report) = self.scan();
                analysis::table2::build(report, divisor).render()
            }
            "table3" => {
                let (b, m) = (
                    self.universe_config.benign_divisor,
                    self.universe_config.mav_divisor,
                );
                let (_, report) = self.scan();
                analysis::table3::build(report, b, m).render()
            }
            "table4" => {
                let (transport, report) = self.scan();
                analysis::table4::build(report, transport.inner().universe().geo(), 5).render()
            }
            "fig1" => {
                let (_, report) = self.scan();
                analysis::fig1::build(report).render()
            }
            "fig2" => analysis::fig2::build(self.longevity()).render(),
            "table5" => analysis::table5::build(self.study()).render(),
            "table6" => analysis::table6::build(self.study()).render(),
            "table7" => analysis::table7::build(self.study()).render(),
            "table8" => analysis::table8::build(self.study()).render(),
            "fig3" => analysis::fig3::build(self.study()).render(),
            "fig4" => analysis::fig4::build(self.study()).render(),
            "table9" => {
                self.scan();
                self.study();
                self.defenders();
                let (_, report) = self.scan.as_ref().expect("scan cached");
                let study = self.study.as_ref().expect("study cached");
                let (s1, s2) = self.defenders.as_ref().expect("defenders cached");
                let (b, m) = (
                    self.universe_config.benign_divisor,
                    self.universe_config.mav_divisor,
                );
                analysis::table9::build(report, study, s1, s2, b, m).render()
            }
            "table10" => analysis::table10::build().render(),
            "rq2" => {
                let (_, report) = self.scan();
                analysis::rq2::build(report).render()
            }
            "longevity" => analysis::longevity_stats::build(self.longevity()).render(),
            "cases" => analysis::case_studies::build(self.study()).render(),
            "restores" => analysis::restores::build(self.study()).render(),
            "race" => analysis::race_table::build(&nokeys_defend::SCANNER2, self.study()).render(),
            "scanmodel" => {
                let (_, report) = self.scan();
                analysis::scan_model::build(report).render()
            }
            "disclosure" => {
                let (transport, report) = self.scan();
                let geo = transport.inner().universe().geo().clone();
                let findings: Vec<_> = report.vulnerable_findings().cloned().collect();
                let plan = nokeys_scanner::disclosure::plan_notifications(
                    transport,
                    &findings,
                    move |ip| {
                        geo.lookup(ip)
                            .filter(|rec| rec.asys.hosting)
                            .map(|rec| rec.asys.name.to_string())
                    },
                );
                nokeys_scanner::disclosure::render(&plan)
            }
            "ct" => {
                let (transport, _) = self.scan();
                let delay_secs = 3600;
                let sim = transport.inner();
                let entries: Vec<nokeys_scanner::ct::DomainTarget> = sim
                    .universe()
                    .ct_log()
                    .into_iter()
                    .filter(|e| e.logged_at >= nokeys_netsim::SimTime::SCAN_START)
                    .map(|e| nokeys_scanner::ct::DomainTarget {
                        domain: e.domain,
                        ip: e.ip,
                        logged_at_secs: e.logged_at.as_secs(),
                    })
                    .collect();
                let findings =
                    nokeys_scanner::ct::ct_scan(client_at(transport), &entries, delay_secs);
                analysis::ct_compare::build(sim.universe(), &findings, delay_secs).render()
            }
            _ => return Err(format!("unknown experiment id '{id}'")),
        };
        Ok(out)
    }

    /// All experiment ids, paper order.
    pub fn all_ids() -> &'static [&'static str] {
        &[
            "table1",
            "table2",
            "table3",
            "table4",
            "fig1",
            "fig2",
            "table5",
            "table6",
            "table7",
            "table8",
            "fig3",
            "fig4",
            "table9",
            "table10",
            "rq2",
            "longevity",
            "scanmodel",
            "disclosure",
            "ct",
            "cases",
            "race",
            "restores",
        ]
    }
}
