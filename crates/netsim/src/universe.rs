//! The synthetic IPv4 universe: population generation and request
//! dispatch.

use crate::calibration::{APP_POPULATIONS, PORT_POPULATIONS};
use crate::clock::SimTime;
use crate::geo::{pick_weighted, GeoDb, GeoRecord, HOSTING_MIX};
use crate::host::{Host, SchemeSupport, Service, ServiceKind};
use crate::ip::Cidr;
use crate::lifecycle::{HostState, LifecycleParams, LifecyclePlan};
use crate::rng::SplitMix64;
use nokeys_apps::background::BackgroundKind;
use nokeys_apps::catalog::DefaultPosture;
use nokeys_apps::{build_instance, AppConfig, AppId, Category};
use nokeys_http::{Endpoint, ProbeOutcome, Request, Response, Scheme};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Universe generation parameters.
#[derive(Debug, Clone)]
pub struct UniverseConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Address block hosts are placed in (must be large enough).
    pub space: Cidr,
    /// Divisor applied to Table 3's *benign* (non-MAV) host counts.
    pub benign_divisor: u64,
    /// Divisor applied to Table 3's MAV counts (1 = paper scale).
    pub mav_divisor: u64,
    /// Divisor applied to Table 2's background port populations
    /// (0 disables background noise entirely).
    pub background_divisor: u64,
    /// Number of "all ports open" artifact hosts (paper: 3.0M, excluded
    /// from its results).
    pub tarpit_hosts: u64,
    /// Shared-hosting machines serving name-based virtual hosts
    /// (§6.2 "Under counting": invisible to an IP-based scan).
    pub shared_hosts: u64,
    /// Virtual hosts per shared machine.
    pub vhosts_per_host: u64,
}

impl UniverseConfig {
    /// Full-shape reproduction: MAV population at paper scale (4,221
    /// hosts), benign AWE population at 1:100, background noise at
    /// 1:2000, inside a /12 (~1M addresses).
    pub fn repro(seed: u64) -> Self {
        UniverseConfig {
            seed,
            space: "20.0.0.0/12".parse().expect("static CIDR"),
            benign_divisor: 100,
            mav_divisor: 1,
            background_divisor: 2000,
            tarpit_hosts: 1500,
            shared_hosts: 150,
            vhosts_per_host: 8,
        }
    }

    /// Small universe for unit/integration tests (~a few hundred hosts
    /// in a /16).
    pub fn tiny(seed: u64) -> Self {
        UniverseConfig {
            seed,
            space: "20.0.0.0/16".parse().expect("static CIDR"),
            benign_divisor: 20_000,
            mav_divisor: 50,
            background_divisor: 500_000,
            tarpit_hosts: 5,
            shared_hosts: 6,
            vhosts_per_host: 4,
        }
    }
}

/// What a connection attempt yields at the message level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectBehavior {
    /// Normal HTTP service.
    Http,
    /// Accepts the connection but answers with a non-HTTP banner.
    Garbage(&'static [u8]),
    /// Accepts the connection and closes without sending anything.
    Silent,
}

/// The generated universe.
pub struct Universe {
    config: UniverseConfig,
    hosts: HashMap<u32, Host>,
    /// Populated addresses in ascending order — the index behind
    /// `SimTransport`'s live addresses. Built once at generation time; the host map never changes
    /// afterwards (lifecycle events mutate hosts in place).
    sorted_ips: Vec<u32>,
    geo: GeoDb,
}

impl Universe {
    /// Generate the population from `config`. Deterministic in
    /// `config.seed`.
    pub fn generate(config: UniverseConfig) -> Universe {
        let mut rng = SplitMix64::new(config.seed);
        let mut hosts: HashMap<u32, Host> = HashMap::new();
        let mut geo = GeoDb::new();

        let alloc_ip = |rng: &mut SplitMix64, hosts: &HashMap<u32, Host>| -> Ipv4Addr {
            loop {
                let offset = rng.below(config.space.size()) as u32;
                let ip = config.space.base + offset;
                if !hosts.contains_key(&ip) {
                    return Ipv4Addr::from(ip);
                }
            }
        };

        // --- AWE hosts (Table 3 populations) ---
        for pop in &APP_POPULATIONS {
            let n_vuln = scale(pop.mavs, config.mav_divisor);
            let n_secure = scale(pop.hosts - pop.mavs, config.benign_divisor);
            for vulnerable in
                std::iter::repeat_n(true, n_vuln).chain(std::iter::repeat_n(false, n_secure))
            {
                let ip = alloc_ip(&mut rng, &hosts);
                let host = make_awe_host(&mut rng, ip, pop.app, vulnerable);
                let draw = rng.next_u32();
                let (country, asys) = pick_weighted(HOSTING_MIX, draw);
                geo.insert(ip, GeoRecord { country, asys });
                hosts.insert(u32::from(ip), host);
            }
        }

        // --- Background noise (Table 2 populations) ---
        if config.background_divisor > 0 {
            for port_pop in &PORT_POPULATIONS {
                let n_open = scale(port_pop.open, config.background_divisor);
                let n_http = scale(port_pop.http, config.background_divisor);
                let n_https = scale(port_pop.https, config.background_divisor);
                let n_both = (n_http + n_https)
                    .saturating_sub(n_open)
                    .min(n_http.min(n_https));
                let n_http_only = n_http - n_both;
                let n_https_only = n_https - n_both;
                let n_silent = n_open.saturating_sub(n_http_only + n_https_only + n_both);

                let mut specs = Vec::with_capacity(n_open);
                specs.extend(std::iter::repeat_n(SchemeSupport::Both, n_both));
                specs.extend(std::iter::repeat_n(SchemeSupport::HttpOnly, n_http_only));
                specs.extend(std::iter::repeat_n(SchemeSupport::HttpsOnly, n_https_only));
                for schemes in specs {
                    let ip = alloc_ip(&mut rng, &hosts);
                    let kind = background_kind(&mut rng);
                    let mut host = Host::new(
                        ip,
                        vec![Service {
                            port: port_pop.port,
                            kind: ServiceKind::Background(kind),
                            schemes,
                        }],
                    );
                    if schemes.supports_https() && rng.unit() < 0.5 {
                        host.cert_domain = Some(format!("host-{}.example.net", u32::from(ip)));
                    }
                    hosts.insert(u32::from(ip), host);
                }
                for _ in 0..n_silent {
                    let ip = alloc_ip(&mut rng, &hosts);
                    let host = Host::new(
                        ip,
                        vec![Service {
                            port: port_pop.port,
                            kind: ServiceKind::Background(BackgroundKind::NotHttp),
                            schemes: SchemeSupport::Both,
                        }],
                    );
                    hosts.insert(u32::from(ip), host);
                }
            }
        }

        // --- Shared hosting (name-based virtual hosts, §6.2) ---
        for _ in 0..config.shared_hosts {
            let ip = alloc_ip(&mut rng, &hosts);
            let host = make_shared_host(&mut rng, ip, config.vhosts_per_host);
            hosts.insert(u32::from(ip), host);
        }

        // --- Tarpits ("all ports open" artifacts) ---
        for _ in 0..config.tarpit_hosts {
            let ip = alloc_ip(&mut rng, &hosts);
            let mut host = Host::new(ip, Vec::new());
            host.tarpit = true;
            hosts.insert(u32::from(ip), host);
        }

        let mut sorted_ips: Vec<u32> = hosts.keys().copied().collect();
        sorted_ips.sort_unstable();

        Universe {
            config,
            hosts,
            sorted_ips,
            geo,
        }
    }

    /// Generation parameters.
    pub fn config(&self) -> &UniverseConfig {
        &self.config
    }

    /// Geo metadata service.
    pub fn geo(&self) -> &GeoDb {
        &self.geo
    }

    /// All hosts (iteration order is unspecified).
    pub fn hosts(&self) -> impl Iterator<Item = &Host> {
        self.hosts.values()
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// The host at `ip`.
    pub fn host(&self, ip: Ipv4Addr) -> Option<&Host> {
        self.hosts.get(&u32::from(ip))
    }

    /// Populated addresses inside `block`, ascending. A binary-search
    /// range query over the sorted index; `SimTransport` hands it to the
    /// stage-I sweep as the block's live addresses, so only real hosts
    /// are probed and the empty remainder is counted, not visited.
    pub fn populated_in(&self, block: Cidr) -> &[u32] {
        let first = block.base;
        let last = u32::from(block.last());
        let lo = self.sorted_ips.partition_point(|&ip| ip < first);
        let hi = self.sorted_ips.partition_point(|&ip| ip <= last);
        &self.sorted_ips[lo..hi]
    }

    /// Hosts whose AWE is vulnerable at deployment time.
    pub fn vulnerable_hosts(&self) -> impl Iterator<Item = &Host> {
        self.hosts().filter(|h| h.is_vulnerable_at_deploy())
    }

    /// SYN-probe `ep` at virtual time `at`.
    pub fn probe(&self, ep: Endpoint, at: SimTime) -> ProbeOutcome {
        let Some(host) = self.hosts.get(&u32::from(ep.ip)) else {
            return ProbeOutcome::Closed;
        };
        if host.lifecycle.state_at(at) == HostState::Offline {
            // Firewalled / shut down: drops, not RSTs.
            return ProbeOutcome::Filtered;
        }
        if host.tarpit {
            return ProbeOutcome::Open;
        }
        match host.service_on(ep.port) {
            Some(_) => ProbeOutcome::Open,
            None => ProbeOutcome::Closed,
        }
    }

    /// Determine connection-level behaviour (used by the transport).
    pub fn connect_behavior(
        &self,
        ep: Endpoint,
        scheme: Scheme,
        at: SimTime,
    ) -> Result<ConnectBehavior, nokeys_http::Error> {
        let Some(host) = self.hosts.get(&u32::from(ep.ip)) else {
            return Err(nokeys_http::Error::Connect("connection refused".into()));
        };
        if host.lifecycle.state_at(at) == HostState::Offline {
            return Err(nokeys_http::Error::Timeout);
        }
        if host.tarpit {
            return Ok(ConnectBehavior::Silent);
        }
        let Some(service) = host.service_on(ep.port) else {
            return Err(nokeys_http::Error::Connect("connection refused".into()));
        };
        let supported = match scheme {
            Scheme::Http => service.schemes.supports_http(),
            Scheme::Https => service.schemes.supports_https(),
        };
        if !supported {
            // Wrong scheme: the TLS handshake fails / plain HTTP gets a
            // TLS alert. Either way the client sees a connect error.
            return Err(nokeys_http::Error::Connect("handshake failed".into()));
        }
        match &service.kind {
            ServiceKind::Background(BackgroundKind::NotHttp) => Ok(ConnectBehavior::Garbage(
                b"SSH-2.0-OpenSSH_8.2p1 Ubuntu-4ubuntu0.2\r\n",
            )),
            _ => Ok(ConnectBehavior::Http),
        }
    }

    /// Serve one request against `ep` at time `at`.
    ///
    /// Instances are materialized per request: the Internet-wide scan only
    /// issues safe `GET`s, so state changes never need to persist here
    /// (honeypots, which do need persistent state, own their instances —
    /// see `nokeys-honeypot`).
    pub fn respond(&self, ep: Endpoint, req: &Request, peer: Ipv4Addr, at: SimTime) -> Response {
        let Some(host) = self.hosts.get(&u32::from(ep.ip)) else {
            return Response::new(nokeys_http::StatusCode::SERVICE_UNAVAILABLE);
        };
        // Name-based virtual-host dispatch: a matching `Host` header on
        // port 80/443 selects the named site instead of the default one.
        if !host.vhosts.is_empty() && (ep.port == 80 || ep.port == 443) {
            if let Some(requested) = req.headers.get("host") {
                let name = requested.split(':').next().unwrap_or(requested);
                if let Some(vhost) = host.vhosts.iter().find(|v| v.domain == name) {
                    return self.respond_vhost(vhost, req, peer, at);
                }
            }
        }
        let Some(service) = host.service_on(ep.port) else {
            return Response::new(nokeys_http::StatusCode::SERVICE_UNAVAILABLE);
        };
        match &service.kind {
            ServiceKind::Background(kind) => kind.handle(req, peer),
            ServiceKind::Awe {
                app,
                version_index,
                config,
            } => {
                let state = host.lifecycle.state_at(at);
                let mut version_index = *version_index;
                if host.lifecycle.updated_by(at) {
                    version_index = nokeys_apps::version::history(*app).len() - 1;
                }
                let version = nokeys_apps::version_at(*app, version_index);
                let config = if state == HostState::Fixed {
                    AppConfig::secure_for(*app, &version)
                } else {
                    *config
                };
                let mut instance = build_instance(*app, version, config);
                instance.handle(req, peer).response
            }
        }
    }

    /// Serve a request for a named virtual host.
    fn respond_vhost(
        &self,
        vhost: &crate::vhost::VirtualHost,
        req: &Request,
        peer: Ipv4Addr,
        at: SimTime,
    ) -> Response {
        use crate::vhost::VhostState;
        let version = nokeys_apps::version_at(vhost.app, vhost.version_index);
        match vhost.state_at(at) {
            VhostState::NotRegistered => Response::not_found(),
            VhostState::PreInstall => {
                let config = AppConfig::vulnerable_for(vhost.app, &version);
                let mut instance = build_instance(vhost.app, version, config);
                instance.handle(req, peer).response
            }
            VhostState::Installed => {
                let config = AppConfig::secure_for(vhost.app, &version);
                let mut instance = build_instance(vhost.app, version, config);
                instance.handle(req, peer).response
            }
        }
    }

    /// The Certificate-Transparency log: one entry per virtual host,
    /// published when the certificate is issued at registration.
    pub fn ct_log(&self) -> Vec<crate::vhost::CtEntry> {
        let mut entries: Vec<crate::vhost::CtEntry> = self
            .hosts
            .values()
            .flat_map(|h| {
                h.vhosts.iter().map(|v| crate::vhost::CtEntry {
                    domain: v.domain.clone(),
                    ip: h.ip,
                    logged_at: v.registered_at,
                })
            })
            .collect();
        entries.sort_by(|a, b| (a.logged_at, &a.domain).cmp(&(b.logged_at, &b.domain)));
        entries
    }

    /// All virtual hosts with their machines (ground truth for the CT
    /// study).
    pub fn vhosts(&self) -> impl Iterator<Item = (&Host, &crate::vhost::VirtualHost)> {
        self.hosts
            .values()
            .flat_map(|h| h.vhosts.iter().map(move |v| (h, v)))
    }
}

fn scale(count: u64, divisor: u64) -> usize {
    if divisor == 0 {
        return 0;
    }
    let scaled = count / divisor;
    // Keep at least one representative of non-empty populations so tiny
    // universes still contain every species.
    if scaled == 0 && count > 0 {
        1
    } else {
        scaled as usize
    }
}

fn background_kind(rng: &mut SplitMix64) -> BackgroundKind {
    match rng.below(100) {
        0..=34 => BackgroundKind::NginxDefault,
        35..=59 => BackgroundKind::ApacheDefault,
        60..=79 => BackgroundKind::StaticSite,
        80..=89 => BackgroundKind::JsonApi,
        _ => BackgroundKind::RedirectToHttps,
    }
}

/// Sample a version index skewed by category recency (RQ2: CMSes run the
/// newest software, control panels the oldest).
fn sample_version_index(rng: &mut SplitMix64, app: AppId, len: usize) -> usize {
    let alpha = match app.info().category {
        Category::Cms => 8.0,
        Category::Ci | Category::Cm => 3.0,
        Category::Nb => 1.5,
        Category::Cp => 1.0,
    };
    let u = rng.unit();
    let frac = 1.0 - u.powf(alpha);
    ((frac * len as f64) as usize).min(len - 1)
}

fn make_awe_host(rng: &mut SplitMix64, ip: Ipv4Addr, app: AppId, vulnerable: bool) -> Host {
    let history = nokeys_apps::version::history(app);
    let posture = app
        .info()
        .default_posture
        .expect("AWE populations are in-scope apps");

    let (version_index, config) = if vulnerable {
        match posture {
            DefaultPosture::ChangedOverTime { .. } => {
                let last_insecure =
                    nokeys_apps::version::last_insecure_index(app).expect("changed-over-time app");
                if rng.unit() < 0.8 {
                    // Old version still running factory defaults (the
                    // "80% of vulnerable notebooks are ancient" finding).
                    let idx = rng.below(last_insecure as u64 + 1) as usize;
                    (idx, AppConfig::default_for(app, &history[idx]))
                } else {
                    // Recent version explicitly misconfigured (the
                    // StackOverflow empty-password workaround). Products
                    // whose fix cannot be misconfigured away (Joomla's
                    // ownership proof, Adminer's hard rejection) fall back
                    // to an old version.
                    let idx = rng.range(last_insecure as u64 + 1..history.len() as u64) as usize;
                    let cfg = AppConfig::vulnerable_for(app, &history[idx]);
                    if cfg.is_vulnerable(app, &history[idx]) {
                        (idx, cfg)
                    } else {
                        let idx = rng.below(last_insecure as u64 + 1) as usize;
                        (idx, AppConfig::default_for(app, &history[idx]))
                    }
                }
            }
            DefaultPosture::InsecureByDefault => {
                let idx = sample_version_index(rng, app, history.len());
                (idx, AppConfig::vulnerable_for(app, &history[idx]))
            }
            DefaultPosture::SecureByDefault => {
                let idx = sample_version_index(rng, app, history.len());
                (idx, AppConfig::vulnerable_for(app, &history[idx]))
            }
        }
    } else {
        let idx = sample_version_index(rng, app, history.len());
        (idx, AppConfig::secure_for(app, &history[idx]))
    };

    let version = history[version_index];
    debug_assert_eq!(
        config.is_vulnerable(app, &version),
        vulnerable,
        "{app} generation must hit the requested vulnerability state"
    );

    let mut services = Vec::new();
    let ports = app.scan_ports();
    if ports == [80, 443] {
        services.push(Service {
            port: 80,
            kind: ServiceKind::Awe {
                app,
                version_index,
                config,
            },
            schemes: SchemeSupport::HttpOnly,
        });
        services.push(Service {
            port: 443,
            kind: ServiceKind::Awe {
                app,
                version_index,
                config,
            },
            schemes: SchemeSupport::HttpsOnly,
        });
    } else {
        let schemes = match rng.below(100) {
            0..=84 => SchemeSupport::HttpOnly,
            85..=94 => SchemeSupport::Both,
            _ => SchemeSupport::HttpsOnly,
        };
        services.push(Service {
            port: ports[0],
            kind: ServiceKind::Awe {
                app,
                version_index,
                config,
            },
            schemes,
        });
    }

    let mut host = Host::new(ip, services);
    if rng.unit() < 0.4 {
        host.cert_domain = Some(format!("srv-{}.example.org", u32::from(ip)));
    }
    if vulnerable {
        let params = LifecycleParams::for_category(app.info().category);
        let insecure_default = !config.is_modified_from_default(app, &version);
        host.lifecycle = params.sample(rng, insecure_default);
    } else {
        host.lifecycle = LifecyclePlan::static_online();
    }
    host
}

/// Build a shared-hosting machine: a hosting placeholder on 80/443 plus
/// `n_vhosts` name-based CMS sites. Roughly a third of the sites are
/// *freshly registered* during the observation window — the population
/// the CT-watching attacker races for.
fn make_shared_host(rng: &mut SplitMix64, ip: Ipv4Addr, n_vhosts: u64) -> Host {
    use crate::clock::SimDuration;
    let mut host = Host::new(
        ip,
        vec![
            Service {
                port: 80,
                kind: ServiceKind::Background(BackgroundKind::StaticSite),
                schemes: SchemeSupport::HttpOnly,
            },
            Service {
                port: 443,
                kind: ServiceKind::Background(BackgroundKind::StaticSite),
                schemes: SchemeSupport::HttpsOnly,
            },
        ],
    );
    host.cert_domain = Some(format!("shared-{}.hosting.example", u32::from(ip)));
    let cms = [AppId::WordPress, AppId::Joomla, AppId::Drupal, AppId::Grav];
    for i in 0..n_vhosts {
        let app = cms[rng.below(cms.len() as u64) as usize];
        let history_len = nokeys_apps::version::history(app).len();
        let version_index = history_len - 1 - rng.below(3.min(history_len) as u64) as usize;
        let fresh = rng.unit() < 0.34;
        let (registered_at, install_delay) = if fresh {
            // Registered somewhere inside the four-week window; the owner
            // completes the installation hours to days later.
            let reg = SimTime::SCAN_START + SimTime::OBSERVATION.mul_f64(rng.unit() * 0.9);
            let delay = SimDuration::hours(1 + rng.below(72) as i64);
            (reg, delay)
        } else {
            // Long-established site, installed well before the study.
            (
                SimTime::SCAN_START - SimDuration::days(rng.range(30..720) as i64),
                SimDuration::hours(2),
            )
        };
        host.vhosts.push(crate::vhost::VirtualHost {
            domain: format!("site-{}-{}.example.org", u32::from(ip), i),
            app,
            version_index,
            registered_at,
            installed_at: registered_at + install_delay,
        });
    }
    host
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Universe {
        Universe::generate(UniverseConfig::tiny(42))
    }

    #[test]
    fn populated_in_matches_a_linear_scan() {
        let u = tiny();
        // The whole space, block by block, reconciles with the host map
        // and comes back in ascending order.
        let mut total = 0usize;
        for block in u.config().space.slash24_blocks() {
            let populated = u.populated_in(block);
            assert!(populated.windows(2).all(|w| w[0] < w[1]));
            let expected: Vec<u32> = block
                .addresses()
                .map(u32::from)
                .filter(|ip| u.host(Ipv4Addr::from(*ip)).is_some())
                .collect();
            assert_eq!(populated, expected.as_slice());
            total += populated.len();
        }
        assert_eq!(total, u.host_count());
        // A block outside the space is empty.
        let outside: Cidr = "198.51.100.0/24".parse().unwrap();
        assert!(u.populated_in(outside).is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.host_count(), b.host_count());
        let mut ips_a: Vec<u32> = a.hosts().map(|h| u32::from(h.ip)).collect();
        let mut ips_b: Vec<u32> = b.hosts().map(|h| u32::from(h.ip)).collect();
        ips_a.sort();
        ips_b.sort();
        assert_eq!(ips_a, ips_b);
        for ip in ips_a.iter().take(50) {
            let ha = a.host(Ipv4Addr::from(*ip)).unwrap();
            let hb = b.host(Ipv4Addr::from(*ip)).unwrap();
            assert_eq!(ha.services, hb.services);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Universe::generate(UniverseConfig::tiny(1));
        let b = Universe::generate(UniverseConfig::tiny(2));
        let ips_a: std::collections::BTreeSet<u32> = a.hosts().map(|h| u32::from(h.ip)).collect();
        let ips_b: std::collections::BTreeSet<u32> = b.hosts().map(|h| u32::from(h.ip)).collect();
        assert_ne!(ips_a, ips_b);
    }

    #[test]
    fn every_app_species_is_present() {
        let u = tiny();
        for app in AppId::in_scope() {
            let found = u.hosts().any(|h| h.awe().map(|(_, a)| a) == Some(app));
            assert!(found, "{app} missing from tiny universe");
        }
    }

    #[test]
    fn vulnerable_counts_scale() {
        let u = tiny();
        // Docker: 657 MAVs / 50 = 13 expected vulnerable docker hosts.
        let docker_vuln = u
            .vulnerable_hosts()
            .filter(|h| h.awe().map(|(_, a)| a) == Some(AppId::Docker))
            .count();
        assert_eq!(docker_vuln, 13);
        // Ajenti has 0 MAVs.
        let ajenti_vuln = u
            .vulnerable_hosts()
            .filter(|h| h.awe().map(|(_, a)| a) == Some(AppId::Ajenti))
            .count();
        assert_eq!(ajenti_vuln, 0);
    }

    #[test]
    fn probe_and_respond_work_end_to_end() {
        let u = tiny();
        let host = u
            .vulnerable_hosts()
            .find(|h| h.awe().map(|(_, a)| a) == Some(AppId::Hadoop))
            .expect("tiny universe has a vulnerable hadoop");
        let ep = Endpoint::new(host.ip, 8088);
        assert_eq!(u.probe(ep, SimTime::SCAN_START), ProbeOutcome::Open);
        assert_eq!(
            u.probe(Endpoint::new(host.ip, 81), SimTime::SCAN_START),
            ProbeOutcome::Closed
        );
        let resp = u.respond(
            ep,
            &Request::get("/cluster/cluster"),
            Ipv4Addr::new(198, 51, 100, 1),
            SimTime::SCAN_START,
        );
        assert!(resp.body_text().to_lowercase().contains("dr.who"));
    }

    #[test]
    fn empty_space_probes_closed() {
        let u = tiny();
        // Find an unpopulated address inside the space.
        let mut candidate = u32::from(Ipv4Addr::new(20, 0, 200, 200));
        while u.host(Ipv4Addr::from(candidate)).is_some() {
            candidate += 1;
        }
        let ep = Endpoint::new(Ipv4Addr::from(candidate), 80);
        assert_eq!(u.probe(ep, SimTime::SCAN_START), ProbeOutcome::Closed);
    }

    #[test]
    fn tarpits_answer_every_port() {
        let u = tiny();
        let tarpit = u
            .hosts()
            .find(|h| h.tarpit)
            .expect("tiny universe has tarpits");
        for port in nokeys_apps::SCAN_PORTS {
            assert_eq!(
                u.probe(Endpoint::new(tarpit.ip, port), SimTime::SCAN_START),
                ProbeOutcome::Open
            );
        }
        assert_eq!(
            u.connect_behavior(
                Endpoint::new(tarpit.ip, 80),
                Scheme::Http,
                SimTime::SCAN_START
            ),
            Ok(ConnectBehavior::Silent)
        );
    }

    #[test]
    fn offline_lifecycle_hides_the_host() {
        let u = tiny();
        let end = SimTime::SCAN_START + SimTime::OBSERVATION;
        let gone = u
            .vulnerable_hosts()
            .find(|h| h.lifecycle.state_at(end) == HostState::Offline)
            .expect("some vulnerable host goes offline within four weeks");
        let port = gone.services[0].port;
        let ep = Endpoint::new(gone.ip, port);
        assert_eq!(u.probe(ep, SimTime::SCAN_START), ProbeOutcome::Open);
        assert_eq!(u.probe(ep, end), ProbeOutcome::Filtered);
        assert!(u.connect_behavior(ep, Scheme::Http, end).is_err());
    }

    #[test]
    fn fixed_lifecycle_serves_the_secure_variant() {
        let u = tiny();
        let end = SimTime::SCAN_START + SimTime::OBSERVATION;
        let fixed = u
            .vulnerable_hosts()
            .filter(|h| h.awe().map(|(_, a)| a) == Some(AppId::WordPress))
            .find(|h| h.lifecycle.state_at(end) == HostState::Fixed);
        // Not guaranteed for every seed; skip silently when absent.
        let Some(host) = fixed else { return };
        let ep = Endpoint::new(host.ip, 80);
        let before = u.respond(
            ep,
            &Request::get("/wp-admin/install.php?step=1"),
            Ipv4Addr::LOCALHOST,
            SimTime::SCAN_START,
        );
        assert!(before.body_text().contains("id=\"setup\""));
        let after = u.respond(
            ep,
            &Request::get("/wp-admin/install.php?step=1"),
            Ipv4Addr::LOCALHOST,
            end,
        );
        assert!(after.body_text().contains("already installed"));
    }

    #[test]
    fn geo_records_exist_for_awe_hosts() {
        let u = tiny();
        for host in u.vulnerable_hosts() {
            assert!(u.geo().lookup(host.ip).is_some(), "{} lacks geo", host.ip);
        }
    }

    #[test]
    fn wrong_scheme_fails_connection() {
        let u = tiny();
        let host = u
            .hosts()
            .find(|h| {
                h.awe().map(|(_, a)| a) == Some(AppId::WordPress) && h.service_on(80).is_some()
            })
            .unwrap();
        // Port 80 on CMS hosts is HTTP-only.
        assert!(u
            .connect_behavior(
                Endpoint::new(host.ip, 80),
                Scheme::Https,
                SimTime::SCAN_START
            )
            .is_err());
        assert_eq!(
            u.connect_behavior(
                Endpoint::new(host.ip, 80),
                Scheme::Http,
                SimTime::SCAN_START
            ),
            Ok(ConnectBehavior::Http)
        );
    }
}
