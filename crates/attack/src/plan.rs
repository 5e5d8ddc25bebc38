//! The calibrated four-week attack schedule.
//!
//! The roster below is constructed so that *detected* attacks (after the
//! honeypot's 15-minute source-IP grouping and payload clustering)
//! reproduce the paper's Section 4 numbers:
//!
//! * Table 5 per application — attacks / unique attacks / unique IPs:
//!   Jenkins 4/3/3, WordPress 9/4/5, GravCMS 1/1/1, Docker 132/12/22,
//!   Hadoop 1921/49/81, J-Lab 29/13/13, J-Notebook 99/50/50;
//!   totals 2,195 attacks, 122 unique attacks, 160 unique IPs (the
//!   totals are not column sums because multi-application attackers
//!   share payloads and IPs across targets).
//! * Table 6 first-compromise times (Hadoop 0.8 h, WordPress 2.8 h,
//!   Docker 6.7 h, J-Notebook 48 h, J-Lab 133.7 h, Jenkins 172.4 h,
//!   GravCMS 355.1 h).
//! * RQ6 concentration: the top attacker performs 719 attacks on Hadoop,
//!   the top five 1,492 (67%), the top ten 1,845 (84%); attacker II
//!   (Hadoop+Docker) performs 326 attacks, attacker III 35, and
//!   attacker I (Docker+J-Notebook) uses 14 distinct IPs.

use crate::actor::{Attacker, AttackerId};
use crate::payloads::Payload;
use nokeys_apps::AppId;
use nokeys_netsim::clock::{SimDuration, SimTime};
use nokeys_netsim::geo::{GeoRecord, ATTACKER_MIX};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// One scheduled attack.
#[derive(Debug, Clone)]
pub struct PlannedAttack {
    /// Absolute virtual time (the honeypot study starts at
    /// [`SimTime::HONEYPOT_START`]).
    pub time: SimTime,
    pub attacker: AttackerId,
    pub ip: Ipv4Addr,
    pub geo: GeoRecord,
    pub app: AppId,
    pub payload: Payload,
}

/// The full plan.
#[derive(Debug)]
pub struct StudyPlan {
    pub attackers: Vec<Attacker>,
    /// Attacks sorted by time.
    pub attacks: Vec<PlannedAttack>,
}

impl StudyPlan {
    /// Attacks against `app`.
    pub fn attacks_on(&self, app: AppId) -> impl Iterator<Item = &PlannedAttack> {
        self.attacks.iter().filter(move |a| a.app == app)
    }

    /// Distinct source IPs used against `app`.
    pub fn ips_on(&self, app: AppId) -> usize {
        let mut ips: Vec<Ipv4Addr> = self.attacks_on(app).map(|a| a.ip).collect();
        ips.sort();
        ips.dedup();
        ips.len()
    }

    /// Distinct payloads used against `app`.
    pub fn payloads_on(&self, app: AppId) -> usize {
        let mut p: Vec<&str> = self
            .attacks_on(app)
            .map(|a| a.payload.command.as_str())
            .collect();
        p.sort();
        p.dedup();
        p.len()
    }
}

/// Per-application schedule targets (Table 6 "First" column + volume).
struct AppSchedule {
    app: AppId,
    count: usize,
    /// Explicit times in hours after study start, or `None` to generate.
    explicit_hours: Option<&'static [f64]>,
    first_hour: f64,
    /// Shape of generated times: `Linear` evenly spaced with jitter,
    /// `Accelerating` sparse at first, dense at the end (J-Lab).
    accelerating: bool,
}

const STUDY_HOURS: f64 = 671.0;

fn app_schedules() -> Vec<AppSchedule> {
    vec![
        AppSchedule {
            app: AppId::Hadoop,
            count: 1921,
            explicit_hours: None,
            first_hour: 0.8,
            accelerating: false,
        },
        AppSchedule {
            app: AppId::Docker,
            count: 132,
            explicit_hours: None,
            first_hour: 6.7,
            accelerating: false,
        },
        AppSchedule {
            app: AppId::JupyterNotebook,
            count: 99,
            explicit_hours: None,
            first_hour: 48.0,
            accelerating: false,
        },
        AppSchedule {
            app: AppId::JupyterLab,
            count: 29,
            explicit_hours: None,
            first_hour: 133.7,
            accelerating: true,
        },
        AppSchedule {
            app: AppId::WordPress,
            count: 9,
            explicit_hours: Some(&[2.8, 210.0, 290.0, 340.0, 453.8, 500.0, 540.0, 560.0, 568.4]),
            first_hour: 2.8,
            accelerating: false,
        },
        AppSchedule {
            app: AppId::Jenkins,
            count: 4,
            explicit_hours: Some(&[172.4, 262.5, 500.0, 652.1]),
            first_hour: 172.4,
            accelerating: false,
        },
        AppSchedule {
            app: AppId::Grav,
            count: 1,
            explicit_hours: Some(&[355.1]),
            first_hour: 355.1,
            accelerating: false,
        },
    ]
}

/// xorshift64* — deterministic, version-stable PRNG for the planner.
struct Prng(u64);

impl Prng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Allocation of one attacker against one application.
struct Allocation {
    attacker: usize,
    app: AppId,
    count: usize,
    /// Indices into the attacker's IP pool usable for this app.
    ip_indices: Vec<usize>,
    /// Payloads usable for this app.
    payloads: Vec<Payload>,
}

struct RosterBuilder {
    attackers: Vec<Attacker>,
    allocations: Vec<Allocation>,
    next_ip: u32,
}

impl RosterBuilder {
    fn new() -> Self {
        RosterBuilder {
            attackers: Vec::new(),
            allocations: Vec::new(),
            next_ip: 0,
        }
    }

    fn fresh_ip(&mut self) -> Ipv4Addr {
        let i = self.next_ip;
        self.next_ip += 1;
        // 81.2.0.0/16 region — outside the simulated universe space.
        Ipv4Addr::new(81, 2, (i / 250) as u8, (1 + i % 250) as u8)
    }

    /// Add an attacker with `n_ips` fresh addresses. Geo records are
    /// attached later by the quota assignment.
    fn attacker(&mut self, label: &str, n_ips: usize) -> usize {
        let idx = self.attackers.len();
        let placeholder = GeoRecord {
            country: nokeys_netsim::geo::CountryCode("Unassigned"),
            asys: nokeys_netsim::geo::AsInfo {
                asn: 0,
                name: "Unassigned",
                hosting: false,
            },
        };
        let ips: Vec<(Ipv4Addr, GeoRecord)> =
            (0..n_ips).map(|_| (self.fresh_ip(), placeholder)).collect();
        self.attackers.push(Attacker {
            id: AttackerId(idx as u32),
            label: label.to_string(),
            ips,
            payloads: Vec::new(),
            targets: Vec::new(),
        });
        idx
    }

    fn allocate(
        &mut self,
        attacker: usize,
        app: AppId,
        count: usize,
        ip_indices: Vec<usize>,
        payloads: Vec<Payload>,
    ) {
        assert!(!ip_indices.is_empty() && !payloads.is_empty());
        let a = &mut self.attackers[attacker];
        if !a.targets.contains(&app) {
            a.targets.push(app);
        }
        for p in &payloads {
            if !a.payloads.contains(p) {
                a.payloads.push(p.clone());
            }
        }
        self.allocations.push(Allocation {
            attacker,
            app,
            count,
            ip_indices,
            payloads,
        });
    }
}

/// Build the calibrated roster. See the module docs for the accounting.
fn build_roster() -> RosterBuilder {
    use AppId::*;
    let mut b = RosterBuilder::new();
    let mut dl = 0u32; // fresh downloader payload counter

    let fresh = |dl: &mut u32| {
        *dl += 1;
        Payload::downloader(*dl)
    };

    // --- Named attackers (ranks 1-11 by attack count, then IV..X) ---
    let r1 = b.attacker("hadoop-prime", 3);
    b.allocate(
        r1,
        Hadoop,
        719,
        vec![0, 1, 2],
        vec![Payload::kinsing(1), Payload::kinsing(2)],
    );

    let r2 = b.attacker("att-II", 5);
    let ii_payloads = vec![Payload::kinsing(3), Payload::kinsing(4)];
    b.allocate(r2, Hadoop, 250, vec![0, 1, 2, 3, 4], ii_payloads.clone());
    b.allocate(r2, Docker, 76, vec![0, 1, 2, 3], ii_payloads);

    let r3 = b.attacker("hadoop-kinsing2", 4);
    b.allocate(
        r3,
        Hadoop,
        200,
        vec![0, 1, 2, 3],
        vec![Payload::kinsing(5), fresh(&mut dl)],
    );

    let r4 = b.attacker("hadoop-kinsing3", 3);
    b.allocate(
        r4,
        Hadoop,
        147,
        vec![0, 1, 2],
        vec![Payload::kinsing(7), Payload::kinsing(8)],
    );

    let r5 = b.attacker("hadoop-5", 2);
    b.allocate(r5, Hadoop, 100, vec![0, 1], vec![fresh(&mut dl)]);
    let r6 = b.attacker("hadoop-6", 2);
    b.allocate(r6, Hadoop, 100, vec![0, 1], vec![fresh(&mut dl)]);
    let r7 = b.attacker("hadoop-7", 2);
    b.allocate(r7, Hadoop, 95, vec![0, 1], vec![fresh(&mut dl)]);
    let r8 = b.attacker("hadoop-8", 2);
    b.allocate(r8, Hadoop, 91, vec![0, 1], vec![fresh(&mut dl)]);

    let r9 = b.attacker("att-III", 2);
    let iii_payload = vec![Payload::kinsing(6)];
    b.allocate(r9, Docker, 20, vec![0, 1], iii_payload.clone());
    b.allocate(r9, Hadoop, 15, vec![0, 1], iii_payload);

    let r10 = b.attacker("hadoop-10", 1);
    b.allocate(r10, Hadoop, 32, vec![0], vec![fresh(&mut dl)]);

    // Attacker I: most IPs (14), Docker + J-Notebook, distinct payloads
    // per app (so nothing double-counts in the unique-attack totals).
    let r11 = b.attacker("att-I", 14);
    b.allocate(r11, Docker, 15, vec![0, 1], vec![fresh(&mut dl)]);
    b.allocate(
        r11,
        JupyterNotebook,
        15,
        (0..14).collect(),
        vec![fresh(&mut dl)],
    );

    // IV..X: small dual-application actors (Figure 4's tail).
    let duals: [(&str, AppId, usize, AppId, usize); 7] = [
        ("att-IV", JupyterLab, 3, JupyterNotebook, 3),
        ("att-V", Hadoop, 2, Docker, 2),
        ("att-VI", JupyterLab, 2, JupyterNotebook, 2),
        ("att-VII", Hadoop, 2, Docker, 1),
        ("att-VIII", JupyterLab, 2, JupyterNotebook, 2),
        ("att-IX", Hadoop, 2, Docker, 1),
        ("att-X", JupyterLab, 2, JupyterNotebook, 2),
    ];
    for (label, app_a, n_a, app_b, n_b) in duals {
        let idx = b.attacker(label, 1);
        let payload = vec![fresh(&mut dl)];
        b.allocate(idx, app_a, n_a, vec![0], payload.clone());
        b.allocate(idx, app_b, n_b, vec![0], payload);
    }

    // --- Small single-application attackers ---
    // Payloads and IPs are shared only *within* an actor, so the
    // honeypot's payload/IP clustering can recover actors exactly.
    // Hadoop: 32 actors, 166 attacks, 32 fresh payloads, 52 IPs
    // (20 actors operate from two addresses). Actor 0 is the paper's
    // narrated case study: a Monero miner with cron persistence that
    // kills competitors, observed 4 times from 2 addresses.
    for i in 0..32usize {
        let n_ips = if i < 20 { 2 } else { 1 };
        let label = if i == 0 {
            "monero-cron".to_string()
        } else {
            format!("hadoop-small-{i}")
        };
        let idx = b.attacker(&label, n_ips);
        let count = match i {
            0 => 4,
            1 => 8,
            2..=5 => 6,
            _ => 5,
        };
        let payload = if i == 0 {
            Payload::monero_miner(1)
        } else {
            fresh(&mut dl)
        };
        b.allocate(idx, Hadoop, count, (0..n_ips).collect(), vec![payload]);
    }
    // Docker: 5 actors, 17 attacks, 5 fresh payloads, 11 IPs.
    let docker_small: [(usize, usize); 5] = [(3, 5), (2, 3), (2, 3), (2, 3), (2, 3)];
    for (i, (n_ips, count)) in docker_small.into_iter().enumerate() {
        let idx = b.attacker(&format!("docker-small-{i}"), n_ips);
        let payload = fresh(&mut dl);
        b.allocate(idx, Docker, count, (0..n_ips).collect(), vec![payload]);
    }
    // J-Notebook: 32 attackers, 75 attacks, 45 fresh payloads
    // (13 attackers bring two variants).
    for i in 0..32usize {
        let idx = b.attacker(&format!("jnb-small-{i}"), 1);
        let count = if i < 11 { 3 } else { 2 };
        let payloads = if i < 13 {
            vec![fresh(&mut dl), fresh(&mut dl)]
        } else {
            vec![fresh(&mut dl)]
        };
        b.allocate(idx, JupyterNotebook, count, vec![0], payloads);
    }
    // J-Lab: 9 attackers, 20 attacks, 9 fresh payloads — including the
    // vigilante who only runs `shutdown`.
    for i in 0..9usize {
        let idx = b.attacker(&format!("jlab-small-{i}"), 1);
        let count = if i < 2 { 3 } else { 2 };
        let payload = if i == 0 {
            Payload::vigilante()
        } else {
            fresh(&mut dl)
        };
        b.allocate(idx, JupyterLab, count, vec![0], vec![payload]);
    }
    // WordPress: 4 actors, 9 attacks, 4 distinct payloads, 5 IPs
    // (the first actor operates from two addresses).
    let wp_small: [(usize, usize); 4] = [(2, 3), (1, 2), (1, 2), (1, 2)];
    for (i, (n_ips, count)) in wp_small.into_iter().enumerate() {
        let idx = b.attacker(&format!("wp-{i}"), n_ips);
        let payload = Payload::install_hijack(i as u32 + 1);
        b.allocate(
            idx,
            AppId::WordPress,
            count,
            (0..n_ips).collect(),
            vec![payload],
        );
    }
    // Jenkins: 3 attackers, 4 attacks, 3 payloads.
    let jk_counts = [2usize, 1, 1];
    for (i, count) in jk_counts.into_iter().enumerate() {
        let idx = b.attacker(&format!("jenkins-{i}"), 1);
        b.allocate(idx, AppId::Jenkins, count, vec![0], vec![fresh(&mut dl)]);
    }
    // GravCMS: one attacker, one attack.
    let grav = b.attacker("grav-0", 1);
    b.allocate(
        grav,
        AppId::Grav,
        1,
        vec![0],
        vec![Payload::install_hijack(9)],
    );

    b
}

/// Generate the per-application attack times (hours after study start).
fn generate_times(schedule: &AppSchedule, rng: &mut Prng) -> Vec<f64> {
    if let Some(hours) = schedule.explicit_hours {
        return hours.to_vec();
    }
    let n = schedule.count;
    let span = STUDY_HOURS - schedule.first_hour;
    let mut times = Vec::with_capacity(n);
    for i in 0..n {
        let u = i as f64 / (n.max(2) - 1) as f64;
        let shaped = if schedule.accelerating {
            // Sparse first, dense at the end.
            1.0 - (1.0 - u) * (1.0 - u)
        } else {
            u
        };
        let base = schedule.first_hour + span * shaped;
        // ±30% of the local gap as jitter (never before the first
        // attack).
        let gap = span / n as f64;
        let jitter = (rng.unit() - 0.5) * 0.6 * gap;
        times.push(if i == 0 {
            base
        } else {
            (base + jitter).max(schedule.first_hour + 0.01)
        });
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
    times
}

/// Minimum spacing between attacks from the same (ip, app) so the
/// 15-minute detection grouping counts each planned attack once.
const MIN_SAME_IP_GAP_HOURS: f64 = 0.27;

/// Build the complete, calibrated study plan. `seed` varies jitter and
/// dealing order without affecting any calibrated count.
pub fn study_plan(seed: u64) -> StudyPlan {
    let roster = build_roster();
    let mut rng = Prng(seed | 1);

    let mut attacks: Vec<PlannedAttack> = Vec::with_capacity(2195);
    for schedule in app_schedules() {
        let times = generate_times(&schedule, &mut rng);
        assert_eq!(
            times.len(),
            schedule.count,
            "{:?} schedule count",
            schedule.app
        );

        // Deal attack slots: each allocation contributes `count` slots;
        // shuffle deterministically so attackers interleave over time.
        let mut slots: Vec<usize> = Vec::with_capacity(schedule.count);
        for (alloc_idx, alloc) in roster.allocations.iter().enumerate() {
            if alloc.app == schedule.app {
                slots.extend(std::iter::repeat_n(alloc_idx, alloc.count));
            }
        }
        assert_eq!(
            slots.len(),
            schedule.count,
            "{:?}: roster allocations disagree with schedule",
            schedule.app
        );
        for i in (1..slots.len()).rev() {
            let j = (rng.next() % (i as u64 + 1)) as usize;
            slots.swap(i, j);
        }
        // The very first attack should come from the app's most active
        // attacker (the campaigns are the ones continuously scanning).
        if let Some(max_alloc) = roster
            .allocations
            .iter()
            .enumerate()
            .filter(|(_, a)| a.app == schedule.app)
            .max_by_key(|(_, a)| a.count)
            .map(|(i, _)| i)
        {
            if let Some(pos) = slots.iter().position(|s| *s == max_alloc) {
                slots.swap(0, pos);
            }
        }

        let mut seq_per_alloc: HashMap<usize, usize> = HashMap::new();
        let mut last_per_ip: HashMap<Ipv4Addr, f64> = HashMap::new();
        for (slot, hour) in slots.into_iter().zip(times) {
            let alloc = &roster.allocations[slot];
            let attacker = &roster.attackers[alloc.attacker];
            let seq = seq_per_alloc.entry(slot).or_insert(0);
            // Rotate payloads on every attack and IPs once per payload
            // cycle: every IP then carries every payload, so payload/IP
            // clustering cannot split an actor (a plain dual round-robin
            // with pool sizes sharing a divisor would lock the pairing).
            let ip_idx = (*seq / alloc.payloads.len()) % alloc.ip_indices.len();
            let ip = attacker.ips[alloc.ip_indices[ip_idx]].0;
            let payload = alloc.payloads[*seq % alloc.payloads.len()].clone();
            *seq += 1;

            // Enforce the same-IP spacing.
            let mut hour = hour;
            if let Some(last) = last_per_ip.get(&ip) {
                if hour - last < MIN_SAME_IP_GAP_HOURS {
                    hour = last + MIN_SAME_IP_GAP_HOURS;
                }
            }
            last_per_ip.insert(ip, hour);

            attacks.push(PlannedAttack {
                time: SimTime::HONEYPOT_START + SimDuration::seconds((hour * 3600.0) as i64),
                attacker: attacker.id,
                ip,
                geo: GeoRecord {
                    country: nokeys_netsim::geo::CountryCode("Unassigned"),
                    asys: nokeys_netsim::geo::AsInfo {
                        asn: 0,
                        name: "Unassigned",
                        hosting: false,
                    },
                },
                app: schedule.app,
                payload,
            });
        }
    }

    attacks.sort_by_key(|a| (a.time, a.ip, a.app));

    // --- Geo quota assignment (Tables 7/8) ---
    // Count attacks per IP, then greedily fill the calibrated quotas,
    // biggest IPs into the biggest remaining quota.
    let mut per_ip: HashMap<Ipv4Addr, u64> = HashMap::new();
    for a in &attacks {
        *per_ip.entry(a.ip).or_default() += 1;
    }
    let mut ips: Vec<(Ipv4Addr, u64)> = per_ip.into_iter().collect();
    ips.sort_by_key(|(ip, n)| (std::cmp::Reverse(*n), *ip));
    let mut quotas: Vec<(GeoRecord, i64)> = ATTACKER_MIX
        .iter()
        .map(|(c, a, w)| {
            (
                GeoRecord {
                    country: *c,
                    asys: *a,
                },
                *w as i64,
            )
        })
        .collect();
    let mut geo_of: HashMap<Ipv4Addr, GeoRecord> = HashMap::new();
    for (ip, n) in ips {
        let (best, _) = quotas
            .iter_mut()
            .enumerate()
            .max_by_key(|(_, (_, remaining))| *remaining)
            .expect("quota list is non-empty");
        geo_of.insert(ip, quotas[best].0);
        quotas[best].1 -= n as i64;
    }
    for a in &mut attacks {
        a.geo = geo_of[&a.ip];
    }

    // Attach geo records to the attacker IP pools too.
    let mut attackers = roster.attackers;
    for attacker in &mut attackers {
        for (ip, geo) in &mut attacker.ips {
            if let Some(rec) = geo_of.get(ip) {
                *geo = *rec;
            }
        }
    }

    StudyPlan { attackers, attacks }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> StudyPlan {
        study_plan(2022)
    }

    #[test]
    fn totals_match_table5() {
        let p = plan();
        assert_eq!(p.attacks.len(), 2195);
        let cases = [
            (AppId::Jenkins, 4, 3, 3),
            (AppId::WordPress, 9, 4, 5),
            (AppId::Grav, 1, 1, 1),
            (AppId::Docker, 132, 12, 22),
            (AppId::Hadoop, 1921, 49, 81),
            (AppId::JupyterLab, 29, 13, 13),
            (AppId::JupyterNotebook, 99, 50, 50),
        ];
        for (app, attacks, uniq, ips) in cases {
            assert_eq!(p.attacks_on(app).count(), attacks, "{app} attacks");
            assert_eq!(p.payloads_on(app), uniq, "{app} unique payloads");
            assert_eq!(p.ips_on(app), ips, "{app} unique IPs");
        }
        // Global distinct counts (shared across applications).
        let mut all_ips: Vec<Ipv4Addr> = p.attacks.iter().map(|a| a.ip).collect();
        all_ips.sort();
        all_ips.dedup();
        assert_eq!(all_ips.len(), 160, "total unique IPs");
        let mut all_payloads: Vec<&str> = p
            .attacks
            .iter()
            .map(|a| a.payload.command.as_str())
            .collect();
        all_payloads.sort();
        all_payloads.dedup();
        assert_eq!(all_payloads.len(), 122, "total unique payloads");
    }

    #[test]
    fn first_attack_times_match_table6() {
        let p = plan();
        let firsts = [
            (AppId::Hadoop, 0.8),
            (AppId::WordPress, 2.8),
            (AppId::Docker, 6.7),
            (AppId::JupyterNotebook, 48.0),
            (AppId::JupyterLab, 133.7),
            (AppId::Jenkins, 172.4),
            (AppId::Grav, 355.1),
        ];
        for (app, expected) in firsts {
            let first = p
                .attacks_on(app)
                .map(|a| a.time.since(SimTime::HONEYPOT_START).as_hours_f64())
                .fold(f64::INFINITY, f64::min);
            assert!(
                (first - expected).abs() < 0.35,
                "{app}: first attack at {first:.1}h, expected {expected}h"
            );
        }
    }

    #[test]
    fn attacker_concentration_matches_rq6() {
        let p = plan();
        let mut per_attacker: HashMap<AttackerId, usize> = HashMap::new();
        for a in &p.attacks {
            *per_attacker.entry(a.attacker).or_default() += 1;
        }
        let mut counts: Vec<usize> = per_attacker.values().copied().collect();
        counts.sort_by_key(|c| std::cmp::Reverse(*c));
        assert_eq!(counts[0], 719, "most active attacker");
        let top5: usize = counts.iter().take(5).sum();
        let top10: usize = counts.iter().take(10).sum();
        assert_eq!(top5, 1492, "top five attackers (67%)");
        assert_eq!(top10, 1845, "top ten attackers (84%)");
    }

    #[test]
    fn figure4_actors_are_present() {
        let p = plan();
        let multi: Vec<&Attacker> = p.attackers.iter().filter(|a| a.is_multi_target()).collect();
        assert_eq!(multi.len(), 10, "attackers I..X");
        let multi_ids: Vec<AttackerId> = multi.iter().map(|a| a.id).collect();
        let multi_attacks = p
            .attacks
            .iter()
            .filter(|a| multi_ids.contains(&a.attacker))
            .count();
        assert_eq!(multi_attacks, 419, "Figure 4 actors' share");

        // Attacker I: 14 IPs, Docker + J-Notebook.
        let att_i = p.attackers.iter().find(|a| a.label == "att-I").unwrap();
        assert_eq!(att_i.ips.len(), 14);
        assert_eq!(att_i.targets.len(), 2);
        assert!(att_i.targets.contains(&AppId::Docker));
        assert!(att_i.targets.contains(&AppId::JupyterNotebook));
        // Attacker II: 326 attacks on Hadoop + Docker.
        let att_ii = p.attackers.iter().find(|a| a.label == "att-II").unwrap();
        let ii_attacks = p.attacks.iter().filter(|a| a.attacker == att_ii.id).count();
        assert_eq!(ii_attacks, 326);
    }

    #[test]
    fn same_ip_attacks_are_spaced_beyond_grouping_window() {
        let p = plan();
        let mut last: HashMap<(Ipv4Addr, AppId), SimTime> = HashMap::new();
        for a in &p.attacks {
            if let Some(prev) = last.get(&(a.ip, a.app)) {
                let gap = a.time.since(*prev);
                assert!(
                    gap >= SimDuration::minutes(15),
                    "{} attacks {} only {} apart",
                    a.ip,
                    a.app,
                    gap
                );
            }
            last.insert((a.ip, a.app), a.time);
        }
    }

    #[test]
    fn geo_assignment_reproduces_table8_shape() {
        let p = plan();
        let mut per_as: HashMap<&str, u64> = HashMap::new();
        for a in &p.attacks {
            *per_as.entry(a.geo.asys.name).or_default() += 1;
        }
        let mut rows: Vec<(&str, u64)> = per_as.into_iter().collect();
        rows.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
        assert_eq!(rows[0].0, "Serverion BV");
        assert_eq!(rows[1].0, "Gamers Club");
        assert_eq!(rows[2].0, "DigitalOcean");
        // Quotas are met within the granularity of whole IPs.
        assert!(
            (rows[0].1 as i64 - 469).abs() <= 60,
            "Serverion ≈ 469, got {}",
            rows[0].1
        );
        assert!(
            (rows[1].1 as i64 - 396).abs() <= 60,
            "Gamers Club ≈ 396, got {}",
            rows[1].1
        );
    }

    #[test]
    fn attacks_are_time_sorted_and_within_window() {
        let p = plan();
        let end = SimTime::HONEYPOT_START + SimTime::OBSERVATION;
        for w in p.attacks.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        for a in &p.attacks {
            assert!(a.time >= SimTime::HONEYPOT_START);
            assert!(a.time <= end, "{} after window end", a.time);
        }
    }

    #[test]
    fn plan_is_deterministic_per_seed() {
        let a = study_plan(7);
        let b = study_plan(7);
        assert_eq!(a.attacks.len(), b.attacks.len());
        for (x, y) in a.attacks.iter().zip(&b.attacks) {
            assert_eq!(x.time, y.time);
            assert_eq!(x.ip, y.ip);
            assert_eq!(x.payload.command, y.payload.command);
        }
        let c = study_plan(8);
        assert!(
            a.attacks
                .iter()
                .zip(&c.attacks)
                .any(|(x, y)| x.time != y.time),
            "different seeds should differ in jitter"
        );
    }

    #[test]
    fn payloads_and_ips_never_cross_actors() {
        // This property is what lets the honeypot's payload/IP clustering
        // recover the actor population exactly.
        let p = plan();
        let mut payload_owner: HashMap<&str, AttackerId> = HashMap::new();
        let mut ip_owner: HashMap<Ipv4Addr, AttackerId> = HashMap::new();
        for a in &p.attacks {
            if let Some(owner) = payload_owner.insert(a.payload.command.as_str(), a.attacker) {
                assert_eq!(
                    owner, a.attacker,
                    "payload {} crosses actors",
                    a.payload.name
                );
            }
            if let Some(owner) = ip_owner.insert(a.ip, a.attacker) {
                assert_eq!(owner, a.attacker, "ip {} crosses actors", a.ip);
            }
        }
    }

    #[test]
    fn vigilante_targets_jupyter_lab() {
        let p = plan();
        let vigilante_attacks: Vec<&PlannedAttack> = p
            .attacks
            .iter()
            .filter(|a| a.payload.command == "shutdown")
            .collect();
        assert!(!vigilante_attacks.is_empty());
        assert!(vigilante_attacks.iter().all(|a| a.app == AppId::JupyterLab));
    }
}
