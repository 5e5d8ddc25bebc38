//! The calibrated four-week attack schedule: Section 4 as two tables.
//!
//! `ROSTER` has one row per attacker, in [`AttackerId`] order: a label,
//! the size of its address pool and its campaigns. A campaign is a
//! number of attacks on one application from the first *n* addresses of
//! the pool, with the payloads it deals. `SCHEDULES` has one row per
//! attacked application: Table 6's first compromise, and the explicit
//! hours or the shape of the rest. [`study_plan`] deals each
//! application's attacks from its campaigns over its schedule.
//!
//! The rows are calibrated so that the attacks the honeypot *detects*
//! (15-minute source-address grouping, then payload clustering) are the
//! paper's: Table 5 per application (`TABLE5`), Table 6's first hours,
//! Tables 7–8's origins, RQ6's concentration on the top attackers and
//! Figure 4's multi-application attackers I–X. The `const` block after
//! the tables checks the roster against Table 5 when the crate compiles;
//! the tests check the dealt plan against Tables 5–8 and RQ6.

use crate::actor::{Attacker, AttackerId};
use crate::payloads::Payload;
use nokeys_apps::AppId::{
    self, Docker, Grav, Hadoop, Jenkins, JupyterLab, JupyterNotebook, WordPress,
};
use nokeys_netsim::clock::{SimDuration, SimTime};
use nokeys_netsim::geo::{AsInfo, CountryCode, GeoRecord, ATTACKER_MIX};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use Shape::{Accelerating, At, Even};
use Variant::{Downloader, Hijack, Kinsing, Miner, Vigilante};

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
}

/// A payload, named by family and variant.
#[derive(Clone, Copy)]
enum Variant {
    Kinsing(u32),
    /// The Monero miner with cron persistence.
    Miner(u32),
    Downloader(u32),
    /// A CMS installation hijack.
    Hijack(u32),
    Vigilante,
}

impl Variant {
    fn payload(self) -> Payload {
        match self {
            Kinsing(v) => Payload::kinsing(v),
            Miner(v) => Payload::monero_miner(v),
            Downloader(v) => Payload::downloader(v),
            Hijack(v) => Payload::install_hijack(v),
            Vigilante => Payload::vigilante(),
        }
    }

    /// A distinct index per payload, to count distinct payloads at
    /// compile time.
    const fn slot(self) -> usize {
        let (family, variant) = match self {
            Kinsing(v) => (0, v),
            Miner(v) => (1, v),
            Downloader(v) => (2, v),
            Hijack(v) => (3, v),
            Vigilante => (4, 0),
        };
        assert!(variant < 128, "variant past 127");
        family * 128 + variant as usize
    }
}

/// One attacker.
struct Row {
    label: &'static str,
    /// Addresses in the pool. Pools follow one another in row order.
    ips: usize,
    campaigns: &'static [Campaign],
}

/// `attacks` attacks on `app` from the first `ips` addresses of the
/// attacker's pool. The payload turns on every attack and the address
/// once per payload cycle, so every address carries every payload and
/// clustering by either cannot split the attacker (a plain round-robin
/// over pool sizes that share a divisor would lock the pairing).
struct Campaign {
    app: AppId,
    attacks: usize,
    ips: usize,
    payloads: &'static [Variant],
}

const fn actor(label: &'static str, ips: usize, campaigns: &'static [Campaign]) -> Row {
    Row {
        label,
        ips,
        campaigns,
    }
}

const fn on(app: AppId, attacks: usize, ips: usize, payloads: &'static [Variant]) -> Campaign {
    Campaign {
        app,
        attacks,
        ips,
        payloads,
    }
}

/// The attackers behind Tables 5–8, in `AttackerId` order:
/// `actor(label, pool, [on(app, attacks, first n addresses, payloads)])`.
///
/// Ranks 1–11 by attack count come first, among them attackers I–III,
/// then IV–X (Figure 4's tail), then the single-application attackers
/// by application. No payload or address is shared between attackers,
/// so the honeypot's clustering recovers every row. `monero-cron` is the
/// paper's narrated Monero miner, which kills competitors and installs a
/// cronjob; `jlab-small-0` is the vigilante who only runs `shutdown`.
#[rustfmt::skip]
static ROSTER: [Row; 104] = [
    actor("hadoop-prime",     3, &[on(Hadoop, 719, 3, &[Kinsing(1), Kinsing(2)])]),
    actor("att-II",           5, &[on(Hadoop, 250, 5, &[Kinsing(3), Kinsing(4)]),
                                   on(Docker, 76, 4, &[Kinsing(3), Kinsing(4)])]),
    actor("hadoop-kinsing2",  4, &[on(Hadoop, 200, 4, &[Kinsing(5), Downloader(1)])]),
    actor("hadoop-kinsing3",  3, &[on(Hadoop, 147, 3, &[Kinsing(7), Kinsing(8)])]),
    actor("hadoop-5",         2, &[on(Hadoop, 100, 2, &[Downloader(2)])]),
    actor("hadoop-6",         2, &[on(Hadoop, 100, 2, &[Downloader(3)])]),
    actor("hadoop-7",         2, &[on(Hadoop, 95, 2, &[Downloader(4)])]),
    actor("hadoop-8",         2, &[on(Hadoop, 91, 2, &[Downloader(5)])]),
    actor("att-III",          2, &[on(Docker, 20, 2, &[Kinsing(6)]),
                                   on(Hadoop, 15, 2, &[Kinsing(6)])]),
    actor("hadoop-10",        1, &[on(Hadoop, 32, 1, &[Downloader(6)])]),
    actor("att-I",           14, &[on(Docker, 15, 2, &[Downloader(7)]),
                                   on(JupyterNotebook, 15, 14, &[Downloader(8)])]),
    actor("att-IV",           1, &[on(JupyterLab, 3, 1, &[Downloader(9)]),
                                   on(JupyterNotebook, 3, 1, &[Downloader(9)])]),
    actor("att-V",            1, &[on(Hadoop, 2, 1, &[Downloader(10)]),
                                   on(Docker, 2, 1, &[Downloader(10)])]),
    actor("att-VI",           1, &[on(JupyterLab, 2, 1, &[Downloader(11)]),
                                   on(JupyterNotebook, 2, 1, &[Downloader(11)])]),
    actor("att-VII",          1, &[on(Hadoop, 2, 1, &[Downloader(12)]),
                                   on(Docker, 1, 1, &[Downloader(12)])]),
    actor("att-VIII",         1, &[on(JupyterLab, 2, 1, &[Downloader(13)]),
                                   on(JupyterNotebook, 2, 1, &[Downloader(13)])]),
    actor("att-IX",           1, &[on(Hadoop, 2, 1, &[Downloader(14)]),
                                   on(Docker, 1, 1, &[Downloader(14)])]),
    actor("att-X",            1, &[on(JupyterLab, 2, 1, &[Downloader(15)]),
                                   on(JupyterNotebook, 2, 1, &[Downloader(15)])]),
    actor("monero-cron",      2, &[on(Hadoop, 4, 2, &[Miner(1)])]),
    actor("hadoop-small-1",   2, &[on(Hadoop, 8, 2, &[Downloader(16)])]),
    actor("hadoop-small-2",   2, &[on(Hadoop, 6, 2, &[Downloader(17)])]),
    actor("hadoop-small-3",   2, &[on(Hadoop, 6, 2, &[Downloader(18)])]),
    actor("hadoop-small-4",   2, &[on(Hadoop, 6, 2, &[Downloader(19)])]),
    actor("hadoop-small-5",   2, &[on(Hadoop, 6, 2, &[Downloader(20)])]),
    actor("hadoop-small-6",   2, &[on(Hadoop, 5, 2, &[Downloader(21)])]),
    actor("hadoop-small-7",   2, &[on(Hadoop, 5, 2, &[Downloader(22)])]),
    actor("hadoop-small-8",   2, &[on(Hadoop, 5, 2, &[Downloader(23)])]),
    actor("hadoop-small-9",   2, &[on(Hadoop, 5, 2, &[Downloader(24)])]),
    actor("hadoop-small-10",  2, &[on(Hadoop, 5, 2, &[Downloader(25)])]),
    actor("hadoop-small-11",  2, &[on(Hadoop, 5, 2, &[Downloader(26)])]),
    actor("hadoop-small-12",  2, &[on(Hadoop, 5, 2, &[Downloader(27)])]),
    actor("hadoop-small-13",  2, &[on(Hadoop, 5, 2, &[Downloader(28)])]),
    actor("hadoop-small-14",  2, &[on(Hadoop, 5, 2, &[Downloader(29)])]),
    actor("hadoop-small-15",  2, &[on(Hadoop, 5, 2, &[Downloader(30)])]),
    actor("hadoop-small-16",  2, &[on(Hadoop, 5, 2, &[Downloader(31)])]),
    actor("hadoop-small-17",  2, &[on(Hadoop, 5, 2, &[Downloader(32)])]),
    actor("hadoop-small-18",  2, &[on(Hadoop, 5, 2, &[Downloader(33)])]),
    actor("hadoop-small-19",  2, &[on(Hadoop, 5, 2, &[Downloader(34)])]),
    actor("hadoop-small-20",  1, &[on(Hadoop, 5, 1, &[Downloader(35)])]),
    actor("hadoop-small-21",  1, &[on(Hadoop, 5, 1, &[Downloader(36)])]),
    actor("hadoop-small-22",  1, &[on(Hadoop, 5, 1, &[Downloader(37)])]),
    actor("hadoop-small-23",  1, &[on(Hadoop, 5, 1, &[Downloader(38)])]),
    actor("hadoop-small-24",  1, &[on(Hadoop, 5, 1, &[Downloader(39)])]),
    actor("hadoop-small-25",  1, &[on(Hadoop, 5, 1, &[Downloader(40)])]),
    actor("hadoop-small-26",  1, &[on(Hadoop, 5, 1, &[Downloader(41)])]),
    actor("hadoop-small-27",  1, &[on(Hadoop, 5, 1, &[Downloader(42)])]),
    actor("hadoop-small-28",  1, &[on(Hadoop, 5, 1, &[Downloader(43)])]),
    actor("hadoop-small-29",  1, &[on(Hadoop, 5, 1, &[Downloader(44)])]),
    actor("hadoop-small-30",  1, &[on(Hadoop, 5, 1, &[Downloader(45)])]),
    actor("hadoop-small-31",  1, &[on(Hadoop, 5, 1, &[Downloader(46)])]),
    actor("docker-small-0",   3, &[on(Docker, 5, 3, &[Downloader(47)])]),
    actor("docker-small-1",   2, &[on(Docker, 3, 2, &[Downloader(48)])]),
    actor("docker-small-2",   2, &[on(Docker, 3, 2, &[Downloader(49)])]),
    actor("docker-small-3",   2, &[on(Docker, 3, 2, &[Downloader(50)])]),
    actor("docker-small-4",   2, &[on(Docker, 3, 2, &[Downloader(51)])]),
    actor("jnb-small-0",      1, &[on(JupyterNotebook, 3, 1, &[Downloader(52), Downloader(53)])]),
    actor("jnb-small-1",      1, &[on(JupyterNotebook, 3, 1, &[Downloader(54), Downloader(55)])]),
    actor("jnb-small-2",      1, &[on(JupyterNotebook, 3, 1, &[Downloader(56), Downloader(57)])]),
    actor("jnb-small-3",      1, &[on(JupyterNotebook, 3, 1, &[Downloader(58), Downloader(59)])]),
    actor("jnb-small-4",      1, &[on(JupyterNotebook, 3, 1, &[Downloader(60), Downloader(61)])]),
    actor("jnb-small-5",      1, &[on(JupyterNotebook, 3, 1, &[Downloader(62), Downloader(63)])]),
    actor("jnb-small-6",      1, &[on(JupyterNotebook, 3, 1, &[Downloader(64), Downloader(65)])]),
    actor("jnb-small-7",      1, &[on(JupyterNotebook, 3, 1, &[Downloader(66), Downloader(67)])]),
    actor("jnb-small-8",      1, &[on(JupyterNotebook, 3, 1, &[Downloader(68), Downloader(69)])]),
    actor("jnb-small-9",      1, &[on(JupyterNotebook, 3, 1, &[Downloader(70), Downloader(71)])]),
    actor("jnb-small-10",     1, &[on(JupyterNotebook, 3, 1, &[Downloader(72), Downloader(73)])]),
    actor("jnb-small-11",     1, &[on(JupyterNotebook, 2, 1, &[Downloader(74), Downloader(75)])]),
    actor("jnb-small-12",     1, &[on(JupyterNotebook, 2, 1, &[Downloader(76), Downloader(77)])]),
    actor("jnb-small-13",     1, &[on(JupyterNotebook, 2, 1, &[Downloader(78)])]),
    actor("jnb-small-14",     1, &[on(JupyterNotebook, 2, 1, &[Downloader(79)])]),
    actor("jnb-small-15",     1, &[on(JupyterNotebook, 2, 1, &[Downloader(80)])]),
    actor("jnb-small-16",     1, &[on(JupyterNotebook, 2, 1, &[Downloader(81)])]),
    actor("jnb-small-17",     1, &[on(JupyterNotebook, 2, 1, &[Downloader(82)])]),
    actor("jnb-small-18",     1, &[on(JupyterNotebook, 2, 1, &[Downloader(83)])]),
    actor("jnb-small-19",     1, &[on(JupyterNotebook, 2, 1, &[Downloader(84)])]),
    actor("jnb-small-20",     1, &[on(JupyterNotebook, 2, 1, &[Downloader(85)])]),
    actor("jnb-small-21",     1, &[on(JupyterNotebook, 2, 1, &[Downloader(86)])]),
    actor("jnb-small-22",     1, &[on(JupyterNotebook, 2, 1, &[Downloader(87)])]),
    actor("jnb-small-23",     1, &[on(JupyterNotebook, 2, 1, &[Downloader(88)])]),
    actor("jnb-small-24",     1, &[on(JupyterNotebook, 2, 1, &[Downloader(89)])]),
    actor("jnb-small-25",     1, &[on(JupyterNotebook, 2, 1, &[Downloader(90)])]),
    actor("jnb-small-26",     1, &[on(JupyterNotebook, 2, 1, &[Downloader(91)])]),
    actor("jnb-small-27",     1, &[on(JupyterNotebook, 2, 1, &[Downloader(92)])]),
    actor("jnb-small-28",     1, &[on(JupyterNotebook, 2, 1, &[Downloader(93)])]),
    actor("jnb-small-29",     1, &[on(JupyterNotebook, 2, 1, &[Downloader(94)])]),
    actor("jnb-small-30",     1, &[on(JupyterNotebook, 2, 1, &[Downloader(95)])]),
    actor("jnb-small-31",     1, &[on(JupyterNotebook, 2, 1, &[Downloader(96)])]),
    actor("jlab-small-0",     1, &[on(JupyterLab, 3, 1, &[Vigilante])]),
    actor("jlab-small-1",     1, &[on(JupyterLab, 3, 1, &[Downloader(97)])]),
    actor("jlab-small-2",     1, &[on(JupyterLab, 2, 1, &[Downloader(98)])]),
    actor("jlab-small-3",     1, &[on(JupyterLab, 2, 1, &[Downloader(99)])]),
    actor("jlab-small-4",     1, &[on(JupyterLab, 2, 1, &[Downloader(100)])]),
    actor("jlab-small-5",     1, &[on(JupyterLab, 2, 1, &[Downloader(101)])]),
    actor("jlab-small-6",     1, &[on(JupyterLab, 2, 1, &[Downloader(102)])]),
    actor("jlab-small-7",     1, &[on(JupyterLab, 2, 1, &[Downloader(103)])]),
    actor("jlab-small-8",     1, &[on(JupyterLab, 2, 1, &[Downloader(104)])]),
    actor("wp-0",             2, &[on(WordPress, 3, 2, &[Hijack(1)])]),
    actor("wp-1",             1, &[on(WordPress, 2, 1, &[Hijack(2)])]),
    actor("wp-2",             1, &[on(WordPress, 2, 1, &[Hijack(3)])]),
    actor("wp-3",             1, &[on(WordPress, 2, 1, &[Hijack(4)])]),
    actor("jenkins-0",        1, &[on(Jenkins, 2, 1, &[Downloader(105)])]),
    actor("jenkins-1",        1, &[on(Jenkins, 1, 1, &[Downloader(106)])]),
    actor("jenkins-2",        1, &[on(Jenkins, 1, 1, &[Downloader(107)])]),
    actor("grav-0",           1, &[on(Grav, 1, 1, &[Hijack(9)])]),
];

/// Table 5: attacks, unique attacks (distinct payloads) and unique
/// source addresses per attacked application, then the total row. Only
/// the attacks add up: attackers II, III and IV–X reuse payloads and
/// addresses across applications.
const TABLE5: [(Option<AppId>, usize, usize, usize); 8] = [
    (Some(Jenkins), 4, 3, 3),
    (Some(WordPress), 9, 4, 5),
    (Some(Grav), 1, 1, 1),
    (Some(Docker), 132, 12, 22),
    (Some(Hadoop), 1921, 49, 81),
    (Some(JupyterLab), 29, 13, 13),
    (Some(JupyterNotebook), 99, 50, 50),
    (None, 2195, 122, 160),
];

/// When one application's attacks fall. Its volume is the roster's.
struct Schedule {
    app: AppId,
    /// Table 6's first compromise, in hours after the study starts.
    first_hour: f64,
    shape: Shape,
}

enum Shape {
    /// Evenly spaced from the first hour to the end, with jitter.
    Even,
    /// Sparse at first, dense at the end (J-Lab).
    Accelerating,
    /// These hours, one per attack.
    At(&'static [f64]),
}

/// Every attacked application, in dealing order (the PRNG draws follow
/// it).
#[rustfmt::skip]
static SCHEDULES: [Schedule; 7] = [
    Schedule { app: Hadoop, first_hour: 0.8, shape: Even },
    Schedule { app: Docker, first_hour: 6.7, shape: Even },
    Schedule { app: JupyterNotebook, first_hour: 48.0, shape: Even },
    Schedule { app: JupyterLab, first_hour: 133.7, shape: Accelerating },
    Schedule { app: WordPress, first_hour: 2.8,
        shape: At(&[2.8, 210.0, 290.0, 340.0, 453.8, 500.0, 540.0, 560.0, 568.4]) },
    Schedule { app: Jenkins, first_hour: 172.4, shape: At(&[172.4, 262.5, 500.0, 652.1]) },
    Schedule { app: Grav, first_hour: 355.1, shape: At(&[355.1]) },
];

/// Attacks, distinct payloads and distinct source addresses the roster
/// deals against `app`, or against every application for `None`: a row
/// of Table 5. Pools are disjoint, so an attacker's addresses on `app`
/// are those of its widest campaign there. Asserts on the way that each
/// campaign attacks a scheduled application and deals every payload and
/// address it lists, so the counts are what `study_plan` deals.
const fn dealt(app: Option<AppId>) -> (usize, usize, usize) {
    let mut seen = [false; 5 * 128];
    let (mut attacks, mut payloads, mut ips) = (0, 0, 0);
    let mut r = 0;
    while r < ROSTER.len() {
        let (pool, mut widest, mut k) = (ROSTER[r].ips, 0, 0);
        while k < ROSTER[r].campaigns.len() {
            let c = &ROSTER[r].campaigns[k];
            let cycle = c.payloads.len();
            assert!(cycle > 0 && c.attacks >= cycle, "payload never dealt");
            assert!(0 < c.ips && c.ips <= pool, "address outside pool");
            assert!(c.attacks.div_ceil(cycle) >= c.ips, "address never dealt");
            let mut s = 0;
            while SCHEDULES[s].app as usize != c.app as usize {
                s += 1;
                assert!(s < SCHEDULES.len(), "unscheduled application");
            }
            let counted = match app {
                Some(app) => app as usize == c.app as usize,
                None => true,
            };
            if counted {
                attacks += c.attacks;
                widest = if c.ips > widest { c.ips } else { widest };
                let mut p = 0;
                while p < cycle {
                    let slot = c.payloads[p].slot();
                    payloads += !seen[slot] as usize;
                    seen[slot] = true;
                    p += 1;
                }
            }
            k += 1;
        }
        ips += widest;
        r += 1;
    }
    (attacks, payloads, ips)
}

// The roster is Table 5, and an explicit schedule has one hour per
// attack, from Table 6's first: checked when the crate compiles.
const _: () = {
    let mut t = 0;
    while t < TABLE5.len() {
        let (app, attacks, payloads, ips) = TABLE5[t];
        let row = dealt(app);
        assert!(row.0 == attacks, "attacks differ from Table 5");
        assert!(row.1 == payloads, "unique payloads differ from Table 5");
        assert!(row.2 == ips, "unique addresses differ from Table 5");
        t += 1;
    }
    let mut s = 0;
    while s < SCHEDULES.len() {
        if let At(hours) = SCHEDULES[s].shape {
            let (attacks, _, _) = dealt(Some(SCHEDULES[s].app));
            assert!(hours.len() == attacks, "one hour per attack");
            assert!(hours[0] == SCHEDULES[s].first_hour, "not Table 6's first");
        }
        s += 1;
    }
};

const STUDY_HOURS: f64 = 671.0;

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

impl Schedule {
    /// The hours after study start of `n` attacks, ascending.
    fn hours(&self, n: usize, rng: &mut Prng) -> Vec<f64> {
        let accelerating = match self.shape {
            At(hours) => return hours.to_vec(),
            Even => false,
            Accelerating => true,
        };
        let span = STUDY_HOURS - self.first_hour;
        let mut times = Vec::with_capacity(n);
        for i in 0..n {
            let u = i as f64 / (n.max(2) - 1) as f64;
            let shaped = if accelerating {
                1.0 - (1.0 - u) * (1.0 - u)
            } else {
                u
            };
            let base = self.first_hour + span * shaped;
            // ±30% of the local gap as jitter (never before the first
            // attack).
            let gap = span / n as f64;
            let jitter = (rng.unit() - 0.5) * 0.6 * gap;
            times.push(if i == 0 {
                base
            } else {
                (base + jitter).max(self.first_hour + 0.01)
            });
        }
        times.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
        times
    }
}

/// Minimum spacing between attacks from the same (ip, app) so the
/// 15-minute detection grouping counts each planned attack once.
const MIN_SAME_IP_GAP_HOURS: f64 = 0.27;

/// Geo record of an address before the quota assignment.
const UNASSIGNED: GeoRecord = GeoRecord {
    country: CountryCode("Unassigned"),
    asys: AsInfo {
        asn: 0,
        name: "Unassigned",
        hosting: false,
    },
};

/// Build the complete, calibrated study plan. `seed` varies jitter and
/// dealing order without affecting any calibrated count.
pub fn study_plan(seed: u64) -> StudyPlan {
    // Attackers, and every campaign with its attacker's index.
    let mut attackers = Vec::with_capacity(ROSTER.len());
    let mut campaigns: Vec<(usize, &Campaign)> = Vec::new();
    let mut next_ip = 0;
    for (i, row) in ROSTER.iter().enumerate() {
        // 81.2.0.0/16, outside the simulated universe.
        let ips = (next_ip..next_ip + row.ips)
            .map(|n| Ipv4Addr::new(81, 2, (n / 250) as u8, (1 + n % 250) as u8))
            .map(|ip| (ip, UNASSIGNED))
            .collect();
        next_ip += row.ips;
        let mut targets = Vec::new();
        let mut payloads = Vec::new();
        for campaign in row.campaigns {
            if !targets.contains(&campaign.app) {
                targets.push(campaign.app);
            }
            for p in campaign.payloads.iter().map(|v| v.payload()) {
                if !payloads.contains(&p) {
                    payloads.push(p);
                }
            }
            campaigns.push((i, campaign));
        }
        attackers.push(Attacker {
            id: AttackerId(i as u32),
            label: row.label.to_string(),
            ips,
            payloads,
            targets,
        });
    }

    let mut rng = Prng(seed | 1);
    let mut attacks: Vec<PlannedAttack> = Vec::new();
    // Attacks dealt so far, per campaign.
    let mut seq = vec![0; campaigns.len()];
    for schedule in &SCHEDULES {
        // Deal attack slots: each campaign contributes one per attack;
        // shuffle deterministically so attackers interleave over time.
        let mut slots: Vec<usize> = Vec::new();
        for (k, (_, campaign)) in campaigns.iter().enumerate() {
            if campaign.app == schedule.app {
                slots.extend(std::iter::repeat_n(k, campaign.attacks));
            }
        }
        let times = schedule.hours(slots.len(), &mut rng);
        for i in (1..slots.len()).rev() {
            let j = (rng.next() % (i as u64 + 1)) as usize;
            slots.swap(i, j);
        }
        // The very first attack should come from the app's largest
        // campaign (the campaigns are the ones continuously scanning).
        if let Some(largest) = campaigns
            .iter()
            .enumerate()
            .filter(|(_, (_, c))| c.app == schedule.app)
            .max_by_key(|(_, (_, c))| c.attacks)
            .map(|(k, _)| k)
        {
            if let Some(pos) = slots.iter().position(|s| *s == largest) {
                slots.swap(0, pos);
            }
        }

        let mut last_per_ip: HashMap<Ipv4Addr, f64> = HashMap::new();
        for (slot, hour) in slots.into_iter().zip(times) {
            let (a, campaign) = campaigns[slot];
            let attacker = &attackers[a];
            let n = campaign.payloads.len();
            let ip = attacker.ips[(seq[slot] / n) % campaign.ips].0;
            let payload = campaign.payloads[seq[slot] % n].payload();
            seq[slot] += 1;

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
                geo: UNASSIGNED,
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
        // The compile-time check counts the roster; this counts what
        // `study_plan` dealt from it.
        let p = plan();
        for (app, attacks, payloads, ips) in TABLE5 {
            let on_app = || {
                p.attacks
                    .iter()
                    .filter(|a| app.is_none_or(|app| a.app == app))
            };
            let mut commands: Vec<&str> = on_app().map(|a| a.payload.command.as_str()).collect();
            commands.sort();
            commands.dedup();
            let mut sources: Vec<Ipv4Addr> = on_app().map(|a| a.ip).collect();
            sources.sort();
            sources.dedup();
            let row = (on_app().count(), commands.len(), sources.len());
            assert_eq!(row, (attacks, payloads, ips), "{app:?}");
        }
    }

    #[test]
    fn first_attack_times_match_table6() {
        let p = plan();
        for &Schedule {
            app,
            first_hour: expected,
            ..
        } in &SCHEDULES
        {
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

    /// Every attack and attacker of `study_plan(seed)`, folded into one
    /// word. The seeds are the ones `run_study`, `defend::race`,
    /// `analysis::{case_studies, restores}` and `study_tables.rs` plan
    /// with, so a roster or dealing change that moves any of their
    /// outputs moves a digest here first.
    #[test]
    fn study_plan_matches_its_pinned_digest() {
        fn digest(p: &StudyPlan) -> u64 {
            let mut text = String::new();
            for a in &p.attacks {
                text += &format!(
                    "{} {} {} {:?} {} {}\n",
                    a.time.as_secs(),
                    a.attacker.0,
                    a.ip,
                    a.app,
                    a.payload.command,
                    a.geo.asys.asn
                );
            }
            for a in &p.attackers {
                let ips: Vec<Ipv4Addr> = a.ips.iter().map(|(ip, _)| *ip).collect();
                let payloads: Vec<&str> = a.payloads.iter().map(|p| p.command.as_str()).collect();
                text += &format!("{} {:?} {:?} {:?}\n", a.label, ips, a.targets, payloads);
            }
            text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
            })
        }
        let pinned: [(u64, u64); 4] = [
            (2022, 0x579b_6e1c_25b0_8067),
            (7, 0x3c6b_f7a6_1162_abaa),
            (1, 0xdad1_ffb3_47de_f502),
            (3, 0x8f90_48f9_40a7_b614),
        ];
        let got = pinned.map(|(seed, _)| (seed, digest(&study_plan(seed))));
        assert_eq!(got, pinned, "(seed, digest) pairs");
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
