//! The attacker model.

use crate::payloads::Payload;
use nokeys_apps::AppId;
use nokeys_netsim::geo::GeoRecord;
use std::net::Ipv4Addr;

/// Stable attacker identity (ground truth; the honeypot analysis must
/// *re-derive* actors from payload/IP clustering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttackerId(pub u32);

/// One attacker: a set of source IPs (with geo metadata), a payload
/// repertoire and target applications.
#[derive(Debug, Clone)]
pub struct Attacker {
    pub id: AttackerId,
    /// Human label for debugging/EXPERIMENTS.md ("hadoop-prime", ...).
    pub label: String,
    /// Source IP pool with geo records (attackers often operate from
    /// hosting providers; attacker I used 14 different IPs).
    pub ips: Vec<(Ipv4Addr, GeoRecord)>,
    /// Payload repertoire.
    pub payloads: Vec<Payload>,
    /// Applications this attacker targets.
    pub targets: Vec<AppId>,
}

impl Attacker {
    /// Whether this attacker targets at least two applications (the
    /// Figure 4 population).
    pub fn is_multi_target(&self) -> bool {
        self.targets.len() >= 2
    }
}
