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
    /// Source IP used for the `n`-th attack (round-robin over the pool).
    pub fn ip_for_attack(&self, n: usize) -> Ipv4Addr {
        self.ips[n % self.ips.len()].0
    }

    /// Payload used for the `n`-th attack (round-robin).
    pub fn payload_for_attack(&self, n: usize) -> &Payload {
        &self.payloads[n % self.payloads.len()]
    }

    /// Whether this attacker targets at least two applications (the
    /// Figure 4 population).
    pub fn is_multi_target(&self) -> bool {
        self.targets.len() >= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nokeys_netsim::geo::{AsInfo, CountryCode};

    fn geo() -> GeoRecord {
        GeoRecord {
            country: CountryCode("Netherlands"),
            asys: AsInfo {
                asn: 211252,
                name: "Serverion BV",
                hosting: true,
            },
        }
    }

    #[test]
    fn round_robin_over_pools() {
        let a = Attacker {
            id: AttackerId(1),
            label: "t".into(),
            ips: vec![
                (Ipv4Addr::new(203, 0, 113, 1), geo()),
                (Ipv4Addr::new(203, 0, 113, 2), geo()),
            ],
            payloads: vec![
                Payload::kinsing(1),
                Payload::kinsing(2),
                Payload::kinsing(3),
            ],
            targets: vec![AppId::Hadoop, AppId::Docker],
        };
        assert_eq!(a.ip_for_attack(0), Ipv4Addr::new(203, 0, 113, 1));
        assert_eq!(a.ip_for_attack(1), Ipv4Addr::new(203, 0, 113, 2));
        assert_eq!(a.ip_for_attack(2), Ipv4Addr::new(203, 0, 113, 1));
        assert_eq!(a.payload_for_attack(4).name, "kinsing-v2");
        assert!(a.is_multi_target());
    }
}
