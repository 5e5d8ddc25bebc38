//! Unique-attack and actor clustering.
//!
//! "In addition to the total number of attacks, we also tried to
//! determine the number of unique attacks based on grouping attacks by
//! payloads and source IP addresses." Actors are recovered by
//! transitively linking attacks that share a payload identity or a
//! source address (the mechanical core of the paper's semi-automatic
//! analysis).

use crate::detect::Attack;
use nokeys_apps::AppId;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Unique attacks against `app`: distinct payload identities among the
/// detected attacks.
pub fn unique_attacks(attacks: &[Attack], app: AppId) -> usize {
    let mut payloads: Vec<&str> = attacks
        .iter()
        .filter(|a| a.app == app)
        .flat_map(|a| a.payloads.iter().map(String::as_str))
        .collect();
    payloads.sort();
    payloads.dedup();
    payloads.len()
}

/// Unique source IPs observed against `app`.
pub fn unique_ips(attacks: &[Attack], app: AppId) -> usize {
    let mut ips: Vec<Ipv4Addr> = attacks
        .iter()
        .filter(|a| a.app == app)
        .map(|a| a.source)
        .collect();
    ips.sort();
    ips.dedup();
    ips.len()
}

/// A recovered actor: the attacks, IPs, payloads and applications linked
/// together by shared payloads / addresses.
#[derive(Debug, Clone)]
pub struct ActorCluster {
    pub attack_count: usize,
    pub ips: Vec<Ipv4Addr>,
    pub payloads: Vec<String>,
    pub apps: Vec<AppId>,
}

impl ActorCluster {
    pub fn is_multi_app(&self) -> bool {
        self.apps.len() >= 2
    }
}

/// Union-find over attack indices.
struct Dsu(Vec<usize>);

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu((0..n).collect())
    }
    fn find(&mut self, x: usize) -> usize {
        if self.0[x] != x {
            let root = self.find(self.0[x]);
            self.0[x] = root;
        }
        self.0[x]
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0[ra] = rb;
        }
    }
}

/// Recover actors by linking attacks sharing a payload or an IP.
pub fn cluster_actors(attacks: &[Attack]) -> Vec<ActorCluster> {
    let mut dsu = Dsu::new(attacks.len());
    let mut by_payload: HashMap<&str, usize> = HashMap::new();
    let mut by_ip: HashMap<Ipv4Addr, usize> = HashMap::new();
    for (i, a) in attacks.iter().enumerate() {
        for p in &a.payloads {
            match by_payload.get(p.as_str()) {
                Some(&j) => dsu.union(i, j),
                None => {
                    by_payload.insert(p, i);
                }
            }
        }
        match by_ip.get(&a.source) {
            Some(&j) => dsu.union(i, j),
            None => {
                by_ip.insert(a.source, i);
            }
        }
    }

    let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
    for i in 0..attacks.len() {
        groups.entry(dsu.find(i)).or_default().push(i);
    }

    let mut clusters: Vec<ActorCluster> = groups
        .into_values()
        .map(|members| {
            let mut ips: Vec<Ipv4Addr> = members.iter().map(|&i| attacks[i].source).collect();
            ips.sort();
            ips.dedup();
            let mut payloads: Vec<String> = members
                .iter()
                .flat_map(|&i| attacks[i].payloads.clone())
                .collect();
            payloads.sort();
            payloads.dedup();
            let mut apps: Vec<AppId> = members.iter().map(|&i| attacks[i].app).collect();
            apps.sort();
            apps.dedup();
            ActorCluster {
                attack_count: members.len(),
                ips,
                payloads,
                apps,
            }
        })
        .collect();
    // A total order (IP sets are disjoint across clusters): the groups
    // come out of a `HashMap` in a different order every run.
    clusters.sort_by(|a, b| {
        let by_size = b.attack_count.cmp(&a.attack_count);
        by_size.then_with(|| a.ips.cmp(&b.ips))
    });
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use nokeys_netsim::SimTime;

    fn attack(app: AppId, ip: [u8; 4], payload: &str) -> Attack {
        Attack {
            app,
            source: Ipv4Addr::from(ip),
            start: SimTime(0),
            end: SimTime(0),
            payloads: vec![payload.to_string()],
        }
    }

    #[test]
    fn unique_counting() {
        let attacks = vec![
            attack(AppId::Hadoop, [1, 1, 1, 1], "a"),
            attack(AppId::Hadoop, [1, 1, 1, 2], "a"),
            attack(AppId::Hadoop, [1, 1, 1, 1], "b"),
            attack(AppId::Docker, [1, 1, 1, 3], "c"),
        ];
        assert_eq!(unique_attacks(&attacks, AppId::Hadoop), 2);
        assert_eq!(unique_ips(&attacks, AppId::Hadoop), 2);
        assert_eq!(unique_attacks(&attacks, AppId::Docker), 1);
        assert_eq!(unique_attacks(&attacks, AppId::Jenkins), 0);
    }

    #[test]
    fn payload_links_ips_into_one_actor() {
        let attacks = vec![
            attack(AppId::Hadoop, [1, 1, 1, 1], "kinsing"),
            attack(AppId::Hadoop, [1, 1, 1, 2], "kinsing"),
            attack(AppId::Docker, [1, 1, 1, 3], "other"),
        ];
        let actors = cluster_actors(&attacks);
        assert_eq!(actors.len(), 2);
        assert_eq!(actors[0].attack_count, 2);
        assert_eq!(actors[0].ips.len(), 2);
    }

    #[test]
    fn ip_links_payloads_into_one_actor() {
        let attacks = vec![
            attack(AppId::Docker, [1, 1, 1, 1], "x"),
            attack(AppId::JupyterNotebook, [1, 1, 1, 1], "y"),
        ];
        let actors = cluster_actors(&attacks);
        assert_eq!(actors.len(), 1);
        assert!(actors[0].is_multi_app());
        assert_eq!(actors[0].payloads, vec!["x", "y"]);
    }

    #[test]
    fn transitive_linking() {
        // a--ip--b--payload--c forms one actor.
        let attacks = vec![
            attack(AppId::Hadoop, [1, 1, 1, 1], "p1"),
            attack(AppId::Hadoop, [1, 1, 1, 1], "p2"),
            attack(AppId::Hadoop, [1, 1, 1, 2], "p2"),
        ];
        let actors = cluster_actors(&attacks);
        assert_eq!(actors.len(), 1);
        assert_eq!(actors[0].ips.len(), 2);
    }

    #[test]
    fn output_does_not_depend_on_input_or_hash_order() {
        // Four tied single-attack actors and one larger one.
        let mut attacks: Vec<Attack> = (1..=4)
            .map(|n| attack(AppId::Docker, [1, 1, 1, n], &format!("solo{n}")))
            .collect();
        attacks.extend([1, 2].map(|n| attack(AppId::Hadoop, [2, 2, 2, n], "pair")));
        let ips = |attacks: &[Attack]| -> Vec<Vec<Ipv4Addr>> {
            cluster_actors(attacks).into_iter().map(|c| c.ips).collect()
        };
        let reference = ips(&attacks);
        assert_eq!(reference[0].len(), 2, "largest actor first");
        for _ in 0..attacks.len() {
            attacks.rotate_left(1);
            assert_eq!(ips(&attacks), reference);
        }
    }

    #[test]
    fn empty_input() {
        assert!(cluster_actors(&[]).is_empty());
    }
}
