//! Property tests for the simulation substrate, driven by the seeded
//! case generator in `nokeys_http::cases`: CIDR algebra, lifecycle
//! monotonicity and universe determinism. A failure prints `seed=<n>`.

use nokeys_http::cases::check;
use nokeys_netsim::ip::{Cidr, ReservedRanges};
use nokeys_netsim::lifecycle::{HostState, LifecycleParams};
use nokeys_netsim::rng::SplitMix64;
use nokeys_netsim::{SimTime, Universe, UniverseConfig};
use std::net::Ipv4Addr;

/// A CIDR contains exactly its own addresses.
#[test]
fn cidr_contains_its_range() {
    check(256, |g| {
        let prefix = g.range(8..31) as u8;
        let cidr = Cidr::new(Ipv4Addr::from(g.u64() as u32), prefix);
        assert!(cidr.contains(cidr.first()));
        assert!(cidr.contains(cidr.last()));
        if let Some(beyond) = u32::from(cidr.last()).checked_add(1) {
            assert!(!cidr.contains(Ipv4Addr::from(beyond)));
        }
        assert_eq!(cidr.size(), 1u64 << (32 - prefix));
    });
}

/// /24 decomposition partitions the block: disjoint and complete.
#[test]
fn slash24_blocks_partition() {
    check(256, |g| {
        let cidr = Cidr::new(Ipv4Addr::from(g.u64() as u32), g.range(16..25) as u8);
        let blocks: Vec<Cidr> = cidr.slash24_blocks().collect();
        let total: u64 = blocks.iter().map(|b| b.size()).sum();
        assert_eq!(total, cidr.size());
        for w in blocks.windows(2) {
            assert!(u64::from(w[0].base) + w[0].size() == u64::from(w[1].base));
        }
    });
}

/// CIDR parsing round trips through Display.
#[test]
fn cidr_display_round_trip() {
    check(256, |g| {
        let cidr = Cidr::new(Ipv4Addr::from(g.u64() as u32), g.range(0..33) as u8);
        let back: Cidr = cidr.to_string().parse().expect("display parses");
        assert_eq!(cidr, back);
    });
}

/// Host lifecycle is monotone: once a host leaves `Online` it never
/// returns, and once `Offline` it stays `Offline`.
#[test]
fn lifecycle_is_monotone() {
    check(256, |g| {
        let mut rng = SplitMix64::new(g.u64());
        let samples = g.range(2..40) as i64;
        let plan = LifecycleParams::for_category(nokeys_apps::Category::Cm).sample(&mut rng, true);
        let step = (28 * 86_400) / samples;
        let mut prev = HostState::Online;
        for i in 0..=samples {
            let state = plan.state_at(SimTime(i * step));
            let regression = matches!(
                (prev, state),
                (HostState::Offline, HostState::Online)
                    | (HostState::Offline, HostState::Fixed)
                    | (HostState::Fixed, HostState::Online)
            );
            assert!(!regression, "{prev:?} -> {state:?}");
            prev = state;
        }
    });
}

/// Universe generation is a pure function of the seed.
#[test]
fn universe_determinism() {
    check(8, |g| {
        let seed = g.u64();
        let a = Universe::generate(UniverseConfig::tiny(seed));
        let b = Universe::generate(UniverseConfig::tiny(seed));
        assert_eq!(a.host_count(), b.host_count());
        let mut ips_a: Vec<u32> = a.hosts().map(|h| u32::from(h.ip)).collect();
        let mut ips_b: Vec<u32> = b.hosts().map(|h| u32::from(h.ip)).collect();
        ips_a.sort();
        ips_b.sort();
        assert_eq!(ips_a, ips_b);
        for ip in ips_a {
            let ha = a.host(Ipv4Addr::from(ip)).expect("host");
            let hb = b.host(Ipv4Addr::from(ip)).expect("host");
            assert_eq!(ha.services, hb.services);
            assert_eq!(ha.lifecycle, hb.lifecycle);
            assert_eq!(ha.cert_domain, hb.cert_domain);
        }
    });
}

/// Every generated host sits inside the configured space and outside
/// IANA reserved ranges (the space itself is chosen unreserved).
#[test]
fn universe_hosts_stay_in_space() {
    check(8, |g| {
        let config = UniverseConfig::tiny(g.u64());
        let u = Universe::generate(config.clone());
        let reserved = ReservedRanges::iana();
        for host in u.hosts() {
            assert!(config.space.contains(host.ip), "{} outside space", host.ip);
            assert!(!reserved.contains(host.ip));
        }
    });
}
