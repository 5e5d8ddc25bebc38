//! Country / autonomous-system metadata (the simulation's analog of the
//! paper's "IP meta data service").

use std::collections::HashMap;
use std::net::Ipv4Addr;

/// ISO-ish country label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CountryCode(pub &'static str);

impl std::fmt::Display for CountryCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

/// An autonomous system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AsInfo {
    /// AS number, e.g. 16509.
    pub asn: u32,
    /// Operator name, e.g. "Amazon EC2".
    pub name: &'static str,
    /// Whether this AS is a dedicated hosting provider (the paper found
    /// ~64% of vulnerable hosts in hosting networks).
    pub hosting: bool,
}

/// Geo/AS record of one address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeoRecord {
    pub country: CountryCode,
    pub asys: AsInfo,
}

/// Weighted (country, AS, weight) rows for *vulnerable host* placement,
/// shaped after Table 4 (top countries: US, CN, DE, SG, FR; top ASes:
/// Amazon EC2, Alibaba, Amazon AES, DigitalOcean, Google Cloud) plus a
/// long tail.
pub const HOSTING_MIX: &[(CountryCode, AsInfo, u32)] = &[
    (
        CountryCode("United States"),
        AsInfo {
            asn: 16509,
            name: "Amazon EC2",
            hosting: true,
        },
        913,
    ),
    (
        CountryCode("China"),
        AsInfo {
            asn: 37963,
            name: "Alibaba",
            hosting: true,
        },
        542,
    ),
    (
        CountryCode("United States"),
        AsInfo {
            asn: 14618,
            name: "Amazon AES",
            hosting: true,
        },
        329,
    ),
    (
        CountryCode("Singapore"),
        AsInfo {
            asn: 14061,
            name: "DigitalOcean",
            hosting: true,
        },
        97,
    ),
    (
        CountryCode("United States"),
        AsInfo {
            asn: 14061,
            name: "DigitalOcean",
            hosting: true,
        },
        147,
    ),
    (
        CountryCode("United States"),
        AsInfo {
            asn: 396982,
            name: "Google Cloud",
            hosting: true,
        },
        221,
    ),
    (
        CountryCode("United States"),
        AsInfo {
            asn: 7922,
            name: "Comcast",
            hosting: false,
        },
        180,
    ),
    (
        CountryCode("United States"),
        AsInfo {
            asn: 20115,
            name: "Charter",
            hosting: false,
        },
        160,
    ),
    (
        CountryCode("United States"),
        AsInfo {
            asn: 7018,
            name: "AT&T",
            hosting: false,
        },
        154,
    ),
    (
        CountryCode("China"),
        AsInfo {
            asn: 4134,
            name: "Chinanet",
            hosting: false,
        },
        160,
    ),
    (
        CountryCode("China"),
        AsInfo {
            asn: 4837,
            name: "China Unicom",
            hosting: false,
        },
        150,
    ),
    (
        CountryCode("China"),
        AsInfo {
            asn: 4812,
            name: "China Telecom",
            hosting: false,
        },
        148,
    ),
    (
        CountryCode("Germany"),
        AsInfo {
            asn: 24940,
            name: "Hetzner",
            hosting: true,
        },
        120,
    ),
    (
        CountryCode("Germany"),
        AsInfo {
            asn: 3320,
            name: "Deutsche Telekom",
            hosting: false,
        },
        52,
    ),
    (
        CountryCode("France"),
        AsInfo {
            asn: 16276,
            name: "OVH",
            hosting: true,
        },
        96,
    ),
    (
        CountryCode("United Kingdom"),
        AsInfo {
            asn: 20473,
            name: "Vultr",
            hosting: true,
        },
        80,
    ),
    (
        CountryCode("Japan"),
        AsInfo {
            asn: 2516,
            name: "KDDI",
            hosting: false,
        },
        70,
    ),
    (
        CountryCode("Netherlands"),
        AsInfo {
            asn: 60781,
            name: "LeaseWeb",
            hosting: true,
        },
        65,
    ),
    (
        CountryCode("India"),
        AsInfo {
            asn: 9829,
            name: "BSNL",
            hosting: false,
        },
        60,
    ),
    (
        CountryCode("Brazil"),
        AsInfo {
            asn: 28573,
            name: "Claro",
            hosting: false,
        },
        55,
    ),
    (
        CountryCode("South Korea"),
        AsInfo {
            asn: 4766,
            name: "Korea Telecom",
            hosting: false,
        },
        50,
    ),
    (
        CountryCode("Russia"),
        AsInfo {
            asn: 12389,
            name: "Rostelecom",
            hosting: false,
        },
        45,
    ),
    (
        CountryCode("Canada"),
        AsInfo {
            asn: 577,
            name: "Bell Canada",
            hosting: false,
        },
        40,
    ),
    (
        CountryCode("Australia"),
        AsInfo {
            asn: 13335,
            name: "Cloudflare",
            hosting: true,
        },
        35,
    ),
];

/// Attack-origin quotas, calibrated so that assigning the study's 2,195
/// attacks to these rows reproduces Tables 7 and 8 exactly:
/// top countries NL 496, BR 398, US 359, RU 192, SG 168, MD 136, UK 71,
/// PL 69, IN 52, CH 51 (= 1,992), plus 203 attacks from other countries;
/// top ASes Serverion 469 (2 countries), Gamers Club 396 (2),
/// DigitalOcean 351 (here 2 of the paper's 14 countries), Alexhost 135,
/// Amazon EC2 78. Weights sum to 2,195 — the study's total attack count.
pub const ATTACKER_MIX: &[(CountryCode, AsInfo, u32)] = &[
    (
        CountryCode("Netherlands"),
        AsInfo {
            asn: 211252,
            name: "Serverion BV",
            hosting: true,
        },
        449,
    ),
    (
        CountryCode("Germany"),
        AsInfo {
            asn: 211252,
            name: "Serverion BV",
            hosting: true,
        },
        20,
    ),
    (
        CountryCode("Brazil"),
        AsInfo {
            asn: 268624,
            name: "Gamers Club",
            hosting: true,
        },
        380,
    ),
    (
        CountryCode("Portugal"),
        AsInfo {
            asn: 268624,
            name: "Gamers Club",
            hosting: true,
        },
        16,
    ),
    (
        CountryCode("United States"),
        AsInfo {
            asn: 14061,
            name: "DigitalOcean",
            hosting: true,
        },
        230,
    ),
    (
        CountryCode("Singapore"),
        AsInfo {
            asn: 14061,
            name: "DigitalOcean",
            hosting: true,
        },
        121,
    ),
    (
        CountryCode("Singapore"),
        AsInfo {
            asn: 17547,
            name: "M1 Net",
            hosting: true,
        },
        47,
    ),
    (
        CountryCode("Moldova"),
        AsInfo {
            asn: 200019,
            name: "Alexhost",
            hosting: true,
        },
        135,
    ),
    (
        CountryCode("Moldova"),
        AsInfo {
            asn: 39798,
            name: "MivoCloud",
            hosting: true,
        },
        1,
    ),
    (
        CountryCode("United States"),
        AsInfo {
            asn: 16509,
            name: "Amazon EC2",
            hosting: true,
        },
        78,
    ),
    (
        CountryCode("Russia"),
        AsInfo {
            asn: 12389,
            name: "Rostelecom",
            hosting: false,
        },
        70,
    ),
    (
        CountryCode("Russia"),
        AsInfo {
            asn: 49505,
            name: "Selectel",
            hosting: true,
        },
        65,
    ),
    (
        CountryCode("Russia"),
        AsInfo {
            asn: 8359,
            name: "MTS",
            hosting: false,
        },
        57,
    ),
    (
        CountryCode("United Kingdom"),
        AsInfo {
            asn: 20473,
            name: "Vultr",
            hosting: true,
        },
        60,
    ),
    (
        CountryCode("United Kingdom"),
        AsInfo {
            asn: 9009,
            name: "M247",
            hosting: true,
        },
        11,
    ),
    (
        CountryCode("Poland"),
        AsInfo {
            asn: 57367,
            name: "Artnet",
            hosting: true,
        },
        69,
    ),
    (
        CountryCode("India"),
        AsInfo {
            asn: 9829,
            name: "BSNL",
            hosting: false,
        },
        52,
    ),
    (
        CountryCode("Switzerland"),
        AsInfo {
            asn: 51852,
            name: "Private Layer",
            hosting: true,
        },
        51,
    ),
    (
        CountryCode("United States"),
        AsInfo {
            asn: 7922,
            name: "Comcast",
            hosting: false,
        },
        51,
    ),
    (
        CountryCode("Netherlands"),
        AsInfo {
            asn: 60781,
            name: "LeaseWeb",
            hosting: true,
        },
        27,
    ),
    (
        CountryCode("Netherlands"),
        AsInfo {
            asn: 49981,
            name: "WorldStream",
            hosting: true,
        },
        20,
    ),
    (
        CountryCode("Brazil"),
        AsInfo {
            asn: 28573,
            name: "Claro",
            hosting: false,
        },
        18,
    ),
    (
        CountryCode("China"),
        AsInfo {
            asn: 4134,
            name: "Chinanet",
            hosting: false,
        },
        25,
    ),
    (
        CountryCode("France"),
        AsInfo {
            asn: 16276,
            name: "OVH",
            hosting: true,
        },
        22,
    ),
    (
        CountryCode("Vietnam"),
        AsInfo {
            asn: 45899,
            name: "VNPT",
            hosting: false,
        },
        15,
    ),
    (
        CountryCode("Ukraine"),
        AsInfo {
            asn: 13188,
            name: "Triolan",
            hosting: false,
        },
        30,
    ),
    (
        CountryCode("Japan"),
        AsInfo {
            asn: 2516,
            name: "KDDI",
            hosting: false,
        },
        25,
    ),
    (
        CountryCode("Canada"),
        AsInfo {
            asn: 852,
            name: "Telus",
            hosting: false,
        },
        20,
    ),
    (
        CountryCode("Italy"),
        AsInfo {
            asn: 12874,
            name: "Fastweb",
            hosting: false,
        },
        15,
    ),
    (
        CountryCode("Spain"),
        AsInfo {
            asn: 12479,
            name: "Orange ES",
            hosting: false,
        },
        15,
    ),
];

/// Pick a row from a weighted mix given a uniform draw in `0..total`.
pub fn pick_weighted(mix: &[(CountryCode, AsInfo, u32)], draw: u32) -> (CountryCode, AsInfo) {
    let total: u32 = mix.iter().map(|(_, _, w)| *w).sum();
    let mut x = draw % total;
    for (c, a, w) in mix {
        if x < *w {
            return (*c, *a);
        }
        x -= w;
    }
    unreachable!("draw is reduced modulo the total weight")
}

/// The simulation's IP metadata service: a populated map from address to
/// record, filled in during universe generation.
#[derive(Debug, Default, Clone)]
pub struct GeoDb {
    records: HashMap<Ipv4Addr, GeoRecord>,
}

impl GeoDb {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register the record for `ip` (last write wins).
    pub fn insert(&mut self, ip: Ipv4Addr, record: GeoRecord) {
        self.records.insert(ip, record);
    }

    /// Look up `ip`.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<GeoRecord> {
        self.records.get(&ip).copied()
    }

    /// Number of known addresses.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_pick_is_exhaustive_and_proportional() {
        let total: u32 = HOSTING_MIX.iter().map(|(_, _, w)| w).sum();
        let mut counts: HashMap<&str, u32> = HashMap::new();
        for draw in 0..total {
            let (c, _) = pick_weighted(HOSTING_MIX, draw);
            *counts.entry(c.0).or_default() += 1;
        }
        // Enumerating every draw reproduces the exact weights.
        assert_eq!(counts["United States"], 913 + 329 + 147 + 221 + 494);
        assert_eq!(counts["Canada"], 40);
        assert_eq!(counts["China"], 542 + 458);
    }

    #[test]
    fn us_dominates_hosting_mix_matching_table4() {
        let mut by_country: HashMap<&str, u32> = HashMap::new();
        for (c, _, w) in HOSTING_MIX {
            *by_country.entry(c.0).or_default() += w;
        }
        let us = by_country["United States"];
        let cn = by_country["China"];
        assert!(us > cn, "US should host the most vulnerable instances");
        assert!(cn > by_country["Germany"]);
    }

    #[test]
    fn serverion_tops_attacker_mix_matching_table8() {
        let mut by_as: HashMap<&str, u32> = HashMap::new();
        for (_, a, w) in ATTACKER_MIX {
            *by_as.entry(a.name).or_default() += w;
        }
        assert!(by_as["Serverion BV"] > by_as["Gamers Club"]);
        assert!(by_as["Gamers Club"] > by_as["DigitalOcean"]);
    }

    #[test]
    fn geodb_round_trip() {
        let mut db = GeoDb::new();
        let ip = Ipv4Addr::new(20, 0, 0, 1);
        let rec = GeoRecord {
            country: CountryCode("United States"),
            asys: AsInfo {
                asn: 16509,
                name: "Amazon EC2",
                hosting: true,
            },
        };
        assert!(db.lookup(ip).is_none());
        db.insert(ip, rec);
        assert_eq!(db.lookup(ip), Some(rec));
        assert_eq!(db.len(), 1);
    }
}

#[cfg(test)]
mod attacker_mix_tests {
    use super::*;

    fn by_country() -> HashMap<&'static str, u32> {
        let mut m = HashMap::new();
        for (c, _, w) in ATTACKER_MIX {
            *m.entry(c.0).or_default() += w;
        }
        m
    }

    fn by_as() -> HashMap<&'static str, u32> {
        let mut m = HashMap::new();
        for (_, a, w) in ATTACKER_MIX {
            *m.entry(a.name).or_default() += w;
        }
        m
    }

    #[test]
    fn attacker_mix_sums_to_total_attacks() {
        assert_eq!(by_country().values().sum::<u32>(), 2_195);
    }

    #[test]
    fn attacker_mix_reproduces_table7_countries() {
        let c = by_country();
        assert_eq!(c["Netherlands"], 496);
        assert_eq!(c["Brazil"], 398);
        assert_eq!(c["United States"], 359);
        assert_eq!(c["Russia"], 192);
        assert_eq!(c["Singapore"], 168);
        assert_eq!(c["Moldova"], 136);
        assert_eq!(c["United Kingdom"], 71);
        assert_eq!(c["Poland"], 69);
        assert_eq!(c["India"], 52);
        assert_eq!(c["Switzerland"], 51);
    }

    #[test]
    fn attacker_mix_reproduces_table8_ases() {
        let a = by_as();
        assert_eq!(a["Serverion BV"], 469);
        assert_eq!(a["Gamers Club"], 396);
        assert_eq!(a["DigitalOcean"], 351);
        assert_eq!(a["Alexhost"], 135);
        assert_eq!(a["Amazon EC2"], 78);
    }
}
