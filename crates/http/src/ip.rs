//! IPv4 utilities: CIDR blocks and the IANA reserved ranges the paper
//! excluded from its scan.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// A CIDR block, e.g. `20.0.0.0/8`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cidr {
    /// Network base address (host bits zeroed).
    pub base: u32,
    /// Prefix length 0..=32.
    pub prefix: u8,
}

impl Cidr {
    /// Construct, zeroing host bits.
    pub fn new(addr: Ipv4Addr, prefix: u8) -> Self {
        assert!(prefix <= 32, "prefix out of range");
        let base = u32::from(addr) & Self::mask(prefix);
        Cidr { base, prefix }
    }

    fn mask(prefix: u8) -> u32 {
        if prefix == 0 {
            0
        } else {
            u32::MAX << (32 - prefix)
        }
    }

    /// Number of addresses in the block.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.prefix)
    }

    /// First address of the block.
    pub fn first(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.base)
    }

    /// Last address of the block.
    pub fn last(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.base | !Self::mask(self.prefix))
    }

    /// Whether `ip` belongs to the block.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        u32::from(ip) & Self::mask(self.prefix) == self.base
    }

    /// Iterate over the /24 sub-blocks (the scan's shuffling unit). For
    /// blocks smaller than /24 the single covering block is returned.
    /// Takes `self` by value (`Cidr` is `Copy`) so the iterator borrows
    /// nothing and composes directly with `flat_map`.
    pub fn slash24_blocks(self) -> impl Iterator<Item = Cidr> {
        let step = 256u64;
        let count = if self.prefix >= 24 {
            1
        } else {
            self.size() / step
        };
        let base = self.base;
        let prefix = self.prefix.max(24);
        (0..count).map(move |i| Cidr {
            base: base + (i as u32) * 256,
            prefix,
        })
    }

    /// Iterate over every address in the block.
    pub fn addresses(self) -> impl Iterator<Item = Ipv4Addr> {
        let base = self.base as u64;
        (0..self.size()).map(move |i| Ipv4Addr::from((base + i) as u32))
    }
}

/// How much of a block an exclusion list covers. Because exclusion
/// ranges and scan blocks are both CIDRs (which nest or are disjoint),
/// a block is `Full`y covered exactly when some range with an equal or
/// shorter prefix contains it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockCoverage {
    /// No excluded address falls inside the block.
    None,
    /// The block straddles an exclusion boundary (only possible when the
    /// block is *larger* than some excluded range).
    Partial,
    /// Every address of the block is excluded.
    Full,
}

impl fmt::Display for Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.first(), self.prefix)
    }
}

impl FromStr for Cidr {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, prefix) = s.split_once('/').ok_or("missing /prefix")?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| "bad address")?;
        let prefix: u8 = prefix.parse().map_err(|_| "bad prefix")?;
        if prefix > 32 {
            return Err("prefix > 32");
        }
        Ok(Cidr::new(addr, prefix))
    }
}

/// The IANA special-purpose / reserved IPv4 allocations excluded from the
/// scan (Section 3.1: multicast, private use, US DoD, etc.). Roughly 0.8B
/// addresses, leaving ~3.5B scannable.
#[derive(Debug, Clone)]
pub struct ReservedRanges {
    ranges: Vec<Cidr>,
}

impl Default for ReservedRanges {
    fn default() -> Self {
        Self::iana()
    }
}

impl ReservedRanges {
    /// The standard exclusion list.
    pub fn iana() -> Self {
        let list = [
            "0.0.0.0/8",       // "this network"
            "6.0.0.0/8",       // US DoD (Army)
            "7.0.0.0/8",       // US DoD
            "10.0.0.0/8",      // private
            "11.0.0.0/8",      // US DoD
            "22.0.0.0/8",      // US DoD
            "26.0.0.0/8",      // US DoD
            "28.0.0.0/8",      // US DoD
            "29.0.0.0/8",      // US DoD
            "30.0.0.0/8",      // US DoD
            "33.0.0.0/8",      // US DoD
            "55.0.0.0/8",      // US DoD
            "100.64.0.0/10",   // CGNAT
            "127.0.0.0/8",     // loopback
            "169.254.0.0/16",  // link local
            "172.16.0.0/12",   // private
            "192.0.0.0/24",    // IETF protocol assignments
            "192.0.2.0/24",    // TEST-NET-1
            "192.168.0.0/16",  // private
            "198.18.0.0/15",   // benchmarking
            "198.51.100.0/24", // TEST-NET-2
            "203.0.113.0/24",  // TEST-NET-3
            "214.0.0.0/8",     // US DoD
            "215.0.0.0/8",     // US DoD
            "224.0.0.0/4",     // multicast
            "240.0.0.0/4",     // reserved / future use
        ];
        ReservedRanges {
            ranges: list
                .iter()
                .map(|s| s.parse().expect("static list parses"))
                .collect(),
        }
    }

    /// Whether `ip` is excluded from scanning.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        self.ranges.iter().any(|r| r.contains(ip))
    }

    /// Total number of excluded addresses (ranges do not overlap).
    pub fn excluded_count(&self) -> u64 {
        self.ranges.iter().map(|r| r.size()).sum()
    }

    /// The exclusion list itself.
    pub fn ranges(&self) -> &[Cidr] {
        &self.ranges
    }

    /// Classify `block` against the exclusion list in one pass, without
    /// testing its addresses individually. CIDRs nest or are disjoint,
    /// so a range covers the whole block iff its prefix is no longer
    /// than the block's and it contains the block's first address; the
    /// block straddles a boundary only when it strictly contains a
    /// range. With the IANA list (all prefixes ≤ 24) and /24-or-smaller
    /// scan blocks, `Partial` is unreachable.
    pub fn coverage(&self, block: Cidr) -> BlockCoverage {
        let mut partial = false;
        for r in &self.ranges {
            if r.prefix <= block.prefix && r.contains(block.first()) {
                return BlockCoverage::Full;
            }
            if block.contains(r.first()) {
                partial = true;
            }
        }
        if partial {
            BlockCoverage::Partial
        } else {
            BlockCoverage::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cidr_basics() {
        let c: Cidr = "10.1.2.3/24".parse().unwrap();
        assert_eq!(c.first(), Ipv4Addr::new(10, 1, 2, 0));
        assert_eq!(c.last(), Ipv4Addr::new(10, 1, 2, 255));
        assert_eq!(c.size(), 256);
        assert!(c.contains(Ipv4Addr::new(10, 1, 2, 77)));
        assert!(!c.contains(Ipv4Addr::new(10, 1, 3, 0)));
        assert_eq!(c.to_string(), "10.1.2.0/24");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("10.0.0.0".parse::<Cidr>().is_err());
        assert!("10.0.0.0/33".parse::<Cidr>().is_err());
        assert!("999.0.0.0/8".parse::<Cidr>().is_err());
    }

    #[test]
    fn slash24_decomposition() {
        let c: Cidr = "20.0.0.0/22".parse().unwrap();
        let blocks: Vec<_> = c.slash24_blocks().collect();
        assert_eq!(blocks.len(), 4);
        assert_eq!(blocks[0].first(), Ipv4Addr::new(20, 0, 0, 0));
        assert_eq!(blocks[3].first(), Ipv4Addr::new(20, 0, 3, 0));
        // A /26 decomposes into itself.
        let c: Cidr = "20.0.0.0/26".parse().unwrap();
        assert_eq!(c.slash24_blocks().count(), 1);
    }

    #[test]
    fn addresses_enumerates_all() {
        let c: Cidr = "20.0.0.0/30".parse().unwrap();
        let addrs: Vec<_> = c.addresses().collect();
        assert_eq!(addrs.len(), 4);
        assert_eq!(addrs[3], Ipv4Addr::new(20, 0, 0, 3));
    }

    #[test]
    fn reserved_ranges_cover_the_classics() {
        let r = ReservedRanges::iana();
        assert!(r.contains(Ipv4Addr::new(10, 1, 1, 1)));
        assert!(r.contains(Ipv4Addr::new(127, 0, 0, 1)));
        assert!(r.contains(Ipv4Addr::new(224, 0, 0, 1)));
        assert!(r.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert!(!r.contains(Ipv4Addr::new(8, 8, 8, 8)));
        assert!(!r.contains(Ipv4Addr::new(20, 77, 1, 3)));
    }

    #[test]
    fn coverage_classifies_blocks_without_enumerating() {
        let r = ReservedRanges::iana();
        // Fully inside a reserved /8.
        let block: Cidr = "10.9.8.0/24".parse().unwrap();
        assert_eq!(r.coverage(block), BlockCoverage::Full);
        // Entirely scannable.
        let block: Cidr = "20.0.7.0/24".parse().unwrap();
        assert_eq!(r.coverage(block), BlockCoverage::None);
        // A /6 strictly containing several reserved /8s straddles them.
        let block: Cidr = "8.0.0.0/6".parse().unwrap();
        assert_eq!(r.coverage(block), BlockCoverage::Partial);
        // Every IANA range has prefix <= 24, so no /24-or-smaller scan
        // block can be Partial — the sparse sweep relies on this.
        for range in r.ranges() {
            assert!(range.prefix <= 24, "range {range} longer than /24");
        }
    }

    #[test]
    fn exclusion_leaves_roughly_3_5_billion() {
        let r = ReservedRanges::iana();
        let scannable = (1u64 << 32) - r.excluded_count();
        assert!(
            (3_300_000_000..3_700_000_000).contains(&scannable),
            "scannable = {scannable}"
        );
    }
}
