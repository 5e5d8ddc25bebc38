//! IPv4 utilities: CIDR blocks and the IANA reserved ranges the paper
//! excluded from its scan.
//!
//! The exclusion list is data, not work: `IANA_RANGES` is a table
//! checked at compile time (ascending, disjoint, host bits zero, no
//! prefix past /24, 794,035,200 addresses), and from it a `const fn`
//! derives one class per first octet — no reserved address, wholly
//! reserved, or mixed. [`ReservedRanges::coverage`] answers a block
//! inside a clear or reserved octet with one load from that table;
//! [`ReservedRanges::contains`] deliberately never reads it, so the
//! by-address answer stays an independent check on the by-block one.

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

    const fn mask(prefix: u8) -> u32 {
        if prefix == 0 {
            0
        } else {
            u32::MAX << (32 - prefix)
        }
    }

    /// Number of addresses in the block.
    pub const fn size(&self) -> u64 {
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

/// One row of [`IANA_RANGES`].
const fn range(a: u8, b: u8, c: u8, d: u8, prefix: u8) -> Cidr {
    Cidr {
        base: u32::from_be_bytes([a, b, c, d]),
        prefix,
    }
}

/// The standard exclusion list (Section 3.1: multicast, private use,
/// US DoD, etc.), held to its invariants by [`check_ranges`].
static IANA_RANGES: [Cidr; 26] = [
    range(0, 0, 0, 0, 8),       // "this network"
    range(6, 0, 0, 0, 8),       // US DoD (Army)
    range(7, 0, 0, 0, 8),       // US DoD
    range(10, 0, 0, 0, 8),      // private
    range(11, 0, 0, 0, 8),      // US DoD
    range(22, 0, 0, 0, 8),      // US DoD
    range(26, 0, 0, 0, 8),      // US DoD
    range(28, 0, 0, 0, 8),      // US DoD
    range(29, 0, 0, 0, 8),      // US DoD
    range(30, 0, 0, 0, 8),      // US DoD
    range(33, 0, 0, 0, 8),      // US DoD
    range(55, 0, 0, 0, 8),      // US DoD
    range(100, 64, 0, 0, 10),   // CGNAT
    range(127, 0, 0, 0, 8),     // loopback
    range(169, 254, 0, 0, 16),  // link local
    range(172, 16, 0, 0, 12),   // private
    range(192, 0, 0, 0, 24),    // IETF protocol assignments
    range(192, 0, 2, 0, 24),    // TEST-NET-1
    range(192, 168, 0, 0, 16),  // private
    range(198, 18, 0, 0, 15),   // benchmarking
    range(198, 51, 100, 0, 24), // TEST-NET-2
    range(203, 0, 113, 0, 24),  // TEST-NET-3
    range(214, 0, 0, 0, 8),     // US DoD
    range(215, 0, 0, 0, 8),     // US DoD
    range(224, 0, 0, 0, 4),     // multicast
    range(240, 0, 0, 0, 4),     // reserved / future use
];

/// What the exclusion list holds of one first octet (`a` in `a.b.c.d`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OctetClass {
    /// No reserved address.
    Clear,
    /// A range of prefix <= 8 covers the whole octet.
    Reserved,
    /// The octet holds a range longer than /8, so the answer depends on
    /// the rest of the address.
    Mixed,
}

static IANA_CLASSES: [OctetClass; 256] = octet_classes(&IANA_RANGES);

/// Derive the class of every first octet from `ranges`. Correct for a
/// list [`check_ranges`] accepts: disjoint ranges cannot put a long
/// range inside an octet a short one covers.
const fn octet_classes(ranges: &[Cidr]) -> [OctetClass; 256] {
    let mut classes = [OctetClass::Clear; 256];
    let mut i = 0;
    while i < ranges.len() {
        let r = ranges[i];
        let first = (r.base >> 24) as usize;
        if r.prefix <= 8 {
            let mut octet = first;
            while octet < first + (1 << (8 - r.prefix)) {
                classes[octet] = OctetClass::Reserved;
                octet += 1;
            }
        } else {
            classes[first] = OctetClass::Mixed;
        }
        i += 1;
    }
    classes
}

/// What the code around the list assumes of it, checked when the crate
/// is compiled.
const fn check_ranges(ranges: &[Cidr]) {
    let mut total = 0;
    let mut i = 0;
    while i < ranges.len() {
        let r = ranges[i];
        // `PortScanner::sweep` never meets a /24 it would have to split.
        assert!(r.prefix <= 24, "range longer than /24");
        assert!(r.base & !Cidr::mask(r.prefix) == 0, "host bits set");
        // Ascending with a gap to the predecessor's last address: every
        // pair is disjoint, so `excluded_count` may sum the sizes.
        if i > 0 {
            let prev = ranges[i - 1];
            assert!(
                prev.base | !Cidr::mask(prev.prefix) < r.base,
                "ranges overlap or are out of order"
            );
        }
        total += r.size();
        i += 1;
    }
    // 2^32 - 794,035,200 = 3,500,932,096: the paper's "3.5 B".
    assert!(total == 794_035_200, "excluded total moved");
}

const _: () = check_ranges(&IANA_RANGES);

/// The IANA special-purpose / reserved IPv4 allocations excluded from the
/// scan (Section 3.1: multicast, private use, US DoD, etc.): 794,035,200
/// addresses, leaving 3,500,932,096 scannable. A `Copy` handle on two
/// static tables; building one costs nothing.
#[derive(Debug, Clone, Copy)]
pub struct ReservedRanges {
    ranges: &'static [Cidr],
    classes: &'static [OctetClass; 256],
}

impl Default for ReservedRanges {
    fn default() -> Self {
        Self::iana()
    }
}

impl ReservedRanges {
    /// The standard exclusion list.
    pub const fn iana() -> Self {
        ReservedRanges {
            ranges: &IANA_RANGES,
            classes: &IANA_CLASSES,
        }
    }

    /// Whether `ip` is excluded from scanning. A plain scan of the
    /// ranges, on purpose: it is the independent answer
    /// [`coverage`](Self::coverage) is held to, so it must not share
    /// the class table.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        self.ranges.iter().any(|r| r.contains(ip))
    }

    /// Total number of excluded addresses (ranges do not overlap).
    pub fn excluded_count(&self) -> u64 {
        self.ranges.iter().map(|r| r.size()).sum()
    }

    /// The exclusion list itself.
    pub fn ranges(&self) -> &'static [Cidr] {
        self.ranges
    }

    /// Classify `block` against the exclusion list without testing its
    /// addresses individually. A block of prefix >= 8 lies inside one
    /// first octet, and all but six octets are either free of reserved
    /// addresses or wholly inside a range of prefix <= 8: one load from
    /// the class table answers those. The six mixed octets and blocks
    /// shorter than /8 go to the range pass, which defines the answer
    /// everywhere. With the IANA list (all prefixes <= 24) and
    /// /24-or-smaller scan blocks, `Partial` is unreachable.
    // Callers sit in other crates; without this the load is a call
    // (`space_plan`: 444 M blocks/s as a call, 730 M inlined).
    #[inline]
    pub fn coverage(&self, block: Cidr) -> BlockCoverage {
        if block.prefix >= 8 {
            match self.classes[(block.base >> 24) as usize] {
                OctetClass::Clear => return BlockCoverage::None,
                OctetClass::Reserved => return BlockCoverage::Full,
                OctetClass::Mixed => {}
            }
        }
        self.range_pass(block)
    }

    /// `coverage` by the ranges alone. CIDRs nest or are disjoint, so a
    /// range covers the whole block iff its prefix is no longer than
    /// the block's and it contains the block's first address; the block
    /// straddles a boundary only when it strictly contains a range.
    fn range_pass(&self, block: Cidr) -> BlockCoverage {
        let mut partial = false;
        for r in self.ranges {
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
        let coverage = |block: &str| r.coverage(block.parse().unwrap());
        // Fully inside a reserved /8: a reserved octet.
        assert_eq!(coverage("10.9.8.0/24"), BlockCoverage::Full);
        // Entirely scannable: a clear octet.
        assert_eq!(coverage("20.0.7.0/24"), BlockCoverage::None);
        // A /6 strictly containing several reserved /8s straddles them.
        assert_eq!(coverage("8.0.0.0/6"), BlockCoverage::Partial);
        // A mixed octet answers by the rest of the address.
        assert_eq!(coverage("192.0.2.0/24"), BlockCoverage::Full);
        assert_eq!(coverage("192.0.1.0/24"), BlockCoverage::None);
        assert_eq!(coverage("192.0.0.0/22"), BlockCoverage::Partial);
    }

    #[test]
    fn octet_classes_follow_the_ranges() {
        let class = |octet: usize| IANA_CLASSES[octet];
        let mixed: Vec<usize> = (0..256)
            .filter(|&o| class(o) == OctetClass::Mixed)
            .collect();
        assert_eq!(mixed, [100, 169, 172, 192, 198, 203]);
        let reserved = (0..256)
            .filter(|&o| class(o) == OctetClass::Reserved)
            .count();
        assert_eq!(reserved, 15 + 16 + 16, "fifteen /8s and two /4s");
        assert_eq!(class(223), OctetClass::Clear);
        assert_eq!(class(224), OctetClass::Reserved);
        assert_eq!(class(255), OctetClass::Reserved);
    }

    /// `coverage` is the range pass, whatever the class table says; and
    /// on /24s it agrees with `contains`, which never reads the table.
    #[test]
    fn coverage_equals_the_range_pass() {
        let r = ReservedRanges::iana();
        let check = |block: Cidr| {
            assert_eq!(r.coverage(block), r.range_pass(block), "{block}");
            if block.prefix == 24 {
                let full = r.coverage(block) == BlockCoverage::Full;
                assert_eq!(r.contains(block.first()), full, "{block}");
                assert_eq!(r.contains(block.last()), full, "{block}");
            }
        };
        // Every /24 of the mixed octets, one per /16 of the others.
        for octet in 0..=255u8 {
            let whole = Cidr::new(Ipv4Addr::new(octet, 0, 0, 0), 8);
            let mixed = (r.ranges().iter())
                .any(|range| range.prefix > 8 && range.first().octets()[0] == octet);
            let step = if mixed { 1 } else { 256 };
            whole.slash24_blocks().step_by(step).for_each(check);
        }
        // Both sides of every range boundary, at every block size.
        for range in r.ranges() {
            let (first, last) = (u32::from(range.first()), u32::from(range.last()));
            let edges = [first.wrapping_sub(1), first, last, last.wrapping_add(1)];
            for addr in edges {
                for prefix in 0..=32 {
                    check(Cidr::new(Ipv4Addr::from(addr), prefix));
                }
            }
        }
    }

    /// The paper's "3.5 B", to the address.
    #[test]
    fn exclusion_leaves_roughly_3_5_billion() {
        let r = ReservedRanges::iana();
        assert_eq!(r.excluded_count(), 794_035_200);
        assert_eq!((1u64 << 32) - r.excluded_count(), 3_500_932_096);
    }
}
