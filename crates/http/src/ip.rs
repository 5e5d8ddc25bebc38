//! IPv4 utilities: CIDR blocks and the IANA reserved ranges the paper
//! excluded from its scan.
//!
//! The exclusion list is data, not work: `IANA_RANGES` is a table
//! checked at compile time (ascending, disjoint, host bits zero, no
//! prefix past /24, 794,035,200 addresses), and from it a `const fn`
//! derives an exclusion tree down to /24: a root row of one entry per
//! first octet — no reserved address, wholly reserved, or mixed — where
//! a mixed entry names a 256-entry row for the next octet (ten rows,
//! 2.5 KB, for the IANA list). [`ReservedRanges::coverage`] answers a
//! /24 in a clear or reserved first octet with one load from the root
//! (~0.7 ns) and any other /24 in at most two more (~3.2 ns, where a
//! pass over the 26 ranges took ~34 ns);
//! [`ReservedRanges::contains`] deliberately never reads the tree, so
//! the by-address answer stays an independent check on the by-block
//! one.

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

    /// Iterate over the /24 sub-blocks (the scan's shuffling unit). A
    /// block smaller than /24 yields itself.
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

/// An entry of the exclusion tree that no reserved address falls under.
const CLEAR: u8 = 0;
/// An entry of the exclusion tree that only reserved addresses fall
/// under. Every other entry is *mixed* and names the row one octet
/// down; row 0 is the root, so no entry names it.
const RESERVED: u8 = u8::MAX;

/// Rows of [`IANA_TREE`]: the root; the first octets 100, 169, 172,
/// 192, 198 and 203; the second octets 192.0, 198.51 and 203.0.
const IANA_ROWS: usize = 10;

/// [`IANA_RANGES`] as a tree of 256-entry rows, one octet per level.
static IANA_TREE: [[u8; 256]; IANA_ROWS] = exclusion_tree(&IANA_RANGES);

/// Derive the exclusion tree from `ranges`. Row 0 has one entry per
/// first octet (an /8); an entry holding a range longer than its own
/// span is mixed and names a row for the next octet, down to entries of
/// one /24. Asserts that the tree has exactly `ROWS` rows and no mixed
/// entry at the third level, so every /24 is answered in at most three
/// loads. Correct for a list [`check_ranges`] accepts: ascending,
/// disjoint ranges never put a range under an entry another reserves.
const fn exclusion_tree<const ROWS: usize>(ranges: &[Cidr]) -> [[u8; 256]; ROWS] {
    assert!(ROWS < RESERVED as usize, "row index does not fit an entry");
    let mut rows = [[CLEAR; 256]; ROWS];
    let mut used = 1;
    let mut i = 0;
    while i < ranges.len() {
        let r = ranges[i];
        let octets = r.base.to_be_bytes();
        let (mut row, mut level) = (0, 0);
        // Descend while the range is narrower than an entry's span.
        while r.prefix as usize > 8 * (level + 1) {
            let entry = rows[row][octets[level] as usize];
            if entry == CLEAR {
                assert!(level < 2, "mixed entry at the third level");
                assert!(used < ROWS, "row count moved");
                rows[row][octets[level] as usize] = used as u8;
                row = used;
                used += 1;
            } else {
                row = entry as usize;
            }
            level += 1;
        }
        // Reserve every entry the range spans at this level.
        let first = octets[level] as usize;
        let mut e = first;
        while e < first + (1 << (8 * (level + 1) - r.prefix as usize)) {
            rows[row][e] = RESERVED;
            e += 1;
        }
        i += 1;
    }
    assert!(used == ROWS, "row count moved");
    rows
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
    tree: &'static [[u8; 256]; IANA_ROWS],
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
            tree: &IANA_TREE,
        }
    }

    /// Whether `ip` is excluded from scanning. A plain scan of the
    /// ranges, on purpose: it is the independent answer
    /// [`coverage`](Self::coverage) is held to, so it must not share
    /// the exclusion tree.
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
    /// first octet, and 250 of the 256 are either free of reserved
    /// addresses or wholly inside a range of prefix <= 8: one load from
    /// the tree's root answers those. In the six mixed octets the
    /// descent reads the second octet's row and, under 192.0, 198.51
    /// and 203.0, the third's, so every /24 is answered in at most
    /// three loads. A block shorter than the level the descent stops at
    /// (under /8, or a /12 in a mixed octet) goes to the range pass,
    /// which defines the answer everywhere. With the IANA list (all
    /// prefixes <= 24) and /24-or-smaller scan blocks, `Partial` is
    /// unreachable.
    ///
    /// Cost per /24, planning every /16 of the IPv4 space one after
    /// another (Intel Xeon, 2 vCPUs, wall clock): 0.67–0.70 ns in a
    /// clear or reserved octet, 3.1–3.2 ns in a mixed one — where the
    /// 26-range pass used to answer in 33–35 ns.
    // Callers sit in other crates; without this the root load is a call
    // (`space_plan`: 444 M blocks/s as a call, 730 M inlined).
    #[inline]
    pub fn coverage(&self, block: Cidr) -> BlockCoverage {
        if block.prefix >= 8 {
            match self.tree[0][(block.base >> 24) as usize] {
                CLEAR => return BlockCoverage::None,
                RESERVED => return BlockCoverage::Full,
                row => return self.descend(block, row),
            }
        }
        self.range_pass(block)
    }

    /// `coverage` of a block of prefix >= 8 in a mixed first octet,
    /// whose entry names `row`: the tree's answer, else the range pass.
    // Out of line, range pass included, so a caller's loop holds one
    // call and nothing of the range pass. Returning the tree's `Option`
    // and running the pass inline left `space_plan`'s sums on the stack
    // across that call: 0.9× the one-level table's speed, against 2.0×.
    #[inline(never)]
    fn descend(&self, block: Cidr, row: u8) -> BlockCoverage {
        self.tree_answer(block, row)
            .unwrap_or_else(|| self.range_pass(block))
    }

    /// The tree's answer for a block of prefix >= 8 below `row`; `None`
    /// when the block spans several entries of a row on the way down.
    /// Every block of /24 or longer is answered (no third-level entry
    /// is mixed).
    fn tree_answer(&self, block: Cidr, mut row: u8) -> Option<BlockCoverage> {
        let [_, b, c, _] = block.base.to_be_bytes();
        // Each level's octet, and the prefix of one of its entries.
        for (octet, entry_prefix) in [(b, 16), (c, 24)] {
            if block.prefix < entry_prefix {
                return None;
            }
            match self.tree[row as usize][octet as usize] {
                CLEAR => return Some(BlockCoverage::None),
                RESERVED => return Some(BlockCoverage::Full),
                child => row = child,
            }
        }
        None
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
        assert_eq!(coverage("198.51.100.0/24"), BlockCoverage::Full);
        assert_eq!(coverage("198.18.0.0/16"), BlockCoverage::Full);
        // Shorter than a second-level entry: the range pass answers.
        assert_eq!(coverage("172.16.0.0/12"), BlockCoverage::Full);
        assert_eq!(coverage("172.0.0.0/12"), BlockCoverage::None);
    }

    /// Every entry of the tree under `row`, in address order, keyed by
    /// the octets that lead to it.
    fn tree_entries(row: usize, path: &[u8], out: &mut Vec<(Vec<u8>, u8)>) {
        for (octet, &entry) in IANA_TREE[row].iter().enumerate() {
            let at = [path, &[octet as u8]].concat();
            out.push((at.clone(), entry));
            if entry != CLEAR && entry != RESERVED {
                tree_entries(entry as usize, &at, out);
            }
        }
    }

    #[test]
    fn exclusion_tree_follows_the_ranges() {
        let mut entries = Vec::new();
        tree_entries(0, &[], &mut entries);
        let at = |level: usize, kind: fn(u8) -> bool| -> Vec<Vec<u8>> {
            (entries.iter())
                .filter(|(path, entry)| path.len() == level + 1 && kind(*entry))
                .map(|(path, _)| path.clone())
                .collect()
        };
        let clear: fn(u8) -> bool = |e| e == CLEAR;
        let reserved: fn(u8) -> bool = |e| e == RESERVED;
        let mixed: fn(u8) -> bool = |e| e != CLEAR && e != RESERVED;

        // Ten rows, each but the root named by exactly one entry.
        let mut named: Vec<u8> = entries.iter().map(|e| e.1).filter(|&e| mixed(e)).collect();
        named.sort_unstable();
        assert_eq!(IANA_TREE.len(), 10);
        assert_eq!(named, (1..10).collect::<Vec<u8>>());

        assert_eq!(at(0, clear).len(), 203);
        assert_eq!(
            at(0, reserved).len(),
            15 + 16 + 16,
            "fifteen /8s and two /4s"
        );
        assert_eq!(at(0, mixed), [[100], [169], [172], [192], [198], [203]]);

        // The second level's reserved entries, as runs of second octets.
        let mut spans: Vec<(u8, u8, u8)> = Vec::new();
        for path in at(1, reserved) {
            match spans.last_mut() {
                Some((a, _, last)) if *a == path[0] && path[1].checked_sub(1) == Some(*last) => {
                    *last = path[1]
                }
                _ => spans.push((path[0], path[1], path[1])),
            }
        }
        let want = [
            (100, 64, 127),
            (169, 254, 254),
            (172, 16, 31),
            (192, 168, 168),
            (198, 18, 19),
        ];
        assert_eq!(spans, want);
        assert_eq!(at(1, mixed), [[192, 0], [198, 51], [203, 0]]);

        let third = [[192, 0, 0], [192, 0, 2], [198, 51, 100], [203, 0, 113]];
        assert_eq!(at(2, reserved), third);
        assert!(at(2, mixed).is_empty());
    }

    /// `coverage` is the range pass, whatever the tree says; the tree
    /// alone answers every block of /24 or longer; and on /24s it agrees
    /// with `contains`, which never reads the tree.
    #[test]
    fn coverage_equals_the_range_pass() {
        let r = ReservedRanges::iana();
        let check = |block: Cidr| {
            assert_eq!(r.coverage(block), r.range_pass(block), "{block}");
            let root = r.tree[0][(block.base >> 24) as usize];
            if block.prefix >= 24 && root != CLEAR && root != RESERVED {
                let by_tree = r.tree_answer(block, root);
                assert_eq!(by_tree, Some(r.range_pass(block)), "{block}");
            }
            if block.prefix == 24 {
                let full = r.coverage(block) == BlockCoverage::Full;
                assert_eq!(r.contains(block.first()), full, "{block}");
                assert_eq!(r.contains(block.last()), full, "{block}");
            }
        };
        // Every /16 and /24 of the mixed octets, one /24 per /16 of the
        // others.
        let mut mixed: Vec<u8> = (r.ranges().iter())
            .filter(|range| range.prefix > 8)
            .map(|range| range.first().octets()[0])
            .collect();
        mixed.dedup();
        for octet in 0..=255u8 {
            let whole = Cidr::new(Ipv4Addr::new(octet, 0, 0, 0), 8);
            let step = if mixed.contains(&octet) { 1 } else { 256 };
            whole.slash24_blocks().step_by(step).for_each(check);
        }
        for &octet in &mixed {
            (0..=255).for_each(|b| check(Cidr::new(Ipv4Addr::new(octet, b, 0, 0), 16)));
        }
        // Random addresses at every block size: anywhere, in a mixed
        // octet, or in the /16 of a range.
        crate::cases::check(2_000, |g| {
            let low = g.u64() as u32;
            let addr = match g.index(0..3) {
                0 => low,
                1 => (u32::from(*g.pick(&mixed)) << 24) | (low >> 8),
                _ => (u32::from(g.pick(r.ranges()).first()) & 0xffff_0000) | (low >> 16),
            };
            for prefix in 0..=32 {
                check(Cidr::new(Ipv4Addr::from(addr), prefix));
            }
        });
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
