//! Single-pass multi-pattern matching for the prefilter signatures.
//!
//! The naive stage-II hot loop runs 90 substring searches per response
//! body (one per [`Signature`]), each of which rescans the body from
//! the start. [`MultiPattern`] compiles the catalog into three small
//! Aho–Corasick automata, one per [`MatchMode`], and reads each body
//! **once**: a single loop over the raw bytes advances the three state
//! registers together, so their lookup chains overlap in the pipeline
//! and no lowered or whitespace-stripped copy of the body is ever
//! built.
//!
//! The case and whitespace folds live in the automata, not in copies:
//!
//! - **ASCII case** is a property of the case-insensitive automaton's
//!   byte classes: `A`–`Z` share the column of `a`–`z`.
//! - **ASCII whitespace** is a column of the whitespace-insensitive
//!   automaton on which every state loops to itself.
//! - **Multi-byte whitespace** (`U+0085`, `U+00A0`, `U+1680`,
//!   `U+2000`–`U+200A`, `U+2028`, `U+2029`, `U+202F`, `U+205F`,
//!   `U+3000`) cannot be decided by one byte, so the loop decodes the
//!   character at every non-ASCII lead byte and, when it is whitespace,
//!   hides that many bytes from the third register only.
//!
//! The matcher is exactly equivalent to running each signature's
//! [`Pattern`](crate::pattern::Pattern) individually; the unit tests
//! below and the `prefilter` tests enforce that equivalence.

use crate::pattern::{MatchMode, PreparedBody};
use crate::scratch::Scratch;
use crate::signatures::{rank_candidates, Signature};
use nokeys_apps::AppId;
use std::collections::BTreeMap;

/// Flag on a transition whose target state ends at least one needle.
/// Row offsets stay below it (checked at build time).
const MATCH: u32 = 1 << 31;

/// Column of ASCII whitespace in an `IgnoreWhitespace` automaton: every
/// state loops to itself on it.
const SKIP: usize = 1;

/// One trie node during construction: children hang off `first_child`
/// as a `next_sibling` list, 0 (the root, never a child) ending it.
struct TrieNode {
    /// Column of the edge leading here.
    column: u8,
    first_child: u32,
    next_sibling: u32,
}

/// A class-compressed Aho–Corasick automaton over bytes.
///
/// Bytes are first mapped to *columns*: column 0 is every byte no
/// needle contains, each other needle byte gets its own, and a
/// [`MatchMode`] may make bytes share one (see [`Automaton::new`]). A
/// row has one `u32` per column, fail links already resolved into it,
/// and a state's id is the offset of its row, so a step is
/// `table[state + classes[byte]]` with no multiply. A transition into a
/// state that ends a needle carries the `MATCH` bit, so the walk
/// tests one bit per byte and reads `out` only on a hit. For the
/// 90-signature catalog the exact automaton has 1,166 rows of 69
/// columns (322 KB, a quarter of what 256-wide rows would take; the
/// other two add 6 KB), and the rows a needle-free body visits — the
/// root and its children — stay in the L1 cache.
#[derive(Debug, Clone)]
pub struct Automaton {
    /// Byte → column.
    classes: [u8; 256],
    /// Columns per row.
    columns: usize,
    /// Complete goto function, `MATCH`-flagged row offsets.
    table: Vec<u32>,
    /// Needle ids ending at each row (fail closure already merged).
    out: Vec<Vec<u32>>,
}

impl Automaton {
    /// Build from `(needle_id, needle)` pairs. `mode` folds into the
    /// byte classes what one byte can decide: `IgnoreCase` gives
    /// `A`–`Z` the columns of `a`–`z`; `IgnoreWhitespace` gives ASCII
    /// whitespace a column on which every state loops to itself.
    /// Whitespace longer than one byte is for the walking loop to hide
    /// ([`MultiPattern`] does).
    ///
    /// Panics on a needle its mode can never match — empty, a nocase
    /// needle with an uppercase letter, a nospace needle with
    /// whitespace: a signature like that is a bug in the catalog.
    pub fn new<'a, I>(mode: MatchMode, needles: I) -> Self
    where
        I: IntoIterator<Item = (u32, &'a str)>,
    {
        let needles: Vec<(u32, &str)> = needles.into_iter().collect();

        // Byte classes. A needle is UTF-8, which never uses 0xC0, 0xC1
        // or 0xF5..=0xFF, so the columns fit a `u8`.
        let mut classes = [0u8; 256];
        let mut columns = 1usize;
        let skips_whitespace = mode == MatchMode::IgnoreWhitespace;
        if skips_whitespace {
            for b in (0..=0x7f_u8).filter(|&b| char::from(b).is_whitespace()) {
                classes[usize::from(b)] = SKIP as u8;
            }
            columns = SKIP + 1;
        }
        for &(_, needle) in &needles {
            assert!(!needle.is_empty(), "empty multi-pattern needle");
            match mode {
                MatchMode::Exact => {}
                MatchMode::IgnoreCase => assert!(
                    !needle.bytes().any(|b| b.is_ascii_uppercase()),
                    "nocase needles must be lowercase: {needle:?}"
                ),
                MatchMode::IgnoreWhitespace => assert!(
                    !needle.chars().any(char::is_whitespace),
                    "nospace needles must contain no whitespace: {needle:?}"
                ),
            }
            for &b in needle.as_bytes() {
                if classes[usize::from(b)] == 0 {
                    classes[usize::from(b)] = columns as u8;
                    columns += 1;
                }
            }
        }
        if mode == MatchMode::IgnoreCase {
            for b in b'A'..=b'Z' {
                classes[usize::from(b)] = classes[usize::from(b.to_ascii_lowercase())];
            }
        }

        // Trie over columns; `out[node]` collects the needles ending there.
        let mut trie = vec![TrieNode {
            column: 0,
            first_child: 0,
            next_sibling: 0,
        }];
        let mut out: Vec<Vec<u32>> = vec![Vec::new()];
        for &(id, needle) in &needles {
            let mut node = 0usize;
            for &b in needle.as_bytes() {
                let column = classes[usize::from(b)];
                let mut child = trie[node].first_child as usize;
                while child != 0 && trie[child].column != column {
                    child = trie[child].next_sibling as usize;
                }
                if child == 0 {
                    child = trie.len();
                    trie.push(TrieNode {
                        column,
                        first_child: 0,
                        next_sibling: trie[node].first_child,
                    });
                    out.push(Vec::new());
                    trie[node].first_child = child as u32;
                }
                node = child;
            }
            out[node].push(id);
        }
        assert!(
            trie.len() * columns < MATCH as usize,
            "automaton too large for flagged u32 row offsets"
        );

        // BFS from the root. A row starts as a copy of its fail state's
        // row (complete: fail states are shallower, so they left the
        // queue earlier) and then takes the node's own children. A
        // child's fail state is what that copy held in its column, and
        // it reports iff it ends a needle itself or the copied
        // transition was already flagged — so flags and merged `out`
        // lists are final the moment a child is queued.
        let mut table = vec![0u32; trie.len() * columns];
        let mut fail = vec![0usize; trie.len()];
        let mut queue = Vec::with_capacity(trie.len());
        queue.push(0usize);
        let mut head = 0;
        while let Some(&node) = queue.get(head) {
            head += 1;
            let row = node * columns;
            if node != 0 {
                let fail_row = fail[node] * columns;
                table.copy_within(fail_row..fail_row + columns, row);
            }
            if skips_whitespace {
                table[row + SKIP] = row as u32;
            }
            let mut child = trie[node].first_child as usize;
            while child != 0 {
                let slot = row + usize::from(trie[child].column);
                // The root's row holds its own children, not fail targets.
                let inherited = if node == 0 { 0 } else { table[slot] };
                fail[child] = (inherited & !MATCH) as usize / columns;
                if inherited & MATCH != 0 {
                    let suffixes = out[fail[child]].clone();
                    out[child].extend(suffixes);
                }
                let flag = if out[child].is_empty() { 0 } else { MATCH };
                table[slot] = (child * columns) as u32 | flag;
                queue.push(child);
                child = trie[child].next_sibling as usize;
            }
        }

        Automaton {
            classes,
            columns,
            table,
            out,
        }
    }

    /// One byte further from `state`; marks the needles that end there.
    #[inline(always)]
    fn step(&self, state: u32, byte: u8, matched: &mut [bool]) -> u32 {
        let next = self.table[state as usize + usize::from(self.classes[usize::from(byte)])];
        if next & MATCH == 0 {
            next
        } else {
            self.report(next & !MATCH, matched)
        }
    }

    #[cold]
    fn report(&self, state: u32, matched: &mut [bool]) -> u32 {
        for &id in &self.out[state as usize / self.columns] {
            matched[id as usize] = true;
        }
        state
    }

    /// Single pass over `haystack`; sets `matched[id] = true` for every
    /// needle occurring in it, under the folds the table holds (ASCII
    /// only — see [`Automaton::new`]).
    pub fn find_into(&self, haystack: &str, matched: &mut [bool]) {
        let mut state = 0;
        for &byte in haystack.as_bytes() {
            state = self.step(state, byte, matched);
        }
    }
}

/// The hide-counter rule, for the non-ASCII byte `raw[at]`: whether it
/// belongs to a whitespace character, and so must not reach the
/// whitespace-insensitive register. A lead byte decodes its character
/// and arms `hide` with the character's length if it is whitespace;
/// every hidden byte, the lead included, then counts it down.
#[cold]
fn hidden(raw: &str, at: usize, hide: &mut usize) -> bool {
    if raw.is_char_boundary(at) {
        let c = raw[at..].chars().next().expect("`at` indexes a byte");
        *hide = if c.is_whitespace() { c.len_utf8() } else { 0 };
    }
    if *hide == 0 {
        return false;
    }
    *hide -= 1;
    true
}

/// Which transformed views a matching pass built. The fused walk builds
/// none, so both fields are always `None`; the type stays because the
/// benchmark (`benchmark/src/program.rs`) reads it to report
/// `core.scratch.{lower,squash}_share`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewUse {
    /// Bytes copied into a lowered view: never any.
    pub lower: Option<usize>,
    /// Bytes copied into a squashed view: never any.
    pub squashed: Option<usize>,
}

/// The compiled signature set: one automaton per [`MatchMode`], walked
/// together over the raw body.
#[derive(Debug, Clone)]
pub struct MultiPattern {
    exact: Automaton,
    nocase: Automaton,
    nospace: Automaton,
    /// Signature index → application, in catalog order.
    apps: Vec<AppId>,
}

impl MultiPattern {
    /// Compile a signature catalog. Signature order is preserved so the
    /// matcher's output is interchangeable with the linear scan's.
    pub fn new(signatures: &[Signature]) -> Self {
        let automaton = |mode: MatchMode| {
            Automaton::new(
                mode,
                signatures
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.pattern.mode == mode)
                    .map(|(i, s)| (i as u32, s.pattern.needle)),
            )
        };
        MultiPattern {
            exact: automaton(MatchMode::Exact),
            nocase: automaton(MatchMode::IgnoreCase),
            nospace: automaton(MatchMode::IgnoreWhitespace),
            apps: signatures.iter().map(|s| s.app).collect(),
        }
    }

    /// Number of compiled signatures.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    /// The one matching loop: each byte of `raw` advances the three
    /// registers, whose table lookups are independent and overlap.
    /// Only `nospace` ever skips a byte: the bytes of a multi-byte
    /// whitespace character (its ASCII kin loop in the table).
    fn walk(&self, raw: &str, matched: &mut [bool]) {
        let (mut exact, mut nocase, mut nospace) = (0, 0, 0);
        // Bytes of the current whitespace character still to hide.
        let mut hide = 0;
        for (at, &byte) in raw.as_bytes().iter().enumerate() {
            exact = self.exact.step(exact, byte, matched);
            nocase = self.nocase.step(nocase, byte, matched);
            if byte.is_ascii() || !hidden(raw, at, &mut hide) {
                nospace = self.nospace.step(nospace, byte, matched);
            }
        }
    }

    /// Which signatures match `body` (index-aligned with the catalog).
    /// Reads `body.raw` only; neither view is materialized.
    pub fn matched_signatures(&self, body: &PreparedBody) -> Vec<bool> {
        let mut matched = vec![false; self.apps.len()];
        self.walk(&body.raw, &mut matched);
        matched
    }

    /// Allocation-free variant of
    /// [`matched_signatures`](Self::matched_signatures): the match bits
    /// live in the caller's [`Scratch`] and are left in
    /// `scratch.matched()` for the caller to read.
    pub fn matched_signatures_scratch(&self, raw: &str, scratch: &mut Scratch) -> ViewUse {
        let matched = scratch.matched_buf();
        matched.clear();
        matched.resize(self.apps.len(), false);
        self.walk(raw, matched);
        ViewUse {
            lower: None,
            squashed: None,
        }
    }

    /// Per-application match counts — same contract as
    /// [`crate::signatures::match_counts`].
    pub fn match_counts(&self, body: &PreparedBody) -> Vec<(AppId, u32)> {
        self.counts_from_matched(&self.matched_signatures(body))
    }

    /// Aggregate a [`matched_signatures`](Self::matched_signatures)
    /// vector into per-application counts. Split out so callers that
    /// need the per-signature bits (telemetry's per-signature hit
    /// counters) pay only one automaton pass.
    pub fn counts_from_matched(&self, matched: &[bool]) -> Vec<(AppId, u32)> {
        let mut counts: BTreeMap<AppId, u32> = BTreeMap::new();
        for (i, hit) in matched.iter().enumerate() {
            if *hit {
                *counts.entry(self.apps[i]).or_default() += 1;
            }
        }
        counts.into_iter().collect()
    }

    /// Candidate applications ordered by match strength — same contract
    /// as [`crate::signatures::match_candidates`].
    pub fn match_candidates(&self, body: &PreparedBody) -> Vec<AppId> {
        rank_candidates(self.match_counts(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use crate::signatures::{all_signatures, match_candidates, match_counts};
    use nokeys_http::cases::check;

    fn automaton(mode: MatchMode, needles: &[&'static str]) -> Automaton {
        Automaton::new(mode, (0u32..).zip(needles.iter().copied()))
    }

    #[test]
    fn automaton_finds_overlapping_patterns() {
        let a = automaton(MatchMode::Exact, &["he", "she", "his", "hers"]);
        let mut m = vec![false; 4];
        a.find_into("ushers", &mut m);
        assert_eq!(m, vec![true, true, false, true]);
    }

    #[test]
    fn automaton_handles_repeated_and_nested_needles() {
        let a = automaton(MatchMode::Exact, &["aa", "aaa", "baa"]);
        let mut m = vec![false; 3];
        a.find_into("abaaa", &mut m);
        assert_eq!(m, vec![true, true, true]);
    }

    /// Exhaustive: on every string of length ≤ 6 over the needles'
    /// letters plus one byte no needle contains, `find_into` reports
    /// exactly the needles `Pattern::matches` finds. Small enough to
    /// enumerate, and each layout decision has a case that breaks if it
    /// is wrong: the stray byte must fall back to the root through
    /// column 0 (byte classes), deep states must land on the right row
    /// (row-offset ids), and a needle ending inside or at the end of
    /// another must be reported from the longer one's states (match
    /// flags inherited along fail links during the BFS). The last two
    /// sets pin the folds the table itself holds.
    #[test]
    fn automaton_agrees_with_contains_on_every_short_string() {
        use MatchMode::{Exact, IgnoreCase, IgnoreWhitespace};
        let sets: [(MatchMode, &[&'static str], &str); 7] = [
            (Exact, &["he", "she", "his", "hers"], "hesx"),
            (Exact, &["he", "she", "his", "hers"], "hirx"),
            (Exact, &["aa", "aaa", "baa"], "abcx"),
            (Exact, &["b"], "abcx"),
            (Exact, &["cab", "ab", "b", "abca"], "abcx"),
            (IgnoreCase, &["ab", "bab"], "aAbBx"),
            (IgnoreWhitespace, &["ab", "bab"], "ab \nx"),
        ];
        for (mode, needles, alphabet) in sets {
            let a = automaton(mode, needles);
            let mut strings = vec![String::new()];
            let mut level = 0..1;
            for _ in 0..6 {
                for i in level.clone() {
                    for c in alphabet.chars() {
                        let longer = format!("{}{c}", strings[i]);
                        strings.push(longer);
                    }
                }
                level = level.end..strings.len();
            }
            assert_eq!(
                strings.len(),
                (0..=6).map(|n| alphabet.len().pow(n)).sum::<usize>()
            );
            for s in &strings {
                let mut found = vec![false; needles.len()];
                a.find_into(s, &mut found);
                let body = PreparedBody::new(s.as_str());
                let expected: Vec<bool> = needles
                    .iter()
                    .map(|&needle| Pattern { needle, mode }.matches(&body))
                    .collect();
                assert_eq!(found, expected, "{mode:?} {needles:?} in {s:?}");
            }
        }
    }

    #[test]
    fn agrees_with_linear_scan_on_app_bodies() {
        use nokeys_apps::traits::Driver;
        use nokeys_apps::{build_instance, release_history, AppConfig};
        let sigs = all_signatures();
        let mp = MultiPattern::new(&sigs);
        let driver = Driver::new();
        for app in AppId::in_scope() {
            let version = *release_history(app).last().unwrap();
            let mut inst = build_instance(app, version, AppConfig::secure_for(app, &version));
            let mut path = "/".to_string();
            let body = loop {
                let out = driver.get(inst.as_mut(), &path);
                match out.response.location() {
                    Some(loc) => path = loc.to_string(),
                    None => break out.response.body_text(),
                }
            };
            let prepared = PreparedBody::new(body);
            assert_eq!(
                mp.match_counts(&prepared),
                match_counts(&sigs, &prepared),
                "{app}: multi-pattern counts diverge from the linear scan"
            );
            assert_eq!(
                mp.match_candidates(&prepared),
                match_candidates(&sigs, &prepared),
                "{app}: multi-pattern ranking diverges from the linear scan"
            );
        }
    }

    /// The catalog, its compiled form and one reused arena.
    struct Paths {
        sigs: Vec<Signature>,
        mp: MultiPattern,
        scratch: Scratch,
    }

    impl Paths {
        fn new() -> Self {
            let sigs = all_signatures();
            let mp = MultiPattern::new(&sigs);
            Paths {
                sigs,
                mp,
                scratch: Scratch::new(),
            }
        }

        /// Catalog index of the signature with this needle.
        fn index_of(&self, needle: &str) -> usize {
            self.sigs
                .iter()
                .position(|s| s.pattern.needle == needle)
                .expect("needle is in the catalog")
        }

        /// The per-signature bits for `body`, after checking that the
        /// three ways to get them agree bit for bit: the scratch path
        /// (production), the allocating path, and each signature's own
        /// `Pattern` over the materialized views (the linear scan) —
        /// and that neither matcher path built a view.
        fn matched(&mut self, body: &str) -> Vec<bool> {
            let prepared = PreparedBody::new(body);
            let allocating = self.mp.matched_signatures(&prepared);
            assert!(
                !prepared.lower_materialized() && !prepared.squashed_materialized(),
                "the matcher must not build a view: {body:?}"
            );
            let used = self.mp.matched_signatures_scratch(body, &mut self.scratch);
            assert_eq!(
                used,
                ViewUse {
                    lower: None,
                    squashed: None
                }
            );
            assert_eq!(self.scratch.matched(), &allocating[..], "{body:?}");
            let linear: Vec<bool> = self
                .sigs
                .iter()
                .map(|s| s.pattern.matches(&prepared))
                .collect();
            assert_eq!(allocating, linear, "{body:?}");
            allocating
        }
    }

    /// Noise alphabet for random bodies: mixed case, whitespace (incl.
    /// the Unicode kinds the nospace mode hides, and characters that
    /// share their lead bytes), multi-byte characters and the
    /// punctuation the needles are made of.
    const NOISE: &str =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0189 \t\n\u{a0}\u{2028}\u{3000}éβ©—、\u{212a}.:-_/<>=[]\"{}";
    const FRAGMENTS: [&str; 9] = [
        "Dashboard [Jenkins]",
        "wp-content",
        "minapiversion",
        "MinAPIVersion",
        "\"kind\": \"Status\"",
        "k8s.io",
        "phpMyAdmin",
        "logged in as: dr.who",
        "Apache Hadoop",
    ];

    /// On arbitrary bodies up to 4 KiB (needle fragments spliced into
    /// noise at a character boundary), the three ways to classify a
    /// body agree: the scratch path (production), the allocating
    /// `PreparedBody` path, and the 90-pattern linear scan. One reused
    /// arena carries no state between bodies, and no view is built.
    #[test]
    fn scratch_allocating_and_linear_paths_agree_on_random_bodies() {
        check(256, |g| {
            let mut paths = Paths::new();
            for _ in 0..g.index(1..6) {
                let longest = if g.bool() { 100 } else { 4096 };
                let mut body = g.string(NOISE, 0..longest + 1);
                for _ in 0..g.index(0..3) {
                    let cuts: Vec<usize> = body
                        .char_indices()
                        .map(|(i, _)| i)
                        .chain([body.len()])
                        .collect();
                    body.insert_str(*g.pick(&cuts), g.pick::<&str>(&FRAGMENTS));
                }
                let matched = paths.matched(&body);
                let prepared = PreparedBody::new(body.as_str());
                let counts = paths.mp.counts_from_matched(&matched);
                assert_eq!(counts, match_counts(&paths.sigs, &prepared), "{body:?}");
                assert_eq!(
                    rank_candidates(counts),
                    match_candidates(&paths.sigs, &prepared),
                    "{body:?}"
                );
            }
        });
    }

    const NOSPACE_NEEDLE: &str = "\"kind\":\"Status\"";

    /// Each of the 25 `char::is_whitespace` code points — one, two and
    /// three bytes long — is hidden wherever it falls inside a nospace
    /// needle.
    #[test]
    fn every_whitespace_character_is_hidden_inside_a_nospace_needle() {
        let whitespace: Vec<char> = (0..=u32::from(char::MAX))
            .filter_map(char::from_u32)
            .filter(|c| c.is_whitespace())
            .collect();
        assert_eq!(whitespace.len(), 25);
        for len in 1..=3 {
            assert!(whitespace.iter().any(|c| c.len_utf8() == len));
        }
        let mut paths = Paths::new();
        let index = paths.index_of(NOSPACE_NEEDLE);
        for ws in whitespace {
            for cut in 1..NOSPACE_NEEDLE.len() {
                let (head, tail) = NOSPACE_NEEDLE.split_at(cut);
                let body = format!("<pre>{head}{ws}{tail}</pre>");
                assert!(paths.matched(&body)[index], "{ws:?} at {cut}");
            }
        }
    }

    /// Characters that share a lead byte with some whitespace (`©` C2
    /// A9 with U+00A0, `—` E2 80 94 with U+2003, `、` E3 80 81 with
    /// U+3000) are not hidden: inside the needle they break it, and a
    /// needle right after them, itself split by real whitespace, still
    /// matches.
    #[test]
    fn whitespace_lookalike_bytes_neither_match_nor_desynchronise() {
        let mut paths = Paths::new();
        let index = paths.index_of(NOSPACE_NEEDLE);
        for (near_miss, ws) in [('©', '\u{a0}'), ('—', '\u{2003}'), ('、', '\u{3000}')] {
            assert_eq!(
                near_miss.to_string().as_bytes()[0],
                ws.to_string().as_bytes()[0]
            );
            for cut in 1..NOSPACE_NEEDLE.len() {
                let (head, tail) = NOSPACE_NEEDLE.split_at(cut);
                let broken = format!("{head}{near_miss}{tail}");
                assert!(!paths.matched(&broken)[index], "{broken:?}");
                for follower in [
                    format!("{broken}{NOSPACE_NEEDLE}"),
                    format!("{broken}{head}{ws}{tail}"),
                    format!("{near_miss}{head}{ws}{near_miss}"),
                ] {
                    let expected = !follower.ends_with(near_miss);
                    assert_eq!(paths.matched(&follower)[index], expected, "{follower:?}");
                }
            }
        }
    }

    /// Every nocase needle matches under any ASCII case mask; the
    /// Unicode characters that *lowercase* to ASCII letters (`K`
    /// U+212A, `ſ` U+017F) stay what they are, as in
    /// `to_ascii_lowercase`.
    #[test]
    fn nocase_needles_fold_ascii_case_and_nothing_else() {
        let nocase: Vec<(usize, &'static str)> = all_signatures()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.pattern.mode == MatchMode::IgnoreCase)
            .map(|(i, s)| (i, s.pattern.needle))
            .collect();
        assert!(!nocase.is_empty());
        check(64, |g| {
            let mut paths = Paths::new();
            for &(index, needle) in &nocase {
                let masked: String = needle
                    .chars()
                    .map(|c| if g.bool() { c.to_ascii_uppercase() } else { c })
                    .collect();
                let body = format!(
                    "{}{masked}{}",
                    g.string(NOISE, 0..20),
                    g.string(NOISE, 0..20)
                );
                assert!(paths.matched(&body)[index], "{body:?}");
            }
        });
        let mut paths = Paths::new();
        let mut substitutions = 0;
        for &(index, needle) in &nocase {
            for (ascii, lookalike) in [('k', '\u{212a}'), ('s', '\u{17f}')] {
                for (at, _) in needle.match_indices(ascii) {
                    let body = format!("{}{lookalike}{}", &needle[..at], &needle[at + 1..]);
                    assert!(!paths.matched(&body)[index], "{body:?}");
                    substitutions += 1;
                }
            }
        }
        assert!(substitutions > 0, "no nocase needle has a `k` or an `s`");
    }

    /// Needles of all three modes at offset 0, at the very end, back to
    /// back, and with hidden multi-byte whitespace as the body's first
    /// and last character and across the seam between two needles.
    #[test]
    fn needles_match_at_the_edges_and_back_to_back() {
        let mut paths = Paths::new();
        let needles = ["wp-content", "minapiversion", NOSPACE_NEEDLE];
        let indices = needles.map(|n| paths.index_of(n));
        let (head, tail) = NOSPACE_NEEDLE.split_at(7);
        let split = format!("{head}\u{2003}{tail}");
        for (i, needle) in needles.into_iter().enumerate() {
            for body in [
                needle.to_string(),
                format!("{needle} and a tail"),
                format!("a head and {needle}"),
            ] {
                assert!(paths.matched(&body)[indices[i]], "{body:?}");
            }
        }
        for (body, expected) in [
            (needles.concat(), [true; 3]),
            (
                format!("{0}{0}{1}{1}{2}{2}", needles[2], needles[1], needles[0]),
                [true; 3],
            ),
            (format!("\u{3000}{split}\u{3000}"), [false, false, true]),
            (format!("{split}{split}"), [false, false, true]),
            (
                format!("MinApiVersion\u{2028}{split}\u{a0}wp-content"),
                [true; 3],
            ),
            (
                format!("wp-content\u{2003}minapiversion{head}\u{85}\n{tail}"),
                [true; 3],
            ),
            // Whitespace breaks an exact and a nocase needle.
            (
                format!("wp-con\u{2003}tent minapi\u{a0}version {NOSPACE_NEEDLE}"),
                [false, false, true],
            ),
        ] {
            let matched = paths.matched(&body);
            assert_eq!(indices.map(|i| matched[i]), expected, "{body:?}");
        }
    }
}
