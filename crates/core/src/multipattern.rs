//! Single-pass multi-pattern matching for the prefilter signatures.
//!
//! The naive stage-II hot loop runs 90 substring searches per response
//! body (one per [`Signature`]), each of which rescans the body from
//! the start. [`MultiPattern`] compiles the catalog into **one**
//! Aho–Corasick automaton that is blind to ASCII case and to
//! whitespace, reads each body once over its raw bytes — no lowered or
//! whitespace-stripped copy is ever built — and settles what the
//! automaton cannot tell apart where it reports.
//!
//! **One loose automaton.** Every needle, whatever its [`MatchMode`],
//! goes in by its *loose form*: whitespace characters dropped, ASCII
//! letters lowered. In the table `A`–`Z` share the column of `a`–`z`
//! and ASCII whitespace is a column every state loops on. Whitespace
//! longer than one byte (`U+0085`, `U+00A0`, `U+1680`,
//! `U+2000`–`U+200A`, `U+2028`, `U+2029`, `U+202F`, `U+205F`,
//! `U+3000`) cannot be decided by one byte, so every transition over
//! one of its four lead bytes is flagged: behind the flag the walk
//! decodes the character and, when it is whitespace, leaves the state
//! where it was and hides the character's other bytes from it.
//!
//! **A hit is a candidate.** The loose automaton reports `wp-content`
//! on `WP- Content`. Every true occurrence, under any mode, ends at a
//! byte the automaton consumes (no needle ends in whitespace —
//! [`MultiPattern::new`] asserts it) with the needle's loose form
//! behind it, so the automaton reports there; the walk then asks
//! [`Pattern::ends_at`] whether an occurrence under the signature's own
//! mode really ends at that byte. A refused candidate latches nothing.
//!
//! **Four lanes.** One register is bound by load latency: a step's
//! `table[state + class]` must retire before the next can issue. So the
//! body is cut into four chunks whose registers advance together, four
//! independent chains the core overlaps, and each of the first three
//! then runs on past its boundary until nothing that began before the
//! boundary can still be open (see `MultiPattern::walk`). Either half
//! alone measures no faster than three automata walked together over
//! one chunk (DESIGN.md §13).
//!
//! The matcher is exactly equivalent to running each signature's
//! [`Pattern`] individually; the unit tests below and the `prefilter`
//! tests enforce that equivalence.

use crate::pattern::{MatchMode, Pattern, PreparedBody};
use crate::scratch::Scratch;
use crate::signatures::{all_signatures, rank_candidates, AppCounts, Hits, Signature};
use nokeys_apps::AppId;
use std::sync::OnceLock;

/// Flag on a transition whose target state ends at least one needle.
const MATCH: u32 = 1 << 31;

/// Flag on every transition over a byte that may begin a whitespace
/// character longer than one byte (see [`WIDE_LEADS`]).
const WIDE: u32 = 1 << 30;

/// Either flag: the transition needs a closer look than the hot loop
/// takes. Row offsets stay below the flags (checked at build time).
const LOOK: u32 = MATCH | WIDE;

/// The UTF-8 lead bytes of the multi-byte whitespace characters:
/// `U+0085` and `U+00A0` (C2), `U+1680` (E1), `U+2000`–`U+200A`,
/// `U+2028`, `U+2029`, `U+202F` and `U+205F` (E2), `U+3000` (E3). A
/// test below holds the list to `char::is_whitespace`.
const WIDE_LEADS: [u8; 4] = [0xC2, 0xE1, 0xE2, 0xE3];

/// Column of ASCII whitespace: every state loops to itself on it.
const SKIP: u8 = 1;

/// Chunks of a body walked side by side. On the benchmark's `wild_mix`
/// two measured 118–119 k bodies/s where four measured 163–190 k;
/// eight, more registers than the machine has, measured 108–158 k
/// there and 3.1–3.7 M against 4.0 M on `tiny_bodies`.
const LANES: usize = 4;

/// One trie node during construction: children hang off `first_child`
/// as a `next_sibling` list, 0 (the root, never a child) ending it.
struct TrieNode {
    /// Column of the edge leading here.
    column: u8,
    first_child: u32,
    next_sibling: u32,
}

/// A class-compressed Aho–Corasick automaton over the loose forms of
/// its needles.
///
/// Bytes are first mapped to *columns*: column 0 is every byte no
/// needle contains, column [`SKIP`] is ASCII whitespace, each of the
/// [`WIDE_LEADS`] and each other needle byte gets its own, and `A`–`Z`
/// share the columns of `a`–`z`. A row has one `u32` per column, fail
/// links already resolved into it, and a state's id is the offset of
/// its row, so a step is `table[state + classes[byte]]` with no
/// multiply. A transition that needs more than that carries a flag —
/// [`MATCH`] into a state that ends a needle, [`WIDE`] over a byte
/// that may begin a wide whitespace character — so the walk tests the
/// two bits together, once per byte, and reads `out` or decodes a
/// character only behind them. For the 90-signature catalog that is
/// 1,128 rows of 53 columns (239 KB, a fifth of what 256-wide rows
/// would take), and the rows a needle-free body visits — the root and
/// its children — stay in the L1 cache.
#[derive(Debug, Clone)]
struct Automaton {
    /// Byte → column.
    classes: [u8; 256],
    /// Columns per row.
    columns: usize,
    /// Complete goto function, flagged row offsets.
    table: Vec<u32>,
    /// Needle ids ending at each row (fail closure already merged).
    out: Vec<Vec<u32>>,
    /// Bytes in the longest loose form.
    longest: usize,
}

impl Automaton {
    /// Build from the needles, numbered as they come; each goes in by
    /// its loose form — whitespace dropped, ASCII letters lowered —
    /// which must not be empty.
    fn new<'a>(needles: impl Iterator<Item = &'a str>) -> Self {
        // The loose forms, back to back; needle `id`'s stops at `ends[id]`.
        let mut spelled = Vec::new();
        let mut ends = Vec::new();
        for needle in needles {
            let start = spelled.len();
            for run in needle.split(char::is_whitespace) {
                spelled.extend_from_slice(run.as_bytes());
            }
            spelled[start..].make_ascii_lowercase();
            ends.push(spelled.len());
        }

        // Byte classes. A needle is UTF-8, which never uses 0xC0, 0xC1
        // or 0xF5..=0xFF, so the columns fit a `u8`.
        let mut classes = [0u8; 256];
        for b in (0..=0x7f_u8).filter(|&b| char::from(b).is_whitespace()) {
            classes[usize::from(b)] = SKIP;
        }
        let mut columns = usize::from(SKIP) + 1;
        for &b in WIDE_LEADS.iter().chain(&spelled) {
            if classes[usize::from(b)] == 0 {
                classes[usize::from(b)] = columns as u8;
                columns += 1;
            }
        }
        for b in b'A'..=b'Z' {
            classes[usize::from(b)] = classes[usize::from(b.to_ascii_lowercase())];
        }

        // Trie over columns; `out[node]` collects the needles ending there.
        let mut trie = vec![TrieNode {
            column: 0,
            first_child: 0,
            next_sibling: 0,
        }];
        let mut out: Vec<Vec<u32>> = vec![Vec::new()];
        let mut longest = 0;
        let mut start = 0;
        for (id, &end) in (0u32..).zip(&ends) {
            let mut node = 0usize;
            for &b in &spelled[start..end] {
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
            assert!(node != 0, "nothing in needle {id} but whitespace");
            out[node].push(id);
            longest = longest.max(end - start);
            start = end;
        }
        assert!(
            trie.len() * columns < WIDE as usize,
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
            table[row + usize::from(SKIP)] = row as u32;
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
        // Only now, so that the BFS above reads row offsets and `MATCH`.
        for row in table.chunks_exact_mut(columns) {
            for lead in WIDE_LEADS {
                row[usize::from(classes[usize::from(lead)])] |= WIDE;
            }
        }

        Automaton {
            classes,
            columns,
            table,
            out,
            longest,
        }
    }

    /// The hot loop: [`LANES`] registers, one per chunk of `bytes`,
    /// each a byte further per turn, from turn `offset` until a lane
    /// meets a flagged transition. Returns that turn and lane — the
    /// lanes before it have taken the turn's byte, it and those after
    /// have not — or, with nothing met, the turn past the last one.
    ///
    /// Kept out of line: on its own the loop holds every register in a
    /// machine register, which it does not once it shares a frame with
    /// the calls of the careful path (about a tenth slower, measured).
    #[inline(never)]
    fn abreast(
        &self,
        bytes: &[u8],
        states: &mut [u32; LANES],
        mut offset: usize,
    ) -> (usize, usize) {
        let chunk = bytes.len() / LANES;
        let chunks: [&[u8]; LANES] = std::array::from_fn(|j| &bytes[j * chunk..][..chunk]);
        let table = &self.table[..];
        let mut live = *states;
        let mut met = 0;
        'turns: while offset < chunk {
            for j in 0..LANES {
                let class = self.classes[usize::from(chunks[j][offset])];
                let next = table[live[j] as usize + usize::from(class)];
                if next & LOOK != 0 {
                    met = j;
                    break 'turns;
                }
                live[j] = next;
            }
            offset += 1;
        }
        *states = live;
        (offset, met)
    }
}

/// Which transformed views a matching pass built. The walk builds none,
/// so both fields are always `None`; the type stays because the
/// benchmark (`benchmark/src/program.rs`) reads it to report
/// `core.scratch.{lower,squash}_share`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewUse {
    /// Bytes copied into a lowered view: never any.
    pub lower: Option<usize>,
    /// Bytes copied into a squashed view: never any.
    pub squashed: Option<usize>,
}

/// The compiled signature set: one loose automaton over every needle,
/// and the signatures themselves, in catalog order — each one's own
/// pattern settles its candidates, its application takes the count.
#[derive(Debug, Clone)]
pub struct MultiPattern {
    automaton: Automaton,
    signatures: Vec<Signature>,
}

impl MultiPattern {
    /// Compile a signature catalog. Signature order is preserved so the
    /// matcher's output is interchangeable with the linear scan's.
    ///
    /// Panics on a needle its mode can never match or the walk would
    /// never report — empty (also once whitespace is dropped), ending
    /// in whitespace, a nocase needle with an uppercase letter, a
    /// nospace needle with whitespace: a signature like that is a bug
    /// in the catalog.
    pub fn new(signatures: &[Signature]) -> Self {
        for Pattern { needle, mode } in signatures.iter().map(|s| &s.pattern) {
            assert!(
                !needle.ends_with(char::is_whitespace),
                "needles must not end in whitespace: {needle:?}"
            );
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
        }
        MultiPattern {
            automaton: Automaton::new(signatures.iter().map(|s| s.pattern.needle)),
            signatures: signatures.to_vec(),
        }
    }

    /// The 90-signature catalog ([`all_signatures`]), compiled once per
    /// process.
    pub fn catalog() -> &'static MultiPattern {
        static CATALOG: OnceLock<MultiPattern> = OnceLock::new();
        CATALOG.get_or_init(|| MultiPattern::new(&all_signatures()))
    }

    /// Number of compiled signatures.
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// One lane over the byte `raw[at]`, with care: its next state (the
    /// offset of a row; 0 is the root), and whether it consumed the
    /// byte — whitespace, one byte or several, is not consumed. `hide`
    /// counts the bytes of a wide whitespace character the lane has yet
    /// to pass over.
    #[inline(always)]
    fn step(
        &self,
        state: u32,
        hide: &mut usize,
        raw: &str,
        at: usize,
        matched: &mut Hits,
    ) -> (u32, bool) {
        if *hide > 0 {
            *hide -= 1;
            return (state, false);
        }
        let class = self.automaton.classes[usize::from(raw.as_bytes()[at])];
        let next = self.automaton.table[state as usize + usize::from(class)];
        if next & LOOK != 0 {
            return self.look(state, next, hide, raw, at, matched);
        }
        (next, class != SKIP)
    }

    /// What a flagged transition asks for. Behind [`WIDE`], decode the
    /// character that begins at `at`: whitespace leaves the state where
    /// it was and hides its remaining bytes. Behind [`MATCH`], the
    /// loose automaton reports the needles of the next state at `at`:
    /// set the bit of each whose own pattern ends there too.
    #[cold]
    fn look(
        &self,
        state: u32,
        next: u32,
        hide: &mut usize,
        raw: &str,
        at: usize,
        matched: &mut Hits,
    ) -> (u32, bool) {
        if next & WIDE != 0 {
            // A lead byte is a character boundary.
            let c = raw[at..].chars().next().expect("`at` indexes a byte");
            if c.is_whitespace() {
                *hide = c.len_utf8() - 1;
                return (state, false);
            }
        }
        let state = next & !LOOK;
        if next & MATCH != 0 {
            for &id in &self.automaton.out[state as usize / self.automaton.columns] {
                let id = id as usize;
                if !matched.contains(id) && self.signatures[id].pattern.ends_at(raw, at + 1) {
                    matched.insert(id);
                }
            }
        }
        (state, true)
    }

    /// The one matching loop. `raw` is cut into [`LANES`] chunks (the
    /// last also takes the remainder); lane *j* starts at the root on
    /// its chunk's first byte and each turn advances every lane a byte:
    /// independent lookups the core overlaps. The hot loop
    /// ([`Automaton::abreast`]) takes the turns no lane needs care in;
    /// [`step`](Self::step) takes the rest.
    ///
    /// A lane then runs on past its boundary until its state is the
    /// root — no needle is open — or it has consumed `longest` bytes
    /// there, more than any needle that began before the boundary has
    /// left. Skipped whitespace is not counted: a nospace occurrence
    /// may hold any amount of it. What begins at or after the boundary
    /// is the next lane's; what both report is set twice. A lane that
    /// starts inside a character feeds the root continuation bytes,
    /// which begin no needle and no character.
    fn walk(&self, raw: &str, matched: &mut Hits) {
        let chunk = raw.len() / LANES;
        let mut states = [0u32; LANES];
        let mut hides = [0usize; LANES];
        let mut offset = 0;
        while offset < chunk {
            // Lanes before `first` have taken this turn's byte.
            let mut first = 0;
            if hides == [0; LANES] {
                (offset, first) = self.automaton.abreast(raw.as_bytes(), &mut states, offset);
                if offset == chunk {
                    break;
                }
            }
            for j in first..LANES {
                let at = j * chunk + offset;
                states[j] = self.step(states[j], &mut hides[j], raw, at, matched).0;
            }
            offset += 1;
        }
        for (j, (mut state, mut hide)) in states.into_iter().zip(hides).enumerate() {
            // The last lane has no boundary: the remainder is its own.
            let last = j + 1 == LANES;
            let mut budget = if last {
                raw.len()
            } else {
                self.automaton.longest
            };
            let mut at = (j + 1) * chunk;
            while at < raw.len() && budget > 0 && (last || state != 0) {
                let consumed;
                (state, consumed) = self.step(state, &mut hide, raw, at, matched);
                budget -= usize::from(consumed);
                at += 1;
            }
        }
    }

    /// Which signatures match `body` (indices are the catalog's).
    /// Reads `body.raw` only; neither view is materialized.
    pub fn matched_signatures(&self, body: &PreparedBody) -> Hits {
        let mut matched = Hits::new(self.signatures.len());
        self.walk(&body.raw, &mut matched);
        matched
    }

    /// Allocation-free variant of
    /// [`matched_signatures`](Self::matched_signatures): the match set
    /// lives in the caller's [`Scratch`] and is left in
    /// `scratch.matched()` for the caller to read.
    pub fn matched_signatures_scratch(&self, raw: &str, scratch: &mut Scratch) -> ViewUse {
        let matched = scratch.hits_mut();
        matched.reset(self.signatures.len());
        self.walk(raw, matched);
        ViewUse {
            lower: None,
            squashed: None,
        }
    }

    /// Tally a match set into per-application counts — same contract as
    /// [`crate::signatures::match_counts`]. Only set bits are visited:
    /// an empty set is answered from its words alone, and nothing is
    /// allocated for any.
    pub fn counts_from_matched(&self, matched: &Hits) -> AppCounts {
        let mut counts = AppCounts::default();
        for id in matched.iter() {
            counts.add(self.signatures[id].app);
        }
        counts
    }

    /// Candidate applications ordered by match strength — same contract
    /// as [`crate::signatures::match_candidates`].
    pub fn match_candidates(&self, body: &PreparedBody) -> Vec<AppId> {
        rank_candidates(self.counts_from_matched(&self.matched_signatures(body)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use crate::signatures::{all_signatures, match_candidates, match_counts};
    use nokeys_http::cases::check;

    /// A matcher over made-up signatures, and its bits for `body`.
    fn synthetic(patterns: &[Pattern]) -> MultiPattern {
        let signatures: Vec<Signature> = patterns
            .iter()
            .map(|pattern| Signature {
                app: AppId::Jenkins,
                pattern: pattern.clone(),
            })
            .collect();
        MultiPattern::new(&signatures)
    }

    /// One flag per signature of `mp`: whether `body` matched it.
    fn found(mp: &MultiPattern, body: &str) -> Vec<bool> {
        let hits = mp.matched_signatures(&PreparedBody::new(body));
        (0..mp.len()).map(|id| hits.contains(id)).collect()
    }

    #[test]
    fn automaton_finds_overlapping_patterns() {
        let mp = synthetic(&["he", "she", "his", "hers"].map(Pattern::exact));
        assert_eq!(found(&mp, "ushers"), [true, true, false, true]);
    }

    #[test]
    fn automaton_handles_repeated_and_nested_needles() {
        let mp = synthetic(&["aa", "aaa", "baa"].map(Pattern::exact));
        assert_eq!(found(&mp, "abaaa"), [true, true, true]);
    }

    /// Catalogs of 1, 63, 64, 65, 128 and 129 made-up signatures, spread
    /// over all 25 applications, with the last needle planted and those
    /// on either side of a word boundary (63 and 64, 127 and 128): the
    /// last bit of a word and the first of the next are set, iterated,
    /// tallied and ranked as the linear scan has them — the catalog's 90
    /// is not the only size that works. One arena serves every size and
    /// keeps no bit for the empty body that follows.
    #[test]
    fn hits_hold_at_every_word_boundary_of_any_catalog_size() {
        let apps: Vec<AppId> = AppId::all().collect();
        let mut scratch = Scratch::new();
        for size in [1, 63, 64, 65, 128, 129] {
            let signatures: Vec<Signature> = (0..size)
                .map(|i| Signature {
                    app: apps[i % apps.len()],
                    pattern: Pattern::exact(Box::leak(format!("needle-{i:03}.").into_boxed_str())),
                })
                .collect();
            let mp = MultiPattern::new(&signatures);
            let mut planted = vec![63, 64, 127, 128, size - 1];
            planted.retain(|&i| i < size);
            planted.sort_unstable();
            planted.dedup();
            let body: String = planted
                .iter()
                .map(|&i| format!("<p>{}</p>", signatures[i].pattern.needle))
                .collect();
            let prepared = PreparedBody::new(body.as_str());

            let hits = mp.matched_signatures(&prepared);
            assert_eq!(hits.iter().collect::<Vec<_>>(), planted, "{size}");
            for i in 0..size {
                assert_eq!(hits.contains(i), planted.contains(&i), "{i} of {size}");
            }
            mp.matched_signatures_scratch(&body, &mut scratch);
            assert_eq!(scratch.matched(), &hits, "{size}");

            let counts = mp.counts_from_matched(&hits);
            assert!(counts.iter().eq(match_counts(&signatures, &prepared)));
            assert_eq!(
                rank_candidates(counts),
                match_candidates(&signatures, &prepared)
            );

            mp.matched_signatures_scratch("", &mut scratch);
            assert_eq!(scratch.matched(), &Hits::new(size), "{size}");
            assert_eq!(scratch.matched().iter().next(), None);
            assert_eq!(
                mp.counts_from_matched(scratch.matched()).iter().next(),
                None
            );
        }
    }

    /// Exhaustive: on every string of length ≤ 6 over the needles'
    /// letters plus one byte no needle contains, the matcher reports
    /// exactly the needles `Pattern::matches` finds. Small enough to
    /// enumerate, and each layout decision has a case that breaks if it
    /// is wrong: the stray byte must fall back to the root through
    /// column 0 (byte classes), deep states must land on the right row
    /// (row-offset ids), and a needle ending inside or at the end of
    /// another must be reported from the longer one's states (match
    /// flags inherited along fail links during the BFS). From four
    /// bytes up every lane has a chunk of its own, one byte long, and
    /// all the rest is run-on. The last three sets pin the folds: alone,
    /// and with the three modes sharing one loose spelling, where only
    /// the confirmation tells them apart.
    #[test]
    fn automaton_agrees_with_contains_on_every_short_string() {
        use Pattern as P;
        let sets: [(&[Pattern], &str); 8] = [
            (&["he", "she", "his", "hers"].map(P::exact), "hesx"),
            (&["he", "she", "his", "hers"].map(P::exact), "hirx"),
            (&["aa", "aaa", "baa"].map(P::exact), "abcx"),
            (&[P::exact("b")], "abcx"),
            (&["cab", "ab", "b", "abca"].map(P::exact), "abcx"),
            (&["ab", "bab"].map(P::nocase), "aAbBx"),
            (&["ab", "bab"].map(P::nospace), "ab \nx"),
            (
                &[
                    P::exact("Ab"),
                    P::exact("a b"),
                    P::nocase("ab"),
                    P::nospace("ab"),
                    P::nospace("Ab"),
                ],
                "aAb x",
            ),
        ];
        for (patterns, alphabet) in sets {
            let mp = synthetic(patterns);
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
                let body = PreparedBody::new(s.as_str());
                let expected: Vec<bool> = patterns.iter().map(|p| p.matches(&body)).collect();
                assert_eq!(found(&mp, s), expected, "{patterns:?} in {s:?}");
            }
        }
    }

    /// `MultiPattern::new` refuses a needle the walk would never
    /// report: one that ends in whitespace, one with nothing else.
    #[test]
    fn needles_that_end_in_whitespace_or_hold_nothing_else_are_refused() {
        for needle in ["", " ", "\u{a0}", "abc ", "abc\n", "abc\u{3000}"] {
            for mode in [
                MatchMode::Exact,
                MatchMode::IgnoreCase,
                MatchMode::IgnoreWhitespace,
            ] {
                let built = std::panic::catch_unwind(|| synthetic(&[Pattern { needle, mode }]));
                assert!(built.is_err(), "{mode:?} {needle:?}");
            }
        }
        // Whitespace anywhere else is an exact or nocase needle's own.
        let mp = synthetic(&[Pattern::exact(" a b"), Pattern::nocase("\u{a0}a\tb")]);
        assert_eq!(found(&mp, "x a b"), [true, false]);
        assert_eq!(found(&mp, "\u{a0}A\tB"), [false, true]);
        assert_eq!(found(&mp, "ab a\u{a0}b A B"), [false, false]);
    }

    /// The lead bytes the table flags are those of the whitespace
    /// characters longer than one byte, all of them and no other.
    #[test]
    fn wide_leads_are_the_lead_bytes_of_multibyte_whitespace() {
        let mut leads: Vec<u8> = (0x80..=u32::from(char::MAX))
            .filter_map(char::from_u32)
            .filter(|c| c.is_whitespace())
            .map(|c| c.to_string().as_bytes()[0])
            .collect();
        leads.dedup();
        assert_eq!(leads, WIDE_LEADS);
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
                mp.counts_from_matched(&mp.matched_signatures(&prepared))
                    .iter()
                    .collect::<Vec<_>>(),
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

        /// The match set for `body`, after checking that the three ways
        /// to get it agree: the scratch path (production), the
        /// allocating path, and each signature's own `Pattern` over the
        /// materialized views (the linear scan), which the set's
        /// iteration must name exactly — and that neither matcher path
        /// built a view.
        fn matched(&mut self, body: &str) -> Hits {
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
            assert_eq!(self.scratch.matched(), &allocating, "{body:?}");
            let linear: Vec<usize> = (0..self.sigs.len())
                .filter(|&id| self.sigs[id].pattern.matches(&prepared))
                .collect();
            assert_eq!(allocating.iter().collect::<Vec<_>>(), linear, "{body:?}");
            for id in 0..self.sigs.len() {
                assert_eq!(allocating.contains(id), linear.contains(&id));
            }
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
                assert_eq!(
                    counts.iter().collect::<Vec<_>>(),
                    match_counts(&paths.sigs, &prepared),
                    "{body:?}"
                );
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
                assert!(paths.matched(&body).contains(index), "{ws:?} at {cut}");
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
                assert!(!paths.matched(&broken).contains(index), "{broken:?}");
                for follower in [
                    format!("{broken}{NOSPACE_NEEDLE}"),
                    format!("{broken}{head}{ws}{tail}"),
                    format!("{near_miss}{head}{ws}{near_miss}"),
                ] {
                    let expected = !follower.ends_with(near_miss);
                    assert_eq!(
                        paths.matched(&follower).contains(index),
                        expected,
                        "{follower:?}"
                    );
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
                assert!(paths.matched(&body).contains(index), "{body:?}");
            }
        });
        let mut paths = Paths::new();
        let mut substitutions = 0;
        for &(index, needle) in &nocase {
            for (ascii, lookalike) in [('k', '\u{212a}'), ('s', '\u{17f}')] {
                for (at, _) in needle.match_indices(ascii) {
                    let body = format!("{}{lookalike}{}", &needle[..at], &needle[at + 1..]);
                    assert!(!paths.matched(&body).contains(index), "{body:?}");
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
                assert!(paths.matched(&body).contains(indices[i]), "{body:?}");
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
            assert_eq!(indices.map(|i| matched.contains(i)), expected, "{body:?}");
        }
    }

    /// Bodies this long have lanes of `CHUNK` bytes, longer than any
    /// needle, so a needle meets one boundary at a time.
    const CHUNK: usize = 256;

    /// `middle` with `before` bytes of `filler` in front, filled up to
    /// `LANES * CHUNK` bytes behind: lane boundaries at every `CHUNK`.
    fn laid_out(filler: char, before: usize, middle: &str) -> String {
        assert!(filler.is_ascii() && before + middle.len() <= LANES * CHUNK);
        let mut body = filler.to_string().repeat(before);
        body.push_str(middle);
        body.extend(std::iter::repeat_n(filler, LANES * CHUNK - body.len()));
        body
    }

    /// Every catalog needle — as it is, and in the disguise its mode
    /// sees through — slid over each lane boundary a byte at a time,
    /// from wholly before it to wholly after. The filler is the
    /// needle's own first byte, so a lane is never back at the root
    /// when it reaches its boundary: it must run on, far enough for the
    /// longest needle that began one byte before, and the next lane
    /// must start at the root on the boundary's byte and no other.
    #[test]
    fn needles_are_found_wherever_a_lane_boundary_cuts_them() {
        let mut paths = Paths::new();
        assert!(paths.mp.automaton.longest < CHUNK);
        for (index, signature) in paths.sigs.clone().iter().enumerate() {
            let Pattern { needle, mode } = signature.pattern;
            let disguised = match mode {
                MatchMode::Exact => needle.to_string(),
                MatchMode::IgnoreCase => needle.to_ascii_uppercase(),
                MatchMode::IgnoreWhitespace => needle.replace(':', "\t:\u{2003}\n"),
            };
            let filler = char::from(needle.as_bytes()[0]);
            for spelled in [needle, disguised.as_str()] {
                for boundary in (1..LANES).map(|lane| lane * CHUNK) {
                    for start in boundary - spelled.len()..=boundary + 1 {
                        let body = laid_out(filler, start, spelled);
                        paths
                            .mp
                            .matched_signatures_scratch(&body, &mut paths.scratch);
                        let expected = signature.pattern.matches(&PreparedBody::new(&*body));
                        assert!(expected, "{spelled:?} is planted whole");
                        assert_eq!(
                            paths.scratch.matched().contains(index),
                            expected,
                            "{spelled:?} at {start} across {boundary}"
                        );
                    }
                }
            }
        }
    }

    /// A nospace needle split by more whitespace than the run-on budget
    /// has bytes, one byte and three bytes a character, with each lane
    /// boundary at every place from the needle's first byte to past the
    /// end of the whitespace: skipped bytes are not charged to the
    /// budget, or the lane that began the needle would give up inside
    /// the run and the next lane only ever sees the tail.
    #[test]
    fn whitespace_inside_a_needle_is_not_charged_to_the_run_on() {
        let mut paths = Paths::new();
        let index = paths.index_of(NOSPACE_NEEDLE);
        let (head, tail) = NOSPACE_NEEDLE.split_at(7);
        for ws in [" ", "\u{2003}"] {
            let run = ws.repeat(paths.mp.automaton.longest + 3);
            let split = format!("{head}{run}{tail}");
            assert!(split.len() < CHUNK);
            for boundary in (1..LANES).map(|lane| lane * CHUNK) {
                for inside in 0..head.len() + run.len() + 2 {
                    let body = laid_out('"', boundary - inside, &split);
                    assert!(
                        paths.matched(&body).contains(index),
                        "{ws:?} {inside} into {boundary}"
                    );
                }
            }
        }
    }

    /// A three-byte character with a lane boundary before each of its
    /// bytes and behind the last. `—` (a whitespace lead byte, no
    /// whitespace) breaks the needle it sits in and nothing after it;
    /// U+3000 inside the nospace needle is hidden by the lane that runs
    /// on over it, while the next lane starts on its continuation bytes
    /// and stays at the root.
    #[test]
    fn a_character_cut_by_a_lane_boundary_is_still_one_character() {
        let mut paths = Paths::new();
        let index = paths.index_of(NOSPACE_NEEDLE);
        let (head, tail) = NOSPACE_NEEDLE.split_at(7);
        for boundary in (1..LANES).map(|lane| lane * CHUNK) {
            for cut in 0..=3 {
                for (middle, expected) in [
                    (format!("{head}\u{3000}{tail}"), true),
                    (format!("{head}—{tail}"), false),
                    (format!("{head}—{NOSPACE_NEEDLE}"), true),
                    (format!("{head}\u{3000}{tail}—"), true),
                ] {
                    let wide = middle.find(['—', '\u{3000}']).expect("it is in there");
                    let body = laid_out('"', boundary - wide - cut, &middle);
                    assert_eq!(
                        paths.matched(&body).contains(index),
                        expected,
                        "{middle:?}, {boundary} cuts at {cut}"
                    );
                }
                // Right behind the character, in the lane that started
                // inside it.
                let body = laid_out('x', boundary - cut, &format!("—{NOSPACE_NEEDLE}"));
                assert!(
                    paths.matched(&body).contains(index),
                    "{boundary} cuts at {cut}"
                );
            }
        }
    }

    /// What the loose automaton reports and the signature's own mode
    /// refuses: no bit — and none latched against the true occurrence
    /// that follows, near by or lanes away, or that came before.
    #[test]
    fn candidates_of_the_wrong_case_or_spacing_do_not_report() {
        let mut paths = Paths::new();
        for (needle, candidate) in [
            ("wp-content", "WP-CONTENT"),
            ("wp-content", "wp- content"),
            ("minapiversion", "minapi version"),
            (NOSPACE_NEEDLE, "\"KIND\":\"STATUS\""),
        ] {
            let index = paths.index_of(needle);
            for gap in [1, 3 * CHUNK] {
                let gap = " ".repeat(gap);
                let refused = format!("{candidate}{gap}{candidate}");
                assert!(!paths.matched(&refused).contains(index), "{refused:?}");
                for body in [
                    format!("{refused}{gap}{needle}"),
                    format!("{needle}{gap}{refused}"),
                    format!("{candidate}{needle}{candidate}"),
                ] {
                    assert!(paths.matched(&body).contains(index), "{body:?}");
                }
            }
        }
    }
}
