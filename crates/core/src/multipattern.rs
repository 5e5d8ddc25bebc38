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
//! `U+3000`) cannot be decided by one byte, so the four lead bytes it
//! can begin with share a column whose entry in every row is that row
//! itself, flagged: behind the flag the walk decodes the character
//! and, when it is whitespace, leaves the state where it was and hides
//! the character's other bytes from it; when it is not, it takes the
//! real transition, which the row keeps in a slot past its columns.
//!
//! **A hit is a candidate.** The loose automaton reports `wp-content`
//! on `WP- Content`. Every true occurrence, under any mode, ends at a
//! byte the automaton consumes (no needle ends in whitespace —
//! [`MultiPattern::new`] asserts it) with the needle's loose form
//! behind it, so the automaton reports there; the walk then asks
//! [`Pattern::ends_at`] whether an occurrence under the signature's own
//! mode really ends at that byte. A refused candidate latches nothing.
//!
//! **Five lanes.** One register is bound by load latency: a step's
//! `table[state * 8 + class]` must retire before the next can issue. So the
//! body is cut into five chunks whose registers advance together, five
//! independent chains the core overlaps, and each of the first four
//! then runs on past its boundary until nothing that began before the
//! boundary can still be open (see `MultiPattern::walk`). Either half
//! alone measures no faster than three automata walked together over
//! one chunk (DESIGN.md §13). With the chains in flight the loop is
//! bound by the instructions it issues, so `Automaton::abreast` proves
//! its indices once, outside the loop, and checks none per step, and
//! each entry it loads is the lane's next state, flags and all: it
//! goes straight into the lane's register and is tested there.
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
const MATCH: u16 = 1 << 15;

/// Flag on every row's entry in the [`LEAD`] column, over a byte that
/// may begin a whitespace character longer than one byte.
const WIDE: u16 = 1 << 14;

/// Either flag: the transition needs a closer look than the hot loop
/// takes. States stay below the flags (checked at build time).
const LOOK: u16 = MATCH | WIDE;

/// Entries per unit of a row offset: a row is a whole number of units,
/// and a state is its row's offset in units.
const UNIT: usize = 8;

/// The UTF-8 lead bytes of the multi-byte whitespace characters:
/// `U+0085` and `U+00A0` (C2), `U+1680` (E1), `U+2000`–`U+200A`,
/// `U+2028`, `U+2029`, `U+202F` and `U+205F` (E2), `U+3000` (E3). A
/// test below holds the list to `char::is_whitespace`.
const WIDE_LEADS: [u8; 4] = [0xC2, 0xE1, 0xE2, 0xE3];

/// Column of ASCII whitespace: every state loops to itself on it.
const SKIP: u8 = 1;

/// Column of the [`WIDE_LEADS`]: every state loops to itself on it,
/// flagged [`WIDE`]. Each row keeps its real transitions over the four
/// bytes in four *slots*, its last entries, which no byte maps to.
const LEAD: u8 = SKIP + 1;

/// Chunks of a body walked side by side. On the benchmark's `wild_mix`
/// two measured 118–119 k bodies/s where four measured 163–190 k, and
/// five, once a lane needs no register but its state, 1.14× four.
/// Six read 0.94–0.99× five on `wild_mix` and `tiny_bodies`; eight,
/// more registers than the machine has, measured 108–158 k on
/// `wild_mix` and 3.1–3.7 M against 4.0 M on `tiny_bodies`.
const LANES: usize = 5;

/// A class-compressed Aho–Corasick automaton over the loose forms of
/// its needles.
///
/// Bytes are first mapped to *columns*: column 0 is every byte no
/// needle contains, column [`SKIP`] is ASCII whitespace, column
/// [`LEAD`] the four [`WIDE_LEADS`], each other needle byte gets its
/// own, and `A`–`Z` share the columns of `a`–`z`. A row has one `u16`
/// per column, fail links already resolved into it, then one *slot*
/// per wide lead, padded to a multiple of [`UNIT`] entries with the
/// slots last, and a state's id is the offset of its row in units, so
/// a step is `table[state * 8 + classes[byte]]`, one address
/// computation, and the entry it loads is the next state. An entry
/// that needs more than that carries a flag — [`MATCH`] on a state
/// that ends a needle, [`WIDE`] on the row's own state in its `LEAD`
/// column, whose real transition is in the lead's slot — so the walk
/// tests the two bits together, once per byte, and reads `outputs` or
/// decodes a character only behind them. Rows are numbered in BFS
/// order and each is written once. For the 90-signature catalog that
/// is 1,128 rows of 50 columns and 4 slots padded to 56 (126 KB, a
/// ninth of what 256-wide `u32` rows would take), and the rows a
/// needle-free body visits — the root and its children — stay in the
/// L1 cache.
#[derive(Debug, Clone)]
struct Automaton {
    /// Byte → column.
    classes: [u8; 256],
    /// Entries per row: the columns and the slots rounded up to a
    /// multiple of [`UNIT`].
    stride: usize,
    /// Complete goto function, flagged states; row `r` is
    /// `table[r * stride..][..stride]`, its slots the last
    /// `WIDE_LEADS.len()` entries.
    table: Vec<u16>,
    /// Row `r` reports the needle ids `outputs[spans[r].0..spans[r].1]`
    /// (fail closure already merged).
    spans: Vec<(u32, u32)>,
    outputs: Vec<u32>,
    /// Bytes in the longest loose form.
    longest: usize,
}

impl Automaton {
    /// Build from the needles, numbered as they come; each goes in by
    /// its loose form — whitespace dropped, ASCII letters lowered —
    /// which must not be empty.
    fn new<'a>(needles: impl Iterator<Item = &'a str> + Clone) -> Self {
        // The loose forms, back to back; needle `id`'s stops at `ends[id]`.
        let mut spelled = Vec::with_capacity(needles.clone().map(str::len).sum());
        let mut ends = Vec::with_capacity(needles.clone().count());
        for needle in needles {
            let start = spelled.len();
            for run in needle.split(char::is_whitespace) {
                spelled.extend_from_slice(run.as_bytes());
            }
            spelled[start..].make_ascii_lowercase();
            ends.push(spelled.len());
        }

        // Byte classes. A needle is UTF-8, which never uses 0xC0, 0xC1
        // or 0xF5..=0xFF, so the columns and the slots fit a `u8`.
        let mut classes = [0u8; 256];
        for b in (0..=0x7f_u8).filter(|&b| char::from(b).is_whitespace()) {
            classes[usize::from(b)] = SKIP;
        }
        for lead in WIDE_LEADS {
            classes[usize::from(lead)] = LEAD;
        }
        let mut columns = usize::from(LEAD) + 1;
        for &b in &spelled {
            if classes[usize::from(b)] == 0 {
                classes[usize::from(b)] = columns as u8;
                columns += 1;
            }
        }
        for b in b'A'..=b'Z' {
            classes[usize::from(b)] = classes[usize::from(b.to_ascii_lowercase())];
        }
        let stride = (columns + WIDE_LEADS.len()).next_multiple_of(UNIT);
        // A trie edge's entry in its row: the byte's column, or a wide
        // lead's slot.
        let mut cells = classes;
        for (k, lead) in WIDE_LEADS.into_iter().enumerate() {
            cells[usize::from(lead)] = (stride - WIDE_LEADS.len() + k) as u8;
        }

        // Trie over cells, nodes numbered as they are made, at most one
        // per loose byte: `edge[node]` is the cell leading to it,
        // and its children hang off `first_child[node]` as a
        // `next_sibling` list that 0 (the root, never a child) ends.
        let most = spelled.len() + 1;
        let mut edge = Vec::with_capacity(most);
        let mut first_child = Vec::with_capacity(most);
        let mut next_sibling = Vec::with_capacity(most);
        edge.push(0u8);
        first_child.push(0u32);
        next_sibling.push(0u32);
        // `ending[id]`: the node needle `id` ends at.
        let mut ending = Vec::with_capacity(ends.len());
        let mut longest = 0;
        let mut start = 0;
        for (id, &end) in ends.iter().enumerate() {
            let mut node = 0usize;
            for &b in &spelled[start..end] {
                let cell = cells[usize::from(b)];
                let mut child = first_child[node] as usize;
                while child != 0 && edge[child] != cell {
                    child = next_sibling[child] as usize;
                }
                if child == 0 {
                    child = edge.len();
                    edge.push(cell);
                    first_child.push(0);
                    next_sibling.push(first_child[node]);
                    first_child[node] = child as u32;
                }
                node = child;
            }
            assert!(node != 0, "nothing in needle {id} but whitespace");
            ending.push(node);
            longest = longest.max(end - start);
            start = end;
        }
        let rows = edge.len();
        let units = stride / UNIT;
        assert!(
            rows * units < usize::from(WIDE),
            "automaton too large: {rows} rows of {units} units pass the 2^14-unit limit of a u16 state"
        );
        // The needles ending at each node, smallest id first:
        // `first_end[node]`, then `next_end[id]`, `u32::MAX` ending both.
        let mut first_end = vec![u32::MAX; rows];
        let mut next_end = vec![u32::MAX; ending.len()];
        for (id, &node) in ending.iter().enumerate().rev() {
            next_end[id] = first_end[node];
            first_end[node] = id as u32;
        }

        // BFS from the root, each row appended as its node leaves the
        // queue: a node's row is its place in the queue. The root's row
        // leads every column and slot back to the root. Any other row
        // starts as a copy of its fail state's row (which is shallower,
        // so already written) and then takes the node's own children.
        // Every row's `SKIP` entry is its own state, and so is its
        // `LEAD` entry, flagged `WIDE`. A child's fail state is what its
        // cell held before — at the root, no child, so the root — and
        // it reports its own needles, then, if that transition was
        // flagged, its fail state's: so flags and output spans are final
        // the moment a child is queued.
        let mut table = Vec::with_capacity(rows * stride);
        table.resize(stride, 0);
        let mut spans = Vec::with_capacity(rows);
        spans.push((0u32, 0u32));
        let mut outputs = Vec::with_capacity(ending.len());
        // Each row's trie node and the state its fail link leads to.
        let mut queue = Vec::with_capacity(rows);
        queue.push((0usize, 0usize));
        for row in 0..rows {
            let (node, fail) = queue[row];
            let at = row * stride;
            if row > 0 {
                table.extend_from_within(fail * UNIT..fail * UNIT + stride);
            }
            let state = (row * units) as u16;
            table[at + usize::from(SKIP)] = state;
            table[at + usize::from(LEAD)] = state | WIDE;
            let mut child = first_child[node] as usize;
            while child != 0 {
                let cell = at + usize::from(edge[child]);
                let inherited = table[cell];
                let fail = usize::from(inherited & !MATCH);
                let first = outputs.len();
                let mut id = first_end[child];
                while id != u32::MAX {
                    outputs.push(id);
                    id = next_end[id as usize];
                }
                if inherited & MATCH != 0 {
                    let (from, to) = spans[fail / units];
                    outputs.extend_from_within(from as usize..to as usize);
                }
                spans.push((first as u32, outputs.len() as u32));
                let flag = if outputs.len() == first { 0 } else { MATCH };
                table[cell] = (queue.len() * units) as u16 | flag;
                queue.push((child, fail));
                child = next_sibling[child] as usize;
            }
        }

        // What `abreast` reads unchecked rests on: every entry, flags
        // cleared, is the offset of a whole row, and every class is a
        // column of one.
        debug_assert!(
            table.iter().all(|&entry| {
                let state = usize::from(entry & !LOOK);
                state % units == 0 && state < rows * units
            }) && classes.iter().all(|&class| usize::from(class) < columns),
            "an entry names no row, or a class no column"
        );

        Automaton {
            classes,
            stride,
            table,
            spans,
            outputs,
            longest,
        }
    }

    /// The entry of `state`'s row in the slot of `lead`, one of the
    /// [`WIDE_LEADS`]: the real transition over it.
    fn over_lead(&self, state: u16, lead: u8) -> u16 {
        let k = WIDE_LEADS
            .iter()
            .position(|&b| b == lead)
            .expect("a wide lead");
        self.table[usize::from(state) * UNIT + self.stride - WIDE_LEADS.len() + k]
    }

    /// The hot loop: [`LANES`] registers, one per chunk of `bytes`,
    /// each a byte further per turn, from turn `offset` until a lane
    /// loads a flagged entry. Returns that turn and lane — the lanes
    /// before it have taken the turn's byte and so has it, its state
    /// now the flagged entry itself; those after have not — or, with
    /// nothing met, the turn past the last one.
    ///
    /// Kept out of line: on its own the loop holds every register in a
    /// machine register, which it does not once it shares a frame with
    /// the calls of the careful path (about a tenth slower, measured).
    /// Its indices are proved once, here and in [`new`](Self::new), not
    /// checked per step: a lane-step is a byte load, a class load, one
    /// `lea`, a table load into the lane's own register and a flag test
    /// there (DESIGN.md §13).
    #[inline(never)]
    #[allow(unsafe_code)]
    fn abreast(
        &self,
        bytes: &[u8],
        states: &mut [u16; LANES],
        mut offset: usize,
    ) -> (usize, usize) {
        let chunk = bytes.len() / LANES;
        let table = &self.table[..];
        // Every unflagged entry `new` writes is the start of a whole row
        // and every class is below the stride: with the states handed in
        // held to the same bound, every index the loop forms is in bounds.
        assert!(
            states
                .iter()
                .all(|&state| usize::from(state) * UNIT + self.stride <= table.len()),
            "a lane state names no row of the table"
        );
        // Widened once: a register the next index takes as it is, with
        // no zero extension in the chain.
        let mut live = states.map(usize::from);
        let mut met = 0;
        'turns: while offset < chunk {
            for (j, state) in live.iter_mut().enumerate() {
                let at = j * chunk + offset;
                debug_assert!(at < bytes.len());
                // SAFETY: `offset < chunk` and `j < LANES`, so `at <
                // LANES * chunk <= bytes.len()`.
                let byte = unsafe { *bytes.get_unchecked(at) };
                let index = *state * UNIT + usize::from(self.classes[usize::from(byte)]);
                debug_assert!(index < table.len());
                // SAFETY: `*state` passed the `assert!` above or is an
                // entry of `table` this loop loaded and found unflagged (a
                // flagged one leaves the loop before it is used), which
                // `new` writes only as a row's offset in units (held there
                // by a debug pass and by `every_entry_names_a_row`) and
                // nothing writes after it; so `*state * UNIT + stride <=
                // table.len()`, and every class is below the stride.
                *state = usize::from(unsafe { *table.get_unchecked(index) });
                if *state & usize::from(LOOK) != 0 {
                    met = j;
                    break 'turns;
                }
            }
            offset += 1;
        }
        // Narrowed once, losing nothing: each is a `u16` handed in or
        // an entry.
        *states = live.map(|state| state as u16);
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

    /// One lane over the byte `raw[at]`, with care: its next state (a
    /// row's offset in units; 0 is the root), and whether it consumed the
    /// byte — whitespace, one byte or several, is not consumed. `hide`
    /// counts the bytes of a wide whitespace character the lane has yet
    /// to pass over.
    #[inline(always)]
    fn step(
        &self,
        state: u16,
        hide: &mut usize,
        raw: &str,
        at: usize,
        matched: &mut Hits,
    ) -> (u16, bool) {
        if *hide > 0 {
            *hide -= 1;
            return (state, false);
        }
        let class = self.automaton.classes[usize::from(raw.as_bytes()[at])];
        let entry = self.automaton.table[usize::from(state) * UNIT + usize::from(class)];
        if entry & LOOK != 0 {
            return self.look(entry, hide, raw, at, matched);
        }
        (entry, class != SKIP)
    }

    /// What a flagged entry, loaded over the byte `raw[at]`, asks for;
    /// the lane's state and whether it consumed the byte, as from
    /// [`step`](Self::step). Behind [`WIDE`] the entry is the lane's own
    /// state: decode the character that begins at `at` — whitespace
    /// leaves the state where it was and hides its remaining bytes,
    /// anything else takes the transition in the lead's slot. Behind
    /// [`MATCH`], the loose automaton reports the needles of the state
    /// at `at`: set the bit of each whose own pattern ends there too.
    #[cold]
    fn look(
        &self,
        mut entry: u16,
        hide: &mut usize,
        raw: &str,
        at: usize,
        matched: &mut Hits,
    ) -> (u16, bool) {
        if entry & WIDE != 0 {
            let state = entry & !WIDE;
            // A lead byte is a character boundary.
            let c = raw[at..].chars().next().expect("`at` indexes a byte");
            if c.is_whitespace() {
                *hide = c.len_utf8() - 1;
                return (state, false);
            }
            entry = self.automaton.over_lead(state, raw.as_bytes()[at]);
        }
        let state = entry & !LOOK;
        if entry & MATCH != 0 {
            let row = usize::from(state) * UNIT / self.automaton.stride;
            let (from, to) = self.automaton.spans[row];
            for &id in &self.automaton.outputs[from as usize..to as usize] {
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
    /// where it stops, [`look`](Self::look) resolves the flagged entry
    /// the lane that stopped it loaded, and [`step`](Self::step) takes
    /// the lanes after it and every lane of a turn some lane hides in.
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
        let mut states = [0u16; LANES];
        let mut hides = [0usize; LANES];
        let mut offset = 0;
        while offset < chunk {
            // Lanes before `first` have taken this turn's byte.
            let mut first = 0;
            if hides == [0; LANES] {
                let met;
                (offset, met) = self.automaton.abreast(raw.as_bytes(), &mut states, offset);
                if offset == chunk {
                    break;
                }
                let at = met * chunk + offset;
                states[met] = self.look(states[met], &mut hides[met], raw, at, matched).0;
                first = met + 1;
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
    use nokeys_apps::assets::file_hash;
    use nokeys_http::cases::check;
    use std::collections::HashMap;

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

    /// The columns a byte can map to: every column number is some
    /// byte's.
    fn columns(automaton: &Automaton) -> usize {
        usize::from(automaton.classes.iter().copied().max().unwrap_or(0)) + 1
    }

    /// A digest of the automaton as a transition function, blind to how
    /// the table lays out and numbers its rows: the states numbered by
    /// BFS over the complete transition function from the root, columns
    /// in order; then the byte classes and, for each state in that order
    /// and each column, the target's number and the `MATCH` and `WIDE`
    /// bits, and the state's reported needle ids after their count.
    ///
    /// Columns are numbered as when each wide lead had a column of its
    /// own, flagged `WIDE` in every row over the lead's real
    /// transition: the `LEAD` column stands for the four, resolved
    /// through the slots, and every needle column after it is three
    /// further on.
    fn canonical_digest(automaton: &Automaton) -> u64 {
        let leads = WIDE_LEADS.len();
        let shift = leads - 1;
        let lead = usize::from(LEAD);
        let columns = columns(automaton) + shift;
        let entry = |state: usize, column: usize| {
            let row = &automaton.table[state * UNIT..][..automaton.stride];
            match column.checked_sub(lead) {
                Some(k) if k < leads => row[automaton.stride - leads + k] | WIDE,
                Some(_) => row[column - shift],
                None => row[column],
            }
        };
        let mut number = HashMap::from([(0, 0u32)]);
        let mut order = vec![0];
        let mut head = 0;
        while let Some(&state) = order.get(head) {
            head += 1;
            for column in 0..columns {
                let target = usize::from(entry(state, column) & !LOOK);
                number.entry(target).or_insert_with(|| {
                    order.push(target);
                    order.len() as u32 - 1
                });
            }
        }
        assert_eq!(order.len() * automaton.stride, automaton.table.len());
        let mut bytes: Vec<u8> = (0..=u8::MAX)
            .map(|b| match automaton.classes[usize::from(b)] {
                class if class < LEAD => class,
                class if class > LEAD => class + shift as u8,
                _ => {
                    let k = WIDE_LEADS.iter().position(|&l| l == b).expect("a lead");
                    LEAD + k as u8
                }
            })
            .collect();
        for &state in &order {
            for column in 0..columns {
                let next = entry(state, column);
                bytes.extend(number[&usize::from(next & !LOOK)].to_le_bytes());
                bytes.push(u8::from(next & MATCH != 0));
                bytes.push(u8::from(next & WIDE != 0));
            }
            let (from, to) = automaton.spans[state * UNIT / automaton.stride];
            let out = &automaton.outputs[from as usize..to as usize];
            bytes.extend((out.len() as u32).to_le_bytes());
            bytes.extend(out.iter().flat_map(|id| id.to_le_bytes()));
        }
        file_hash(&bytes)
    }

    /// The catalog's automaton, pinned (DESIGN.md §13): its shape; a
    /// digest of what the walk reads — the byte classes, the table's
    /// entries little-endian, and each row's reported needle ids after
    /// their count — which any edit that changes an entry must change
    /// here, on purpose; and the canonical digest, which only a change
    /// to what the automaton does may move. The canonical value was
    /// taken from the `u32` table whose rows kept their trie-insertion
    /// order and each wide lead its own column: the 16-bit
    /// BFS-numbered table with lead slots is the same automaton.
    #[test]
    fn catalog_automaton_known_answer() {
        let automaton = &MultiPattern::new(&all_signatures()).automaton;
        let rows = automaton.table.len() / automaton.stride;
        assert_eq!(
            (
                rows,
                columns(automaton),
                automaton.stride,
                automaton.table.len(),
                automaton.longest
            ),
            (1128, 50, 56, 63_168, 38)
        );
        let mut bytes = automaton.classes.to_vec();
        bytes.extend(automaton.table.iter().flat_map(|entry| entry.to_le_bytes()));
        for row in 0..rows {
            let (from, to) = automaton.spans[row];
            let out = &automaton.outputs[from as usize..to as usize];
            bytes.extend((out.len() as u32).to_le_bytes());
            bytes.extend(out.iter().flat_map(|id| id.to_le_bytes()));
        }
        assert_eq!(file_hash(&bytes), 0x73ed_3e2b_9336_3f36);
        assert_eq!(canonical_digest(automaton), 0xf391_a03c_d94b_6f5f);
    }

    /// A state is a `u16` below the flags, so the table must hold fewer
    /// than 2^14 units. Over one letter the columns are 4 (no needle
    /// byte, ASCII whitespace, the wide leads and `a`), which with the
    /// four lead slots make a row of one unit of 8 entries, and a
    /// needle of n `a`s makes n + 1 rows:
    /// 16,382 `a`s build, 16,383 do not, and the longest needle that
    /// fits is found.
    #[test]
    fn states_fill_the_u16_up_to_the_2_14_unit_limit() {
        let longest = "a".repeat(16_382);
        let mp = synthetic(&[Pattern::exact(longest.clone().leak())]);
        let automaton = &mp.automaton;
        assert_eq!((columns(automaton), automaton.stride), (4, 8));
        assert_eq!(automaton.table.len(), 16_383 * 8);
        assert_eq!(found(&mp, &format!("x{longest}y")), [true]);
        assert_eq!(found(&mp, &format!("x{longest}")[2..]), [false]);

        let too_long = "a".repeat(16_383).leak();
        let built = std::panic::catch_unwind(|| synthetic(&[Pattern::exact(too_long)]));
        let message = built
            .expect_err("16,384 rows do not fit")
            .downcast::<String>();
        assert!(
            message.is_ok_and(|m| m.contains("2^14-unit limit")),
            "the panic names the limit"
        );
    }

    /// What `Automaton::abreast` reads unchecked rests on this: every
    /// entry, flags cleared, is a multiple of `units` below `rows *
    /// units` — the offset of a whole row — and every class is below
    /// the stride. What `look` reads behind `WIDE` rests on the rest:
    /// every row's `LEAD` entry is that row, flagged `WIDE`, no other
    /// entry is flagged `WIDE`, and no byte maps to a slot. Held on the
    /// catalog, on every exhaustive short-string set and on the
    /// automaton at the 2^14-unit limit.
    #[test]
    fn every_entry_names_a_row() {
        let limit = synthetic(&[Pattern::exact("a".repeat(16_382).leak())]);
        let sets = short_string_sets().map(|(patterns, _)| synthetic(&patterns));
        for mp in [MultiPattern::catalog(), &limit].into_iter().chain(&sets) {
            let automaton = &mp.automaton;
            let stride = automaton.stride;
            let units = stride / UNIT;
            let rows = automaton.table.len() / stride;
            assert_eq!(rows * stride, automaton.table.len());
            for (at, &entry) in automaton.table.iter().enumerate() {
                let state = usize::from(entry & !LOOK);
                assert!(
                    state % units == 0 && state < rows * units,
                    "entry {at} is {state}, not one of {rows} rows of {units} units"
                );
                let own = (at / stride * units) as u16 | WIDE;
                if at % stride == usize::from(LEAD) {
                    assert_eq!(entry, own, "entry {at} is not its row, flagged");
                } else {
                    assert_eq!(entry & WIDE, 0, "entry {at} is flagged WIDE");
                }
            }
            assert!(automaton
                .classes
                .iter()
                .all(|&class| usize::from(class) + WIDE_LEADS.len() < stride));
        }
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

    /// The needle sets of the exhaustive short-string test, each with
    /// its alphabet.
    fn short_string_sets() -> [(Vec<Pattern>, &'static str); 9] {
        use Pattern as P;
        [
            (["he", "she", "his", "hers"].map(P::exact).to_vec(), "hesx"),
            (["he", "she", "his", "hers"].map(P::exact).to_vec(), "hirx"),
            (["aa", "aaa", "baa"].map(P::exact).to_vec(), "abcx"),
            (vec![P::exact("b")], "abcx"),
            (["cab", "ab", "b", "abca"].map(P::exact).to_vec(), "abcx"),
            (["ab", "bab"].map(P::nocase).to_vec(), "aAbBx"),
            (["ab", "bab"].map(P::nospace).to_vec(), "ab \nx"),
            (
                vec![
                    P::exact("Ab"),
                    P::exact("a b"),
                    P::nocase("ab"),
                    P::nospace("ab"),
                    P::nospace("Ab"),
                ],
                "aAb x",
            ),
            (
                vec![P::exact("a©"), P::exact("©b"), P::nocase("x—y")],
                "a©\u{a0}—bxy",
            ),
        ]
    }

    /// Exhaustive: on every string of length ≤ 6 over the needles'
    /// letters plus one byte no needle contains, the matcher reports
    /// exactly the needles `Pattern::matches` finds. Small enough to
    /// enumerate, and each layout decision has a case that breaks if it
    /// is wrong: the stray byte must fall back to the root through
    /// column 0 (byte classes), deep states must land on the right row
    /// (row-offset ids), and a needle ending inside or at the end of
    /// another must be reported from the longer one's states (match
    /// flags inherited along fail links during the BFS). From five
    /// bytes up every lane has a chunk of its own, and all the rest is
    /// run-on. Three sets pin the folds: alone, and with the three
    /// modes sharing one loose spelling, where only the confirmation
    /// tells them apart. The last puts wide leads inside needles: a
    /// needle edge over a lead lives in its slot, U+00A0 shares its
    /// lead with `©` and `—` with three-byte whitespace, and the lanes
    /// cut characters of up to three bytes.
    #[test]
    fn automaton_agrees_with_contains_on_every_short_string() {
        for (patterns, alphabet) in short_string_sets() {
            let mp = synthetic(&patterns);
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
                (0..=6)
                    .map(|n| alphabet.chars().count().pow(n))
                    .sum::<usize>()
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
