//! Single-pass multi-pattern matching for the prefilter signatures.
//!
//! The naive stage-II hot loop runs 90 substring searches per response
//! body (one per [`Signature`](crate::signatures::Signature)), each of
//! which rescans the body from the start. [`MultiPattern`] replaces that
//! with a small in-house Aho–Corasick automaton per *view* of the body
//! (raw, ASCII-lowered, whitespace-squashed — the three
//! [`MatchMode`](crate::pattern::MatchMode)s), so every HTTP-speaking
//! endpoint pays one linear pass per view instead of ninety.
//!
//! The matcher is exactly equivalent to running each signature's
//! [`Pattern`](crate::pattern::Pattern) individually; the unit tests
//! below and the `prefilter` tests enforce that equivalence.

use crate::pattern::{MatchMode, PreparedBody};
use crate::signatures::{rank_candidates, Signature};
use nokeys_apps::AppId;
use std::collections::BTreeMap;

/// A dense-table Aho–Corasick automaton over bytes.
///
/// Built once per signature set; ~2K states for the 90-signature
/// catalog, so the full 256-way transition table stays well under a few
/// megabytes and every input byte costs exactly one table lookup.
#[derive(Debug, Clone)]
pub struct Automaton {
    /// `next[state * 256 + byte]` — complete goto function (fail links
    /// are pre-resolved into the table during construction).
    next: Vec<u32>,
    /// Pattern ids that end at each state (fail-closure already merged).
    out: Vec<Vec<u32>>,
    /// Number of patterns the automaton was built from.
    patterns: usize,
}

impl Automaton {
    /// Build from `(pattern_id, needle)` pairs. Empty needles are
    /// rejected — a signature that matches everything is a bug.
    pub fn new<'a, I>(patterns: I) -> Self
    where
        I: IntoIterator<Item = (u32, &'a str)>,
    {
        // Trie construction with sparse child maps.
        let mut children: Vec<BTreeMap<u8, u32>> = vec![BTreeMap::new()];
        let mut out: Vec<Vec<u32>> = vec![Vec::new()];
        let mut n_patterns = 0usize;
        for (id, needle) in patterns {
            assert!(!needle.is_empty(), "empty multi-pattern needle");
            n_patterns += 1;
            let mut state = 0u32;
            for &b in needle.as_bytes() {
                state = match children[state as usize].get(&b) {
                    Some(&s) => s,
                    None => {
                        let s = children.len() as u32;
                        children.push(BTreeMap::new());
                        out.push(Vec::new());
                        children[state as usize].insert(b, s);
                        s
                    }
                };
            }
            out[state as usize].push(id);
        }

        // BFS: compute fail links, resolve them into a dense transition
        // table, and merge output sets along the fail chain.
        let n_states = children.len();
        let mut next = vec![0u32; n_states * 256];
        let mut fail = vec![0u32; n_states];
        let mut queue = std::collections::VecDeque::new();
        for (&b, &s) in &children[0] {
            next[b as usize] = s;
            queue.push_back(s);
        }
        while let Some(s) = queue.pop_front() {
            let f = fail[s as usize];
            // Merge the fail state's outputs so a single lookup at `s`
            // reports every pattern ending here.
            let inherited = out[f as usize].clone();
            out[s as usize].extend(inherited);
            // Start from the fail state's row (complete — fail states
            // sit at shallower depths and were processed earlier in the
            // BFS, though their *indices* may be higher), then overwrite
            // the transitions this state defines itself.
            next.copy_within(f as usize * 256..f as usize * 256 + 256, s as usize * 256);
            for (&b, &child) in &children[s as usize] {
                fail[child as usize] = next[s as usize * 256 + b as usize];
                next[s as usize * 256 + b as usize] = child;
                queue.push_back(child);
            }
        }

        Automaton {
            next,
            out,
            patterns: n_patterns,
        }
    }

    /// Whether any patterns were compiled in.
    pub fn is_empty(&self) -> bool {
        self.patterns == 0
    }

    /// Single pass over `haystack`; sets `matched[id] = true` for every
    /// pattern occurring as a substring.
    pub fn find_into(&self, haystack: &str, matched: &mut [bool]) {
        let mut state = 0u32;
        for &b in haystack.as_bytes() {
            state = self.next[state as usize * 256 + b as usize];
            for &id in &self.out[state as usize] {
                matched[id as usize] = true;
            }
        }
    }
}

/// Which transformed views a scratch-based matching pass built, with
/// the byte length each copied. `None` means the raw body was already
/// in canonical form and the automaton ran over it in place — exactly
/// the cases where [`PreparedBody`] skips materialization too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewUse {
    /// Bytes copied into the lowered view, if one was needed.
    pub lower: Option<usize>,
    /// Bytes copied into the squashed view, if one was needed.
    pub squashed: Option<usize>,
}

/// The compiled signature set: one automaton per body view.
#[derive(Debug, Clone)]
pub struct MultiPattern {
    /// Exact patterns, searched over the raw body.
    raw: Automaton,
    /// Case-insensitive patterns, searched over the lowered view.
    lower: Automaton,
    /// Whitespace-insensitive patterns, searched over the squashed view.
    squashed: Automaton,
    /// Signature index → application, in catalog order.
    apps: Vec<AppId>,
}

impl MultiPattern {
    /// Compile a signature catalog. Signature order is preserved so the
    /// matcher's output is interchangeable with the linear scan's.
    pub fn new(signatures: &[Signature]) -> Self {
        let by_mode = |mode: MatchMode| {
            signatures
                .iter()
                .enumerate()
                .filter(move |(_, s)| s.pattern.mode == mode)
                .map(|(i, s)| (i as u32, s.pattern.needle))
        };
        MultiPattern {
            raw: Automaton::new(by_mode(MatchMode::Exact)),
            lower: Automaton::new(by_mode(MatchMode::IgnoreCase)),
            squashed: Automaton::new(by_mode(MatchMode::IgnoreWhitespace)),
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

    /// Which signatures match `body` (index-aligned with the catalog).
    /// The lowered / squashed views are only materialized when a pattern
    /// actually needs them.
    pub fn matched_signatures(&self, body: &PreparedBody) -> Vec<bool> {
        let mut matched = vec![false; self.apps.len()];
        self.raw.find_into(&body.raw, &mut matched);
        if !self.lower.is_empty() {
            self.lower.find_into(body.lower(), &mut matched);
        }
        if !self.squashed.is_empty() {
            self.squashed.find_into(body.squashed(), &mut matched);
        }
        matched
    }

    /// Allocation-free variant of
    /// [`matched_signatures`](Self::matched_signatures): the match bits
    /// and any transformed views live in the caller's [`Scratch`] and
    /// are left in `scratch.matched()` for the caller to read. Returns
    /// which views a distinct copy was actually built for — the same
    /// bodies [`PreparedBody`] would report as materialized, so both
    /// paths drive the `alloc.*` / `stage2.multipattern.view_*`
    /// counters identically.
    ///
    /// [`Scratch`]: crate::scratch::Scratch
    pub fn matched_signatures_scratch(
        &self,
        raw: &str,
        scratch: &mut crate::scratch::Scratch,
    ) -> ViewUse {
        let (matched, lower_buf, squashed_buf) = scratch.matcher_parts();
        matched.clear();
        matched.resize(self.apps.len(), false);
        self.raw.find_into(raw, matched);
        let mut used = ViewUse {
            lower: None,
            squashed: None,
        };
        if !self.lower.is_empty() {
            if crate::scratch::needs_lower(raw) {
                crate::scratch::lower_into(raw, lower_buf);
                self.lower.find_into(lower_buf, matched);
                used.lower = Some(lower_buf.len());
            } else {
                // Already lowercase: the raw body *is* the lowered view.
                self.lower.find_into(raw, matched);
            }
        }
        if !self.squashed.is_empty() {
            if crate::scratch::needs_squash(raw) {
                crate::scratch::squash_into(raw, squashed_buf);
                self.squashed.find_into(squashed_buf, matched);
                used.squashed = Some(squashed_buf.len());
            } else {
                self.squashed.find_into(raw, matched);
            }
        }
        used
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
    use crate::signatures::{all_signatures, match_candidates, match_counts};
    use nokeys_http::cases::check;

    #[test]
    fn automaton_finds_overlapping_patterns() {
        let a = Automaton::new([(0, "he"), (1, "she"), (2, "his"), (3, "hers")]);
        let mut m = vec![false; 4];
        a.find_into("ushers", &mut m);
        assert_eq!(m, vec![true, true, false, true]);
    }

    #[test]
    fn automaton_handles_repeated_and_nested_needles() {
        let a = Automaton::new([(0, "aa"), (1, "aaa"), (2, "baa")]);
        let mut m = vec![false; 3];
        a.find_into("abaaa", &mut m);
        assert_eq!(m, vec![true, true, true]);
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

    /// Noise alphabet for random bodies: mixed case, whitespace (incl.
    /// the Unicode kinds the squash view strips), multi-byte characters
    /// and the punctuation the needles are made of.
    const NOISE: &str =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0189 \t\n\u{a0}\u{2028}éβ.:-_/<>=[]\"{}";
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

    /// On arbitrary bodies (needle fragments spliced into noise at a
    /// character boundary), the three ways to classify a body agree:
    /// the scratch path (production), the allocating `PreparedBody`
    /// path, and the 90-pattern linear scan. One reused arena carries
    /// no state between bodies, and reports the same views as
    /// materialized as the allocating path does.
    #[test]
    fn scratch_allocating_and_linear_paths_agree_on_random_bodies() {
        let sigs = all_signatures();
        let mp = MultiPattern::new(&sigs);
        check(256, |g| {
            let mut scratch = crate::scratch::Scratch::new();
            for _ in 0..g.index(1..6) {
                let mut body = g.string(NOISE, 0..100);
                for _ in 0..g.index(0..3) {
                    let cuts: Vec<usize> = body
                        .char_indices()
                        .map(|(i, _)| i)
                        .chain([body.len()])
                        .collect();
                    body.insert_str(*g.pick(&cuts), g.pick::<&str>(&FRAGMENTS));
                }
                let prepared = PreparedBody::new(body.as_str());
                // Allocating path = linear scan.
                assert_eq!(
                    mp.match_counts(&prepared),
                    match_counts(&sigs, &prepared),
                    "{body:?}"
                );
                assert_eq!(
                    mp.match_candidates(&prepared),
                    match_candidates(&sigs, &prepared),
                    "{body:?}"
                );
                // Scratch path = allocating path, bit for bit.
                let reference = mp.matched_signatures(&prepared);
                // Force both views so materialization flags are final.
                let _ = (prepared.lower(), prepared.squashed());
                let used = mp.matched_signatures_scratch(&body, &mut scratch);
                assert_eq!(scratch.matched(), &reference[..], "{body:?}");
                assert_eq!(
                    rank_candidates(mp.counts_from_matched(scratch.matched())),
                    match_candidates(&sigs, &prepared),
                    "{body:?}"
                );
                assert_eq!(used.lower.is_some(), prepared.lower_materialized());
                assert_eq!(used.squashed.is_some(), prepared.squashed_materialized());
                if let Some(bytes) = used.lower {
                    assert_eq!(bytes, body.len());
                }
                if let Some(bytes) = used.squashed {
                    assert_eq!(bytes, prepared.squashed().len());
                }
            }
        });
    }
}
