//! The small text-matching engine behind the prefilter signatures and
//! the plugin checks.
//!
//! Three match modes cover everything the paper's checks need:
//! exact substring, ASCII-case-insensitive substring (Docker, Hadoop),
//! and whitespace-stripped substring (Drupal, Kubernetes — "remove all
//! whitespace from response, as their placement differs across
//! versions"). [`PreparedBody`] computes the lowered and squashed views
//! lazily and once, so that the plugin checks and the linear signature
//! scan — the reference [`MultiPattern`](crate::multipattern::MultiPattern)
//! is tested against — pay substring searches, not one transformation
//! per pattern. `MultiPattern` itself reads only `raw`: its one
//! automaton is blind to case and whitespace alike, and each candidate
//! it reports is settled in place by [`Pattern::ends_at`], the
//! per-offset form of [`Pattern::matches_str`].

/// How a pattern is compared against a body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchMode {
    /// Byte-exact substring.
    Exact,
    /// ASCII-case-insensitive substring.
    IgnoreCase,
    /// Substring after stripping *all* whitespace from both sides.
    IgnoreWhitespace,
}

/// A search pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    pub needle: &'static str,
    pub mode: MatchMode,
}

impl Pattern {
    /// Exact substring pattern.
    pub const fn exact(needle: &'static str) -> Self {
        Pattern {
            needle,
            mode: MatchMode::Exact,
        }
    }

    /// Case-insensitive pattern (the needle itself must be lowercase).
    pub const fn nocase(needle: &'static str) -> Self {
        Pattern {
            needle,
            mode: MatchMode::IgnoreCase,
        }
    }

    /// Whitespace-insensitive pattern (the needle must already contain no
    /// whitespace).
    pub const fn nospace(needle: &'static str) -> Self {
        Pattern {
            needle,
            mode: MatchMode::IgnoreWhitespace,
        }
    }

    /// Match against a prepared body.
    pub fn matches(&self, body: &PreparedBody) -> bool {
        match self.mode {
            MatchMode::Exact => body.raw.contains(self.needle),
            MatchMode::IgnoreCase => {
                debug_assert_eq!(
                    self.needle,
                    self.needle.to_ascii_lowercase(),
                    "nocase needles must be lowercase"
                );
                body.lower().contains(self.needle)
            }
            MatchMode::IgnoreWhitespace => {
                debug_assert!(
                    !self.needle.chars().any(|c| c.is_whitespace()),
                    "nospace needles must contain no whitespace"
                );
                body.squashed().contains(self.needle)
            }
        }
    }

    /// Match directly against a borrowed string (one-off use). Unlike
    /// [`Pattern::matches`] this never copies the haystack: exact mode
    /// is a plain substring search, and the case-/whitespace-insensitive
    /// modes scan in place instead of materializing a transformed view.
    pub fn matches_str(&self, body: &str) -> bool {
        match self.mode {
            MatchMode::Exact => body.contains(self.needle),
            MatchMode::IgnoreCase => {
                debug_assert_eq!(
                    self.needle,
                    self.needle.to_ascii_lowercase(),
                    "nocase needles must be lowercase"
                );
                contains_ignore_ascii_case(body, self.needle)
            }
            MatchMode::IgnoreWhitespace => {
                debug_assert!(
                    !self.needle.chars().any(|c| c.is_whitespace()),
                    "nospace needles must contain no whitespace"
                );
                contains_ignore_whitespace(body, self.needle)
            }
        }
    }

    /// Whether an occurrence of the pattern ends at byte `end` of
    /// `raw`, so that [`matches_str`](Self::matches_str) is true
    /// exactly when some `end` in `0..=raw.len()` is. In place and
    /// bounded by the occurrence's own length: `MultiPattern` settles
    /// each candidate its loose automaton reports with one call.
    ///
    /// - `Exact`: `raw[..end]` ends with the needle's bytes.
    /// - `IgnoreCase`: its last `needle.len()` bytes equal the needle's
    ///   up to ASCII case.
    /// - `IgnoreWhitespace`: its characters, read backwards with
    ///   whitespace skipped, spell the needle reversed.
    ///
    /// An `end` past the body or inside a character ends nothing.
    pub fn ends_at(&self, raw: &str, end: usize) -> bool {
        let needle = self.needle.as_bytes();
        match self.mode {
            MatchMode::Exact => raw
                .as_bytes()
                .get(..end)
                .is_some_and(|head| head.ends_with(needle)),
            MatchMode::IgnoreCase => end
                .checked_sub(needle.len())
                .and_then(|start| raw.as_bytes().get(start..end))
                .is_some_and(|tail| tail.eq_ignore_ascii_case(needle)),
            MatchMode::IgnoreWhitespace => raw.get(..end).is_some_and(|head| {
                let mut hay = head.chars().rev().filter(|c| !c.is_whitespace());
                self.needle.chars().rev().all(|c| hay.next() == Some(c))
            }),
        }
    }
}

/// ASCII-case-insensitive substring search without allocating a lowered
/// copy of the haystack. Equivalent to
/// `hay.to_ascii_lowercase().contains(needle)` for lowercase needles.
fn contains_ignore_ascii_case(hay: &str, needle: &str) -> bool {
    let n = needle.as_bytes();
    if n.is_empty() {
        return true;
    }
    if hay.len() < n.len() {
        return false;
    }
    hay.as_bytes()
        .windows(n.len())
        .any(|w| w.eq_ignore_ascii_case(n))
}

/// Whitespace-insensitive substring search without materializing the
/// squashed view. Equivalent to searching for `needle` in
/// `hay.chars().filter(|c| !c.is_whitespace())`.
fn contains_ignore_whitespace(hay: &str, needle: &str) -> bool {
    if needle.is_empty() {
        return true;
    }
    let mut start = hay.chars().filter(|c| !c.is_whitespace());
    loop {
        let mut h = start.clone();
        let mut n = needle.chars();
        loop {
            match n.next() {
                None => return true,
                Some(nc) => {
                    if h.next() != Some(nc) {
                        break;
                    }
                }
            }
        }
        if start.next().is_none() {
            return false;
        }
    }
}

/// A body with lazily computed lowered / whitespace-stripped views.
///
/// The raw text is a [`Cow`](std::borrow::Cow): signature matching
/// over a fetched response borrows the response body in place
/// (via [`Response::body_str`](nokeys_http::Response::body_str))
/// instead of copying it, and only the lowered/squashed views — when a
/// signature actually needs them *and* the raw text is not already in
/// canonical form — allocate. A body with no ASCII uppercase serves
/// `lower()` straight from `raw`; a body with no whitespace serves
/// `squashed()` the same way (the cell caches `None` so the scan runs
/// once).
#[derive(Debug)]
pub struct PreparedBody<'a> {
    pub raw: std::borrow::Cow<'a, str>,
    lower: std::cell::OnceCell<Option<String>>,
    squashed: std::cell::OnceCell<Option<String>>,
}

impl<'a> PreparedBody<'a> {
    pub fn new(raw: impl Into<std::borrow::Cow<'a, str>>) -> Self {
        PreparedBody {
            raw: raw.into(),
            lower: Default::default(),
            squashed: Default::default(),
        }
    }

    /// Lowercased view. Computed (and allocated) at most once, and not
    /// at all when the raw body contains no ASCII uppercase.
    pub fn lower(&self) -> &str {
        match self.lower.get_or_init(|| {
            crate::scratch::needs_lower(&self.raw).then(|| self.raw.to_ascii_lowercase())
        }) {
            Some(view) => view,
            None => &self.raw,
        }
    }

    /// Whitespace-stripped view. Computed byte-wise at most once, and
    /// not at all when the raw body contains no whitespace.
    pub fn squashed(&self) -> &str {
        match self.squashed.get_or_init(|| {
            crate::scratch::needs_squash(&self.raw).then(|| {
                let mut out = String::with_capacity(self.raw.len());
                crate::scratch::squash_into(&self.raw, &mut out);
                out
            })
        }) {
            Some(view) => view,
            None => &self.raw,
        }
    }

    /// Whether a distinct lowered view has been materialized. False
    /// when `lower()` was never asked for, or was answered by the raw
    /// body in place.
    pub fn lower_materialized(&self) -> bool {
        self.lower.get().is_some_and(Option::is_some)
    }

    /// Whether a distinct whitespace-stripped view has been
    /// materialized.
    pub fn squashed_materialized(&self) -> bool {
        self.squashed.get().is_some_and(Option::is_some)
    }
}

impl<'a> From<&'a str> for PreparedBody<'a> {
    fn from(s: &'a str) -> Self {
        PreparedBody::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nokeys_http::cases::{check, PRINTABLE};

    #[test]
    fn exact_matching() {
        let body = PreparedBody::from("The Admin plugin has been installed");
        assert!(Pattern::exact("Admin plugin").matches(&body));
        assert!(!Pattern::exact("admin plugin").matches(&body));
    }

    #[test]
    fn case_insensitive_matching() {
        let body = PreparedBody::from("MinAPIVersion: 1.12, KernelVersion: 5.4");
        assert!(Pattern::nocase("minapiversion").matches(&body));
        assert!(Pattern::nocase("kernelversion").matches(&body));
        assert!(!Pattern::nocase("dockerversion").matches(&body));
    }

    #[test]
    fn whitespace_stripped_matching() {
        let body = PreparedBody::from("<li class=\"is-active\">\n    Set up database\n  </li>");
        assert!(Pattern::nospace("<liclass=\"is-active\">Setupdatabase").matches(&body));
        // Newlines inside the needle region don't matter.
        let tight = PreparedBody::from("<li class=\"is-active\">Set up database</li>");
        assert!(Pattern::nospace("<liclass=\"is-active\">Setupdatabase").matches(&tight));
    }

    #[test]
    fn prepared_body_borrows_without_copying() {
        let text = String::from("Dashboard [Jenkins]");
        let body = PreparedBody::new(text.as_str());
        assert!(matches!(body.raw, std::borrow::Cow::Borrowed(_)));
        assert!(Pattern::exact("Jenkins").matches(&body));
        assert!(
            !body.lower_materialized() && !body.squashed_materialized(),
            "exact matching must not materialize any transformed view"
        );
    }

    #[test]
    fn prepared_views_are_cached_and_consistent() {
        let body = PreparedBody::from("A b\tC\nd");
        assert_eq!(body.lower(), "a b\tc\nd");
        assert_eq!(body.squashed(), "AbCd");
        // Second call returns the same data (cache hit).
        assert_eq!(body.lower(), "a b\tc\nd");
        assert!(body.lower_materialized() && body.squashed_materialized());
    }

    #[test]
    fn canonical_bodies_serve_views_without_materializing() {
        // No ASCII uppercase: lower() is the raw body, borrowed.
        let body = PreparedBody::from("already lowercase ä 123");
        assert_eq!(body.lower(), "already lowercase ä 123");
        assert!(
            !body.lower_materialized(),
            "uppercase-free body must not allocate a lowered view"
        );
        // But it does contain whitespace, so squashed still copies.
        assert_eq!(body.squashed(), "alreadylowercaseä123");
        assert!(body.squashed_materialized());

        // No whitespace: squashed() is the raw body, borrowed.
        let tight = PreparedBody::from("NoWhitespaceHere");
        assert_eq!(tight.squashed(), "NoWhitespaceHere");
        assert!(!tight.squashed_materialized());
        assert_eq!(tight.lower(), "nowhitespacehere");
        assert!(tight.lower_materialized());
    }

    /// Bodies with mixed case, every whitespace kind the squash view
    /// must strip, multi-byte characters and needle fragments.
    const BODY: &str =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ \t\n\u{a0}\u{2028}éβ.:\"{}";

    /// Exact mode agrees with `str::contains`.
    #[test]
    fn exact_agrees_with_reference() {
        check(256, |g| {
            let needle = "Jenkins";
            let mut haystack = g.string(PRINTABLE, 0..100);
            if g.bool() {
                haystack.insert_str(g.index(0..haystack.len() + 1), needle);
            }
            let p = Pattern::exact(needle);
            assert_eq!(p.matches_str(&haystack), haystack.contains(needle));
        });
    }

    /// Case-insensitive mode agrees with lowercase reference.
    #[test]
    fn nocase_agrees_with_reference() {
        check(256, |g| {
            let needle = "hadoop";
            let mut haystack = g.string(PRINTABLE, 0..100);
            if g.bool() {
                haystack.insert_str(g.index(0..haystack.len() + 1), "HaDoOp");
            }
            let p = Pattern::nocase(needle);
            assert_eq!(
                p.matches_str(&haystack),
                haystack.to_ascii_lowercase().contains(needle)
            );
        });
    }

    /// The allocation-free `matches_str` agrees with the
    /// `PreparedBody`-based matcher in every mode, including on
    /// non-ASCII haystacks with exotic whitespace.
    #[test]
    fn matches_str_agrees_with_prepared() {
        check(256, |g| {
            let haystack = g.string(BODY, 0..120);
            for p in [
                Pattern::exact("Jenkins"),
                Pattern::nocase("hadoop"),
                Pattern::nospace("k8s.io"),
                Pattern::nospace("\"kind\":\"Status\""),
            ] {
                let prepared = PreparedBody::new(haystack.clone());
                assert_eq!(
                    p.matches_str(&haystack),
                    p.matches(&prepared),
                    "{p:?} on {haystack:?}"
                );
            }
        });
    }

    /// In every mode a pattern matches a body exactly when an occurrence
    /// ends at some offset of it, offsets inside a character included
    /// (nothing ends there). Half the bodies carry a needle disguised
    /// in a way its mode sees through or, as often, one it does not.
    #[test]
    fn ends_at_some_offset_exactly_when_the_pattern_matches() {
        let matched = std::cell::Cell::new(0);
        check(256, |g| {
            let mut haystack = g.string(BODY, 0..120);
            if g.bool() {
                let cuts: Vec<usize> = haystack
                    .char_indices()
                    .map(|(i, _)| i)
                    .chain([haystack.len()])
                    .collect();
                let disguised = [
                    "Jenkins",
                    "JENKINS",
                    "HaDoOp",
                    "ha doop",
                    "k8s\u{a0}.\tio",
                    "K8S.IO",
                    "\"kind\" :\u{2028}\"Status\"",
                ];
                haystack.insert_str(*g.pick(&cuts), g.pick::<&str>(&disguised));
            }
            for p in [
                Pattern::exact("Jenkins"),
                Pattern::nocase("hadoop"),
                Pattern::nospace("k8s.io"),
                Pattern::nospace("\"kind\":\"Status\""),
            ] {
                let ends: Vec<usize> = (0..=haystack.len() + 1)
                    .filter(|&end| p.ends_at(&haystack, end))
                    .collect();
                assert_eq!(
                    p.matches_str(&haystack),
                    !ends.is_empty(),
                    "{p:?} on {haystack:?}"
                );
                assert!(
                    ends.iter().all(|&end| haystack.is_char_boundary(end)),
                    "{p:?} ends at {ends:?} in {haystack:?}"
                );
                matched.set(matched.get() + usize::from(!ends.is_empty()));
            }
        });
        assert!(matched.get() > 50, "only {} matches", matched.get());
    }

    /// The borrow-when-canonical and byte-wise-squash micro-fixes
    /// change representation, never content: both views equal the
    /// old `to_ascii_lowercase` / `chars().filter().collect()`
    /// reference on arbitrary bodies.
    #[test]
    fn views_equal_allocating_reference() {
        check(256, |g| {
            let haystack = g.string(BODY, 0..120);
            let body = PreparedBody::new(haystack.clone());
            assert_eq!(body.lower(), haystack.to_ascii_lowercase());
            let squash_ref: String = haystack.chars().filter(|c| !c.is_whitespace()).collect();
            assert_eq!(body.squashed(), squash_ref);
            // A view materializes iff the body is not already canonical.
            assert_eq!(
                body.lower_materialized(),
                crate::scratch::needs_lower(&haystack)
            );
            assert_eq!(
                body.squashed_materialized(),
                crate::scratch::needs_squash(&haystack)
            );
        });
    }

    /// Whitespace mode is invariant under whitespace insertion.
    #[test]
    fn nospace_invariant_under_whitespace() {
        check(256, |g| {
            // Insert whitespace into the middle of the marker.
            let marker = "certificates.k8s.io";
            let mid = 5;
            let prefix = g.string("abcdefghijklmnopqrstuvwxyz", 0..11);
            let ws = g.string(" \n\t", 0..5);
            let body = format!("{prefix}{}{ws}{}", &marker[..mid], &marker[mid..]);
            assert!(Pattern::nospace(marker).matches_str(&body));
        });
    }
}
