//! Per-prefilter scratch arena for the stage-II hot path.
//!
//! The arena holds the match set: a [`Hits`], one bit per signature of
//! the matcher that fills it. It takes its words (two, for the
//! 90-signature catalog) from the first matcher that uses it; after
//! that first body nothing in it allocates. It holds no copy of any
//! body: the multipattern walk reads the raw bytes in place
//! (`multipattern.rs`), so nothing in the arena grows with body size.
//!
//! # Ownership rules
//!
//! - Each [`Prefilter`](crate::Prefilter) owns one `Scratch`, and a
//!   batch builds one prefilter, so there is one arena per batch. The
//!   borrow checker enforces exclusivity; nothing in it is shared.
//! - Contents are **dead between bodies**:
//!   `MultiPattern::matched_signatures_scratch` empties the match set
//!   before filling it, so no body ever observes a previous one's data.
//!
//! The view builders and their predicates ([`lower_into`],
//! [`squash_into`], [`needs_lower`], [`needs_squash`]) live here for
//! [`PreparedBody`](crate::pattern::PreparedBody), the reference the
//! matcher is tested against.

use crate::signatures::Hits;

/// The reusable match set of multipattern matching.
#[derive(Debug, Default)]
pub struct Scratch {
    /// The signatures the most recent multipattern pass matched.
    hits: Hits,
}

impl Scratch {
    /// The per-view buffer size of the arena that used to hold lowered
    /// and squashed body copies. The arena reserves nothing of the kind
    /// any more; the constant stays `pub` because the benchmark
    /// (`benchmark/src/program.rs`) reports the share of bodies above
    /// it as `core.scratch.over_reserve_share`.
    pub const RESERVE: usize = 16 * 1024;

    /// An empty arena: it allocates nothing until a matcher sizes its
    /// match set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The match set for the multipattern pass to fill.
    pub(crate) fn hits_mut(&mut self) -> &mut Hits {
        &mut self.hits
    }

    /// The match set left by the most recent
    /// [`MultiPattern::matched_signatures_scratch`](crate::MultiPattern::matched_signatures_scratch)
    /// call.
    pub fn matched(&self) -> &Hits {
        &self.hits
    }
}

/// Fill `out` with the ASCII-lowercased copy of `raw`.
///
/// Equivalent to `raw.to_ascii_lowercase()` but reuses `out`'s
/// capacity: no allocation unless `raw.len()` exceeds it.
pub fn lower_into(raw: &str, out: &mut String) {
    out.clear();
    out.push_str(raw);
    out.make_ascii_lowercase();
}

/// Fill `out` with `raw` minus all Unicode whitespace.
///
/// Byte-wise run copy: finds each whitespace char and copies the
/// non-whitespace run before it with one `push_str`, instead of the
/// per-char `chars().filter().collect()` the view used to do.
/// Equivalent output, reuses `out`'s capacity.
pub fn squash_into(raw: &str, out: &mut String) {
    out.clear();
    let mut rest = raw;
    while let Some(pos) = rest.find(char::is_whitespace) {
        out.push_str(&rest[..pos]);
        let ws = rest[pos..].chars().next().map_or(1, char::len_utf8);
        rest = &rest[pos + ws..];
    }
    out.push_str(rest);
}

/// True when the body would need a distinct lowercase view: any ASCII
/// uppercase byte present. `PreparedBody::lower` serves the raw body
/// in place otherwise.
pub fn needs_lower(raw: &str) -> bool {
    raw.bytes().any(|b| b.is_ascii_uppercase())
}

/// True when the body would need a distinct squashed view: any
/// whitespace present. Counterpart of [`needs_lower`] for
/// `PreparedBody::squashed`.
pub fn needs_squash(raw: &str) -> bool {
    raw.chars().any(char::is_whitespace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_into_matches_reference() {
        let mut buf = String::new();
        for raw in ["", "abc", "ABC def", "ÄÖÜ mixed CASE", "já Æ"] {
            lower_into(raw, &mut buf);
            assert_eq!(buf, raw.to_ascii_lowercase(), "input {raw:?}");
        }
    }

    #[test]
    fn squash_into_matches_reference() {
        let mut buf = String::new();
        for raw in [
            "",
            "abc",
            "a b\tc\nd",
            "  leading and trailing  ",
            "non\u{a0}breaking\u{2003}spaces",
            "tabs\t\t\tand\r\nnewlines",
        ] {
            squash_into(raw, &mut buf);
            let reference: String = raw.chars().filter(|c| !c.is_whitespace()).collect();
            assert_eq!(buf, reference, "input {raw:?}");
        }
    }

    #[test]
    fn buffers_reuse_capacity_across_calls() {
        let mut buf = String::new();
        squash_into("a b c d e f", &mut buf);
        let cap = buf.capacity();
        squash_into("x y", &mut buf);
        assert_eq!(buf, "xy");
        assert_eq!(
            buf.capacity(),
            cap,
            "shorter input must not shrink or realloc"
        );
    }

    #[test]
    fn view_need_predicates() {
        assert!(needs_lower("aBc"));
        assert!(!needs_lower("abc 123 ä"));
        assert!(needs_squash("a b"));
        assert!(needs_squash("a\u{a0}b"));
        assert!(!needs_squash("abc"));
    }

    #[test]
    fn scratch_takes_match_words_from_the_matcher() {
        let mut s = Scratch::new();
        assert_eq!(s.matched(), &Hits::default(), "no words before a matcher");
        assert!(!s.matched().contains(0), "and nothing in them");
        let catalog = crate::multipattern::MultiPattern::catalog();
        catalog.matched_signatures_scratch("wp-content", &mut s);
        assert_eq!(s.matched().iter().count(), 1);
        catalog.matched_signatures_scratch("", &mut s);
        assert_eq!(s.matched(), &Hits::new(catalog.len()), "sized and empty");
    }
}
