//! Case-insensitive, order-preserving header map.
//!
//! Storage is an inline arena: field names and values are copied into a
//! fixed byte buffer and addressed by `(offset, length)` spans, with a
//! fixed-size entry table in front. A typical scan response (≤ 8 fields,
//! well under 1 KiB of header text) therefore lives entirely inside the
//! `Headers` value — building one performs **zero heap allocations**.
//! Larger messages transparently spill the excess entries/text to a
//! `Vec`/`String`; the `alloc.headers.*` telemetry in the scanner counts
//! how often that happens via [`Headers::spilled`].

use crate::error::{Error, Result};
use std::fmt;

/// Bytes of header text stored inline before spilling to the heap.
const INLINE_TEXT: usize = 1024;
/// Header fields stored inline before spilling to the heap.
const INLINE_ENTRIES: usize = 8;
/// High bit of a span offset: set when the span lives in `spill_text`.
const SPILL_TAG: u32 = 1 << 31;

/// A byte range in the inline buffer or (when tagged) the spill string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    off: u32,
    len: u32,
}

impl Span {
    const EMPTY: Span = Span { off: 0, len: 0 };
}

/// One header field: spans for its name and value.
#[derive(Debug, Clone, Copy)]
struct Entry {
    name: Span,
    value: Span,
}

impl Entry {
    const EMPTY: Entry = Entry {
        name: Span::EMPTY,
        value: Span::EMPTY,
    };
}

/// An ordered multimap of HTTP header fields.
///
/// Lookup is case-insensitive (per RFC 9110) while the original casing and
/// insertion order are preserved for serialization, which keeps wire output
/// stable and therefore testable.
///
/// Equality and `Debug` go through the logical `(name, value)`
/// pair sequence, never the storage representation, so a map that spilled
/// (or that carries dead arena bytes after a [`remove`](Headers::remove))
/// compares equal to an inline-only map with the same fields.
#[derive(Clone)]
pub struct Headers {
    /// Inline text arena; names and values are appended back to back.
    text: [u8; INLINE_TEXT],
    /// Bytes of `text` in use.
    text_len: u32,
    /// Overflow text for spans that did not fit `text`.
    spill_text: String,
    /// First [`INLINE_ENTRIES`] fields.
    inline: [Entry; INLINE_ENTRIES],
    /// Total number of fields (inline + spilled).
    len: usize,
    /// Fields beyond [`INLINE_ENTRIES`].
    spill: Vec<Entry>,
}

impl Default for Headers {
    fn default() -> Self {
        Headers {
            text: [0; INLINE_TEXT],
            text_len: 0,
            spill_text: String::new(),
            inline: [Entry::EMPTY; INLINE_ENTRIES],
            len: 0,
            spill: Vec::new(),
        }
    }
}

impl Headers {
    /// An empty header map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolve a span to its text. Spans always cover exactly the bytes
    /// of one pushed `&str`, so the slice is valid UTF-8 by construction.
    fn text(&self, span: Span) -> &str {
        let (buf, off) = if span.off & SPILL_TAG != 0 {
            (self.spill_text.as_bytes(), (span.off & !SPILL_TAG) as usize)
        } else {
            (&self.text[..], span.off as usize)
        };
        std::str::from_utf8(&buf[off..off + span.len as usize])
            .expect("header spans cover whole pushed strings")
    }

    /// Copy `s` into the arena — inline if it fits, spilling otherwise.
    fn push_text(&mut self, s: &str) -> Span {
        let len = u32::try_from(s.len()).expect("header field under 4 GiB");
        let off = self.text_len as usize;
        if off + s.len() <= INLINE_TEXT {
            self.text[off..off + s.len()].copy_from_slice(s.as_bytes());
            self.text_len += len;
            Span {
                off: off as u32,
                len,
            }
        } else {
            let off = self.spill_text.len() as u32;
            self.spill_text.push_str(s);
            Span {
                off: off | SPILL_TAG,
                len,
            }
        }
    }

    fn entry(&self, i: usize) -> Entry {
        if i < INLINE_ENTRIES {
            self.inline[i]
        } else {
            self.spill[i - INLINE_ENTRIES]
        }
    }

    fn set_entry(&mut self, i: usize, e: Entry) {
        if i < INLINE_ENTRIES {
            self.inline[i] = e;
        } else {
            self.spill[i - INLINE_ENTRIES] = e;
        }
    }

    fn push_entry(&mut self, e: Entry) {
        if self.len < INLINE_ENTRIES {
            self.inline[self.len] = e;
        } else {
            self.spill.push(e);
        }
        self.len += 1;
    }

    fn truncate_entries(&mut self, n: usize) {
        if n >= self.len {
            return;
        }
        self.spill.truncate(n.saturating_sub(INLINE_ENTRIES));
        self.len = n;
    }

    /// Whether any part of this map hit the heap: more than
    /// `INLINE_ENTRIES` (8) fields, or header text past `INLINE_TEXT` (1024)
    /// bytes. For append-only maps (every parsed message) this is a pure
    /// function of the field list, which is what lets the scanner's
    /// `alloc.headers.{inline,spilled}` counters stay deterministic.
    pub fn spilled(&self) -> bool {
        !self.spill.is_empty() || !self.spill_text.is_empty()
    }

    /// Append a header field, keeping any existing fields of the same name.
    pub fn append(&mut self, name: impl AsRef<str>, value: impl AsRef<str>) {
        let name = self.push_text(name.as_ref());
        let value = self.push_text(value.as_ref());
        self.push_entry(Entry { name, value });
    }

    /// Replace all fields of `name` with a single field carrying `value`.
    pub fn set(&mut self, name: &str, value: impl AsRef<str>) {
        self.remove(name);
        self.append(name, value);
    }

    /// Remove all fields of `name`, returning how many were removed.
    ///
    /// Compacts the entry table only; the removed fields' arena bytes
    /// stay behind as dead space. Header maps are tiny and short-lived,
    /// so reclaiming would cost more than it saves.
    pub fn remove(&mut self, name: &str) -> usize {
        let mut kept = 0usize;
        for i in 0..self.len {
            let e = self.entry(i);
            let matches = self.text(e.name).eq_ignore_ascii_case(name);
            if !matches {
                if kept != i {
                    self.set_entry(kept, e);
                }
                kept += 1;
            }
        }
        let removed = self.len - kept;
        self.truncate_entries(kept);
        removed
    }

    /// First value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.get_all(name).next()
    }

    /// All values of `name`, in insertion order.
    ///
    /// The lookup name has its own lifetime: the yielded values borrow
    /// from the map only, so they may outlive a temporary name.
    pub fn get_all<'a, 'n>(&'a self, name: &'n str) -> impl Iterator<Item = &'a str> + use<'a, 'n> {
        self.iter()
            .filter(move |(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// Whether a field of `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Parsed `Content-Length`, if present.
    ///
    /// Strict per RFC 9110 §8.6: every field value must be a plain ASCII
    /// decimal (optional surrounding whitespace only — no sign, no radix
    /// prefix), duplicate fields must agree, and the value must fit in
    /// `usize`. Anything else is `Error::Malformed` rather than `None`,
    /// because a length that silently degrades to read-to-close framing
    /// desynchronizes the connection (the request-smuggling shape).
    pub fn content_length(&self) -> Result<Option<usize>> {
        let mut values = self.get_all("content-length");
        let Some(first) = values.next() else {
            return Ok(None);
        };
        let n = parse_content_length(first)?;
        for other in values {
            if parse_content_length(other)? != n {
                return Err(Error::Malformed("conflicting content-length"));
            }
        }
        Ok(Some(n))
    }

    /// Whether `Transfer-Encoding: chunked` is in effect.
    pub fn is_chunked(&self) -> bool {
        self.get("transfer-encoding")
            .map(|v| {
                v.split(',')
                    .any(|t| t.trim().eq_ignore_ascii_case("chunked"))
            })
            .unwrap_or(false)
    }

    /// Whether any field of `name` carries `token` in its
    /// comma-separated token list, case-insensitively (RFC 9110 §5.6.1).
    /// `Connection: keep-alive, close` has the token `close`; a bare
    /// `Connection: close` does too.
    pub fn has_token(&self, name: &str, token: &str) -> bool {
        self.get_all(name)
            .any(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case(token)))
    }

    /// Whether the `Connection` header requests the connection be
    /// closed after this message.
    pub fn connection_close(&self) -> bool {
        self.has_token("connection", "close")
    }

    /// Whether the `Connection` header opts into keep-alive (needed by
    /// HTTP/1.0 peers, where close is the default).
    pub fn connection_keep_alive(&self) -> bool {
        self.has_token("connection", "keep-alive")
    }

    /// Number of fields (counting duplicates).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        (0..self.len).map(move |i| {
            let e = self.entry(i);
            (self.text(e.name), self.text(e.value))
        })
    }
}

/// Strictly parse one `Content-Length` field value.
fn parse_content_length(value: &str) -> Result<usize> {
    let v = value.trim();
    if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
        return Err(Error::Malformed("content-length value"));
    }
    v.parse()
        .map_err(|_| Error::Malformed("content-length overflow"))
}

impl fmt::Debug for Headers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl fmt::Display for Headers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (n, v) in self.iter() {
            writeln!(f, "{n}: {v}")?;
        }
        Ok(())
    }
}

impl PartialEq for Headers {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for Headers {}

impl<N: AsRef<str>, V: AsRef<str>> FromIterator<(N, V)> for Headers {
    fn from_iter<T: IntoIterator<Item = (N, V)>>(iter: T) -> Self {
        let mut headers = Headers::new();
        for (n, v) in iter {
            headers.append(n, v);
        }
        headers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_case_insensitive() {
        let mut h = Headers::new();
        h.append("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
        assert!(h.contains("Content-type"));
    }

    #[test]
    fn append_keeps_duplicates_set_replaces() {
        let mut h = Headers::new();
        h.append("Set-Cookie", "a=1");
        h.append("set-cookie", "b=2");
        assert_eq!(h.get_all("Set-Cookie").count(), 2);
        h.set("Set-Cookie", "c=3");
        assert_eq!(h.get_all("Set-Cookie").collect::<Vec<_>>(), vec!["c=3"]);
    }

    #[test]
    fn content_length_parsing() {
        let mut h = Headers::new();
        assert_eq!(h.content_length(), Ok(None));
        h.set("Content-Length", " 128 ");
        assert_eq!(h.content_length(), Ok(Some(128)));
        h.set("Content-Length", "nope");
        assert!(h.content_length().is_err());
    }

    #[test]
    fn content_length_rejects_smuggling_shapes() {
        // Leading sign: `usize::parse` would accept "+5", strict mode must not.
        let mut h = Headers::new();
        h.set("Content-Length", "+5");
        assert_eq!(
            h.content_length(),
            Err(Error::Malformed("content-length value"))
        );
        // Hex / radix prefixes.
        h.set("Content-Length", "0x10");
        assert!(h.content_length().is_err());
        // Embedded whitespace or comma lists.
        h.set("Content-Length", "5, 5");
        assert!(h.content_length().is_err());
        // Empty value.
        h.set("Content-Length", "");
        assert!(h.content_length().is_err());
        // Overflow past usize.
        h.set("Content-Length", "99999999999999999999999999999");
        assert_eq!(
            h.content_length(),
            Err(Error::Malformed("content-length overflow"))
        );
    }

    #[test]
    fn duplicate_content_lengths_must_agree() {
        let mut h = Headers::new();
        h.append("Content-Length", "7");
        h.append("content-length", "7");
        assert_eq!(h.content_length(), Ok(Some(7)));
        h.append("Content-Length", "8");
        assert_eq!(
            h.content_length(),
            Err(Error::Malformed("conflicting content-length"))
        );
    }

    #[test]
    fn chunked_detection_handles_lists() {
        let mut h = Headers::new();
        h.set("Transfer-Encoding", "gzip, Chunked");
        assert!(h.is_chunked());
        h.set("Transfer-Encoding", "gzip");
        assert!(!h.is_chunked());
    }

    #[test]
    fn connection_tokens_parse_as_lists() {
        let mut h = Headers::new();
        assert!(!h.connection_close());
        assert!(!h.connection_keep_alive());
        h.set("Connection", "close");
        assert!(h.connection_close());
        // The shape the old exact-match check missed.
        h.set("Connection", "keep-alive, close");
        assert!(h.connection_close());
        assert!(h.connection_keep_alive());
        h.set("Connection", "Keep-Alive");
        assert!(h.connection_keep_alive());
        assert!(!h.connection_close());
        // Token match, not substring match.
        h.set("Connection", "closed");
        assert!(!h.connection_close());
        // Duplicate Connection fields both count.
        h.append("connection", "close");
        assert!(h.connection_close());
    }

    #[test]
    fn remove_reports_count() {
        let mut h: Headers = [("X-A", "1"), ("x-a", "2"), ("X-B", "3")]
            .into_iter()
            .collect();
        assert_eq!(h.remove("X-A"), 2);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn typical_responses_stay_inline() {
        let mut h = Headers::new();
        for i in 0..INLINE_ENTRIES {
            h.append(format!("X-Header-{i}"), "value");
        }
        assert_eq!(h.len(), INLINE_ENTRIES);
        assert!(!h.spilled(), "≤ 8 small fields must not hit the heap");
        h.append("X-One-More", "spills");
        assert!(h.spilled());
        assert_eq!(h.get("x-one-more"), Some("spills"));
    }

    #[test]
    fn oversized_text_spills_but_reads_back() {
        let long = "v".repeat(INLINE_TEXT);
        let mut h = Headers::new();
        h.append("X-Big", &long);
        assert!(h.spilled(), "text past the inline arena spills");
        assert_eq!(h.get("X-Big"), Some(long.as_str()));
        // Later small fields still work (and land wherever there's room).
        h.append("X-Small", "s");
        assert_eq!(h.get("x-small"), Some("s"));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn entry_spill_survives_remove_compaction() {
        let mut h = Headers::new();
        for i in 0..12 {
            h.append(format!("X-{i}"), format!("{i}"));
        }
        assert_eq!(h.remove("X-3"), 1);
        assert_eq!(h.len(), 11);
        // Every surviving field is still addressable, across the
        // inline/spill boundary the compaction shifted entries over.
        for i in (0..12).filter(|&i| i != 3) {
            assert_eq!(
                h.get(&format!("x-{i}")),
                Some(format!("{i}").as_str()),
                "X-{i}"
            );
        }
        assert!(h.get("X-3").is_none());
    }

    #[test]
    fn equality_is_logical_not_representational() {
        // h1: built append-only. h2: same logical fields, but its arena
        // carries dead bytes from a removed field.
        let h1: Headers = [("A", "1"), ("B", "2")].into_iter().collect();
        let mut h2 = Headers::new();
        h2.append("A", "1");
        h2.append("Dead", "x");
        h2.append("B", "2");
        h2.remove("Dead");
        assert_eq!(h1, h2);
        assert_eq!(format!("{h1:?}"), format!("{h2:?}"));
    }

    #[test]
    fn lookup_name_may_be_dropped_before_the_value_is_used() {
        let mut h = Headers::new();
        h.append("Content-Type", "text/html");
        let value = {
            let name = String::from("content-") + "type";
            h.get(&name)
        };
        assert_eq!(value, Some("text/html"));
    }
}
