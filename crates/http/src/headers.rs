//! Case-insensitive, order-preserving header map.
//!
//! Storage is two buffers: every field's name and value are appended to
//! one `String`, and a `Vec` of byte offsets says where each field's name
//! ends and its value starts and ends. A map costs two growable
//! allocations however many fields it holds, and there is one code path
//! for every size.

use crate::error::{Error, Result};
use std::fmt;

/// One header field: its name is `text[start..mid]`, its value
/// `text[mid..end]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Field {
    start: u32,
    mid: u32,
    end: u32,
}

/// An ordered multimap of HTTP header fields.
///
/// Lookup is case-insensitive (per RFC 9110) while the original casing and
/// insertion order are preserved for serialization, which keeps wire output
/// stable and therefore testable.
///
/// `text` always holds exactly the live fields back to back, in order —
/// [`remove`](Headers::remove) closes the gap it leaves — so two maps
/// with the same `(name, value)` sequence have the same buffers, and the
/// derived equality is the logical one.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Headers {
    /// Names and values, appended back to back.
    text: String,
    /// Where each field lies in `text`, in insertion order.
    fields: Vec<Field>,
}

impl Headers {
    /// An empty header map.
    pub fn new() -> Self {
        Self::default()
    }

    fn name(&self, f: Field) -> &str {
        &self.text[f.start as usize..f.mid as usize]
    }

    fn value(&self, f: Field) -> &str {
        &self.text[f.mid as usize..f.end as usize]
    }

    /// Where the next appended text will start.
    fn text_end(&self) -> u32 {
        u32::try_from(self.text.len()).expect("header text under 4 GiB")
    }

    /// Append a header field, keeping any existing fields of the same name.
    pub fn append(&mut self, name: impl AsRef<str>, value: impl AsRef<str>) {
        let start = self.text_end();
        self.text.push_str(name.as_ref());
        let mid = self.text_end();
        self.text.push_str(value.as_ref());
        let end = self.text_end();
        self.fields.push(Field { start, mid, end });
    }

    /// Replace all fields of `name` with a single field carrying `value`.
    pub fn set(&mut self, name: &str, value: impl AsRef<str>) {
        self.remove(name);
        self.append(name, value);
    }

    /// Remove all fields of `name`, returning how many were removed.
    /// The text of each removed field is cut out, and later fields move
    /// down to fill the gap.
    pub fn remove(&mut self, name: &str) -> usize {
        let before = self.fields.len();
        let text = &mut self.text;
        let mut cut = 0;
        self.fields.retain_mut(|f| {
            f.start -= cut;
            f.mid -= cut;
            f.end -= cut;
            let (start, mid, end) = (f.start as usize, f.mid as usize, f.end as usize);
            if !text[start..mid].eq_ignore_ascii_case(name) {
                return true;
            }
            text.replace_range(start..end, "");
            cut += f.end - f.start;
            false
        });
        before - self.fields.len()
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
        self.fields.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterate over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.fields.iter().map(|&f| (self.name(f), self.value(f)))
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
    fn a_header_map_is_two_buffers() {
        assert!(std::mem::size_of::<Headers>() <= 2 * std::mem::size_of::<Vec<u8>>());
    }

    #[test]
    fn multi_byte_and_long_text_reads_back() {
        let long = "v".repeat(1500);
        let mut h = Headers::new();
        h.append("X-Big", &long);
        h.append("X-Grüße", "naïve — ✓");
        h.append("X-Small", "s");
        assert_eq!(h.get("X-Big"), Some(long.as_str()));
        assert_eq!(h.get("x-grüße"), Some("naïve — ✓"));
        assert_eq!(h.get("x-small"), Some("s"));
        assert_eq!(h.len(), 3);
        // Removing the multi-byte field shifts the later one by whole
        // characters, not into the middle of one.
        assert_eq!(h.remove("X-Grüße"), 1);
        assert_eq!(h.get("x-small"), Some("s"));
        assert_eq!(h.get("X-Big"), Some(long.as_str()));
    }

    #[test]
    fn set_after_remove_leaves_no_stale_field() {
        let mut h: Headers = [
            ("A", "1"),
            ("Server", "old"),
            ("B", "2"),
            ("server", "older"),
        ]
        .into_iter()
        .collect();
        assert_eq!(h.remove("SERVER"), 2);
        h.set("Server", "new");
        assert_eq!(h.get_all("server").collect::<Vec<_>>(), ["new"]);
        assert_eq!(
            h.iter().collect::<Vec<_>>(),
            [("A", "1"), ("B", "2"), ("Server", "new")]
        );
        assert_eq!(h.to_string(), "A: 1\nB: 2\nServer: new\n");
    }

    #[test]
    fn entry_spill_survives_remove_compaction() {
        let mut h = Headers::new();
        for i in 0..12 {
            h.append(format!("X-{i}"), format!("{i}"));
        }
        assert_eq!(h.remove("X-3"), 1);
        assert_eq!(h.len(), 11);
        // Every surviving field is still addressable after the fields
        // behind the removed one moved down.
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
        // h1: built append-only. h2: same logical fields, reached by
        // removing one from the middle.
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
