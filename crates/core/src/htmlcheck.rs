//! Tiny HTML checks used by detection plugins ("check that body is valid
//! HTML", "verify that element `form#createItem` exists").
//!
//! The grammar is the one the paper's plugins need, not HTML's. Tag
//! names and ids compare case-sensitively. The first `>` after `<tag`
//! ends the tag's text. An id matches only as the whole value between
//! quotes of one kind (`id="x"` or `id='x'`, never `id=x`), and `id=`
//! must begin an attribute: the byte before it is ASCII whitespace, so
//! `data-id="x"` is not an id.
//!
//! Both checks find a tag by its first two bytes, `<` and the next one,
//! testing sixteen positions at a step; only a position where both match
//! is compared further.

/// Positions one step of the pair search tests.
const BLOCK: usize = 16;

/// Whether the body looks like an HTML document: has an opening `<html`
/// and a closing `</html>` tag in order.
pub fn is_valid_html(body: &str) -> bool {
    let body = body.as_bytes();
    first_tag(body, b"<html").is_some_and(|open| last_tag(&body[open..], b"</html>").is_some())
}

/// Check for an element selector of the form `tag#id` (the only selector
/// shape the paper's plugins use), e.g. `form#createItem` or
/// `form#setup input#pass1` (descendant combinator).
pub fn has_element(body: &str, selector: &str) -> bool {
    let mut search_from = 0usize;
    for part in selector.split_whitespace() {
        let Some((tag, id)) = part.split_once('#') else {
            return false;
        };
        match find_tag_with_id(&body[search_from..], tag, id) {
            Some(offset) => search_from += offset,
            None => return false,
        }
    }
    true
}

/// Find `<tag ... id="id" ...>` in `body`; returns the offset just past
/// the opening `<tag`. Compares in place: nothing is allocated.
fn find_tag_with_id(body: &str, tag: &str, id: &str) -> Option<usize> {
    let bytes = body.as_bytes();
    let mut pos = 0usize;
    loop {
        let found = match tag.as_bytes().first() {
            Some(&first) => find_pair(&bytes[pos..], first)?,
            None => bytes[pos..].iter().position(|&b| b == b'<')?,
        };
        pos += found + 1;
        let Some(rest) = body[pos..].strip_prefix(tag) else {
            continue;
        };
        // The character after the tag name must end the name.
        if !rest.starts_with(|c: char| c.is_whitespace() || c == '>' || c == '/') {
            continue;
        }
        let text = rest.as_bytes();
        let text = &text[..text.iter().position(|&b| b == b'>').unwrap_or(text.len())];
        if has_id(text, id.as_bytes()) {
            return Some(pos + tag.len());
        }
    }
}

/// Whether a tag's text has an attribute `id=` whose quoted value is `id`.
fn has_id(text: &[u8], id: &[u8]) -> bool {
    text.windows(4).enumerate().any(|(at, w)| {
        w[0].is_ascii_whitespace() && &w[1..] == b"id=" && quotes(&text[at + 4..], id)
    })
}

/// Whether `value` is `id` between quotes of one kind, then anything.
fn quotes(value: &[u8], id: &[u8]) -> bool {
    match value.split_first() {
        Some((&quote, rest)) if quote == b'"' || quote == b'\'' => rest
            .strip_prefix(id)
            .is_some_and(|rest| rest.first() == Some(&quote)),
        _ => false,
    }
}

/// The first position of `tag` (`<` and at least one more byte) in `body`.
fn first_tag(body: &[u8], tag: &[u8]) -> Option<usize> {
    let mut from = 0;
    loop {
        let at = from + find_pair(&body[from..], tag[1])?;
        if body[at..].starts_with(tag) {
            return Some(at);
        }
        from = at + 1;
    }
}

/// The last position of `tag` (`<` and at least one more byte) in `body`.
fn last_tag(body: &[u8], tag: &[u8]) -> Option<usize> {
    let mut end = body.len();
    loop {
        let at = rfind_pair(&body[..end], tag[1])?;
        if body[at..].starts_with(tag) {
            return Some(at);
        }
        end = at + 1;
    }
}

/// The first `i` with `hay[i] == b'<'` and `hay[i + 1] == next`.
///
/// A `memchr` for every `<` costs a call per tag, and a page is mostly
/// tags; testing the pair skips every tag but the wanted kind. Whole
/// blocks are tested branch-free, then the block that hit (or the short
/// tail) is searched a byte at a time. That search indexes `hay`: with a
/// `windows(2)` search there, the compiler built each block's first
/// vector out of the second with shifts instead of loading it.
fn find_pair(hay: &[u8], next: u8) -> Option<usize> {
    let mut start = 0;
    while let Some(window) = hay[start..].first_chunk() {
        if block_has_pair(window, next) {
            break;
        }
        start += BLOCK;
    }
    (start..hay.len().saturating_sub(1)).find(|&i| hay[i] == b'<' && hay[i + 1] == next)
}

/// The last `i` with `hay[i] == b'<'` and `hay[i + 1] == next`; blocks
/// are tested from the end, as in [`find_pair`].
fn rfind_pair(hay: &[u8], next: u8) -> Option<usize> {
    let mut end = hay.len();
    while let Some(window) = hay[..end].last_chunk() {
        if block_has_pair(window, next) {
            break;
        }
        end -= BLOCK;
    }
    (0..end.saturating_sub(1))
        .rev()
        .find(|&i| hay[i] == b'<' && hay[i + 1] == next)
}

/// Whether one of the block's sixteen positions starts `<` `next`. The
/// fixed width and the absence of branches let the compiler test all
/// sixteen with a few vector compares.
fn block_has_pair(window: &[u8; BLOCK + 1], next: u8) -> bool {
    let mut any = 0u8;
    for j in 0..BLOCK {
        any |= u8::from(window[j] == b'<') & u8::from(window[j + 1] == next);
    }
    any != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use nokeys_http::cases::check;

    /// The string-search reference for [`is_valid_html`].
    fn is_valid_html_twin(body: &str) -> bool {
        match (body.find("<html"), body.rfind("</html>")) {
            (Some(open), Some(close)) => open < close,
            _ => false,
        }
    }

    /// The string-search reference for [`has_element`].
    fn has_element_twin(body: &str, selector: &str) -> bool {
        let mut search_from = 0usize;
        for part in selector.split_whitespace() {
            let Some((tag, id)) = part.split_once('#') else {
                return false;
            };
            match find_tag_with_id_twin(&body[search_from..], tag, id) {
                Some(offset) => search_from += offset,
                None => return false,
            }
        }
        true
    }

    /// Visits every `<`; finds `>` and `id=` with `str` searches.
    fn find_tag_with_id_twin(body: &str, tag: &str, id: &str) -> Option<usize> {
        let mut pos = 0usize;
        while let Some(found) = body[pos..].find('<') {
            pos += found + 1;
            let Some(rest) = body[pos..].strip_prefix(tag) else {
                continue;
            };
            if !rest.starts_with(|c: char| c.is_whitespace() || c == '>' || c == '/') {
                continue;
            }
            let tag_text = rest.find('>').map_or(rest, |end| &rest[..end]);
            let has_id = tag_text.match_indices("id=").any(|(at, attr)| {
                let value = &tag_text[at + attr.len()..];
                tag_text[..at].ends_with(|c: char| c.is_ascii_whitespace())
                    && ['"', '\''].into_iter().any(|quote| {
                        value
                            .strip_prefix(quote)
                            .and_then(|value| value.strip_prefix(id))
                            .is_some_and(|rest| rest.starts_with(quote))
                    })
            });
            if has_id {
                return Some(pos + tag.len());
            }
        }
        None
    }

    /// Every `i` with `hay[i] == b'<'` and `hay[i + 1] == next`.
    fn pairs(hay: &[u8], next: u8) -> Vec<usize> {
        (0..hay.len().saturating_sub(1))
            .filter(|&i| hay[i] == b'<' && hay[i + 1] == next)
            .collect()
    }

    const PAGE: &str = r#"<!DOCTYPE html><html><body>
        <form id="setup" method="post">
            <input type="password" id="pass1" name="admin_password">
        </form>
        <form id="createItem" action="/createItem"></form>
    </body></html>"#;

    #[test]
    fn valid_html_detection() {
        assert!(is_valid_html(PAGE));
        assert!(!is_valid_html("{\"json\":true}"));
        assert!(!is_valid_html("</html> before <html"));
        assert!(!is_valid_html(""));
    }

    #[test]
    fn single_selector() {
        assert!(has_element(PAGE, "form#setup"));
        assert!(has_element(PAGE, "form#createItem"));
        assert!(!has_element(PAGE, "form#login"));
        assert!(!has_element(PAGE, "div#setup"));
    }

    #[test]
    fn descendant_selector() {
        assert!(has_element(PAGE, "form#setup input#pass1"));
        // pass1 exists but not under (after) createItem.
        assert!(!has_element(PAGE, "form#createItem input#pass1"));
    }

    #[test]
    fn tag_name_boundaries_respected() {
        // `<formula id="setup">` must not match `form#setup`.
        let tricky = "<html><formula id=\"setup\"></formula></html>";
        assert!(!has_element(tricky, "form#setup"));
    }

    #[test]
    fn single_quoted_ids_match() {
        let page = "<html><form id='x'></form></html>";
        assert!(has_element(page, "form#x"));
    }

    #[test]
    fn an_id_is_matched_whole_and_between_quotes_of_one_kind() {
        let single = "<html><form class='wide' id='login' method=post></form></html>";
        assert!(has_element(single, "form#login"));
        // A longer id that starts with the wanted one is another id.
        let longer = "<html><form id=\"login2\"></form><form id='login2'></form></html>";
        assert!(!has_element(longer, "form#login"));
        assert!(has_element(longer, "form#login2"));
        let mixed = "<html><form id=\"login'></form><form id=login></form></html>";
        assert!(!has_element(mixed, "form#login"));
        // `id=` must begin an attribute: these attributes end in `id`.
        for attribute in ["data-id=\"login\"", "valid=\"login\"", "grid='login'"] {
            let page = format!("<html><form {attribute}></form></html>");
            assert!(!has_element(&page, "form#login"), "{page}");
            assert!(!has_element_twin(&page, "form#login"), "{page}");
        }
        assert!(has_element("<form\tid=\"login\">", "form#login"));
        assert!(has_element("<form\nid='login'>", "form#login"));
    }

    #[test]
    fn malformed_selector_is_false() {
        assert!(!has_element(PAGE, "justatag"));
    }

    /// Each tag, and a decoy, at every offset of a three-block body of
    /// near misses (`<h`, `</`, `<f` pairs that start no wanted tag), so
    /// each crosses every block edge and touches the body's start and end.
    #[test]
    fn tags_are_found_at_every_offset_of_three_blocks() {
        const LEN: usize = 3 * BLOCK;
        let filler: Vec<u8> = b"<h</<f. ".iter().copied().cycle().take(LEN).collect();
        let tags: [&[u8]; 4] = [
            b"<html",
            b"</html>",
            b"<form id=\"login\">",
            b"<formula id=\"login\">",
        ];
        for tag in tags {
            for at in 0..=LEN - tag.len() {
                let mut body = filler.clone();
                body[at..at + tag.len()].copy_from_slice(tag);
                let text = std::str::from_utf8(&body).expect("ASCII");
                match tag {
                    b"<html" => assert_eq!(first_tag(&body, tag), Some(at), "{text}"),
                    b"</html>" => assert_eq!(last_tag(&body, tag), Some(at), "{text}"),
                    b"<form id=\"login\">" => assert!(has_element(text, "form#login"), "{text}"),
                    _ => assert!(!has_element(text, "form#login"), "{text}"),
                }
                assert_eq!(is_valid_html(text), is_valid_html_twin(text), "{text}");
                for next in [b'h', b'/', b'f'] {
                    let all = pairs(&body, next);
                    assert_eq!(find_pair(&body, next), all.first().copied(), "{text}");
                    assert_eq!(rfind_pair(&body, next), all.last().copied(), "{text}");
                }
            }
        }
    }

    #[test]
    fn short_and_empty_bodies_and_multi_byte_characters() {
        for body in [
            "",
            "<",
            "<h",
            "x<",
            "<html",
            "</html>",
            "<form",
            "<form id=\"login\"",
        ] {
            assert_eq!(is_valid_html(body), is_valid_html_twin(body), "{body:?}");
            assert_eq!(
                has_element(body, "form#login"),
                has_element_twin(body, "form#login")
            );
        }
        assert!(is_valid_html("<html></html>"));
        assert!(has_element("<form id='login'>", "form#login"));
        // An empty tag name stops at every `<`.
        assert!(has_element("<form>é< id='login'>", "#login"));
        // An unclosed tag's text runs to the end of the body.
        assert!(has_element("<form id=\"login\"", "form#login"));
        // `<` right after a multi-byte character, at every offset of the
        // first blocks.
        for count in 0..2 * BLOCK {
            for wide in ["é", "—"] {
                let prefix = wide.repeat(count);
                let page = format!("{prefix}<html>{prefix}<form id=\"login\">{wide}</html>");
                assert!(is_valid_html(&page), "{page}");
                assert!(has_element(&page, "form#login"), "{page}");
            }
        }
    }

    /// On random tag soup both checks answer as their string-search
    /// twins do, and the pair searches find what a byte scan finds.
    #[test]
    fn checks_agree_with_their_twins_on_tag_soup() {
        const PIECES: &[&str] = &[
            "<",
            ">",
            "/",
            " ",
            "\t",
            "x",
            "=",
            "\"",
            "'",
            "é",
            "—",
            "html",
            "<html",
            "</html>",
            "</",
            "<h",
            "form",
            "<form",
            "<formula",
            "<f",
            "input",
            "<input",
            "id=",
            " id=",
            "data-id=",
            " id=\"login\"",
            " id='pass1'",
            "login",
            "pass1",
            "\"login\"",
            "'login'",
            "'pass1'",
        ];
        const SELECTORS: &[&str] = &[
            "form#login",
            "form#pass1",
            "input#pass1",
            "form#login input#pass1",
            "formula#login",
            "#login",
            "html#login",
            "form",
        ];
        check(2000, |g| {
            let body: String = g.vec(0..60, |g| *g.pick(PIECES)).concat();
            assert_eq!(is_valid_html(&body), is_valid_html_twin(&body), "{body:?}");
            for selector in SELECTORS {
                assert_eq!(
                    has_element(&body, selector),
                    has_element_twin(&body, selector),
                    "{body:?} {selector}"
                );
            }
            for next in [b'h', b'/', b'f', b'i'] {
                let all = pairs(body.as_bytes(), next);
                assert_eq!(find_pair(body.as_bytes(), next), all.first().copied());
                assert_eq!(rfind_pair(body.as_bytes(), next), all.last().copied());
            }
        });
    }
}
