//! Tiny HTML checks used by detection plugins ("check that body is valid
//! HTML", "verify that element `form#createItem` exists").

/// Whether the body looks like an HTML document: has an opening `<html`
/// and a closing `</html>` tag in order.
pub fn is_valid_html(body: &str) -> bool {
    match (body.find("<html"), body.rfind("</html>")) {
        (Some(open), Some(close)) => open < close,
        _ => false,
    }
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
    let mut pos = 0usize;
    while let Some(found) = body[pos..].find('<') {
        pos += found + 1;
        let Some(rest) = body[pos..].strip_prefix(tag) else {
            continue;
        };
        // The character after the tag name must end the name.
        if !rest.starts_with(|c: char| c.is_whitespace() || c == '>' || c == '/') {
            continue;
        }
        let tag_text = rest.find('>').map_or(rest, |end| &rest[..end]);
        let has_id = tag_text.match_indices("id=").any(|(at, attr)| {
            let value = &tag_text[at + attr.len()..];
            ['"', '\''].into_iter().any(|quote| {
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

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn malformed_selector_is_false() {
        assert!(!has_element(PAGE, "justatag"));
    }
}
