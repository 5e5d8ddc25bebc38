//! HTTP request message.

use crate::headers::Headers;
use crate::method::Method;
use crate::version::Version;

/// An HTTP/1.x request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: Method,
    /// Origin-form target: path plus optional query, e.g. `/api/v1/pods`.
    pub target: String,
    /// Protocol version from the request line; constructed requests are
    /// HTTP/1.1. The server loop uses it to decide whether the
    /// connection persists after the response.
    pub version: Version,
    pub headers: Headers,
    pub body: Vec<u8>,
}

impl Request {
    /// A bodyless `GET` for `target`.
    pub fn get(target: impl Into<String>) -> Self {
        Request {
            method: Method::Get,
            target: normalize_target(target.into()),
            version: Version::default(),
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// A `POST` carrying `body`.
    pub fn post(target: impl Into<String>, body: impl Into<Vec<u8>>) -> Self {
        Request {
            method: Method::Post,
            target: normalize_target(target.into()),
            version: Version::default(),
            headers: Headers::new(),
            body: body.into(),
        }
    }

    /// Builder-style header addition.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.set(name, value);
        self
    }

    /// Path component of the target (no query string).
    pub fn path(&self) -> &str {
        match self.target.find('?') {
            Some(idx) => &self.target[..idx],
            None => &self.target,
        }
    }

    /// Query string without the `?`, if present.
    pub fn query(&self) -> Option<&str> {
        self.target.find('?').map(|idx| &self.target[idx + 1..])
    }

    /// Value of a single query parameter, percent-decoding not applied
    /// (scan targets never need it).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        param(self.query()?, key)
    }

    /// Value of a single field of a form-encoded body (lossy UTF-8),
    /// read like [`query_param`](Self::query_param).
    pub fn form_param(&self, key: &str) -> Option<String> {
        param(&String::from_utf8_lossy(&self.body), key).map(str::to_string)
    }

    /// Body interpreted as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// The value of `key` in `a=1&b=2` pairs: each pair is split at its
/// first `=`, and a pair without one is skipped.
fn param<'a>(pairs: &'a str, key: &str) -> Option<&'a str> {
    pairs
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

fn normalize_target(t: String) -> String {
    if t.is_empty() {
        "/".to_string()
    } else if !t.starts_with('/') {
        format!("/{t}")
    } else {
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_normalizes_target() {
        assert_eq!(Request::get("").target, "/");
        assert_eq!(Request::get("x").target, "/x");
        assert_eq!(Request::get("/x").target, "/x");
    }

    #[test]
    fn path_and_query_split() {
        let r = Request::get("/install.php?step=1&lang=en");
        assert_eq!(r.path(), "/install.php");
        assert_eq!(r.query(), Some("step=1&lang=en"));
        assert_eq!(r.query_param("step"), Some("1"));
        assert_eq!(r.query_param("lang"), Some("en"));
        assert_eq!(r.query_param("missing"), None);
    }

    /// The rows are the bodies the models' form readers have to handle.
    #[test]
    fn form_param_reads_one_field() {
        let rows: &[(&str, &str, Option<&str>)] = &[
            ("user_name=evil&admin_password=x", "user_name", Some("evil")),
            ("admin_password=x&user_name=evil", "user_name", Some("evil")),
            ("admin_password=x", "user_name", None),
            ("", "user_name", None),
            ("{}", "query", None),
            ("query", "query", None),
            ("query=", "query", Some("")),
            ("query=a=b&c", "query", Some("a=b")),
            ("sql_query=SELECT 1", "query", None),
            ("query=1&query=2", "query", Some("1")),
            ("SELECT * FROM users", "sql_query", None),
        ];
        for &(body, key, want) in rows {
            let req = Request::post("/", body);
            assert_eq!(req.form_param(key).as_deref(), want, "{body:?} {key}");
        }
        let req = Request::post("/", b"user=a\xffb".to_vec());
        assert_eq!(req.form_param("user").as_deref(), Some("a\u{fffd}b"));
    }

    #[test]
    fn post_has_body() {
        let r = Request::post("/exec", "whoami");
        assert_eq!(r.method, Method::Post);
        assert_eq!(r.body_text(), "whoami");
    }

    #[test]
    fn with_header_sets() {
        let r = Request::get("/")
            .with_header("Host", "a")
            .with_header("host", "b");
        assert_eq!(r.headers.get("HOST"), Some("b"));
        assert_eq!(r.headers.len(), 1);
    }
}
