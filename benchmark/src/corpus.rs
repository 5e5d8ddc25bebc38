//! Seeded inputs with planted ground truth.
//!
//! Sizes, kinds and hit counts are laid out on fixed ladders by item index
//! and only then shuffled, so every seed gives the same number of items,
//! bytes and hits: what varies with the seed is content, placement and
//! order. A run on another seed then measures the same amount of work.

use crate::program::{self, AppId, Fold, Needle, Version};
use crate::rng::SplitMix64;
use std::time::Instant;

/// How many items each workload's corpus holds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub wild: usize,
    pub tiny: usize,
    pub awe: usize,
    /// /16 parents of `space_plan`; 65,536 is the whole IPv4 space.
    pub space_parents: usize,
}

impl Sizes {
    /// The sizes every reported number is measured at. `wild` is a fifth
    /// of the 20 k bodies ISSUE 11 sketched: a pass over 47 MB takes about
    /// half a second, and the driver's run must fit fifteen of them.
    pub const FULL: Sizes = Sizes {
        wild: 4_000,
        tiny: 200_000,
        awe: 20_000,
        space_parents: 65_536,
    };
}

/// One in fifty items carries a needle, and the hits walk through every
/// residue so they spread over the kind and size ladders.
fn is_hit(index: usize) -> bool {
    index % 50 == (index / 50) % 50
}

/// FNV-1a over everything the program is given; the benchmark's own copy,
/// because `apps::assets::fnv1a` is measured code.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Item separator, so ["ab", "c"] and ["a", "bc"] differ.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

// ------------------------------------------------------------------ filler

/// Filler vocabulary. No word, and no run of words with the whitespace
/// squeezed out, contains a signature needle; the oracle's
/// "no candidates on marker-free bodies" check would catch one that did.
const WORDS: [&str; 48] = [
    "lorem",
    "ipsum",
    "dolor",
    "sit",
    "amet",
    "consectetur",
    "adipiscing",
    "elit",
    "sed",
    "do",
    "eiusmod",
    "tempor",
    "incididunt",
    "ut",
    "labore",
    "et",
    "dolore",
    "magna",
    "aliqua",
    "enim",
    "ad",
    "minim",
    "veniam",
    "quis",
    "nostrud",
    "exercitation",
    "ullamco",
    "laboris",
    "nisi",
    "aliquip",
    "ex",
    "ea",
    "commodo",
    "consequat",
    "duis",
    "aute",
    "irure",
    "in",
    "reprehenderit",
    "voluptate",
    "velit",
    "esse",
    "cillum",
    "eu",
    "fugiat",
    "nulla",
    "pariatur",
    "excepteur",
];

/// Append one word, capitalised once in four when `upper`.
fn push_word(out: &mut String, rng: &mut SplitMix64, upper: bool) {
    let word = WORDS[rng.below(WORDS.len())];
    if upper && rng.one_in(4) {
        out.push(word.as_bytes()[0].to_ascii_uppercase() as char);
        out.push_str(&word[1..]);
    } else {
        out.push_str(word);
    }
}

/// Exactly `len` bytes of space-separated words.
fn words(rng: &mut SplitMix64, len: usize, upper: bool) -> String {
    let mut out = String::with_capacity(len + 16);
    while out.len() < len {
        if !out.is_empty() {
            out.push(' ');
        }
        push_word(&mut out, rng, upper);
    }
    out.truncate(len);
    out
}

const HTML_FOOT: &str = "</body>\n</html>\n";

/// An HTML document of exactly `len` bytes: paragraphs of filler words in
/// the occasional `<div>`. With `upper` it has capitals (and needs a
/// lowered view); without, it has none.
fn html_document(rng: &mut SplitMix64, len: usize, upper: bool) -> String {
    let mut out = String::with_capacity(len + 64);
    out.push_str(if upper {
        "<!DOCTYPE html>\n"
    } else {
        "<!doctype html>\n"
    });
    out.push_str("<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n<title>");
    for _ in 0..3 {
        push_word(&mut out, rng, upper);
        out.push(' ');
    }
    out.push_str("</title>\n</head>\n<body>\n");
    let content_end = len.saturating_sub(HTML_FOOT.len());
    while out.len() < content_end {
        let in_div = rng.one_in(4);
        if in_div {
            out.push_str("<div class=\"s");
            out.push((b'0' + rng.below(10) as u8) as char);
            out.push_str("\">\n");
        }
        out.push_str("<p>");
        for i in 0..8 + rng.below(13) {
            if i > 0 {
                out.push(' ');
            }
            push_word(&mut out, rng, upper);
        }
        out.push_str("</p>\n");
        if in_div {
            out.push_str("</div>\n");
        }
    }
    out.truncate(content_end);
    out.push_str(HTML_FOOT);
    out
}

/// Where generated documents start to be free-form (past the `<head>`).
const HTML_HEAD_LEN: usize = 96;

/// `needle` as it might appear in the wild: case-folded needles get
/// capitals (when the body may have them), whitespace-folded ones get
/// whitespace inside.
fn disguise(needle: &Needle, rng: &mut SplitMix64, upper: bool) -> String {
    match needle.fold {
        Fold::Exact => needle.text.to_string(),
        Fold::Case if upper => needle
            .text
            .chars()
            .map(|c| {
                if rng.one_in(2) {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect(),
        Fold::Case => needle.text.to_string(),
        Fold::Whitespace => {
            let mut out = String::with_capacity(needle.text.len() + 3);
            for (i, c) in needle.text.chars().enumerate() {
                if i > 0 && rng.one_in(4) {
                    out.push([' ', '\n', '\t'][rng.below(3)]);
                }
                out.push(c);
            }
            out
        }
    }
}

// ------------------------------------------------------------------ bodies

/// One response body and what the generator planted in it.
#[derive(Debug, Clone)]
pub struct Body {
    pub text: String,
    /// Applications whose needle the body carries; empty for marker-free.
    pub planted: Vec<AppId>,
}

/// A corpus of bodies for `classify`.
pub struct Bodies {
    pub items: Vec<Body>,
    pub bytes: u64,
    pub digest: u64,
    pub gen_s: f64,
}

impl Bodies {
    fn finish(mut items: Vec<Body>, rng: &mut SplitMix64, started: Instant) -> Self {
        rng.shuffle(&mut items);
        let mut digest = Digest::new();
        let mut bytes = 0;
        for body in &items {
            digest.feed(body.text.as_bytes());
            bytes += body.text.len() as u64;
        }
        Bodies {
            items,
            bytes,
            digest: digest.value(),
            gen_s: started.elapsed().as_secs_f64(),
        }
    }
}

pub const WILD_MIN: usize = 256;
pub const WILD_MAX: usize = 64 * 1024;

/// `wild_mix`: HTML bodies, sizes on a log-uniform ladder from 256 B to
/// 64 KiB, every second one with capitals, all with whitespace, one in
/// fifty with one needle.
pub fn wild_mix(seed: u64, count: usize) -> Bodies {
    let started = Instant::now();
    let mut rng = SplitMix64::new(seed, 1);
    let needles = program::needles();
    let ratio = (WILD_MAX / WILD_MIN) as f64;
    let items = (0..count)
        .map(|i| {
            let len = WILD_MIN as f64 * ratio.powf((i as f64 + 0.5) / count as f64);
            let upper = i % 2 == 1;
            let mut text = html_document(&mut rng, len.round() as usize, upper);
            let mut planted = Vec::new();
            if is_hit(i) {
                let needle = &needles[rng.below(needles.len())];
                let disguised = format!(" {} ", disguise(needle, &mut rng, upper));
                // Overwrite in place so the body keeps its size.
                let room = text.len() - HTML_FOOT.len() - HTML_HEAD_LEN - disguised.len();
                let at = HTML_HEAD_LEN + rng.below(room);
                text.replace_range(at..at + disguised.len(), &disguised);
                planted.push(needle.app);
            }
            Body { text, planted }
        })
        .collect();
    Bodies::finish(items, &mut rng, started)
}

/// Longest random token in a tiny body.
const TOKEN_MAX: usize = 32;
pub const TINY_MAX: usize = 256;

fn hex_token(rng: &mut SplitMix64, len: usize) -> String {
    (0..len)
        .map(|_| b"0123456789abcdef"[rng.below(16)] as char)
        .collect()
}

/// `tiny_bodies`: what most of the Internet answers with. One in ten
/// empty, the rest evenly redirect stubs, 401 pages and lowercase
/// whitespace-free JSON error envelopes (which need no view at all), with
/// a random token of 0–32 characters; one in fifty with one needle.
pub fn tiny_bodies(seed: u64, count: usize) -> Bodies {
    let started = Instant::now();
    let mut rng = SplitMix64::new(seed, 2);
    let needles = program::needles();
    let items = (0..count)
        .map(|i| {
            let token = hex_token(&mut rng, (i / 10) % (TOKEN_MAX + 1));
            let mut planted = Vec::new();
            let mark = if is_hit(i) {
                let needle = &needles[rng.below(needles.len())];
                planted.push(needle.app);
                disguise(needle, &mut rng, true)
            } else {
                String::new()
            };
            let text = match i % 10 {
                0 => mark,
                1..=3 => format!(
                    "<html><head><title>302 Found</title></head><body><h1>Found</h1>\
                     <p>The document has moved <a href=\"/login?next=%2F{token}\">here</a>\
                     {mark}</p></body></html>"
                ),
                4..=6 => format!(
                    "<html>\n<head><title>401 Authorization Required</title></head>\n<body>\n\
                     <center><h1>401 Authorization Required</h1></center>\n\
                     <hr><center>nginx {token}</center>\n{mark}</body>\n</html>\n"
                ),
                _ => format!(
                    "{{\"error\":\"unauthorized\",\"status\":401,\
                     \"request_id\":\"{token}\",\"detail\":\"{mark}\"}}"
                ),
            };
            assert!(text.len() <= TINY_MAX, "tiny body of {} B", text.len());
            Body { text, planted }
        })
        .collect();
    Bodies::finish(items, &mut rng, started)
}

// ------------------------------------------------------------------- hosts

/// One AWE host as the scanner finds it, and the truth about it.
#[derive(Debug, Clone)]
pub struct Host {
    pub page: String,
    /// The four crawled static files, in crawl order.
    pub assets: [String; 4],
    /// The host's application first, then the second one whose needle the
    /// page also carries, if any.
    pub planted: Vec<AppId>,
    pub version: Version,
    pub has_login: bool,
}

/// A corpus of hosts for `verify`.
pub struct Hosts {
    pub items: Vec<Host>,
    pub bytes: u64,
    pub asset_bytes: u64,
    pub digest: u64,
    pub gen_s: f64,
    /// Mean time of the generator's `release_history` calls.
    pub history_ns_per_call: f64,
    /// Mean time of the generator's `asset_content` calls.
    pub content_ns_per_call: f64,
}

pub const AWE_PAGE_LEN: usize = 1024;

/// `awe_verify`: hosts laid out evenly over the in-scope applications and
/// their release histories. Each serves a 1 KiB page — a login wall for
/// every second one — with one to five of its application's needles and,
/// one time in eleven, one needle of another application.
///
/// ISSUE 11 said `AppId::all()`; the seven out-of-scope applications have
/// no signatures, so a host running one could carry no needle and would
/// never reach stage III. The draw is over `AppId::in_scope()`.
pub fn awe_verify(seed: u64, count: usize) -> Hosts {
    let started = Instant::now();
    let mut rng = SplitMix64::new(seed, 3);
    let needles = program::needles();
    let apps = program::in_scope_apps();
    let mut history_ns = 0u128;
    let mut content_ns = 0u128;
    let mut items: Vec<Host> = (0..count)
        .map(|i| {
            let app = apps[i % apps.len()];
            let clock = Instant::now();
            let history = program::history(app);
            history_ns += clock.elapsed().as_nanos();
            let version = history[(i / apps.len()) % history.len()];
            let clock = Instant::now();
            let assets = program::asset_bodies(app, &version);
            content_ns += clock.elapsed().as_nanos();

            let mut own: Vec<&Needle> = needles.iter().filter(|n| n.app == app).collect();
            rng.shuffle(&mut own);
            own.truncate(1 + (i / 3) % 5);
            let mut planted = vec![app];
            if i % 11 == 0 {
                let other = apps[(i % apps.len() + 1 + rng.below(apps.len() - 1)) % apps.len()];
                let theirs: Vec<&Needle> = needles.iter().filter(|n| n.app == other).collect();
                own.push(theirs[rng.below(theirs.len())]);
                planted.push(other);
            }
            let marks = own
                .iter()
                .map(|n| disguise(n, &mut rng, true))
                .collect::<Vec<_>>()
                .join(" ");

            let has_login = (i / 7) % 2 == 0;
            let name = program::app_name(app);
            let build = |filler: &str| {
                if has_login {
                    program::login_page(&format!("{name} {marks} {filler}"), "/session")
                } else {
                    program::plain_page(name, &format!("<div>{marks}</div>\n<p>{filler}</p>"))
                }
            };
            let filler = words(&mut rng, AWE_PAGE_LEN - build("").len(), true);
            Host {
                page: build(&filler),
                assets,
                planted,
                version,
                has_login,
            }
        })
        .collect();
    rng.shuffle(&mut items);
    let mut digest = Digest::new();
    let (mut bytes, mut asset_bytes) = (0, 0);
    for host in &items {
        digest.feed(host.page.as_bytes());
        bytes += host.page.len() as u64;
        for asset in &host.assets {
            digest.feed(asset.as_bytes());
            asset_bytes += asset.len() as u64;
        }
    }
    Hosts {
        items,
        bytes,
        asset_bytes,
        digest: digest.value(),
        gen_s: started.elapsed().as_secs_f64(),
        history_ns_per_call: history_ns as f64 / count as f64,
        content_ns_per_call: content_ns as f64 / (4 * count) as f64,
    }
}

// ------------------------------------------------------------------ blocks

/// A corpus of /16 parents for `plan`.
pub struct Parents {
    pub items: Vec<u16>,
    pub digest: u64,
    pub gen_s: f64,
}

/// `space_plan`: the first `count` /16 blocks of the IPv4 space (all of it
/// at 65,536) in seeded order, as the scan shuffles its blocks.
pub fn space_plan(seed: u64, count: usize) -> Parents {
    let started = Instant::now();
    let mut rng = SplitMix64::new(seed, 4);
    let mut items: Vec<u16> = (0..count)
        .map(|i| u16::try_from(i).expect("at most 65,536 parents"))
        .collect();
    rng.shuffle(&mut items);
    let mut digest = Digest::new();
    for parent in &items {
        digest.feed(&parent.to_be_bytes());
    }
    Parents {
        items,
        digest: digest.value(),
        gen_s: started.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_corpus_other_seed_other_corpus() {
        assert_eq!(wild_mix(5, 200).digest, wild_mix(5, 200).digest);
        assert_ne!(wild_mix(5, 200).digest, wild_mix(6, 200).digest);
        assert_eq!(tiny_bodies(5, 2000).digest, tiny_bodies(5, 2000).digest);
        assert_ne!(tiny_bodies(5, 2000).digest, tiny_bodies(6, 2000).digest);
        assert_eq!(awe_verify(5, 360).digest, awe_verify(5, 360).digest);
        assert_ne!(awe_verify(5, 360).digest, awe_verify(6, 360).digest);
        assert_eq!(space_plan(5, 512).items, space_plan(5, 512).items);
        assert_ne!(space_plan(5, 512).items, space_plan(6, 512).items);
    }

    #[test]
    fn every_seed_gives_the_same_amount_of_work() {
        let (a, b) = (wild_mix(1, 500), wild_mix(2, 500));
        assert_eq!(a.bytes, b.bytes);
        let hits = |c: &Bodies| c.items.iter().filter(|b| !b.planted.is_empty()).count();
        assert_eq!(hits(&a), 10);
        assert_eq!(hits(&a), hits(&b));
        let (a, b) = (tiny_bodies(1, 5000), tiny_bodies(2, 5000));
        assert_eq!(hits(&a), 100);
        assert_eq!(hits(&a), hits(&b));
        let (a, b) = (awe_verify(1, 360), awe_verify(2, 360));
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.bytes, 360 * AWE_PAGE_LEN as u64);
    }

    #[test]
    fn wild_bodies_span_the_size_ladder_and_view_classes() {
        let corpus = wild_mix(3, 400);
        let lens: Vec<usize> = corpus.items.iter().map(|b| b.text.len()).collect();
        assert!(*lens.iter().min().unwrap() >= WILD_MIN);
        assert!(*lens.iter().max().unwrap() <= WILD_MAX);
        assert!(*lens.iter().max().unwrap() > WILD_MAX / 2);
        let marker_free = corpus.items.iter().filter(|b| b.planted.is_empty());
        let with_capitals = marker_free
            .clone()
            .filter(|b| b.text.bytes().any(|c| c.is_ascii_uppercase()))
            .count();
        assert_eq!(with_capitals, marker_free.count() / 2);
        assert!(corpus.items.iter().all(|b| b.text.contains(' ')));
    }

    #[test]
    fn tiny_bodies_include_empty_and_view_free_ones() {
        let corpus = tiny_bodies(3, 5000);
        assert!(corpus.items.iter().all(|b| b.text.len() <= TINY_MAX));
        assert!(corpus.items.iter().any(|b| b.text.is_empty()));
        let canonical = |b: &&Body| {
            !b.text.is_empty()
                && !b.text.bytes().any(|c| c.is_ascii_uppercase())
                && !b.text.contains(char::is_whitespace)
        };
        assert!(corpus.items.iter().filter(canonical).count() > 1000);
    }

    #[test]
    fn hosts_cover_every_in_scope_app_and_both_page_kinds() {
        let corpus = awe_verify(3, 720);
        for app in program::in_scope_apps() {
            assert!(corpus.items.iter().any(|h| h.planted[0] == app));
        }
        assert!(corpus.items.iter().any(|h| h.has_login));
        assert!(corpus.items.iter().any(|h| !h.has_login));
        assert!(corpus.items.iter().any(|h| h.planted.len() == 2));
        assert!(corpus.items.iter().all(|h| h.page.len() == AWE_PAGE_LEN));
    }

    #[test]
    fn digest_separates_items() {
        let fold = |parts: &[&str]| {
            let mut d = Digest::new();
            parts.iter().for_each(|p| d.feed(p.as_bytes()));
            d.value()
        };
        assert_ne!(fold(&["ab", "c"]), fold(&["a", "bc"]));
        assert_eq!(fold(&["ab", "c"]), fold(&["ab", "c"]));
    }
}
