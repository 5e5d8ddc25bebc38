//! The bound surface: every call the benchmark makes into the repository
//! is in this file (README.md lists the files and items behind it).
//!
//! Repository types are held opaquely and touched only through their
//! public functions, `AsRef<str>`/`len()`, and — in [`needles`] alone —
//! the public fields of `Signature`/`Pattern`, so ROADMAP item 1 can
//! change representations without breaking the benchmark.
//!
//! The three timed operations mirror the production composition call for
//! call; each is generic over a [`Probe`] so the traced run and the timed
//! run execute the same code.

use crate::trace::{Layer, Probe};
use nokeys_apps::assets::{self, ASSET_PATHS};
use nokeys_apps::{html, release_history};
use nokeys_http::ip::{BlockCoverage, Cidr, ReservedRanges};
use nokeys_scanner::fingerprint::knowledge_base::KnowledgeBase;
use nokeys_scanner::htmlcheck;
use nokeys_scanner::multipattern::MultiPattern;
use nokeys_scanner::pattern::{MatchMode, PreparedBody};
use nokeys_scanner::scratch::{self, Scratch};
use nokeys_scanner::signatures::{self, Signature};
use std::net::Ipv4Addr;

pub use nokeys_apps::{AppId, Version};

// ---------------------------------------------------------------- classify

/// Stage II's matcher state: the signature set, its compiled automata and
/// one worker's scratch arena.
pub struct Classifier {
    signatures: Vec<Signature>,
    matcher: MultiPattern,
    scratch: Scratch,
    /// The benchmark's own buffers for timing the two view builders alone.
    lower_view: String,
    squash_view: String,
}

/// What `classify` found in one body.
#[derive(Debug, PartialEq, Eq)]
pub struct Classified {
    /// Candidate applications, strongest first.
    pub candidates: Vec<AppId>,
    /// Whether a lowered / squashed copy of the body had to be built.
    pub lowered: bool,
    pub squashed: bool,
}

impl Classifier {
    /// Cold build: `all_signatures` + `MultiPattern::new` + a fresh arena.
    pub fn build<P: Probe>(probe: &mut P) -> Self {
        probe.enter(Layer::SignaturesLoad);
        let signatures = signatures::all_signatures();
        probe.next(Layer::MultipatternBuild);
        let matcher = MultiPattern::new(&signatures);
        probe.leave();
        Classifier {
            signatures,
            matcher,
            scratch: Scratch::new(),
            lower_view: String::new(),
            squash_view: String::new(),
        }
    }

    /// One response body through stage II, as `crates/core/src/prefilter.rs`
    /// does it: scratch-arena multipattern pass, per-application counts,
    /// ranking.
    pub fn classify<P: Probe>(&mut self, body: &str, probe: &mut P) -> Classified {
        probe.enter(Layer::Match);
        let used = self
            .matcher
            .matched_signatures_scratch(body, &mut self.scratch);
        probe.next(Layer::Counts);
        let counts = self.matcher.counts_from_matched(self.scratch.matched());
        probe.next(Layer::Rank);
        let candidates = signatures::rank_candidates(counts);
        probe.leave();
        Classified {
            candidates,
            lowered: used.lower.is_some(),
            squashed: used.squashed.is_some(),
        }
    }

    /// Twin of [`classify`](Self::classify) from before the scratch arena:
    /// a fresh `PreparedBody` (both views forced, so their cost lands in
    /// the prepare span) and the allocating multipattern pass.
    pub fn classify_alloc_path<P: Probe>(&self, body: &str, probe: &mut P) -> Vec<AppId> {
        probe.enter(Layer::Prepare);
        let prepared = PreparedBody::new(body);
        std::hint::black_box((prepared.lower().len(), prepared.squashed().len()));
        probe.next(Layer::AllocMatch);
        let candidates = self.matcher.match_candidates(&prepared);
        probe.leave();
        candidates
    }

    /// Twin of [`classify`](Self::classify) from before the automaton:
    /// ninety substring searches.
    pub fn classify_linear<P: Probe>(&self, body: &str, probe: &mut P) -> Vec<AppId> {
        probe.enter(Layer::Linear);
        let candidates = signatures::match_candidates(&self.signatures, &PreparedBody::new(body));
        probe.leave();
        candidates
    }

    /// The two view builders on their own, for bodies that need them.
    /// Returns the bytes each read.
    pub fn build_views<P: Probe>(&mut self, body: &str, probe: &mut P) -> (usize, usize) {
        let mut read = (0, 0);
        if scratch::needs_lower(body) {
            probe.enter(Layer::Lower);
            scratch::lower_into(body, &mut self.lower_view);
            probe.leave();
            read.0 = body.len();
        }
        if scratch::needs_squash(body) {
            probe.enter(Layer::Squash);
            scratch::squash_into(body, &mut self.squash_view);
            probe.leave();
            read.1 = body.len();
        }
        std::hint::black_box((self.lower_view.len(), self.squash_view.len()));
        read
    }
}

/// Bodies longer than this grow a freshly reserved arena.
pub const SCRATCH_RESERVE: usize = Scratch::RESERVE;

/// How a needle may be disguised and still match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    Exact,
    Case,
    Whitespace,
}

/// One signature as the corpus generator sees it.
#[derive(Debug, Clone, Copy)]
pub struct Needle {
    pub app: AppId,
    pub text: &'static str,
    pub fold: Fold,
}

/// The signature set, for planting. The one place that reads the public
/// fields of `Signature` and `Pattern`.
pub fn needles() -> Vec<Needle> {
    signatures::all_signatures()
        .iter()
        .map(|s| Needle {
            app: s.app,
            text: s.pattern.needle,
            fold: match s.pattern.mode {
                MatchMode::Exact => Fold::Exact,
                MatchMode::IgnoreCase => Fold::Case,
                MatchMode::IgnoreWhitespace => Fold::Whitespace,
            },
        })
        .collect()
}

// ------------------------------------------------------------------ verify

/// Stage II + the CPU side of stage III and the fingerprinter.
pub struct Verifier {
    classifier: Classifier,
    knowledge_base: KnowledgeBase,
}

/// What `verify` found on one host.
#[derive(Debug, PartialEq)]
pub struct Verified {
    pub classified: Classified,
    pub valid_html: bool,
    pub has_login: bool,
    pub identified: Option<(AppId, Version)>,
}

/// The element a stage-III plugin looks for on a login wall.
const LOGIN_SELECTOR: &str = "form#login";

impl Verifier {
    /// Cold build: the classifier plus `KnowledgeBase::build`.
    pub fn build<P: Probe>(probe: &mut P) -> Self {
        let classifier = Classifier::build(probe);
        probe.enter(Layer::KnowledgeBaseBuild);
        let knowledge_base = KnowledgeBase::build();
        probe.leave();
        Verifier {
            classifier,
            knowledge_base,
        }
    }

    pub fn classifier(&mut self) -> &mut Classifier {
        &mut self.classifier
    }

    /// `(hash, candidate)` entries in the knowledge base.
    pub fn knowledge_base_entries(&self) -> usize {
        self.knowledge_base.len()
    }

    /// One AWE host: classify its page, run the plugin's HTML checks,
    /// hash the four crawled assets and identify application and version
    /// (as `fingerprint/crawler.rs` does after fetching).
    pub fn verify<P: Probe>(
        &mut self,
        page: &str,
        asset_bodies: &[String; 4],
        probe: &mut P,
    ) -> Verified {
        let classified = self.classifier.classify(page, probe);
        probe.enter(Layer::HtmlValid);
        let valid_html = htmlcheck::is_valid_html(page);
        probe.next(Layer::HtmlElement);
        let has_login = htmlcheck::has_element(page, LOGIN_SELECTOR);
        let mut observations = [("", 0u64); 4];
        for ((slot, path), body) in observations.iter_mut().zip(ASSET_PATHS).zip(asset_bodies) {
            probe.next(Layer::Fnv1a);
            *slot = (path, assets::fnv1a(body.as_bytes()));
        }
        probe.next(Layer::Identify);
        let identified = self.knowledge_base.identify(&observations);
        probe.leave();
        Verified {
            classified,
            valid_html,
            has_login,
            identified,
        }
    }
}

// What the simulated servers do, at corpus-generation time (untimed).

/// The applications the signatures cover.
pub fn in_scope_apps() -> Vec<AppId> {
    AppId::in_scope().collect()
}

pub fn app_name(app: AppId) -> &'static str {
    app.name()
}

pub fn history(app: AppId) -> Vec<Version> {
    release_history(app)
}

/// The four static files `app` serves at `version`, in crawl order.
pub fn asset_bodies(app: AppId, version: &Version) -> [String; 4] {
    ASSET_PATHS.map(|path| assets::asset_content(app, version, path).expect("crawl path is known"))
}

pub fn login_page(product: &str, action: &str) -> String {
    html::login_form(product, action)
}

pub fn plain_page(title: &str, body: &str) -> String {
    html::page(title, body)
}

/// Whether two versions of `app` serve the same static files — the
/// finest distinction the fingerprinter can draw.
pub fn same_fingerprint(app: AppId, a: &Version, b: &Version) -> bool {
    assets::fingerprint(app, a) == assets::fingerprint(app, b)
}

// -------------------------------------------------------------------- plan

/// Stage I's pure-CPU part: the exclusion list and a block buffer.
pub struct Planner {
    reserved: ReservedRanges,
    blocks: Vec<Cidr>,
}

/// What `plan` found in one parent block.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// Addresses in /24 blocks no exclusion range covers.
    pub scannable: u64,
    /// /24 blocks straddling an exclusion boundary; the sparse sweep
    /// relies on there being none.
    pub partial: u64,
}

/// /24 blocks per /16 parent.
pub const BLOCKS_PER_PARENT: usize = 256;

impl Planner {
    /// Cold build: `ReservedRanges::iana`.
    pub fn build<P: Probe>(probe: &mut P) -> Self {
        probe.enter(Layer::IanaBuild);
        let reserved = ReservedRanges::iana();
        probe.leave();
        Planner {
            reserved,
            blocks: Vec::with_capacity(BLOCKS_PER_PARENT),
        }
    }

    pub fn excluded_addrs(&self) -> u64 {
        self.reserved.excluded_count()
    }

    /// The `index`-th /16 of the IPv4 space.
    fn parent(index: u16) -> Cidr {
        Cidr::new(Ipv4Addr::from(u32::from(index) << 16), 16)
    }

    /// One /16 through stage I's planner: split into /24 blocks, classify
    /// each against the exclusion list, sum what is left to scan.
    pub fn plan<P: Probe>(&mut self, parent: u16, probe: &mut P) -> Planned {
        let parent = Self::parent(parent);
        if P::ON {
            // Two spans cannot wrap one fused iterator, so the traced run
            // buffers the blocks between them.
            probe.enter(Layer::Blocks);
            self.blocks.clear();
            self.blocks.extend(parent.slash24_blocks());
            probe.next(Layer::Coverage);
            let planned = Self::sum(self.blocks.iter().copied(), &self.reserved);
            probe.leave();
            planned
        } else {
            Self::sum(parent.slash24_blocks(), &self.reserved)
        }
    }

    fn sum(blocks: impl Iterator<Item = Cidr>, reserved: &ReservedRanges) -> Planned {
        let mut planned = Planned::default();
        for block in blocks {
            match reserved.coverage(block) {
                BlockCoverage::None => planned.scannable += block.size(),
                BlockCoverage::Full => {}
                BlockCoverage::Partial => planned.partial += 1,
            }
        }
        planned
    }

    /// Twin of [`plan`](Self::plan): ask about each block's first address
    /// instead of classifying the block.
    pub fn plan_by_address(&self, parent: u16) -> u64 {
        Self::parent(parent)
            .slash24_blocks()
            .filter(|block| !self.reserved.contains(block.first()))
            .map(|block| block.size())
            .sum()
    }
}
