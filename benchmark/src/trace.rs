//! Spans around the calls into each layer, kept in memory.
//!
//! The program has no spans of its own yet, so the benchmark records one
//! around every call it makes into a layer's public function. A layer's
//! self time is its span minus the part its children cover.

use std::time::Instant;

/// One span name per bound public function, plus the benchmark's own
/// roots. The dotted prefix is the repository module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// Root of one pass over a corpus.
    Pass,
    /// Root of the untimed check pass (oracle and twins).
    Check,
    /// Root of one cold set-up.
    Setup,
    SignaturesLoad,
    MultipatternBuild,
    KnowledgeBaseBuild,
    IanaBuild,
    Match,
    Counts,
    Rank,
    HtmlValid,
    HtmlElement,
    Fnv1a,
    Identify,
    Blocks,
    Coverage,
    /// The production path again, timed in the check pass beside its
    /// twins, under their conditions.
    ScratchPath,
    /// Twin: `PreparedBody::new` and both views.
    Prepare,
    /// Twin: `MultiPattern::match_candidates` over a `PreparedBody`.
    AllocMatch,
    /// Twin: `signatures::match_candidates`, the 90-pattern linear scan.
    Linear,
    /// Twin: `scratch::lower_into` on its own.
    Lower,
    /// Twin: `scratch::squash_into` on its own.
    Squash,
}

impl Layer {
    pub const COUNT: usize = Layer::Squash as usize + 1;
    /// The first `ROOTS` variants are the benchmark's own roots;
    /// everything after is a layer of the program.
    pub const ROOTS: usize = Layer::Setup as usize + 1;

    pub const NAMES: [&'static str; Layer::COUNT] = [
        "bench.pass",
        "bench.check",
        "bench.setup",
        "core.signatures.all_signatures",
        "core.multipattern.new",
        "core.knowledge_base.build",
        "http.ip.iana",
        "core.multipattern.matched_signatures_scratch",
        "core.multipattern.counts_from_matched",
        "core.signatures.rank_candidates",
        "core.htmlcheck.is_valid_html",
        "core.htmlcheck.has_element",
        "apps.assets.fnv1a",
        "core.knowledge_base.identify",
        "http.ip.slash24_blocks",
        "http.ip.coverage",
        "core.multipattern.scratch_path",
        "core.pattern.prepared_body",
        "core.multipattern.match_candidates",
        "core.signatures.match_candidates",
        "core.scratch.lower_into",
        "core.scratch.squash_into",
    ];
}

/// Where the composition in `program.rs` reports its layer boundaries.
/// `Off` compiles to nothing, so the timed passes run the bare calls.
pub trait Probe {
    /// Whether spans are recorded.
    const ON: bool;
    /// The item the following spans belong to.
    fn item(&mut self, id: u32);
    /// Open a span under the innermost open one.
    fn enter(&mut self, layer: Layer);
    /// Close the innermost span and open a sibling on the same clock
    /// reading, so adjacent layers leave no gap between them.
    fn next(&mut self, layer: Layer);
    /// Close the innermost span.
    fn leave(&mut self);
}

/// Tracing off.
pub struct Off;

impl Probe for Off {
    const ON: bool = false;
    #[inline(always)]
    fn item(&mut self, _id: u32) {}
    #[inline(always)]
    fn enter(&mut self, _layer: Layer) {}
    #[inline(always)]
    fn next(&mut self, _layer: Layer) {}
    #[inline(always)]
    fn leave(&mut self) {}
}

/// No parent: a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    /// Item the span belongs to; spans of one item share it.
    pub item: u32,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Nanoseconds since the tracer was made.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Tracing on: spans pushed to a pre-sized vector.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    item: u32,
}

impl Tracer {
    /// Room for `capacity` spans, so a pass never reallocates mid-way.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            item: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open_at(&mut self, layer: Layer, now: u64) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            layer,
            item: self.item,
            parent,
            start_ns: now,
            end_ns: now,
        });
    }

    fn close_at(&mut self, now: u64) {
        let idx = self.open.pop().expect("leave without enter");
        self.spans[idx as usize].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Forget the recorded spans, keeping the capacity.
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear with open spans");
        self.spans.clear();
    }
}

impl Probe for Tracer {
    const ON: bool = true;
    fn item(&mut self, id: u32) {
        self.item = id;
    }

    fn enter(&mut self, layer: Layer) {
        let now = self.now_ns();
        self.open_at(layer, now);
    }

    fn next(&mut self, layer: Layer) {
        let now = self.now_ns();
        self.close_at(now);
        self.open_at(layer, now);
    }

    fn leave(&mut self) {
        let now = self.now_ns();
        self.close_at(now);
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let child = span.end_ns - span.start_ns;
            let parent = &mut own[span.parent as usize];
            *parent = parent.saturating_sub(child);
        }
    }
    own
}

/// Self time and call count per layer over one set of spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTotals {
    pub self_ns: [u64; Layer::COUNT],
    pub calls: [u64; Layer::COUNT],
}

impl LayerTotals {
    pub fn of(spans: &[Span]) -> Self {
        let mut totals = LayerTotals {
            self_ns: [0; Layer::COUNT],
            calls: [0; Layer::COUNT],
        };
        for (span, own) in spans.iter().zip(self_ns(spans)) {
            totals.self_ns[span.layer as usize] += own;
            totals.calls[span.layer as usize] += 1;
        }
        totals
    }

    pub fn ns(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64
    }

    pub fn calls(&self, layer: Layer) -> f64 {
        self.calls[layer as usize] as f64
    }

    /// Self time of every layer of the program (the roots left out).
    pub fn program_ns(&self) -> f64 {
        self.self_ns[Layer::ROOTS..].iter().sum::<u64>() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            item: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn span_names_are_unique_and_roots_are_the_benchmarks() {
        assert!(Layer::NAMES[..Layer::ROOTS]
            .iter()
            .all(|n| n.starts_with("bench.")));
        assert!(Layer::NAMES[Layer::ROOTS..]
            .iter()
            .all(|n| !n.starts_with("bench.")));
        let mut names = Layer::NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Layer::COUNT, "span names are unique");
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // pass 0..100 { match 10..40 { lower 20..30 }, rank 40..70 }
        let spans = [
            span(Layer::Pass, NO_PARENT, 0, 100),
            span(Layer::Match, 0, 10, 40),
            span(Layer::Lower, 1, 20, 30),
            span(Layer::Rank, 0, 40, 70),
        ];
        assert_eq!(self_ns(&spans), vec![40, 20, 10, 30]);
        let totals = LayerTotals::of(&spans);
        assert_eq!(totals.ns(Layer::Pass), 40.0);
        assert_eq!(totals.ns(Layer::Match), 20.0);
        assert_eq!(totals.calls(Layer::Rank), 1.0);
        // Layers of the program cover 60 of the pass's 100 ns.
        assert_eq!(totals.program_ns(), 60.0);
    }

    #[test]
    fn tracer_links_parents_and_tiles_siblings() {
        let mut t = Tracer::with_capacity(8);
        t.enter(Layer::Pass);
        t.item(7);
        t.enter(Layer::Match);
        t.next(Layer::Counts);
        t.next(Layer::Rank);
        t.leave();
        t.item(8);
        t.enter(Layer::Match);
        t.leave();
        t.leave();
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].parent, NO_PARENT);
        assert!(s[1..].iter().all(|c| c.parent == 0), "children of the pass");
        assert_eq!(
            [s[1].item, s[2].item, s[3].item, s[4].item],
            [7, 7, 7, 8],
            "spans of one item share its id"
        );
        // `next` closes and opens on one clock reading: no gap.
        assert_eq!(s[1].end_ns, s[2].start_ns);
        assert_eq!(s[2].end_ns, s[3].start_ns);
        assert!(s[0].start_ns <= s[1].start_ns && s[4].end_ns <= s[0].end_ns);
        t.clear();
        assert!(t.spans().is_empty());
    }
}
