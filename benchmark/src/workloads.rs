//! The four workloads: a corpus, the operation timed over it, and the
//! check of every output. README.md records why each exists.

use crate::clock::RefClock;
use crate::corpus::{self, Bodies, Hosts, Parents, Sizes};
use crate::oracle::Oracle;
use crate::program::{
    self, Classified, Classifier, Planner, Verifier, BLOCKS_PER_PARENT, SCRATCH_RESERVE,
};
use crate::trace::{Layer, Off, Probe, Tracer};
use std::hint::black_box;
use std::time::Instant;

/// Items per timed batch; `bench.item_p99_ns` is over batch means.
pub const BATCH: usize = 64;

pub const NAMES: [&str; 4] = ["wild_mix", "tiny_bodies", "awe_verify", "space_plan"];

/// What a pass produced, cheap enough to keep from every timed pass and
/// compare with the checked pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Items with at least one candidate, and candidates in all.
    pub hits: u64,
    pub candidates: u64,
    /// Bodies that needed a lowered / squashed view built.
    pub lowered: u64,
    pub squashed: u64,
    pub valid_html: u64,
    pub logins: u64,
    pub identified: u64,
    pub scannable: u64,
    pub partial: u64,
}

impl Tally {
    fn classified(&mut self, out: &Classified) {
        self.hits += u64::from(!out.candidates.is_empty());
        self.candidates += out.candidates.len() as u64;
        self.lowered += u64::from(out.lowered);
        self.squashed += u64::from(out.squashed);
    }
}

/// What a workload knows about its inputs and its built program.
#[derive(Debug, Default, Clone, Copy)]
pub struct Facts {
    pub items: u64,
    /// Body or page bytes the matcher reads per pass.
    pub bytes: u64,
    /// Static-file bytes hashed per pass.
    pub asset_bytes: u64,
    /// Bodies longer than the scratch arena's reserve.
    pub over_reserve: u64,
    pub digest: u64,
    pub gen_s: f64,
    pub history_ns_per_call: f64,
    pub content_ns_per_call: f64,
    /// Input bytes the check pass ran through each view builder.
    pub lower_read: u64,
    pub squash_read: u64,
    pub knowledge_base_entries: u64,
    pub excluded_addrs: u64,
}

/// Run `$body` with `$probe` bound to the tracer, or to [`Off`].
macro_rules! with_probe {
    ($tracer:expr, $probe:ident => $body:expr) => {
        match $tracer {
            Some($probe) => $body,
            None => {
                let $probe = &mut Off;
                $body
            }
        }
    };
}

pub trait Workload {
    fn name(&self) -> &'static str;
    fn facts(&self) -> Facts;
    /// Spans one traced pass records, for pre-sizing the tracer.
    fn spans_per_pass(&self) -> usize;
    /// Timed batches per pass.
    fn batches(&self) -> usize;
    /// Build the program's state and keep it for the passes.
    fn set_up(&mut self);
    /// Build the program's state once more, cold, and let it go again:
    /// one sample of set-up time, in seconds. The release is not timed.
    fn rehearse_set_up(&self, tracer: Option<&mut Tracer>) -> f64;
    /// How much of the timed operation is bound by instruction latency
    /// rather than issue width: which mix of the reference clock's two
    /// readings tracks this workload (README.md, "Reference seconds").
    fn latency_share(&self) -> f64;
    /// One pass over the corpus; appends each batch's time to `batch_ns`
    /// (the pass took their sum) and ticks `clock` between batches.
    fn pass(
        &mut self,
        tracer: Option<&mut Tracer>,
        clock: Option<&mut RefClock>,
        batch_ns: &mut Vec<u64>,
    ) -> Tally;
    /// One untimed pass that checks every output against ground truth and
    /// runs the twin paths (under spans, if traced).
    fn check(&mut self, tracer: Option<&mut Tracer>) -> (Oracle, Tally);
}

/// Generate the named workload's corpus from `seed`.
pub fn make(name: &str, seed: u64, sizes: Sizes) -> Option<Box<dyn Workload>> {
    Some(match name {
        "wild_mix" => Box::new(Classify::new(
            "wild_mix",
            0.7,
            corpus::wild_mix(seed, sizes.wild),
        )),
        "tiny_bodies" => Box::new(Classify::new(
            "tiny_bodies",
            0.5,
            corpus::tiny_bodies(seed, sizes.tiny),
        )),
        "awe_verify" => Box::new(AweVerify {
            corpus: corpus::awe_verify(seed, sizes.awe),
            program: None,
        }),
        "space_plan" => Box::new(SpacePlan {
            corpus: corpus::space_plan(seed, sizes.space_parents),
            program: None,
        }),
        _ => return None,
    })
}

/// Time each batch of `batch` units of `units` through `each`, ticking
/// the reference clock between batches, outside their times.
fn in_batches<T>(
    units: &[T],
    batch: usize,
    mut clock: Option<&mut RefClock>,
    batch_ns: &mut Vec<u64>,
    mut each: impl FnMut(usize, &T),
) {
    let mut started = Instant::now();
    for (b, chunk) in units.chunks(batch).enumerate() {
        for (k, unit) in chunk.iter().enumerate() {
            each(b * batch + k, unit);
        }
        let mut now = Instant::now();
        let took = (now - started).as_nanos() as u64;
        batch_ns.push(took);
        if clock.as_deref_mut().is_some_and(|clock| clock.worked(took)) {
            now = Instant::now();
        }
        started = now;
    }
}

/// Time one cold `build` under a set-up span; the built state is dropped
/// after the clock is read.
fn timed_build<P: Probe, T>(probe: &mut P, build: impl FnOnce(&mut P) -> T) -> f64 {
    let before = Instant::now();
    probe.enter(Layer::Setup);
    let built = build(probe);
    probe.leave();
    let took = before.elapsed().as_secs_f64();
    drop(black_box(built));
    took
}

/// A clipped, escaped look at a failing body.
fn excerpt(text: &str) -> String {
    let end = (0..=text.len().min(120))
        .rev()
        .find(|&i| text.is_char_boundary(i))
        .unwrap_or(0);
    format!("{:?}", &text[..end])
}

// ------------------------------------------------- wild_mix and tiny_bodies

/// `classify` over a corpus of bodies.
struct Classify {
    name: &'static str,
    latency_share: f64,
    corpus: Bodies,
    program: Option<Classifier>,
    view_read: (u64, u64),
}

impl Classify {
    fn new(name: &'static str, latency_share: f64, corpus: Bodies) -> Self {
        Classify {
            name,
            latency_share,
            corpus,
            program: None,
            view_read: (0, 0),
        }
    }

    fn run<P: Probe>(
        &mut self,
        probe: &mut P,
        clock: Option<&mut RefClock>,
        batch_ns: &mut Vec<u64>,
    ) -> Tally {
        let program = self.program.as_mut().expect("set up before a pass");
        let mut tally = Tally::default();
        probe.enter(Layer::Pass);
        in_batches(&self.corpus.items, BATCH, clock, batch_ns, |i, body| {
            probe.item(i as u32);
            tally.classified(&program.classify(black_box(&body.text), probe));
        });
        probe.leave();
        tally
    }

    fn run_check<P: Probe>(&mut self, probe: &mut P) -> (Oracle, Tally) {
        let program = self.program.as_mut().expect("set up before the check");
        let (mut oracle, mut tally) = (Oracle::default(), Tally::default());
        self.view_read = (0, 0);
        probe.enter(Layer::Check);
        for (i, body) in self.corpus.items.iter().enumerate() {
            probe.item(i as u32);
            let got = program.classify(&body.text, &mut Off);
            tally.classified(&got);
            let mut ok = oracle.judge_candidates(&body.planted, &got.candidates);
            ok &= twins_agree(program, &body.text, &got, &mut oracle, probe);
            let read = program.build_views(&body.text, probe);
            self.view_read.0 += read.0 as u64;
            self.view_read.1 += read.1 as u64;
            oracle.record(1, ok, || {
                format!(
                    "{} item {i}: planted {:?}, candidates {:?}, body {}",
                    self.name,
                    body.planted,
                    got.candidates,
                    excerpt(&body.text)
                )
            });
        }
        probe.leave();
        (oracle, tally)
    }
}

/// Run the allocating and the linear twin on `body`; false (and counted)
/// when either disagrees with the scratch path. The scratch path has just
/// read `body`, so the twins find it in cache; for a fair comparison it
/// runs once more under a span of its own, on the same warm body.
fn twins_agree<P: Probe>(
    program: &mut Classifier,
    body: &str,
    got: &Classified,
    oracle: &mut Oracle,
    probe: &mut P,
) -> bool {
    probe.enter(Layer::ScratchPath);
    let again = program.classify(body, &mut Off);
    probe.leave();
    let alloc_path = program.classify_alloc_path(body, probe);
    let linear = program.classify_linear(body, probe);
    let agree = again == *got && alloc_path == got.candidates && linear == got.candidates;
    oracle.twin_mismatches += u64::from(!agree);
    agree
}

impl Workload for Classify {
    fn name(&self) -> &'static str {
        self.name
    }

    fn latency_share(&self) -> f64 {
        self.latency_share
    }

    fn facts(&self) -> Facts {
        let over = |b: &&corpus::Body| b.text.len() > SCRATCH_RESERVE;
        Facts {
            items: self.corpus.items.len() as u64,
            bytes: self.corpus.bytes,
            over_reserve: self.corpus.items.iter().filter(over).count() as u64,
            digest: self.corpus.digest,
            gen_s: self.corpus.gen_s,
            lower_read: self.view_read.0,
            squash_read: self.view_read.1,
            ..Facts::default()
        }
    }

    fn spans_per_pass(&self) -> usize {
        // Match, counts, rank per body, under one pass span; the check
        // pass records at most six.
        6 * self.corpus.items.len() + 1
    }

    fn batches(&self) -> usize {
        self.corpus.items.len().div_ceil(BATCH)
    }

    fn set_up(&mut self) {
        self.program = Some(Classifier::build(&mut Off));
    }

    fn rehearse_set_up(&self, tracer: Option<&mut Tracer>) -> f64 {
        with_probe!(tracer, p => timed_build(p, Classifier::build))
    }

    fn pass(
        &mut self,
        tracer: Option<&mut Tracer>,
        clock: Option<&mut RefClock>,
        batch_ns: &mut Vec<u64>,
    ) -> Tally {
        with_probe!(tracer, p => self.run(p, clock, batch_ns))
    }

    fn check(&mut self, tracer: Option<&mut Tracer>) -> (Oracle, Tally) {
        with_probe!(tracer, p => self.run_check(p))
    }
}

// -------------------------------------------------------------- awe_verify

/// `verify` over a corpus of hosts.
struct AweVerify {
    corpus: Hosts,
    program: Option<Verifier>,
}

impl AweVerify {
    fn count(tally: &mut Tally, out: &program::Verified) {
        tally.classified(&out.classified);
        tally.valid_html += u64::from(out.valid_html);
        tally.logins += u64::from(out.has_login);
        tally.identified += u64::from(out.identified.is_some());
    }

    fn run<P: Probe>(
        &mut self,
        probe: &mut P,
        clock: Option<&mut RefClock>,
        batch_ns: &mut Vec<u64>,
    ) -> Tally {
        let program = self.program.as_mut().expect("set up before a pass");
        let mut tally = Tally::default();
        probe.enter(Layer::Pass);
        in_batches(&self.corpus.items, BATCH, clock, batch_ns, |i, host| {
            probe.item(i as u32);
            let out = program.verify(black_box(&host.page), black_box(&host.assets), probe);
            Self::count(&mut tally, &out);
        });
        probe.leave();
        tally
    }

    fn run_check<P: Probe>(&mut self, probe: &mut P) -> (Oracle, Tally) {
        let program = self.program.as_mut().expect("set up before the check");
        let (mut oracle, mut tally) = (Oracle::default(), Tally::default());
        probe.enter(Layer::Check);
        for (i, host) in self.corpus.items.iter().enumerate() {
            probe.item(i as u32);
            let got = program.verify(&host.page, &host.assets, &mut Off);
            Self::count(&mut tally, &got);
            let mut ok = oracle.judge_candidates(&host.planted, &got.classified.candidates);
            ok &= twins_agree(
                program.classifier(),
                &host.page,
                &got.classified,
                &mut oracle,
                probe,
            );
            ok &= got.valid_html && got.has_login == host.has_login;
            let app = host.planted[0];
            let identified = got.identified.is_some_and(|(found, version)| {
                found == app && program::same_fingerprint(app, &version, &host.version)
            });
            oracle.to_identify += 1;
            oracle.identified += u64::from(identified);
            ok &= identified;
            oracle.record(1, ok, || {
                format!(
                    "awe_verify item {i}: planted {:?} at {:?} (login {}), got {:?} valid {} \
                     login {} identified {:?}, page {}",
                    host.planted,
                    host.version,
                    host.has_login,
                    got.classified.candidates,
                    got.valid_html,
                    got.has_login,
                    got.identified,
                    excerpt(&host.page)
                )
            });
        }
        probe.leave();
        (oracle, tally)
    }
}

impl Workload for AweVerify {
    fn name(&self) -> &'static str {
        "awe_verify"
    }

    fn latency_share(&self) -> f64 {
        0.5
    }

    fn facts(&self) -> Facts {
        Facts {
            items: self.corpus.items.len() as u64,
            bytes: self.corpus.bytes,
            asset_bytes: self.corpus.asset_bytes,
            digest: self.corpus.digest,
            gen_s: self.corpus.gen_s,
            history_ns_per_call: self.corpus.history_ns_per_call,
            content_ns_per_call: self.corpus.content_ns_per_call,
            knowledge_base_entries: self
                .program
                .as_ref()
                .map_or(0, |p| p.knowledge_base_entries() as u64),
            ..Facts::default()
        }
    }

    fn spans_per_pass(&self) -> usize {
        // Match, counts, rank, valid, element, four hashes, identify.
        10 * self.corpus.items.len() + 1
    }

    fn batches(&self) -> usize {
        self.corpus.items.len().div_ceil(BATCH)
    }

    fn set_up(&mut self) {
        self.program = Some(Verifier::build(&mut Off));
    }

    fn rehearse_set_up(&self, tracer: Option<&mut Tracer>) -> f64 {
        with_probe!(tracer, p => timed_build(p, Verifier::build))
    }

    fn pass(
        &mut self,
        tracer: Option<&mut Tracer>,
        clock: Option<&mut RefClock>,
        batch_ns: &mut Vec<u64>,
    ) -> Tally {
        with_probe!(tracer, p => self.run(p, clock, batch_ns))
    }

    fn check(&mut self, tracer: Option<&mut Tracer>) -> (Oracle, Tally) {
        with_probe!(tracer, p => self.run_check(p))
    }
}

// -------------------------------------------------------------- space_plan

/// `plan` over the /16 parents of the IPv4 space; an item is a /24 block.
struct SpacePlan {
    corpus: Parents,
    program: Option<Planner>,
}

impl SpacePlan {
    fn run<P: Probe>(
        &mut self,
        probe: &mut P,
        clock: Option<&mut RefClock>,
        batch_ns: &mut Vec<u64>,
    ) -> Tally {
        let program = self.program.as_mut().expect("set up before a pass");
        let mut tally = Tally::default();
        probe.enter(Layer::Pass);
        // One parent is one batch of 256 items.
        in_batches(&self.corpus.items, 1, clock, batch_ns, |i, &parent| {
            probe.item(i as u32);
            let planned = program.plan(black_box(parent), probe);
            tally.scannable += planned.scannable;
            tally.partial += planned.partial;
        });
        probe.leave();
        tally
    }
}

impl Workload for SpacePlan {
    fn name(&self) -> &'static str {
        "space_plan"
    }

    fn latency_share(&self) -> f64 {
        0.0
    }

    fn facts(&self) -> Facts {
        Facts {
            items: (self.corpus.items.len() * BLOCKS_PER_PARENT) as u64,
            digest: self.corpus.digest,
            gen_s: self.corpus.gen_s,
            excluded_addrs: self.program.as_ref().map_or(0, Planner::excluded_addrs),
            ..Facts::default()
        }
    }

    fn spans_per_pass(&self) -> usize {
        2 * self.corpus.items.len() + 1
    }

    fn batches(&self) -> usize {
        self.corpus.items.len()
    }

    fn set_up(&mut self) {
        self.program = Some(Planner::build(&mut Off));
    }

    fn rehearse_set_up(&self, tracer: Option<&mut Tracer>) -> f64 {
        with_probe!(tracer, p => timed_build(p, Planner::build))
    }

    fn pass(
        &mut self,
        tracer: Option<&mut Tracer>,
        clock: Option<&mut RefClock>,
        batch_ns: &mut Vec<u64>,
    ) -> Tally {
        with_probe!(tracer, p => self.run(p, clock, batch_ns))
    }

    /// No generator could plant truth here, so the check asks the same
    /// question another way (`contains` on each block's first address)
    /// and, over the whole space, holds the sum to
    /// `2^32 − excluded_count()`.
    fn check(&mut self, _tracer: Option<&mut Tracer>) -> (Oracle, Tally) {
        let program = self.program.as_mut().expect("set up before the check");
        let (mut oracle, mut tally) = (Oracle::default(), Tally::default());
        for &parent in &self.corpus.items {
            let planned = program.plan(parent, &mut Off);
            tally.scannable += planned.scannable;
            tally.partial += planned.partial;
            let by_address = program.plan_by_address(parent);
            let ok = planned.partial == 0 && planned.scannable == by_address;
            oracle.twin_mismatches += u64::from(!ok);
            oracle.record(BLOCKS_PER_PARENT as u64, ok, || {
                format!(
                    "space_plan parent {parent}: coverage leaves {} addresses ({} partial \
                     blocks), contains() leaves {by_address}",
                    planned.scannable, planned.partial
                )
            });
        }
        if self.corpus.items.len() == Sizes::FULL.space_parents {
            let expected = (1u64 << 32) - program.excluded_addrs();
            if tally.scannable != expected {
                oracle.failed = oracle.attempted;
                oracle.first_failure.get_or_insert_with(|| {
                    format!(
                        "space_plan: {} scannable addresses, expected 2^32 - excluded = {expected}",
                        tally.scannable
                    )
                });
            }
        }
        (oracle, tally)
    }
}
