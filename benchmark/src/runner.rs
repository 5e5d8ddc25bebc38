//! The measurement procedure: cold set-ups, one checked pass, then timed
//! passes — single-threaded and closed-loop, the workloads' passes
//! interleaved round-robin so a noisy minute hits all of them alike.

use crate::alloc::Snapshot;
use crate::clock::{RefClock, Slowdown};
use crate::corpus::Sizes;
use crate::metrics::{self, Metric};
use crate::oracle::Oracle;
use crate::trace::{LayerTotals, Span, Tracer};
use crate::workloads::{self, Facts, Tally, Workload};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Timed work per workload, in seconds.
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

/// Cold set-ups sampled before every pass: at least this many, and more
/// for as long as the block is shorter than `SETUP_BLOCK_S` (`space_plan`
/// builds one 26-entry list in under a microsecond). Spread over the run
/// like this, their median does not hang on the machine's state at one
/// moment. With `PASSES` passes that is 45 samples at least.
const SETUPS_PER_PASS: usize = 3;
const SETUP_BLOCK_S: f64 = 0.002;
const SETUP_BLOCK_MAX: usize = 4_000;
/// Set-up code allocates, parses and fills tables: taken as half bound by
/// latency, half by issue width, for every workload.
const SETUP_LATENCY_SHARE: f64 = 0.5;
/// Timed passes per run, at least.
const PASSES: usize = 15;
/// In a traced run the untraced passes (the base of
/// `bench.trace_overhead_share`) get this share of the time.
const UNTRACED_SHARE: f64 = 0.4;
const TRACED_PASSES: usize = 3;
/// Spans of the last traced pass kept for the trace file.
pub const TRACE_FILE_SPANS: usize = 20_000;

/// Everything measured on one workload.
pub struct Measured {
    pub facts: Facts,
    pub oracle: Oracle,
    pub tally: Tally,
    /// Whether every timed pass produced what the checked pass produced.
    pub passes_agree: bool,
    /// Which mix of the reference clock's readings tracks the workload.
    pub latency_share: f64,
    /// Every cold set-up, in wall seconds and in reference seconds.
    pub setup_s: Vec<f64>,
    pub setup_ref_s: Vec<f64>,
    /// Every untraced pass, in wall seconds and in reference seconds, and
    /// the machine's slow-down during each.
    pub pass_s: Vec<f64>,
    pub pass_ref_s: Vec<f64>,
    pub pass_slowdown: Vec<Slowdown>,
    /// Time of every batch of every untraced pass.
    pub batch_ns: Vec<u64>,
    /// Items in a full batch.
    pub batch_items: u64,
    /// Heap allocations made inside the untraced passes.
    pub allocated: Snapshot,
    pub traced: Option<Traced>,
}

/// What only a traced run has.
pub struct Traced {
    pub setups: Vec<LayerTotals>,
    pub check: LayerTotals,
    pub passes: Vec<LayerTotals>,
    /// Every traced pass in reference seconds, and the share of its time
    /// that the layers' spans account for.
    pub pass_ref_s: Vec<f64>,
    pub coverage: Vec<f64>,
    /// The head of the last traced pass, for the trace file.
    pub sample: Vec<Span>,
}

/// One workload's results, ready to print.
pub struct Outcome {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub passes: usize,
    pub digest: u64,
    pub first_failure: Option<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub trace_sample: Vec<Span>,
}

struct Lane {
    workload: Box<dyn Workload>,
    ref_clock: RefClock,
    measured: Measured,
    batch_scratch: Vec<u64>,
    timed_s: f64,
    traced_s: f64,
}

/// Measure the named workloads. `None` if a name is unknown.
pub fn run(names: &[&str], cfg: &Config) -> Option<Vec<Outcome>> {
    let mut made = Vec::new();
    let mut spans = 0;
    for name in names {
        let workload = workloads::make(name, cfg.seed, cfg.sizes)?;
        spans = spans.max(workload.spans_per_pass());
        made.push(workload);
    }
    let mut tracer = cfg.trace.then(|| Tracer::with_capacity(spans));
    let mut lanes: Vec<Lane> = made
        .into_iter()
        .map(|workload| prepare(workload, tracer.as_mut()))
        .collect();

    let untraced_s = if cfg.trace {
        cfg.seconds * UNTRACED_SHARE
    } else {
        cfg.seconds
    };
    round_robin(&mut lanes, |lane| {
        let due = lane.timed_s < untraced_s || lane.measured.pass_s.len() < PASSES;
        if due {
            timed_pass(lane);
        }
        due
    });
    if let Some(tracer) = tracer.as_mut() {
        let traced_s = cfg.seconds - untraced_s;
        round_robin(&mut lanes, |lane| {
            let traced = lane.measured.traced.as_ref().expect("traced run");
            let due = lane.traced_s < traced_s || traced.passes.len() < TRACED_PASSES;
            if due {
                traced_pass(lane, tracer);
            }
            due
        });
    }
    Some(lanes.into_iter().map(finish).collect())
}

/// Give every lane a turn, again and again, until none takes one.
fn round_robin(lanes: &mut [Lane], mut turn: impl FnMut(&mut Lane) -> bool) {
    loop {
        let mut any = false;
        for lane in lanes.iter_mut() {
            any |= turn(lane);
        }
        if !any {
            break;
        }
    }
}

/// The one kept set-up, the checked pass and one warm-up pass.
fn prepare(mut workload: Box<dyn Workload>, mut tracer: Option<&mut Tracer>) -> Lane {
    workload.set_up();
    let (oracle, tally) = workload.check(tracer.as_deref_mut());
    let traced = tracer.map(|tracer| {
        let check = LayerTotals::of(tracer.spans());
        tracer.clear();
        Traced {
            setups: Vec::new(),
            check,
            passes: Vec::new(),
            pass_ref_s: Vec::new(),
            coverage: Vec::new(),
            sample: Vec::new(),
        }
    });

    let mut batch_scratch = Vec::with_capacity(workload.batches());
    let warm_up = workload.pass(None, None, &mut batch_scratch);
    // Facts after the check: it fills in what the twins read.
    let facts = workload.facts();
    Lane {
        measured: Measured {
            facts,
            oracle,
            tally,
            passes_agree: warm_up == tally,
            latency_share: workload.latency_share(),
            setup_s: Vec::new(),
            setup_ref_s: Vec::new(),
            pass_s: Vec::new(),
            pass_ref_s: Vec::new(),
            pass_slowdown: Vec::new(),
            batch_ns: Vec::new(),
            batch_items: facts.items / workload.batches().max(1) as u64,
            allocated: Snapshot::default(),
            traced,
        },
        workload,
        ref_clock: RefClock::new(),
        batch_scratch,
        timed_s: 0.0,
        traced_s: 0.0,
    }
}

/// A block of cold set-ups beside the kept one, the reference clock
/// ticking between them. A traced block stops at `SETUPS_PER_PASS` and
/// feeds the per-layer build times only.
fn set_up_block(lane: &mut Lane, mut tracer: Option<&mut Tracer>) {
    let m = &mut lane.measured;
    let mut block = Vec::new();
    let started = Instant::now();
    while block.len() < SETUPS_PER_PASS
        || (tracer.is_none()
            && started.elapsed().as_secs_f64() < SETUP_BLOCK_S
            && block.len() < SETUP_BLOCK_MAX)
    {
        let took = lane.workload.rehearse_set_up(tracer.as_deref_mut());
        lane.ref_clock.worked((took * 1e9) as u64);
        if let (Some(tracer), Some(traced)) = (tracer.as_deref_mut(), m.traced.as_mut()) {
            traced.setups.push(LayerTotals::of(tracer.spans()));
            tracer.clear();
        }
        block.push(took);
    }
    let slowdown = lane.ref_clock.take().blend(SETUP_LATENCY_SHARE);
    if tracer.is_none() {
        m.setup_ref_s.extend(block.iter().map(|s| s / slowdown));
        m.setup_s.append(&mut block);
    }
}

/// The pass took the sum of its batches; the ticks between them are not
/// the workload's.
fn seconds(batch_ns: &[u64]) -> f64 {
    batch_ns.iter().sum::<u64>() as f64 / 1e9
}

fn timed_pass(lane: &mut Lane) {
    set_up_block(lane, None);
    lane.batch_scratch.clear();
    let before = Snapshot::now();
    let tally = lane
        .workload
        .pass(None, Some(&mut lane.ref_clock), &mut lane.batch_scratch);
    let allocated = Snapshot::now().since(before);
    let took = seconds(&lane.batch_scratch);

    let m = &mut lane.measured;
    m.passes_agree &= tally == m.tally;
    let slowdown = lane.ref_clock.take();
    m.pass_s.push(took);
    m.pass_ref_s.push(took / slowdown.blend(m.latency_share));
    m.pass_slowdown.push(slowdown);
    m.batch_ns.extend_from_slice(&lane.batch_scratch);
    m.allocated.calls += allocated.calls;
    m.allocated.bytes += allocated.bytes;
    lane.timed_s += took;
}

fn traced_pass(lane: &mut Lane, tracer: &mut Tracer) {
    set_up_block(lane, Some(tracer));
    lane.batch_scratch.clear();
    let tally = lane.workload.pass(
        Some(tracer),
        Some(&mut lane.ref_clock),
        &mut lane.batch_scratch,
    );
    let took = seconds(&lane.batch_scratch);
    let slowdown = lane.ref_clock.take().blend(lane.measured.latency_share);

    let m = &mut lane.measured;
    m.passes_agree &= tally == m.tally;
    let traced = m.traced.as_mut().expect("traced run");
    let totals = LayerTotals::of(tracer.spans());
    // The pass span also holds the clock's ticks; the batches do not.
    traced.coverage.push(totals.program_ns() / (took * 1e9));
    traced.passes.push(totals);
    traced.pass_ref_s.push(took / slowdown);
    let head = tracer.spans().len().min(TRACE_FILE_SPANS);
    traced.sample.clear();
    traced.sample.extend_from_slice(&tracer.spans()[..head]);
    tracer.clear();
    lane.traced_s += took;
}

fn finish(lane: Lane) -> Outcome {
    let mut m = lane.measured;
    let mut per_layer = metrics::untraced(&m);
    if let Some(traced) = &m.traced {
        per_layer.extend(metrics::traced(&m, traced));
    }
    Outcome {
        workload: lane.workload.name(),
        correct: m.oracle.failed == 0 && m.passes_agree,
        attempted: m.oracle.attempted,
        failed: m.oracle.failed,
        passes: m.pass_s.len(),
        digest: m.facts.digest,
        first_failure: m.oracle.first_failure.take().or_else(|| {
            (!m.passes_agree).then(|| {
                format!(
                    "{}: a timed pass produced other outputs than the checked pass",
                    lane.workload.name()
                )
            })
        }),
        end_to_end: metrics::end_to_end(&m),
        per_layer,
        trace_sample: m.traced.map(|t| t.sample).unwrap_or_default(),
    }
}
