//! Kill-and-resume rehearsal for checkpointed scans.
//!
//! [`KillableTransport`] lets a test simulate a scanner process dying
//! mid-run: after a budget of network operations, every further probe
//! or connect *tears its calling thread down* instead of answering. The
//! teardown is an unwind carrying a [`Killed`] payload (raised with
//! `resume_unwind`, so no panic message is printed): no pipeline code
//! runs between the refused operation and the end of the worker thread,
//! which is the closest a thread can come to `kill -9` — the pipeline
//! cannot finish its batch, clean up, or write a farewell checkpoint.
//! Workers that are between network operations when the budget runs out
//! die at their next one, exactly as threads of a killed process stop
//! at arbitrary points. The scan surfaces the dead worker as an error;
//! the test then resumes a fresh pipeline from whatever checkpoint
//! log the dead one left behind.
//!
//! The wrapper does not pass on its inner transport's
//! [`live_addresses`](Transport::live_addresses), so a stage-I sweep
//! through it probes every address of every block: a budget counts one
//! operation per (address, port) pair, however sparse the universe.

use nokeys_http::{Attempt, Endpoint, FaultObserver, ProbeOutcome, Result, Scheme, Transport};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The unwind payload of an operation refused by a tripped
/// [`KillSwitch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Killed;

/// Shared operation budget with a trip flag. Clones share the budget.
#[derive(Debug, Clone)]
pub struct KillSwitch {
    budget: u64,
    remaining: Arc<AtomicU64>,
    tripped: Arc<AtomicBool>,
}

impl KillSwitch {
    /// A switch that admits `ops` operations, then trips.
    pub fn after(ops: u64) -> Self {
        KillSwitch {
            budget: ops,
            remaining: Arc::new(AtomicU64::new(ops)),
            tripped: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Operations admitted so far.
    pub fn used(&self) -> u64 {
        self.budget - self.remaining.load(Ordering::SeqCst)
    }

    /// Whether the budget has been exhausted and an operation refused.
    /// The budget alone running out does not trip the switch — an
    /// operation must actually be refused, i.e. the wrapped process is
    /// genuinely dead.
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::SeqCst)
    }

    /// Consume one unit of budget for a probe or connect, or kill the
    /// calling thread.
    fn admit(&self) {
        let spent = self
            .remaining
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                left.checked_sub(1)
            });
        if spent.is_err() {
            self.tripped.store(true, Ordering::SeqCst);
            std::panic::resume_unwind(Box::new(Killed));
        }
    }
}

/// Wrap any [`Transport`] so its callers die after the switch's budget.
#[derive(Debug, Clone)]
pub struct KillableTransport<T> {
    inner: T,
    switch: KillSwitch,
}

impl<T> KillableTransport<T> {
    pub fn new(inner: T, switch: KillSwitch) -> Self {
        KillableTransport { inner, switch }
    }

    /// The switch governing this transport.
    pub fn switch(&self) -> &KillSwitch {
        &self.switch
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Transport> Transport for KillableTransport<T> {
    type Conn = T::Conn;

    fn probe(&self, ep: Endpoint, attempt: Attempt<'_>) -> ProbeOutcome {
        self.switch.admit();
        self.inner.probe(ep, attempt)
    }

    fn connect(&self, ep: Endpoint, scheme: Scheme, attempt: Attempt<'_>) -> Result<T::Conn> {
        self.switch.admit();
        self.inner.connect(ep, scheme, attempt)
    }

    fn report_faults_to(&mut self, observer: FaultObserver) {
        self.inner.report_faults_to(observer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimTransport, Universe, UniverseConfig};
    use std::net::Ipv4Addr;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn transport() -> SimTransport {
        SimTransport::new(Arc::new(Universe::generate(UniverseConfig::tiny(1))))
    }

    /// Run `op` and report whether the switch killed it.
    fn killed<R>(op: impl FnOnce() -> R) -> bool {
        match catch_unwind(AssertUnwindSafe(op)) {
            Ok(_) => false,
            Err(payload) => {
                assert!(payload.is::<Killed>(), "only the switch may unwind here");
                true
            }
        }
    }

    #[test]
    fn operations_within_budget_pass_through() {
        let switch = KillSwitch::after(4);
        let t = KillableTransport::new(transport(), switch.clone());
        for i in 0..4u8 {
            let _ = t.probe(
                Endpoint::new(Ipv4Addr::new(20, 0, 0, i), 80),
                Attempt::FIRST,
            );
        }
        assert_eq!(switch.used(), 4);
        assert!(
            !switch.is_tripped(),
            "budget exhaustion alone must not trip"
        );
    }

    #[test]
    fn exhausted_budget_kills_the_caller_and_trips() {
        let switch = KillSwitch::after(1);
        let t = KillableTransport::new(transport(), switch.clone());
        let ep = Endpoint::new(Ipv4Addr::new(20, 0, 0, 1), 80);
        let first = Attempt::FIRST;
        assert!(!killed(|| t.probe(ep, first)));
        assert!(killed(|| t.probe(ep, first)));
        assert!(switch.is_tripped());
        assert_eq!(switch.used(), 1);
        // Dead stays dead, on every lane.
        assert!(killed(|| t.connect(ep, Scheme::Http, first).map(drop)));
    }

    #[test]
    fn clones_share_one_budget_across_threads() {
        let switch = KillSwitch::after(3);
        let a = KillableTransport::new(transport(), switch.clone());
        let b = a.clone();
        let ep = Endpoint::new(Ipv4Addr::new(20, 0, 0, 2), 80);
        let _ = a.probe(ep, Attempt::FIRST);
        let _ = b.probe(ep, Attempt::FIRST);
        let _ = a.probe(ep, Attempt::FIRST);
        assert_eq!(switch.used(), 3);
        // The fourth operation dies on whichever thread issues it, and
        // the join surfaces the payload.
        let died = std::thread::spawn(move || b.probe(ep, Attempt::FIRST)).join();
        assert!(died.unwrap_err().is::<Killed>());
        assert!(switch.is_tripped());
    }
}
