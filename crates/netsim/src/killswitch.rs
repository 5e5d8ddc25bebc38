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

use crate::ip::Cidr;
use nokeys_http::{
    Attempt, BlockSweepResult, Endpoint, FaultObserver, ProbeOutcome, Result, Scheme, Transport,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The unwind payload of an operation refused by a tripped
/// [`KillSwitch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Killed;

/// Shared operation budget with a trip flag. Clones share the budget.
#[derive(Debug, Clone)]
pub struct KillSwitch {
    remaining: Arc<AtomicU64>,
    used: Arc<AtomicU64>,
    tripped: Arc<AtomicBool>,
}

impl KillSwitch {
    /// A switch that admits `ops` operations, then trips.
    pub fn after(ops: u64) -> Self {
        KillSwitch {
            remaining: Arc::new(AtomicU64::new(ops)),
            used: Arc::new(AtomicU64::new(0)),
            tripped: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Operations admitted so far.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::SeqCst)
    }

    /// Whether the budget has been exhausted and an operation refused.
    /// The budget alone running out does not trip the switch — an
    /// operation must actually be refused, i.e. the wrapped process is
    /// genuinely dead.
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::SeqCst)
    }

    /// Consume `n` units of budget as one batched operation (a block
    /// sweep, or `n = 1` for a probe or connect), or kill the calling
    /// thread. If fewer than `n` units remain, whatever is left is
    /// consumed before dying — the process died partway through the
    /// batch, so [`used`](Self::used) totals stay identical to
    /// admitting the same work one unit at a time.
    fn admit(&self, n: u64) {
        let before = self
            .remaining
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                Some(left.saturating_sub(n))
            })
            .expect("the update closure never declines");
        self.used.fetch_add(before.min(n), Ordering::SeqCst);
        if before < n {
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
        self.switch.admit(1);
        self.inner.probe(ep, attempt)
    }

    fn connect(&self, ep: Endpoint, scheme: Scheme, attempt: Attempt<'_>) -> Result<T::Conn> {
        self.switch.admit(1);
        self.inner.connect(ep, scheme, attempt)
    }

    fn sweep_block(&self, block: Cidr, ports: &[u16]) -> BlockSweepResult {
        // Charge exactly what a per-endpoint loop would have: one
        // operation per (address, port) pair, regardless of how many
        // probes the inner transport evaluates individually, so test
        // budgets do not depend on how sparse the universe is.
        self.switch.admit(block.size() * ports.len() as u64);
        self.inner.sweep_block(block, ports)
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
    fn sweeps_charge_dense_ops_and_consume_the_remainder_on_death() {
        let block: Cidr = "20.0.1.0/24".parse().unwrap();
        // Budget for one 2-port sweep (512 dense ops) plus 88 spare.
        let switch = KillSwitch::after(600);
        let t = KillableTransport::new(transport(), switch.clone());
        assert!(!killed(|| t.sweep_block(block, &[80, 443])));
        assert_eq!(switch.used(), 512, "sweeps charge the dense op count");
        assert!(!switch.is_tripped());

        // The next sweep needs 512 but only 88 remain: the process dies
        // mid-batch, so the remainder is consumed.
        assert!(killed(|| t.sweep_block(block, &[80, 443])));
        assert_eq!(switch.used(), 600, "partial batch still burns the budget");
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
