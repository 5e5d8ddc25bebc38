//! Name-based virtual hosting and the Certificate-Transparency registry.
//!
//! Section 6.2 of the paper ("Under counting"): an IP-based scan misses
//! applications on shared hosting that are distinguished by the `Host`
//! header, and attackers can do better than a full IPv4 sweep by watching
//! Certificate Transparency logs for newly registered domains — fresh
//! domains often carry *unfinished CMS installations* for a window of
//! time (Böck's "hacking web applications before they are installed").
//!
//! This module models both: virtual hosts with an installation timeline,
//! and the CT log that publishes `(domain, time)` as certificates are
//! issued at registration.

use crate::clock::SimTime;
use nokeys_apps::AppId;
use std::net::Ipv4Addr;

/// Lifecycle state of a virtual host at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VhostState {
    /// Domain not registered yet: the shared host serves its default
    /// page for this name.
    NotRegistered,
    /// Registered, files extracted, installation not completed — the
    /// hijackable window.
    PreInstall,
    /// Owner completed the installation.
    Installed,
}

/// One name-based virtual host on a shared-hosting machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualHost {
    pub domain: String,
    /// The CMS deployed under this name.
    pub app: AppId,
    /// Index into the app's release history.
    pub version_index: usize,
    /// When the domain was registered (certificate issued → CT entry).
    pub registered_at: SimTime,
    /// When the owner completes the installation.
    pub installed_at: SimTime,
}

impl VirtualHost {
    /// State at time `t`.
    pub fn state_at(&self, t: SimTime) -> VhostState {
        if t < self.registered_at {
            VhostState::NotRegistered
        } else if t < self.installed_at {
            VhostState::PreInstall
        } else {
            VhostState::Installed
        }
    }

    /// The hijackable window length in seconds.
    pub fn race_window_secs(&self) -> i64 {
        self.installed_at.since(self.registered_at).as_secs()
    }
}

/// A Certificate-Transparency log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtEntry {
    pub domain: String,
    /// Where the domain points (the attacker resolves DNS).
    pub ip: Ipv4Addr,
    /// When the certificate hit the log.
    pub logged_at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;

    fn vhost() -> VirtualHost {
        VirtualHost {
            domain: "fresh-blog.example".to_string(),
            app: AppId::WordPress,
            version_index: 0,
            registered_at: SimTime(1000),
            installed_at: SimTime(1000) + SimDuration::hours(8),
        }
    }

    #[test]
    fn state_transitions() {
        let v = vhost();
        assert_eq!(v.state_at(SimTime(0)), VhostState::NotRegistered);
        assert_eq!(v.state_at(SimTime(1000)), VhostState::PreInstall);
        assert_eq!(
            v.state_at(SimTime(1000) + SimDuration::hours(7)),
            VhostState::PreInstall
        );
        assert_eq!(
            v.state_at(SimTime(1000) + SimDuration::hours(8)),
            VhostState::Installed
        );
    }

    #[test]
    fn race_window() {
        assert_eq!(vhost().race_window_secs(), 8 * 3600);
    }
}
