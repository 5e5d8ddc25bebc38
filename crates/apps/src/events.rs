//! Events emitted by application models while handling requests.
//!
//! The honeypot's audit monitor (the analog of the paper's Auditbeat
//! deployment) records these events together with the source IP and the
//! virtual timestamp. "Attack" in the paper is defined as the *successful
//! execution of a system command through the exposed sensitive
//! functionality*; [`AppEvent::as_execution`] encodes that definition.

use nokeys_http::Response;

/// A security-relevant state transition inside an application model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppEvent {
    /// A system command was executed (terminal, build step, script check,
    /// template code, ...).
    CommandExecuted { command: String },
    /// An SQL statement was executed against the backing database.
    SqlExecuted { query: String },
    /// A container/pod was started with the given command — code execution
    /// on cluster managers.
    ContainerStarted { image: String, command: String },
    /// A job carrying an arbitrary payload was submitted to a scheduler.
    JobSubmitted { payload: String },
    /// An unfinished installation was completed, creating admin
    /// credentials chosen by the requester (trust-on-first-use hijack).
    InstallCompleted { admin_user: String },
    /// An interactive terminal session was opened.
    TerminalOpened,
    /// The application was asked to shut down (the "vigilante" behaviour
    /// observed on Jupyter Lab).
    ShutdownRequested,
}

impl AppEvent {
    /// If this event constitutes code execution in the paper's sense,
    /// return the executed payload.
    pub fn as_execution(&self) -> Option<&str> {
        match self {
            AppEvent::CommandExecuted { command } => Some(command),
            AppEvent::ContainerStarted { command, .. } => Some(command),
            AppEvent::JobSubmitted { payload } => Some(payload),
            AppEvent::SqlExecuted { query } => Some(query),
            _ => None,
        }
    }

    /// Whether this event marks the instance as compromised.
    pub fn is_compromise(&self) -> bool {
        self.as_execution().is_some() || matches!(self, AppEvent::InstallCompleted { .. })
    }
}

/// Result of handling one request: the HTTP response plus any events.
#[derive(Debug, Clone)]
pub struct HandleOutcome {
    pub response: Response,
    pub events: Vec<AppEvent>,
}

impl HandleOutcome {
    /// A response with no events.
    pub fn plain(response: Response) -> Self {
        HandleOutcome {
            response,
            events: Vec::new(),
        }
    }

    /// A response with one event.
    pub fn with_event(response: Response, event: AppEvent) -> Self {
        HandleOutcome {
            response,
            events: vec![event],
        }
    }
}

impl From<Response> for HandleOutcome {
    fn from(response: Response) -> Self {
        HandleOutcome::plain(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execution_classification() {
        assert_eq!(
            AppEvent::CommandExecuted {
                command: "id".into()
            }
            .as_execution(),
            Some("id")
        );
        assert_eq!(
            AppEvent::ContainerStarted {
                image: "alpine".into(),
                command: "sh".into()
            }
            .as_execution(),
            Some("sh")
        );
        assert_eq!(AppEvent::TerminalOpened.as_execution(), None);
        assert_eq!(AppEvent::ShutdownRequested.as_execution(), None);
    }

    #[test]
    fn install_is_compromise_but_not_execution() {
        let e = AppEvent::InstallCompleted {
            admin_user: "evil".into(),
        };
        assert!(e.is_compromise());
        assert!(e.as_execution().is_none());
    }

    #[test]
    fn outcome_constructors() {
        let o = HandleOutcome::plain(Response::text("x"));
        assert!(o.events.is_empty());
        let o = HandleOutcome::with_event(Response::text("x"), AppEvent::TerminalOpened);
        assert_eq!(o.events.len(), 1);
    }
}
