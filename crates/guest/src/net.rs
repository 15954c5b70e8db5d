//! The simulated attacker-side network: a listener and reverse-shell
//! sessions.
//!
//! Models the `nc -l -vvv -p 1234` step of the XSA-148 experiment: the
//! attacker listens on a port, the backdoored vDSO in the victim domain
//! connects out, and the attacker runs commands with the privileges of
//! the process that tripped the backdoor.

use crate::process::Uid;
use hvsim_mem::DomainId;
use std::fmt;
use std::sync::Arc;

/// Identifier of an established shell session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub usize);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// One established reverse-shell session.
#[derive(Clone, Debug)]
pub struct ShellSession {
    /// The compromised domain the shell runs in.
    pub domain: DomainId,
    /// Privileges of the process the backdoor hijacked.
    pub uid: Uid,
    /// Commands executed and their output.
    pub transcript: Vec<(String, String)>,
}

/// One line of the listener's console, kept as what happened and
/// formatted only when the log is read.
#[derive(Clone, Debug)]
enum ListenerEvent {
    Listening,
    Connection { peer: &'static str, domain: DomainId, uid: Uid },
}

/// The attacker's remote listener.
///
/// The host name is shared between clones; the sessions and the log are
/// empty until the listener runs, so cloning a fresh host allocates
/// nothing.
#[derive(Clone, Debug)]
pub struct RemoteHost {
    host: Arc<str>,
    port: u16,
    listening: bool,
    sessions: Vec<ShellSession>,
    log: Vec<ListenerEvent>,
}

impl RemoteHost {
    /// A host that is not yet listening.
    pub fn new(host: &str, port: u16) -> Self {
        Self {
            host: host.into(),
            port,
            listening: false,
            sessions: Vec::new(),
            log: Vec::new(),
        }
    }

    /// The listener address.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Gives this host its own copy of the host name, so its clones bump
    /// a reference count that clones of the host it was cloned from do
    /// not.
    pub(crate) fn unshare(&mut self) {
        self.host = Arc::from(&*self.host);
    }

    /// The reference count of the host name (how many hosts share it).
    pub(crate) fn share_count(&self) -> usize {
        Arc::strong_count(&self.host)
    }

    /// The listener port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Starts listening (`nc -l -vvv -p <port>`).
    pub fn listen(&mut self) {
        self.listening = true;
        self.log.push(ListenerEvent::Listening);
    }

    /// An inbound connection from a compromised guest. Returns the new
    /// session, or `None` if nobody is listening (the connection is
    /// simply lost, as in the real experiment).
    pub fn accept(&mut self, domain: DomainId, uid: Uid, peer: &'static str) -> Option<SessionId> {
        if !self.listening {
            return None;
        }
        self.log.push(ListenerEvent::Connection { peer, domain, uid });
        self.sessions.push(ShellSession {
            domain,
            uid,
            transcript: Vec::new(),
        });
        Some(SessionId(self.sessions.len() - 1))
    }

    /// Established sessions.
    pub fn sessions(&self) -> &[ShellSession] {
        &self.sessions
    }

    /// A session by id.
    pub fn session(&self, id: SessionId) -> Option<&ShellSession> {
        self.sessions.get(id.0)
    }

    pub(crate) fn session_mut(&mut self, id: SessionId) -> Option<&mut ShellSession> {
        self.sessions.get_mut(id.0)
    }

    /// The listener's console log, oldest first.
    pub fn log(&self) -> impl DoubleEndedIterator<Item = String> + '_ {
        let port = self.port;
        self.log.iter().map(move |event| match event {
            ListenerEvent::Listening => format!("Listening on [0.0.0.0] (family 0, port {port})"),
            ListenerEvent::Connection { peer, domain, uid } => {
                format!("Connection from [{peer}] port {port} [tcp/*] ({domain}, uid {uid})")
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_requires_listener() {
        let mut host = RemoteHost::new("10.3.1.99", 1234);
        assert!(host.accept(DomainId::DOM0, Uid::ROOT, "10.3.1.181").is_none());
        host.listen();
        let id = host.accept(DomainId::DOM0, Uid::ROOT, "10.3.1.181").unwrap();
        assert_eq!(id, SessionId(0));
        assert_eq!(host.sessions().len(), 1);
        assert_eq!(host.session(id).unwrap().uid, Uid::ROOT);
        assert!(host.log().any(|l| l.contains("Connection from")));
    }

    #[test]
    fn multiple_sessions() {
        let mut host = RemoteHost::new("h", 1);
        host.listen();
        let a = host.accept(DomainId::new(1), Uid::new(5), "p").unwrap();
        let b = host.accept(DomainId::new(2), Uid::ROOT, "p").unwrap();
        assert_ne!(a, b);
        assert_eq!(host.session(b).unwrap().domain, DomainId::new(2));
        assert!(host.session(SessionId(9)).is_none());
    }
}
