//! The simulated attacker-side network: a listener and reverse-shell
//! sessions.
//!
//! Models the `nc -l -vvv -p 1234` step of the XSA-148 experiment: the
//! attacker listens on a port, the backdoored vDSO in the victim domain
//! connects out, and the attacker runs commands with the privileges of
//! the process that tripped the backdoor.

use crate::process::Uid;
use crate::vfs::VfsError;
use hvsim_mem::DomainId;
use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// Identifier of an established shell session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub usize);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// What one shell command printed, kept as the values it printed and
/// rendered only when read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShellOutput {
    /// `whoami`: the session's account name.
    Whoami(Uid),
    /// `hostname`: the domain's host name, shared with its kernel.
    Hostname(Arc<str>),
    /// `id`: the session's `id(1)` line.
    Id(Uid),
    /// `cat`: the file's contents, shared with the file system and shown
    /// as UTF-8 with each invalid sequence replaced.
    File(Arc<[u8]>),
    /// `cat` of a file that is missing or unreadable.
    CatFailed(VfsError),
    /// `ls <prefix>`: the matching paths, a line each.
    Listing(Vec<Arc<str>>),
    /// Any other command.
    NotFound(String),
}

impl fmt::Display for ShellOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShellOutput::Whoami(uid) => f.write_str(&uid.name()),
            ShellOutput::Hostname(host) => f.write_str(host),
            ShellOutput::Id(uid) => f.write_str(&uid.id_string()),
            ShellOutput::File(data) => f.write_str(&String::from_utf8_lossy(data)),
            ShellOutput::CatFailed(e) => write!(f, "cat: {e}"),
            ShellOutput::Listing(paths) => write_lines(f, paths, '\n'),
            ShellOutput::NotFound(cmd) => write!(f, "sh: {cmd}: command not found"),
        }
    }
}

/// Writes `items` separated by `sep`.
fn write_lines<T: fmt::Display>(f: &mut fmt::Formatter<'_>, items: &[T], sep: char) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_char(sep)?;
        }
        write!(f, "{item}")?;
    }
    Ok(())
}

/// One command's output: an output per `&&`-chained part, shown a line
/// each. Copies share the outputs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShellReply(Arc<[ShellOutput]>);

impl ShellReply {
    pub(crate) fn new(outputs: Arc<[ShellOutput]>) -> Self {
        Self(outputs)
    }

    /// The outputs, one per chained part.
    pub fn outputs(&self) -> &[ShellOutput] {
        &self.0
    }
}

impl fmt::Display for ShellReply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_lines(f, &self.0, '\n')
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
    pub transcript: Vec<(Cow<'static, str>, ShellReply)>,
    /// The address the connection came from.
    peer: &'static str,
    /// How many times the listener had started when this session
    /// connected, which places its line in the listener's log.
    listens: u32,
}

/// The attacker's remote listener.
///
/// The host name is shared between clones; the sessions are empty until
/// the listener runs, so cloning a fresh host allocates nothing. The
/// listener's console log is rendered from the sessions when read.
#[derive(Clone, Debug)]
pub struct RemoteHost {
    host: Arc<str>,
    port: u16,
    /// How many times the listener started; each start logs a line.
    listens: u32,
    sessions: Vec<ShellSession>,
}

impl RemoteHost {
    /// A host that is not yet listening.
    pub fn new(host: &str, port: u16) -> Self {
        Self {
            host: host.into(),
            port,
            listens: 0,
            sessions: Vec::new(),
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
        self.listens += 1;
    }

    /// An inbound connection from a compromised guest. Returns the new
    /// session, or `None` if nobody is listening (the connection is
    /// simply lost, as in the real experiment).
    pub fn accept(&mut self, domain: DomainId, uid: Uid, peer: &'static str) -> Option<SessionId> {
        if self.listens == 0 {
            return None;
        }
        self.sessions.push(ShellSession {
            domain,
            uid,
            transcript: Vec::new(),
            peer,
            listens: self.listens,
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

    /// The listener's console log, oldest first: a line per start and
    /// per connection.
    pub fn log(&self) -> impl Iterator<Item = String> + '_ {
        let port = self.port;
        let starts = move |n: u32| {
            (0..n).map(move |_| format!("Listening on [0.0.0.0] (family 0, port {port})"))
        };
        let mut started = 0;
        let connections = self.sessions.iter().flat_map(move |s| {
            let lines = starts(s.listens - started);
            started = s.listens;
            let (peer, domain, uid) = (s.peer, s.domain, s.uid);
            lines.chain(std::iter::once_with(move || {
                format!("Connection from [{peer}] port {port} [tcp/*] ({domain}, uid {uid})")
            }))
        });
        let last = self.sessions.last().map_or(0, |s| s.listens);
        connections.chain(starts(self.listens - last))
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

    /// Every kind of shell output renders the text the shell printed
    /// when it built its output as a string; a reply shows a line per
    /// chained part.
    #[test]
    fn shell_outputs_render_the_text_the_shell_printed() {
        let cases = [
            (ShellOutput::Whoami(Uid::ROOT), "root"),
            (ShellOutput::Whoami(Uid::new(1000)), "user1000"),
            (ShellOutput::Hostname("xen3".into()), "xen3"),
            (ShellOutput::Id(Uid::ROOT), "uid=0(root) gid=0(root) groups=0(root)"),
            (
                ShellOutput::Id(Uid::new(7)),
                "uid=7(user7) gid=7(user7) groups=7(user7)",
            ),
            (
                ShellOutput::File(Arc::from(&b"Confidential content in root folder!"[..])),
                "Confidential content in root folder!",
            ),
            (ShellOutput::File(Arc::from(&b"a\xffb\xe2\x82"[..])), "a\u{fffd}b\u{fffd}"),
            (
                ShellOutput::CatFailed(VfsError::Denied("/root/root_msg".into())),
                "cat: permission denied: /root/root_msg",
            ),
            (ShellOutput::CatFailed(VfsError::NotFound("/x".into())), "cat: no such file: /x"),
            (ShellOutput::Listing(vec!["/root/a".into(), "/root/b".into()]), "/root/a\n/root/b"),
            (ShellOutput::Listing(Vec::new()), ""),
            (ShellOutput::NotFound("rm -rf /".into()), "sh: rm -rf /: command not found"),
        ];
        for (output, want) in &cases {
            assert_eq!(output.to_string(), *want, "{output:?}");
        }
        let reply = ShellReply::new(Arc::from([cases[0].0.clone(), cases[2].0.clone()]));
        assert_eq!(reply.to_string(), "root\nxen3");
        assert_eq!(ShellReply::default().to_string(), "");
    }

    /// The log renders a line per start and per connection in the order
    /// they happened, however the two interleave.
    #[test]
    fn the_log_interleaves_starts_and_connections() {
        let mut host = RemoteHost::new("h", 7);
        assert_eq!(host.log().count(), 0);
        host.listen();
        host.accept(DomainId::DOM0, Uid::ROOT, "a");
        host.listen();
        host.listen();
        host.accept(DomainId::new(1), Uid::new(5), "b");
        host.listen();
        let listening = "Listening on [0.0.0.0] (family 0, port 7)";
        assert_eq!(
            host.log().collect::<Vec<_>>(),
            [
                listening,
                "Connection from [a] port 7 [tcp/*] (dom0, uid 0)",
                listening,
                listening,
                "Connection from [b] port 7 [tcp/*] (dom1, uid 5)",
                listening,
            ]
        );
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
