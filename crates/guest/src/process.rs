//! Processes and user ids.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Root's `id(1)` line.
const ROOT_ID: &str = "uid=0(root) gid=0(root) groups=0(root)";

/// A numeric user id; 0 is root.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Uid(u32);

impl Uid {
    /// The superuser.
    pub const ROOT: Uid = Uid(0);

    /// Creates a uid.
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// The raw id.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// `true` for root.
    pub const fn is_root(self) -> bool {
        self.0 == 0
    }

    /// The `id(1)`-style description, as the paper's exploit output
    /// prints it (`uid=0(root) gid=0(root) groups=0(root)`); root's is a
    /// constant.
    pub fn id_string(self) -> Cow<'static, str> {
        if self.is_root() {
            Cow::Borrowed(ROOT_ID)
        } else {
            format!("uid={0}(user{0}) gid={0}(user{0}) groups={0}(user{0})", self.0).into()
        }
    }

    /// The account name (`whoami`); root's is a constant.
    pub fn name(self) -> Cow<'static, str> {
        if self.is_root() {
            Cow::Borrowed("root")
        } else {
            format!("user{}", self.0).into()
        }
    }
}

impl fmt::Display for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A process inside a guest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Process {
    /// Process id (unique within its guest).
    pub pid: u32,
    /// Owner.
    pub uid: Uid,
    /// Command name, shared by every copy of the process table.
    pub name: Arc<str>,
    /// Whether the process periodically calls into the vDSO (the hook the
    /// XSA-148 backdoor triggers through).
    pub calls_vdso: bool,
}

impl Process {
    /// Creates a process record.
    pub fn new(pid: u32, uid: Uid, name: &str, calls_vdso: bool) -> Self {
        Self {
            pid,
            uid,
            name: name.into(),
            calls_vdso,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_identity() {
        assert!(Uid::ROOT.is_root());
        assert_eq!(Uid::ROOT.name(), "root");
        assert_eq!(Uid::ROOT.id_string(), "uid=0(root) gid=0(root) groups=0(root)");
    }

    #[test]
    fn user_identity() {
        let u = Uid::new(1000);
        assert!(!u.is_root());
        assert_eq!(u.name(), "user1000");
        assert!(u.id_string().contains("uid=1000"));
        assert_eq!(u.to_string(), "1000");
    }

    #[test]
    fn process_record() {
        let p = Process::new(1, Uid::ROOT, "cron", true);
        assert!(p.calls_vdso);
        assert_eq!(&*p.name, "cron");
    }
}
