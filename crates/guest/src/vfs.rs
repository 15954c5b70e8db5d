//! A minimal in-memory filesystem with uid-based permissions.

use crate::process::Uid;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// File access mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileMode {
    /// Readable and writable only by the owner (and root).
    OwnerOnly,
    /// Readable by everyone, writable by the owner (and root).
    PublicRead,
    /// Readable and writable by everyone (`/tmp` semantics).
    Public,
}

/// Filesystem errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VfsError {
    /// Path does not exist.
    NotFound(String),
    /// Caller lacks permission.
    Denied(String),
}

impl fmt::Display for VfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VfsError::NotFound(p) => write!(f, "no such file: {p}"),
            VfsError::Denied(p) => write!(f, "permission denied: {p}"),
        }
    }
}

impl Error for VfsError {}

#[derive(Clone, Debug, PartialEq, Eq)]
struct FileEntry {
    owner: Uid,
    mode: FileMode,
    data: Arc<[u8]>,
}

/// The per-guest filesystem.
///
/// The privilege-escalation experiments observe their outcome here: the
/// XSA-212-priv payload drops `/tmp/injector_log` (root-owned) into every
/// domain, and the XSA-148 reverse shell reads dom0's `/root/root_msg`.
///
/// The map, each path and each file's contents sit behind `Arc`s: a copy
/// shares them all, and its first write copies the map alone.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Vfs {
    files: Arc<BTreeMap<Arc<str>, FileEntry>>,
}

impl Vfs {
    /// An empty filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates or overwrites a file as `uid`.
    ///
    /// # Errors
    ///
    /// [`VfsError::Denied`] when overwriting a file `uid` may not write.
    pub fn write(
        &mut self,
        path: &str,
        uid: Uid,
        mode: FileMode,
        data: &[u8],
    ) -> Result<(), VfsError> {
        self.write_shared(path, uid, mode, data.into())
    }

    /// [`write`](Self::write), keeping `data` without a copy.
    pub(crate) fn write_shared(
        &mut self,
        path: &str,
        uid: Uid,
        mode: FileMode,
        data: Arc<[u8]>,
    ) -> Result<(), VfsError> {
        if let Some(existing) = self.files.get(path) {
            if !Self::may_write(existing, uid) {
                return Err(VfsError::Denied(path.to_owned()));
            }
        }
        Arc::make_mut(&mut self.files).insert(path.into(), FileEntry { owner: uid, mode, data });
        Ok(())
    }

    /// Reads a file as `uid`.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] / [`VfsError::Denied`].
    pub fn read(&self, path: &str, uid: Uid) -> Result<&[u8], VfsError> {
        self.read_shared(path, uid).map(|data| &**data)
    }

    /// Reads a file as `uid`, as the contents the file system shares.
    pub(crate) fn read_shared(&self, path: &str, uid: Uid) -> Result<&Arc<[u8]>, VfsError> {
        let entry = self
            .files
            .get(path)
            .ok_or_else(|| VfsError::NotFound(path.to_owned()))?;
        if Self::may_read(entry, uid) {
            Ok(&entry.data)
        } else {
            Err(VfsError::Denied(path.to_owned()))
        }
    }

    /// Whether `path` exists (regardless of permissions).
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// The owner of `path`, if it exists.
    pub fn owner(&self, path: &str) -> Option<Uid> {
        self.files.get(path).map(|e| e.owner)
    }

    /// All paths, in order.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.shared_paths().map(|p| &**p)
    }

    /// Every path, as the file system shares it.
    pub(crate) fn shared_paths(&self) -> impl Iterator<Item = &Arc<str>> {
        self.files.keys()
    }

    /// Gives this filesystem its own copy of the map, of every path and
    /// of every file's contents.
    pub(crate) fn unshare(&mut self) {
        let copy = |(path, e): (&Arc<str>, &FileEntry)| {
            (Arc::from(&**path), FileEntry { data: Arc::from(&*e.data), ..*e })
        };
        self.files = Arc::new(self.files.iter().map(copy).collect());
    }

    /// The reference counts of the map, then of each path and its
    /// contents.
    pub(crate) fn share_counts(&self, counts: &mut Vec<usize>) {
        counts.push(Arc::strong_count(&self.files));
        for (path, e) in self.files.iter() {
            counts.extend([Arc::strong_count(path), Arc::strong_count(&e.data)]);
        }
    }

    fn may_read(entry: &FileEntry, uid: Uid) -> bool {
        uid.is_root()
            || entry.owner == uid
            || matches!(entry.mode, FileMode::PublicRead | FileMode::Public)
    }

    fn may_write(entry: &FileEntry, uid: Uid) -> bool {
        uid.is_root() || entry.owner == uid || entry.mode == FileMode::Public
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut fs = Vfs::new();
        fs.write("/etc/motd", Uid::ROOT, FileMode::PublicRead, b"hi").unwrap();
        assert_eq!(fs.read("/etc/motd", Uid::new(1000)).unwrap(), b"hi");
        assert!(fs.exists("/etc/motd"));
        assert_eq!(fs.owner("/etc/motd"), Some(Uid::ROOT));
    }

    #[test]
    fn owner_only_blocks_other_users() {
        let mut fs = Vfs::new();
        fs.write("/root/root_msg", Uid::ROOT, FileMode::OwnerOnly, b"secret").unwrap();
        assert!(matches!(
            fs.read("/root/root_msg", Uid::new(1000)),
            Err(VfsError::Denied(_))
        ));
        assert_eq!(fs.read("/root/root_msg", Uid::ROOT).unwrap(), b"secret");
    }

    #[test]
    fn root_overrides_everything() {
        let mut fs = Vfs::new();
        fs.write("/home/u/file", Uid::new(7), FileMode::OwnerOnly, b"x").unwrap();
        assert_eq!(fs.read("/home/u/file", Uid::ROOT).unwrap(), b"x");
        fs.write("/home/u/file", Uid::ROOT, FileMode::OwnerOnly, b"y").unwrap();
        assert_eq!(fs.owner("/home/u/file"), Some(Uid::ROOT));
    }

    #[test]
    fn non_owner_cannot_overwrite_protected_file() {
        let mut fs = Vfs::new();
        fs.write("/root/a", Uid::ROOT, FileMode::PublicRead, b"x").unwrap();
        assert!(matches!(
            fs.write("/root/a", Uid::new(5), FileMode::Public, b"y"),
            Err(VfsError::Denied(_))
        ));
    }

    #[test]
    fn missing_file() {
        let fs = Vfs::new();
        assert!(matches!(fs.read("/nope", Uid::ROOT), Err(VfsError::NotFound(_))));
        assert_eq!(fs.owner("/nope"), None);
    }

    #[test]
    fn public_files_writable_by_all() {
        let mut fs = Vfs::new();
        fs.write("/tmp/x", Uid::new(3), FileMode::Public, b"a").unwrap();
        fs.write("/tmp/x", Uid::new(4), FileMode::Public, b"b").unwrap();
        assert_eq!(fs.read("/tmp/x", Uid::new(5)).unwrap(), b"b");
    }
}
