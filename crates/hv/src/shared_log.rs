//! An append-only log that the copies of its owner share.

use std::sync::Arc;

/// An append-only list of lines: a shared list, appended to in place
/// while one owner holds it alone (at boot), then a list of the owner's
/// own for the lines appended once the shared list has copies. A copy's
/// first line allocates only that list and copies no shared line, and a
/// booted owner has no lines of its own, so copying it copies nothing.
///
/// The hypervisor console and each guest kernel's log are one of these.
#[derive(Clone, Debug)]
pub struct SharedLog<T> {
    shared: Arc<Vec<T>>,
    own: Vec<T>,
}

impl<T> Default for SharedLog<T> {
    fn default() -> Self {
        Self { shared: Arc::default(), own: Vec::new() }
    }
}

impl<T: Clone> SharedLog<T> {
    /// Lines a copy's own list takes before it reallocates: a panic
    /// prints four console lines, a cell logs at most three kernel lines.
    const FORK_HEADROOM: usize = 8;

    /// Appends a line.
    pub fn push(&mut self, line: T) {
        match Arc::get_mut(&mut self.shared) {
            Some(lines) if self.own.is_empty() => lines.push(line),
            _ => {
                if self.own.capacity() == 0 {
                    self.own.reserve_exact(Self::FORK_HEADROOM);
                }
                self.own.push(line);
            }
        }
    }

    /// Every line, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        self.shared.iter().chain(&self.own)
    }

    /// Gives this log all its lines in a list of its own.
    pub fn unshare(&mut self) {
        self.shared = Arc::new(self.iter().cloned().collect());
        self.own = Vec::new();
    }

    /// The reference count of the shared list (how many logs share it).
    pub fn share_count(&self) -> usize {
        Arc::strong_count(&self.shared)
    }
}

/// Equal by its lines, however they are shared.
impl<T: PartialEq + Clone> PartialEq for SharedLog<T> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<T: Eq + Clone> Eq for SharedLog<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_copy_appends_to_its_own_list_and_keeps_the_shared_one() {
        let mut log = SharedLog::default();
        log.push(1);
        log.push(2);
        let mut copy = log.clone();
        assert_eq!(log.share_count(), 2);
        copy.push(3);
        log.push(4);
        assert!(copy.iter().eq(&[1, 2, 3]));
        assert!(log.iter().eq(&[1, 2, 4]));
        copy.unshare();
        assert_eq!((copy.share_count(), log.share_count()), (1, 1));
        copy.push(5);
        assert!(copy.iter().eq(&[1, 2, 3, 5]));
    }
}
