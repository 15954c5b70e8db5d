//! An append-only log that the copies of its owner share.

use std::slice;
use std::sync::Arc;

/// An append-only list of lines: a shared list, appended to in place
/// while one owner holds it alone (at boot), then a list of the owner's
/// own for the lines appended once the shared list has copies. A copy's
/// first line allocates only that list and copies no shared line, and a
/// booted owner has no lines of its own, so copying it copies nothing.
/// `clone_from` drops the owner's own lines but keeps their capacity,
/// and re-points the shared list only when it differs.
///
/// A copy's own list starts with room for `HEADROOM` lines. The
/// hypervisor console and each guest kernel's log are one of these, and
/// the audit log holds one.
#[derive(Debug)]
pub struct SharedLog<T, const HEADROOM: usize = 8> {
    shared: Arc<Vec<T>>,
    own: Vec<T>,
}

impl<T, const HEADROOM: usize> Default for SharedLog<T, HEADROOM> {
    fn default() -> Self {
        Self { shared: Arc::default(), own: Vec::new() }
    }
}

impl<T: Clone, const HEADROOM: usize> Clone for SharedLog<T, HEADROOM> {
    fn clone(&self) -> Self {
        let Self { shared, own } = self;
        Self { shared: Arc::clone(shared), own: own.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        let Self { shared, own } = self;
        hvsim_mem::clone_arc_from(shared, &source.shared);
        own.clone_from(&source.own);
    }
}

impl<T: Clone, const HEADROOM: usize> SharedLog<T, HEADROOM> {
    /// Appends a line. Once the owner has lines of its own, appending
    /// touches no reference count.
    pub fn push(&mut self, line: T) {
        if self.own.is_empty() {
            if let Some(lines) = Arc::get_mut(&mut self.shared) {
                lines.push(line);
                return;
            }
            if self.own.capacity() == 0 {
                self.own.reserve_exact(HEADROOM);
            }
        }
        self.own.push(line);
    }

    /// Every line, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> + ExactSizeIterator {
        LogIter { shared: self.shared.iter(), own: self.own.iter() }
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
impl<T: PartialEq + Clone, const HEADROOM: usize> PartialEq for SharedLog<T, HEADROOM> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<T: Eq + Clone, const HEADROOM: usize> Eq for SharedLog<T, HEADROOM> {}

/// The lines of a [`SharedLog`], oldest first: the shared ones, then the
/// owner's own. (`Chain` would do, but it does not know its length.)
struct LogIter<'a, T> {
    shared: slice::Iter<'a, T>,
    own: slice::Iter<'a, T>,
}

impl<'a, T> Iterator for LogIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        self.shared.next().or_else(|| self.own.next())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.shared.len() + self.own.len();
        (len, Some(len))
    }
}

impl<T> DoubleEndedIterator for LogIter<'_, T> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.own.next_back().or_else(|| self.shared.next_back())
    }
}

impl<T> ExactSizeIterator for LogIter<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_copy_appends_to_its_own_list_and_keeps_the_shared_one() {
        let mut log: SharedLog<i32> = SharedLog::default();
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

    #[test]
    fn lines_count_and_run_from_either_end() {
        let mut log: SharedLog<i32> = SharedLog::default();
        log.push(1);
        log.push(2);
        let mut copy = log.clone();
        copy.push(3);
        assert_eq!(copy.iter().len(), 3);
        assert!(copy.iter().rev().eq(&[3, 2, 1]));
        let mut lines = copy.iter();
        assert_eq!((lines.next(), lines.next_back(), lines.len()), (Some(&1), Some(&3), 1));
    }

    #[test]
    fn clone_from_drops_own_lines_and_keeps_their_room() {
        let mut base: SharedLog<i32> = SharedLog::default();
        base.push(1);
        let mut copy = base.clone();
        for line in 2..20 {
            copy.push(line);
        }
        let room = copy.own.capacity();
        copy.clone_from(&base);
        assert!(copy.iter().eq(&[1]));
        assert!(Arc::ptr_eq(&copy.shared, &base.shared));
        assert_eq!(copy.own.capacity(), room);
        assert_eq!(base.share_count(), 2, "re-pointing the same list bumps nothing");
    }
}
