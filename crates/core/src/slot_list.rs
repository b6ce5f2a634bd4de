//! The coordinator's lazy-sync node LRU (§3.5): an intrusive slot-index
//! recency list with the same iteration order as the `VecDeque` it
//! replaces, but O(1) touch instead of an O(n) scan. It links exactly
//! the alive nodes, so it is also the coordinator's membership set.

const NIL: usize = usize::MAX;

/// An intrusive doubly-linked recency list over slot indices
/// `0..n`, backing the coordinator's lazy-sync node LRU (§3.5) and its
/// membership set.
///
/// `touch` is O(1) — unlink (if present) plus push-back — replacing
/// the `VecDeque` + `iter().position()` scan it superseded, with
/// identical front-(least recent)-to-back iteration order. `len` and
/// `contains` are O(1) too.
#[derive(Debug, Clone)]
pub struct SlotList {
    prev: Vec<usize>,
    next: Vec<usize>,
    linked: Vec<bool>,
    len: usize,
    head: usize,
    tail: usize,
}

impl SlotList {
    /// An empty list over `n` slots.
    fn new(n: usize) -> Self {
        Self {
            prev: vec![NIL; n],
            next: vec![NIL; n],
            linked: vec![false; n],
            len: 0,
            head: NIL,
            tail: NIL,
        }
    }

    /// A list over `n` slots containing `0, 1, …, n-1` in order
    /// (slot 0 least recent).
    pub fn with_all(n: usize) -> Self {
        let mut list = Self::new(n);
        for i in 0..n {
            list.push_back(i);
        }
        list
    }

    /// A list over `n` slots restored from an explicit
    /// front-to-back order (snapshot restore).
    pub fn from_order(n: usize, order: &[usize]) -> Self {
        let mut list = Self::new(n);
        for &i in order {
            list.touch(i);
        }
        list
    }

    /// Linked slot count. O(1).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` while `slot` is linked. O(1).
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn contains(&self, slot: usize) -> bool {
        self.linked[slot]
    }

    /// The least recently touched slot.
    #[cfg(test)]
    fn front(&self) -> Option<usize> {
        (self.head != NIL).then_some(self.head)
    }

    /// Move `slot` to the most-recent end (linking it if absent). O(1).
    pub fn touch(&mut self, slot: usize) {
        self.remove(slot);
        self.push_back(slot);
    }

    /// Append `slot` at the most-recent end; it must not be linked.
    fn push_back(&mut self, slot: usize) {
        debug_assert!(slot < self.linked.len() && !self.linked[slot]);
        self.prev[slot] = self.tail;
        self.next[slot] = NIL;
        if self.tail != NIL {
            self.next[self.tail] = slot;
        } else {
            self.head = slot;
        }
        self.tail = slot;
        self.linked[slot] = true;
        self.len += 1;
    }

    /// Unlink `slot` if present; reports whether it was linked. O(1).
    pub fn remove(&mut self, slot: usize) -> bool {
        if slot >= self.linked.len() || !self.linked[slot] {
            return false;
        }
        let (p, n) = (self.prev[slot], self.next[slot]);
        if p != NIL {
            self.next[p] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n] = p;
        } else {
            self.tail = p;
        }
        self.prev[slot] = NIL;
        self.next[slot] = NIL;
        self.linked[slot] = false;
        self.len -= 1;
        true
    }

    /// Iterate front (least recent) to back (most recent).
    pub fn iter(&self) -> SlotIter<'_> {
        SlotIter {
            list: self,
            cursor: self.head,
        }
    }
}

/// Iterator over a [`SlotList`], front to back.
#[derive(Debug)]
pub struct SlotIter<'a> {
    list: &'a SlotList,
    cursor: usize,
}

impl Iterator for SlotIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.cursor == NIL {
            return None;
        }
        let slot = self.cursor;
        self.cursor = self.list.next[slot];
        Some(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_list_matches_vecdeque_reference() {
        use std::collections::VecDeque;
        let n = 8;
        let mut list = SlotList::with_all(n);
        let mut reference: VecDeque<usize> = (0..n).collect();
        assert_eq!(list.iter().collect::<Vec<_>>(), Vec::from(reference.clone()));

        // A deterministic op mix: touch, remove, re-touch.
        let ops: &[(u8, usize)] = &[
            (0, 3),
            (0, 3),
            (0, 0),
            (1, 5),
            (0, 7),
            (1, 3),
            (0, 3),
            (0, 1),
            (1, 0),
            (0, 0),
        ];
        for &(op, slot) in ops {
            match op {
                0 => {
                    if let Some(pos) = reference.iter().position(|&x| x == slot) {
                        reference.remove(pos);
                    }
                    reference.push_back(slot);
                    list.touch(slot);
                }
                _ => {
                    if let Some(pos) = reference.iter().position(|&x| x == slot) {
                        reference.remove(pos);
                    }
                    list.remove(slot);
                }
            }
            assert_eq!(
                list.iter().collect::<Vec<_>>(),
                Vec::from(reference.clone()),
                "diverged after ({op}, {slot})"
            );
            assert_eq!(list.len(), reference.len());
            assert_eq!(list.front(), reference.front().copied());
            for s in 0..n {
                assert_eq!(list.contains(s), reference.contains(&s));
            }
        }
        let order: Vec<usize> = list.iter().collect();
        let restored = SlotList::from_order(n, &order);
        assert_eq!(restored.iter().collect::<Vec<_>>(), order);
    }
}
