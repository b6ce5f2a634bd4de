//! A set of node ids kept as one sorted vector.

use crate::messages::NodeId;

/// A set of node ids, sorted ascending in one vector.
///
/// The coordinator's balancing set and full-sync pending set live here:
/// membership is a binary search, and iteration runs in id order, the
/// order the balance point, the full-sync gather and the slack loop sum
/// in (their bits depend on it). A set of a few hundred ids is one
/// allocation rather than a tree of nodes.
#[derive(Debug)]
pub(crate) struct IdSet(Vec<NodeId>);

impl IdSet {
    /// The empty set.
    pub(crate) fn new() -> Self {
        Self(Vec::new())
    }

    /// The set `{id}`.
    pub(crate) fn one(id: NodeId) -> Self {
        Self(vec![id])
    }

    /// Add `id`; `false` if it was already present.
    pub(crate) fn insert(&mut self, id: NodeId) -> bool {
        match self.0.binary_search(&id) {
            Ok(_) => false,
            Err(at) => {
                self.0.insert(at, id);
                true
            }
        }
    }

    /// Remove `id`; `false` if it was absent.
    pub(crate) fn remove(&mut self, id: NodeId) -> bool {
        match self.0.binary_search(&id) {
            Ok(at) => {
                self.0.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    pub(crate) fn contains(&self, id: NodeId) -> bool {
        self.0.binary_search(&id).is_ok()
    }

    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The members, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.0.iter().copied()
    }
}

impl FromIterator<NodeId> for IdSet {
    /// Collects any order; an ascending source (the usual one) is
    /// already sorted and only checked.
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut ids: Vec<NodeId> = iter.into_iter().collect();
        if !ids.is_sorted() {
            ids.sort_unstable();
        }
        ids.dedup();
        Self(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random insert / remove / contains sequences over a small id
        /// range (so hits and misses both happen): every answer, the
        /// length and the ascending iteration equal `BTreeSet`'s.
        #[test]
        fn behaves_as_a_btreeset(
            seed in proptest::collection::vec(0usize..24, 0..12),
            ops in proptest::collection::vec(0u64..1u64 << 16, 0..96),
        ) {
            let mut set: IdSet = seed.iter().copied().collect();
            let mut oracle: BTreeSet<NodeId> = seed.iter().copied().collect();
            for op in ops {
                let id = (op >> 2) as usize % 24;
                match op % 3 {
                    0 => prop_assert_eq!(set.insert(id), oracle.insert(id)),
                    1 => prop_assert_eq!(set.remove(id), oracle.remove(&id)),
                    _ => prop_assert_eq!(set.contains(id), oracle.contains(&id)),
                }
                prop_assert_eq!(set.len(), oracle.len());
                prop_assert_eq!(set.is_empty(), oracle.is_empty());
                let ours: Vec<NodeId> = set.iter().collect();
                let theirs: Vec<NodeId> = oracle.iter().copied().collect();
                prop_assert_eq!(ours, theirs);
            }
        }
    }

    #[test]
    fn one_and_collect() {
        assert_eq!(IdSet::one(7).iter().collect::<Vec<_>>(), vec![7]);
        let set: IdSet = [5, 1, 5, 3].into_iter().collect();
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![1, 3, 5]);
        assert!(IdSet::new().is_empty());
    }
}
