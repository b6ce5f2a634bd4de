//! Stream→shard assignment for the coordinator fleet.

/// Which shard (leaf coordinator) each global stream belongs to, and
/// the stream's local node id within that shard.
///
/// Local ids are dense per shard: member `k` of shard `s` is local node
/// `k` of `s`'s leaf coordinator. Rebalancing ([`ShardMap::adopt`])
/// appends the moved streams to the receiving shard, so survivors keep
/// their local ids and the adoptees get fresh ones — the receiving leaf
/// rebuilds its coordinator at the enlarged size anyway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    shard_of: Vec<usize>,
    local_of: Vec<usize>,
    members: Vec<Vec<usize>>,
}

impl ShardMap {
    /// Round-robin assignment: stream `g` to shard `g % shards` —
    /// balanced by construction and independent of the data.
    pub fn round_robin(streams: usize, shards: usize) -> Self {
        assert!(shards >= 1, "ShardMap: need at least one shard");
        assert!(
            streams >= shards,
            "ShardMap: {streams} streams cannot fill {shards} shards"
        );
        let shard_of: Vec<usize> = (0..streams).map(|g| g % shards).collect();
        let local_of: Vec<usize> = (0..streams).map(|g| g / shards).collect();
        let members: Vec<Vec<usize>> = (0..shards)
            .map(|s| (s..streams).step_by(shards).collect())
            .collect();
        Self {
            shard_of,
            local_of,
            members,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.members.len()
    }

    /// Number of global streams.
    pub fn streams(&self) -> usize {
        self.shard_of.len()
    }

    /// `(shard, local node id)` of global stream `g`.
    pub fn locate(&self, g: usize) -> (usize, usize) {
        (self.shard_of[g], self.local_of[g])
    }

    /// Global stream ids of shard `s`, in local-id order.
    pub fn members(&self, s: usize) -> &[usize] {
        &self.members[s]
    }

    /// Move every member of shard `from` to the end of shard `to`
    /// (leaf-crash rebalancing). Returns the moved streams in their old
    /// local order; `from` is left empty.
    pub fn adopt(&mut self, from: usize, to: usize) -> Vec<usize> {
        assert_ne!(from, to, "adopt: shard cannot adopt itself");
        let moved = std::mem::take(&mut self.members[from]);
        for &g in &moved {
            self.shard_of[g] = to;
            self.local_of[g] = self.members[to].len();
            self.members[to].push(g);
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_is_balanced_and_consistent() {
        let m = ShardMap::round_robin(10, 3);
        assert_eq!(m.shards(), 3);
        assert_eq!(m.streams(), 10);
        assert_eq!(m.members(0), &[0, 3, 6, 9]);
        assert_eq!(m.members(1), &[1, 4, 7]);
        for g in 0..10 {
            let (s, l) = m.locate(g);
            assert_eq!(m.members(s)[l], g);
        }
    }

    #[test]
    fn adopt_moves_members_and_keeps_locations_consistent() {
        let mut m = ShardMap::round_robin(7, 3);
        let moved = m.adopt(1, 2);
        assert_eq!(moved, vec![1, 4]);
        assert!(m.members(1).is_empty());
        assert_eq!(m.members(2), &[2, 5, 1, 4]);
        for g in 0..7 {
            let (s, l) = m.locate(g);
            assert_eq!(m.members(s)[l], g);
        }
    }

    #[test]
    #[should_panic(expected = "cannot fill")]
    fn more_shards_than_streams_rejected() {
        ShardMap::round_robin(2, 3);
    }
}
