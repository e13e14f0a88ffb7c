use peercache_id::Id;

/// The routing state one Pastry node maintains.
///
/// Entries are beliefs and may go stale under churn, exactly as in the
/// Chord substrate.
#[derive(Clone, Debug)]
pub struct PastryNode {
    /// This node's identifier.
    pub id: Id,
    /// `rows[l][c]`: a node sharing exactly `l` leading digits with `id`
    /// whose digit `l` is `c`. The column of `id`'s own digit stays empty.
    pub rows: Vec<Vec<Option<Id>>>,
    /// Leaf set: the nearest ring neighbors on each side, in ring order
    /// (counter-clockwise half first). Self excluded.
    pub leaves: Vec<Id>,
    /// Auxiliary neighbors installed by the selection algorithm.
    pub aux: Vec<Id>,
}

impl PastryNode {
    /// A blank node with `digit_count` rows of `arity` columns.
    pub fn new(id: Id, digit_count: u8, arity: usize) -> Self {
        PastryNode {
            id,
            rows: vec![vec![None; arity]; digit_count as usize],
            leaves: Vec::new(),
            aux: Vec::new(),
        }
    }

    /// All distinct known nodes: routing table, leaf set, auxiliaries.
    pub fn known_neighbors(&self) -> Vec<Id> {
        let mut out = self.core_neighbors();
        out.extend(self.aux.iter().copied().filter(|&n| n != self.id));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The core (non-auxiliary) neighbors: routing table plus leaf set —
    /// the `N_s` handed to the selection algorithms.
    pub fn core_neighbors(&self) -> Vec<Id> {
        let mut out = Vec::new();
        self.core_neighbors_into(&mut out);
        out
    }

    /// [`core_neighbors`](Self::core_neighbors) into a caller-owned
    /// buffer — the arena-facing walk API: a sweep over many nodes reuses
    /// one buffer instead of allocating a fresh vector per node.
    pub fn core_neighbors_into(&self, out: &mut Vec<Id>) {
        out.clear();
        out.extend(
            self.rows
                .iter()
                .flatten()
                .flatten()
                .copied()
                .chain(self.leaves.iter().copied())
                .filter(|&n| n != self.id),
        );
        out.sort_unstable();
        out.dedup();
    }

    /// Drop a discovered-dead neighbor from every structure.
    pub fn forget(&mut self, dead: Id) {
        for row in &mut self.rows {
            for cell in row.iter_mut() {
                if *cell == Some(dead) {
                    *cell = None;
                }
            }
        }
        self.leaves.retain(|&l| l != dead);
        self.aux.retain(|&a| a != dead);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u128) -> Id {
        Id::new(v)
    }

    #[test]
    fn known_neighbors_dedups() {
        let mut n = PastryNode::new(id(0), 4, 2);
        n.rows[0][1] = Some(id(9));
        n.rows[2][1] = Some(id(9));
        n.leaves = vec![id(1), id(9)];
        n.aux = vec![id(3)];
        assert_eq!(n.known_neighbors(), vec![id(1), id(3), id(9)]);
        assert_eq!(n.core_neighbors(), vec![id(1), id(9)]);
    }

    #[test]
    fn forget_clears_everywhere() {
        let mut n = PastryNode::new(id(0), 4, 2);
        n.rows[1][1] = Some(id(5));
        n.leaves = vec![id(5), id(7)];
        n.aux = vec![id(5)];
        n.forget(id(5));
        assert!(n.rows.iter().flatten().all(std::option::Option::is_none));
        assert_eq!(n.leaves, vec![id(7)]);
        assert!(n.aux.is_empty());
    }
}
