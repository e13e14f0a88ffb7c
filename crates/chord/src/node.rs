use peercache_id::Id;

/// The routing state one Chord node maintains.
///
/// Entries are *beliefs*: under churn they may point at departed nodes
/// until the next stabilization round (or a failed probe during a lookup)
/// repairs them.
#[derive(Clone, Debug)]
pub struct ChordNode {
    /// This node's identifier.
    pub id: Id,
    /// The believed predecessor (maintained by the notify handshake).
    pub predecessor: Option<Id>,
    /// The believed successor list, closest first. `successors[0]` is the
    /// routing successor; the tail provides fault tolerance.
    pub successors: Vec<Id>,
    /// Finger `i`: the first known node in `[id + 2^i, id + 2^{i+1})`,
    /// if any (the paper's §II-B neighbor definition).
    pub fingers: Vec<Option<Id>>,
    /// Auxiliary neighbors installed by the selection algorithm; used by
    /// routing exactly like core entries (§III-1).
    pub aux: Vec<Id>,
}

impl ChordNode {
    /// A blank node with `bits` finger slots.
    pub fn new(id: Id, bits: u8) -> Self {
        ChordNode {
            id,
            predecessor: None,
            successors: Vec::new(),
            fingers: vec![None; bits as usize],
            aux: Vec::new(),
        }
    }

    /// The believed immediate successor.
    pub fn successor(&self) -> Option<Id> {
        self.successors.first().copied()
    }

    /// The core entries in place — fingers, then the successor list,
    /// self excluded, duplicates kept. Routing reads its candidates from
    /// here without building a list.
    pub(crate) fn core(&self) -> impl Iterator<Item = Id> + '_ {
        self.fingers
            .iter()
            .flatten()
            .chain(&self.successors)
            .copied()
            .filter(move |&n| n != self.id)
    }

    /// The core (non-auxiliary) neighbors: fingers plus successor list.
    /// This is the `N_s` handed to the selection algorithms.
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
        out.extend(self.core());
        out.sort_unstable();
        out.dedup();
    }

    /// Drop a (discovered-dead) neighbor from every routing structure.
    pub fn forget(&mut self, dead: Id) {
        for f in &mut self.fingers {
            if *f == Some(dead) {
                *f = None;
            }
        }
        self.successors.retain(|&s| s != dead);
        self.aux.retain(|&a| a != dead);
        if self.predecessor == Some(dead) {
            self.predecessor = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u128) -> Id {
        Id::new(v)
    }

    #[test]
    fn core_neighbors_dedup_fingers_and_successors_without_aux() {
        let mut n = ChordNode::new(id(0), 4);
        n.fingers[1] = Some(id(5));
        n.fingers[2] = Some(id(5)); // duplicate entry
        n.successors = vec![id(2), id(5)];
        n.aux = vec![id(9), id(2)];
        let core: Vec<Id> = n.core().collect();
        assert_eq!(
            core,
            vec![id(5), id(5), id(2), id(5)],
            "in place, duplicates kept"
        );
        assert_eq!(n.core_neighbors(), vec![id(2), id(5)]);
    }

    #[test]
    fn forget_clears_everywhere() {
        let mut n = ChordNode::new(id(0), 4);
        n.fingers[1] = Some(id(5));
        n.successors = vec![id(5), id(7)];
        n.aux = vec![id(5)];
        n.predecessor = Some(id(5));
        n.forget(id(5));
        assert!(n.fingers.iter().all(std::option::Option::is_none));
        assert_eq!(n.successors, vec![id(7)]);
        assert!(n.aux.is_empty());
        assert_eq!(n.predecessor, None);
    }

    #[test]
    fn self_is_never_a_neighbor() {
        let mut n = ChordNode::new(id(3), 4);
        n.fingers[0] = Some(id(3));
        n.successors = vec![id(3)];
        assert_eq!(n.core().count(), 0);
        assert!(n.core_neighbors().is_empty());
    }
}
