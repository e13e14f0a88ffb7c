use std::collections::HashSet;

use peercache_id::{Id, IdSpace};
use rand::Rng;

/// Draw `count` *distinct* random identifiers from `space`.
///
/// # Panics
/// Panics when `count` exceeds the size of the id space (cannot be
/// distinct) or when `count` is more than half the space (rejection
/// sampling would crawl; the experiments never get near this).
pub fn random_ids<R: Rng + ?Sized>(space: IdSpace, count: usize, rng: &mut R) -> Vec<Id> {
    if let Some(size) = space.size() {
        assert!(
            (count as u128) <= size / 2,
            "{count} ids requested from a space of {size}; use a wider id space"
        );
    }
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let hi = u128::from(rng.gen::<u64>());
        let lo = u128::from(rng.gen::<u64>());
        let id = space.normalize((hi << 64) | lo);
        if seen.insert(id) {
            out.push(id);
        }
    }
    out
}

/// A set of items with random distinct identifiers ("keys").
#[derive(Clone, Debug)]
pub struct ItemCatalog {
    keys: Vec<Id>,
}

impl ItemCatalog {
    /// `count` items with distinct random keys.
    pub fn random<R: Rng + ?Sized>(space: IdSpace, count: usize, rng: &mut R) -> Self {
        ItemCatalog {
            keys: random_ids(space, count, rng),
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The key of item `index`.
    pub fn key(&self, index: usize) -> Id {
        self.keys[index]
    }

    /// All keys.
    pub fn keys(&self) -> &[Id] {
        &self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ids_are_distinct_and_in_space() {
        let space = IdSpace::new(10).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let ids = random_ids(space, 300, &mut rng);
        assert_eq!(ids.len(), 300);
        let set: HashSet<Id> = ids.iter().copied().collect();
        assert_eq!(set.len(), 300);
        assert!(ids.iter().all(|&i| space.contains(i)));
    }

    #[test]
    #[should_panic(expected = "wider id space")]
    fn overfull_request_panics() {
        let space = IdSpace::new(4).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let _ = random_ids(space, 12, &mut rng);
    }

    #[test]
    fn catalog_exposes_keys() {
        let space = IdSpace::new(16).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let cat = ItemCatalog::random(space, 10, &mut rng);
        assert_eq!(cat.len(), 10);
        assert!(!cat.is_empty());
        assert_eq!(cat.key(3), cat.keys()[3]);
    }

    #[test]
    fn wide_spaces_use_full_width() {
        let space = IdSpace::new(128).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let ids = random_ids(space, 100, &mut rng);
        // With 128-bit ids, some draw must exceed 64 bits.
        assert!(ids.iter().any(|i| i.value() > u128::from(u64::MAX)));
    }
}
