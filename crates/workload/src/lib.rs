//! Workload generation for the peercache experiments (paper §VI-A).
//!
//! The evaluation setup: nodes and items get random identifiers; item
//! popularities follow a Zipf distribution with parameter `α`; queries are
//! samples from it. Item popularity *rankings* are either identical at all
//! nodes (the Pastry plots) or drawn from a small set of distinct rankings
//! assigned randomly to nodes (the Chord plots — five lists).
//!
//! * [`Zipf`] — an exact inverse-CDF Zipf sampler (no external
//!   distribution crate needed; the CDF is precomputed once).
//! * [`Ranking`] — a permutation mapping popularity rank → item index.
//! * [`ItemCatalog`] — random distinct item ids in an id space.
//! * [`NodeWorkload`] — a per-node query generator combining the three.
//! * [`random_ids`] — distinct random identifiers for nodes/items.
//!
//! A run's drivers hold one [`Zipf`] and one [`RankingAssignment`] and
//! draw each origin's item through [`Zipf::sample_item`] — the body of
//! [`NodeWorkload::sample_item`] — so no per-node copy of the sampler or
//! ranking is ever built.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod ranking;
mod zipf;

pub use catalog::{random_ids, ItemCatalog};
pub use ranking::{Ranking, RankingAssignment};
pub use zipf::Zipf;

use peercache_id::Id;
use rand::Rng;

/// A per-node query workload: Zipf-over-ranking on an item catalog.
#[derive(Clone, Debug)]
pub struct NodeWorkload {
    zipf: Zipf,
    ranking: Ranking,
}

impl NodeWorkload {
    /// Combine a sampler with a ranking. The ranking must cover at least
    /// as many items as the sampler draws ranks for.
    ///
    /// # Panics
    /// Panics when the ranking is smaller than the Zipf support.
    pub fn new(zipf: Zipf, ranking: Ranking) -> Self {
        assert!(
            ranking.len() >= zipf.support(),
            "ranking covers {} items, sampler needs {}",
            ranking.len(),
            zipf.support()
        );
        NodeWorkload { zipf, ranking }
    }

    /// Draw the index (into the item catalog) of the next queried item.
    pub fn sample_item<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.zipf.sample_item(&self.ranking, rng)
    }

    /// The probability that a query goes to catalog item `item`.
    pub fn item_probability(&self, item: usize) -> f64 {
        self.zipf.rank_probability(self.ranking.rank_of(item))
    }

    /// Aggregate the per-item probabilities into per-owner weights: the
    /// *node popularity* distribution the selection algorithms consume.
    ///
    /// `owner_of(item_index)` maps an item to the node responsible for it
    /// under the overlay's assignment rule.
    pub fn node_weights<F>(&self, items: usize, mut owner_of: F) -> Vec<(Id, f64)>
    where
        F: FnMut(usize) -> Id,
    {
        let mut weights: std::collections::HashMap<Id, f64> = std::collections::HashMap::new();
        for item in 0..items {
            *weights.entry(owner_of(item)).or_insert(0.0) += self.item_probability(item);
        }
        let mut out: Vec<(Id, f64)> = weights.into_iter().collect();
        out.sort_by_key(|&(id, _)| id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn workload_samples_respect_ranking() {
        let zipf = Zipf::new(4, 2.0).unwrap();
        // Ranking puts item 3 at rank 0 (most popular).
        let ranking = Ranking::from_order(vec![3, 1, 0, 2]).unwrap();
        let wl = NodeWorkload::new(zipf, ranking);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[wl.sample_item(&mut rng)] += 1;
        }
        assert!(
            counts[3] > counts[1] && counts[1] > counts[0] && counts[0] > counts[2],
            "counts follow the ranking: {counts:?}"
        );
    }

    #[test]
    fn item_probabilities_sum_to_one() {
        let wl = NodeWorkload::new(Zipf::new(10, 1.2).unwrap(), Ranking::identity(10));
        let total: f64 = (0..10).map(|i| wl.item_probability(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn node_weights_aggregate_by_owner() {
        let wl = NodeWorkload::new(Zipf::new(4, 1.0).unwrap(), Ranking::identity(4));
        // Items 0,1 → node 7; items 2,3 → node 9.
        let weights = wl.node_weights(4, |i| Id::new(if i < 2 { 7 } else { 9 }));
        assert_eq!(weights.len(), 2);
        let total: f64 = weights.iter().map(|&(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(
            weights[0].1 > weights[1].1,
            "items 0,1 are the popular ones"
        );
    }

    #[test]
    #[should_panic(expected = "sampler needs")]
    fn undersized_ranking_panics() {
        let _ = NodeWorkload::new(Zipf::new(5, 1.0).unwrap(), Ranking::identity(3));
    }
}
