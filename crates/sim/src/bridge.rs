//! The sim → node-runtime bridge: the stable driver's exact world,
//! handed to an external event loop.
//!
//! `run_stable` builds a frozen overlay snapshot, both strategies'
//! auxiliary selections, and a seeded query stream, then routes every
//! query through the fault walk's driver loop. The `peercache-node`
//! runtime routes the *same* queries hop by hop as `Lookup` messages
//! instead. For the differential between the two to be byte-exact, both
//! must consume identical inputs — so this module exposes the driver's
//! construction path (topology, selections, workloads) and its query
//! stream: [`RuntimeFixture::queries`] hands out the one [`QueryStream`]
//! the measurement passes iterate, so the two cannot fork.
//!
//! Nothing here re-derives state: [`RuntimeFixture`] wraps the very
//! `StableSetup` the driver uses, so a divergence between sim and
//! runtime can only come from the walk execution, never the inputs.

use peercache_id::Id;

use crate::overlay::SimOverlay;
use crate::stable::{build_stable, QueryStream, StableConfig, StableSetup};

/// The stable driver's world, frozen for an external runtime: overlay
/// snapshot, node ids, both strategies' auxiliary selections, and the
/// seeded query stream.
pub struct RuntimeFixture {
    config: StableConfig,
    setup: StableSetup,
}

impl RuntimeFixture {
    /// Build the fixture through the stable driver's own construction
    /// path (same RNG stream consumption, same selections).
    ///
    /// # Panics
    /// Panics on nonsensical configurations (zero nodes/items, α
    /// invalid) — these are experiment definitions, not runtime inputs.
    pub fn build(config: &StableConfig) -> Self {
        RuntimeFixture {
            config: config.clone(),
            setup: build_stable(config),
        }
    }

    /// The configuration the fixture was built from.
    pub fn config(&self) -> &StableConfig {
        &self.config
    }

    /// The frozen overlay snapshot.
    pub fn overlay(&self) -> &SimOverlay {
        &self.setup.overlay
    }

    /// Node ids in generation order (the query stream's origin index
    /// space).
    pub fn node_ids(&self) -> &[Id] {
        &self.setup.node_ids
    }

    /// The aware selection as an owned `(node, aux)` table in generation
    /// order — the shape an external runtime installs into its own
    /// routing state.
    pub fn aware_table(&self) -> Vec<(Id, Vec<Id>)> {
        self.setup
            .node_ids
            .iter()
            .zip(&self.setup.aware_sets)
            .map(|(&n, aux)| (n, aux.clone()))
            .collect()
    }

    /// The oblivious selection as an owned `(node, aux)` table in
    /// generation order.
    pub fn oblivious_table(&self) -> Vec<(Id, Vec<Id>)> {
        self.setup
            .node_ids
            .iter()
            .zip(&self.setup.oblivious_sets)
            .map(|(&n, aux)| (n, aux.clone()))
            .collect()
    }

    /// The driver's query stream: the very [`QueryStream`] the
    /// measurement passes iterate — `queries` `(origin, key)` pairs from
    /// the `seed + 2` RNG (origin index, then the origin's workload item).
    pub fn queries(&self) -> QueryStream<'_> {
        QueryStream::new(&self.setup, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::OverlayKind;

    fn tiny() -> StableConfig {
        let mut config = StableConfig::paper_defaults(OverlayKind::Chord, 32, 7);
        config.items = 16;
        config.queries = 50;
        config
    }

    #[test]
    fn query_stream_is_replayable_and_sized() {
        let fixture = RuntimeFixture::build(&tiny());
        let a: Vec<(Id, Id)> = fixture.queries().collect();
        let b: Vec<(Id, Id)> = fixture.queries().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        assert_eq!(fixture.queries().size_hint(), (50, Some(50)));
        for &(origin, key) in &a {
            assert!(fixture.overlay().is_live(origin));
            assert!(fixture.overlay().true_owner(key).is_some());
        }
    }

    #[test]
    fn aux_tables_follow_generation_order() {
        let fixture = RuntimeFixture::build(&tiny());
        for table in [fixture.aware_table(), fixture.oblivious_table()] {
            let nodes: Vec<Id> = table.iter().map(|&(node, _)| node).collect();
            assert_eq!(nodes, fixture.node_ids());
        }
        assert_eq!(fixture.config().queries, 50);
    }
}
