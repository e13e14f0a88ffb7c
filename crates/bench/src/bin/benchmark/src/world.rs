//! The worlds the workloads run on, built through the library's public
//! entry points: once through `RuntimeFixture` (the untraced set-up), and
//! once from its public parts with every layer call timed (the traced
//! rebuild, which must reproduce the fixture node for node).

use peercache_freq::FrequencySnapshot;
use peercache_id::{Id, IdSpace};
use peercache_sim::overlay::SelectScratch;
use peercache_sim::{ChurnConfig, RankingMode, RuntimeFixture, SimOverlay, StableConfig};
use peercache_workload::{random_ids, ItemCatalog, NodeWorkload, RankingAssignment, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{sampled, Tracer};

/// Nodes per parallel selection task, as in `run_stable`.
const SELECT_CHUNK: usize = 64;

/// Every node's installed auxiliary set, sorted by node id.
pub(crate) struct AuxTable(Vec<(Id, Vec<Id>)>);

impl AuxTable {
    pub(crate) fn new(mut table: Vec<(Id, Vec<Id>)>) -> AuxTable {
        table.sort_by_key(|&(node, _)| node);
        AuxTable(table)
    }

    /// The auxiliary set of `id` (empty for unknown ids).
    pub(crate) fn get(&self, id: Id) -> &[Id] {
        self.0
            .binary_search_by_key(&id, |&(node, _)| node)
            .map_or(&[], |pos| self.0[pos].1.as_slice())
    }

    pub(crate) fn entries(&self) -> &[(Id, Vec<Id>)] {
        &self.0
    }
}

/// A stable world as the untraced run sets it up: the library's fixture,
/// its query stream, and the aware selection as a lookup table.
pub(crate) struct Stable {
    pub(crate) fixture: RuntimeFixture,
    pub(crate) queries: Vec<(Id, Id)>,
    pub(crate) aux: AuxTable,
}

impl Stable {
    pub(crate) fn build(config: &StableConfig) -> Stable {
        let fixture = RuntimeFixture::build(config);
        let queries = fixture.queries().collect();
        let aux = AuxTable::new(fixture.aware_table());
        Stable {
            fixture,
            queries,
            aux,
        }
    }

    pub(crate) fn view(&self) -> View<'_> {
        View {
            overlay: self.fixture.overlay(),
            aux: &self.aux,
            owner: self.fixture.node_ids()[0],
        }
    }
}

/// What the node runtime needs of a world, however it was built: the
/// overlay, the aware selection, and the node that owns the peer store
/// (the first node generated).
pub(crate) struct View<'a> {
    pub(crate) overlay: &'a SimOverlay,
    pub(crate) aux: &'a AuxTable,
    pub(crate) owner: Id,
}

fn space(bits: u8) -> IdSpace {
    IdSpace::new(bits).expect("workload configs use a valid id width")
}

fn zipf(items: usize, alpha: f64) -> Zipf {
    Zipf::new(items, alpha).expect("workload configs use a valid Zipf law")
}

fn assignment<R: Rng>(
    ranking: RankingMode,
    items: usize,
    nodes: usize,
    rng: &mut R,
) -> RankingAssignment {
    match ranking {
        RankingMode::Identical => RankingAssignment::identical(items, nodes),
        RankingMode::Pool(p) => RankingAssignment::random_pool(items, nodes, p, rng),
    }
}

/// The part of `run_churn_once_faulted` that precedes its event loop,
/// from the same public parts and seed streams: ids, catalog, workloads,
/// the initial half-live membership, and the overlay over it. Returns the
/// number of live nodes.
pub(crate) fn churn_initial(config: &ChurnConfig, t: &mut Tracer) -> usize {
    let mut rng_topology = StdRng::seed_from_u64(config.seed);
    let mut rng_workload = StdRng::seed_from_u64(config.seed.wrapping_add(1));
    let mut rng_churn = StdRng::seed_from_u64(config.seed.wrapping_add(2));
    let space = space(config.bits);
    let initial = t.op("workload.inputs", None, || {
        let node_ids = random_ids(space, config.nodes, &mut rng_topology);
        let catalog = ItemCatalog::random(space, config.items, &mut rng_topology);
        let zipf = zipf(config.items, config.alpha);
        let assignment = assignment(
            config.ranking,
            config.items,
            config.nodes,
            &mut rng_workload,
        );
        let workloads: Vec<NodeWorkload> = (0..config.nodes)
            .map(|idx| NodeWorkload::new(zipf.clone(), assignment.for_node(idx).clone()))
            .collect();
        std::hint::black_box((&catalog, &workloads));
        let alive: Vec<bool> = (0..config.nodes).map(|_| rng_churn.gen_bool(0.5)).collect();
        node_ids
            .iter()
            .zip(&alive)
            .filter(|&(_, &a)| a)
            .map(|(&id, _)| id)
            .collect::<Vec<Id>>()
    });
    let overlay = t.op("overlay.build", None, || {
        SimOverlay::build(config.kind, space, &initial, &mut rng_topology)
    });
    overlay.live_ids().len()
}

/// Layer names for a traced world build: the workload's own set-up
/// records its build under `overlay.build`; a kernel world built only to
/// time other layers records it apart.
pub(crate) struct BuildNames {
    pub(crate) inputs: &'static str,
    pub(crate) build: &'static str,
}

pub(crate) const SETUP_NAMES: BuildNames = BuildNames {
    inputs: "workload.inputs",
    build: "overlay.build",
};

pub(crate) const KERNEL_NAMES: BuildNames = BuildNames {
    inputs: "kernel.inputs",
    build: "kernel.build",
};

/// A stable world rebuilt from public parts by the traced run.
pub(crate) struct World {
    pub(crate) node_ids: Vec<Id>,
    pub(crate) overlay: SimOverlay,
    pub(crate) oblivious: Vec<Vec<Id>>,
    pub(crate) queries: Vec<(Id, Id)>,
    pub(crate) aux: AuxTable,
    /// Selection candidates summed over nodes (pool weights minus the
    /// node itself and its core neighbors).
    pub(crate) candidates: usize,
}

impl World {
    pub(crate) fn view(&self) -> View<'_> {
        View {
            overlay: &self.overlay,
            aux: &self.aux,
            owner: self.node_ids[0],
        }
    }
}

/// Rebuild `config`'s stable world with `run_stable`'s seed streams
/// (topology `seed`, workload `seed + 1`, queries `seed + 2`, baseline
/// `seed + 3`), timing every call into a layer.
pub(crate) fn traced_world(config: &StableConfig, t: &mut Tracer, names: &BuildNames) -> World {
    let mut rng_topology = StdRng::seed_from_u64(config.seed);
    let mut rng_workload = StdRng::seed_from_u64(config.seed.wrapping_add(1));
    let space = space(config.bits);
    let (node_ids, catalog, zipf, assignment) = t.op(names.inputs, None, || {
        let node_ids = random_ids(space, config.nodes, &mut rng_topology);
        let catalog = ItemCatalog::random(space, config.items, &mut rng_topology);
        let zipf = zipf(config.items, config.alpha);
        let assignment = assignment(
            config.ranking,
            config.items,
            config.nodes,
            &mut rng_workload,
        );
        (node_ids, catalog, zipf, assignment)
    });
    let overlay = t.op(names.build, None, || {
        SimOverlay::build(config.kind, space, &node_ids, &mut rng_topology)
    });
    let pool_weights: Vec<FrequencySnapshot> = t.op(names.inputs, None, || {
        let owners: Vec<Id> = (0..config.items)
            .map(|i| {
                overlay
                    .true_owner(catalog.key(i))
                    .expect("a built overlay owns every key")
            })
            .collect();
        assignment
            .rankings()
            .iter()
            .map(|ranking| {
                let workload = NodeWorkload::new(zipf.clone(), ranking.clone());
                FrequencySnapshot::from_pairs(workload.node_weights(config.items, |i| owners[i]))
            })
            .collect()
    });

    let mut rng_select = StdRng::seed_from_u64(config.seed.wrapping_add(3));
    let oblivious = t.phase("baseline.select", |t| {
        node_ids
            .iter()
            .enumerate()
            .map(|(i, &node)| {
                t.op("baseline.select", sampled(i), || {
                    overlay
                        .select_oblivious_uniform(node, config.k, &mut rng_select)
                        .expect("stable problems are well-formed")
                        .aux
                })
            })
            .collect::<Vec<_>>()
    });
    let timed: Vec<(Vec<Id>, u64)> = t.phase("core.select", |t| {
        let timed = peercache_par::par_map_chunked(&node_ids, SELECT_CHUNK, |start, nodes| {
            let mut scratch = SelectScratch::new();
            nodes
                .iter()
                .enumerate()
                .map(|(offset, &node)| {
                    let freqs = &pool_weights[assignment.pool_index(start + offset)];
                    let begin = std::time::Instant::now();
                    let aux = overlay
                        .select_aware_into(node, freqs, config.k, &mut scratch)
                        .expect("stable problems are well-formed")
                        .aux;
                    (aux, begin.elapsed().as_nanos() as u64)
                })
                .collect()
        });
        let durations: Vec<u64> = timed.iter().map(|&(_, d)| d).collect();
        t.parallel_ops("core.select", &durations);
        timed
    });

    let (queries, aux) = t.op("workload.queries", None, || {
        let workloads: Vec<NodeWorkload> = (0..config.nodes)
            .map(|idx| NodeWorkload::new(zipf.clone(), assignment.for_node(idx).clone()))
            .collect();
        let mut rng_queries = StdRng::seed_from_u64(config.seed.wrapping_add(2));
        let queries: Vec<(Id, Id)> = (0..config.queries)
            .map(|_| {
                let origin = rng_queries.gen_range(0..config.nodes);
                let item = workloads[origin].sample_item(&mut rng_queries);
                (node_ids[origin], catalog.key(item))
            })
            .collect();
        let table = node_ids
            .iter()
            .copied()
            .zip(timed.into_iter().map(|(aux, _)| aux))
            .collect();
        (queries, AuxTable::new(table))
    });

    // Problem sizes, counted outside every timed call.
    let mut core = Vec::new();
    let candidates = node_ids
        .iter()
        .enumerate()
        .map(|(i, &node)| {
            overlay.core_neighbors_into(node, &mut core);
            pool_weights[assignment.pool_index(i)]
                .iter()
                .filter(|&(peer, _)| peer != node && !core.contains(&peer))
                .count()
        })
        .sum();
    World {
        node_ids,
        overlay,
        oblivious,
        queries,
        aux,
        candidates,
    }
}

/// Whether a traced rebuild reproduces the fixture node for node: both
/// selections and the query stream.
pub(crate) fn matches_fixture(world: &World, fixture: &RuntimeFixture) -> bool {
    let oblivious: Vec<(Id, Vec<Id>)> = world
        .node_ids
        .iter()
        .copied()
        .zip(world.oblivious.iter().cloned())
        .collect();
    AuxTable::new(fixture.aware_table()).entries() == world.aux.entries()
        && fixture.oblivious_table() == oblivious
        && fixture.queries().eq(world.queries.iter().copied())
}
