//! The stable-mode experiment driver (§VI: "a stable mode with no peer
//! insertions and deletions").
//!
//! In stable mode the per-node access frequencies are the *exact* node
//! popularities implied by the workload (item Zipf weights aggregated per
//! owner), so the comparison between the frequency-aware optimum and the
//! frequency-oblivious baseline is free of estimation noise. Lookups are
//! then sampled and routed through the real overlay to measure hops.

use peercache_faults::{FaultConfig, FaultPlan, LookupFailure};
use peercache_freq::FrequencySnapshot;
use peercache_id::{Id, IdSpace};
use peercache_workload::{random_ids, ItemCatalog, NodeWorkload, RankingAssignment, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use crate::metrics::{reduction_pct, FaultMetrics, QueryMetrics};
use crate::overlay::{OverlayKind, SelectScratch, SimOverlay};

/// Nodes per parallel selection task. Chunking is by fixed size — never by
/// thread count — and each chunk starts from a fresh [`SelectScratch`], so
/// the selected sets are bit-identical at any thread count (and at any
/// chunk size: each node's selection is a pure function of its inputs, so
/// this knob moves only dispatch overhead, never results).
///
/// Tuned via `perf_baseline`'s `select_fanout_c*` sweep: 64 beat the old
/// 32 by ~2 % (fewer dispatches and scratch warm-ups) while still leaving
/// ≥ 4 chunks at fig3's smallest paper point (n = 256), so a 4-thread
/// pool keeps full load-balance. 128 measured another ~4 % faster on a
/// single-core host but halves the available parallelism at n = 256.
pub(crate) const SELECT_CHUNK: usize = 64;

/// Resolve the auxiliary set of `id` from a measurement pass's side table
/// (`None` = the core-only pass).
pub(crate) fn aux_lookup<'a>(
    index: &'a [(Id, usize)],
    sets: Option<&'a [Vec<Id>]>,
    id: Id,
) -> &'a [Id] {
    const NO_AUX: &[Id] = &[];
    let Some(sets) = sets else { return NO_AUX };
    index
        .binary_search_by_key(&id, |&(n, _)| n)
        .map_or(NO_AUX, |pos| sets[index[pos].1].as_slice())
}

/// How item popularity rankings are distributed over nodes (§VI-A).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RankingMode {
    /// Identical ranking at all nodes (the Pastry plots).
    Identical,
    /// A pool of `n` distinct rankings assigned randomly (the Chord plots
    /// use 5).
    Pool(usize),
}

/// Configuration of one stable-mode comparison run.
#[derive(Clone, Debug)]
pub struct StableConfig {
    /// Which overlay to simulate.
    pub kind: OverlayKind,
    /// Identifier width (the paper uses 32).
    pub bits: u8,
    /// Number of nodes `n`.
    pub nodes: usize,
    /// Number of items. The paper leaves the catalog size open; the
    /// defaults use a fixed hot catalog of 64 items, which calibrates the
    /// headline reductions into the paper's band (see EXPERIMENTS.md for
    /// the sensitivity sweep).
    pub items: usize,
    /// Zipf exponent `α`.
    pub alpha: f64,
    /// Ranking distribution.
    pub ranking: RankingMode,
    /// Auxiliary pointers per node `k`.
    pub k: usize,
    /// Measurement queries to route.
    pub queries: usize,
    /// Master seed (everything is derived deterministically).
    pub seed: u64,
}

impl StableConfig {
    /// Paper-style defaults: 32-bit ids, a 64-item hot catalog,
    /// `k = log₂ n`, α = 1.2, 50 000 queries.
    pub fn paper_defaults(kind: OverlayKind, nodes: usize, seed: u64) -> Self {
        let k = crate::experiments::log2(nodes);
        StableConfig {
            kind,
            bits: 32,
            nodes,
            items: 64,
            alpha: 1.2,
            ranking: match kind {
                OverlayKind::Chord | OverlayKind::SkipGraph => RankingMode::Pool(5),
                OverlayKind::Pastry { .. } | OverlayKind::Tapestry { .. } => RankingMode::Identical,
            },
            k,
            queries: 50_000,
            seed,
        }
    }
}

/// The outcome of one stable-mode comparison.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct StableReport {
    /// Metrics with the frequency-aware optimal auxiliary sets.
    pub aware: QueryMetrics,
    /// Metrics with the frequency-oblivious baseline sets.
    pub oblivious: QueryMetrics,
    /// Metrics with no auxiliary neighbors at all (core only).
    pub core_only: QueryMetrics,
    /// The paper's metric: % reduction of aware vs oblivious.
    pub reduction_pct: f64,
}

/// Everything a measurement pass needs, built once per run: the frozen
/// overlay snapshot, both strategies' selected auxiliary sets, and the
/// one workload table (a single Zipf sampler plus the ranking
/// assignment, indexed by origin — no per-node copy).
///
/// Extracted so the stable driver and the runtime bridge share one
/// construction path and one [`QueryStream`] — RNG stream consumption
/// order is part of the reproducibility contract and must not fork
/// between them.
pub(crate) struct StableSetup {
    pub(crate) node_ids: Vec<Id>,
    pub(crate) catalog: ItemCatalog,
    pub(crate) zipf: Zipf,
    pub(crate) assignment: RankingAssignment,
    pub(crate) overlay: SimOverlay,
    pub(crate) aware_sets: Vec<Vec<Id>>,
    pub(crate) oblivious_sets: Vec<Vec<Id>>,
    pub(crate) aux_index: Vec<(Id, usize)>,
}

/// The stable driver's `(origin, key)` query sequence: `queries` pairs
/// from the `seed + 2` RNG, each an origin index and then that origin's
/// workload item. Every measurement pass and the runtime bridge
/// ([`RuntimeFixture::queries`](crate::RuntimeFixture::queries))
/// iterate this one stream, so their inputs cannot fork.
pub struct QueryStream<'a> {
    setup: &'a StableSetup,
    rng: StdRng,
    remaining: usize,
}

impl<'a> QueryStream<'a> {
    /// The stream of `config`'s run over `setup`.
    pub(crate) fn new(setup: &'a StableSetup, config: &StableConfig) -> Self {
        QueryStream {
            setup,
            rng: StdRng::seed_from_u64(config.seed.wrapping_add(2)),
            remaining: config.queries,
        }
    }
}

impl Iterator for QueryStream<'_> {
    type Item = (Id, Id);

    fn next(&mut self) -> Option<(Id, Id)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let setup = self.setup;
        let origin_idx = self.rng.gen_range(0..setup.node_ids.len());
        let ranking = setup.assignment.for_node(origin_idx);
        let item = setup.zipf.sample_item(ranking, &mut self.rng);
        let origin = setup.node_ids.get(origin_idx).copied()?;
        Some((origin, setup.catalog.key(item)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Run one stable-mode comparison: [`run_stable_faulted`] under no
/// faults, projected onto each pass's fault-oblivious metrics. Every
/// node is live and a transparent plan never fires, so no origin is
/// down and every timeout is a dead-neighbor probe.
///
/// # Panics
/// Panics on nonsensical configurations (zero nodes/items, α invalid) —
/// these are experiment definitions, not runtime inputs.
pub fn run_stable(config: &StableConfig) -> StableReport {
    let report = run_stable_faulted(config, &FaultConfig::none());
    StableReport {
        aware: report.aware.base,
        oblivious: report.oblivious.base,
        core_only: report.core_only.base,
        reduction_pct: report.reduction_pct,
    }
}

/// The stable-mode state shared by the real drivers and the selection
/// bench: topology, workloads and the per-ranking owner-weight
/// aggregates — everything the aware fan-out consumes, nothing the
/// measurement passes add on top.
pub(crate) struct SelectionInputs {
    pub(crate) node_ids: Vec<Id>,
    pub(crate) catalog: ItemCatalog,
    pub(crate) zipf: Zipf,
    pub(crate) assignment: RankingAssignment,
    pub(crate) overlay: SimOverlay,
    pub(crate) pool_weights: Vec<FrequencySnapshot>,
}

/// Build the selection inputs. Split out of [`build_stable`] so
/// [`SelectionBench`] shares the exact construction path (each RNG
/// stream is independently seeded, so stopping before the oblivious
/// draws consumes nothing the full build would not).
pub(crate) fn build_selection_inputs(config: &StableConfig) -> SelectionInputs {
    assert!(config.nodes > 0 && config.items > 0);
    let space = IdSpace::new(config.bits).expect("valid id width");
    let mut rng_topology = StdRng::seed_from_u64(config.seed);
    let mut rng_workload = StdRng::seed_from_u64(config.seed.wrapping_add(1));

    let node_ids = random_ids(space, config.nodes, &mut rng_topology);
    let catalog = ItemCatalog::random(space, config.items, &mut rng_topology);
    let zipf = Zipf::new(config.items, config.alpha).expect("valid Zipf");
    let assignment = match config.ranking {
        RankingMode::Identical => RankingAssignment::identical(config.items, config.nodes),
        RankingMode::Pool(p) => {
            RankingAssignment::random_pool(config.items, config.nodes, p, &mut rng_workload)
        }
    };

    let overlay = SimOverlay::build(config.kind, space, &node_ids, &mut rng_topology);

    // Item → owner, and per-ranking owner-weight aggregates (exact node
    // popularities, identical for every node sharing a ranking).
    let owners: Vec<Id> = (0..config.items)
        .map(|i| overlay.true_owner(catalog.key(i)).expect("non-empty"))
        .collect();
    let pool_weights: Vec<FrequencySnapshot> = (0..assignment.rankings().len())
        .map(|p| {
            let wl = NodeWorkload::new(zipf.clone(), assignment.rankings()[p].clone());
            FrequencySnapshot::from_pairs(wl.node_weights(config.items, |i| owners[i]))
        })
        .collect();
    SelectionInputs {
        node_ids,
        catalog,
        zipf,
        assignment,
        overlay,
        pool_weights,
    }
}

/// The frequency-aware solves of one chunk of nodes, `nodes` starting
/// at index `start`, through one [`SelectScratch`], so every solve after
/// the chunk's first reuses the warmed solver workspaces. Each node's
/// selection is a pure function of `(node, freqs, k)` — the workspace
/// contract — so the sets do not depend on how nodes are chunked.
fn select_aware_chunk(
    inputs: &SelectionInputs,
    k: usize,
    start: usize,
    nodes: &[Id],
) -> Vec<Vec<Id>> {
    let mut scratch = SelectScratch::new();
    nodes
        .iter()
        .enumerate()
        .map(|(offset, &node)| {
            let freqs = &inputs.pool_weights[inputs.assignment.pool_index(start + offset)];
            inputs
                .overlay
                .select_aware_into(node, freqs, k, &mut scratch)
                .expect("stable problems are well-formed")
                .aux
        })
        .collect()
}

/// The frequency-aware selection fan-out at an explicit chunk size: one
/// pool task per chunk of nodes. The returned sets are identical for
/// every chunk size and thread count; only the dispatch economics move.
pub(crate) fn select_aware_sets(inputs: &SelectionInputs, k: usize, chunk: usize) -> Vec<Vec<Id>> {
    peercache_par::par_map_chunked(&inputs.node_ids, chunk, |start, nodes| {
        select_aware_chunk(inputs, k, start, nodes)
    })
}

/// Every node's frequency-oblivious baseline set, drawn in node order
/// from the one `seed + 3` stream. The stream's ordering across nodes is
/// part of the reproducibility contract, so this draw is one serial
/// task; the aware solves consume no randomness, so running it beside
/// them yields the exact draw sequence of the historical interleaved
/// loop. The baseline ignores frequencies entirely: random picks per
/// distance slice over the whole ring (§VI-A), not just over the nodes
/// that happen to own items. The ring is taken once and one drawer
/// serves every node, so each draw is one merge walk over the ring plus
/// the shuffles, and allocates only the set it returns; no cost is
/// priced. The task is still Θ(n²) in all, so at large n it need not
/// stay shorter than the aware fan-out; `perf_baseline`'s
/// `baseline_oblivious_uniform` kernel times it per node.
fn select_oblivious_sets(inputs: &SelectionInputs, config: &StableConfig) -> Vec<Vec<Id>> {
    let overlay = &inputs.overlay;
    let ring = overlay.live_ids();
    let mut draw = overlay.oblivious_draw();
    let mut core = Vec::new();
    let mut rng_select = StdRng::seed_from_u64(config.seed.wrapping_add(3));
    inputs
        .node_ids
        .iter()
        .map(|&node| {
            overlay.core_neighbors_into(node, &mut core);
            draw.draw_ring(node, &core, &ring, config.k, &mut rng_select)
                .expect("stable problems are well-formed")
        })
        .collect()
}

/// One task of the stable set-up's selection list.
enum SelectTask<'a> {
    /// The whole serial oblivious draw.
    Oblivious,
    /// The aware solves of `nodes`, starting at node index `start`.
    Aware { start: usize, nodes: &'a [Id] },
}

/// Pre-built inputs for timing the set-up's selections: the aware
/// fan-out at explicit chunk sizes — the bench hook behind
/// `perf_baseline`'s chunk sweep that tunes `SELECT_CHUNK` — and the
/// serial oblivious draw.
pub struct SelectionBench {
    inputs: SelectionInputs,
    config: StableConfig,
}

impl SelectionBench {
    /// Build the fan-out inputs once, via the same construction path as
    /// the real stable drivers.
    pub fn new(config: &StableConfig) -> Self {
        SelectionBench {
            inputs: build_selection_inputs(config),
            config: config.clone(),
        }
    }

    /// Run the fan-out at `chunk` nodes per pool task; returns the total
    /// number of selected auxiliary pointers (a black-boxable checksum —
    /// identical for every chunk size).
    pub fn run(&self, chunk: usize) -> usize {
        select_aware_sets(&self.inputs, self.config.k, chunk)
            .iter()
            .map(Vec::len)
            .sum()
    }

    /// Run the set-up's oblivious draw over every node, as the stable
    /// set-up runs it; returns the total number of drawn pointers, a
    /// checksum like [`run`](Self::run)'s.
    pub fn oblivious(&self) -> usize {
        select_oblivious_sets(&self.inputs, &self.config)
            .iter()
            .map(Vec::len)
            .sum()
    }

    /// The chunk size the real drivers use, so the sweep can mark it.
    pub fn committed_chunk() -> usize {
        SELECT_CHUNK
    }
}

/// Build the shared stable-mode state: topology, workloads, and both
/// strategies' auxiliary selections.
pub(crate) fn build_stable(config: &StableConfig) -> StableSetup {
    let inputs = build_selection_inputs(config);

    // Per-node selections under both strategies, as one task list: the
    // serial oblivious draw first, then the aware DP solves — the hot
    // inner loop of a stable run — in fixed chunks (never by thread
    // count). The calling thread keeps the first task, so the draw runs
    // where a serial run draws (its per-node temporaries stay in that
    // thread's heap, not beside another worker's) while the other
    // workers take the aware chunks; a serial or nested run executes the
    // list in order. Order preservation keeps `aware_sets[idx]` aligned
    // with `node_ids[idx]`.
    let mut tasks = vec![SelectTask::Oblivious];
    tasks.extend(
        inputs
            .node_ids
            .chunks(SELECT_CHUNK)
            .enumerate()
            .map(|(c, nodes)| SelectTask::Aware {
                start: c * SELECT_CHUNK,
                nodes,
            }),
    );
    let mut sets = peercache_par::par_map(&tasks, |_, task| match *task {
        SelectTask::Oblivious => select_oblivious_sets(&inputs, config),
        SelectTask::Aware { start, nodes } => select_aware_chunk(&inputs, config.k, start, nodes),
    })
    .into_iter();
    let Some(oblivious_sets) = sets.next() else {
        unreachable!("par_map yields one result per task, the draw first");
    };
    let aware_sets: Vec<Vec<Id>> = sets.flatten().collect();

    let SelectionInputs {
        node_ids,
        catalog,
        zipf,
        assignment,
        overlay,
        ..
    } = inputs;
    // The measurement passes resolve auxiliary sets by *id* from a side
    // table; `node_ids` are in generation order.
    let mut aux_index: Vec<(Id, usize)> = node_ids
        .iter()
        .enumerate()
        .map(|(idx, &n)| (n, idx))
        .collect();
    aux_index.sort_unstable();
    StableSetup {
        node_ids,
        catalog,
        zipf,
        assignment,
        overlay,
        aware_sets,
        oblivious_sets,
        aux_index,
    }
}

/// The outcome of one fault-injected stable-mode comparison.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct StableFaultReport {
    /// Fault metrics with the frequency-aware optimal auxiliary sets.
    pub aware: FaultMetrics,
    /// Fault metrics with the frequency-oblivious baseline sets.
    pub oblivious: FaultMetrics,
    /// Fault metrics with no auxiliary neighbors at all (core only).
    pub core_only: FaultMetrics,
    /// The paper's metric: % reduction of aware vs oblivious.
    pub reduction_pct: f64,
}

/// One stable-mode comparison under fault injection: build the
/// topology and both strategies' selections, then route the same query
/// sequence under each strategy (core only, aware, oblivious) through
/// the fault walk.
///
/// All three passes share ONE immutable overlay snapshot: auxiliary sets
/// are resolved per pass from the side tables instead of being installed
/// into per-pass clones of the whole substrate. The walks consume no
/// randomness (every decision is a hash of `(run_seed, ids, hop,
/// attempt)`), so every pass draws the same query sequence and the
/// report is bit-identical at any thread count. Origins crashed by the
/// plan are reported as `origin_down` and excluded from the issued
/// count.
///
/// # Panics
/// Panics on nonsensical configurations (zero nodes/items, α invalid).
pub fn run_stable_faulted(config: &StableConfig, faults: &FaultConfig) -> StableFaultReport {
    let setup = build_stable(config);
    let plan = FaultPlan::new(config.seed, faults);

    let measure = |sets: Option<&[Vec<Id>]>| -> FaultMetrics {
        let mut metrics = FaultMetrics::default();
        for (origin, key) in QueryStream::new(&setup, config) {
            let route = setup.overlay.query_with_aux_faults(
                origin,
                key,
                |id| aux_lookup(&setup.aux_index, sets, id),
                &plan,
            );
            if matches!(route.outcome, Err(LookupFailure::OriginDown(_))) {
                metrics.record_origin_down();
            } else {
                metrics.record(&route);
            }
        }
        metrics
    };

    let passes: [Option<&[Vec<Id>]>; 3] =
        [None, Some(&setup.aware_sets), Some(&setup.oblivious_sets)];
    let results = peercache_par::par_map(&passes, |_, sets| measure(*sets));
    let mut results = results.into_iter();
    let (Some(core_only), Some(aware), Some(oblivious)) =
        (results.next(), results.next(), results.next())
    else {
        unreachable!("par_map yields one result per measurement pass");
    };
    let reduction = reduction_pct(aware.base.avg_hops(), oblivious.base.avg_hops());

    StableFaultReport {
        aware,
        oblivious,
        core_only,
        reduction_pct: reduction,
    }
}
