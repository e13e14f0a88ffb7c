//! The scale engine: fig3's stable-mode comparison at populations
//! (10⁵–10⁶ nodes) the materialised substrates cannot hold.
//!
//! The materialised [`PastryNetwork`](peercache_pastry::PastryNetwork)
//! build is O(n²) and the monolithic oblivious baseline draws Θ(n) per
//! node, so the paper path stops at a few thousand nodes. This engine
//! swaps both for virtual counterparts over a [`PastryArena`] — routing
//! state derived on demand from the sorted id array — while keeping the
//! experiment's shape: identical Zipf rankings, exact owner
//! popularities, the optimal aware selection per node, a slice-balanced
//! oblivious baseline, and three measurement passes over one shared
//! query stream. Lookups run through the one routing walk,
//! [`peercache_faults::walk`], under a transparent plan: the arena's
//! `Substrate::step` is the materialised network's Pastry rule, read
//! over the virtual tables.
//!
//! **Documented divergence from the paper path** (see DESIGN.md): arena
//! routing tables are deterministic hash picks (distributionally
//! equivalent to the materialised "first encountered" fill, not
//! bit-identical), and the oblivious baseline draws from per-node
//! seeded streams instead of one serial stream (statistically
//! equivalent; a serial stream would forbid the parallel fill).
//! Within the engine everything is a pure function of the config:
//! results are bit-identical at any thread count, which the scale tests
//! and the CI gate pin down.
//!
//! Memory discipline: selections live in one rank-indexed fixed-stride
//! slab per strategy, measurement streams into one [`QueryMetrics`] per
//! query chunk, and per-node solver state never outlives its rank-chunk
//! task — the bytes-per-node gauge in `fig3_scale` holds the whole
//! engine to a committed ceiling.

use std::ops::Range;

use peercache_core::pastry::PastryWorkspace;
use peercache_core::{Candidate, PastryProblem};
use peercache_faults::{walk, FaultPlan};
use peercache_freq::FrequencySnapshot;
use peercache_id::{splitmix64, Id, IdSpace};
use peercache_pastry::{PastryArena, PastryConfig, RoutingMode};
use peercache_workload::{random_ids, ItemCatalog, NodeWorkload, Ranking, Zipf};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use crate::metrics::{reduction_pct, QueryMetrics};
use crate::refresh::CounterSlab;

/// Queries per measurement task. Like the selection fan-out's
/// `SELECT_CHUNK`, chunking is by fixed size — never by thread count —
/// and every chunk's accumulator merges by order-independent integer
/// sums, so the merged metrics are bit-identical at any thread count.
const QUERY_CHUNK: usize = 4096;

/// Ranks per selection or refresh task: each task writes one
/// `RANK_CHUNK`-rank view of the slabs. Chunking is by fixed size, like
/// `QUERY_CHUNK`, and each rank's set is a pure function of that rank's
/// own inputs, so the slabs are bit-identical at any thread count. 256
/// keeps the views' own memory under half a byte per node while the
/// tests' 384- and 512-node populations still span two chunks.
const RANK_CHUNK: usize = 256;

/// fig3's digit width in bits.
const DIGIT_BITS: u8 = 1;

/// fig3's next-hop tie-breaking policy.
const MODE: RoutingMode = RoutingMode::LocalityAware;

/// fig3's hot-catalog size.
const ITEMS: usize = 64;

/// Monitored peers per node counter in the churn probe: the Space-Saving
/// stride of its `CounterSlab`, 193 B of counter state per node.
const COUNTER_STRIDE: usize = 8;

/// A flat fixed-stride auxiliary slab indexed by arena rank: rank `r`'s
/// set lives at `ids[r·stride .. r·stride + lens[r]]`. One allocation per
/// strategy, reused across refreshes — refreshing a node's set writes in
/// place instead of reallocating a `Vec<Id>`.
struct AuxSlab {
    stride: usize,
    lens: Vec<usize>,
    ids: Vec<Id>,
}

impl AuxSlab {
    fn new(stride: usize, count: usize) -> Self {
        AuxSlab {
            stride,
            lens: vec![0; count],
            ids: vec![Id::new(0); stride * count],
        }
    }

    fn get(&self, rank: usize) -> &[Id] {
        let base = rank * self.stride;
        &self.ids[base..base + self.lens[rank]]
    }

    /// Empty rank `rank`'s set.
    fn clear(&mut self, rank: usize) {
        self.lens[rank] = 0;
    }

    /// The slab as consecutive `RANK_CHUNK`-rank views in rank order,
    /// each writable by one task.
    fn chunks_mut(&mut self) -> impl Iterator<Item = SlabChunk<'_>> {
        let stride = self.stride;
        self.lens
            .chunks_mut(RANK_CHUNK)
            .zip(self.ids.chunks_mut(RANK_CHUNK * stride))
            .enumerate()
            .map(move |(c, (lens, ids))| SlabChunk {
                start: c * RANK_CHUNK,
                stride,
                lens,
                ids,
            })
    }
}

/// Up to `RANK_CHUNK` consecutive ranks of an [`AuxSlab`], from `start`.
struct SlabChunk<'a> {
    start: usize,
    stride: usize,
    lens: &'a mut [usize],
    ids: &'a mut [Id],
}

impl SlabChunk<'_> {
    fn ranks(&self) -> Range<usize> {
        self.start..self.start + self.lens.len()
    }

    fn set(&mut self, rank: usize, set: &[Id]) {
        debug_assert!(set.len() <= self.stride, "aux sets are bounded by k");
        let local = rank - self.start;
        let base = local * self.stride;
        self.ids[base..base + set.len()].copy_from_slice(set);
        self.lens[local] = set.len();
    }
}

/// Configuration of one scale run on fig3's Pastry world: 32-bit ids,
/// 1-bit digits, locality-aware routing, a 64-item catalog at
/// α = [`ALPHA`](Self::ALPHA), and [`k`](Self::k) pointers per node.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Number of nodes `n`.
    pub nodes: usize,
    /// Measurement queries to route.
    pub queries: usize,
    /// Master seed.
    pub seed: u64,
}

impl ScaleConfig {
    /// The Zipf exponent of the hot catalog (fig3's 1.2).
    pub const ALPHA: f64 = 1.2;

    /// Defaults at population `nodes`: 50 000 queries.
    pub fn paper_defaults(nodes: usize, seed: u64) -> Self {
        ScaleConfig {
            nodes,
            queries: 50_000,
            seed,
        }
    }

    /// Auxiliary pointers per node: `k = log₂ n`, rounded.
    pub fn k(&self) -> usize {
        crate::experiments::log2(self.nodes)
    }
}

/// The outcome of one scale run — the same three-pass comparison as
/// [`StableReport`](crate::stable::StableReport).
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ScaleReport {
    /// Metrics with the frequency-aware optimal auxiliary sets.
    pub aware: QueryMetrics,
    /// Metrics with the frequency-oblivious baseline sets.
    pub oblivious: QueryMetrics,
    /// Metrics with no auxiliary neighbors at all.
    pub core_only: QueryMetrics,
    /// The paper's metric: % reduction of aware vs oblivious.
    pub reduction_pct: f64,
}

/// What both scale drivers build first from a config: the arena over
/// the topology stream's ids, the item catalog drawn after them, the
/// one identity-ranked workload every node shares (fig3's identical
/// rankings), each item's owner rank, and the transparent plan every
/// walk runs under.
struct World {
    arena: PastryArena,
    catalog: ItemCatalog,
    workload: NodeWorkload,
    owner_ranks: Vec<usize>,
    plan: FaultPlan,
}

impl World {
    fn build(config: &ScaleConfig) -> Self {
        let space = IdSpace::paper();
        let mut rng_topology = StdRng::seed_from_u64(config.seed);
        let node_ids = random_ids(space, config.nodes, &mut rng_topology);
        let catalog = ItemCatalog::random(space, ITEMS, &mut rng_topology);
        let arena = PastryArena::new(
            PastryConfig::new(space, DIGIT_BITS).with_mode(MODE),
            node_ids,
        );
        let zipf = Zipf::new(ITEMS, ScaleConfig::ALPHA).expect("valid Zipf");
        let workload = NodeWorkload::new(zipf, Ranking::identity(ITEMS));
        let owner_ranks = (0..ITEMS)
            .map(|i| {
                let owner = arena.true_owner(catalog.key(i)).expect("non-empty arena");
                arena.rank_of(owner).expect("owners are members")
            })
            .collect();
        World {
            arena,
            catalog,
            workload,
            owner_ranks,
            plan: FaultPlan::transparent(config.seed),
        }
    }

    /// Route one query from the member at rank `origin` to `item`'s key,
    /// reading each hop's auxiliary set from `aux` (`None`: the core-only
    /// pass), and record it into `acc`. The arena is immutable and every
    /// member live, so the transparent plan never times out and no
    /// origin is ever down.
    fn route(&self, origin: usize, item: usize, aux: Option<&AuxSlab>, acc: &mut QueryMetrics) {
        const NO_AUX: &[Id] = &[];
        let aux_of = |id| match aux {
            Some(slab) => self.arena.rank_of(id).map_or(NO_AUX, |rank| slab.get(rank)),
            None => NO_AUX,
        };
        let route = walk(
            &self.arena,
            self.arena.ids()[origin],
            self.catalog.key(item),
            aux_of,
            &self.plan,
        );
        acc.record(
            route.outcome.is_ok(),
            route.trace.hops,
            route.trace.timeouts,
        );
    }
}

/// The optimal aware set of the member at `rank`, whose core set is
/// `core`, over the peers in `weights` other than itself and its core,
/// solved in `workspace`.
fn solve_aware<'w>(
    workspace: &'w mut PastryWorkspace,
    arena: &PastryArena,
    k: usize,
    rank: usize,
    core: &[Id],
    weights: impl Iterator<Item = (Id, f64)>,
) -> &'w [Id] {
    let node = arena.ids()[rank];
    let candidates: Vec<Candidate> = weights
        .filter(|&(id, _)| id != node && core.binary_search(&id).is_err())
        .map(|(id, w)| Candidate::new(id, w))
        .collect();
    let config = arena.config();
    let problem = PastryProblem::new(
        config.space,
        config.digit_bits,
        node,
        core.to_vec(),
        candidates,
        k,
    )
    .expect("scale problems are well-formed");
    &workspace
        .solve_into(&problem)
        .expect("scale problems are well-formed")
        .aux
}

/// The `[lo, hi)` index range of arena members whose top `p` bits equal
/// `source`'s, over the sorted id array.
fn prefix_range(ids: &[Id], source: Id, p: u32, b: u32) -> (usize, usize) {
    if p == 0 {
        return (0, ids.len());
    }
    if p >= b {
        let lo = ids.partition_point(|&x| x < source);
        let hi = ids.partition_point(|&x| x <= source);
        return (lo, hi);
    }
    let shift = b - p;
    let low = (source.value() >> shift) << shift;
    let high_incl = low | ((1u128 << shift) - 1);
    (
        ids.partition_point(|&x| x.value() < low),
        ids.partition_point(|&x| x.value() <= high_incl),
    )
}

/// One prefix slice of the sorted ring: members sharing *exactly* `l`
/// digits with the source — the outer prefix range minus the nested
/// inner one, i.e. up to two contiguous index ranges.
#[derive(Clone, Copy)]
struct Slice {
    outer: (usize, usize),
    inner: (usize, usize),
}

impl Slice {
    /// Structural member count (source included — it always falls in
    /// the inner range, so it never appears here).
    fn len(&self) -> usize {
        (self.outer.1 - self.outer.0) - (self.inner.1 - self.inner.0)
    }

    /// The arena index of the slice's `i`-th member.
    fn index(&self, i: usize) -> usize {
        let left = self.inner.0 - self.outer.0;
        if i < left {
            self.outer.0 + i
        } else {
            self.inner.1 + (i - left)
        }
    }
}

/// The slice-balanced oblivious baseline at scale: the same per-slice
/// quota rule as [`baseline::pastry_oblivious`] (⌊k/#slices⌋ + 1 for
/// the first `k mod #slices` non-empty slices, shortfalls topped up
/// round-robin), drawing *distinct* members of each contiguous prefix
/// range by indexed sampling instead of materialising the Θ(n) pool —
/// O(k + b + |core|) per node. Per-node seeded, so the draw is a pure
/// function of `(seed, rank)` and independent of the thread count.
///
/// [`baseline::pastry_oblivious`]: peercache_core::baseline::pastry_oblivious
fn oblivious_at_scale(
    arena: &PastryArena,
    rank: usize,
    core: &[Id],
    k: usize,
    seed: u64,
    slices_buf: &mut Vec<(Slice, usize)>,
    out: &mut Vec<Id>,
) {
    out.clear();
    if k == 0 {
        return;
    }
    let ids = arena.ids();
    let source = ids[rank];
    let config = arena.config();
    let space = config.space;
    let b = u32::from(space.bits());
    let d = u32::from(config.digit_bits);
    // fold(rank) into the run seed: `rank` is an array index, far below
    // 2^53, so the u64 conversion is exact.
    let mut rng = StdRng::seed_from_u64(splitmix64(
        seed.wrapping_add(3) ^ u64::try_from(rank).unwrap_or(u64::MAX),
    ));

    // Eligible count per slice = structural members minus core members
    // landing in it (the source itself sits in every inner range).
    slices_buf.clear();
    for l in 0..u32::from(config.digit_count) {
        let outer_bits = (l * d).min(b);
        let inner_bits = ((l + 1) * d).min(b);
        if outer_bits >= b {
            break;
        }
        let slice = Slice {
            outer: prefix_range(ids, source, outer_bits, b),
            inner: prefix_range(ids, source, inner_bits, b),
        };
        let core_inside = core
            .iter()
            .filter(|&&c| {
                space
                    .common_prefix_digits(c, source, config.digit_bits)
                    .is_ok_and(|shared| u32::from(shared) == l)
            })
            .count();
        let eligible = slice.len().saturating_sub(core_inside);
        if eligible > 0 {
            slices_buf.push((slice, eligible));
        }
    }
    let total: usize = slices_buf.iter().map(|&(_, e)| e).sum();
    let k = k.min(total);
    if k == 0 {
        return;
    }

    // Quotas, then round-robin top-up for shortfall slices.
    let nslices = slices_buf.len();
    let per = k / nslices;
    let extra = k % nslices;
    for (i, &(slice, eligible)) in slices_buf.iter().enumerate() {
        let quota = (per + usize::from(i < extra)).min(eligible);
        draw_from_slice(ids, &slice, source, core, quota, &mut rng, out);
    }
    let mut guard = 0;
    while out.len() < k && guard < k {
        guard += 1;
        for &(slice, eligible) in slices_buf.iter() {
            if out.len() >= k {
                break;
            }
            let already = (0..slice.len())
                .filter(|&i| out.contains(&ids[slice.index(i)]))
                .count();
            if already < eligible {
                draw_from_slice(ids, &slice, source, core, 1, &mut rng, out);
            }
        }
    }
    out.sort_unstable();
}

/// Draw `quota` distinct eligible members of `slice` into `out`.
/// Rejection-sample huge slices (the acceptance rate is ≥ 1 − (|core| +
/// k)/|slice|, essentially 1 at scale); enumerate small ones.
fn draw_from_slice<R: Rng + ?Sized>(
    ids: &[Id],
    slice: &Slice,
    source: Id,
    core: &[Id],
    quota: usize,
    rng: &mut R,
    out: &mut Vec<Id>,
) {
    if quota == 0 {
        return;
    }
    let s = slice.len();
    let eligible_id = |id: Id, out: &[Id]| -> bool {
        id != source && core.binary_search(&id).is_err() && !out.contains(&id)
    };
    if s <= 128 {
        let mut pool: Vec<Id> = (0..s)
            .map(|i| ids[slice.index(i)])
            .filter(|&id| eligible_id(id, out))
            .collect();
        pool.shuffle(rng);
        out.extend(pool.into_iter().take(quota));
        return;
    }
    let mut taken = 0;
    // The attempt bound keeps the loop total; with |slice| > 128 and a
    // handful of exclusions it is effectively never hit.
    for _ in 0..64 * quota.max(1) + 256 {
        if taken == quota {
            break;
        }
        let id = ids[slice.index(rng.gen_range(0..s))];
        if eligible_id(id, out) {
            out.push(id);
            taken += 1;
        }
    }
}

/// Run one scale comparison. See the module docs for what is shared
/// with — and what diverges from — the paper-scale stable driver.
///
/// # Panics
/// Panics on zero nodes — an experiment definition, not a runtime
/// input.
pub fn run_scale_stable(config: &ScaleConfig) -> ScaleReport {
    assert!(config.nodes > 0);
    let world = World::build(config);
    let arena = &world.arena;
    let n = arena.len();
    let k = config.k();

    // Identical rankings (fig3): one exact owner-popularity snapshot for
    // every node.
    let weights = FrequencySnapshot::from_pairs(
        world
            .workload
            .node_weights(ITEMS, |i| arena.ids()[world.owner_ranks[i]]),
    );

    // Both strategies' selections, one task per rank chunk, each writing
    // its own views of the two slabs — no per-node vectors retained past
    // the solve.
    let stride = k.max(1);
    let mut aware_slab = AuxSlab::new(stride, n);
    let mut oblivious_slab = AuxSlab::new(stride, n);
    let mut chunks: Vec<_> = aware_slab
        .chunks_mut()
        .zip(oblivious_slab.chunks_mut())
        .collect();
    peercache_par::par_map_mut(&mut chunks, |_, (aware, oblivious)| {
        let mut workspace = PastryWorkspace::new();
        let mut core = Vec::new();
        let mut slices_buf = Vec::new();
        let mut draw = Vec::new();
        for rank in aware.ranks() {
            arena.core_neighbors_into(rank, &mut core);
            let set = solve_aware(&mut workspace, arena, k, rank, &core, weights.iter());
            aware.set(rank, set);
            oblivious_at_scale(
                arena,
                rank,
                &core,
                k,
                config.seed,
                &mut slices_buf,
                &mut draw,
            );
            oblivious.set(rank, &draw);
        }
    });

    // One pre-generated query stream, measured under all three
    // strategies in fixed-size chunks of streaming accumulators.
    let mut rng_queries = StdRng::seed_from_u64(config.seed.wrapping_add(2));
    let queries: Vec<(usize, usize)> = (0..config.queries)
        .map(|_| {
            (
                rng_queries.gen_range(0..n),
                world.workload.sample_item(&mut rng_queries),
            )
        })
        .collect();
    let measure = |aux: Option<&AuxSlab>| -> QueryMetrics {
        let accs = peercache_par::par_map_chunked(&queries, QUERY_CHUNK, |_, chunk| {
            let mut acc = QueryMetrics::default();
            for &(origin, item) in chunk {
                world.route(origin, item, aux, &mut acc);
            }
            vec![acc]
        });
        let mut total = QueryMetrics::default();
        for acc in &accs {
            total.merge(acc);
        }
        total
    };

    let core_only = measure(None);
    let aware = measure(Some(&aware_slab));
    let oblivious = measure(Some(&oblivious_slab));
    let reduction = reduction_pct(aware.avg_hops(), oblivious.avg_hops());
    ScaleReport {
        aware,
        oblivious,
        core_only,
        reduction_pct: reduction,
    }
}

/// Configuration of the scale-churn probe: the churn driver's
/// flip → observe → refresh cycle re-homed onto the virtual arena, at
/// populations the materialised driver cannot hold.
#[derive(Clone, Debug)]
pub struct ScaleChurnConfig {
    /// The underlying scale parameters (population and seed).
    /// `scale.queries` is ignored — the churn probe routes
    /// [`queries_per_round`](Self::queries_per_round) per round.
    pub scale: ScaleConfig,
    /// Flip → route → refresh rounds to run.
    pub rounds: usize,
    /// Membership flips (alive ↔ dead toggles) drawn per round.
    pub flips_per_round: usize,
    /// Queries routed — and observed into the counters — per round.
    pub queries_per_round: usize,
}

impl ScaleChurnConfig {
    /// Churn-probe defaults at population `nodes`: the fig3 scale
    /// parameters, 4 rounds of 1 % membership flips and 25 000 queries
    /// per round.
    pub fn paper_defaults(nodes: usize, seed: u64) -> Self {
        ScaleChurnConfig {
            scale: ScaleConfig::paper_defaults(nodes, seed),
            rounds: 4,
            flips_per_round: (nodes / 100).max(1),
            queries_per_round: 25_000,
        }
    }
}

/// One round of the scale-churn probe.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ScaleChurnRound {
    /// Membership flips applied this round.
    pub flips: usize,
    /// Alive population after the flips.
    pub alive: usize,
    /// Nodes whose aux set was re-solved (dirty ∩ alive).
    pub refreshed: usize,
    /// Routing metrics of the round's query stream (aware sets).
    pub metrics: QueryMetrics,
}

/// The outcome of [`run_scale_churn`].
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ScaleChurnReport {
    /// Per-round flip/refresh/routing rows.
    pub rounds: Vec<ScaleChurnRound>,
    /// Fixed per-node churn state (counters + aux slab + flags), the
    /// component the bytes-per-node CI gauge holds to its ceiling.
    pub state_bytes_per_node: f64,
}

/// The first alive rank at or after `rank`, walking the sorted ring.
/// Total: the flip loop never kills the last alive member.
fn walk_alive(alive: &[bool], rank: usize) -> usize {
    let n = alive.len();
    (0..n)
        .map(|d| (rank + d) % n)
        .find(|&r| alive[r])
        .expect("the flip loop keeps at least one member alive")
}

/// The scale tier of the churn driver, built on the incremental
/// refresh engine: each round flips a slice
/// of the membership, routes a query stream over the live aware sets,
/// streams the `(origin, owner)` observations into a fixed-stride
/// `CounterSlab`, and re-solves **only** the dirty alive nodes — the
/// same observe-then-refresh-dirty cycle as `ChurnRefresh`, with the
/// retained optimizers traded for bounded counters so per-node state
/// stays a fixed few hundred bytes at `n = 10⁵`.
///
/// **Documented divergences from the materialised churn driver** (see
/// DESIGN.md "Incremental refresh under churn"): the arena's membership
/// is immutable, so dead nodes stay routable waypoints — death clears a
/// node's aux set, counters, and query eligibility, and an owner that
/// dies hands its observations to the next alive successor on the ring.
/// Everything is a pure function of the config: routing is read-only
/// fan-out, observations apply serially in stream order, and each dirty
/// node's re-solve depends only on its own counters — so the report is
/// bit-identical at any thread count, which the invariance test below
/// and the CI scale job pin down.
///
/// # Panics
/// Panics on nonsensical configurations (fewer than two nodes, zero
/// rounds) — experiment definitions, not runtime inputs.
pub fn run_scale_churn(config: &ScaleChurnConfig) -> ScaleChurnReport {
    let sc = &config.scale;
    assert!(sc.nodes > 1 && config.rounds > 0);
    let world = World::build(sc);
    let arena = &world.arena;
    let n = arena.len();
    let k = sc.k();

    // Fixed per-node churn state: flags, bounded counters, and one
    // aware slab — no oblivious pass and no retained optimizers at this
    // tier.
    let stride = k.max(1);
    let mut alive = vec![true; n];
    let mut alive_count = n;
    let mut dirty = vec![false; n];
    let mut counters = CounterSlab::new(COUNTER_STRIDE, n);
    let mut aware = AuxSlab::new(stride, n);
    let state_bytes = counters.footprint_bytes()
        + n * stride * std::mem::size_of::<Id>()
        + n * std::mem::size_of::<usize>()
        + 2 * n;

    let mut rng_churn = StdRng::seed_from_u64(sc.seed.wrapping_add(5));
    let mut rng_queries = StdRng::seed_from_u64(sc.seed.wrapping_add(2));
    let mut rounds_out = Vec::with_capacity(config.rounds);

    for _ in 0..config.rounds {
        // 1. Membership flips. Death clears the node's aux set (its
        //    pointers must stop resolving for routes passing through
        //    it) and drops its dirty mark; rejoin re-dirties so the
        //    refresh pass re-solves from the surviving counter weights
        //    — the slab equivalent of the engine's rejoin path.
        let mut flips = 0;
        for _ in 0..config.flips_per_round {
            let rank = rng_churn.gen_range(0..n);
            if alive[rank] {
                if alive_count <= 1 {
                    continue;
                }
                alive[rank] = false;
                alive_count -= 1;
                dirty[rank] = false;
                aware.clear(rank);
            } else {
                alive[rank] = true;
                alive_count += 1;
                dirty[rank] = true;
            }
            flips += 1;
        }

        // 2. One round's query stream: alive origins (a dead draw walks
        //    to its alive successor — one RNG draw either way, so the
        //    stream is independent of the flip history's shape), routed
        //    chunk-parallel over the read-only slab. Each chunk returns
        //    its accumulator plus the `(origin, observed owner)` pairs;
        //    chunks come back in stream order.
        let queries: Vec<(usize, usize)> = (0..config.queries_per_round)
            .map(|_| {
                let origin = walk_alive(&alive, rng_queries.gen_range(0..n));
                (origin, world.workload.sample_item(&mut rng_queries))
            })
            .collect();
        let chunk_results = peercache_par::par_map_chunked(&queries, QUERY_CHUNK, |_, chunk| {
            let mut acc = QueryMetrics::default();
            let mut observations = Vec::with_capacity(chunk.len());
            for &(origin, item) in chunk {
                world.route(origin, item, Some(&aware), &mut acc);
                let owner_rank = walk_alive(&alive, world.owner_ranks[item]);
                observations.push((origin, arena.ids()[owner_rank]));
            }
            vec![(acc, observations)]
        });

        // 3. Serial application in stream order: merge the hop
        //    accumulators and absorb the observations into the counter
        //    slab, dirty-marking each observer (self-ownership teaches
        //    a node nothing — it already owns the key).
        let mut total = QueryMetrics::default();
        for (acc, observations) in &chunk_results {
            total.merge(acc);
            for &(origin, owner) in observations {
                if owner != arena.ids()[origin] {
                    counters.observe(origin, owner);
                    dirty[origin] = true;
                }
            }
        }

        // 4. Rank-chunk-parallel refresh of dirty ∩ alive nodes only —
        //    the scale form of the engine's clean-skip. Candidates are
        //    the node's own bounded counter entries, minus itself and
        //    its core set, minus dead members.
        let mut chunks: Vec<_> = aware.chunks_mut().collect();
        let refreshed: usize = peercache_par::par_map_mut(&mut chunks, |_, chunk| {
            let mut workspace = PastryWorkspace::new();
            let mut core = Vec::new();
            let mut snap = FrequencySnapshot::default();
            let mut count = 0usize;
            for rank in chunk.ranks() {
                if !dirty[rank] || !alive[rank] || counters.is_empty(rank) {
                    continue;
                }
                arena.core_neighbors_into(rank, &mut core);
                counters.snapshot_into(rank, &mut snap);
                let live = snap
                    .iter()
                    .filter(|&(id, _)| arena.rank_of(id).is_some_and(|r| alive[r]));
                chunk.set(
                    rank,
                    solve_aware(&mut workspace, arena, k, rank, &core, live),
                );
                count += 1;
            }
            count
        })
        .into_iter()
        .sum();
        for rank in 0..n {
            if alive[rank] {
                dirty[rank] = false;
            }
        }

        rounds_out.push(ScaleChurnRound {
            flips,
            alive: alive_count,
            refreshed,
            metrics: total,
        });
    }

    let state_bytes_per_node = state_bytes as f64 / n as f64;
    ScaleChurnReport {
        rounds: rounds_out,
        state_bytes_per_node,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(nodes: usize) -> ScaleConfig {
        let mut config = ScaleConfig::paper_defaults(nodes, 11);
        config.queries = 2_000;
        config
    }

    #[test]
    fn scale_run_reproduces_fig3_shape() {
        let report = run_scale_stable(&quick_config(512));
        assert_eq!(report.aware.issued, 2_000);
        assert!(
            report.aware.success_rate() > 0.99,
            "aware success {}",
            report.aware.success_rate()
        );
        assert!(
            report.oblivious.success_rate() > 0.99,
            "oblivious success {}",
            report.oblivious.success_rate()
        );
        assert!(
            report.reduction_pct > 0.0,
            "aware must beat oblivious: {}",
            report.reduction_pct
        );
        assert!(
            report.core_only.avg_hops() > report.aware.avg_hops(),
            "aux pointers must shorten routes"
        );
    }

    /// n = 384 spans two `RANK_CHUNK`s, the second one partial, so the
    /// selection fill writes through two chunk views and walks read
    /// across them.
    #[test]
    fn scale_run_is_invariant_to_thread_count() {
        let serial = peercache_par::with_threads(1, || run_scale_stable(&quick_config(384)));
        let threaded = peercache_par::with_threads(4, || run_scale_stable(&quick_config(384)));
        assert_eq!(serial, threaded, "thread count must not affect results");
    }

    fn quick_churn_config(nodes: usize) -> ScaleChurnConfig {
        let mut config = ScaleChurnConfig::paper_defaults(nodes, 13);
        config.rounds = 3;
        config.flips_per_round = nodes / 8;
        config.queries_per_round = 1_500;
        config
    }

    #[test]
    fn scale_churn_flips_observe_and_refresh() {
        let report = run_scale_churn(&quick_churn_config(512));
        assert_eq!(report.rounds.len(), 3);
        for (i, round) in report.rounds.iter().enumerate() {
            assert_eq!(round.metrics.issued, 1_500, "round {i}");
            assert!(round.flips > 0, "round {i} flipped nobody");
            assert!(round.alive >= 1 && round.alive <= 512);
            assert!(round.refreshed > 0, "round {i} refreshed nobody");
            assert!(round.refreshed <= round.alive);
            assert!(
                round.metrics.success_rate() > 0.95,
                "round {i} success {}",
                round.metrics.success_rate()
            );
        }
        // k=9 slab (144 B) + stride-8 counters (193 B) + flags: well
        // under the CI ceiling even before the arena ids are counted.
        assert!(
            report.state_bytes_per_node < 1024.0,
            "churn state {} B/node",
            report.state_bytes_per_node
        );
    }

    /// The churn twin of the stable invariance test: the refresh pass
    /// re-solves through the same multi-chunk views.
    #[test]
    fn scale_churn_is_invariant_to_thread_count() {
        let serial = peercache_par::with_threads(1, || run_scale_churn(&quick_churn_config(384)));
        let threaded = peercache_par::with_threads(4, || run_scale_churn(&quick_churn_config(384)));
        assert_eq!(serial, threaded, "thread count must not affect results");
    }

    /// One pass as `(issued, succeeded, failed, total_hops,
    /// failed_probes, hop_histogram)`.
    type Pin = (u64, u64, u64, u64, u64, &'static [u64]);

    fn pin_of(m: &QueryMetrics) -> (u64, u64, u64, u64, u64, &[u64]) {
        (
            m.issued,
            m.succeeded,
            m.failed,
            m.total_hops,
            m.failed_probes,
            &m.hop_histogram,
        )
    }

    /// The quick configs' reports, recorded before the arena's routing
    /// moved onto the shared Pastry rule: any drift in a forwarding
    /// decision shows up as a changed hop histogram.
    #[test]
    fn scale_reports_match_recorded_pins() {
        const STABLE: [(usize, [Pin; 3]); 2] = [
            (
                512,
                [
                    (
                        2000,
                        2000,
                        0,
                        3418,
                        0,
                        &[3, 1415, 135, 209, 130, 64, 43, 0, 1],
                    ),
                    (2000, 2000, 0, 5945, 0, &[3, 99, 498, 836, 486, 70, 8]),
                    (
                        2000,
                        2000,
                        0,
                        7512,
                        0,
                        &[3, 54, 257, 540, 587, 398, 144, 14, 3],
                    ),
                ],
            ),
            (
                384,
                [
                    (2000, 2000, 0, 3739, 0, &[5, 965, 576, 253, 151, 41, 9]),
                    (2000, 2000, 0, 5792, 0, &[5, 111, 552, 845, 400, 80, 7]),
                    (
                        2000,
                        2000,
                        0,
                        7458,
                        0,
                        &[5, 75, 268, 526, 562, 390, 147, 27],
                    ),
                ],
            ),
        ];
        for (n, [aware, oblivious, core_only]) in STABLE {
            assert!(n > RANK_CHUNK, "n={n} spans two or more rank chunks");
            let report = run_scale_stable(&quick_config(n));
            assert_eq!(pin_of(&report.aware), aware, "n={n} aware");
            assert_eq!(pin_of(&report.oblivious), oblivious, "n={n} oblivious");
            assert_eq!(pin_of(&report.core_only), core_only, "n={n} core-only");
        }

        // `(flips, alive, refreshed, metrics)` per round.
        type Round = (usize, usize, usize, Pin);
        const CHURN: [(usize, [Round; 3]); 2] = [
            (
                512,
                [
                    (
                        64,
                        450,
                        430,
                        (
                            1500,
                            1500,
                            0,
                            5838,
                            0,
                            &[1, 50, 155, 391, 436, 280, 154, 27, 6],
                        ),
                    ),
                    (
                        64,
                        412,
                        398,
                        (
                            1500,
                            1500,
                            0,
                            4061,
                            0,
                            &[1, 437, 264, 328, 300, 120, 39, 10, 1],
                        ),
                    ),
                    (
                        64,
                        388,
                        375,
                        (1500, 1500, 0, 3523, 0, &[1, 594, 275, 295, 216, 90, 23, 6]),
                    ),
                ],
            ),
            (
                384,
                [
                    (
                        48,
                        340,
                        335,
                        (
                            1500,
                            1500,
                            0,
                            5384,
                            0,
                            &[2, 66, 246, 400, 424, 261, 83, 17, 1],
                        ),
                    ),
                    (
                        48,
                        308,
                        299,
                        (1500, 1500, 0, 3711, 0, &[5, 463, 338, 324, 273, 75, 21, 1]),
                    ),
                    (
                        48,
                        284,
                        279,
                        (1500, 1500, 0, 3227, 0, &[3, 622, 325, 316, 171, 55, 8]),
                    ),
                ],
            ),
        ];
        for (n, rounds) in CHURN {
            let report = run_scale_churn(&quick_churn_config(n));
            assert_eq!(report.rounds.len(), rounds.len());
            for (i, (round, (flips, alive, refreshed, metrics))) in
                report.rounds.iter().zip(rounds).enumerate()
            {
                assert_eq!(
                    (round.flips, round.alive, round.refreshed),
                    (flips, alive, refreshed),
                    "n={n} round {i}"
                );
                assert_eq!(pin_of(&round.metrics), metrics, "n={n} round {i} metrics");
            }
            assert_eq!(report.state_bytes_per_node, 411.0, "n={n} churn state");
        }
    }

    /// The chunk views tile the slab in rank order — a partial last
    /// chunk included — and a set written through a view reads back by
    /// rank from the whole slab.
    #[test]
    fn slab_chunks_cover_every_rank_once() {
        let set_of = |rank: usize| -> Vec<Id> {
            (0..rank % 4)
                .map(|j| Id::new((rank * 3 + j) as u128))
                .collect()
        };
        let count = 2 * RANK_CHUNK + 44;
        let mut slab = AuxSlab::new(3, count);
        let mut next = 0;
        for mut chunk in slab.chunks_mut() {
            assert_eq!(chunk.ranks().start, next);
            next = chunk.ranks().end;
            for rank in chunk.ranks() {
                chunk.set(rank, &set_of(rank));
            }
        }
        assert_eq!(next, count);
        for rank in 0..count {
            assert_eq!(slab.get(rank), set_of(rank), "rank {rank}");
        }
        slab.clear(RANK_CHUNK);
        assert!(slab.get(RANK_CHUNK).is_empty());
        assert_eq!(slab.get(RANK_CHUNK + 1).len(), (RANK_CHUNK + 1) % 4);
    }

    #[test]
    fn oblivious_sets_are_distinct_sorted_non_core_members() {
        let space = IdSpace::new(16).expect("valid width");
        let config = PastryConfig::new(space, 1);
        let mut rng = StdRng::seed_from_u64(5);
        let ids = random_ids(space, 200, &mut rng);
        let arena = PastryArena::new(config, ids);
        let mut core = Vec::new();
        let mut slices_buf = Vec::new();
        let mut out = Vec::new();
        for rank in 0..arena.len() {
            arena.core_neighbors_into(rank, &mut core);
            oblivious_at_scale(&arena, rank, &core, 8, 3, &mut slices_buf, &mut out);
            assert_eq!(out.len(), 8, "full budget at rank {rank}");
            assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted distinct");
            for &id in &out {
                assert!(arena.rank_of(id).is_some());
                assert_ne!(id, arena.ids()[rank]);
                assert!(core.binary_search(&id).is_err(), "never a core member");
            }
        }
    }

    #[test]
    fn prefix_ranges_cover_the_ring_exactly_once() {
        let space = IdSpace::new(12).expect("valid width");
        let config = PastryConfig::new(space, 1);
        let mut rng = StdRng::seed_from_u64(9);
        let ids = random_ids(space, 150, &mut rng);
        let arena = PastryArena::new(config, ids);
        let source = arena.ids()[42];
        let b = u32::from(space.bits());
        let mut covered = 0usize;
        for l in 0..b {
            let outer = prefix_range(arena.ids(), source, l, b);
            let inner = prefix_range(arena.ids(), source, l + 1, b);
            let slice = Slice { outer, inner };
            for i in 0..slice.len() {
                let id = arena.ids()[slice.index(i)];
                assert_eq!(
                    u32::from(
                        space
                            .common_prefix_digits(id, source, 1)
                            .expect("valid digit width")
                    ),
                    l,
                    "slice {l} member {id} shares exactly l bits"
                );
            }
            covered += slice.len();
        }
        assert_eq!(covered, arena.len() - 1, "everything but the source");
    }
}
