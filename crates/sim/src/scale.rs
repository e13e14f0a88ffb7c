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
//! equivalent; a serial stream would forbid the per-shard fan-out).
//! Within the engine everything is a pure function of the config:
//! results are bit-identical at any shard and thread count, which the
//! scale tests and the CI gate pin down.
//!
//! Memory discipline: selections live in per-shard fixed-stride slabs,
//! measurement streams into fixed [`HopAccumulator`]s, and per-node
//! state never outlives its shard task — the bytes-per-node gauge in
//! `fig3_scale` holds the whole engine to a committed ceiling.

use peercache_core::pastry::PastryWorkspace;
use peercache_core::{Candidate, PastryProblem};
use peercache_faults::{walk, FaultPlan, FaultedRoute};
use peercache_freq::FrequencySnapshot;
use peercache_id::{Id, IdSpace};
use peercache_pastry::{PastryArena, PastryConfig, RoutingMode};
use peercache_workload::{random_ids, ItemCatalog, NodeWorkload, Ranking, Zipf};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use crate::metrics::{reduction_pct, HopAccumulator, QueryMetrics};
use crate::refresh::CounterSlab;

/// Queries per measurement task. Like the selection fan-out's
/// `SELECT_CHUNK`, chunking is by fixed size — never by thread count —
/// and every chunk's accumulator merges by order-independent integer
/// sums, so the merged metrics are bit-identical at any thread count.
const QUERY_CHUNK: usize = 4096;

/// The deterministic shard count for a population of `nodes`: one shard
/// per 8192 nodes, clamped to `[1, 64]`. A pure function of the config —
/// the thread count never feeds in — so two runs of the same config
/// shard identically regardless of the host.
pub fn shard_count_for(nodes: usize) -> usize {
    nodes.div_ceil(8192).clamp(1, 64)
}

/// The contiguous shard partition of the rank space `0..n` (delegating
/// to [`peercache_par::shard_bounds`] so every consumer slices
/// identically).
struct ShardLayout {
    bounds: Vec<(usize, usize)>,
}

impl ShardLayout {
    /// Partition `len` slots into `shards` balanced contiguous ranges.
    fn new(len: usize, shards: usize) -> Self {
        ShardLayout {
            bounds: peercache_par::shard_bounds(len, shards),
        }
    }

    /// Number of shards (≥ 1; trailing shards may be empty).
    fn shards(&self) -> usize {
        self.bounds.len()
    }

    /// The `[start, end)` slot range of shard `s`.
    fn bounds(&self, s: usize) -> (usize, usize) {
        self.bounds[s]
    }

    /// The shard owning global slot `slot` (slots past the end map to
    /// the last shard; callers only pass in-range slots).
    fn shard_of(&self, slot: usize) -> usize {
        self.bounds
            .partition_point(|&(_, end)| end <= slot)
            .min(self.bounds.len() - 1)
    }
}

/// A flat fixed-stride auxiliary slab: shard-local slot `i`'s set lives
/// at `ids[i·stride .. i·stride + lens[i]]`. One allocation per shard
/// per strategy, reused across refreshes — refreshing a node's set
/// writes in place instead of reallocating a `Vec<Id>`.
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

    fn set(&mut self, local: usize, set: &[Id]) {
        debug_assert!(set.len() <= self.stride, "aux sets are bounded by k");
        let base = local * self.stride;
        self.ids[base..base + set.len()].copy_from_slice(set);
        self.lens[local] = set.len();
    }

    fn get(&self, local: usize) -> &[Id] {
        let base = local * self.stride;
        &self.ids[base..base + self.lens[local]]
    }
}

/// Record one walk: the arena is immutable and every member live, so a
/// transparent plan never times out and no origin is ever down.
fn record(acc: &mut HopAccumulator, route: &FaultedRoute) {
    acc.record(
        route.outcome.is_ok(),
        route.trace.hops,
        route.trace.timeouts,
    );
}

/// Configuration of one scale run (Pastry substrate only — fig3's).
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Identifier width (the paper uses 32).
    pub bits: u8,
    /// Digit width in bits (fig3 uses 1).
    pub digit_bits: u8,
    /// Next-hop tie-breaking policy.
    pub mode: RoutingMode,
    /// Number of nodes `n`.
    pub nodes: usize,
    /// Hot-catalog size.
    pub items: usize,
    /// Zipf exponent `α`.
    pub alpha: f64,
    /// Auxiliary pointers per node `k`.
    pub k: usize,
    /// Measurement queries to route.
    pub queries: usize,
    /// Master seed.
    pub seed: u64,
    /// Shard count (defaults to [`shard_count_for`]).
    pub shards: usize,
}

impl ScaleConfig {
    /// fig3-style defaults at population `nodes`: 32-bit ids, 1-bit
    /// digits, locality-aware routing, 64-item catalog, `k = log₂ n`,
    /// α = 1.2, 50 000 queries.
    pub fn paper_defaults(nodes: usize, seed: u64) -> Self {
        ScaleConfig {
            bits: 32,
            digit_bits: 1,
            mode: RoutingMode::LocalityAware,
            nodes,
            items: 64,
            alpha: 1.2,
            k: crate::experiments::log2(nodes),
            queries: 50_000,
            seed,
            shards: shard_count_for(nodes),
        }
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

/// SplitMix64 — the per-node seed derivation for the oblivious draws
/// (same mixer as the arena's hash picks).
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One shard's selection slabs (aware + oblivious), owned exclusively
/// by its build task and shared read-only during measurement.
struct ShardSlabs {
    start: usize,
    aware: AuxSlab,
    oblivious: AuxSlab,
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
/// function of `(seed, rank)` and independent of shard/thread count.
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
    let mut rng = StdRng::seed_from_u64(mix64(
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
/// Panics on nonsensical configurations (zero nodes/items, α invalid) —
/// experiment definitions, not runtime inputs.
pub fn run_scale_stable(config: &ScaleConfig) -> ScaleReport {
    assert!(config.nodes > 0 && config.items > 0);
    let space = IdSpace::new(config.bits).expect("valid id width");
    let mut rng_topology = StdRng::seed_from_u64(config.seed);

    let node_ids = random_ids(space, config.nodes, &mut rng_topology);
    let catalog = ItemCatalog::random(space, config.items, &mut rng_topology);
    let arena = PastryArena::new(
        PastryConfig::new(space, config.digit_bits).with_mode(config.mode),
        node_ids,
    );
    let n = arena.len();

    // Identical rankings (fig3): ONE shared workload instead of n
    // copies, and one exact owner-popularity snapshot for every node.
    let zipf = Zipf::new(config.items, config.alpha).expect("valid Zipf");
    let workload = NodeWorkload::new(zipf, Ranking::identity(config.items));
    let owners: Vec<Id> = (0..config.items)
        .map(|i| arena.true_owner(catalog.key(i)).expect("non-empty arena"))
        .collect();
    let weights = FrequencySnapshot::from_pairs(workload.node_weights(config.items, |i| owners[i]));

    // Both strategies' selections, fanned out one task per shard, each
    // writing its own slabs — no cross-shard state, no per-node vectors
    // retained past the solve.
    let layout = ShardLayout::new(n, config.shards);
    let stride = config.k.max(1);
    let mut shards: Vec<ShardSlabs> = (0..layout.shards())
        .map(|s| {
            let (start, end) = layout.bounds(s);
            ShardSlabs {
                start,
                aware: AuxSlab::new(stride, end - start),
                oblivious: AuxSlab::new(stride, end - start),
            }
        })
        .collect();
    peercache_par::par_map_mut(&mut shards, |s, shard| {
        let (start, end) = layout.bounds(s);
        let mut workspace = PastryWorkspace::new();
        let mut core = Vec::new();
        let mut slices_buf = Vec::new();
        let mut draw = Vec::new();
        for rank in start..end {
            let node = arena.ids()[rank];
            arena.core_neighbors_into(rank, &mut core);
            let candidates: Vec<Candidate> = weights
                .without(core.iter().copied().chain(std::iter::once(node)))
                .iter()
                .map(|(id, w)| Candidate::new(id, w))
                .collect();
            let problem = PastryProblem::new(
                space,
                config.digit_bits,
                node,
                core.clone(),
                candidates,
                config.k,
            )
            .expect("scale problems are well-formed");
            let aware = &workspace
                .solve_into(&problem)
                .expect("scale problems are well-formed")
                .aux;
            shard.aware.set(rank - start, aware);
            oblivious_at_scale(
                &arena,
                rank,
                &core,
                config.k,
                config.seed,
                &mut slices_buf,
                &mut draw,
            );
            shard.oblivious.set(rank - start, &draw);
        }
    });

    // One pre-generated query stream, measured under all three
    // strategies in fixed-size chunks of streaming accumulators.
    let mut rng_queries = StdRng::seed_from_u64(config.seed.wrapping_add(2));
    let queries: Vec<(usize, usize)> = (0..config.queries)
        .map(|_| {
            (
                rng_queries.gen_range(0..n),
                workload.sample_item(&mut rng_queries),
            )
        })
        .collect();

    // Cross-shard pointer resolution: arena rank (the flat global
    // index) → owning shard → slab slice. A plain fn so the returned
    // slice borrows from the slab storage, not the routing closure.
    fn resolve<'a>(
        arena: &PastryArena,
        layout: &ShardLayout,
        shards: &'a [ShardSlabs],
        slab: fn(&ShardSlabs) -> &AuxSlab,
        id: Id,
    ) -> &'a [Id] {
        const NO_AUX: &[Id] = &[];
        let Some(rank) = arena.rank_of(id) else {
            return NO_AUX;
        };
        let shard = &shards[layout.shard_of(rank)];
        slab(shard).get(rank - shard.start)
    }

    let plan = FaultPlan::transparent(config.seed);
    let measure = |select: Option<fn(&ShardSlabs) -> &AuxSlab>| -> QueryMetrics {
        let aux_of = |id| match select {
            Some(slab) => resolve(&arena, &layout, &shards, slab, id),
            None => &[],
        };
        let accs = peercache_par::par_map_chunked(&queries, QUERY_CHUNK, |_, chunk| {
            let mut acc = HopAccumulator::new();
            for &(origin, item) in chunk {
                let route = walk(
                    &arena,
                    arena.ids()[origin],
                    catalog.key(item),
                    aux_of,
                    &plan,
                );
                record(&mut acc, &route);
            }
            vec![acc]
        });
        let mut total = HopAccumulator::new();
        for acc in &accs {
            total.merge(acc);
        }
        total.into_metrics()
    };

    let core_only = measure(None);
    let aware = measure(Some(|s: &ShardSlabs| &s.aware));
    let oblivious = measure(Some(|s: &ShardSlabs| &s.oblivious));
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
    /// The underlying scale parameters (population, `k`, α, shards…).
    /// `scale.queries` is ignored — the churn probe routes
    /// [`queries_per_round`](Self::queries_per_round) per round.
    pub scale: ScaleConfig,
    /// Flip → route → refresh rounds to run.
    pub rounds: usize,
    /// Membership flips (alive ↔ dead toggles) drawn per round.
    pub flips_per_round: usize,
    /// Queries routed — and observed into the counters — per round.
    pub queries_per_round: usize,
    /// Monitored peers per node counter (the Space-Saving stride of the
    /// [`CounterSlab`]); clamped to `[1, 255]`.
    pub counter_stride: usize,
}

impl ScaleChurnConfig {
    /// Churn-probe defaults at population `nodes`: the fig3 scale
    /// parameters, 4 rounds of 1 % membership flips, 25 000 queries per
    /// round, and 8 monitored peers per node (193 B of counter state).
    pub fn paper_defaults(nodes: usize, seed: u64) -> Self {
        ScaleChurnConfig {
            scale: ScaleConfig::paper_defaults(nodes, seed),
            rounds: 4,
            flips_per_round: (nodes / 100).max(1),
            queries_per_round: 25_000,
            counter_stride: 8,
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

/// The scale tier of the churn driver (ROADMAP item 1's remainder,
/// closed by the incremental refresh engine): each round flips a slice
/// of the membership, routes a query stream over the live aware sets,
/// streams the `(origin, owner)` observations into a fixed-stride
/// [`CounterSlab`], and re-solves **only** the dirty alive nodes — the
/// same observe-then-refresh-dirty cycle as [`ChurnRefresh`], with the
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
/// bit-identical at any shard and thread count, which the invariance
/// test below and the CI scale job pin down.
///
/// [`ChurnRefresh`]: crate::refresh::ChurnRefresh
///
/// # Panics
/// Panics on nonsensical configurations (zero nodes/items/rounds) —
/// experiment definitions, not runtime inputs.
pub fn run_scale_churn(config: &ScaleChurnConfig) -> ScaleChurnReport {
    let sc = &config.scale;
    assert!(sc.nodes > 1 && sc.items > 0 && config.rounds > 0);
    let space = IdSpace::new(sc.bits).expect("valid id width");
    let mut rng_topology = StdRng::seed_from_u64(sc.seed);

    let node_ids = random_ids(space, sc.nodes, &mut rng_topology);
    let catalog = ItemCatalog::random(space, sc.items, &mut rng_topology);
    let arena = PastryArena::new(
        PastryConfig::new(space, sc.digit_bits).with_mode(sc.mode),
        node_ids,
    );
    let n = arena.len();

    let zipf = Zipf::new(sc.items, sc.alpha).expect("valid Zipf");
    let workload = NodeWorkload::new(zipf, Ranking::identity(sc.items));
    let owner_ranks: Vec<usize> = (0..sc.items)
        .map(|i| {
            let owner = arena.true_owner(catalog.key(i)).expect("non-empty arena");
            arena.rank_of(owner).expect("owners are members")
        })
        .collect();

    // Fixed per-node churn state: flags, bounded counters, and one
    // aware slab per shard — no oblivious pass and no retained
    // optimizers at this tier.
    let layout = ShardLayout::new(n, sc.shards);
    let stride = sc.k.max(1);
    let mut alive = vec![true; n];
    let mut alive_count = n;
    let mut dirty = vec![false; n];
    let mut counters = CounterSlab::new(config.counter_stride, n);
    struct ChurnShard {
        start: usize,
        aware: AuxSlab,
    }
    let mut shards: Vec<ChurnShard> = (0..layout.shards())
        .map(|s| {
            let (start, end) = layout.bounds(s);
            ChurnShard {
                start,
                aware: AuxSlab::new(stride, end - start),
            }
        })
        .collect();
    let state_bytes = counters.footprint_bytes()
        + n * stride * std::mem::size_of::<Id>()
        + n * std::mem::size_of::<usize>()
        + 2 * n;

    let plan = FaultPlan::transparent(sc.seed);
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
                let shard = &mut shards[layout.shard_of(rank)];
                let start = shard.start;
                shard.aware.set(rank - start, &[]);
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
        //    chunk-parallel over read-only slabs. Each chunk returns
        //    its accumulator plus the `(origin, observed owner)` pairs;
        //    chunks come back in stream order.
        let queries: Vec<(usize, usize)> = (0..config.queries_per_round)
            .map(|_| {
                let origin = walk_alive(&alive, rng_queries.gen_range(0..n));
                (origin, workload.sample_item(&mut rng_queries))
            })
            .collect();
        let resolve = |id: Id| -> &[Id] {
            const NO_AUX: &[Id] = &[];
            let Some(rank) = arena.rank_of(id) else {
                return NO_AUX;
            };
            let shard = &shards[layout.shard_of(rank)];
            shard.aware.get(rank - shard.start)
        };
        let chunk_results = peercache_par::par_map_chunked(&queries, QUERY_CHUNK, |_, chunk| {
            let mut acc = HopAccumulator::new();
            let mut observations = Vec::with_capacity(chunk.len());
            for &(origin, item) in chunk {
                let route = walk(
                    &arena,
                    arena.ids()[origin],
                    catalog.key(item),
                    resolve,
                    &plan,
                );
                record(&mut acc, &route);
                let owner_rank = walk_alive(&alive, owner_ranks[item]);
                observations.push((origin, arena.ids()[owner_rank]));
            }
            vec![(acc, observations)]
        });

        // 3. Serial application in stream order: merge the hop
        //    accumulators and absorb the observations into the counter
        //    slab, dirty-marking each observer (self-ownership teaches
        //    a node nothing — it already owns the key).
        let mut total = HopAccumulator::new();
        for (acc, observations) in &chunk_results {
            total.merge(acc);
            for &(origin, owner) in observations {
                if owner != arena.ids()[origin] {
                    counters.observe(origin, owner);
                    dirty[origin] = true;
                }
            }
        }

        // 4. Shard-parallel refresh of dirty ∩ alive nodes only — the
        //    scale form of the engine's clean-skip. Candidates are the
        //    node's own bounded counter entries, minus itself and its
        //    core set, minus dead members.
        let refreshed: usize = peercache_par::par_map_mut(&mut shards, |s, shard| {
            let (start, end) = layout.bounds(s);
            let mut workspace = PastryWorkspace::new();
            let mut core = Vec::new();
            let mut snap = FrequencySnapshot::default();
            let mut count = 0usize;
            for rank in start..end {
                if !dirty[rank] || !alive[rank] || counters.is_empty(rank) {
                    continue;
                }
                let node = arena.ids()[rank];
                arena.core_neighbors_into(rank, &mut core);
                counters.snapshot_into(rank, &mut snap);
                let candidates: Vec<Candidate> = snap
                    .iter()
                    .filter(|&(id, _)| {
                        id != node
                            && core.binary_search(&id).is_err()
                            && arena.rank_of(id).is_some_and(|r| alive[r])
                    })
                    .map(|(id, w)| Candidate::new(id, w))
                    .collect();
                let problem =
                    PastryProblem::new(space, sc.digit_bits, node, core.clone(), candidates, sc.k)
                        .expect("scale-churn problems are well-formed");
                let aux = &workspace
                    .solve_into(&problem)
                    .expect("scale-churn problems are well-formed")
                    .aux;
                shard.aware.set(rank - start, aux);
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
            metrics: total.into_metrics(),
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

    fn quick_config(nodes: usize, shards: usize) -> ScaleConfig {
        let mut config = ScaleConfig::paper_defaults(nodes, 11);
        config.queries = 2_000;
        config.shards = shards;
        config
    }

    #[test]
    fn scale_run_reproduces_fig3_shape() {
        let report = run_scale_stable(&quick_config(512, 4));
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

    #[test]
    fn scale_run_is_invariant_to_shard_and_thread_count() {
        let base = run_scale_stable(&quick_config(384, 1));
        let sharded = run_scale_stable(&quick_config(384, 7));
        assert_eq!(base, sharded, "shard count must not affect results");
        let threaded = peercache_par::with_threads(4, || run_scale_stable(&quick_config(384, 7)));
        assert_eq!(base, threaded, "thread count must not affect results");
        let serial = peercache_par::with_threads(1, || run_scale_stable(&quick_config(384, 7)));
        assert_eq!(base, serial);
    }

    fn quick_churn_config(nodes: usize, shards: usize) -> ScaleChurnConfig {
        let mut config = ScaleChurnConfig::paper_defaults(nodes, 13);
        config.scale.shards = shards;
        config.rounds = 3;
        config.flips_per_round = nodes / 8;
        config.queries_per_round = 1_500;
        config
    }

    #[test]
    fn scale_churn_flips_observe_and_refresh() {
        let report = run_scale_churn(&quick_churn_config(512, 4));
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

    #[test]
    fn scale_churn_is_invariant_to_shard_and_thread_count() {
        let base = run_scale_churn(&quick_churn_config(384, 1));
        let sharded = run_scale_churn(&quick_churn_config(384, 7));
        assert_eq!(base, sharded, "shard count must not affect results");
        let threaded =
            peercache_par::with_threads(4, || run_scale_churn(&quick_churn_config(384, 7)));
        assert_eq!(base, threaded, "thread count must not affect results");
        let serial =
            peercache_par::with_threads(1, || run_scale_churn(&quick_churn_config(384, 7)));
        assert_eq!(base, serial);
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
        const STABLE: [(usize, usize, [Pin; 3]); 2] = [
            (
                512,
                4,
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
                7,
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
        for (n, shards, [aware, oblivious, core_only]) in STABLE {
            let report = run_scale_stable(&quick_config(n, shards));
            assert_eq!(pin_of(&report.aware), aware, "n={n} aware");
            assert_eq!(pin_of(&report.oblivious), oblivious, "n={n} oblivious");
            assert_eq!(pin_of(&report.core_only), core_only, "n={n} core-only");
        }

        // `(flips, alive, refreshed, metrics)` per round.
        type Round = (usize, usize, usize, Pin);
        const CHURN: [(usize, usize, [Round; 3]); 2] = [
            (
                512,
                4,
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
                7,
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
        for (n, shards, rounds) in CHURN {
            let report = run_scale_churn(&quick_churn_config(n, shards));
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
