//! Goldens for the single routing walk. Every substrate routes through
//! one forwarding rule, its [`Substrate::step`], driven by
//! [`walk`] (read-only) or [`Substrate::walk_repairing`] (evicting what
//! timed out). The digests below were recorded from the per-variant
//! walks that rule replaced — the read-only, mutating and fault walks —
//! and pin every lookup's hops, path, timeouts and outcome in three
//! regimes per substrate, 64 seeds each:
//!
//! * **live**: every node live, read-only walk over side-table
//!   auxiliary sets;
//! * **failed**: a fresh ring with failed nodes still referenced from
//!   routing tables and auxiliary sets, read-only walk. Pastry and
//!   Tapestry's digests come from the mutating walk on a per-query clone
//!   (their old read-only walk dead-ended at the first dead hop); Chord
//!   and the skip graph's from the old read-only walk, which agreed with
//!   their mutating walk on a fresh ring;
//! * **stale**: failures plus joins that were never stabilised, driven
//!   sequentially through the repairing walk, plus a digest of every
//!   live node's tables afterwards.
//!
//! Each trace must also keep the transparent plan's invariants: one
//! attempt per probe, one eviction pair per timeout, no retries,
//! fallbacks or delay, and — when nothing timed out — a probe order equal
//! to the forward path.
//!
//! A fourth, **faulted** regime pins what the transparent regimes never
//! reach — the aux→core fallback order, retries, jitter and stale
//! pointers: per substrate, 8 seeds of a 200-node overlay with 30 failed
//! nodes still referenced from routing tables and from random 6-pointer
//! auxiliary sets, read-only walks under three plans (no faults; 5 % each
//! of crash, unresponsive, loss and stale; 10 % crash, 20 % loss, 30 %
//! stale) and a sequential repairing leg under the second. Every
//! [`FaultedRoute`] is digested whole, and every substrate must fall
//! back at least once.

use std::collections::BTreeMap;

use peercache_chord::{ChordConfig, ChordNetwork};
use peercache_faults::{walk, FaultConfig, FaultPlan, FaultedRoute, LookupFailure, Substrate};
use peercache_id::{Id, IdSpace};
use peercache_pastry::{PastryConfig, PastryNetwork, RoutingMode};
use peercache_skipgraph::{SkipGraphConfig, SkipGraphNetwork};
use peercache_tapestry::{TapestryConfig, TapestryNetwork};
use peercache_workload::random_ids;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 64;
const FAILURES: usize = 12;
const JOINS: usize = 8;
const QUERIES: usize = 32;
const STALE_QUERIES: usize = 200;
const SEEDS: u64 = 64;

const FAULTED_NODES: usize = 200;
const FAULTED_FAILURES: usize = 30;
const FAULTED_AUX: usize = 6;
const FAULTED_QUERIES: usize = 256;
const FAULTED_SEEDS: u64 = 8;

fn space() -> IdSpace {
    IdSpace::new(32).expect("valid width")
}

/// A running FNV-1a digest of a regime's lookups, with two readable
/// totals beside it so a drift says where it happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Tally {
    digest: u64,
    reached_owner: u32,
    timeouts: u32,
}

impl Tally {
    const fn new() -> Self {
        Tally {
            digest: 0xcbf2_9ce4_8422_2325,
            reached_owner: 0,
            timeouts: 0,
        }
    }

    const fn golden(digest: u64, reached_owner: u32, timeouts: u32) -> Self {
        Tally {
            digest,
            reached_owner,
            timeouts,
        }
    }

    fn feed(&mut self, text: &str) {
        for byte in text.bytes() {
            self.digest ^= u64::from(byte);
            self.digest = self.digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one lookup in, after checking its trace invariants.
    fn record(&mut self, label: &str, route: &FaultedRoute) {
        let trace = &route.trace;
        assert_eq!(
            trace.timeouts as usize,
            trace.dead_probed.len(),
            "{label}: every timeout yields one eviction pair"
        );
        assert_eq!(
            trace.probes as usize,
            trace.probed.len(),
            "{label}: transparent plans send exactly one attempt per probe"
        );
        assert_eq!(trace.retries, 0, "{label}: no retries without loss");
        assert_eq!(trace.fallbacks, 0, "{label}: no fallbacks when transparent");
        assert_eq!(trace.delay_ticks, 0, "{label}: no jitter at zero rates");
        if trace.timeouts == 0 {
            assert_eq!(
                trace.probed,
                &trace.path[1..],
                "{label}: with no failures the probe order is the forward path"
            );
        }
        let (kind, node) = match route.outcome {
            Ok(owner) => ("ok", Some(owner)),
            Err(LookupFailure::WrongOwner(at)) => ("wrong_owner", Some(at)),
            Err(LookupFailure::DeadEnd(at)) => ("dead_end", Some(at)),
            Err(LookupFailure::HopLimit) => ("hop_limit", None),
            Err(LookupFailure::OriginDown(at)) => ("origin_down", Some(at)),
        };
        self.reached_owner += u32::from(route.is_success());
        self.timeouts += trace.timeouts;
        self.feed(&format!(
            "{} {:?} {} {kind} {node:?};",
            trace.hops, trace.path, trace.timeouts
        ));
    }
}

/// One substrate's goldens: the three regimes, then the tables the stale
/// regime leaves behind (a digest only).
type Goldens = [Tally; 4];

/// The membership operations each network spells its own way (they stay
/// out of [`Substrate`], which carries only what a walk needs).
trait Network: Substrate + Sized {
    fn build(ids: &[Id], rng: &mut StdRng) -> Self;
    fn fail(&mut self, id: Id);
    fn join(&mut self, id: Id, rng: &mut StdRng);
    fn install(&mut self, node: Id, aux: &[Id]);
    fn live_ids(&self) -> Vec<Id>;
    /// The node's routing state, rendered.
    fn tables(&self, id: Id) -> String;
}

impl Network for ChordNetwork {
    fn build(ids: &[Id], _: &mut StdRng) -> Self {
        ChordNetwork::build(ChordConfig::new(space()), ids)
    }
    fn fail(&mut self, id: Id) {
        ChordNetwork::fail(self, id).expect("failed node was live");
    }
    fn join(&mut self, id: Id, _: &mut StdRng) {
        ChordNetwork::join(self, id).expect("fresh id");
    }
    fn install(&mut self, node: Id, aux: &[Id]) {
        self.set_aux(node, aux).expect("node is live");
    }
    fn live_ids(&self) -> Vec<Id> {
        ChordNetwork::live_ids(self)
    }
    fn tables(&self, id: Id) -> String {
        format!("{:?}", self.node(id))
    }
}

impl Network for PastryNetwork {
    fn build(ids: &[Id], rng: &mut StdRng) -> Self {
        let config = PastryConfig::new(space(), 1).with_mode(RoutingMode::LocalityAware);
        PastryNetwork::build(config, ids, rng)
    }
    fn fail(&mut self, id: Id) {
        PastryNetwork::fail(self, id).expect("failed node was live");
    }
    fn join(&mut self, id: Id, rng: &mut StdRng) {
        PastryNetwork::join(self, id, (rng.gen(), rng.gen())).expect("fresh id");
    }
    fn install(&mut self, node: Id, aux: &[Id]) {
        self.set_aux(node, aux).expect("node is live");
    }
    fn live_ids(&self) -> Vec<Id> {
        PastryNetwork::live_ids(self)
    }
    fn tables(&self, id: Id) -> String {
        format!("{:?}", self.node(id))
    }
}

impl Network for TapestryNetwork {
    fn build(ids: &[Id], _: &mut StdRng) -> Self {
        TapestryNetwork::build(TapestryConfig::new(space(), 1), ids)
    }
    fn fail(&mut self, id: Id) {
        TapestryNetwork::fail(self, id).expect("failed node was live");
    }
    fn join(&mut self, id: Id, _: &mut StdRng) {
        TapestryNetwork::join(self, id).expect("fresh id");
    }
    fn install(&mut self, node: Id, aux: &[Id]) {
        self.set_aux(node, aux).expect("node is live");
    }
    fn live_ids(&self) -> Vec<Id> {
        TapestryNetwork::live_ids(self)
    }
    fn tables(&self, id: Id) -> String {
        format!("{:?}", self.node(id))
    }
}

impl Network for SkipGraphNetwork {
    fn build(ids: &[Id], _: &mut StdRng) -> Self {
        SkipGraphNetwork::build(SkipGraphConfig::new(space()), ids)
    }
    fn fail(&mut self, id: Id) {
        SkipGraphNetwork::fail(self, id).expect("failed node was live");
    }
    fn join(&mut self, id: Id, _: &mut StdRng) {
        SkipGraphNetwork::join(self, id).expect("fresh id");
    }
    fn install(&mut self, node: Id, aux: &[Id]) {
        self.set_aux(node, aux).expect("node is live");
    }
    fn live_ids(&self) -> Vec<Id> {
        SkipGraphNetwork::live_ids(self)
    }
    fn tables(&self, id: Id) -> String {
        format!("{:?}", self.node(id))
    }
}

/// Random per-node auxiliary sets drawn over the full membership (so
/// after failures some pointers dangle, exercising the timeout path).
fn aux_tables(ids: &[Id], per_node: usize, rng: &mut StdRng) -> BTreeMap<Id, Vec<Id>> {
    ids.iter()
        .map(|&node| {
            let aux: Vec<Id> = (0..per_node)
                .map(|_| ids[rng.gen_range(0..ids.len())])
                .collect();
            (node, aux)
        })
        .collect()
}

/// A live origin and a uniform key.
fn query<N: Network>(net: &N, rng: &mut StdRng) -> (Id, Id) {
    let live = net.live_ids();
    let from = live[rng.gen_range(0..live.len())];
    (from, Id::new(u128::from(rng.gen::<u32>())))
}

/// Run the three regimes over every seed.
fn run<N: Network>(label: &str) -> Goldens {
    let mut goldens = [Tally::new(); 4];
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let ids = random_ids(space(), NODES, &mut rng);
        let mut net = N::build(&ids, &mut rng);
        let aux = aux_tables(&ids, 4, &mut rng);
        for (&node, set) in &aux {
            net.install(node, set);
        }
        let aux_of = |id: Id| aux.get(&id).map_or(&[] as &[Id], Vec::as_slice);
        let plan = FaultPlan::transparent(seed);
        for _ in 0..QUERIES {
            let (from, key) = query(&net, &mut rng);
            goldens[0].record(label, &walk(&net, from, key, aux_of, &plan));
        }
        for i in 0..FAILURES {
            net.fail(ids[i * 5 % NODES]);
        }
        for _ in 0..QUERIES {
            let (from, key) = query(&net, &mut rng);
            goldens[1].record(label, &walk(&net, from, key, aux_of, &plan));
        }
        let mut joined = 0;
        while joined < JOINS {
            let id = Id::new(u128::from(rng.gen::<u32>()));
            if !net.is_live(id) {
                net.join(id, &mut rng);
                joined += 1;
            }
        }
        for _ in 0..STALE_QUERIES {
            let (from, key) = query(&net, &mut rng);
            goldens[2].record(label, &net.walk_repairing(from, key, &plan));
        }
        for id in net.live_ids() {
            goldens[3].feed(&net.tables(id));
        }
    }
    goldens
}

fn assert_goldens<N: Network>(label: &str, want: Goldens) {
    let got = run::<N>(label);
    for (regime, (got, want)) in ["live", "failed", "stale", "stale tables"]
        .iter()
        .zip(got.iter().zip(&want))
    {
        assert_eq!(got, want, "{label}: the {regime} regime drifted");
    }
    assert!(
        got[1].timeouts > 0 && got[2].timeouts > 0,
        "{label}: the failure regimes must probe dead neighbors"
    );
}

#[test]
fn chord_walk_reproduces_the_legacy_goldens() {
    assert_goldens::<ChordNetwork>(
        "chord",
        [
            Tally::golden(12_361_991_520_179_181_820, 2048, 0),
            Tally::golden(6_061_732_804_344_992_781, 2048, 1458),
            Tally::golden(13_630_855_609_516_357_613, 11_186, 3797),
            Tally::golden(12_225_475_306_254_901_755, 0, 0),
        ],
    );
}

#[test]
fn pastry_walk_reproduces_the_legacy_goldens() {
    assert_goldens::<PastryNetwork>(
        "pastry",
        [
            Tally::golden(16_618_673_808_905_756_588, 2048, 0),
            Tally::golden(6_659_946_679_882_388_115, 2047, 1476),
            Tally::golden(16_901_229_965_826_807_059, 12_800, 2482),
            Tally::golden(6_034_003_160_062_596_022, 0, 0),
        ],
    );
}

#[test]
fn tapestry_walk_reproduces_the_legacy_goldens() {
    assert_goldens::<TapestryNetwork>(
        "tapestry",
        [
            Tally::golden(2_317_013_625_029_702_852, 2048, 0),
            Tally::golden(6_669_879_662_248_774_321, 1679, 1701),
            Tally::golden(10_290_863_335_210_286_178, 9266, 3283),
            Tally::golden(17_918_946_235_080_426_971, 0, 0),
        ],
    );
}

#[test]
fn skipgraph_walk_reproduces_the_legacy_goldens() {
    assert_goldens::<SkipGraphNetwork>(
        "skipgraph",
        [
            Tally::golden(7_702_221_925_724_724_613, 2048, 0),
            Tally::golden(9_649_859_747_513_876_478, 1721, 1843),
            Tally::golden(12_678_729_938_989_450_894, 12_800, 1198),
            Tally::golden(16_193_706_675_728_919_682, 0, 0),
        ],
    );
}

/// The faulted regime's three plans: none; 5 % of every fault with
/// jitter, one retry and backoff; heavy crash, loss and short-aged
/// staleness with two retries.
fn faulted_configs() -> [FaultConfig; 3] {
    [
        FaultConfig::none(),
        FaultConfig {
            crash_rate: 0.05,
            unresponsive_rate: 0.05,
            loss_rate: 0.05,
            stale_rate: 0.05,
            staleness_age: 8,
            delay_jitter: 2,
            max_retries: 1,
            backoff_base: 2,
        },
        FaultConfig {
            crash_rate: 0.10,
            loss_rate: 0.20,
            stale_rate: 0.30,
            staleness_age: 3,
            max_retries: 2,
            ..FaultConfig::none()
        },
    ]
}

/// A running digest of whole [`FaultedRoute`]s (outcome and every trace
/// field) with readable totals beside it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FaultedTally {
    digest: u64,
    reached_owner: u32,
    timeouts: u32,
    fallbacks: u32,
}

impl FaultedTally {
    const fn new() -> Self {
        FaultedTally {
            digest: 0xcbf2_9ce4_8422_2325,
            reached_owner: 0,
            timeouts: 0,
            fallbacks: 0,
        }
    }

    const fn golden(digest: u64, reached_owner: u32, timeouts: u32, fallbacks: u32) -> Self {
        FaultedTally {
            digest,
            reached_owner,
            timeouts,
            fallbacks,
        }
    }

    fn record(&mut self, label: &str, route: &FaultedRoute) {
        let trace = &route.trace;
        assert_eq!(
            trace.timeouts as usize,
            trace.dead_probed.len(),
            "{label}: every timeout yields one eviction pair"
        );
        self.reached_owner += u32::from(route.is_success());
        self.timeouts += trace.timeouts;
        self.fallbacks += trace.fallbacks;
        for byte in format!("{route:?};").bytes() {
            self.digest ^= u64::from(byte);
            self.digest = self.digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The faulted regime's goldens: one per plan, then the repairing leg.
type FaultedGoldens = [FaultedTally; 4];

fn run_faulted<N: Network>(label: &str) -> FaultedGoldens {
    let configs = faulted_configs();
    let mut goldens = [FaultedTally::new(); 4];
    for seed in 0..FAULTED_SEEDS {
        let mut rng = StdRng::seed_from_u64(1_000 + seed);
        let ids = random_ids(space(), FAULTED_NODES, &mut rng);
        let mut net = N::build(&ids, &mut rng);
        let aux = aux_tables(&ids, FAULTED_AUX, &mut rng);
        for (&node, set) in &aux {
            net.install(node, set);
        }
        for i in 0..FAULTED_FAILURES {
            net.fail(ids[i * 7 % FAULTED_NODES]);
        }
        let aux_of = |id: Id| aux.get(&id).map_or(&[] as &[Id], Vec::as_slice);
        for (tally, config) in goldens.iter_mut().zip(&configs) {
            let plan = FaultPlan::new(seed, config);
            for _ in 0..FAULTED_QUERIES {
                let (from, key) = query(&net, &mut rng);
                tally.record(label, &walk(&net, from, key, aux_of, &plan));
            }
        }
        let plan = FaultPlan::new(seed, &configs[1]);
        for _ in 0..FAULTED_QUERIES {
            let (from, key) = query(&net, &mut rng);
            goldens[3].record(label, &net.walk_repairing(from, key, &plan));
        }
    }
    goldens
}

fn assert_faulted_goldens<N: Network>(label: &str, want: FaultedGoldens) {
    let got = run_faulted::<N>(label);
    for (leg, (got, want)) in ["none", "light", "heavy", "repairing"]
        .iter()
        .zip(got.iter().zip(&want))
    {
        assert_eq!(got, want, "{label}: the faulted {leg} leg drifted");
    }
    assert!(
        got.iter().map(|t| t.fallbacks).sum::<u32>() > 0,
        "{label}: the faulted regime must exercise the aux→core fallback"
    );
}

#[test]
fn chord_faulted_walk_reproduces_the_goldens() {
    assert_faulted_goldens::<ChordNetwork>(
        "chord",
        [
            FaultedTally::golden(9_123_891_240_008_566_722, 2048, 1407, 0),
            FaultedTally::golden(1_363_079_303_266_478_106, 1860, 2051, 402),
            FaultedTally::golden(1_717_557_774_179_429_139, 1642, 3177, 899),
            FaultedTally::golden(7_891_745_721_688_348_263, 1892, 1306, 340),
        ],
    );
}

#[test]
fn pastry_faulted_walk_reproduces_the_goldens() {
    assert_faulted_goldens::<PastryNetwork>(
        "pastry",
        [
            FaultedTally::golden(15_334_728_905_876_739_556, 2047, 1614, 0),
            FaultedTally::golden(3_963_368_817_082_870_484, 1867, 1885, 351),
            FaultedTally::golden(3_573_632_482_156_251_391, 1664, 2891, 720),
            FaultedTally::golden(322_174_189_828_476_368, 1868, 1423, 341),
        ],
    );
}

#[test]
fn tapestry_faulted_walk_reproduces_the_goldens() {
    assert_faulted_goldens::<TapestryNetwork>(
        "tapestry",
        [
            FaultedTally::golden(13_753_299_046_676_440_568, 1709, 1684, 0),
            FaultedTally::golden(7_638_668_777_443_168_539, 1401, 2383, 398),
            FaultedTally::golden(5_725_190_094_729_564_470, 1090, 3591, 984),
            FaultedTally::golden(3_975_039_354_136_425_277, 1435, 1233, 335),
        ],
    );
}

#[test]
fn skipgraph_faulted_walk_reproduces_the_goldens() {
    assert_faulted_goldens::<SkipGraphNetwork>(
        "skipgraph",
        [
            FaultedTally::golden(14_408_031_389_446_981_409, 1690, 1938, 0),
            FaultedTally::golden(8_307_259_927_491_336_726, 1395, 2562, 604),
            FaultedTally::golden(7_983_494_088_035_644_541, 1152, 4095, 1456),
            FaultedTally::golden(891_716_511_807_434_307, 1442, 1179, 493),
        ],
    );
}
