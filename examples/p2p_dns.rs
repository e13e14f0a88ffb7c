//! P2P DNS with mobile IP — the paper's motivating application (§I).
//!
//! DNS servers form a Chord ring; domain names are the items. Mobile
//! hosts change IP address frequently, so the *records* churn while the
//! *servers* stay up — exactly the regime where item caching/replication
//! goes stale but cached peer pointers stay valid.
//!
//! This example contrasts, for one busy resolver:
//! * **peer caching** (this paper): pointers to the hot name servers —
//!   lookups shorten AND every answer is authoritative (fresh);
//! * **item caching with TTL**: answers are 1-hop when cached, but a
//!   fraction is stale whenever the record changed within the TTL.
//!
//! Run with `cargo run --release --example p2p_dns`.

// Demonstration code: unwrap keeps the walkthrough focused.
#![allow(clippy::unwrap_used)]

use peercache::chord::{ChordConfig, ChordNetwork};
use peercache::freq::ExactCounter;
use peercache::select::chord::select_fast;
use peercache::workload::{random_ids, ItemCatalog, NodeWorkload, Ranking, Zipf};
use peercache::{Candidate, ChordProblem, FrequencyEstimator, IdSpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const SERVERS: usize = 256;
const DOMAINS: usize = 128;
const QUERIES: usize = 20_000;
/// Mean seconds between IP-address changes of a mobile host's record.
const RECORD_CHANGE_MEAN_S: f64 = 120.0;
/// TTL an item cache would use for resolved records.
const ITEM_TTL_S: f64 = 60.0;
/// Resolver query rate.
const QUERY_RATE_HZ: f64 = 20.0;

fn main() {
    let space = IdSpace::paper();
    let mut rng = StdRng::seed_from_u64(53);

    // The name-server ring and the domain catalog.
    let servers = random_ids(space, SERVERS, &mut rng);
    let mut net = ChordNetwork::build(ChordConfig::new(space), &servers);
    let domains = ItemCatalog::random(space, DOMAINS, &mut rng);
    let workload = NodeWorkload::new(Zipf::new(DOMAINS, 1.2).unwrap(), Ranking::identity(DOMAINS));
    let resolver = servers[0];

    // Phase 1 — observe traffic, then cache pointers to hot name servers.
    let mut counter = ExactCounter::new();
    for _ in 0..QUERIES / 4 {
        let key = domains.key(workload.sample_item(&mut rng));
        let res = net.lookup(resolver, key).unwrap();
        counter.observe(*res.path.last().unwrap());
    }
    let core = net.node(resolver).unwrap().core_neighbors();
    let snapshot = counter
        .snapshot()
        .without(core.iter().copied().chain([resolver]));
    let problem = ChordProblem::new(
        space,
        resolver,
        core,
        snapshot
            .iter()
            .map(|(id, w)| Candidate::new(id, w))
            .collect(),
        8,
    )
    .unwrap();
    let selection = select_fast(&problem).unwrap();
    println!(
        "resolver caches {} pointers to hot name servers",
        selection.aux.len()
    );

    // Phase 2 — measure. Each record mutates as a Poisson process whose
    // next event is pre-scheduled; the item cache serves stale data when
    // the record changed after caching and the TTL has not yet expired.
    let run = |net: &mut ChordNetwork, use_aux: bool, rng: &mut StdRng| {
        if use_aux {
            net.set_aux(resolver, &selection.aux).unwrap();
        } else {
            net.set_aux(resolver, &[]).unwrap();
        }
        let mut hops = 0u64;
        for _ in 0..QUERIES {
            let item = workload.sample_item(rng);
            let res = net.lookup(resolver, domains.key(item)).unwrap();
            hops += u64::from(res.hops);
        }
        hops as f64 / QUERIES as f64
    };

    let mut rng_a = StdRng::seed_from_u64(99);
    let hops_plain = run(&mut net, false, &mut rng_a);
    let mut rng_b = StdRng::seed_from_u64(99);
    let hops_cached = run(&mut net, true, &mut rng_b);

    // Item-cache staleness under the same traffic: per-record Poisson
    // mutation with a scheduled next-change time (no re-rolling — the
    // exponential clock ticks once per actual change).
    let mut rng_c = StdRng::seed_from_u64(99);
    let mut last_change: Vec<f64> = vec![f64::NEG_INFINITY; DOMAINS];
    let mut next_change: Vec<f64> = (0..DOMAINS)
        .map(|_| RECORD_CHANGE_MEAN_S * -(1.0 - rng_c.gen::<f64>()).ln())
        .collect();
    let mut item_cache: HashMap<usize, (f64, f64)> = HashMap::new(); // item -> (cached_at, version)
    let mut t = 0.0f64;
    let (mut answers, mut stale, mut cache_hits) = (0u64, 0u64, 0u64);
    for _ in 0..QUERIES {
        t += -(1.0 / QUERY_RATE_HZ) * (1.0 - rng_c.gen::<f64>()).ln();
        let item = workload.sample_item(&mut rng_c);
        while next_change[item] <= t {
            last_change[item] = next_change[item];
            next_change[item] += RECORD_CHANGE_MEAN_S * -(1.0 - rng_c.gen::<f64>()).ln();
        }
        answers += 1;
        match item_cache.get(&item) {
            Some(&(cached_at, version)) if t - cached_at < ITEM_TTL_S => {
                cache_hits += 1;
                if last_change[item] > version {
                    stale += 1; // record changed since we cached it
                }
            }
            _ => {
                item_cache.insert(item, (t, last_change[item]));
            }
        }
    }

    println!("\n--- results over {QUERIES} resolutions ---");
    println!("no caching:            {hops_plain:.3} hops/query, 0.0% stale answers");
    println!(
        "peer caching (paper):  {hops_cached:.3} hops/query, 0.0% stale answers ({:.1}% fewer hops)",
        (hops_plain - hops_cached) / hops_plain * 100.0
    );
    println!(
        "item caching, TTL {}s: ~{:.3} hops/query, {:.1}% of answers STALE ({} of {} cache hits)",
        ITEM_TTL_S,
        hops_plain * (1.0 - cache_hits as f64 / answers as f64),
        stale as f64 / answers as f64 * 100.0,
        stale,
        cache_hits
    );
    println!(
        "\npeer caching keeps every answer authoritative because the pointer \
         targets (servers) are stable\nwhile the records (mobile IPs) churn — \
         the paper's §I argument for DNS over P2P."
    );
    assert!(hops_cached < hops_plain);
    assert!(
        stale > 0,
        "the TTL cache must show staleness in this regime"
    );
}
