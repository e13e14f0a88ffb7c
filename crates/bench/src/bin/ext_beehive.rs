//! Extension quantifying §I/§II-C: peer caching versus Beehive-style
//! **item replication** under item updates.
//!
//! Beehive \[16\] replicates popular items so lookups terminate early; the
//! paper's §II-C critique is the replica-maintenance bill when items
//! change. We grant both schemes the same extra state budget (`n·k`
//! entries): peer caching spends it on `k` auxiliary pointers per node,
//! replication spends it on proactive replicas placed — Beehive-style —
//! on the nodes immediately preceding each item's owner (exactly the
//! nodes a Chord lookup traverses last, so a lookup stops at the first
//! replica on its path). Replica budgets per item follow popularity.
//!
//! We report average hops AND the maintenance traffic each scheme pays
//! when items mutate at a given rate: replicas must be re-pushed on every
//! change; peer pointers are untouched by item churn (§I).

use std::collections::{HashMap, HashSet};

use peercache_core::chord::select_fast;
use peercache_core::{Candidate, ChordProblem};
use peercache_freq::FrequencySnapshot;
use peercache_id::{Id, IdSpace};
use peercache_sim::OverlayKind;
use peercache_sim::SimOverlay;
use peercache_workload::{random_ids, ItemCatalog, NodeWorkload, Ranking, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut cli = peercache_bench::BinArgs::parse("ext_beehive");
    let quick = cli.quick;
    let (n, queries) = if quick { (128, 10_000) } else { (512, 40_000) };
    let items = 64;
    let k = (n as f64).log2().round() as usize;
    // Item update model: each item changes this many times per query
    // issued system-wide (mobile-IP-style record churn).
    let updates_per_query = 0.05;

    let space = IdSpace::paper();
    let mut rng = StdRng::seed_from_u64(11);
    let node_ids = random_ids(space, n, &mut rng);
    let mut overlay = SimOverlay::build(OverlayKind::Chord, space, &node_ids, &mut rng);
    let catalog = ItemCatalog::random(space, items, &mut rng);
    let workload = NodeWorkload::new(Zipf::new(items, 1.2).unwrap(), Ranking::identity(items));
    let owners: Vec<Id> = (0..items)
        .map(|i| overlay.true_owner(catalog.key(i)).unwrap())
        .collect();
    let weights = FrequencySnapshot::from_pairs(workload.node_weights(items, |i| owners[i]));

    // ---- scheme A: peer caching (the paper) ---------------------------
    for &node in &node_ids {
        let core = overlay.core_neighbors(node);
        let cands: Vec<Candidate> = weights
            .without(core.iter().copied().chain([node]))
            .iter()
            .map(|(id, w)| Candidate::new(id, w))
            .collect();
        let sel = select_fast(&ChordProblem::new(space, node, core, cands, k).unwrap()).unwrap();
        overlay.set_aux(node, &sel.aux);
    }
    let mut rng_q = StdRng::seed_from_u64(12);
    let mut hops_peer = 0u64;
    for _ in 0..queries {
        let origin = node_ids[rng_q.gen_range(0..n)];
        let key = catalog.key(workload.sample_item(&mut rng_q));
        hops_peer += u64::from(overlay.query(origin, key).hops);
    }
    // Peer-cache maintenance: pinging k aux entries per node per refresh
    // interval — and ZERO traffic per item update.
    let peer_update_msgs = 0.0;

    // ---- scheme B: popularity-proportional replication ---------------
    // Budget n·k replicas, shared by popularity; item i's replicas sit on
    // the r_i nodes preceding its owner on the ring.
    for &node in &node_ids {
        overlay.set_aux(node, &[]);
    }
    let mut budget = (n * k) as i64;
    let mut by_pop: Vec<usize> = (0..items).collect();
    by_pop.sort_by(|&a, &b| {
        workload
            .item_probability(b)
            .total_cmp(&workload.item_probability(a))
    });
    let mut replicas: HashMap<usize, HashSet<Id>> = HashMap::new();
    // Round-robin doubling: popular items get exponentially more replicas
    // (Beehive's level structure), until the budget runs dry.
    let mut per_item: Vec<i64> = vec![0; items];
    let mut level_quota = 1i64;
    while budget > 0 && level_quota <= n as i64 {
        for &i in &by_pop {
            if budget <= 0 {
                break;
            }
            let grant = level_quota.min(budget);
            per_item[i] += grant;
            budget -= grant;
        }
        level_quota *= 2;
    }
    // Place replicas on the ring predecessors of each owner.
    let ring: Vec<Id> = overlay.live_ids(); // sorted
    let pos_of: HashMap<Id, usize> = ring.iter().enumerate().map(|(p, &id)| (id, p)).collect();
    for i in 0..items {
        let owner_pos = pos_of[&owners[i]];
        let set: HashSet<Id> = (1..=per_item[i] as usize)
            .map(|back| ring[(owner_pos + n - (back % n)) % n])
            .collect();
        replicas.insert(i, set);
    }
    let mut rng_q = StdRng::seed_from_u64(12);
    let mut hops_repl = 0u64;
    for _ in 0..queries {
        let origin_idx = rng_q.gen_range(0..n);
        let item = workload.sample_item(&mut rng_q);
        let key = catalog.key(item);
        let (out, path) = overlay.query_with_path(node_ids[origin_idx], key);
        debug_assert!(out.success);
        // The lookup stops at the first replica (or the owner) on its path.
        let cut = path
            .iter()
            .position(|node| replicas[&item].contains(node) || *node == owners[item])
            .unwrap_or(path.len() - 1);
        hops_repl += cut as u64;
    }
    // Replication maintenance: every item update must be pushed to all of
    // its replicas.
    let total_updates = f64::from(queries) * updates_per_query;
    let repl_update_msgs: f64 = (0..items)
        .map(|i| total_updates / items as f64 * per_item[i] as f64)
        .sum();

    peercache_bench::teeln!(
        cli.tee,
        "peer caching vs popularity-proportional replication \
         (Chord, n = {n}, budget = n·k = {} entries, {queries} queries, \
         {:.0} item updates)\n",
        n * k,
        total_updates
    );
    peercache_bench::teeln!(
        cli.tee,
        "{:<28} {:>10} {:>22}",
        "scheme",
        "avg hops",
        "update messages"
    );
    peercache_bench::teeln!(
        cli.tee,
        "{:<28} {:>10.3} {:>22.0}",
        "peer caching (paper)",
        hops_peer as f64 / f64::from(queries),
        peer_update_msgs
    );
    peercache_bench::teeln!(
        cli.tee,
        "{:<28} {:>10.3} {:>22.0}",
        "replication (Beehive-style)",
        hops_repl as f64 / f64::from(queries),
        repl_update_msgs
    );
    let hp = hops_peer as f64 / f64::from(queries);
    let hr = hops_repl as f64 / f64::from(queries);
    if hp <= hr {
        peercache_bench::teeln!(
            cli.tee,
            "\nat this budget the optimal pointers beat replication on hops AND pay \
             nothing on item\nchurn (vs {repl_update_msgs:.0} update messages) — the paper's §I \
             argument, quantified."
        );
    } else {
        peercache_bench::teeln!(
            cli.tee,
            "\nreplication buys shorter lookups here ({hr:.3} vs {hp:.3} — Beehive's O(1) \
             design goal)\nbut pays {repl_update_msgs:.0} update messages to keep replicas fresh, \
             where peer caching pays 0:\nunder item churn (mobile IP, §I) the pointer cache \
             delivers most of the win for free.\n(item-caching staleness under the same \
             regime: see examples/p2p_dns.rs)"
        );
    }
}
