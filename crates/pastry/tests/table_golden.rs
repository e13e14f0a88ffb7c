//! Pinned digests of Pastry's routing state: every live node's routing
//! table (`rows`) and leaf set (`leaves`), folded cell by cell into an
//! FNV-1a digest.
//!
//! Routes read only a few cells of each table, so a change to how the
//! tables are filled could move cells no route test visits. These
//! digests cover [`PastryNetwork::build`] over seeded id sets of
//! n ∈ {2, 3, 64, 2048} in the 32-bit space at digit widths 1, 2 and 4,
//! a dense 8-bit space where most ids share long prefixes, and a seeded
//! sequence of `fail`, `leave`, `join`, `refresh_from_truth` and
//! `repair_all` whose state is digested after every operation.

use std::collections::BTreeSet;

use peercache_id::{Id, IdSpace};
use peercache_pastry::{PastryConfig, PastryNetwork};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn id(&mut self, id: Id) {
        self.feed(&id.value().to_le_bytes());
    }

    fn len(&mut self, len: usize) {
        self.feed(&(len as u64).to_le_bytes());
    }

    /// Every live node's id, table cells (an empty cell as one zero
    /// byte) and leaves, in ring order.
    fn network(&mut self, net: &PastryNetwork) {
        for id in net.live_ids() {
            let Some(node) = net.node(id) else {
                panic!("live id {id} has no node");
            };
            self.id(id);
            self.len(node.rows.len());
            for row in &node.rows {
                self.len(row.len());
                for cell in row {
                    match cell {
                        None => self.feed(&[0]),
                        Some(entry) => {
                            self.feed(&[1]);
                            self.id(*entry);
                        }
                    }
                }
            }
            self.len(node.leaves.len());
            for &leaf in &node.leaves {
                self.id(leaf);
            }
        }
    }
}

/// `n` distinct seeded ids of `space`, in draw order.
fn ids(space: IdSpace, n: usize, rng: &mut StdRng) -> Vec<Id> {
    let size = 1u128 << space.bits();
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let v = rng.gen_range(0..size);
        if seen.insert(v) {
            out.push(Id::new(v));
        }
    }
    out
}

/// The digest of one seeded build.
fn build_digest(bits: u8, digit_bits: u8, n: usize, seed: u64) -> u64 {
    let space = IdSpace::new(bits).expect("valid width");
    let mut rng = StdRng::seed_from_u64(seed);
    let ids = ids(space, n, &mut rng);
    let net = PastryNetwork::build(PastryConfig::new(space, digit_bits), &ids, &mut rng);
    assert_eq!(net.len(), n);
    let mut fnv = Fnv::new();
    fnv.network(&net);
    fnv.0
}

/// Digests of [`build_digest`] at `(n, digit_bits)`, 32-bit space,
/// recorded before the one-scan table fill.
const BUILD_GOLDEN: [(usize, u8, u64); 12] = [
    (2, 1, 0x8b1e_f9c4_1d03_a420),
    (2, 2, 0xaadb_a556_1c09_7c2d),
    (2, 4, 0xed55_e2eb_3da2_b1aa),
    (3, 1, 0x799e_d189_4541_c48e),
    (3, 2, 0x13c4_2c8b_73ba_53a6),
    (3, 4, 0x9d91_7820_4d26_d3c6),
    (64, 1, 0xa028_3796_4d85_fc33),
    (64, 2, 0xc490_6613_ae3e_cf71),
    (64, 4, 0x285a_6257_cf1e_16ee),
    (2048, 1, 0xc34a_173b_deab_70a8),
    (2048, 2, 0xe487_a525_6152_eeff),
    (2048, 4, 0x33c2_3310_e892_a11a),
];

/// Digests of 200 of the 256 ids of an 8-bit space per digit width,
/// recorded before the one-scan table fill.
const DENSE_GOLDEN: [(u8, u64); 3] = [
    (1, 0x1a24_6571_6e43_a317),
    (2, 0xae2e_8b37_3d48_5b89),
    (4, 0x471e_0f26_75a2_20d0),
];

/// Digest of [`churn_digest`] per digit width, recorded before the
/// one-scan table fill.
const CHURN_GOLDEN: [(u8, u64); 2] = [(1, 0xe916_a7f5_1c54_a6dd), (2, 0xb6bb_efee_870a_1640)];

/// Build 96 nodes of a 12-bit space, then run 400 seeded operations,
/// digesting the whole network after each.
fn churn_digest(digit_bits: u8) -> u64 {
    let space = IdSpace::new(12).expect("valid width");
    let mut rng = StdRng::seed_from_u64(0x7ab1e + u64::from(digit_bits));
    let initial = ids(space, 96, &mut rng);
    let mut net = PastryNetwork::build(PastryConfig::new(space, digit_bits), &initial, &mut rng);
    let mut fnv = Fnv::new();
    fnv.network(&net);
    for _ in 0..400 {
        let live = net.live_ids();
        let pick = live[rng.gen_range(0..live.len())];
        match rng.gen_range(0..10u32) {
            0..=2 if live.len() > 2 => {
                net.fail(pick).expect("a live node fails");
            }
            3 if live.len() > 2 => {
                net.leave(pick).expect("a live node leaves");
            }
            4..=6 => {
                let id = Id::new(rng.gen_range(0..1u128 << space.bits()));
                let coord = (rng.gen(), rng.gen());
                // A duplicate id is refused and leaves the state unchanged.
                let _ = net.join(id, coord);
            }
            7 | 8 => net.refresh_from_truth(pick),
            9 => net.repair_all(),
            _ => {}
        }
        fnv.network(&net);
    }
    fnv.0
}

/// Fail with every case whose digest moved, not just the first.
fn assert_digests(cases: impl Iterator<Item = (String, u64, u64)>) {
    let moved: Vec<String> = cases
        .filter(|(_, digest, expected)| digest != expected)
        .map(|(case, digest, expected)| format!("{case}: {digest:#018x}, pinned {expected:#018x}"))
        .collect();
    assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));
}

#[test]
fn built_tables_match_the_golden_digests() {
    assert_digests(
        (0u64..)
            .zip(&BUILD_GOLDEN)
            .map(|(seed, &(n, digit_bits, expected))| {
                (
                    format!("n = {n}, digit width {digit_bits}"),
                    build_digest(32, digit_bits, n, 0x9a57 + seed),
                    expected,
                )
            }),
    );
}

#[test]
fn dense_tables_match_the_golden_digests() {
    assert_digests(DENSE_GOLDEN.iter().map(|&(digit_bits, expected)| {
        (
            format!("dense, digit width {digit_bits}"),
            build_digest(8, digit_bits, 200, 0xde05e),
            expected,
        )
    }));
}

#[test]
fn churned_tables_match_the_golden_digests() {
    assert_digests(CHURN_GOLDEN.iter().map(|&(digit_bits, expected)| {
        (
            format!("churn, digit width {digit_bits}"),
            churn_digest(digit_bits),
            expected,
        )
    }));
}
