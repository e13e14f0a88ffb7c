//! The persistent peer store: a versioned JSON-lines cache of known
//! peers with reliability scores, virtual-age expiry, and atomic writes.
//!
//! Modeled on maidsafe autonomi's `ant-bootstrap` (SNIPPETS.md #1):
//! writes go to a sibling temp file and `rename` into place, so a crash
//! mid-save leaves either the old file or the new one, never a torn
//! hybrid; loads are *total* — a missing, truncated, or corrupted file
//! degrades to the entries that survived, never a panic
//! (`PeerStore::load` is an L10 panic-free lint root).
//!
//! Reliability is a Laplace-smoothed success rate,
//! `(successes + 1) / (successes + failures + 2)`, compared by integer
//! cross-multiplication — no floating point anywhere, so score order is
//! exact and platform-independent (the workspace's L8 rule banishes raw
//! `f64` comparisons from deterministic crates, this one included).

use std::io;
use std::path::{Path, PathBuf};

use peercache_id::Id;
use serde::Serialize;

use crate::jsonl;
use crate::message::Tick;

/// On-disk format version; bumped on any incompatible row change.
/// Loads reject other versions wholesale (a fresh store) rather than
/// guessing at field meanings.
pub const STORE_VERSION: u64 = 1;

/// Capacity and expiry policy of a [`PeerStore`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreConfig {
    /// Maximum entries kept by [`PeerStore::expire`]; the lowest-scored
    /// entries are evicted beyond it.
    pub max_peers: usize,
    /// Maximum virtual age (`now - last_seen`) an entry survives
    /// [`PeerStore::expire`].
    pub expiry_age: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            max_peers: 256,
            expiry_age: 1 << 16,
        }
    }
}

/// One known peer: identity, recency, and reliability counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerEntry {
    /// The peer's overlay identifier.
    pub id: Id,
    /// Virtual tick of the last admission, success, or failure.
    pub last_seen: Tick,
    /// Probes and lookup forwards this peer answered.
    pub successes: u64,
    /// Probes and lookup contacts this peer timed out on.
    pub failures: u64,
}

/// The serialized row shape (identifiers at full `u128` width).
#[derive(Serialize)]
struct EntryRow {
    id: u128,
    last_seen: u64,
    successes: u64,
    failures: u64,
}

#[derive(Serialize)]
struct HeaderRow {
    version: u64,
}

/// Serialize one row (the vendored renderer is infallible; the error
/// arm keeps the upstream `Result` shape without an `expect`).
fn render_row<T: Serialize>(row: &T) -> io::Result<String> {
    serde_json::to_string(row)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Full 128×128→256-bit product as `(hi, lo)` limbs; the pair's
/// lexicographic order is the 256-bit numeric order. The score
/// cross-products below reach 129 bits at saturated `u64` counters
/// (`(2⁶⁴)·(2⁶⁵)`), so a plain `u128` multiply would overflow.
fn wide_mul(a: u128, b: u128) -> (u128, u128) {
    const MASK: u128 = (1 << 64) - 1;
    let (a_hi, a_lo) = (a >> 64, a & MASK);
    let (b_hi, b_lo) = (b >> 64, b & MASK);
    let ll = a_lo * b_lo;
    let lh = a_lo * b_hi;
    let hl = a_hi * b_lo;
    let hh = a_hi * b_hi;
    let mid = lh.wrapping_add(hl);
    let mid_carry = u128::from(mid < lh);
    let lo = ll.wrapping_add(mid << 64);
    let lo_carry = u128::from(lo < ll);
    let hi = hh + (mid >> 64) + (mid_carry << 64) + lo_carry;
    (hi, lo)
}

/// Score order: higher Laplace score first, ties broken by ascending
/// id. `(sa+1)/(sa+fa+2) > (sb+1)/(sb+fb+2)` iff
/// `(sa+1)·(sb+fb+2) > (sb+1)·(sa+fa+2)` — cross-multiplied exactly in
/// 256 bits, no floating point (rule L8), no overflow at any counter.
fn score_order(a: &PeerEntry, b: &PeerEntry) -> std::cmp::Ordering {
    let lhs = wide_mul(
        u128::from(a.successes) + 1,
        u128::from(b.successes) + u128::from(b.failures) + 2,
    );
    let rhs = wide_mul(
        u128::from(b.successes) + 1,
        u128::from(a.successes) + u128::from(a.failures) + 2,
    );
    rhs.cmp(&lhs).then(a.id.cmp(&b.id))
}

/// A persistent, reliability-scored peer cache. Entries are kept sorted
/// by id; every operation is deterministic in virtual time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerStore {
    config: StoreConfig,
    entries: Vec<PeerEntry>,
}

impl PeerStore {
    /// An empty store under `config`.
    pub fn new(config: StoreConfig) -> Self {
        PeerStore {
            config,
            entries: Vec::new(),
        }
    }

    /// A store seeded from explicit entries (fixture and property-test
    /// construction): entries are sorted by id, duplicate ids keep the
    /// last occurrence. Capacity is not enforced (see
    /// [`load`](Self::load) — policy applies at the next
    /// [`expire`](Self::expire)).
    pub fn from_entries<I: IntoIterator<Item = PeerEntry>>(
        config: StoreConfig,
        entries: I,
    ) -> Self {
        let mut store = PeerStore::new(config);
        for entry in entries {
            match store.entries.binary_search_by_key(&entry.id, |e| e.id) {
                Ok(pos) => {
                    if let Some(slot) = store.entries.get_mut(pos) {
                        *slot = entry;
                    }
                }
                Err(pos) => store.entries.insert(pos, entry),
            }
        }
        store
    }

    /// The store's capacity/expiry policy.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries, sorted by id.
    pub fn entries(&self) -> &[PeerEntry] {
        &self.entries
    }

    /// The entry for `id`, if known.
    pub fn get(&self, id: Id) -> Option<&PeerEntry> {
        self.entries
            .binary_search_by_key(&id, |e| e.id)
            .ok()
            .and_then(|pos| self.entries.get(pos))
    }

    /// Admit `id` (the aux-selection admission path): insert a fresh
    /// entry, or touch `last_seen` if already known. Returns whether a
    /// new entry was inserted. Capacity is enforced lazily by
    /// [`expire`](Self::expire), so admissions never evict mid-run.
    fn admit(&mut self, id: Id, now: Tick) -> bool {
        match self.entries.binary_search_by_key(&id, |e| e.id) {
            Ok(pos) => {
                if let Some(entry) = self.entries.get_mut(pos) {
                    entry.last_seen = now;
                }
                false
            }
            Err(pos) => {
                self.entries.insert(
                    pos,
                    PeerEntry {
                        id,
                        last_seen: now,
                        successes: 0,
                        failures: 0,
                    },
                );
                true
            }
        }
    }

    /// Admit a whole selection (fresh entries inserted, known ones
    /// touched); returns how many were newly inserted.
    pub fn admit_all<I: IntoIterator<Item = Id>>(&mut self, ids: I, now: Tick) -> usize {
        ids.into_iter().filter(|&id| self.admit(id, now)).count()
    }

    /// Record a successful contact of `id` (admitting it if unknown).
    pub fn record_success(&mut self, id: Id, now: Tick) {
        self.admit(id, now);
        if let Ok(pos) = self.entries.binary_search_by_key(&id, |e| e.id) {
            if let Some(entry) = self.entries.get_mut(pos) {
                entry.successes = entry.successes.saturating_add(1);
                entry.last_seen = now;
            }
        }
    }

    /// Record a timed-out contact of `id` (admitting it if unknown).
    pub fn record_failure(&mut self, id: Id, now: Tick) {
        self.admit(id, now);
        if let Ok(pos) = self.entries.binary_search_by_key(&id, |e| e.id) {
            if let Some(entry) = self.entries.get_mut(pos) {
                entry.failures = entry.failures.saturating_add(1);
                entry.last_seen = now;
            }
        }
    }

    /// Expire entries older than the configured virtual age, then evict
    /// the lowest-scored entries beyond `max_peers`. Deterministic in
    /// `now`; returns how many entries were dropped.
    pub fn expire(&mut self, now: Tick) -> usize {
        let before = self.entries.len();
        let horizon = self.config.expiry_age;
        self.entries
            .retain(|e| now.saturating_sub(e.last_seen) <= horizon);
        if self.entries.len() > self.config.max_peers {
            let mut ranked = std::mem::take(&mut self.entries);
            ranked.sort_by(score_order);
            ranked.truncate(self.config.max_peers);
            ranked.sort_by_key(|e| e.id);
            self.entries = ranked;
        }
        before - self.entries.len()
    }

    /// The startup reconnection order: reliability score descending,
    /// ties broken by ascending id (pinned by the golden test — a
    /// reshuffle here silently changes every boot sequence).
    pub fn reconnect_order(&self) -> Vec<Id> {
        let mut ranked: Vec<&PeerEntry> = self.entries.iter().collect();
        ranked.sort_by(|a, b| score_order(a, b));
        ranked.into_iter().map(|e| e.id).collect()
    }

    /// Write the store to `path` atomically: serialize every row to a
    /// sibling `<path>.tmp`, then `rename` into place. A crash at any
    /// point leaves the previous file (or none), never a torn write.
    ///
    /// # Errors
    /// Propagates the underlying filesystem errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        out.push_str(&render_row(&HeaderRow {
            version: STORE_VERSION,
        })?);
        out.push('\n');
        for entry in &self.entries {
            out.push_str(&render_row(&EntryRow {
                id: entry.id.value(),
                last_seen: entry.last_seen,
                successes: entry.successes,
                failures: entry.failures,
            })?);
            out.push('\n');
        }
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        std::fs::write(&tmp, out)?;
        std::fs::rename(&tmp, path)
    }

    /// Load a store from `path`, *totally*: a missing or unreadable
    /// file, a bad or missing version header, or version drift all
    /// yield a fresh empty store; a malformed row stops the read there,
    /// keeping every entry before it (the crash-recovery contract — a
    /// truncated tail is exactly what an interrupted legacy writer
    /// leaves, and the atomic [`save`](Self::save) makes even that
    /// unreachable for this writer's own files). Never panics: this is
    /// an L10 panic-free lint root.
    ///
    /// Capacity is *not* enforced here — reload is an identity
    /// round-trip of what was saved; policy applies at the next
    /// [`expire`](Self::expire).
    pub fn load(path: &Path, config: StoreConfig) -> PeerStore {
        let mut store = PeerStore::new(config);
        let Ok(text) = std::fs::read_to_string(path) else {
            return store;
        };
        let mut lines = text.lines();
        let Some(header) = lines.next() else {
            return store;
        };
        let Some(fields) = jsonl::parse_flat_u128(header) else {
            return store;
        };
        if jsonl::field(&fields, "version") != Some(u128::from(STORE_VERSION)) {
            return store;
        }
        for line in lines {
            let Some(fields) = jsonl::parse_flat_u128(line) else {
                break;
            };
            let entry = (|| {
                Some(PeerEntry {
                    id: Id::new(jsonl::field(&fields, "id")?),
                    last_seen: u64::try_from(jsonl::field(&fields, "last_seen")?).ok()?,
                    successes: u64::try_from(jsonl::field(&fields, "successes")?).ok()?,
                    failures: u64::try_from(jsonl::field(&fields, "failures")?).ok()?,
                })
            })();
            let Some(entry) = entry else {
                break;
            };
            match store.entries.binary_search_by_key(&entry.id, |e| e.id) {
                Ok(pos) => {
                    if let Some(slot) = store.entries.get_mut(pos) {
                        *slot = entry;
                    }
                }
                Err(pos) => store.entries.insert(pos, entry),
            }
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u128) -> Id {
        Id::new(v)
    }

    #[test]
    fn wide_mul_is_exact_beyond_u128() {
        assert_eq!(wide_mul(0, u128::MAX), (0, 0));
        assert_eq!(wide_mul(1, u128::MAX), (0, u128::MAX));
        assert_eq!(wide_mul(2, 1 << 127), (1, 0));
        assert_eq!(wide_mul(u128::MAX, u128::MAX), (u128::MAX - 1, 1));
        // The score path's worst case: (2⁶⁴)·(2⁶⁵ + 2) needs 130 bits.
        let (hi, lo) = wide_mul(1 << 64, (1 << 65) + 2);
        assert_eq!((hi, lo), (2, 2 << 64));
        // Saturated counters order without overflow.
        let all = PeerEntry {
            id: id(1),
            last_seen: 0,
            successes: u64::MAX,
            failures: 0,
        };
        let none = PeerEntry {
            id: id(2),
            last_seen: 0,
            successes: 0,
            failures: u64::MAX,
        };
        assert_eq!(score_order(&all, &none), std::cmp::Ordering::Less);
        assert_eq!(score_order(&none, &all), std::cmp::Ordering::Greater);
        assert_eq!(score_order(&all, &all), std::cmp::Ordering::Equal);
    }

    #[test]
    fn admission_is_idempotent_and_sorted() {
        let mut store = PeerStore::new(StoreConfig::default());
        assert!(store.is_empty());
        assert!(store.admit(id(30), 1));
        assert!(store.admit(id(10), 2));
        assert!(!store.admit(id(30), 5));
        assert_eq!(store.len(), 2);
        let ids: Vec<Id> = store.entries().iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![id(10), id(30)]);
        assert_eq!(store.get(id(30)).map(|e| e.last_seen), Some(5));
        assert_eq!(store.get(id(99)), None);
        assert_eq!(store.admit_all([id(10), id(40)], 6), 1);
    }

    #[test]
    fn scores_order_by_laplace_rate_then_id() {
        let mut store = PeerStore::new(StoreConfig::default());
        // 2/2 successes → (2+1)/(2+2) = 0.75
        store.record_success(id(5), 1);
        store.record_success(id(5), 2);
        // 1 success 1 failure → 2/4 = 0.5
        store.record_success(id(3), 1);
        store.record_failure(id(3), 2);
        // untouched admission → 1/2 = 0.5, tie with id(3) broken by id
        store.admit(id(2), 1);
        // 2 failures → 1/4 = 0.25
        store.record_failure(id(9), 1);
        store.record_failure(id(9), 2);
        assert_eq!(
            store.reconnect_order(),
            vec![id(5), id(2), id(3), id(9)],
            "score desc, ties id asc"
        );
    }

    #[test]
    fn expiry_and_eviction_are_deterministic() {
        let mut store = PeerStore::new(StoreConfig {
            max_peers: 2,
            expiry_age: 10,
        });
        store.admit(id(1), 0);
        store.record_success(id(2), 8);
        store.record_failure(id(3), 9);
        store.record_success(id(4), 9);
        // id(1) is 11 ticks old at 11 → expired; capacity 2 then evicts
        // the lowest score among {2, 3, 4} — the failure-laden id(3).
        assert_eq!(store.expire(11), 2);
        let ids: Vec<Id> = store.entries().iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![id(2), id(4)]);
        assert_eq!(store.config().max_peers, 2);
    }

    #[test]
    fn save_load_round_trips_and_is_atomic() {
        let dir = std::env::temp_dir().join("peercache-store-unit");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("peers.jsonl");
        let mut store = PeerStore::new(StoreConfig::default());
        store.record_success(Id::new(u128::MAX), 3);
        store.record_failure(id(7), 4);
        store.save(&path).expect("save");
        // The temp file never lingers after a successful save.
        assert!(!dir.join("peers.jsonl.tmp").exists());
        let reloaded = PeerStore::load(&path, StoreConfig::default());
        assert_eq!(reloaded, store);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn load_is_total_on_garbage() {
        let dir = std::env::temp_dir().join("peercache-store-unit");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("absent.jsonl");
        assert!(PeerStore::load(&path, StoreConfig::default()).is_empty());
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "{\"version\":999}\n{\"id\":1}\n").expect("write");
        assert!(PeerStore::load(&bad, StoreConfig::default()).is_empty());
        std::fs::write(&bad, "{\"version\":1}\n{\"id\":1,\"last_seen\":0,\"successes\":1,\"failures\":0}\n{\"id\":2,\"last_se").expect("write");
        let partial = PeerStore::load(&bad, StoreConfig::default());
        assert_eq!(partial.len(), 1, "rows before the torn tail survive");
        std::fs::remove_file(&bad).expect("cleanup");
    }
}
