use std::collections::HashMap;

use peercache_id::Id;

use crate::FrequencySnapshot;

/// Exponentially decayed access weights.
///
/// Popularities drift over time; §IV-C motivates keeping the auxiliary set
/// current as "node popularities change". A decayed counter weights an
/// access observed `Δt` ago by `2^(−Δt / half_life)`, so the optimiser
/// favours *recent* popularity without a hard window cutoff.
///
/// Decay is applied lazily: each entry stores the weight as of its own last
/// update.
#[derive(Clone, Debug)]
pub struct DecayingCounter {
    half_life: f64,
    entries: HashMap<Id, DecayEntry>,
    observations: u64,
}

#[derive(Clone, Copy, Debug)]
struct DecayEntry {
    weight: f64,
    last_update: f64,
}

impl DecayingCounter {
    /// Create a counter with the given half-life (same time unit as the
    /// timestamps passed to [`observe_at`](DecayingCounter::observe_at)).
    ///
    /// # Panics
    /// Panics if `half_life` is not strictly positive and finite.
    pub fn new(half_life: f64) -> Self {
        assert!(
            half_life.is_finite() && half_life > 0.0,
            "half-life must be positive and finite"
        );
        DecayingCounter {
            half_life,
            entries: HashMap::new(),
            observations: 0,
        }
    }

    /// Total raw (undecayed) observations recorded.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    fn decay_factor(&self, from: f64, to: f64) -> f64 {
        debug_assert!(to >= from, "time must be monotone per entry");
        (-(to - from) / self.half_life * std::f64::consts::LN_2).exp()
    }

    /// Record one access to `peer` at time `now`.
    ///
    /// Timestamps must be non-decreasing per peer; an older timestamp than
    /// the peer's last update is clamped to the last update (the weight is
    /// simply incremented without decay).
    pub fn observe_at(&mut self, peer: Id, now: f64) {
        self.observations += 1;
        let half_life = self.half_life;
        let entry = self.entries.entry(peer).or_insert(DecayEntry {
            weight: 0.0,
            last_update: now,
        });
        if now > entry.last_update {
            let dt = now - entry.last_update;
            entry.weight *= (-dt / half_life * std::f64::consts::LN_2).exp();
            entry.last_update = now;
        }
        entry.weight += 1.0;
    }

    /// The decayed weight of `peer` as of time `now` (zero when untracked).
    pub fn weight_at(&self, peer: Id, now: f64) -> f64 {
        match self.entries.get(&peer) {
            Some(e) if now >= e.last_update => e.weight * self.decay_factor(e.last_update, now),
            Some(e) => e.weight,
            None => 0.0,
        }
    }

    /// Freeze the decayed weights as of `now` into a snapshot.
    pub fn snapshot_at(&self, now: f64) -> FrequencySnapshot {
        FrequencySnapshot::from_pairs(
            self.entries
                .iter()
                .map(|(&p, _)| (p, self.weight_at(p, now).max(0.0))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u128) -> Id {
        Id::new(v)
    }

    #[test]
    #[should_panic(expected = "half-life must be positive")]
    fn zero_half_life_panics() {
        let _ = DecayingCounter::new(0.0);
    }

    #[test]
    fn weight_halves_after_half_life() {
        let mut c = DecayingCounter::new(10.0);
        c.observe_at(id(1), 0.0);
        let w = c.weight_at(id(1), 10.0);
        assert!((w - 0.5).abs() < 1e-12, "got {w}");
    }

    #[test]
    fn repeated_observations_accumulate_with_decay() {
        let mut c = DecayingCounter::new(10.0);
        c.observe_at(id(1), 0.0);
        c.observe_at(id(1), 10.0); // old weight halves, then +1 → 1.5
        let w = c.weight_at(id(1), 10.0);
        assert!((w - 1.5).abs() < 1e-12, "got {w}");
    }

    #[test]
    fn untracked_peer_has_zero_weight() {
        let c = DecayingCounter::new(5.0);
        assert_eq!(c.weight_at(id(9), 100.0), 0.0);
    }

    #[test]
    fn recent_beats_stale_of_equal_raw_count() {
        let mut c = DecayingCounter::new(10.0);
        for t in 0..5 {
            c.observe_at(id(1), f64::from(t)); // early burst
        }
        for t in 95..100 {
            c.observe_at(id(2), f64::from(t)); // recent burst
        }
        assert!(c.weight_at(id(2), 100.0) > c.weight_at(id(1), 100.0));
        assert_eq!(c.observations(), 10);
    }

    #[test]
    fn snapshot_at_applies_decay() {
        let mut c = DecayingCounter::new(10.0);
        c.observe_at(id(1), 0.0);
        c.observe_at(id(2), 10.0);
        let s = c.snapshot_at(10.0);
        assert!((s.weight_of(id(1)) - 0.5).abs() < 1e-12);
        assert!((s.weight_of(id(2)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_order_timestamp_is_clamped() {
        let mut c = DecayingCounter::new(10.0);
        c.observe_at(id(1), 100.0);
        c.observe_at(id(1), 50.0); // clamped: no decay applied, weight += 1
        let w = c.weight_at(id(1), 100.0);
        assert!((w - 2.0).abs() < 1e-12, "got {w}");
    }
}
