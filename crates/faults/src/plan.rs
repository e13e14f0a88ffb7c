//! The fault configuration and its resolved, integer-only plan.

use peercache_id::{splitmix64, Id, IdSpace};

use crate::trace::RouteTrace;

/// 2⁵³ as an `f64` — the probability scale. A rate in `[0, 1]` maps to
/// an integer threshold in `[0, 2⁵³]` compared against the top 53 bits
/// of a hash, so a rate of exactly 0 never fires and exactly 1 always
/// fires.
const SCALE: f64 = 9_007_199_254_740_992.0;

/// Cap on configured retries: bounds the backoff shift (`<< 15` at most)
/// and keeps every probe loop finitely short.
const MAX_RETRIES_CAP: u32 = 16;

// Decision channels: distinct odd constants keying the per-decision hash
// so the crash stream, loss stream, etc. never alias.
const CH_CRASH: u64 = 0x9e37_79b9_7f4a_7c15;
const CH_UNRESPONSIVE: u64 = 0xbf58_476d_1ce4_e5b9;
const CH_LOSS: u64 = 0x94d0_49bb_1331_11eb;
const CH_STALE: u64 = 0x2545_f491_4f6c_dd1d;
const CH_AGE: u64 = 0xd6e8_feb8_6659_fd93;
const CH_DELAY: u64 = 0xa076_1d64_78bd_642f;

/// Fold a 128-bit identifier into the 64-bit hash domain.
fn fold(id: Id) -> u64 {
    let v = id.value();
    // Identifiers are at most 64 bits in every experiment space; folding
    // the halves keeps wider ids collision-resistant anyway.
    #[allow(clippy::cast_possible_truncation)]
    {
        (v >> 64) as u64 ^ v as u64
    }
}

/// Convert a probability to its integer threshold (see [`SCALE`]).
fn threshold(rate: f64) -> u64 {
    // clamp maps out-of-range rates to the nearest endpoint; NaN passes
    // through clamp and then saturates to 0 in the cast (never fires).
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        (rate.clamp(0.0, 1.0) * SCALE) as u64
    }
}

/// User-facing fault rates and degradation knobs, in natural units.
///
/// All probabilities are per decision (see the matching [`FaultPlan`]
/// method for what one decision covers) and are clamped into `[0, 1]`
/// at plan construction.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Fraction of nodes permanently crashed for the whole run.
    pub crash_rate: f64,
    /// Probability a live node ignores one incoming probe attempt.
    pub unresponsive_rate: f64,
    /// Probability one probe attempt is lost on the wire.
    pub loss_rate: f64,
    /// Probability a cached auxiliary pointer is stale (stable for the
    /// run: the same pointer at the same owner is always stale or never).
    pub stale_rate: f64,
    /// Maximum backward identifier displacement of a stale pointer — the
    /// "age" of the corruption in id units. Zero disables corruption
    /// even at a nonzero `stale_rate`.
    pub staleness_age: u64,
    /// Maximum extra delay ticks added to each successful probe.
    pub delay_jitter: u64,
    /// Retries after a failed probe attempt (capped at 16).
    pub max_retries: u32,
    /// Backoff ticks charged for retry `i` (1-based): `base << (i - 1)`.
    pub backoff_base: u64,
}

impl FaultConfig {
    /// The all-zeros configuration: no faults, no retries, no jitter.
    pub fn none() -> Self {
        FaultConfig {
            crash_rate: 0.0,
            unresponsive_rate: 0.0,
            loss_rate: 0.0,
            stale_rate: 0.0,
            staleness_age: 0,
            delay_jitter: 0,
            max_retries: 0,
            backoff_base: 0,
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// A [`FaultConfig`] resolved against a run seed: every fault decision
/// is a pure integer function of `(seed, channel, ids, hop, attempt)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    crash_t: u64,
    unresponsive_t: u64,
    loss_t: u64,
    stale_t: u64,
    staleness_age: u64,
    delay_jitter: u64,
    max_retries: u32,
    backoff_base: u64,
}

impl FaultPlan {
    /// Resolve `config` against `seed`. Rates are converted to integer
    /// thresholds here, once — no further floating-point handling.
    pub fn new(seed: u64, config: &FaultConfig) -> Self {
        FaultPlan {
            seed,
            crash_t: threshold(config.crash_rate),
            unresponsive_t: threshold(config.unresponsive_rate),
            loss_t: threshold(config.loss_rate),
            stale_t: threshold(config.stale_rate),
            staleness_age: config.staleness_age,
            delay_jitter: config.delay_jitter,
            max_retries: config.max_retries.min(MAX_RETRIES_CAP),
            backoff_base: config.backoff_base,
        }
    }

    /// The all-zeros plan for `seed` (see [`FaultConfig::none`]).
    pub fn transparent(seed: u64) -> Self {
        Self::new(seed, &FaultConfig::none())
    }

    /// Whether every routing-visible fault rate is zero. A transparent
    /// plan never changes a probe verdict or an aux pointer, so walks
    /// through it are bit-identical to the fault-free walks (retries and
    /// jitter only touch tick accounting, never decisions).
    pub fn is_transparent(&self) -> bool {
        self.crash_t == 0 && self.unresponsive_t == 0 && self.loss_t == 0 && !self.corrupts_aux()
    }

    /// Whether stale-pointer corruption is active.
    fn corrupts_aux(&self) -> bool {
        self.stale_t > 0 && self.staleness_age > 0
    }

    /// One hash decision stream: seed and channel select the stream,
    /// `(a, b, c)` select the draw.
    fn mix(&self, channel: u64, a: u64, b: u64, c: u64) -> u64 {
        let mut z = splitmix64(self.seed ^ channel);
        z = splitmix64(z ^ a);
        z = splitmix64(z ^ b);
        splitmix64(z ^ c)
    }

    /// Bernoulli draw: top 53 hash bits against the channel threshold.
    fn fires(&self, t: u64, channel: u64, a: u64, b: u64, c: u64) -> bool {
        t > 0 && (self.mix(channel, a, b, c) >> 11) < t
    }

    /// Whether `node` is crashed for the whole run.
    pub fn node_crashed(&self, node: Id) -> bool {
        self.fires(self.crash_t, CH_CRASH, fold(node), 0, 0)
    }

    /// One probe of `to` by `from` at hop index `hop`: up to
    /// `1 + max_retries` attempts with exponential backoff ticks. The
    /// probe succeeds when the target is substrate-live, not crashed,
    /// and one attempt dodges both wire loss and unresponsiveness.
    ///
    /// Every call appends `to` to `trace.probed` (the probe order);
    /// failure also counts a timeout and records `(from, to)` in
    /// `trace.dead_probed` so callers can evict the entry.
    pub fn probe(
        &self,
        from: Id,
        to: Id,
        hop: u32,
        substrate_live: bool,
        trace: &mut RouteTrace,
    ) -> bool {
        trace.probed.push(to);
        let down = !substrate_live || self.node_crashed(to);
        let (f, t) = (fold(from), fold(to));
        for attempt in 0..=self.max_retries {
            if attempt > 0 {
                trace.retries += 1;
                trace.delay_ticks += self.backoff_base << (attempt - 1);
            }
            trace.probes += 1;
            let key = (u64::from(hop) << 32) | u64::from(attempt);
            let lost = self.fires(self.loss_t, CH_LOSS, f, t, key);
            let deaf = self.fires(self.unresponsive_t, CH_UNRESPONSIVE, t, key, 0);
            if !(down || lost || deaf) {
                if self.delay_jitter > 0 {
                    trace.delay_ticks += self.mix(CH_DELAY, f, t, key) % (self.delay_jitter + 1);
                }
                return true;
            }
        }
        trace.timeouts += 1;
        trace.dead_probed.push((from, to));
        false
    }

    /// Resolve the cached auxiliary pointers of `owner` through the
    /// staleness channel. A stale pointer is displaced backwards by
    /// `1 ..= staleness_age` id units — an id that almost never names a
    /// live node, so probing it times out and exercises the fallback
    /// path. The stale/fresh verdict per `(owner, pointer)` pair is
    /// stable for the whole run.
    ///
    /// A plan that corrupts no pointer returns `aux` itself and leaves
    /// `out` untouched, so the transparent walk copies nothing; otherwise
    /// the resolved set is written to `out` (cleared first) and returned.
    pub fn resolve_aux<'a>(
        &self,
        space: IdSpace,
        owner: Id,
        aux: &'a [Id],
        out: &'a mut Vec<Id>,
    ) -> &'a [Id] {
        if !self.corrupts_aux() {
            return aux;
        }
        out.clear();
        let o = fold(owner);
        for &ptr in aux {
            let p = fold(ptr);
            if self.fires(self.stale_t, CH_STALE, o, p, 0) {
                let age = 1 + self.mix(CH_AGE, o, p, 0) % self.staleness_age;
                out.push(space.sub(ptr, u128::from(age)));
            } else {
                out.push(ptr);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u128) -> Id {
        Id::new(v)
    }

    #[test]
    fn transparent_plan_changes_nothing() {
        let plan = FaultPlan::transparent(7);
        assert!(plan.is_transparent());
        let mut trace = RouteTrace::start(id(1));
        assert!(plan.probe(id(1), id(2), 0, true, &mut trace));
        assert_eq!(trace.probes, 1);
        assert_eq!(trace.retries, 0);
        assert_eq!(trace.timeouts, 0);
        assert_eq!(trace.delay_ticks, 0);
        assert_eq!(trace.probed, vec![id(2)]);
        // Substrate-dead target: one attempt, one timeout — exactly the
        // fault-free walks' failed-probe accounting.
        assert!(!plan.probe(id(1), id(3), 0, false, &mut trace));
        assert_eq!(trace.probes, 2);
        assert_eq!(trace.timeouts, 1);
        assert_eq!(trace.dead_probed, vec![(id(1), id(3))]);

        let space = IdSpace::paper();
        let aux = vec![id(10), id(20)];
        let mut out = Vec::new();
        assert_eq!(plan.resolve_aux(space, id(1), &aux, &mut out), aux);
        assert!(out.is_empty(), "a transparent plan copies nothing");
    }

    #[test]
    fn decisions_are_replayable() {
        let config = FaultConfig {
            crash_rate: 0.2,
            unresponsive_rate: 0.3,
            loss_rate: 0.25,
            stale_rate: 0.5,
            staleness_age: 1000,
            delay_jitter: 5,
            max_retries: 2,
            backoff_base: 4,
        };
        let a = FaultPlan::new(42, &config);
        let b = FaultPlan::new(42, &config);
        assert_eq!(a, b);
        assert!(!a.is_transparent());
        for v in 0..64u128 {
            assert_eq!(a.node_crashed(id(v)), b.node_crashed(id(v)));
            let mut ta = RouteTrace::start(id(0));
            let mut tb = RouteTrace::start(id(0));
            assert_eq!(
                a.probe(id(0), id(v), 3, true, &mut ta),
                b.probe(id(0), id(v), 3, true, &mut tb)
            );
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn crash_rate_hits_roughly_the_configured_fraction() {
        let config = FaultConfig {
            crash_rate: 0.25,
            ..FaultConfig::none()
        };
        let plan = FaultPlan::new(11, &config);
        let crashed = (0..4000u128).filter(|&v| plan.node_crashed(id(v))).count();
        assert!((800..=1200).contains(&crashed), "crashed = {crashed}");
    }

    #[test]
    fn retries_and_backoff_are_bounded() {
        let config = FaultConfig {
            loss_rate: 1.0,
            max_retries: 100, // capped to 16
            backoff_base: 2,
            ..FaultConfig::none()
        };
        let plan = FaultPlan::new(5, &config);
        let mut trace = RouteTrace::start(id(0));
        assert!(!plan.probe(id(0), id(9), 0, true, &mut trace));
        assert_eq!(trace.probes, 17);
        assert_eq!(trace.retries, 16);
        assert_eq!(trace.timeouts, 1);
        // Geometric backoff: 2·(2^16 − 1).
        assert_eq!(trace.delay_ticks, 2 * ((1 << 16) - 1));
    }

    #[test]
    fn stale_pointers_are_displaced_backwards_and_stably() {
        let config = FaultConfig {
            stale_rate: 1.0,
            staleness_age: 8,
            ..FaultConfig::none()
        };
        let plan = FaultPlan::new(3, &config);
        let space = IdSpace::paper();
        let aux = vec![id(100), id(200)];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let a = plan.resolve_aux(space, id(1), &aux, &mut a);
        assert_eq!(a, plan.resolve_aux(space, id(1), &aux, &mut b));
        for (&orig, &got) in aux.iter().zip(a) {
            let shift = space.clockwise_distance(got, orig);
            assert!((1..=8).contains(&shift), "shift = {shift}");
        }
    }

    #[test]
    fn out_of_range_rates_saturate() {
        let weird = FaultConfig {
            crash_rate: 7.5,
            loss_rate: -3.0,
            unresponsive_rate: f64::NAN,
            ..FaultConfig::none()
        };
        let plan = FaultPlan::new(1, &weird);
        // crash_rate > 1 → every node crashed; negative/NaN → never.
        assert!(plan.node_crashed(id(123)));
        assert!(!plan.is_transparent());
    }
}
