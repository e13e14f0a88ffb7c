//! Per-lookup trace and typed failure outcomes.

use peercache_id::Id;

/// Why a fault-injected lookup did not reach the true owner.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LookupFailure {
    /// Routing stopped at a node that believes it owns the key but is
    /// not the true owner.
    WrongOwner(Id),
    /// Routing stopped with no usable forward candidate.
    DeadEnd(Id),
    /// The per-walk hop budget ran out.
    HopLimit,
    /// The querying node itself is crashed or not live.
    OriginDown(Id),
}

/// Everything one fault-injected walk did: hop/probe accounting, the
/// tick clock, the nodes visited, and the probes that timed out.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouteTrace {
    /// Successful forwards taken.
    pub hops: u32,
    /// Probe attempts sent (retries included).
    pub probes: u32,
    /// Retry attempts (probe attempts beyond each first).
    pub retries: u32,
    /// Probes that exhausted every retry.
    pub timeouts: u32,
    /// Failed-aux-pointer fallbacks to core-only candidates.
    pub fallbacks: u32,
    /// Deterministic clock: backoff and jitter ticks accumulated.
    pub delay_ticks: u64,
    /// Nodes visited, origin first.
    pub path: Vec<Id>,
    /// Every probe target in probe order (one entry per target, not per
    /// retry attempt).
    pub probed: Vec<Id>,
    /// `(prober, target)` pairs that timed out — the entries a repairing
    /// caller would evict from the prober's tables.
    pub dead_probed: Vec<(Id, Id)>,
}

impl RouteTrace {
    /// A fresh trace for a walk starting at `origin`. The path is sized
    /// for a few hops up front, so a typical walk never regrows it.
    pub fn start(origin: Id) -> Self {
        let mut path = Vec::with_capacity(4);
        path.push(origin);
        RouteTrace {
            path,
            ..RouteTrace::default()
        }
    }
}

/// The outcome of one fault-injected lookup: the owner reached (or the
/// typed failure) plus the full [`RouteTrace`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultedRoute {
    /// `Ok(owner)` when the walk ended at the true owner.
    pub outcome: Result<Id, LookupFailure>,
    /// What the walk did along the way.
    pub trace: RouteTrace,
}

impl FaultedRoute {
    /// Whether the walk reached the true owner.
    pub fn is_success(&self) -> bool {
        self.outcome.is_ok()
    }

    /// The failed route for a down origin (empty trace, origin-only path).
    pub fn origin_down(origin: Id) -> Self {
        FaultedRoute {
            outcome: Err(LookupFailure::OriginDown(origin)),
            trace: RouteTrace::start(origin),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_down_is_a_failure_with_an_origin_only_path() {
        let route = FaultedRoute::origin_down(Id::new(9));
        assert!(!route.is_success());
        assert_eq!(route.outcome, Err(LookupFailure::OriginDown(Id::new(9))));
        assert_eq!(route.trace.path, vec![Id::new(9)]);
        assert_eq!(route.trace.hops, 0);
    }
}
