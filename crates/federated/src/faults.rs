//! Deterministic fault injection for the federated wire.
//!
//! A [`FaultPlan`] describes *how* a deployment misbehaves — message
//! drop rate, straggler rate and delay, duplicated deliveries, in-flight
//! corruption, stale retransmissions, and per-party crash/recovery
//! windows — and a seed that makes every injected fault reproducible.
//! [`FaultyTransport`] turns the plan into a [`Transport`]: the fate of
//! each message attempt is a pure hash of the plan seed and the
//! message's identity, so the same plan always produces the same
//! failure schedule (the property the trajectory-determinism proptests
//! pin), and checkpoint/resume never needs to persist transport state.

use crate::transport::{decision_rng, Direction, Fate, MessageMeta, Transport, DEFAULT_RTT_MS};
use crate::{FederatedError, Result};
use rand::Rng;

/// One party outage: the party is down for rounds `[from_round,
/// until_round)` and recovers after.
///
/// Rounds are *logical* rounds, the unit each protocol's caller counts
/// in: a FedAvg round, a VFL epoch (both exchanges of the epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// Crashed party index.
    pub party: usize,
    /// First round of the outage (inclusive).
    pub from_round: usize,
    /// First round the party is back up (exclusive end; use
    /// `usize::MAX` for a permanent crash).
    pub until_round: usize,
}

impl CrashWindow {
    /// A party that never comes back.
    pub fn permanent(party: usize, from_round: usize) -> Self {
        Self {
            party,
            from_round,
            until_round: usize::MAX,
        }
    }
}

/// A seeded description of an unreliable deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed driving every fault decision.
    pub seed: u64,
    /// Probability a message attempt is silently dropped.
    pub drop_prob: f64,
    /// Probability a delivered message is a straggler (slowed by
    /// [`Self::straggler_delay_ms`] on top of the RTT).
    pub straggler_prob: f64,
    /// Extra one-way delay a straggler suffers, in virtual ms.
    pub straggler_delay_ms: u64,
    /// Probability a delivered message arrives twice.
    pub duplicate_prob: f64,
    /// Probability a delivered payload is damaged in flight.
    pub corrupt_prob: f64,
    /// Probability an uplink delivery carries a stale round tag (a
    /// delayed retransmission from the previous round).
    pub stale_prob: f64,
    /// Party crash/recovery schedule.
    pub crashes: Vec<CrashWindow>,
}

impl FaultPlan {
    /// A plan that injects nothing — [`FaultyTransport`] over this plan
    /// behaves exactly like [`crate::ReliableTransport`].
    pub fn reliable(seed: u64) -> Self {
        Self {
            seed,
            drop_prob: 0.0,
            straggler_prob: 0.0,
            straggler_delay_ms: 1_000,
            duplicate_prob: 0.0,
            corrupt_prob: 0.0,
            stale_prob: 0.0,
            crashes: Vec::new(),
        }
    }

    /// The baseline grid used by the CI smoke and the benchmarks:
    /// `drop_prob` drops plus `straggler_prob` stragglers.
    pub fn grid(seed: u64, drop_prob: f64, straggler_prob: f64) -> Self {
        Self {
            drop_prob,
            straggler_prob,
            ..Self::reliable(seed)
        }
    }

    /// Validates that every probability is a probability and the
    /// exclusive outcomes don't overbook the unit interval.
    ///
    /// # Errors
    /// [`FederatedError::InvalidConfig`] on out-of-range parameters.
    pub fn validate(&self) -> Result<()> {
        for (name, p) in [
            ("drop_prob", self.drop_prob),
            ("straggler_prob", self.straggler_prob),
            ("duplicate_prob", self.duplicate_prob),
            ("corrupt_prob", self.corrupt_prob),
            ("stale_prob", self.stale_prob),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(FederatedError::InvalidConfig(format!(
                    "fault plan: {name} = {p} is not a probability"
                )));
            }
        }
        let exclusive = self.drop_prob + self.corrupt_prob + self.stale_prob;
        if exclusive > 1.0 {
            return Err(FederatedError::InvalidConfig(format!(
                "fault plan: drop + corrupt + stale = {exclusive} exceeds 1"
            )));
        }
        Ok(())
    }
}

/// A [`Transport`] that misbehaves exactly as its [`FaultPlan`] says.
#[derive(Debug, Clone)]
pub struct FaultyTransport {
    plan: FaultPlan,
    rtt_ms: u64,
}

impl FaultyTransport {
    /// Builds the transport, validating the plan.
    ///
    /// # Errors
    /// [`FederatedError::InvalidConfig`] for invalid fault parameters.
    pub fn new(plan: FaultPlan) -> Result<Self> {
        plan.validate()?;
        Ok(Self {
            plan,
            rtt_ms: DEFAULT_RTT_MS,
        })
    }

    /// The plan this transport executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl Transport for FaultyTransport {
    fn fate(&mut self, meta: &MessageMeta) -> Fate {
        let p = &self.plan;
        let mut rng = decision_rng(
            p.seed,
            meta.round,
            meta.party,
            meta.direction,
            meta.attempt,
            0xFA17,
        );
        // One draw decides between the exclusive outcomes (drop,
        // corrupt, stale, clean delivery); further draws refine the
        // delivery (straggling, duplication).
        let u: f64 = rng.gen();
        if u < p.drop_prob {
            return Fate::Dropped;
        }
        let straggle: f64 = rng.gen();
        let delay_ms = if straggle < p.straggler_prob {
            self.rtt_ms + p.straggler_delay_ms
        } else {
            self.rtt_ms
        };
        if u < p.drop_prob + p.corrupt_prob {
            return Fate::Corrupted { delay_ms };
        }
        if u < p.drop_prob + p.corrupt_prob + p.stale_prob
            && meta.direction == Direction::Up
            && meta.round > 0
        {
            return Fate::Stale {
                delay_ms,
                stale_round: meta.round - 1,
            };
        }
        let dup: f64 = rng.gen();
        let copies = if dup < p.duplicate_prob { 2 } else { 1 };
        Fate::Delivered { delay_ms, copies }
    }

    fn available(&self, party: usize, round: usize) -> bool {
        !self
            .plan
            .crashes
            .iter()
            .any(|w| w.party == party && (w.from_round..w.until_round).contains(&round))
    }

    fn rtt_ms(&self) -> u64 {
        self.rtt_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(round: usize, party: usize, attempt: usize) -> MessageMeta {
        MessageMeta {
            round,
            party,
            direction: Direction::Up,
            attempt,
            bytes: 24,
        }
    }

    #[test]
    fn zero_fault_plan_is_reliable() {
        let mut t = FaultyTransport::new(FaultPlan::reliable(1)).unwrap();
        for r in 0..20 {
            for k in 0..4 {
                assert_eq!(
                    t.fate(&meta(r, k, 0)),
                    Fate::Delivered {
                        delay_ms: DEFAULT_RTT_MS,
                        copies: 1
                    }
                );
                assert!(t.available(k, r));
            }
        }
    }

    #[test]
    fn fates_are_deterministic_in_the_seed() {
        let plan = FaultPlan {
            drop_prob: 0.3,
            straggler_prob: 0.2,
            duplicate_prob: 0.1,
            corrupt_prob: 0.1,
            stale_prob: 0.1,
            ..FaultPlan::reliable(42)
        };
        let mut a = FaultyTransport::new(plan.clone()).unwrap();
        let mut b = FaultyTransport::new(plan.clone()).unwrap();
        let mut other = FaultyTransport::new(FaultPlan { seed: 43, ..plan }).unwrap();
        let mut diverged = false;
        for r in 0..50 {
            for attempt in 0..3 {
                let m = meta(r, r % 3, attempt);
                assert_eq!(a.fate(&m), b.fate(&m));
                if a.fate(&m) != other.fate(&m) {
                    diverged = true;
                }
            }
        }
        assert!(diverged, "different seeds produced identical schedules");
    }

    #[test]
    fn drop_rate_is_respected() {
        let mut t = FaultyTransport::new(FaultPlan::grid(7, 0.2, 0.0)).unwrap();
        let n = 10_000;
        let drops = (0..n)
            .filter(|&r| t.fate(&meta(r, 0, 0)) == Fate::Dropped)
            .count();
        let rate = drops as f64 / n as f64;
        assert!((0.17..0.23).contains(&rate), "drop rate {rate}");
    }

    #[test]
    fn stragglers_are_slow_but_delivered() {
        let mut t = FaultyTransport::new(FaultPlan::grid(7, 0.0, 0.3)).unwrap();
        let mut slow = 0;
        for r in 0..1_000 {
            match t.fate(&meta(r, 1, 0)) {
                Fate::Delivered { delay_ms, .. } => {
                    if delay_ms > DEFAULT_RTT_MS {
                        assert_eq!(delay_ms, DEFAULT_RTT_MS + 1_000);
                        slow += 1;
                    }
                }
                other => panic!("unexpected fate {other:?}"),
            }
        }
        assert!((200..400).contains(&slow), "straggler count {slow}");
    }

    #[test]
    fn stale_only_on_uplink_after_round_zero() {
        let plan = FaultPlan {
            stale_prob: 1.0,
            ..FaultPlan::reliable(3)
        };
        let mut t = FaultyTransport::new(plan).unwrap();
        // Round 0 has no earlier round to be stale from.
        assert!(matches!(t.fate(&meta(0, 0, 0)), Fate::Delivered { .. }));
        match t.fate(&meta(5, 0, 0)) {
            Fate::Stale { stale_round, .. } => assert_eq!(stale_round, 4),
            other => panic!("expected stale, got {other:?}"),
        }
        // Downlink broadcasts are never retagged.
        let down = MessageMeta {
            direction: Direction::Down,
            ..meta(5, 0, 0)
        };
        assert!(matches!(t.fate(&down), Fate::Delivered { .. }));
    }

    #[test]
    fn crash_windows_control_availability() {
        let plan = FaultPlan {
            crashes: vec![
                CrashWindow {
                    party: 1,
                    from_round: 2,
                    until_round: 5,
                },
                CrashWindow::permanent(2, 10),
            ],
            ..FaultPlan::reliable(0)
        };
        let t = FaultyTransport::new(plan).unwrap();
        assert!(t.available(1, 1));
        assert!(!t.available(1, 2));
        assert!(!t.available(1, 4));
        assert!(t.available(1, 5));
        assert!(t.available(2, 9));
        assert!(!t.available(2, 10));
        assert!(!t.available(2, 1_000_000));
        assert!(t.available(0, 3));
    }

    #[test]
    fn invalid_plans_are_rejected() {
        assert!(FaultyTransport::new(FaultPlan {
            drop_prob: 1.5,
            ..FaultPlan::reliable(0)
        })
        .is_err());
        assert!(FaultyTransport::new(FaultPlan {
            drop_prob: 0.5,
            corrupt_prob: 0.4,
            stale_prob: 0.2,
            ..FaultPlan::reliable(0)
        })
        .is_err());
        assert!(FaultyTransport::new(FaultPlan {
            straggler_prob: f64::NAN,
            ..FaultPlan::reliable(0)
        })
        .is_err());
    }
}
