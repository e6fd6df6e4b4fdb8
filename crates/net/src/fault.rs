//! Deterministic fault injection.

use mws_crypto::HmacDrbg;

/// Per-link fault configuration.
///
/// [`FaultyTransport`](crate::FaultyTransport) samples it once per round
/// trip over any [`Transport`](crate::Transport), the in-process bus or real
/// TCP sockets. Same seed, same fault schedule, on either medium.
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// Probability (0.0–1.0) of dropping any message.
    pub drop_rate: f64,
    /// Probability (0.0–1.0) of delivering a message twice (the peer
    /// processes the frame twice; the sender sees one reply).
    pub duplicate_rate: f64,
    /// Probability (0.0–1.0) of resetting the connection mid-exchange:
    /// the frame reaches the peer but the reply is lost, so the sender
    /// cannot tell whether the request took effect.
    pub reset_rate: f64,
    /// DRBG seed — same seed, same drops.
    pub seed: u64,
}

/// What the (simulated) network does to the next message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// Lose the message before the peer sees it.
    Drop,
    /// Deliver the message twice.
    Duplicate,
    /// Deliver the message, then kill the connection before the reply.
    Reset,
}

/// Stateful deterministic fault decider.
pub(crate) struct FaultState {
    drop_rate: f64,
    duplicate_rate: f64,
    reset_rate: f64,
    drbg: HmacDrbg,
}

impl FaultState {
    pub(crate) fn new(cfg: &FaultConfig) -> Self {
        Self {
            drop_rate: cfg.drop_rate,
            duplicate_rate: cfg.duplicate_rate,
            reset_rate: cfg.reset_rate,
            drbg: HmacDrbg::new(&cfg.seed.to_be_bytes(), b"mws-net-fault"),
        }
    }

    /// Samples the fate of the next message. One DRBG draw per decision;
    /// a fault-free configuration draws nothing, so adding fault kinds
    /// never perturbs the schedule of configurations that don't use them.
    pub(crate) fn next_action(&mut self) -> FaultAction {
        let total = self.drop_rate + self.duplicate_rate + self.reset_rate;
        if total <= 0.0 {
            return FaultAction::Deliver;
        }
        let mut b = [0u8; 8];
        self.drbg.generate(&mut b);
        let x = u64::from_be_bytes(b) as f64 / u64::MAX as f64;
        if x < self.drop_rate {
            FaultAction::Drop
        } else if x < self.drop_rate + self.duplicate_rate {
            FaultAction::Duplicate
        } else if x < total {
            FaultAction::Reset
        } else {
            FaultAction::Deliver
        }
    }

    /// Returns true when the next message should be dropped (drop-only view
    /// of [`Self::next_action`], kept for call sites that cannot express
    /// richer faults).
    #[cfg(test)]
    pub(crate) fn should_drop(&mut self) -> bool {
        self.next_action() == FaultAction::Drop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_drops() {
        let mut f = FaultState::new(&FaultConfig::default());
        assert!((0..1000).all(|_| !f.should_drop()));
    }

    #[test]
    fn full_rate_always_drops() {
        let mut f = FaultState::new(&FaultConfig {
            drop_rate: 1.0,
            ..Default::default()
        });
        assert!((0..100).all(|_| f.should_drop()));
    }

    #[test]
    fn partial_rate_is_deterministic_and_plausible() {
        let cfg = FaultConfig {
            drop_rate: 0.25,
            seed: 7,
            ..Default::default()
        };
        let run = |mut f: FaultState| (0..10_000).map(|_| f.should_drop()).collect::<Vec<_>>();
        let a = run(FaultState::new(&cfg));
        let b = run(FaultState::new(&cfg));
        assert_eq!(a, b, "same seed, same drops");
        let drops = a.iter().filter(|&&d| d).count();
        assert!((2000..3000).contains(&drops), "~25% of 10k, got {drops}");
        // Different seed differs.
        let c = run(FaultState::new(&FaultConfig { seed: 8, ..cfg }));
        assert_ne!(a, c);
    }

    #[test]
    fn action_mix_is_deterministic_and_partitioned() {
        let cfg = FaultConfig {
            drop_rate: 0.2,
            duplicate_rate: 0.1,
            reset_rate: 0.1,
            seed: 11,
        };
        let run = |mut f: FaultState| (0..10_000).map(|_| f.next_action()).collect::<Vec<_>>();
        let a = run(FaultState::new(&cfg));
        assert_eq!(a, run(FaultState::new(&cfg)), "same seed, same schedule");
        let count = |kind| a.iter().filter(|&&x| x == kind).count();
        let (drops, dups, resets) = (
            count(FaultAction::Drop),
            count(FaultAction::Duplicate),
            count(FaultAction::Reset),
        );
        assert!((1700..2300).contains(&drops), "~20% drops, got {drops}");
        assert!((700..1300).contains(&dups), "~10% duplicates, got {dups}");
        assert!((700..1300).contains(&resets), "~10% resets, got {resets}");
    }

    #[test]
    fn drop_only_schedule_unchanged_by_new_fault_kinds() {
        // The drop stream for a drop-only config must be byte-identical to
        // what the pre-generalization decider produced: one 8-byte draw per
        // decision, compared against drop_rate alone.
        let cfg = FaultConfig {
            drop_rate: 0.25,
            seed: 7,
            ..Default::default()
        };
        let mut f = FaultState::new(&cfg);
        let mut drbg = mws_crypto::HmacDrbg::new(&7u64.to_be_bytes(), b"mws-net-fault");
        for _ in 0..1000 {
            let mut b = [0u8; 8];
            drbg.generate(&mut b);
            let expect = (u64::from_be_bytes(b) as f64 / u64::MAX as f64) < 0.25;
            assert_eq!(f.should_drop(), expect);
        }
    }
}
