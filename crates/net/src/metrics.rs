//! Per-endpoint wire metrics.

/// Counters for one endpoint (or one client link).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkMetrics {
    /// Requests delivered to the service.
    pub requests: u64,
    /// Requests dropped by fault injection before the peer saw them.
    pub dropped: u64,
    /// Bytes received by the service (framed requests).
    pub bytes_in: u64,
    /// Bytes emitted by the service (framed responses).
    pub bytes_out: u64,
    /// Messages delivered twice by fault injection.
    pub duplicates: u64,
    /// Exchanges reset mid-flight by fault injection (request delivered,
    /// reply lost).
    pub resets: u64,
}

impl LinkMetrics {
    /// Total bytes in both directions.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_in + self.bytes_out
    }

    /// The change since `prev`, an earlier snapshot of the same link.
    ///
    /// [`Network::metrics`](crate::Network::metrics) hands out
    /// point-in-time copies; tests that exercise one phase of a scenario
    /// want "what happened since my snapshot" without hand-subtracting
    /// six fields. Saturating, so a rebound (reset) endpoint yields
    /// zeros rather than wrapping.
    pub fn delta(&self, prev: &LinkMetrics) -> LinkMetrics {
        LinkMetrics {
            requests: self.requests.saturating_sub(prev.requests),
            dropped: self.dropped.saturating_sub(prev.dropped),
            bytes_in: self.bytes_in.saturating_sub(prev.bytes_in),
            bytes_out: self.bytes_out.saturating_sub(prev.bytes_out),
            duplicates: self.duplicates.saturating_sub(prev.duplicates),
            resets: self.resets.saturating_sub(prev.resets),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let m = LinkMetrics {
            requests: 2,
            dropped: 1,
            bytes_in: 10,
            bytes_out: 30,
            ..Default::default()
        };
        assert_eq!(m.bytes_total(), 40);
        assert_eq!(LinkMetrics::default().bytes_total(), 0);
    }

    #[test]
    fn delta_subtracts_fieldwise_and_saturates() {
        let prev = LinkMetrics {
            requests: 2,
            dropped: 1,
            bytes_in: 10,
            bytes_out: 30,
            duplicates: 1,
            resets: 1,
        };
        let now = LinkMetrics {
            requests: 7,
            dropped: 1,
            bytes_in: 110,
            bytes_out: 90,
            duplicates: 3,
            resets: 1,
        };
        let d = now.delta(&prev);
        assert_eq!(d.requests, 5);
        assert_eq!(d.dropped, 0);
        assert_eq!(d.bytes_in, 100);
        assert_eq!(d.bytes_out, 60);
        assert_eq!(d.duplicates, 2);
        assert_eq!(d.resets, 0);
        // A restarted endpoint (counters rewound) must not wrap.
        assert_eq!(prev.delta(&now), LinkMetrics::default());
        // Self-delta is zero.
        assert_eq!(now.delta(&now), LinkMetrics::default());
    }
}
