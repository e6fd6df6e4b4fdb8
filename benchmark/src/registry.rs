//! Reads the program's own metrics from outside: snapshots of the
//! `mws_obs::registry()` text exposition and deltas between two of them.
//!
//! The registry is process-global and cumulative, and a histogram exposes
//! only cumulative quantiles plus `_count` and `_sum` — so what can be
//! taken over an interval is a count or a mean (Δsum ÷ Δcount), never a
//! median. A name the program no longer registers is an error, not a zero:
//! a renamed counter must fail the traced run instead of reading as "no
//! work done".

use std::collections::BTreeMap;

/// One parsed exposition: metric name (labels inline) → value.
pub struct Snapshot(BTreeMap<String, f64>);

impl Snapshot {
    /// The registry as it stands now.
    pub fn take() -> Self {
        Self::parse(&mws_obs::registry().exposition())
    }

    /// Parses `name value` lines. The name may hold spaces inside its label
    /// block, so the value is what follows the last space.
    pub fn parse(exposition: &str) -> Self {
        let mut map = BTreeMap::new();
        for line in exposition.lines() {
            if let Some((name, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    map.insert(name.to_string(), v);
                }
            }
        }
        Self(map)
    }

    /// Growth from `earlier` to `self` of the metric `name`, summed over its
    /// label variants (`name{pdu="…"}`) when it has any. A variant that first
    /// appears in `self` (lazily registered) counts from zero.
    pub fn delta(&self, earlier: &Snapshot, name: &str) -> Result<f64, String> {
        let variants: Vec<f64> = self
            .0
            .range(name.to_string()..)
            .take_while(|(key, _)| key.starts_with(name))
            .filter(|(key, _)| matches!(key.as_bytes().get(name.len()), None | Some(b'{')))
            .map(|(key, now)| now - earlier.0.get(key).copied().unwrap_or(0.0))
            .collect();
        if variants.is_empty() {
            return Err(format!("registry metric `{name}` is not registered"));
        }
        Ok(variants.iter().sum())
    }

    /// Mean of the observations the histogram `name` took in between (over
    /// all its label variants), and how many there were.
    pub fn mean_delta(&self, earlier: &Snapshot, name: &str) -> Result<(f64, f64), String> {
        let count = self.delta(earlier, &format!("{name}_count"))?;
        let sum = self.delta(earlier, &format!("{name}_sum"))?;
        if count <= 0.0 {
            return Err(format!("registry histogram `{name}` took no observations"));
        }
        Ok((sum / count, count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
mws_server_requests_total 10
mws_store_wal_fsync_us{quantile=\"0.5\"} 200
mws_store_wal_fsync_us_count 4
mws_store_wal_fsync_us_sum 1000
mws_server_handle_us_count{pdu=\"deposit_request\"} 2
mws_server_handle_us_sum{pdu=\"deposit_request\"} 30
";
    const AFTER: &str = "\
mws_cluster_deposits_acked_total 7
mws_server_requests_total 25
mws_store_wal_fsync_us{quantile=\"0.5\"} 210
mws_store_wal_fsync_us_count 14
mws_store_wal_fsync_us_sum 3500
mws_server_handle_us_count{pdu=\"deposit_request\"} 12
mws_server_handle_us_sum{pdu=\"deposit_request\"} 130
mws_server_handle_us_count{pdu=\"health_request\"} 10
mws_server_handle_us_sum{pdu=\"health_request\"} 100
mws_server_handle_us_countess 99
mws_odd{a=\"x y\"} 3
";

    #[test]
    fn counter_deltas() {
        let (a, b) = (Snapshot::parse(BEFORE), Snapshot::parse(AFTER));
        assert_eq!(b.delta(&a, "mws_server_requests_total"), Ok(15.0));
        // Registered between the snapshots: counts from zero.
        assert_eq!(b.delta(&a, "mws_cluster_deposits_acked_total"), Ok(7.0));
        assert_eq!(b.delta(&a, "mws_odd"), Ok(3.0));
    }

    #[test]
    fn histogram_interval_means() {
        let (a, b) = (Snapshot::parse(BEFORE), Snapshot::parse(AFTER));
        assert_eq!(
            b.mean_delta(&a, "mws_store_wal_fsync_us"),
            Ok((250.0, 10.0))
        );
        // Summed over label variants; `…_countess` is another metric.
        assert_eq!(b.mean_delta(&a, "mws_server_handle_us"), Ok((10.0, 20.0)));
    }

    #[test]
    fn vanished_names_and_idle_histograms_are_errors() {
        let (a, b) = (Snapshot::parse(BEFORE), Snapshot::parse(AFTER));
        assert!(b.delta(&a, "mws_cluster_forwards_total").is_err());
        assert!(b.mean_delta(&a, "mws_core_retrieve_us").is_err());
        assert!(b.mean_delta(&b, "mws_store_wal_fsync_us").is_err());
    }
}
