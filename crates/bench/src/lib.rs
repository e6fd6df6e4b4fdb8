//! Shared workload generation, deployment builders, the median timer and
//! JSON output for the experiment harness (benches `e1`–`e8` and the report
//! binaries).
//!
//! Everything is seeded and deterministic so any experiment row can be
//! regenerated bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod timing;
pub mod workload;

pub use json::Json;
pub use timing::{time_op, timings_json, Bench, Timing};
pub use workload::{MeterClass, Reading, WorkloadGen};

use mws_core::{Deployment, DeploymentConfig};

/// Builds a deployment pre-populated with `n_devices` meters and one RC
/// (`"rc"` / `"pw"`) granted every fleet attribute.
pub fn populated_deployment(n_devices: usize, messages_per_device: usize) -> Deployment {
    let mut dep = Deployment::new(DeploymentConfig::test_default());
    let mut gen = WorkloadGen::new(7);
    let attrs: Vec<String> = MeterClass::ALL
        .iter()
        .map(|c| c.fleet_attribute())
        .collect();
    let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
    dep.register_client("rc", "pw", &attr_refs);
    for i in 0..n_devices {
        let sd_id = format!("meter-{i:05}");
        dep.register_device(&sd_id);
        let class = MeterClass::ALL[i % MeterClass::ALL.len()];
        let mut device = dep.device(&sd_id);
        for _ in 0..messages_per_device {
            let reading = gen.reading(class);
            device
                .deposit(&class.fleet_attribute(), reading.render().as_bytes())
                .expect("deposit");
        }
    }
    dep
}
