//! E5 — requirement iv (scalability): deposit throughput vs. fleet size
//! and retrieval latency vs. warehouse size.

use mws_bench::populated_deployment;
use mws_bench::Bench;
use mws_core::clock::ReplayPolicy;
use mws_core::{Deployment, DeploymentConfig};

fn main() {
    let mut bench = Bench::new("e5_scalability");

    // Deposit throughput: one round across a fleet of N devices.
    for n_devices in [1usize, 8, 32] {
        {
            let mut dep = Deployment::new(DeploymentConfig {
                replay: ReplayPolicy::Off,
                ..DeploymentConfig::test_default()
            });
            dep.register_client("rc", "pw", &["A"]);
            let mut handles = Vec::new();
            for i in 0..n_devices {
                let id = format!("m{i}");
                dep.register_device(&id);
                handles.push(dep.device(&id));
            }
            bench.run(format!("fleet_deposit_round/{n_devices}"), || {
                for h in handles.iter_mut() {
                    h.deposit("A", b"kWh=1.00").unwrap();
                }
            });
        }
    }

    // Retrieval (wire + policy join + token) vs warehouse size; the
    // decrypt-everything path scales with matches, so measure both the
    // header-only retrieval and the first-message full pipeline.
    for warehouse in [12usize, 100, 1000] {
        let per_device = warehouse / 4;
        let total = per_device * 4; // exact count actually deposited
        let mut dep = populated_deployment(4, per_device);
        let mut rc = dep.client("rc", "pw");
        bench.run(format!("retrieve_headers/{warehouse}"), || {
            let (_, messages) = rc.retrieve(0).unwrap();
            assert_eq!(messages.len(), total);
        });
        // Incremental poll that matches nothing: the "steady state" cost.
        {
            let horizon = dep.clock().now() + 1_000;
            bench.run(format!("retrieve_empty_poll/{warehouse}"), || {
                let (_, messages) = rc.retrieve(horizon).unwrap();
                assert!(messages.is_empty());
            });
        }
    }
    bench.finish();
}
