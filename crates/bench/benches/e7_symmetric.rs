//! E7 — design decision D1: the paper fixed DES; how much does the
//! symmetric cipher choice cost on meter-sized payloads?
//!
//! Regenerates: throughput rows for the two hybrid-layer ciphers, DES and
//! AES-128 in CTR mode, and AES-128-GCM (the sealed transport's record
//! cipher) at 64 B, 1 KiB and 64 KiB.

use mws_bench::Bench;
use mws_bench::WorkloadGen;
use mws_crypto::{gcm_seal, Aes128, CtrMode, Des};

fn main() {
    let mut bench = Bench::new("e7_symmetric");
    let mut generator = WorkloadGen::new(1);

    for size in [64usize, 1024, 65_536] {
        let payload = generator.payload(size);

        let cipher = Des::new(&[1; 8]).unwrap();
        bench.run(format!("des_ctr/{size}"), || {
            CtrMode::encrypt(&cipher, &[2; 4], &payload).unwrap()
        });

        let cipher = Aes128::new(&[1; 16]).unwrap();
        bench.run(format!("aes128_ctr/{size}"), || {
            CtrMode::encrypt(&cipher, &[2; 8], &payload).unwrap()
        });

        // AEAD comparison point: AES-128-GCM (authenticated, single pass).
        bench.run(format!("aes128_gcm/{size}"), || {
            gcm_seal(&cipher, &[2; 12], b"", &payload).unwrap()
        });
    }
    bench.finish();
}
