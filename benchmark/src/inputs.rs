//! Everything a workload feeds the program, made from `--seed`: device ids,
//! attribute strings, MAC keys, nonces and payload bytes. The program under
//! test sees only these generated values, never the seed.

use mws_core::sda::deposit_mac;
use mws_crypto::HmacDrbg;
use mws_wire::Pdu;

/// The seeded source all inputs are drawn from.
pub struct Inputs {
    rng: HmacDrbg,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: HmacDrbg::new(&seed.to_be_bytes(), b"mws-benchmark inputs"),
        }
    }

    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        self.rng.bytes(n)
    }

    pub fn u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.rng.generate(&mut b);
        u64::from_be_bytes(b)
    }

    /// `prefix-xxxxxxxx`: an identifier with eight seeded hex digits.
    pub fn id(&mut self, prefix: &str) -> String {
        format!("{prefix}-{:08x}", self.u64() as u32)
    }

    /// A seeded attribute string that `placed` accepts: workloads whose
    /// cost depends on where an attribute lands (which shard, which replica
    /// nodes) draw until it lands where the workload says, so that the seed
    /// changes the bytes and never the shape.
    pub fn attribute_where(&mut self, placed: impl Fn(&str) -> bool) -> String {
        loop {
            let attr = self.id("ATTR");
            if placed(&attr) {
                return attr;
            }
        }
    }

    /// A depositor under an attribute of its own, wherever that routes.
    pub fn any_depositor(&mut self, body_len: usize) -> Depositor {
        let attribute = self.id("ATTR");
        self.depositor(attribute, body_len)
    }

    /// A depositing device whose request stream is fixed by the seed.
    pub fn depositor(&mut self, attribute: String, body_len: usize) -> Depositor {
        let pool_len = POOL_LEN.max(2 * body_len);
        Depositor {
            sd_id: self.id("sd"),
            mac_key: self.bytes(32),
            attribute,
            nonce_prefix: self.u64(),
            seq: 0,
            pool: self.bytes(pool_len),
            body_len,
        }
    }
}

/// Seeded bytes each depositor slices its `u` and body from.
const POOL_LEN: usize = 8 << 10;
const U_LEN: usize = 32;

/// Crafts the deposits of one smart device without the IBE step: `u` and
/// the sealed body are seeded bytes under a *valid* deposit MAC, which is
/// all the warehouse checks (device-side encryption is the `collect`
/// set-up's and the ladder's subject).
pub struct Depositor {
    pub sd_id: String,
    pub mac_key: Vec<u8>,
    pub attribute: String,
    nonce_prefix: u64,
    seq: u64,
    pool: Vec<u8>,
    body_len: usize,
}

impl Depositor {
    /// The next request: a fresh nonce (seeded prefix ‖ counter) and a
    /// window of the payload pool that moves with every call.
    pub fn next_request(&mut self) -> Pdu {
        let mut nonce = Vec::with_capacity(16);
        nonce.extend_from_slice(&self.nonce_prefix.to_be_bytes());
        nonce.extend_from_slice(&self.seq.to_be_bytes());
        let at = (self.seq as usize * 7) % (self.pool.len() - self.body_len - U_LEN);
        self.seq += 1;
        let u = self.pool[at..at + U_LEN].to_vec();
        let sealed = self.pool[at + U_LEN..at + U_LEN + self.body_len].to_vec();
        let mac = deposit_mac(
            &self.mac_key,
            &u,
            &sealed,
            &self.attribute,
            &nonce,
            &self.sd_id,
            0,
        );
        Pdu::DepositRequest {
            sd_id: self.sd_id.clone(),
            timestamp: 0,
            u,
            algo: 1,
            sealed,
            attribute: self.attribute.clone(),
            nonce,
            mac,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let router = mws_store::ShardRouter::new(4);
        let make = |seed| {
            let mut i = Inputs::new(seed);
            let attr = i.attribute_where(|a| router.route(a) == 2);
            let mut d = i.depositor(attr, 64);
            (d.next_request(), d.next_request())
        };
        let (a1, a2) = make(1);
        assert_eq!((a1.clone(), a2.clone()), make(1));
        assert_ne!(a1, make(2).0);
        assert_ne!(a1, a2, "consecutive requests differ");
        match a1 {
            Pdu::DepositRequest {
                u,
                sealed,
                attribute,
                nonce,
                ..
            } => {
                assert_eq!((u.len(), sealed.len(), nonce.len()), (32, 64, 16));
                assert_eq!(router.route(&attribute), 2);
            }
            other => panic!("not a deposit: {other:?}"),
        }
    }
}
