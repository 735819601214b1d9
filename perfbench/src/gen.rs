//! Seeded input generation.
//!
//! Every input a workload feeds the program — keys, value sizes and
//! bytes, the op mix, lottery secrets and the reconfiguration schedule —
//! is generated here from the workload seed, before any timing starts.
//! The workloads only replay these plans; the same seed always yields the
//! same plan.

use chorus_protocols::store::Request;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so each plan
    /// component draws from its own sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `percent / 100`.
    pub fn percent(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut order: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i as u64 + 1) as usize);
        }
        order
    }

    /// `len` printable bytes.
    pub fn text(&mut self, len: usize) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
        (0..len).map(|_| ALPHABET[self.below(ALPHABET.len() as u64) as usize] as char).collect()
    }
}

/// Value lengths with the distribution whose quantile function is
/// `quantile`, stratified: the `i`-th of `n` lengths is drawn from the
/// `i`-th of `n` equal-probability strata, so every seed's pool has
/// nearly the same size profile and seeds differ only in content and
/// order.
fn stratified_lengths(rng: &mut Rng, n: usize, quantile: impl Fn(f64) -> u64) -> Vec<u64> {
    (0..n).map(|i| quantile((i as f64 + rng.unit()) / n as f64)).collect()
}

/// The inverse CDF of the log-uniform distribution on `[lo, hi]`.
pub fn log_uniform(lo: u64, hi: u64) -> impl Fn(f64) -> u64 {
    move |u| {
        let (a, b) = ((lo as f64).ln(), (hi as f64).ln());
        ((a + (b - a) * u).exp().round() as u64).clamp(lo, hi)
    }
}

/// The inverse CDF of the uniform distribution on `[lo, hi]`.
pub fn uniform(lo: u64, hi: u64) -> impl Fn(f64) -> u64 {
    move |u| (lo + (u * (hi - lo + 1) as f64) as u64).min(hi)
}

/// Values in a plan's pool.
const VALUES: usize = 512;

/// One KVS op of a plan: a put of `values[value]` or a get, on
/// `keys[key]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvsOp {
    pub put: bool,
    pub key: u32,
    pub value: u32,
}

/// A closed-loop KVS plan: `slots` logical clients, each replaying its
/// own op stream over keys no other slot touches, so every response is
/// exactly predictable from that slot's history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvsPlan {
    /// `keys[slot][k]`: the keys slot `slot` owns.
    pub keys: Vec<Vec<String>>,
    /// The shared value pool.
    pub values: Vec<String>,
    /// `ops[slot]`: the slot's op stream, replayed cyclically.
    pub ops: Vec<Vec<KvsOp>>,
}

impl KvsPlan {
    /// `kvs_pooled_local`: 64 slots, 90% get / 10% put, 16–64 B values.
    pub fn pooled(seed: u64) -> Self {
        Self::generate(seed, 64, 16, 1024, 10, uniform(16, 64))
    }

    /// `kvs_tcp_sizes`: one client, 50% put / 50% get, values
    /// log-uniform from 16 B to 64 KiB.
    pub fn tcp_sizes(seed: u64) -> Self {
        Self::generate(seed, 1, 64, 8192, 50, log_uniform(16, 64 * 1024))
    }

    fn generate(
        seed: u64,
        slots: usize,
        keys_per_slot: u32,
        ops_per_slot: usize,
        put_percent: u64,
        value_len: impl Fn(f64) -> u64,
    ) -> Self {
        let mut rng = Rng::new(seed, 1);
        let keys = (0..slots)
            .map(|slot| {
                (0..keys_per_slot).map(|k| format!("s{slot:02}/k{k:03}/{}", rng.text(6))).collect()
            })
            .collect();
        let mut rng = Rng::new(seed, 2);
        let lengths = stratified_lengths(&mut rng, VALUES, value_len);
        let values = lengths.into_iter().map(|len| rng.text(len as usize)).collect();
        // Puts walk the pool in a seeded order, so every stretch of ops
        // carries the pool's size profile.
        let mut rng = Rng::new(seed, 3);
        let order = rng.permutation(VALUES);
        let mut puts = rng.below(VALUES as u64) as usize;
        let ops = (0..slots)
            .map(|_| {
                (0..ops_per_slot)
                    .map(|_| {
                        let put = rng.percent(put_percent);
                        let value = if put {
                            puts += 1;
                            order[puts % VALUES]
                        } else {
                            0
                        };
                        KvsOp { put, key: rng.below(u64::from(keys_per_slot)) as u32, value }
                    })
                    .collect()
            })
            .collect();
        KvsPlan { keys, values, ops }
    }

    /// The `n`-th op of `slot` (cycling) as a request, plus its
    /// key-and-value byte count.
    pub fn request(&self, slot: usize, n: u64) -> (KvsOp, Request, u64) {
        let stream = &self.ops[slot];
        let op = stream[(n % stream.len() as u64) as usize];
        let key = self.keys[slot][op.key as usize].clone();
        if op.put {
            let value = self.values[op.value as usize].clone();
            let bytes = (key.len() + value.len()) as u64;
            (op, Request::Put(key, value), bytes)
        } else {
            let bytes = key.len() as u64;
            (op, Request::Get(key), bytes)
        }
    }
}

/// The per-slot expected-state model: for every key, the index of the
/// value last put (or none).
#[derive(Debug, Clone)]
pub struct KvsModel {
    last: Vec<Vec<Option<u32>>>,
}

impl KvsModel {
    pub fn new(plan: &KvsPlan) -> Self {
        KvsModel { last: plan.keys.iter().map(|keys| vec![None; keys.len()]).collect() }
    }

    /// Checks `response` against the model for `op` of `slot`, then
    /// applies the op. Returns the delivered value bytes on success.
    pub fn check(
        &mut self,
        plan: &KvsPlan,
        slot: usize,
        op: KvsOp,
        response: &chorus_protocols::store::Response,
    ) -> Result<u64, String> {
        use chorus_protocols::store::Response;
        let entry = &mut self.last[slot][op.key as usize];
        let ok = match (*entry, response) {
            (None, Response::NotFound) => true,
            (Some(v), Response::Found(found)) => plan.values[v as usize] == *found,
            _ => false,
        };
        if !ok {
            return Err(format!(
                "slot {slot} key {} ({} op): expected {:?}, got {response:?}",
                plan.keys[slot][op.key as usize],
                if op.put { "put" } else { "get" },
                entry.map(|v| plan.values[v as usize].len()),
            ));
        }
        let delivered = match response {
            Response::Found(found) => found.len() as u64,
            _ => 0,
        };
        if op.put {
            *entry = Some(op.value);
        }
        Ok(delivered)
    }
}

/// `lottery_local`: three seeded client secrets per draw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LotteryPlan {
    pub secrets: Vec<[u64; 3]>,
}

impl LotteryPlan {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 4);
        // Field elements, distinct within a draw, so the payout
        // identifies exactly one client's input.
        let top = chorus_mpc::field::FLOTTERY::order() - 1;
        let secrets = (0..4096)
            .map(|_| loop {
                let draw = [rng.range(1, top), rng.range(1, top), rng.range(1, top)];
                if draw[0] != draw[1] && draw[1] != draw[2] && draw[0] != draw[2] {
                    break draw;
                }
            })
            .collect();
        LotteryPlan { secrets }
    }

    pub fn draw(&self, n: u64) -> [u64; 3] {
        self.secrets[(n % self.secrets.len() as u64) as usize]
    }
}

/// One client op of the cluster plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterOp {
    pub put: bool,
    pub key: u32,
    pub value: String,
}

/// `kvs_cluster_reshard`: the op stream plus the reconfiguration
/// schedule (ops between cycles, ops interleaved with each pre-copy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterPlan {
    pub keys: Vec<String>,
    pub ops: Vec<ClusterOp>,
    /// `(steady ops before the cycle, ops interleaved per pre-copy)`.
    pub reconfigs: Vec<(u32, u32)>,
}

impl ClusterPlan {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 5);
        let keys = (0..96).map(|i| format!("key-{i:03}-{}", rng.text(8))).collect();
        let mut rng = Rng::new(seed, 6);
        let ops = (0..8192)
            .map(|_| {
                let put = rng.percent(50);
                let key = rng.below(96) as u32;
                let len = rng.range(8, 32) as usize;
                ClusterOp { put, key, value: rng.text(len) }
            })
            .collect();
        let mut rng = Rng::new(seed, 7);
        let reconfigs =
            (0..1024).map(|_| (rng.range(48, 80) as u32, rng.range(2, 6) as u32)).collect();
        ClusterPlan { keys, ops, reconfigs }
    }

    pub fn op(&self, n: u64) -> &ClusterOp {
        &self.ops[(n % self.ops.len() as u64) as usize]
    }

    pub fn reconfig(&self, n: u64) -> (u32, u32) {
        self.reconfigs[(n % self.reconfigs.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_reproduces_an_identical_op_sequence() {
        assert_eq!(KvsPlan::pooled(7), KvsPlan::pooled(7));
        assert_eq!(KvsPlan::tcp_sizes(7), KvsPlan::tcp_sizes(7));
        assert_eq!(LotteryPlan::new(7), LotteryPlan::new(7));
        assert_eq!(ClusterPlan::new(7), ClusterPlan::new(7));
        // The replayed requests, not just the plan, repeat exactly.
        let (a, b) = (KvsPlan::pooled(7), KvsPlan::pooled(7));
        for slot in [0, 63] {
            for n in 0..2048 {
                assert_eq!(a.request(slot, n).1, b.request(slot, n).1);
            }
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(KvsPlan::pooled(1).ops, KvsPlan::pooled(2).ops);
        assert_ne!(KvsPlan::tcp_sizes(1).values, KvsPlan::tcp_sizes(2).values);
        assert_ne!(LotteryPlan::new(1), LotteryPlan::new(2));
        assert_ne!(ClusterPlan::new(1).reconfigs, ClusterPlan::new(2).reconfigs);
    }

    #[test]
    fn plans_follow_their_stated_mix() {
        let pooled = KvsPlan::pooled(3);
        let ops: Vec<KvsOp> = pooled.ops.concat();
        let puts = ops.iter().filter(|op| op.put).count() as f64 / ops.len() as f64;
        assert!((0.08..0.12).contains(&puts), "put share {puts}");
        assert!(pooled.values.iter().all(|v| (16..=64).contains(&v.len())));
        let tcp = KvsPlan::tcp_sizes(3);
        assert!(tcp.values.iter().all(|v| (16..=65536).contains(&v.len())));
        assert!(tcp.values.iter().any(|v| v.len() > 16 * 1024));
        assert!(tcp.values.iter().any(|v| v.len() < 64));
        // Keys never collide across slots.
        let mut all: Vec<&String> = pooled.keys.iter().flatten().collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 64 * 16);
    }

    #[test]
    fn model_predicts_put_and_get_responses() {
        use chorus_protocols::store::Response;
        let plan = KvsPlan::pooled(5);
        let mut model = KvsModel::new(&plan);
        let get = KvsOp { put: false, key: 0, value: 0 };
        let put = KvsOp { put: true, key: 0, value: 3 };
        assert!(model.check(&plan, 0, get, &Response::NotFound).is_ok());
        assert!(model.check(&plan, 0, put, &Response::NotFound).is_ok());
        let stored = Response::Found(plan.values[3].clone());
        assert!(model.check(&plan, 0, get, &stored).is_ok());
        assert!(model.check(&plan, 0, get, &Response::NotFound).is_err());
        // Another slot's key is untouched.
        assert!(model.check(&plan, 1, get, &Response::NotFound).is_ok());
    }
}
