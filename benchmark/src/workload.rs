//! The four workloads: what is deployed, which models exist, and the seeded
//! request stream each one sends.
//!
//! Everything the program under test sees is derived from `--seed` here; the
//! serving stack receives only the generated blobs and requests.

use lake::ml::{serialize, Activation, LstmClassifier, Matrix, Mlp};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Seeded input rows kept per model; a request names a start row in the pool.
pub const POOL_ROWS: usize = 64;
/// LSTM request shape: `LSTM_STEPS` timesteps of one feature each.
pub const LSTM_STEPS: usize = 8;
const LSTM_HIDDEN: usize = 32;
const LSTM_LAYERS: usize = 2;

/// How the measured traffic is shaped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Closed loop at a fixed in-flight window for half the run, then an
    /// open loop of Poisson arrivals at `rate` requests/s for the other half.
    SatThenPaced { window: usize, rate: f64 },
    /// One synchronous call in flight for the whole run.
    Sync,
    /// Closed loop of reads with a synchronous `swap_model` after every
    /// `swap_every`-th read.
    ReadsWithSwaps { window: usize, swap_every: usize },
}

/// One workload's frozen parameters. Names are stable: later issues cite them.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// `DaemonFleet` shard count; 0 deploys a plain `Lake` (no fleet layer).
    pub shards: usize,
    pub mlps: usize,
    pub mlp_sizes: &'static [usize],
    pub lstms: usize,
    /// Rows per request, drawn uniformly.
    pub rows: &'static [usize],
    /// Zipf(s = 1.0) model popularity over a seeded shuffle (within each
    /// model family); else uniform.
    pub zipf: bool,
    pub tenants: u32,
    /// `model_budget_bytes` as a share of each shard's installed page bytes.
    pub budget_share: Option<f64>,
    pub traffic: Traffic,
    /// Requests sent through the measured path before timing starts.
    pub warmup: usize,
    /// Requests replayed per level in the traced run.
    pub trace_requests: usize,
    /// Requests into the closed phase at which peak RSS is read, so that the
    /// reading is taken at fixed work whatever the throughput.
    pub rss_after: usize,
    /// Latency limit for `lake.slo_ok_share`, microseconds.
    pub slo_us: f64,
}

const LINNOS_PLUS_1: &[usize] = &[31, 256, 256, 2];

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "point",
        why: "batch-1 requests: time goes to admit/route, staging, codec, ring and executor hand-off, GEMM does almost nothing",
        shards: 1,
        mlps: 8,
        mlp_sizes: LINNOS_PLUS_1,
        lstms: 0,
        rows: &[1],
        zipf: false,
        tenants: 1,
        budget_share: None,
        traffic: Traffic::SatThenPaced { window: 32, rate: 2000.0 },
        warmup: 2000,
        trace_requests: 2000,
        rss_after: 100_000,
        slo_us: 1000.0,
    },
    Spec {
        name: "batch",
        why: "256-row bulk scoring, one call in flight: most of each call is ml::gemm, the call path is noise",
        shards: 1,
        mlps: 4,
        mlp_sizes: &[128, 384, 384, 2],
        lstms: 0,
        rows: &[256],
        zipf: false,
        tenants: 1,
        budget_share: None,
        traffic: Traffic::Sync,
        warmup: 64,
        trace_requests: 200,
        rss_after: 2_000,
        slo_us: 10_000.0,
    },
    Spec {
        name: "zipf_tenants",
        why: "64 models under a 25% weight budget, zipf popularity, 4096 tenants, 2 shards: store acquire/evict/refault and pack-cache misses dominate",
        shards: 2,
        mlps: 48,
        mlp_sizes: LINNOS_PLUS_1,
        lstms: 16,
        rows: &[1, 4, 16, 32],
        zipf: true,
        tenants: 4096,
        budget_share: Some(0.25),
        traffic: Traffic::SatThenPaced { window: 32, rate: 1000.0 },
        warmup: 2000,
        trace_requests: 2000,
        rss_after: 30_000,
        slo_us: 5000.0,
    },
    Spec {
        name: "hotswap",
        why: "8-row reads beside a swap_model every 100 reads on a plain Lake: executor barriers, store versioning, pack-cache invalidation; no fleet layer",
        shards: 0,
        mlps: 8,
        mlp_sizes: LINNOS_PLUS_1,
        lstms: 0,
        rows: &[8],
        zipf: false,
        tenants: 1,
        budget_share: None,
        traffic: Traffic::ReadsWithSwaps { window: 16, swap_every: 100 },
        warmup: 2000,
        trace_requests: 2000,
        rss_after: 50_000,
        slo_us: 5000.0,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    pub fn models(&self) -> usize {
        self.mlps + self.lstms
    }

    pub fn max_rows(&self) -> usize {
        *self.rows.iter().max().expect("at least one row count")
    }

    /// In-flight window of the closed loop (1 for synchronous calls).
    pub fn window(&self) -> usize {
        match self.traffic {
            Traffic::SatThenPaced { window, .. } | Traffic::ReadsWithSwaps { window, .. } => window,
            Traffic::Sync => 1,
        }
    }

    /// Second blob per model, needed only where weights are swapped.
    pub fn swaps(&self) -> bool {
        matches!(self.traffic, Traffic::ReadsWithSwaps { .. })
    }
}

#[derive(Debug, Clone)]
pub enum Net {
    Mlp(Mlp),
    Lstm(LstmClassifier),
}

/// One model: its weight variants (two when the workload swaps), their
/// encoded blobs, a pool of seeded input rows and the classes the naive
/// forward pass gives each pool row under each variant.
pub struct Model {
    pub nets: Vec<Net>,
    pub blobs: Vec<Vec<u8>>,
    /// Features per row (`steps × 1` for an LSTM).
    pub cols: usize,
    /// 0 for an MLP.
    pub steps: usize,
    /// `POOL_ROWS + max_rows` rows, the pool repeated, so any request's rows
    /// are one contiguous slice.
    pub pool: Vec<f32>,
    /// `expected[variant][pool row]`.
    pub expected: Vec<Vec<u32>>,
}

impl Model {
    pub fn features(&self, input: usize, rows: usize) -> &[f32] {
        &self.pool[input * self.cols..(input + rows) * self.cols]
    }

    pub fn is_lstm(&self) -> bool {
        self.steps > 0
    }

    /// Whether `classes` is the oracle's answer to `req` under weight
    /// `variant`.
    pub fn answers(
        &self,
        variant: usize,
        req: &Request,
        classes: impl ExactSizeIterator<Item = u64>,
    ) -> bool {
        let want = &self.expected[variant];
        classes.len() == req.rows as usize
            && classes
                .enumerate()
                .all(|(r, c)| c == want[(req.input as usize + r) % POOL_ROWS] as u64)
    }
}

/// One model's weight variants and their encoded blobs.
pub struct Weights {
    pub nets: Vec<Net>,
    pub blobs: Vec<Vec<u8>>,
}

/// Generates and encodes the workload's models from `seed`. This is set-up
/// work done by `lake::ml`, so `setup_s` times it.
pub fn weights(spec: &Spec, seed: u64) -> Vec<Weights> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d6f_6465_6c73);
    let variants = if spec.swaps() { 2 } else { 1 };
    (0..spec.models())
        .map(|m| {
            let nets: Vec<Net> = (0..variants)
                .map(|_| {
                    if m >= spec.mlps {
                        Net::Lstm(LstmClassifier::new(1, LSTM_HIDDEN, LSTM_LAYERS, 2, &mut rng))
                    } else {
                        Net::Mlp(Mlp::new(spec.mlp_sizes, Activation::Relu, &mut rng))
                    }
                })
                .collect();
            let blobs = nets.iter().map(encode).collect();
            Weights { nets, blobs }
        })
        .collect()
}

/// The model the idle write probe loads: LinnOS+1, the shape `hotswap` swaps,
/// so `write_p50_us` times a write of the same size on every workload. At
/// 0.3 MB it is also under half the 1 MiB ring: a larger frame livelocks the
/// sender once earlier traffic has moved the ring's tail off the start.
pub fn write_probe_blob(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0070_726f_6265);
    serialize::encode_mlp(&Mlp::new(LINNOS_PLUS_1, Activation::Relu, &mut rng))
}

/// Adds the seeded input pools and the oracle to generated weights. The
/// oracle is the benchmark's own cost and is never timed.
pub fn models(spec: &Spec, seed: u64, weights: Vec<Weights>) -> Vec<Model> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x696e_7075_7473);
    weights
        .into_iter()
        .map(|Weights { nets, blobs }| {
            let lstm = matches!(nets[0], Net::Lstm(_));
            let (cols, steps) =
                if lstm { (LSTM_STEPS, LSTM_STEPS) } else { (spec.mlp_sizes[0], 0) };
            let base: Vec<f32> =
                (0..POOL_ROWS * cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let expected = nets.iter().map(|n| naive_classes(n, &base, cols)).collect();
            let total = POOL_ROWS + spec.max_rows();
            let pool = base.iter().copied().cycle().take(total * cols).collect();
            Model { nets, blobs, cols, steps, pool, expected }
        })
        .collect()
}

fn encode(net: &Net) -> Vec<u8> {
    match net {
        Net::Mlp(m) => serialize::encode_mlp(m),
        Net::Lstm(m) => serialize::encode_lstm(m),
    }
}

/// The correctness oracle: `lake::ml`'s naive (unpacked, single-thread)
/// forward pass over every pool row.
fn naive_classes(net: &Net, base: &[f32], cols: usize) -> Vec<u32> {
    match net {
        Net::Mlp(m) => {
            let x = Matrix::from_vec(POOL_ROWS, cols, base.to_vec());
            m.classify(&x).into_iter().map(|c| c as u32).collect()
        }
        Net::Lstm(m) => base
            .chunks_exact(cols)
            .map(|row| {
                let seq: Vec<Vec<f32>> = row.iter().map(|&x| vec![x]).collect();
                m.classify(&seq) as u32
            })
            .collect(),
    }
}

/// One generated request. `due_ns` is 0 in closed-loop phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub due_ns: u64,
    pub model: u16,
    pub tenant: u32,
    pub rows: u16,
    /// First pool row; the request's rows are `input .. input + rows`.
    pub input: u16,
}

#[cfg(test)]
impl Request {
    /// Fixed little-endian encoding, for the byte-identical-schedule test.
    fn to_bytes(self) -> [u8; 18] {
        let mut b = [0u8; 18];
        b[..8].copy_from_slice(&self.due_ns.to_le_bytes());
        b[8..10].copy_from_slice(&self.model.to_le_bytes());
        b[10..14].copy_from_slice(&self.tenant.to_le_bytes());
        b[14..16].copy_from_slice(&self.rows.to_le_bytes());
        b[16..18].copy_from_slice(&self.input.to_le_bytes());
        b
    }
}

/// The seeded request stream of one workload.
pub struct Generator {
    rng: StdRng,
    /// Cumulative model popularity, indexed by popularity rank.
    cdf: Vec<f64>,
    /// Popularity rank → model index.
    by_rank: Vec<u16>,
    tenants: u32,
    rows: &'static [usize],
}

impl Generator {
    pub fn new(spec: &Spec, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7265_7173);
        let n = spec.models();
        let weights: Vec<f64> =
            (1..=n).map(|k| if spec.zipf { 1.0 / k as f64 } else { 1.0 }).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        // Seeded shuffle within each family, families spread evenly over the
        // popularity ranks: which models are hot depends on the seed, how
        // many of the hot ones are LSTMs does not.
        let mut mlps: Vec<u16> = (0..spec.mlps as u16).collect();
        let mut lstms: Vec<u16> = (spec.mlps as u16..n as u16).collect();
        mlps.shuffle(&mut rng);
        lstms.shuffle(&mut rng);
        let by_rank = (0..n)
            .map(|rank| {
                let lstms_before = |r: usize| r * spec.lstms / n;
                if lstms_before(rank + 1) > lstms_before(rank) {
                    lstms.pop().expect("one LSTM per LSTM rank")
                } else {
                    mlps.pop().expect("one MLP per MLP rank")
                }
            })
            .collect();
        Generator { rng, cdf, by_rank, tenants: spec.tenants, rows: spec.rows }
    }

    /// Popularity rank of the next request's model (0 = most popular).
    fn next_rank(&mut self) -> usize {
        let u: f64 = self.rng.gen();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }

    pub fn next(&mut self) -> Request {
        let rank = self.next_rank();
        Request {
            due_ns: 0,
            model: self.by_rank[rank],
            tenant: self.rng.gen_range(0..self.tenants),
            rows: self.rows[self.rng.gen_range(0..self.rows.len())] as u16,
            input: self.rng.gen_range(0..POOL_ROWS) as u16,
        }
    }

    /// Poisson arrivals at `rate` requests/s over `seconds`, due times set.
    pub fn paced(&mut self, rate: f64, seconds: f64) -> Vec<Request> {
        let horizon = seconds * 1e9;
        let mut t = 0.0f64;
        let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize);
        loop {
            let u: f64 = self.rng.gen();
            t += -(1.0 - u).ln() / rate * 1e9;
            if t >= horizon {
                return out;
            }
            out.push(Request { due_ns: t as u64, ..self.next() });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule_bytes(spec: &Spec, seed: u64) -> Vec<u8> {
        let mut g = Generator::new(spec, seed);
        let mut reqs: Vec<Request> = (0..500).map(|_| g.next()).collect();
        reqs.extend(g.paced(1000.0, 0.5));
        reqs.iter().flat_map(|r| r.to_bytes()).collect()
    }

    #[test]
    fn same_seed_same_schedule_other_seed_differs() {
        for spec in &SPECS {
            assert_eq!(schedule_bytes(spec, 12), schedule_bytes(spec, 12), "{}", spec.name);
            assert_ne!(schedule_bytes(spec, 12), schedule_bytes(spec, 13), "{}", spec.name);
        }
    }

    #[test]
    fn paced_due_times_ascend_at_the_stated_rate() {
        let spec = spec("point").unwrap();
        let reqs = Generator::new(spec, 5).paced(2000.0, 4.0);
        assert!(reqs.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let n = reqs.len() as f64;
        assert!((n - 8000.0).abs() < 400.0, "{n} arrivals");
    }

    #[test]
    fn zipf_top_16_of_64_take_71_percent() {
        let spec = spec("zipf_tenants").unwrap();
        assert_eq!(spec.models(), 64);
        let mut g = Generator::new(spec, 7);
        let n = 200_000;
        let top = (0..n).filter(|_| g.next_rank() < 16).count();
        let share = top as f64 / n as f64;
        assert!((share - 0.71).abs() < 0.02, "top-16 share {share}");
    }

    #[test]
    fn every_model_has_one_rank_and_families_interleave() {
        let spec = spec("zipf_tenants").unwrap();
        for seed in [1, 2, 3] {
            let g = Generator::new(spec, seed);
            let mut seen = g.by_rank.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..64).collect::<Vec<u16>>());
            let lstm_ranks: Vec<usize> =
                (0..64).filter(|&r| g.by_rank[r] as usize >= spec.mlps).collect();
            assert_eq!(lstm_ranks, (0..16).map(|i| 4 * i + 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn oracle_classes_are_not_constant() {
        let spec = spec("hotswap").unwrap();
        let ms = models(spec, 12, weights(spec, 12));
        assert_eq!(ms[0].blobs.len(), 2);
        let ones: usize =
            ms.iter().map(|m| m.expected[0].iter().filter(|&&c| c == 1).count()).sum();
        assert!(ones > 0 && ones < ms.len() * POOL_ROWS);
        assert!(ms.iter().any(|m| m.expected[0] != m.expected[1]), "variants must differ");
    }
}
