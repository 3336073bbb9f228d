//! The system under test, seen through one narrow adapter.
//!
//! Every call the benchmark makes into the library goes through this module, so an API
//! rename is a one-file edit here. The service is built from `ServiceConfig::new` defaults
//! plus the two deployment settings `epoch_reports` and `retained_windows`; the shard count
//! is never set, and only the wall-clock `ingest_batch` / `ingest_plus` entry points are
//! used (no `_at` twins, no array-of-structs `ingest`).

use std::sync::Arc;

use ldp_join_sketch::common::stream::ChunkedValues;
use ldp_join_sketch::common::{kernel_dispatch_snapshot, RowHashes};
use ldp_join_sketch::core::{
    DomainIndex, FiPolicy, FinalizedPlusState, FinalizedSketch, LdpJoinSketchClient,
    LdpJoinSketchPlus, PlainKernel, PlusConfig, PlusKernel, PlusStateBuilder, PlusTableRole,
    SketchBuilder,
};
use ldp_join_sketch::data::{ValueGenerator, ZipfGenerator};
use ldp_join_sketch::prelude::{exact_join_size, Epsilon, SketchParams, SliceChunks};
use ldp_join_sketch::service::{ServiceConfig, SketchService};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use ldp_join_sketch::common::{Error, ReportBatch, Result};
pub use ldp_join_sketch::core::PlusReportBatch;
pub use ldp_join_sketch::service::{AttributeId, WindowRange};

/// Sketch rows `k` every workload uses.
pub const ROWS: usize = 18;
/// Sketch columns `m` every workload uses.
pub const COLUMNS: usize = 1024;
/// Privacy budget ε every workload uses.
pub const EPSILON: f64 = 4.0;

fn params() -> SketchParams {
    SketchParams::new(ROWS, COLUMNS).expect("(18, 1024) is a valid sketch shape")
}

fn eps() -> Epsilon {
    Epsilon::new(EPSILON).expect("ε = 4 is a valid budget")
}

/// `n` values drawn from Zipf(`alpha`) over `{0, …, domain−1}` with a seeded generator.
pub fn zipf_values(alpha: f64, domain: u64, n: usize, seed: u64) -> Vec<u64> {
    let generator = ZipfGenerator::new(alpha, domain);
    let mut rng = StdRng::seed_from_u64(seed);
    generator.sample_many(n, &mut rng)
}

/// Exact join size `Σ_v f_a(v)·f_b(v)` of two value multisets.
pub fn exact_join(a: &[u64], b: &[u64]) -> u64 {
    exact_join_size(a, b)
}

/// Total FWHT kernel dispatches so far in this process (all SIMD tiers).
pub fn fwht_calls() -> u64 {
    let s = kernel_dispatch_snapshot();
    s.fwht_avx512 + s.fwht_avx2 + s.fwht_portable
}

/// The SIMD tiers the kernels actually dispatched to so far, e.g. `fwht=avx512,drain=avx2`.
pub fn simd_tiers() -> String {
    let series = kernel_dispatch_snapshot().series();
    let used = |kernel: &str| {
        let tiers: Vec<&str> = series
            .iter()
            .filter(|(name, calls)| *calls > 0 && name.starts_with(kernel))
            .map(|(name, _)| &name[kernel.len() + 1..])
            .collect();
        if tiers.is_empty() {
            "none".to_string()
        } else {
            tiers.join("+")
        }
    };
    format!("fwht={},drain={}", used("fwht"), used("drain"))
}

/// The answer of one service query, reduced to what the benchmark checks.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    pub value: f64,
    pub cached: bool,
    pub frequent_items: usize,
}

/// Query-cache counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// The online sketch service.
pub struct Service {
    inner: SketchService,
}

impl Service {
    /// A service with `ServiceConfig::new` defaults, `epoch_reports` and `retained_windows`.
    pub fn new(epoch_reports: u64, retained_windows: usize) -> Result<Self> {
        let mut config = ServiceConfig::new(params(), eps());
        config.epoch_reports = epoch_reports;
        config.retained_windows = retained_windows;
        Ok(Service {
            inner: SketchService::new(config)?,
        })
    }

    pub fn register_plain(&mut self, name: &str, hash_seed: u64) -> Result<AttributeId> {
        self.inner.register_attribute(name, hash_seed)
    }

    pub fn register_plus(&mut self, name: &str, plus: &PlusSetup) -> Result<AttributeId> {
        let attr = plus.attribute_config();
        self.inner
            .register_plus_attribute(name, plus.config.seed, attr)
    }

    /// A plain client for `attr`, encoding into its own reusable packed batch.
    pub fn plain_client(&self, attr: AttributeId) -> Result<PlainClient> {
        PlainClient::new(self.inner.client(attr)?)
    }

    /// Ingest a packed batch; returns the number of rotations it triggered.
    pub fn ingest_plain(&mut self, attr: AttributeId, batch: &ReportBatch) -> Result<u64> {
        Ok(self.inner.ingest_batch(attr, batch)?.rotations)
    }

    /// Ingest a labeled plus batch; returns the number of rotations it triggered.
    pub fn ingest_plus(&mut self, attr: AttributeId, batch: &PlusReportBatch) -> Result<u64> {
        Ok(self.inner.ingest_plus(attr, batch)?.rotations)
    }

    pub fn join(&mut self, a: AttributeId, b: AttributeId, range: WindowRange) -> Result<Answer> {
        self.inner.join_size(a, b, range).map(answer)
    }

    pub fn plus_join(
        &mut self,
        a: AttributeId,
        b: AttributeId,
        range: WindowRange,
    ) -> Result<Answer> {
        self.inner.plus_join_size(a, b, range).map(answer)
    }

    pub fn frequency(
        &mut self,
        attr: AttributeId,
        value: u64,
        range: WindowRange,
    ) -> Result<Answer> {
        self.inner.frequency(attr, value, range).map(answer)
    }

    /// Render the Prometheus-style exposition; returns its length in bytes.
    pub fn scrape(&self) -> usize {
        self.inner.metrics_text().len()
    }

    /// Drop every memoized answer and merged view.
    pub fn clear_cache(&mut self) {
        self.inner.clear_cache();
    }

    pub fn cache(&self) -> CacheCounters {
        let s = self.inner.cache_stats();
        CacheCounters {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
        }
    }

    pub fn window_count(&self, attr: AttributeId) -> Result<usize> {
        self.inner.window_count(attr)
    }

    pub fn live_reports(&self, attr: AttributeId) -> Result<u64> {
        self.inner.live_reports(attr)
    }

    /// The restored counters of the merged view over every retained window.
    pub fn merged_counters(&mut self, attr: AttributeId) -> Result<Vec<f64>> {
        Ok(self
            .inner
            .merged_view(attr, WindowRange::All)?
            .restored_counters()
            .to_vec())
    }
}

fn answer(q: ldp_join_sketch::service::QueryResult) -> Answer {
    Answer {
        value: q.value,
        cached: q.cached,
        frequent_items: q.explain.frequent_items,
    }
}

/// Derive the RNG seed of one client batch from `(workload seed, attribute, batch index)`,
/// so any batch can be re-encoded bit for bit at verification time.
pub fn batch_seed(workload_seed: u64, attr: u64, batch: u64) -> u64 {
    splitmix(workload_seed ^ splitmix(attr.wrapping_mul(0x1_0000_0001) ^ splitmix(batch)))
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// LDPJoinSketch client of a plain attribute with a reusable packed batch.
pub struct PlainClient {
    client: LdpJoinSketchClient,
    batch: ReportBatch,
}

impl PlainClient {
    fn new(client: LdpJoinSketchClient) -> Result<Self> {
        let batch = ReportBatch::new(ROWS, COLUMNS)?;
        Ok(PlainClient { client, batch })
    }

    /// Perturb `values` into the packed batch with an RNG seeded by `seed`.
    pub fn encode(&mut self, values: &[u64], seed: u64) -> Result<&ReportBatch> {
        let mut rng = StdRng::seed_from_u64(seed);
        self.client
            .perturb_batch_into(values, &mut rng, &mut self.batch)?;
        Ok(&self.batch)
    }
}

/// The LDPJoinSketch+ deployment of one join pair: the serving plus configuration, the
/// public candidate domain and the frequent items discovered in set-up.
pub struct PlusSetup {
    config: PlusConfig,
    domain: Vec<u64>,
    estimator: LdpJoinSketchPlus,
    frequent_items: Vec<u64>,
}

impl PlusSetup {
    /// Serving plus defaults (adaptive mode) over the domain `{0, …, domain−1}`, with the
    /// phase-1 discovery pass run over the two tables' value pools.
    pub fn discover(domain: u64, pool_a: &[u64], pool_b: &[u64], seed: u64) -> Result<Self> {
        let mut config = PlusConfig::new(params(), eps());
        config.adaptive = true;
        let domain: Vec<u64> = (0..domain).collect();
        let estimator = LdpJoinSketchPlus::new(config)?;
        let chunk = 4096;
        let discovery = estimator.discover_frequent_items_chunked(
            &SliceChunks::new(pool_a, chunk),
            &SliceChunks::new(pool_b, chunk),
            &domain,
            seed,
        )?;
        Ok(PlusSetup {
            config,
            domain,
            estimator,
            frequent_items: discovery.frequent_items,
        })
    }

    fn attribute_config(&self) -> ldp_join_sketch::service::PlusAttributeConfig {
        ldp_join_sketch::service::PlusAttributeConfig::from_plus_config(
            &self.config,
            self.domain.clone(),
        )
    }

    /// Encode one batch of users — the global user indices `start..start + values.len()`
    /// of table `a_side ? A : B` — into a labeled plus batch, and hand it to `sink`.
    pub fn encode(
        &self,
        a_side: bool,
        start: u64,
        values: &[u64],
        seed: u64,
        sink: &mut dyn FnMut(&PlusReportBatch) -> Result<()>,
    ) -> Result<()> {
        let role = if a_side {
            PlusTableRole::A
        } else {
            PlusTableRole::B
        };
        let users = OffsetChunk { start, values };
        self.estimator
            .stream_plus_reports(&users, role, &self.frequent_items, seed, true, sink)
    }

    /// An empty from-scratch state for rebuilding one attribute.
    pub fn rebuild(&self) -> PlusRebuild {
        PlusRebuild(PlusStateBuilder::new(params(), eps(), self.config.seed))
    }

    /// From-scratch `JoinEst` of two rebuilt states, with the attribute's discovery policy.
    pub fn join(
        &self,
        a: PlusRebuild,
        b: PlusRebuild,
    ) -> Result<(f64, FinishedPlus, FinishedPlus)> {
        let hashes = RowHashes::from_seed(self.config.seed, ROWS, COLUMNS);
        let index = DomainIndex::new(&hashes, Arc::new(self.domain.clone()));
        let policy = FiPolicy::from_config(&self.config);
        let sa = a.0.finalize_indexed(policy, &index);
        let sb = b.0.finalize_indexed(policy, &index);
        let estimate = PlusKernel::from_config(&self.config).join_est(&sa, &sb)?;
        Ok((
            estimate.join_size,
            FinishedPlus(sa, PlusKernel::from_config(&self.config)),
            FinishedPlus(sb, PlusKernel::from_config(&self.config)),
        ))
    }
}

/// One batch of users as a single-chunk stream starting at a global user index, so the
/// plus protocol's deterministic user routing sees every user's real position.
struct OffsetChunk<'a> {
    start: u64,
    values: &'a [u64],
}

impl ChunkedValues for OffsetChunk<'_> {
    fn total_values(&self) -> usize {
        self.values.len()
    }

    fn chunk_len(&self) -> usize {
        self.values.len()
    }

    fn for_each_chunk(&self, sink: &mut dyn FnMut(u64, &[u64])) {
        sink(self.start, self.values);
    }
}

/// A plain attribute rebuilt from scratch.
pub struct PlainRebuild(SketchBuilder);

impl PlainRebuild {
    pub fn new(hash_seed: u64) -> Self {
        PlainRebuild(SketchBuilder::new(params(), eps(), hash_seed))
    }

    pub fn absorb(&mut self, batch: &ReportBatch) -> Result<()> {
        self.0.absorb_batch(batch)
    }

    pub fn finish(self) -> FinishedPlain {
        FinishedPlain(self.0.finalize())
    }
}

/// A finalized from-scratch plain sketch.
pub struct FinishedPlain(FinalizedSketch);

impl FinishedPlain {
    pub fn counters(&self) -> &[f64] {
        self.0.restored_counters()
    }

    pub fn join(&self, other: &Self) -> Result<f64> {
        PlainKernel.join_size(&self.0, &other.0)
    }

    pub fn frequency(&self, value: u64) -> f64 {
        PlainKernel.frequency(&self.0, value)
    }
}

/// A plus attribute rebuilt from scratch.
pub struct PlusRebuild(PlusStateBuilder);

impl PlusRebuild {
    pub fn absorb(&mut self, batch: &PlusReportBatch) -> Result<()> {
        self.0.absorb_batch(batch)
    }
}

/// A finalized from-scratch plus state with its kernel.
pub struct FinishedPlus(FinalizedPlusState, PlusKernel);

impl FinishedPlus {
    pub fn frequency(&self, value: u64) -> f64 {
        self.1.frequency(&self.0, value)
    }
}
