//! The three workloads: set-up, the closed-loop seal cycle, and end-of-run verification.
//!
//! Every workload runs from one caller thread as a closed loop: each call is issued after
//! the previous one returned. Values and ad-hoc query keys are drawn from the workload seed
//! in set-up; the loop only encodes, ingests and queries. Work is counted in seal cycles —
//! a cycle feeds every attribute equal-sized batches until all of them seal on the same
//! step, then answers the workload's query panel over the new window, which stops the
//! freshness clock.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{now, ns_since, percentile};
use crate::sut::{
    self, AttributeId, FinishedPlain, FinishedPlus, PlainClient, PlainRebuild, PlusReportBatch,
    PlusSetup, Result, Service, WindowRange,
};
use crate::trace::{Name, Recorder};

/// Values every client batch carries.
pub const BATCH: usize = 4096;
/// Zipf skew of every value pool.
const ZIPF_ALPHA: f64 = 1.1;
/// Value domain of plain attributes.
const PLAIN_DOMAIN: u64 = 1 << 16;
/// Value domain (and public candidate domain) of plus attributes.
const PLUS_DOMAIN: u64 = 4096;
/// Hash seed shared by each plain join pair.
const PLAIN_HASH_SEED: u64 = 0x5EED_0001;

/// Command-line options a workload sees.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    /// Tiny sizes for the smoke test.
    pub smoke: bool,
}

impl Opts {
    /// Distinct cold frequency lookups per attribute in the end-of-run probe.
    fn probe_lookups(&self) -> u64 {
        if self.smoke {
            64
        } else {
            4096
        }
    }

    /// Repetitions of the cached join in the end-of-run probe.
    fn probe_reps(&self) -> usize {
        if self.smoke {
            256
        } else {
            16_384
        }
    }
}

/// Counts and samples of one measured run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
    /// Reports taken from raw value to absorbed counter in the timed loop.
    pub reports: u64,
    /// Queries answered in the timed loop.
    pub queries: u64,
    /// Freshness of each sealed window, ns.
    pub fresh_ns: Vec<f64>,
    /// Per-round `(wall ns, reports, queries)`.
    pub rounds: Vec<(f64, u64, u64)>,
    /// Human-readable verification lines.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one operation; a failed one is recorded and yields `None`.
    pub fn ok<T>(&mut self, r: Result<T>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("error: {e}"));
                None
            }
        }
    }

    /// Count one check; a false one is a failed operation.
    pub fn check(&mut self, pass: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !pass {
            self.fail(what());
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

/// What the end-of-run layer probe measured (outside the timed loop).
#[derive(Debug, Default, Clone, Copy)]
pub struct Probe {
    /// Mean cost of a cold frequency lookup over every retained window, ns.
    pub cold_frequency_ns: f64,
    /// Mean cost of a cached join, ns.
    pub cached_ns: f64,
    /// Median `metrics_text` scrape, µs.
    pub scrape_us: f64,
    /// Frequent items behind the full-span plus join (0 without plus attributes).
    pub frequent_items: usize,
}

/// One workload of the benchmark.
pub trait Workload: Sized {
    /// Seal cycles per measured round.
    fn seals_per_round(opts: &Opts) -> usize;
    /// Spans a traced run records per second, about; sizes the preallocated buffer.
    const SPANS_PER_SECOND: f64;
    /// Draw the value pools, register the attributes, run discovery and fill every ring.
    fn setup(opts: &Opts) -> Result<Self>;
    fn service(&self) -> &Service;
    /// Write steps per window; each step feeds every attribute one batch.
    fn steps_per_window(&self) -> u64;
    /// One write step. Every attribute seals on it when `closing`.
    fn write_step(&mut self, closing: bool, rec: &mut Recorder, tally: &mut Tally);
    /// What runs before each write step (nothing, or the dashboard's panels).
    fn between_writes(&mut self, _rec: &mut Recorder, _tally: &mut Tally) {}
    /// The workload's queries over a freshly sealed window.
    fn fresh_queries(&mut self, rec: &mut Recorder, tally: &mut Tally);
    /// Rebuild the retained windows from scratch, compare bit for bit, then probe the
    /// query and telemetry layers.
    fn verify(&mut self, opts: &Opts, tally: &mut Tally) -> Probe;

    /// Fill every ring with `windows` sealed windows.
    fn fill(&mut self, windows: usize) -> Result<()> {
        let (mut rec, mut t) = (Recorder::off(), Tally::default());
        let steps = self.steps_per_window();
        for step in 0..windows as u64 * steps {
            self.write_step((step + 1).is_multiple_of(steps), &mut rec, &mut t);
        }
        match t.errors.first() {
            None => Ok(()),
            Some(e) => Err(sut::Error::InvalidWorkload(format!("set-up failed: {e}"))),
        }
    }

    /// One seal cycle: write steps until every attribute seals, then the fresh queries.
    fn cycle(&mut self, rec: &mut Recorder, t: &mut Tally) {
        let opened = rec.now();
        for _ in 1..self.steps_per_window() {
            self.between_writes(rec, t);
            self.write_step(false, rec, t);
        }
        self.between_writes(rec, t);
        // The freshness clock starts when the window-closing batches go to the encoder.
        let started = now();
        self.write_step(true, rec, t);
        self.fresh_queries(rec, t);
        t.fresh_ns.push(ns_since(started));
        rec.close_window(opened, rec.now());
    }
}

/// A pool of pre-drawn values served as fixed-size batches, cyclically.
struct Pool(Vec<u64>);

impl Pool {
    fn zipf(domain: u64, batches: usize, seed: u64) -> Self {
        Pool(sut::zipf_values(ZIPF_ALPHA, domain, batches * BATCH, seed))
    }

    fn batch(&self, i: u64) -> &[u64] {
        let n = (self.0.len() / BATCH) as u64;
        let j = (i % n) as usize;
        &self.0[j * BATCH..(j + 1) * BATCH]
    }

    fn values(&self, batches: Range<u64>) -> Vec<u64> {
        batches
            .flat_map(|i| self.batch(i).iter().copied())
            .collect()
    }
}

/// The stream of batches one plain attribute receives.
struct PlainFeed {
    id: usize,
    attr: AttributeId,
    client: PlainClient,
    pool: Pool,
    next: u64,
}

impl PlainFeed {
    fn new(svc: &mut Service, id: usize, name: &str, pool: Pool) -> Result<Self> {
        let attr = svc.register_plain(name, PLAIN_HASH_SEED)?;
        Ok(PlainFeed {
            id,
            attr,
            client: svc.plain_client(attr)?,
            pool,
            next: 0,
        })
    }

    /// Encode and ingest the next batch; returns the rotations it triggered.
    fn write(&mut self, svc: &mut Service, seed: u64, rec: &mut Recorder, t: &mut Tally) -> u64 {
        let values = self.pool.batch(self.next);
        let rng_seed = sut::batch_seed(seed, self.id as u64, self.next);
        self.next += 1;
        let t0 = rec.now();
        let encoded = self.client.encode(values, rng_seed);
        let t1 = rec.now();
        let Some(batch) = t.ok(encoded) else { return 0 };
        let rotations = t.ok(svc.ingest_plain(self.attr, batch)).unwrap_or(0);
        let t2 = rec.now();
        rec.span(Name::Encode, self.id, false, t0, t1);
        rec.span(Name::Ingest, self.id, rotations == 1, t1, t2);
        t.reports += values.len() as u64;
        rotations
    }

    /// The attribute rebuilt from scratch over `batches`.
    fn rebuild(&mut self, seed: u64, batches: Range<u64>, t: &mut Tally) -> FinishedPlain {
        let mut builder = PlainRebuild::new(PLAIN_HASH_SEED);
        for i in batches {
            let rng_seed = sut::batch_seed(seed, self.id as u64, i);
            if let Some(batch) = t.ok(self.client.encode(self.pool.batch(i), rng_seed)) {
                t.ok(builder.absorb(batch));
            }
        }
        builder.finish()
    }
}

/// The stream of batches one plus attribute receives.
struct PlusFeed {
    id: usize,
    attr: AttributeId,
    /// Table A of the join pair (else table B).
    a_side: bool,
    pool: Pool,
    next: u64,
}

impl PlusFeed {
    fn write(
        &mut self,
        svc: &mut Service,
        plus: &PlusSetup,
        seed: u64,
        rec: &mut Recorder,
        t: &mut Tally,
    ) -> u64 {
        let values = self.pool.batch(self.next);
        let start = self.next * BATCH as u64;
        let rng_seed = sut::batch_seed(seed, self.id as u64, self.next);
        self.next += 1;
        let attr = self.attr;
        let (mut t1, mut t2, mut rotations) = (None, None, 0);
        let t0 = rec.now();
        let done = plus.encode(self.a_side, start, values, rng_seed, &mut |batch| {
            t1 = rec.now();
            let ingested = svc.ingest_plus(attr, batch);
            t2 = rec.now();
            rotations = ingested?;
            Ok(())
        });
        let t3 = rec.now();
        t.ok(done);
        rec.span(Name::Encode, self.id, false, t0, t1);
        rec.span(Name::Ingest, self.id, rotations == 1, t1, t2);
        rec.span(Name::Encode, self.id, false, t2, t3);
        t.reports += values.len() as u64;
        rotations
    }

    fn rebuild(
        &self,
        plus: &PlusSetup,
        seed: u64,
        batches: Range<u64>,
        t: &mut Tally,
    ) -> sut::PlusRebuild {
        let mut builder = plus.rebuild();
        for i in batches {
            let rng_seed = sut::batch_seed(seed, self.id as u64, i);
            let start = i * BATCH as u64;
            let absorb = &mut |batch: &PlusReportBatch| builder.absorb(batch);
            t.ok(plus.encode(self.a_side, start, self.pool.batch(i), rng_seed, absorb));
        }
        builder
    }
}

/// Check that a stream stands exactly on a seal with `windows` retained, and return the
/// batch indices those windows cover.
fn covered(
    svc: &Service,
    attr: AttributeId,
    next: u64,
    windows: usize,
    batches_per_window: u64,
    t: &mut Tally,
) -> Range<u64> {
    let held = t.ok(svc.window_count(attr)).unwrap_or(0);
    t.check(held == windows, || {
        format!("ring holds {held} windows, expected {windows}")
    });
    let live = t.ok(svc.live_reports(attr)).unwrap_or(0);
    t.check(live == 0, || format!("{live} reports left unsealed"));
    next.saturating_sub(windows as u64 * batches_per_window)..next
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Verify a plain pair against its from-scratch rebuild over the retained windows.
fn verify_plain_pair(
    svc: &mut Service,
    feeds: [&mut PlainFeed; 2],
    seed: u64,
    shape: (usize, u64),
    t: &mut Tally,
) -> Option<[FinishedPlain; 2]> {
    let [a, b] = feeds;
    let range_a = covered(svc, a.attr, a.next, shape.0, shape.1, t);
    let range_b = covered(svc, b.attr, b.next, shape.0, shape.1, t);
    let ra = a.rebuild(seed, range_a.clone(), t);
    let rb = b.rebuild(seed, range_b.clone(), t);
    for (feed, rebuilt) in [(&*a, &ra), (&*b, &rb)] {
        let served = t.ok(svc.merged_counters(feed.attr)).unwrap_or_default();
        t.check(bits_equal(&served, rebuilt.counters()), || {
            format!(
                "attribute {}: merged counters differ from the rebuild",
                feed.id
            )
        });
    }
    let served = t.ok(svc.join(a.attr, b.attr, WindowRange::All))?;
    let rebuilt = t.ok(ra.join(&rb))?;
    t.check(served.value.to_bits() == rebuilt.to_bits(), || {
        format!("plain join {} != rebuilt {rebuilt}", served.value)
    });
    let exact = sut::exact_join(&a.pool.values(range_a), &b.pool.values(range_b)) as f64;
    t.notes.push(format!(
        "verify plain join(All): served {:.6e} == rebuilt (bit-identical: {}), exact {exact:.6e}, relative error {:.4}",
        served.value,
        served.value.to_bits() == rebuilt.to_bits(),
        (served.value - exact).abs() / exact
    ));
    Some([ra, rb])
}

/// Verify a plus pair against its from-scratch rebuild over the retained windows.
fn verify_plus_pair(
    svc: &mut Service,
    plus: &PlusSetup,
    feeds: [&PlusFeed; 2],
    seed: u64,
    shape: (usize, u64),
    t: &mut Tally,
) -> Option<([FinishedPlus; 2], sut::Answer)> {
    let [a, b] = feeds;
    let range_a = covered(svc, a.attr, a.next, shape.0, shape.1, t);
    let range_b = covered(svc, b.attr, b.next, shape.0, shape.1, t);
    let ra = a.rebuild(plus, seed, range_a.clone(), t);
    let rb = b.rebuild(plus, seed, range_b.clone(), t);
    let served = t.ok(svc.plus_join(a.attr, b.attr, WindowRange::All))?;
    let (rebuilt, fa, fb) = t.ok(plus.join(ra, rb))?;
    t.check(served.value.to_bits() == rebuilt.to_bits(), || {
        format!("plus join {} != rebuilt {rebuilt}", served.value)
    });
    let exact = sut::exact_join(&a.pool.values(range_a), &b.pool.values(range_b)) as f64;
    t.notes.push(format!(
        "verify plus join(All): served {:.6e} == rebuilt (bit-identical: {}), exact {exact:.6e}, relative error {:.4}, {} frequent items",
        served.value,
        served.value.to_bits() == rebuilt.to_bits(),
        (served.value - exact).abs() / exact,
        served.frequent_items,
    ));
    Some(([fa, fb], served))
}

/// The expected frequency estimate of one attribute.
enum Expect<'a> {
    Plain(&'a FinishedPlain),
    Plus(&'a FinishedPlus),
}

impl Expect<'_> {
    fn frequency(&self, value: u64) -> f64 {
        match self {
            Expect::Plain(s) => s.frequency(value),
            Expect::Plus(s) => s.frequency(value),
        }
    }
}

/// Cold frequency lookups over every retained window, timed as one batch of ≥ 1 ms per
/// attribute and compared bit for bit with the rebuilt sketches. Returns ns per lookup.
fn probe_cold_frequencies(
    svc: &mut Service,
    attrs: &[(AttributeId, Expect<'_>)],
    lookups: u64,
    t: &mut Tally,
) -> f64 {
    svc.clear_cache();
    let mut answers = Vec::with_capacity(lookups as usize);
    let mut total_ns = 0.0;
    for (attr, expect) in attrs {
        answers.clear();
        let start = now();
        for v in 0..lookups {
            answers.push(svc.frequency(*attr, v, WindowRange::All));
        }
        total_ns += ns_since(start);
        for (v, answer) in answers.drain(..).enumerate() {
            if let Some(a) = t.ok(answer) {
                let want = expect.frequency(v as u64);
                t.check(!a.cached && a.value.to_bits() == want.to_bits(), || {
                    format!(
                        "frequency({v}) served {} (cached {}), rebuilt {want}",
                        a.value, a.cached
                    )
                });
            }
        }
    }
    total_ns / (lookups as f64 * attrs.len() as f64)
}

/// One join asked once to fill the cache, then repeated as a single timed batch of
/// ≥ 1 ms. Returns ns per cached call.
fn probe_cached(
    svc: &mut Service,
    want: f64,
    reps: usize,
    mut query: impl FnMut(&mut Service) -> Result<sut::Answer>,
    t: &mut Tally,
) -> f64 {
    let _ = t.ok(query(svc));
    let mut mismatches = 0u64;
    let start = now();
    for _ in 0..reps {
        match query(svc) {
            Ok(a) if a.cached && a.value.to_bits() == want.to_bits() => {}
            _ => mismatches += 1,
        }
    }
    let ns = ns_since(start) / reps as f64;
    t.attempted += reps as u64;
    if mismatches > 0 {
        t.failed += mismatches;
        t.errors
            .push(format!("{mismatches} cached joins missed or differed"));
    }
    ns
}

/// Probe the query and telemetry layers after verification: cold frequency lookups
/// against the rebuilt sketches, the cached `All` join `cached` (whose answer is `want`),
/// and scrapes.
fn probe(
    svc: &mut Service,
    opts: &Opts,
    expect: &[(AttributeId, Expect<'_>)],
    want: f64,
    cached: impl FnMut(&mut Service) -> Result<sut::Answer>,
    frequent_items: usize,
    t: &mut Tally,
) -> Probe {
    Probe {
        cold_frequency_ns: probe_cold_frequencies(svc, expect, opts.probe_lookups(), t),
        cached_ns: probe_cached(svc, want, opts.probe_reps(), cached, t),
        scrape_us: probe_scrape(svc, t),
        frequent_items,
    }
}

/// Median of individually timed `metrics_text` scrapes, µs.
fn probe_scrape(svc: &Service, t: &mut Tally) -> f64 {
    let mut us = Vec::new();
    for _ in 0..32 {
        let start = now();
        let bytes = svc.scrape();
        us.push(ns_since(start) / 1e3);
        t.check(bytes > 0, || "empty metrics exposition".into());
    }
    percentile(&us, 0.5).unwrap_or(0.0)
}

/// Record one cold join and check it was not served from the cache.
fn cold_join(rec: &mut Recorder, t: &mut Tally, join: impl FnOnce() -> Result<sut::Answer>) {
    let t0 = rec.now();
    let answer = join();
    let t1 = rec.now();
    rec.span(Name::ColdJoin, 0, false, t0, t1);
    t.queries += 1;
    if let Some(a) = t.ok(answer) {
        t.check(!a.cached, || {
            "a join over a fresh window was served from the cache".into()
        });
    }
}

/// Check that the step rotated exactly when the window was due.
fn check_seal(rotations: u64, closing: bool, t: &mut Tally) {
    t.check(rotations == u64::from(closing), || {
        format!(
            "ingest returned {rotations} rotations where {} was due",
            u64::from(closing)
        )
    });
}

// ---------------------------------------------------------------------------------------

/// Two plain attributes on one hash seed, fed 4096-value batches; one `LastK(4)` join
/// after each seal. Client encoding and per-call ingest dominate.
pub struct PlainIngest {
    svc: Service,
    seed: u64,
    windows: usize,
    batches_per_window: u64,
    feeds: [PlainFeed; 2],
}

impl Workload for PlainIngest {
    fn seals_per_round(opts: &Opts) -> usize {
        if opts.smoke {
            2
        } else {
            16
        }
    }

    const SPANS_PER_SECOND: f64 = 16_000.0;

    fn setup(opts: &Opts) -> Result<Self> {
        let (epoch, windows) = if opts.smoke {
            (16 * 1024, 4)
        } else {
            (64 * 1024, 16)
        };
        let batches_per_window = epoch / BATCH as u64;
        let pool_batches = windows * batches_per_window as usize;
        let mut svc = Service::new(epoch, windows)?;
        let a = PlainFeed::new(
            &mut svc,
            0,
            "orders.user_id",
            Pool::zipf(PLAIN_DOMAIN, pool_batches, opts.seed ^ 0xA),
        )?;
        let b = PlainFeed::new(
            &mut svc,
            1,
            "clicks.user_id",
            Pool::zipf(PLAIN_DOMAIN, pool_batches, opts.seed ^ 0xB),
        )?;
        let mut w = PlainIngest {
            svc,
            seed: opts.seed,
            windows,
            batches_per_window,
            feeds: [a, b],
        };
        w.fill(windows)?;
        Ok(w)
    }

    fn service(&self) -> &Service {
        &self.svc
    }

    fn steps_per_window(&self) -> u64 {
        self.batches_per_window
    }

    fn write_step(&mut self, closing: bool, rec: &mut Recorder, t: &mut Tally) {
        for f in &mut self.feeds {
            let rotations = f.write(&mut self.svc, self.seed, rec, t);
            check_seal(rotations, closing, t);
        }
    }

    fn fresh_queries(&mut self, rec: &mut Recorder, t: &mut Tally) {
        let [a, b] = [self.feeds[0].attr, self.feeds[1].attr];
        let svc = &mut self.svc;
        cold_join(rec, t, || svc.join(a, b, WindowRange::LastK(4)));
    }

    fn verify(&mut self, opts: &Opts, t: &mut Tally) -> Probe {
        let shape = (self.windows, self.batches_per_window);
        let [a, b] = &mut self.feeds;
        let attrs = [a.attr, b.attr];
        let Some([ra, rb]) = verify_plain_pair(&mut self.svc, [a, b], self.seed, shape, t) else {
            return Probe::default();
        };
        let want = t.ok(ra.join(&rb)).unwrap_or(f64::NAN);
        let expect = [
            (attrs[0], Expect::Plain(&ra)),
            (attrs[1], Expect::Plain(&rb)),
        ];
        let join_all = |s: &mut Service| s.join(attrs[0], attrs[1], WindowRange::All);
        probe(&mut self.svc, opts, &expect, want, join_all, 0, t)
    }
}

// ---------------------------------------------------------------------------------------

/// Draw both plus pools and run the phase-1 discovery over them.
fn plus_pair(
    svc: &mut Service,
    seed: u64,
    ids: [usize; 2],
    pool_batches: usize,
) -> Result<(PlusSetup, [PlusFeed; 2])> {
    let pool_a = Pool::zipf(PLUS_DOMAIN, pool_batches, seed ^ 0xC);
    let pool_b = Pool::zipf(PLUS_DOMAIN, pool_batches, seed ^ 0xD);
    let plus = PlusSetup::discover(PLUS_DOMAIN, &pool_a.0, &pool_b.0, seed ^ 0xF1)?;
    let a = svc.register_plus("orders.sku", &plus)?;
    let b = svc.register_plus("returns.sku", &plus)?;
    let feed = |id, attr, a_side, pool| PlusFeed {
        id,
        attr,
        a_side,
        pool,
        next: 0,
    };
    Ok((
        plus,
        [
            feed(ids[0], a, true, pool_a),
            feed(ids[1], b, false, pool_b),
        ],
    ))
}

/// Two plus attributes on the serving plus defaults (adaptive discovery) over a 4096-value
/// domain, 16Ki-report epochs and 32 retained windows; one `All` plus join after each seal.
/// The per-rotation plus span refresh dominates; the plain aggregator is never entered.
pub struct PlusRotate {
    svc: Service,
    seed: u64,
    windows: usize,
    batches_per_window: u64,
    plus: PlusSetup,
    feeds: [PlusFeed; 2],
}

impl Workload for PlusRotate {
    fn seals_per_round(opts: &Opts) -> usize {
        if opts.smoke {
            2
        } else {
            8
        }
    }

    const SPANS_PER_SECOND: f64 = 2_000.0;

    fn setup(opts: &Opts) -> Result<Self> {
        let (epoch, windows) = if opts.smoke {
            (8 * 1024, 4)
        } else {
            (16 * 1024, 32)
        };
        let batches_per_window = epoch / BATCH as u64;
        let mut svc = Service::new(epoch, windows)?;
        let pool_batches = windows * batches_per_window as usize;
        let (plus, feeds) = plus_pair(&mut svc, opts.seed, [0, 1], pool_batches)?;
        let mut w = PlusRotate {
            svc,
            seed: opts.seed,
            windows,
            batches_per_window,
            plus,
            feeds,
        };
        w.fill(windows)?;
        Ok(w)
    }

    fn service(&self) -> &Service {
        &self.svc
    }

    fn steps_per_window(&self) -> u64 {
        self.batches_per_window
    }

    fn write_step(&mut self, closing: bool, rec: &mut Recorder, t: &mut Tally) {
        for f in &mut self.feeds {
            let rotations = f.write(&mut self.svc, &self.plus, self.seed, rec, t);
            check_seal(rotations, closing, t);
        }
    }

    fn fresh_queries(&mut self, rec: &mut Recorder, t: &mut Tally) {
        let [a, b] = [self.feeds[0].attr, self.feeds[1].attr];
        let svc = &mut self.svc;
        cold_join(rec, t, || svc.plus_join(a, b, WindowRange::All));
    }

    fn verify(&mut self, opts: &Opts, t: &mut Tally) -> Probe {
        let shape = (self.windows, self.batches_per_window);
        let [a, b] = &self.feeds;
        let attrs = [a.attr, b.attr];
        let Some(([fa, fb], served)) =
            verify_plus_pair(&mut self.svc, &self.plus, [a, b], self.seed, shape, t)
        else {
            return Probe::default();
        };
        let expect = [(attrs[0], Expect::Plus(&fa)), (attrs[1], Expect::Plus(&fb))];
        let join_all = |s: &mut Service| s.plus_join(attrs[0], attrs[1], WindowRange::All);
        let items = served.frequent_items;
        probe(
            &mut self.svc,
            opts,
            &expect,
            served.value,
            join_all,
            items,
            t,
        )
    }
}

// ---------------------------------------------------------------------------------------

/// Panels between two write steps of the dashboard.
const PANELS_PER_WRITE: usize = 32;
/// Panels between two `metrics_text` scrapes.
const PANELS_PER_SCRAPE: u64 = 64;
/// Hottest values looked up per panel on each of the two frequency attributes.
const HOT_VALUES: u64 = 32;
/// Ad-hoc lookups of random domain values per panel.
const ADHOC_PER_PANEL: usize = 10;
/// Pre-drawn ad-hoc query keys (cycled).
const ADHOC_KEYS: usize = 1 << 16;
const PANEL_RANGES: [WindowRange; 3] =
    [WindowRange::Latest, WindowRange::LastK(4), WindowRange::All];

/// A plain pair and a plus pair in one service with the default configuration, rings
/// filled in set-up, and a closed loop of query panels with a write step to all four
/// attributes every few panels. Queries take most of the wall; every seal invalidates
/// plain and plus answers together.
pub struct Dashboard {
    svc: Service,
    seed: u64,
    windows: usize,
    batches_per_window: u64,
    panels_per_write: usize,
    plain: [PlainFeed; 2],
    plus: PlusSetup,
    plus_feeds: [PlusFeed; 2],
    /// `(attribute slot 0..4, value, range index)` of each ad-hoc lookup.
    adhoc: Vec<(u8, u64, u8)>,
    cursor: usize,
    panels: u64,
}

impl Dashboard {
    fn attr(&self, slot: u8) -> AttributeId {
        match slot {
            0 | 1 => self.plain[usize::from(slot)].attr,
            _ => self.plus_feeds[usize::from(slot - 2)].attr,
        }
    }

    /// The panel's joins: plain and plus over `Latest`, `LastK(4)` and `All`. On a fresh
    /// panel each join is its own cold-join span.
    fn panel_joins(&mut self, fresh: bool, rec: &mut Recorder, t: &mut Tally) {
        let [a, b] = [self.plain[0].attr, self.plain[1].attr];
        let [c, d] = [self.plus_feeds[0].attr, self.plus_feeds[1].attr];
        for range in PANEL_RANGES {
            let svc = &mut self.svc;
            if fresh {
                cold_join(rec, t, || svc.join(a, b, range));
                cold_join(rec, t, || svc.plus_join(c, d, range));
            } else {
                t.ok(svc.join(a, b, range));
                t.ok(svc.plus_join(c, d, range));
                t.queries += 2;
            }
        }
    }

    /// The panel's frequency lookups: the hottest values of one plain and one plus
    /// attribute over `Latest`, then the ad-hoc lookups.
    fn panel_lookups(&mut self, t: &mut Tally) {
        let [a, c] = [self.plain[0].attr, self.plus_feeds[0].attr];
        for v in 0..HOT_VALUES {
            t.ok(self.svc.frequency(a, v, WindowRange::Latest));
            t.ok(self.svc.frequency(c, v, WindowRange::Latest));
        }
        for _ in 0..ADHOC_PER_PANEL {
            let (slot, value, range) = self.adhoc[self.cursor];
            self.cursor = (self.cursor + 1) % self.adhoc.len();
            let attr = self.attr(slot);
            t.ok(self
                .svc
                .frequency(attr, value, PANEL_RANGES[usize::from(range)]));
        }
        t.queries += 2 * HOT_VALUES + ADHOC_PER_PANEL as u64;
    }

    fn panel(&mut self, fresh: bool, rec: &mut Recorder, t: &mut Tally) {
        let t0 = rec.now();
        self.panel_joins(fresh, rec, t);
        let t1 = rec.now();
        self.panel_lookups(t);
        let t2 = rec.now();
        rec.span(Name::Query, 0, false, if fresh { t1 } else { t0 }, t2);
        self.panels += 1;
        if self.panels.is_multiple_of(PANELS_PER_SCRAPE) {
            let t3 = rec.now();
            let bytes = self.svc.scrape();
            let t4 = rec.now();
            rec.span(Name::Scrape, 0, false, t3, t4);
            t.check(bytes > 0, || "empty metrics exposition".into());
        }
    }
}

impl Workload for Dashboard {
    fn seals_per_round(opts: &Opts) -> usize {
        if opts.smoke {
            1
        } else {
            2
        }
    }

    const SPANS_PER_SECOND: f64 = 48_000.0;

    fn setup(opts: &Opts) -> Result<Self> {
        // Smoke sizes keep more than four windows, so `LastK(4)` and `All` stay distinct
        // queries and every join of a fresh panel is cold.
        let (epoch, windows, panels_per_write) = if opts.smoke {
            (16 * 1024, 6, 2)
        } else {
            (64 * 1024, 16, PANELS_PER_WRITE)
        };
        let batches_per_window = epoch / BATCH as u64;
        let pool_batches = (windows * batches_per_window as usize).min(128);
        let mut svc = Service::new(epoch, windows)?;
        let a = PlainFeed::new(
            &mut svc,
            0,
            "orders.user_id",
            Pool::zipf(PLAIN_DOMAIN, pool_batches, opts.seed ^ 0xA),
        )?;
        let b = PlainFeed::new(
            &mut svc,
            1,
            "clicks.user_id",
            Pool::zipf(PLAIN_DOMAIN, pool_batches, opts.seed ^ 0xB),
        )?;
        let (plus, plus_feeds) = plus_pair(&mut svc, opts.seed, [2, 3], pool_batches)?;
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xAD40C);
        let adhoc = (0..ADHOC_KEYS)
            .map(|_| {
                let slot: u8 = rng.gen_range(0..4);
                let domain = if slot < 2 { PLAIN_DOMAIN } else { PLUS_DOMAIN };
                (slot, rng.gen_range(0..domain), rng.gen_range(0..3))
            })
            .collect();
        let mut w = Dashboard {
            svc,
            seed: opts.seed,
            windows,
            batches_per_window,
            panels_per_write,
            plain: [a, b],
            plus,
            plus_feeds,
            adhoc,
            cursor: 0,
            panels: 0,
        };
        w.fill(windows)?;
        Ok(w)
    }

    fn service(&self) -> &Service {
        &self.svc
    }

    fn steps_per_window(&self) -> u64 {
        self.batches_per_window
    }

    fn write_step(&mut self, closing: bool, rec: &mut Recorder, t: &mut Tally) {
        for f in &mut self.plain {
            let rotations = f.write(&mut self.svc, self.seed, rec, t);
            check_seal(rotations, closing, t);
        }
        for f in &mut self.plus_feeds {
            let rotations = f.write(&mut self.svc, &self.plus, self.seed, rec, t);
            check_seal(rotations, closing, t);
        }
    }

    fn between_writes(&mut self, rec: &mut Recorder, t: &mut Tally) {
        for _ in 0..self.panels_per_write {
            self.panel(false, rec, t);
        }
    }

    fn fresh_queries(&mut self, rec: &mut Recorder, t: &mut Tally) {
        self.panel(true, rec, t);
    }

    fn verify(&mut self, opts: &Opts, t: &mut Tally) -> Probe {
        let shape = (self.windows, self.batches_per_window);
        let [a, b] = &mut self.plain;
        let plain_attrs = [a.attr, b.attr];
        let plain = verify_plain_pair(&mut self.svc, [a, b], self.seed, shape, t);
        let [c, d] = &self.plus_feeds;
        let plus_attrs = [c.attr, d.attr];
        let plus = verify_plus_pair(&mut self.svc, &self.plus, [c, d], self.seed, shape, t);
        let (Some([ra, rb]), Some(([fc, fd], served))) = (plain, plus) else {
            return Probe::default();
        };
        let want = t.ok(ra.join(&rb)).unwrap_or(f64::NAN);
        let expect = [
            (plain_attrs[0], Expect::Plain(&ra)),
            (plain_attrs[1], Expect::Plain(&rb)),
            (plus_attrs[0], Expect::Plus(&fc)),
            (plus_attrs[1], Expect::Plus(&fd)),
        ];
        let join_all = |s: &mut Service| s.join(plain_attrs[0], plain_attrs[1], WindowRange::All);
        let items = served.frequent_items;
        probe(&mut self.svc, opts, &expect, want, join_all, items, t)
    }
}
