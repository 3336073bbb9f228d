//! The service benchmark: runs one named workload from a seed, prints every metric with its
//! unit, checks the answers, and ends with one JSON result line.
//!
//! ```text
//! perfbench --workload <plain_ingest|plus_rotate|dashboard> [--seed N] [--seconds S]
//!           [--trace 0|1] [--trace-out PATH] [--smoke]
//! ```
//!
//! A run is three independent passes; each sets up the workload afresh, runs whole rounds
//! of seal cycles for its share of `--seconds`, and verifies every answer against a
//! from-scratch rebuild. `--trace 0` prints the end-to-end metrics of untraced passes.
//! `--trace 1` alternates untraced and traced passes of the same workload and seed in the
//! same total time, writes the spans out, and prints the per-layer metrics. The exit code
//! is non-zero when any operation failed or any answer differed from its rebuild.

mod stats;
mod sut;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::{
    metric, now, ns_since, percentile, percentile_is_supported, proc_mib, result_line, Metric,
};
use trace::{LayerSplit, Recorder};
use workloads::{Dashboard, Opts, PlainIngest, PlusRotate, Probe, Tally, Workload};

/// The workload seed when none is given.
const DEFAULT_SEED: u64 = 20_240_517;
/// Independent passes per run. Each sets up afresh, measures `seconds / PASSES` and
/// verifies. Every end-to-end metric is the median of the passes' values, so one pass that
/// hit a noisy stretch of the host does not move it.
const PASSES: usize = 3;
/// Fresh windows each pass waits for, so its p90 freshness has ten samples beyond it.
const MIN_FRESH_SAMPLES: usize = 100;

const USAGE: &str = "usage: perfbench --workload <plain_ingest|plus_rotate|dashboard> \
[--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH] [--smoke]";

struct Args {
    workload: String,
    opts: Opts,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        smoke: false,
    };
    let (mut trace, mut trace_out) = (false, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        opts,
        trace,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "plain_ingest" => bench::<PlainIngest>(&args),
        "plus_rotate" => bench::<PlusRotate>(&args),
        "dashboard" => bench::<Dashboard>(&args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One measured pass over a freshly set-up workload.
struct Pass {
    tally: Tally,
    setup_s: f64,
    setup_rss_mb: f64,
    end_rss_mb: f64,
    wall_ns: f64,
    fwht_calls: u64,
    cache: sut::CacheCounters,
    probe: Probe,
    recorder: Recorder,
}

impl Pass {
    /// Median over this pass's rounds of a per-round rate (`pick` selects the count).
    fn round_rate(&self, pick: fn(&(f64, u64, u64)) -> u64) -> f64 {
        let rates: Vec<f64> = self
            .tally
            .rounds
            .iter()
            .map(|r| pick(r) as f64 / (r.0 / 1e9))
            .collect();
        percentile(&rates, 0.5).unwrap_or(0.0)
    }

    fn reports_per_s(&self) -> f64 {
        self.round_rate(|r| r.1)
    }

    fn queries_per_s(&self) -> f64 {
        self.round_rate(|r| r.2)
    }

    /// The `q`-quantile of this pass's window freshness, ms.
    fn fresh_ms(&self, q: f64) -> f64 {
        percentile(&self.tally.fresh_ns, q).unwrap_or(0.0) / 1e6
    }
}

/// Median over `passes` of a per-pass value.
fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    let values: Vec<f64> = passes.iter().map(f).collect();
    percentile(&values, 0.5).unwrap_or(0.0)
}

/// Set up, run whole rounds until `seconds` have passed and `min_fresh` windows sealed,
/// then verify.
fn run<W: Workload>(
    opts: &Opts,
    seconds: f64,
    min_fresh: usize,
    recorder: Recorder,
) -> Result<Pass, sut::Error> {
    let started = now();
    let mut w = W::setup(opts)?;
    let setup_s = ns_since(started) / 1e9;
    let setup_rss_mb = proc_mib("VmRSS");
    let mut rec = recorder;
    let mut tally = Tally::default();
    let cache0 = w.service().cache();
    let fwht0 = sut::fwht_calls();
    let loop_started = now();
    while tally.rounds.is_empty()
        || ns_since(loop_started) / 1e9 < seconds
        || tally.fresh_ns.len() < min_fresh
    {
        let (reports, queries) = (tally.reports, tally.queries);
        let round = now();
        for _ in 0..W::seals_per_round(opts) {
            w.cycle(&mut rec, &mut tally);
        }
        let wall = ns_since(round);
        tally
            .rounds
            .push((wall, tally.reports - reports, tally.queries - queries));
    }
    let wall_ns = tally.rounds.iter().map(|r| r.0).sum();
    let fwht_calls = sut::fwht_calls() - fwht0;
    let cache1 = w.service().cache();
    let end_rss_mb = proc_mib("VmRSS");
    let probe = w.verify(opts, &mut tally);
    Ok(Pass {
        tally,
        setup_s,
        setup_rss_mb,
        end_rss_mb,
        wall_ns,
        fwht_calls,
        cache: sut::CacheCounters {
            hits: cache1.hits - cache0.hits,
            misses: cache1.misses - cache0.misses,
            evictions: cache1.evictions - cache0.evictions,
        },
        probe,
        recorder: rec,
    })
}

fn bench<W: Workload>(args: &Args) -> Result<bool, sut::Error> {
    let opts = &args.opts;
    println!(
        "workload {} seed {} seconds {} in {PASSES} passes{}",
        args.workload,
        opts.seed,
        opts.seconds,
        if opts.smoke { " (smoke sizes)" } else { "" }
    );
    // A traced run alternates untraced and traced passes in the same total time.
    let seconds = opts.seconds / (PASSES * if args.trace { 2 } else { 1 }) as f64;
    let min_fresh = if opts.smoke { 1 } else { MIN_FRESH_SAMPLES };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..PASSES {
        untraced.push(run::<W>(opts, seconds, min_fresh, Recorder::off())?);
        if args.trace {
            let rec = Recorder::on((1.5 * W::SPANS_PER_SECOND * (seconds + 1.0)) as usize);
            traced.push(run::<W>(opts, seconds, min_fresh, rec)?);
        }
    }
    let metrics = if args.trace {
        write_spans(args, &traced);
        per_layer(&untraced, &traced)
    } else {
        end_to_end(&untraced)
    };
    println!("host {}", host_block());
    let (mut attempted, mut failed) = (0, 0);
    for (i, p) in untraced.iter().chain(&traced).enumerate() {
        // Every pass checks its own ring; the first pass's summary stands for the rest,
        // and failures of every pass are listed.
        if i == 0 {
            for note in &p.tally.notes {
                println!("{note}");
            }
        }
        for e in &p.tally.errors {
            println!("FAILED: {e}");
        }
        attempted += p.tally.attempted;
        failed += p.tally.failed;
    }
    for m in &metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = failed == 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn end_to_end(passes: &[Pass]) -> Vec<Metric> {
    for (i, p) in passes.iter().enumerate() {
        let fresh = p.tally.fresh_ns.len();
        println!(
            "pass {i}: {} rounds, {fresh} fresh windows (p90 supported: {})",
            p.tally.rounds.len(),
            percentile_is_supported(fresh, 0.9)
        );
    }
    vec![
        metric("setup_s", "s", median_of(passes, |p| p.setup_s)),
        metric(
            "reports_per_s",
            "reports/s",
            median_of(passes, Pass::reports_per_s),
        ),
        metric(
            "queries_per_s",
            "queries/s",
            median_of(passes, Pass::queries_per_s),
        ),
        metric("fresh_p50_ms", "ms", median_of(passes, |p| p.fresh_ms(0.5))),
        metric("fresh_p90_ms", "ms", median_of(passes, |p| p.fresh_ms(0.9))),
        metric("peak_rss_mb", "MiB", proc_mib("VmHWM")),
    ]
}

fn per_layer(untraced: &[Pass], traced: &[Pass]) -> Vec<Metric> {
    let mut split = LayerSplit::default();
    for p in traced {
        split.merge(p.recorder.split());
    }
    let total = |f: fn(&Pass) -> f64| traced.iter().map(f).sum::<f64>();
    let wall = total(|p| p.wall_ns);
    let windows = total(|p| p.tally.fresh_ns.len() as f64);
    let reports = total(|p| p.tally.reports as f64);
    let hits = total(|p| p.cache.hits as f64);
    let lookups = hits + total(|p| p.cache.misses as f64);
    let share = |ns: f64| 100.0 * ns / wall;
    let us = |ns: Option<f64>| ns.unwrap_or(0.0) / 1e3;
    let ms = |ns: Option<f64>| ns.unwrap_or(0.0) / 1e6;
    println!(
        "trace: {} spans, {windows} windows, {} ingest calls, {} rotations, {} cold joins",
        split.spans,
        split.ingest_calls_ns.len() + split.rotations_ns.len(),
        split.rotations_ns.len(),
        split.cold_joins_ns.len()
    );
    let first = &untraced[0];
    vec![
        metric("client.ns_per_report", "ns", split.client_ns / reports),
        metric("client.share", "%", share(split.client_ns)),
        metric(
            "ingest.call_p50_us",
            "us",
            us(percentile(&split.ingest_calls_ns, 0.5)),
        ),
        metric(
            "ingest.call_p90_us",
            "us",
            us(percentile(&split.ingest_calls_ns, 0.9)),
        ),
        metric("ingest.ns_per_report", "ns", split.ingest_ns / reports),
        metric("ingest.share", "%", share(split.ingest_ns)),
        metric(
            "rotate.p50_ms",
            "ms",
            ms(percentile(&split.rotations_ns, 0.5)),
        ),
        metric(
            "rotate.p90_ms",
            "ms",
            ms(percentile(&split.rotations_ns, 0.9)),
        ),
        metric("rotate.share", "%", share(split.rotate_ns)),
        metric("rotate.count", "count", split.rotations_ns.len() as f64),
        metric(
            "query.cold_join_p50_us",
            "us",
            us(percentile(&split.cold_joins_ns, 0.5)),
        ),
        metric(
            "query.cold_frequency_ns",
            "ns",
            median_of(traced, |p| p.probe.cold_frequency_ns),
        ),
        metric(
            "query.cached_ns",
            "ns",
            median_of(traced, |p| p.probe.cached_ns),
        ),
        metric("query.share", "%", share(split.query_ns)),
        metric("cache.hit_ratio", "ratio", hits / lookups.max(1.0)),
        metric(
            "cache.evictions_per_window",
            "count",
            total(|p| p.cache.evictions as f64) / windows,
        ),
        metric(
            "telemetry.scrape_us",
            "us",
            median_of(traced, |p| p.probe.scrape_us),
        ),
        metric("telemetry.share", "%", share(split.telemetry_ns)),
        metric(
            "dispatch.fwht_per_window",
            "count",
            total(|p| p.fwht_calls as f64) / windows,
        ),
        metric("mem.setup_rss_mb", "MiB", first.setup_rss_mb),
        metric(
            "mem.steady_growth_mb",
            "MiB",
            first.end_rss_mb - first.setup_rss_mb,
        ),
        metric("trace.coverage", "%", share(split.covered_ns())),
        metric(
            "trace.overhead_pct",
            "%",
            100.0
                * (median_of(untraced, Pass::reports_per_s)
                    / median_of(traced, Pass::reports_per_s)
                    - 1.0),
        ),
        metric(
            "plus.frequent_items",
            "count",
            median_of(traced, |p| p.probe.frequent_items as f64),
        ),
    ]
}

/// Write the traced passes' spans as TSV: to `--trace-out`, else beside the executable.
fn write_spans(args: &Args, passes: &[Pass]) {
    let path = args.trace_out.clone().unwrap_or_else(|| {
        let dir = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("traces")))
            .unwrap_or_else(|| PathBuf::from("."));
        dir.join(format!("{}-seed{}.tsv", args.workload, args.opts.seed))
    });
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            Recorder::write_tsv_header(&mut out)?;
            for (i, p) in passes.iter().enumerate() {
                p.recorder.write_tsv(i, &mut out)?;
            }
            std::io::Write::flush(&mut out)
        });
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

/// The host the numbers were measured on, as one JSON object.
fn host_block() -> String {
    let nproc = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:").map(cpu_list_len))
        })
        .unwrap_or(0);
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"available_parallelism\": {parallelism}, \"simd\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\"}}",
        sut::simd_tiers(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    )
}

/// Number of CPUs in a list such as `0-3,8,10-11`.
fn cpu_list_len(list: &str) -> usize {
    list.trim()
        .split(',')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('-') {
            Some((lo, hi)) => {
                let (lo, hi) = (lo.parse().unwrap_or(0), hi.parse().unwrap_or(0));
                usize::saturating_sub(hi, lo) + 1
            }
            None => 1,
        })
        .sum()
}
