//! Span recording around the benchmark's calls into each layer, and the per-layer split
//! computed from the recorded spans.
//!
//! Spans are recorded from outside the library, around its public calls. A span holds a
//! name, start, end and parent; the parent of every layer span is the window span of the
//! seal cycle it ran in. Spans go into a preallocated buffer and are written out after the
//! run. With recording off, `now` returns `None` and nothing is stored, so the untraced run
//! pays one predictable branch per call site.

use std::io::Write;
use std::time::Instant;

use crate::stats::{now, percentile, sum};

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One seal cycle of the workload: the parent of every other span.
    Window,
    /// Client encoding of one batch (`perturb_batch_into` / `stream_plus_reports`).
    Encode,
    /// One ingest call (`ingest_batch` / `ingest_plus`), including any rotation it ran.
    Ingest,
    /// One join answered from a fresh window (a cold query).
    ColdJoin,
    /// A run of consecutive query calls (a dashboard panel, or what is left of it).
    Query,
    /// One `metrics_text` scrape.
    Scrape,
}

impl Name {
    fn as_str(self) -> &'static str {
        match self {
            Name::Window => "window",
            Name::Encode => "client.encode",
            Name::Ingest => "ingest.call",
            Name::ColdJoin => "query.cold_join",
            Name::Query => "query.run",
            Name::Scrape => "telemetry.scrape",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    name: Name,
    /// Workload-local attribute index (ingest and encode spans).
    attr: u8,
    /// The ingest call returned `rotations == 1`.
    rotated: bool,
    /// Index of the parent window span (a window span's own index).
    window: u32,
    start_ns: u64,
    end_ns: u64,
}

/// The span buffer of one run.
pub struct Recorder {
    on: bool,
    origin: Instant,
    window: u32,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Recorder {
            on: false,
            origin: now(),
            window: 0,
            spans: Vec::new(),
        }
    }

    /// A recorder with room for `capacity` spans reserved up front.
    pub fn on(capacity: usize) -> Self {
        Recorder {
            on: true,
            origin: now(),
            window: 0,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// The current time when recording, else `None`.
    #[inline]
    pub fn now(&self) -> Option<Instant> {
        if self.on {
            Some(now())
        } else {
            None
        }
    }

    /// Record a layer span under the current window.
    #[inline]
    pub fn span(
        &mut self,
        name: Name,
        attr: usize,
        rotated: bool,
        start: Option<Instant>,
        end: Option<Instant>,
    ) {
        if let (Some(s), Some(e)) = (start, end) {
            let span = Span {
                name,
                attr: attr as u8,
                rotated,
                window: self.window,
                start_ns: self.offset(s),
                end_ns: self.offset(e),
            };
            self.spans.push(span);
        }
    }

    /// Close the current window span and open the next one.
    pub fn close_window(&mut self, start: Option<Instant>, end: Option<Instant>) {
        self.span(Name::Window, 0, false, start, end);
        self.window += 1;
    }

    fn offset(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// The column names of [`Recorder::write_tsv`].
    pub fn write_tsv_header(out: &mut dyn Write) -> std::io::Result<()> {
        writeln!(out, "pass\tname\twindow\tattr\trotated\tstart_ns\tend_ns")
    }

    /// Write every span as a tab-separated `pass name window attr rotated start_ns end_ns`
    /// line. A layer span's `window` is its parent's index; a window span's is its own.
    pub fn write_tsv(&self, pass: usize, out: &mut dyn Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{pass}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.name.as_str(),
                s.window,
                s.attr,
                u8::from(s.rotated),
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }

    /// Self times and call statistics per layer.
    ///
    /// An ingest call that rotated is split in two: its excess over the median
    /// non-rotating call of the same attribute counts as rotation, the rest as ingest.
    pub fn split(&self) -> LayerSplit {
        let dur = |s: &Span| (s.end_ns - s.start_ns) as f64;
        let of = |name: Name| self.spans.iter().filter(move |s| s.name == name);

        let attrs = self
            .spans
            .iter()
            .map(|s| usize::from(s.attr) + 1)
            .max()
            .unwrap_or(0);
        let mut plain_calls: Vec<Vec<f64>> = vec![Vec::new(); attrs];
        for s in of(Name::Ingest).filter(|s| !s.rotated) {
            plain_calls[usize::from(s.attr)].push(dur(s));
        }
        let medians: Vec<f64> = plain_calls
            .iter()
            .map(|c| percentile(c, 0.5).unwrap_or(0.0))
            .collect();
        let mut rotations = Vec::new();
        let mut ingest_ns = 0.0;
        for s in of(Name::Ingest) {
            if s.rotated {
                let base = medians[usize::from(s.attr)];
                let excess = (dur(s) - base).max(0.0);
                rotations.push(excess);
                ingest_ns += dur(s) - excess;
            } else {
                ingest_ns += dur(s);
            }
        }
        let calls: Vec<f64> = plain_calls.into_iter().flatten().collect();
        let cold: Vec<f64> = of(Name::ColdJoin).map(dur).collect();
        let query_ns = sum(of(Name::Query).map(dur)) + sum(cold.iter().copied());
        LayerSplit {
            client_ns: sum(of(Name::Encode).map(dur)),
            ingest_ns,
            rotate_ns: sum(rotations.iter().copied()),
            query_ns,
            telemetry_ns: sum(of(Name::Scrape).map(dur)),
            ingest_calls_ns: calls,
            rotations_ns: rotations,
            cold_joins_ns: cold,
            spans: self.spans.len(),
        }
    }
}

/// Per-layer totals (self times, ns) and samples of one traced run.
#[derive(Debug, Default)]
pub struct LayerSplit {
    pub client_ns: f64,
    pub ingest_ns: f64,
    pub rotate_ns: f64,
    pub query_ns: f64,
    pub telemetry_ns: f64,
    /// Durations of the ingest calls that did not rotate.
    pub ingest_calls_ns: Vec<f64>,
    /// Rotation share of each ingest call that rotated.
    pub rotations_ns: Vec<f64>,
    /// Durations of the cold joins.
    pub cold_joins_ns: Vec<f64>,
    pub spans: usize,
}

impl LayerSplit {
    /// Add another run's totals and samples to these.
    pub fn merge(&mut self, other: LayerSplit) {
        self.client_ns += other.client_ns;
        self.ingest_ns += other.ingest_ns;
        self.rotate_ns += other.rotate_ns;
        self.query_ns += other.query_ns;
        self.telemetry_ns += other.telemetry_ns;
        self.ingest_calls_ns.extend(other.ingest_calls_ns);
        self.rotations_ns.extend(other.rotations_ns);
        self.cold_joins_ns.extend(other.cold_joins_ns);
        self.spans += other.spans;
    }

    /// Time covered by named layer spans.
    pub fn covered_ns(&self) -> f64 {
        self.client_ns + self.ingest_ns + self.rotate_ns + self.query_ns + self.telemetry_ns
    }
}
