//! `domobench` — one benchmark for the whole Domo pipeline.
//!
//! ```text
//! domobench --workload offline-400|live-25 --seed N --seconds S
//!           --trace 0|1 --sink-bin PATH
//! ```
//!
//! Each workload simulates its input from `--seed`, runs the program
//! through its public interfaces (`domo-core` in process for
//! `offline-400`, a `domo-sink serve` child over loopback TCP for
//! `live-25`), checks every output against the simulator's
//! ground truth or against properties the method must have, and prints
//! one JSON object as the last line of standard output:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! same work runs again with per-layer instrumentation switched on and
//! the per-layer metrics are printed instead. A failed output check
//! exits with code 1, a usage or setup error with code 2.

// The checks negate comparisons on purpose, so that a NaN fails them.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

mod check;
mod input;
mod json;
mod live;
mod offline;
mod query;
mod sink;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Times each workload repeats its set-up per run; `setup_s` is the
/// median of these.
pub const SETUP_REPEATS: usize = 3;

/// End-to-end metrics, reported by every workload (`--trace 0`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("goodput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("hop_error_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`). A layer that does not run in a
/// workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("view.build_ms", "ms"),
    ("interval.propagate_ms", "ms"),
    ("constraints.build_ms", "ms"),
    ("constraints.rows", "count"),
    ("estimator.packets_per_s", "1/s"),
    ("estimator.solve_s", "s"),
    ("estimator.windows", "count"),
    ("estimator.ladder_fallbacks", "count"),
    ("estimator.window_p50_ms", "ms"),
    ("estimator.window_p99_ms", "ms"),
    ("solver.iterations", "count"),
    ("solver.capped_solves", "count"),
    ("solver.polish_rejected", "count"),
    ("bounds.targets_per_s", "1/s"),
    ("bounds.width_ms", "ms"),
    ("bounds.solve_s", "s"),
    ("bounds.setup_s", "s"),
    ("bounds.lp_solves", "count"),
    ("bounds.unconverged_lps", "count"),
    ("bounds.cut_edges", "count"),
    ("bounds.truth_excluded", "count"),
    ("baseline.equal_split_error_ms", "ms"),
    ("streaming.nonmonotone_packets", "count"),
    ("wire.encode_ms", "ms"),
    ("wire.decode_ms", "ms"),
    ("ingest.handoff_s", "s"),
    ("ingest.stall_max_ms", "ms"),
    ("stage.batch_submit.p50_ms", "ms"),
    ("stage.batch_submit.p99_ms", "ms"),
    ("stage.wal_append.p50_ms", "ms"),
    ("stage.wal_append.p99_ms", "ms"),
    ("store.checkpoints", "count"),
    ("store.wal_bytes", "bytes"),
    ("stage.shard_enqueue.p50_ms", "ms"),
    ("stage.shard_enqueue.p99_ms", "ms"),
    ("stage.shard_dequeue.p50_ms", "ms"),
    ("stage.shard_dequeue.p99_ms", "ms"),
    ("stage.flush.p50_ms", "ms"),
    ("stage.flush.p99_ms", "ms"),
    ("stage.window_solve.p50_ms", "ms"),
    ("stage.window_solve.p99_ms", "ms"),
    ("stage.result_append.p50_ms", "ms"),
    ("stage.result_append.p99_ms", "ms"),
    ("stage.publish.p50_ms", "ms"),
    ("stage.publish.p99_ms", "ms"),
    ("stage.subscriber_send.p50_ms", "ms"),
    ("stage.subscriber_send.p99_ms", "ms"),
    ("store.result_bytes", "bytes"),
    ("query.range.p50_ms", "ms"),
    ("query.range.p99_ms", "ms"),
    ("query.agg_sketch.p50_ms", "ms"),
    ("query.agg_sketch.p99_ms", "ms"),
    ("query.agg_backfills", "count"),
    ("query.packet.p50_ms", "ms"),
    ("query.packet.p99_ms", "ms"),
    ("query.stats.p50_ms", "ms"),
    ("query.stats.p99_ms", "ms"),
    ("traced.goodput_per_s", "1/s"),
    ("traced.latency_p95_ms", "ms"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub sink_bin: Option<PathBuf>,
}

/// What one run measured and whether its outputs were right.
#[derive(Default)]
pub struct Outcome {
    /// Every output check held (for the operations that did not fail).
    pub correct: bool,
    /// Operations attempted: packets sent or reconstructed, bound
    /// targets requested, queries issued.
    pub attempted: u64,
    /// Operations that failed: packets lost, duplicated, shed or
    /// quarantined; bound targets not computed; queries answered `ERR`
    /// or with a reply that failed its check.
    pub failed: u64,
    /// Metric values by name (end-to-end and per-layer alike).
    pub metrics: BTreeMap<&'static str, f64>,
    /// First failed check, for the error message.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Records a metric; the name must be in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Records a failed output check.
    pub fn wrong(&mut self, msg: String) {
        self.correct = false;
        if self.problems.len() < 20 {
            self.problems.push(msg);
        }
    }

    /// Counts failed operations, keeping the first few reasons.
    pub fn fail(&mut self, n: u64, msg: String) {
        if n == 0 {
            return;
        }
        self.failed += n;
        if self.problems.len() < 20 {
            self.problems.push(msg);
        }
    }

    fn to_json(&self, trace: bool) -> String {
        let catalog: &[(&str, &str)] = if trace { PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = catalog
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The exact quantile of `sorted` with the rank rule `r = ⌈q·n⌉` — the
/// rule `domo-query`'s sketch documents its error bound against.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values (the mean of the middle two for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Whether a run that began measuring at `start` has used its time.
pub fn time_up(start: Instant, seconds: u64) -> bool {
    start.elapsed() >= Duration::from_secs(seconds)
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        sink_bin: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => args.trace = num()? != 0,
            "--sink-bin" => args.sink_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let usage = "usage: domobench --workload offline-400|live-25 --seed N \
                 --seconds S --trace 0|1 --sink-bin PATH";
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("domobench: {e}\n{usage}");
            std::process::exit(2);
        }
    };
    // A checker that accepts corrupted output would make every run
    // pass vacuously, so each run first proves its checkers reject it.
    if let Err(e) = check::self_test() {
        eprintln!("domobench: checker self-test failed: {e}");
        std::process::exit(2);
    }
    sink::remove_stale_dirs();
    let result = match args.workload.as_str() {
        "offline-400" => offline::run(&args),
        "live-25" => live::run(&args),
        other => Err(format!("unknown workload `{other}`\n{usage}")),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("domobench: {}: {e}", args.workload);
            std::process::exit(2);
        }
    };
    for p in &outcome.problems {
        eprintln!("domobench: {}: {p}", args.workload);
    }
    eprintln!(
        "domobench: {} seed {}: attempted {} failed {} correct {}",
        args.workload, args.seed, outcome.attempted, outcome.failed, outcome.correct
    );
    println!("{}", outcome.to_json(args.trace));
    if !outcome.correct {
        std::process::exit(1);
    }
}
