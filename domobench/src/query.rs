//! The read side: a seeded round of `RANGE`, `AGG`, `PACKET` and `STATS`
//! queries over one connection, each reply checked against the
//! generator's trace and the subscribed reconstructions.

use crate::check::{check_agg, check_range};
use crate::live::Delivered;
use crate::{quantile, Outcome};
use domo_sink::QueryClient;
use domo_util::rng::Xoshiro256pp;
use std::collections::BTreeMap;
use std::time::Instant;

const RANGE_MS: i64 = 10_000;
const AGG_MS: i64 = 60_000;
const AGG_BUCKET_MS: i64 = 1_000;

/// One round of the mix: its make-up is fixed, its arguments seeded.
/// Result-log scans (`RANGE`) are the bulk, so the median query does
/// real read work rather than measuring a loopback round trip.
const ROUND: [Kind; 16] = [
    Kind::Range,
    Kind::Range,
    Kind::Range,
    Kind::Range,
    Kind::Range,
    Kind::Range,
    Kind::Range,
    Kind::Range,
    Kind::Range,
    Kind::Range,
    Kind::Agg,
    Kind::Agg,
    Kind::Agg,
    Kind::Packet,
    Kind::Packet,
    Kind::Stats,
];

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Kind {
    Range,
    Agg,
    Packet,
    Stats,
}

impl Kind {
    fn metrics(self) -> (&'static str, &'static str) {
        match self {
            Kind::Range => ("query.range.p50_ms", "query.range.p99_ms"),
            Kind::Agg => ("query.agg_sketch.p50_ms", "query.agg_sketch.p99_ms"),
            Kind::Packet => ("query.packet.p50_ms", "query.packet.p99_ms"),
            Kind::Stats => ("query.stats.p50_ms", "query.stats.p99_ms"),
        }
    }
}

/// What the checks need, derived from the subscribed reconstructions
/// (whose endpoints were already checked against the generator's trace).
pub struct Expect {
    /// `(generation ms, pid, subscribed line)`, by generation time.
    by_gen: Vec<(f64, String, String)>,
    /// Per forwarding node, `(arrival ms, sojourn ms)` samples by time.
    samples: BTreeMap<u16, Vec<(f64, f64)>>,
    /// Every forwarding-hop sample's node, for weighting node choice.
    sample_nodes: Vec<u16>,
    /// `((origin, seq), subscribed line)` of every reconstruction.
    packets: Vec<((u16, u32), String)>,
    /// Windows lie in `[lo_ms, hi_ms)`.
    lo_ms: i64,
    hi_ms: i64,
}

impl Expect {
    /// Derives the expectations from the subscribed reconstructions of
    /// every packet sent; query windows end by `end_ms`.
    pub fn new(delivered: &BTreeMap<(u16, u32), Delivered>, end_ms: f64) -> Result<Self, String> {
        let mut by_gen = Vec::new();
        let mut samples: BTreeMap<u16, Vec<(f64, f64)>> = BTreeMap::new();
        let mut sample_nodes = Vec::new();
        for ((origin, seq), d) in delivered {
            let pid = format!("n{origin}#{seq}");
            by_gen.push((d.event.times[0], pid, d.line.clone()));
            let n = d.event.path.len();
            for i in 0..n - 1 {
                let w = (d.event.times[i], d.event.times[i + 1]);
                samples
                    .entry(d.event.path[i])
                    .or_default()
                    .push((w.0, (w.1 - w.0).max(0.0)));
                sample_nodes.push(d.event.path[i]);
            }
        }
        by_gen.sort_by(|a, b| a.0.total_cmp(&b.0));
        for s in samples.values_mut() {
            s.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        let lo_ms = by_gen.first().map_or(0.0, |g| g.0).ceil() as i64;
        let hi_ms = end_ms.floor() as i64;
        if hi_ms - lo_ms < AGG_MS + AGG_BUCKET_MS {
            return Err(format!(
                "reconstructions span too little time: [{lo_ms}, {hi_ms}) ms"
            ));
        }
        Ok(Self {
            by_gen,
            samples,
            sample_nodes,
            packets: delivered
                .iter()
                .map(|(k, d)| (*k, d.line.clone()))
                .collect(),
            lo_ms,
            hi_ms,
        })
    }

    fn range(&self, lo: i64, hi: i64) -> BTreeMap<String, String> {
        let start = self.by_gen.partition_point(|g| g.0 < lo as f64);
        self.by_gen[start..]
            .iter()
            .take_while(|g| g.0 <= hi as f64)
            .map(|g| (g.1.clone(), g.2.clone()))
            .collect()
    }

    /// Exact per-bucket sojourns of `node` over `[start, end)`, or `None`
    /// when a sample lies so close to a bucket edge that the reply's
    /// three-decimal times cannot say which side it is on.
    fn agg(&self, node: u16, start: i64, end: i64) -> Option<BTreeMap<i64, Vec<f64>>> {
        let s = self.samples.get(&node)?;
        let first = s.partition_point(|x| x.0 < start as f64 - 1.0);
        let mut out: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
        for &(t, d) in s[first..].iter().take_while(|x| x.0 < end as f64 + 1.0) {
            let edge = (t / AGG_BUCKET_MS as f64).round() * AGG_BUCKET_MS as f64;
            if (t - edge).abs() <= 5e-4 {
                return None;
            }
            if t >= start as f64 && t < end as f64 {
                let b = (t / AGG_BUCKET_MS as f64).floor() as i64 * AGG_BUCKET_MS;
                out.entry(b).or_default().push(d);
            }
        }
        Some(out)
    }
}

/// One query with the reply it must get.
struct Query {
    kind: Kind,
    command: String,
    check: Check,
}

enum Check {
    Range(BTreeMap<String, String>),
    Agg(BTreeMap<i64, Vec<f64>>),
    Packet(String),
    Stats,
}

fn plan_round(rng: &mut Xoshiro256pp, e: &Expect) -> Result<Vec<Query>, String> {
    let mut kinds = ROUND;
    rng.shuffle(&mut kinds);
    let mut round = Vec::new();
    for kind in kinds {
        let q = match kind {
            Kind::Range => {
                let lo = e.lo_ms + rng.range_u64(0..(e.hi_ms - e.lo_ms - RANGE_MS) as u64) as i64;
                let hi = lo + RANGE_MS;
                Query {
                    kind,
                    command: format!("RANGE {lo} {hi}"),
                    check: Check::Range(e.range(lo, hi)),
                }
            }
            Kind::Agg => {
                let mut attempt = 0;
                loop {
                    let node = e.sample_nodes[rng.range_usize(0..e.sample_nodes.len())];
                    let span = (e.hi_ms - e.lo_ms - AGG_MS) / AGG_BUCKET_MS;
                    let start =
                        (e.lo_ms / AGG_BUCKET_MS + 1 + rng.range_u64(0..span as u64) as i64)
                            * AGG_BUCKET_MS;
                    let end = start + AGG_MS;
                    if let Some(exact) = e.agg(node, start, end).filter(|x| !x.is_empty()) {
                        break Query {
                            kind,
                            command: format!("AGG {node} {start} {end} {AGG_BUCKET_MS}"),
                            check: Check::Agg(exact),
                        };
                    }
                    attempt += 1;
                    if attempt > 100 {
                        return Err("no AGG window without samples on a bucket edge".into());
                    }
                }
            }
            Kind::Packet => {
                let ((origin, seq), line) = e.packets[rng.range_usize(0..e.packets.len())].clone();
                Query {
                    kind,
                    command: format!("PACKET {origin} {seq}"),
                    check: Check::Packet(line),
                }
            }
            Kind::Stats => Query {
                kind,
                command: "STATS".into(),
                check: Check::Stats,
            },
        };
        round.push(q);
    }
    Ok(round)
}

/// Checks one reply. `STATS` must show exactly `sent` packets ingested
/// and emitted, and exactly `looped` quarantined.
fn check_reply(q: &Query, reply: &[String], sent: u64, looped: u64) -> Result<(), String> {
    if let Some(err) = reply.iter().find(|l| l.starts_with("ERR")) {
        return Err(format!("`{}` answered `{err}`", q.command));
    }
    match &q.check {
        Check::Range(expected) => check_range(reply, expected),
        Check::Agg(exact) => check_agg(reply, exact),
        Check::Packet(line) => match reply {
            [got] if got == line => Ok(()),
            _ => Err(format!(
                "`{}` answered {reply:?}, subscribed `{line}`",
                q.command
            )),
        },
        Check::Stats => {
            let get = |k: &str| {
                reply
                    .iter()
                    .find_map(|l| l.strip_prefix(k)?.strip_prefix(' ')?.parse::<u64>().ok())
                    .ok_or_else(|| format!("STATS has no `{k}`"))
            };
            let (ingested, emitted) = (get("ingested")?, get("emitted")?);
            if ingested != sent || emitted != sent {
                return Err(format!(
                    "STATS ingested {ingested} emitted {emitted} after {sent} packets were drained"
                ));
            }
            if get("quarantined")? != looped {
                return Err(format!(
                    "STATS quarantined {} after {looped} packets with looped paths were sent",
                    get("quarantined")?
                ));
            }
            for k in [
                "backpressure_dropped",
                "estimator_errors",
                "watchdog_dropped",
            ] {
                if get(k)? != 0 {
                    return Err(format!("STATS {k} {}", get(k)?));
                }
            }
            if !reply.iter().any(|l| l == "health healthy") {
                return Err(format!("STATS health is not healthy: {reply:?}"));
            }
            Ok(())
        }
    }
}

/// Query latencies by kind, across rounds.
#[derive(Default)]
pub struct Latencies(BTreeMap<Kind, Vec<f64>>);

impl Latencies {
    /// Records `query.<kind>.p50_ms` and `.p99_ms`.
    pub fn report(mut self, out: &mut Outcome) {
        for (kind, v) in &mut self.0 {
            v.sort_by(f64::total_cmp);
            let (p50, p99) = kind.metrics();
            out.set(p50, quantile(v, 0.5));
            out.set(p99, quantile(v, 0.99));
        }
    }
}

/// Runs one seeded round of queries against a drained sink that
/// ingested `sent` packets and quarantined `looped`, counting every
/// `ERR` or wrong reply as a failed operation.
pub fn run_round(
    q: &mut QueryClient,
    seed: u64,
    expect: &Expect,
    sent: u64,
    looped: u64,
    lat: &mut Latencies,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x51_7e_a7);
    for query in plan_round(&mut rng, expect)? {
        let t = Instant::now();
        let reply = q
            .request(&query.command)
            .map_err(|e| format!("{}: {e}", query.command))?;
        lat.0
            .entry(query.kind)
            .or_default()
            .push(crate::ms_since(t));
        out.attempted += 1;
        if let Err(e) = check_reply(&query, &reply, sent, looped) {
            out.fail(1, e);
        }
    }
    Ok(())
}
