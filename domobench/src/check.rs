//! Output checkers, computed apart from the program, and their
//! self-test: each checker is fed a correct output (which it must
//! accept) and a deliberately corrupted one (which it must reject).

use domo_query::DelaySketch;
use std::collections::BTreeMap;

/// Slack for a bound against the truth: the LP solver's absolute
/// tolerance (`eps_abs` = 2e-4 ms) with room for its residual.
pub const BOUND_TOL_MS: f64 = 1e-3;

/// The accuracy regime `tests/end_to_end.rs` pins (mean error < 8 ms).
pub const HOP_ERROR_LIMIT_MS: f64 = 8.0;

/// Slack for numbers the sink prints with three decimals and that the
/// checker recomputes from three-decimal hop times.
const PRINT_TOL_MS: f64 = 2e-3;

/// One reconstruction as the sink prints it:
/// `packet n<origin>#<seq> path a-b-c times t0 t1 …`.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub origin: u16,
    pub seq: u32,
    pub path: Vec<u16>,
    pub times: Vec<f64>,
}

/// Parses a `packet …` line.
pub fn parse_event(line: &str) -> Result<Event, String> {
    let bad = || format!("malformed packet line `{line}`");
    let mut it = line.split_whitespace();
    if it.next() != Some("packet") {
        return Err(bad());
    }
    let (origin, seq) = it
        .next()
        .and_then(|pid| pid.strip_prefix('n'))
        .and_then(|pid| pid.split_once('#'))
        .and_then(|(o, s)| Some((o.parse().ok()?, s.parse().ok()?)))
        .ok_or_else(bad)?;
    if it.next() != Some("path") {
        return Err(bad());
    }
    let path = it
        .next()
        .ok_or_else(bad)?
        .split('-')
        .map(|n| n.parse::<u16>().map_err(|_| bad()))
        .collect::<Result<Vec<_>, _>>()?;
    if it.next() != Some("times") {
        return Err(bad());
    }
    let times = it
        .map(|t| t.parse::<f64>().map_err(|_| bad()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Event {
        origin,
        seq,
        path,
        times,
    })
}

/// The per-packet properties every reconstruction must have: one time
/// per path node, the first equal to the generation time and the last
/// equal to the sink arrival (both known exactly), and times that
/// never decrease along the path.
pub fn check_hop_times(
    times: &[f64],
    path_len: usize,
    gen_ms: f64,
    sink_ms: f64,
) -> Result<(), String> {
    check_endpoints(times, path_len, gen_ms, sink_ms)?;
    check_monotone(times)
}

/// One time per path node, with the exactly known endpoints.
pub fn check_endpoints(
    times: &[f64],
    path_len: usize,
    gen_ms: f64,
    sink_ms: f64,
) -> Result<(), String> {
    if times.len() != path_len {
        return Err(format!(
            "{} hop times for a {path_len}-node path",
            times.len()
        ));
    }
    if times.first() != Some(&gen_ms) {
        return Err(format!(
            "first hop {:?} != generation time {gen_ms}",
            times.first()
        ));
    }
    if times.last() != Some(&sink_ms) {
        return Err(format!(
            "last hop {:?} != sink arrival {sink_ms}",
            times.last()
        ));
    }
    Ok(())
}

/// Hop times never decrease along the path.
pub fn check_monotone(times: &[f64]) -> Result<(), String> {
    match times.windows(2).find(|w| !(w[0] <= w[1])) {
        Some(w) => Err(format!("hop times decrease: {} then {}", w[0], w[1])),
        None => Ok(()),
    }
}

/// A bound pair must be ordered.
pub fn check_bound_order(lo: f64, hi: f64) -> Result<(), String> {
    if !(lo <= hi + BOUND_TOL_MS) {
        return Err(format!("bound [{lo}, {hi}] is reversed"));
    }
    Ok(())
}

/// A bound pair must be ordered and contain the simulator's truth.
pub fn check_bound(lo: f64, hi: f64, truth: f64) -> Result<(), String> {
    check_bound_order(lo, hi)?;
    if !(truth >= lo - BOUND_TOL_MS && truth <= hi + BOUND_TOL_MS) {
        return Err(format!(
            "bound [{lo:.4}, {hi:.4}] excludes the truth {truth:.4}"
        ));
    }
    Ok(())
}

/// Checks a `RANGE` reply against the expected reconstructions, keyed
/// by pid (`n<origin>#<seq>`) with the exact line the subscription
/// delivered: the reply must hold exactly those packets, each line
/// identical, and a matching `count` trailer.
pub fn check_range(reply: &[String], expected: &BTreeMap<String, String>) -> Result<(), String> {
    let mut seen = BTreeMap::new();
    let mut count = None;
    for line in reply {
        if let Some(n) = line.strip_prefix("count ") {
            count = Some(
                n.parse::<usize>()
                    .map_err(|_| format!("bad count `{line}`"))?,
            );
            continue;
        }
        let pid = line
            .split_whitespace()
            .nth(1)
            .filter(|_| line.starts_with("packet "))
            .ok_or_else(|| format!("unexpected RANGE line `{line}`"))?;
        if seen.insert(pid.to_string(), line.clone()).is_some() {
            return Err(format!("RANGE returned {pid} twice"));
        }
    }
    if count != Some(seen.len()) {
        return Err(format!("RANGE count {count:?} for {} lines", seen.len()));
    }
    for (pid, line) in expected {
        match seen.get(pid) {
            None => return Err(format!("RANGE is missing {pid}")),
            Some(got) if got != line => {
                return Err(format!("RANGE line for {pid} differs: `{got}` vs `{line}`"))
            }
            Some(_) => {}
        }
    }
    if let Some(extra) = seen.keys().find(|pid| !expected.contains_key(*pid)) {
        return Err(format!("RANGE returned unexpected {extra}"));
    }
    Ok(())
}

/// One `bucket …` line of an `AGG` reply.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AggRow {
    start: i64,
    count: u64,
    mean: f64,
    p50: f64,
    p95: f64,
    p99: f64,
    max: f64,
}

fn parse_agg_row(line: &str) -> Result<AggRow, String> {
    let t: Vec<&str> = line.split_whitespace().collect();
    let keys = ["bucket", "count", "mean", "p50", "p95", "p99", "max"];
    if t.len() != 14 || (0..7).any(|i| t[2 * i] != keys[i]) {
        return Err(format!("malformed AGG line `{line}`"));
    }
    let f = |i: usize| {
        t[2 * i + 1]
            .parse::<f64>()
            .map_err(|_| format!("malformed AGG line `{line}`"))
    };
    Ok(AggRow {
        start: t[1]
            .parse()
            .map_err(|_| format!("malformed AGG line `{line}`"))?,
        count: t[3]
            .parse()
            .map_err(|_| format!("malformed AGG line `{line}`"))?,
        mean: f(2)?,
        p50: f(3)?,
        p95: f(4)?,
        p99: f(5)?,
        max: f(6)?,
    })
}

/// Checks an `AGG` reply against exact per-bucket samples (bucket start
/// ms → sojourns): the same non-empty buckets, exact counts, maxima and
/// means (to print precision), and quantiles within
/// [`DelaySketch::relative_error_bound`] of the exact order statistic
/// under the sketch's rank rule.
pub fn check_agg(reply: &[String], exact: &BTreeMap<i64, Vec<f64>>) -> Result<(), String> {
    let bound = DelaySketch::relative_error_bound();
    let mut rows = Vec::new();
    let mut count = None;
    for line in reply {
        if let Some(n) = line.strip_prefix("count ") {
            count = Some(
                n.parse::<usize>()
                    .map_err(|_| format!("bad count `{line}`"))?,
            );
        } else {
            rows.push(parse_agg_row(line)?);
        }
    }
    if count != Some(rows.len()) {
        return Err(format!("AGG count {count:?} for {} buckets", rows.len()));
    }
    let starts: Vec<i64> = rows.iter().map(|r| r.start).collect();
    let want: Vec<i64> = exact.keys().copied().collect();
    if starts != want {
        return Err(format!("AGG buckets {starts:?}, expected {want:?}"));
    }
    for row in &rows {
        let mut v = exact[&row.start].clone();
        v.sort_by(f64::total_cmp);
        if row.count != v.len() as u64 {
            return Err(format!(
                "AGG bucket {} count {} != {}",
                row.start,
                row.count,
                v.len()
            ));
        }
        let max = v[v.len() - 1];
        if (row.max - max).abs() > PRINT_TOL_MS {
            return Err(format!(
                "AGG bucket {} max {} != {max:.3}",
                row.start, row.max
            ));
        }
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        if (row.mean - mean).abs() > PRINT_TOL_MS {
            return Err(format!(
                "AGG bucket {} mean {} != {mean:.3}",
                row.start, row.mean
            ));
        }
        for (q, got) in [(0.5, row.p50), (0.95, row.p95), (0.99, row.p99)] {
            let want = crate::quantile(&v, q);
            if (got - want).abs() > bound * want.abs() + PRINT_TOL_MS {
                return Err(format!(
                    "AGG bucket {} p{} {got} is off the exact {want:.3} by more than {:.1}%",
                    row.start,
                    q * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    Ok(())
}

/// Formats an `AGG` bucket line the way the sink does.
fn agg_line(start: i64, s: &DelaySketch) -> Option<String> {
    let b = domo_query::AggBucket::from_sketch(start, s)?;
    Some(format!(
        "bucket {} count {} mean {:.3} p50 {:.3} p95 {:.3} p99 {:.3} max {:.3}",
        b.start_ms, b.count, b.mean, b.p50, b.p95, b.p99, b.max
    ))
}

/// Feeds every checker one correct and one corrupted output.
pub fn self_test() -> Result<(), String> {
    let expect = |name: &str, ok: Result<(), String>, bad: Result<(), String>| {
        ok.map_err(|e| format!("{name}: rejected a correct output: {e}"))?;
        match bad {
            Err(_) => Ok(()),
            Ok(()) => Err(format!("{name}: accepted a corrupted output")),
        }
    };

    // A non-monotone hop sequence.
    let good = [100.0, 104.5, 109.25, 120.0];
    let mut swapped = good;
    swapped.swap(1, 2);
    expect(
        "hop times",
        check_hop_times(&good, 4, 100.0, 120.0),
        check_hop_times(&swapped, 4, 100.0, 120.0),
    )?;

    // A bound that excludes the truth.
    expect(
        "bounds",
        check_bound(10.0, 14.0, 12.0),
        check_bound(12.5, 14.0, 12.0),
    )?;
    expect(
        "bound order",
        check_bound_order(10.0, 14.0),
        check_bound_order(14.0, 10.0),
    )?;

    // An AGG quantile that is 10% off.
    let mut samples: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for i in 0..600 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = 2.0 + (x % 40_000) as f64 / 1000.0;
        samples
            .entry(1000 * (i % 3))
            .or_default()
            .push((v * 1000.0).round() / 1000.0);
    }
    let mut lines = Vec::new();
    for (&start, vs) in &samples {
        let mut s = DelaySketch::new();
        vs.iter().for_each(|&v| s.record(v));
        lines.push(agg_line(start, &s).ok_or("empty self-test sketch")?);
    }
    lines.push(format!("count {}", samples.len()));
    let mut off = lines.clone();
    let row = parse_agg_row(&off[1])?;
    off[1] = off[1].replace(
        &format!("p50 {:.3}", row.p50),
        &format!("p50 {:.3}", row.p50 * 1.1),
    );
    expect(
        "AGG",
        check_agg(&lines, &samples),
        check_agg(&off, &samples),
    )?;

    // A RANGE reply missing one packet.
    let expected: BTreeMap<String, String> = (0..5)
        .map(|i| {
            let pid = format!("n{}#{}", 3 + i, 7 * i);
            let line = format!("packet {pid} path {}-2-0 times 1.000 2.500 4.000", 3 + i);
            (pid, line)
        })
        .collect();
    let mut reply: Vec<String> = expected.values().cloned().collect();
    reply.push(format!("count {}", expected.len()));
    let mut short: Vec<String> = expected.values().skip(1).cloned().collect();
    short.push(format!("count {}", expected.len() - 1));
    expect(
        "RANGE",
        check_range(&reply, &expected),
        check_range(&short, &expected),
    )?;

    // Event lines round-trip through the parser the online checks use.
    let e = parse_event("packet n4#12 path 4-1-0 times 10.000 12.345 20.000")?;
    if e.origin != 4 || e.seq != 12 || e.path != [4, 1, 0] || e.times != [10.0, 12.345, 20.0] {
        return Err(format!("event parser misread a line: {e:?}"));
    }
    Ok(())
}
