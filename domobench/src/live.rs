//! `live-25`: a dense 25-node trace handed unpaced over one ingest
//! connection to a durable `serve` child, every result timed on a
//! `SUBSCRIBE` connection.

use crate::check::{check_endpoints, check_monotone, parse_event, Event, HOP_ERROR_LIMIT_MS};
use crate::input::{self, Input};
use crate::query;
use crate::sink::{self, SinkChild, Subscriber};
use crate::{median, quantile, time_up, Args, Outcome, SETUP_REPEATS};
use domo_net::{CollectedPacket, NodeId, PacketId};
use domo_sink::{encode_packets, QueryClient};
use domo_util::time::SimTime;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::net::TcpStream;
use std::path::Path;
use std::time::Instant;

/// Networks of `NODES` nodes feeding the sink, each simulated for
/// `TRACE_SECS`: ~11K packets per round.
const CLUSTERS: u16 = 16;
const NODES: u16 = 25;
const TRACE_SECS: u64 = 145;
/// Bytes per socket write of the ingest stream.
const CHUNK: usize = 64 * 1024;
/// Every packet is traced in the `--trace 1` child, one in this many.
const TRACE_SAMPLE: u32 = 4;

/// A reconstruction as the subscription delivered it.
pub struct Delivered {
    pub at: Instant,
    pub line: String,
    pub event: Event,
}

/// Checks delivered reconstructions against the sent packets: every
/// distinct sent pid reconstructed exactly once (lost and duplicated
/// ones count as failed operations), on the sent path, with exact
/// endpoints. Returns the reconstructions by `(origin, seq)` and their
/// mean per-hop error against the truth.
///
/// Packets whose path visits a node twice (`looped`) are left out: the
/// simulator's routing makes such a path now and then, and the sink's
/// sanitizer quarantines it by design, which the `STATS` check holds it
/// to.
///
/// Reconstructions whose hop times decrease are counted in
/// `streaming.nonmonotone_packets` rather than failing the run: the
/// sink produces them on some seeds only (see the README), and a check
/// that fails on some seeds cannot gate a benchmark.
fn verify(
    sent: &[CollectedPacket],
    looped: &HashSet<PacketId>,
    truth: &HashMap<PacketId, Vec<SimTime>>,
    events: Vec<(Instant, String)>,
    out: &mut Outcome,
) -> (BTreeMap<(u16, u32), Delivered>, f64) {
    let mut by_pid: BTreeMap<(u16, u32), &CollectedPacket> = BTreeMap::new();
    for p in sent.iter().filter(|p| !looped.contains(&p.pid)) {
        by_pid
            .entry((p.pid.origin.index() as u16, p.pid.seq))
            .or_insert(p);
    }
    out.attempted += by_pid.len() as u64;
    let mut got: BTreeMap<(u16, u32), Delivered> = BTreeMap::new();
    let mut dups = 0;
    for (at, line) in events {
        let event = match parse_event(&line) {
            Ok(e) => e,
            Err(e) => {
                out.wrong(e);
                continue;
            }
        };
        let key = (event.origin, event.seq);
        if looped.contains(&PacketId::new(NodeId::new(event.origin), event.seq)) {
            continue;
        }
        if !by_pid.contains_key(&key) {
            out.wrong(format!("reconstruction of a packet never sent: `{line}`"));
            continue;
        }
        match got.entry(key) {
            std::collections::btree_map::Entry::Occupied(_) => dups += 1,
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(Delivered { at, line, event });
            }
        }
    }
    let lost = by_pid.keys().filter(|k| !got.contains_key(k)).count() as u64;
    for (_, p) in by_pid.iter().filter(|(k, _)| !got.contains_key(k)).take(5) {
        let verdict = domo_core::check_packet(p, &domo_core::SanitizeConfig::default());
        eprintln!(
            "domobench: {} lost (path {:?}, gen {:?}, sink {:?}): sanitizer says {verdict:?}",
            p.pid, p.path, p.gen_time, p.sink_arrival
        );
    }
    out.fail(lost, format!("{lost} packets were never reconstructed"));
    out.fail(dups, format!("{dups} packets were reconstructed twice"));

    let (mut err_sum, mut hops, mut nonmonotone) = (0.0, 0usize, 0usize);
    for (key, d) in &got {
        let p = by_pid[key];
        let path: Vec<u16> = p.path.iter().map(|n| n.index() as u16).collect();
        if d.event.path != path {
            out.wrong(format!(
                "{} came back on path {:?}, sent {path:?}",
                p.pid, d.event.path
            ));
            continue;
        }
        let (gen, sink) = (p.gen_time.as_millis_f64(), p.sink_arrival.as_millis_f64());
        if let Err(e) = check_endpoints(&d.event.times, path.len(), gen, sink) {
            out.wrong(format!("{}: {e}", p.pid));
            continue;
        }
        if let Err(e) = check_monotone(&d.event.times) {
            eprintln!("domobench: {}: {e}", p.pid);
            nonmonotone += 1;
        }
        let Some(truth) = truth.get(&p.pid) else {
            out.wrong(format!("no ground truth for {}", p.pid));
            continue;
        };
        for (t, tr) in d
            .event
            .times
            .iter()
            .zip(truth)
            .skip(1)
            .take(path.len().saturating_sub(2))
        {
            err_sum += (t - tr.as_millis_f64()).abs();
            hops += 1;
        }
    }
    out.set("streaming.nonmonotone_packets", nonmonotone as f64);
    let hop_error = err_sum / hops.max(1) as f64;
    if !(hop_error < HOP_ERROR_LIMIT_MS) {
        out.wrong(format!(
            "mean hop error {hop_error:.3} ms breaks the {HOP_ERROR_LIMIT_MS} ms regime"
        ));
    }
    (got, hop_error)
}

/// Distinct packet ids in a trace: what the sink accepts.
fn distinct(packets: &[CollectedPacket]) -> usize {
    packets.iter().map(|p| p.pid).collect::<HashSet<_>>().len()
}

/// Packets whose path visits some node twice.
fn looped(packets: &[CollectedPacket]) -> HashSet<PacketId> {
    packets
        .iter()
        .filter(|p| p.path.iter().collect::<HashSet<_>>().len() != p.path.len())
        .map(|p| p.pid)
        .collect()
}

/// What handing a trace to the sink measured.
struct Handoff {
    /// When the first frame was written.
    start: Instant,
    /// Seconds until the sink had accepted every packet.
    handoff_s: f64,
    /// Longest single socket write.
    stall_max_ms: f64,
    /// Every reconstruction the subscription delivered.
    events: Vec<(Instant, String)>,
    /// The query connection, still open.
    query: QueryClient,
}

/// Writes `frames` unpaced over one ingest connection, waits until the
/// sink has accepted all `distinct` packets (DRAIN covers only records
/// already accepted), drains, and collects the subscription.
fn hand_over(
    child: &SinkChild,
    sub: Subscriber,
    frames: &[u8],
    distinct: usize,
) -> Result<Handoff, String> {
    let start = Instant::now();
    let mut ingest =
        TcpStream::connect(&child.ingest).map_err(|e| format!("ingest connect: {e}"))?;
    let mut stall_max_ms: f64 = 0.0;
    for chunk in frames.chunks(CHUNK) {
        let t = Instant::now();
        ingest
            .write_all(chunk)
            .map_err(|e| format!("ingest write: {e}"))?;
        stall_max_ms = stall_max_ms.max(crate::ms_since(t));
    }
    drop(ingest);
    let mut query =
        QueryClient::connect(&child.query).map_err(|e| format!("query connect: {e}"))?;
    let st = sink::wait_ingested(&mut query, distinct as u64)?;
    let handoff_s = start.elapsed().as_secs_f64();
    for key in [
        "quarantined",
        "backpressure_dropped",
        "estimator_errors",
        "watchdog_dropped",
    ] {
        if let Some(&n) = st.get(key).filter(|&&n| n > 0) {
            eprintln!("domobench: STATS {key} {n}");
        }
    }
    sink::request(&mut query, "DRAIN")?;
    let emitted = sink::stats(&mut query)?
        .get("emitted")
        .copied()
        .unwrap_or(0) as usize;
    let events = sub.finish(emitted.max(distinct))?;
    Ok(Handoff {
        start,
        handoff_s,
        stall_max_ms,
        events,
        query,
    })
}

/// The trace and its encoded frames, plus a listening child and an
/// open subscription.
struct Prepared {
    trace: Input,
    frames: Vec<u8>,
    encode_ms: f64,
    child: SinkChild,
    sub: Subscriber,
}

fn prepare(bin: &Path, seed: u64, traced: bool) -> Result<Prepared, String> {
    let trace = input::clusters(seed, CLUSTERS, NODES, TRACE_SECS);
    let t = Instant::now();
    let frames = encode_packets(&trace.packets).map_err(|e| format!("encode: {e}"))?;
    let encode_ms = crate::ms_since(t);
    // The queue holds the whole trace, so nothing is shed.
    let child = SinkChild::spawn(
        bin,
        trace.packets.len() + 1024,
        traced.then_some(TRACE_SAMPLE),
    )?;
    let sub = Subscriber::connect(&child.query)?;
    Ok(Prepared {
        trace,
        frames,
        encode_ms,
        child,
        sub,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bin = args.sink_bin.as_deref().ok_or("--sink-bin is required")?;
    let mut out = Outcome::new();
    let (mut setups, mut goodputs, mut p50s, mut p95s, mut errors, mut rss) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let mut queries = query::Latencies::default();
    let start = Instant::now();
    for round in 0.. {
        if round >= SETUP_REPEATS as u64 && time_up(start, args.seconds) {
            break;
        }
        let t = Instant::now();
        let p = prepare(bin, input::round_seed(args.seed, round), args.trace)?;
        setups.push(t.elapsed().as_secs_f64());

        let sent = distinct(&p.trace.packets);
        let looped = looped(&p.trace.packets);
        if !looped.is_empty() {
            eprintln!(
                "live-25: round {round}: left out {} packets with looped paths",
                looped.len()
            );
        }
        let h = hand_over(&p.child, p.sub, &p.frames, sent)?;
        let mut q = h.query;
        let (got, hop_error) = verify(
            &p.trace.packets,
            &looped,
            &p.trace.truth,
            h.events,
            &mut out,
        );

        // The read side, against the drained sink: one seeded round of
        // queries, checked against the trace and the subscription.
        let last_gen = p
            .trace
            .packets
            .iter()
            .map(|c| c.gen_time.as_millis_f64())
            .fold(f64::NEG_INFINITY, f64::max);
        let expect = query::Expect::new(&got, last_gen)?;
        query::run_round(
            &mut q,
            input::round_seed(args.seed, round),
            &expect,
            (sent - looped.len()) as u64,
            looped.len() as u64,
            &mut queries,
            &mut out,
        )?;
        if args.trace {
            sink::sink_layers(&mut q, &mut out)?;
        }
        rss.push(sink::peak_rss_mb(&p.child.pid().to_string())?);
        drop(q);
        drop(p.child);

        let mut lat: Vec<f64> = got
            .values()
            .map(|d| (d.at - h.start).as_secs_f64() * 1e3)
            .collect();
        lat.sort_by(f64::total_cmp);
        let last = lat.last().copied().unwrap_or(f64::NAN);
        goodputs.push(got.len() as f64 / (last / 1e3));
        p50s.push(quantile(&lat, 0.5));
        p95s.push(quantile(&lat, 0.95));
        errors.push(hop_error);
        eprintln!(
            "live-25: round {round}: {} packets, handoff {:.3} s, {} results, last at {:.3} s, \
             p50 {:.1} ms p95 {:.1} ms, hop error {hop_error:.3} ms",
            p.trace.packets.len(),
            h.handoff_s,
            got.len(),
            last / 1e3,
            quantile(&lat, 0.5),
            quantile(&lat, 0.95)
        );
        if args.trace {
            out.set("wire.encode_ms", p.encode_ms);
            let t = Instant::now();
            let decoded = domo_sink::wire::decode_packets(&p.frames)
                .map_err(|(at, e)| format!("decode at byte {at}: {e}"))?;
            out.set("wire.decode_ms", crate::ms_since(t));
            if decoded != p.trace.packets {
                out.wrong("wire round trip changed the trace".into());
            }
            out.set("ingest.handoff_s", h.handoff_s);
            out.set("ingest.stall_max_ms", h.stall_max_ms);
        }
    }
    if args.trace {
        queries.report(&mut out);
    }
    out.set("setup_s", median(&setups));
    out.set("goodput_per_s", median(&goodputs));
    out.set("latency_p50_ms", median(&p50s));
    out.set("latency_p95_ms", median(&p95s));
    out.set("hop_error_ms", median(&errors));
    out.set("peak_rss_mb", median(&rss));
    out.set("traced.goodput_per_s", median(&goodputs));
    out.set("traced.latency_p95_ms", median(&p95s));
    Ok(out)
}
