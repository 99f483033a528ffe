//! Records the sink pipeline's instrumentation counters and per-stage
//! latency breakdown from the canonical scenario into `BENCH_sink.json`,
//! giving future changes a perf trajectory to compare against.
//!
//! ```text
//! bench-sink [--smoke] [--out FILE] [--trace FILE]
//! ```
//!
//! Canonical scenario: the paper's §6.2 setting — a 20-hop path, PNM with
//! np = 3, 200 bogus packets, all sharing neither report nor table (each
//! packet is a distinct report) — plus a batched same-report workload (200
//! packets over 8 reports) that exercises the anon-table cache. Both runs
//! are fully seeded, so the counters are deterministic; the stage
//! latencies (`stage_ns`, nanosecond resolution) are wall-clock
//! measurements and vary run to run.
//!
//! `--smoke` runs a CI-sized workload (60 packets). `--trace FILE` writes
//! every pipeline span as JSONL to FILE. Neither changes any counter.

use std::env;
use std::process::ExitCode;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pnm_core::{NodeContext, SinkConfig, SinkCounters, SinkEngine, StageMetrics, VerifyMode};
use pnm_obs::{JsonValue, Tracer};
use pnm_sim::{bogus_packet, PathScenario, SchemeKind};
use pnm_wire::{Location, NodeId, Packet, Report};

const PATH_LEN: u16 = 20;
const PACKETS: usize = 200;
const SMOKE_PACKETS: usize = 60;
const DISTINCT_REPORTS: u64 = 8;
const SEED: u64 = 2007;

/// One workload's result: the deterministic pipeline counters plus the
/// measured per-stage latency breakdown, as a single JSON object.
fn section(c: &SinkCounters, stages: &StageMetrics) -> JsonValue {
    match pnm_service::counters_json_value(c) {
        JsonValue::Object(mut entries) => {
            entries.push(("stage_ns".to_string(), stages.to_json_value()));
            JsonValue::Object(entries)
        }
        other => other,
    }
}

/// The paper's honest-path scenario: every packet is a distinct report.
fn run_distinct_reports(packets: usize, tracer: &Tracer) -> (SinkCounters, StageMetrics) {
    let scenario = PathScenario::paper(PATH_LEN);
    let keys = Arc::new(scenario.keystore(0));
    let scheme = SchemeKind::Pnm.build(scenario.config());
    let mut sink = SinkEngine::new(
        Arc::clone(&keys),
        SinkConfig::new(VerifyMode::Nested)
            .tracer(tracer.clone())
            .stage_timing(true),
    );
    let mut rng = StdRng::seed_from_u64(SEED);
    for seq in 0..packets as u64 {
        let mut pkt = bogus_packet(seq, SEED);
        for hop in 0..PATH_LEN {
            let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
            scheme.mark(&ctx, &mut pkt, &mut rng);
        }
        sink.ingest(&pkt);
    }
    (sink.counters(), sink.stage_metrics().clone())
}

/// The batched workload: the same traffic volume spread over a few reports
/// (retransmissions / duplicate observations), ingested as one batch so the
/// anon-table cache amortizes resolution.
fn run_batched_same_reports(packets: usize, tracer: &Tracer) -> (SinkCounters, StageMetrics) {
    let scenario = PathScenario::paper(PATH_LEN);
    let keys = Arc::new(scenario.keystore(0));
    let scheme = SchemeKind::Pnm.build(scenario.config());
    let mut sink = SinkEngine::new(
        Arc::clone(&keys),
        SinkConfig::new(VerifyMode::Nested)
            .table_cache_capacity(DISTINCT_REPORTS as usize)
            .tracer(tracer.clone())
            .stage_timing(true),
    );
    let mut rng = StdRng::seed_from_u64(SEED);
    let stream: Vec<Packet> = (0..packets as u64)
        .map(|seq| {
            let report = Report::new(
                format!("bench-{:02}", seq % DISTINCT_REPORTS).into_bytes(),
                Location::new(0.0, 0.0),
                seq % DISTINCT_REPORTS,
            );
            let mut pkt = Packet::new(report);
            for hop in 0..PATH_LEN {
                let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
                scheme.mark(&ctx, &mut pkt, &mut rng);
            }
            pkt
        })
        .collect();
    for pkt in &stream {
        sink.ingest(pkt);
    }
    (sink.counters(), sink.stage_metrics().clone())
}

fn main() -> ExitCode {
    let mut out = "BENCH_sink.json".to_string();
    let mut trace: Option<String> = None;
    let mut smoke = false;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(v) => out = v,
                None => {
                    eprintln!("error: --out needs a value");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match args.next() {
                Some(v) => trace = Some(v),
                None => {
                    eprintln!("error: --trace needs a value");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("error: unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let packets = if smoke { SMOKE_PACKETS } else { PACKETS };
    let (tracer, ring) = match &trace {
        Some(_) => {
            let (t, r) = Tracer::ring(1 << 18);
            (t, Some(r))
        }
        None => (Tracer::noop(), None),
    };

    let (distinct, distinct_stages) = run_distinct_reports(packets, &tracer);
    let (batched, batched_stages) = run_batched_same_reports(packets, &tracer);
    let batched_label = format!("batched_{DISTINCT_REPORTS}_reports");
    let doc = JsonValue::obj(vec![
        (
            "scenario",
            JsonValue::Str(format!(
                "PNM np=3, {PATH_LEN}-hop path, {packets} packets, seed {SEED}"
            )),
        ),
        (
            "mode",
            JsonValue::Str(if smoke { "smoke" } else { "full" }.to_string()),
        ),
        ("distinct_reports", section(&distinct, &distinct_stages)),
        (&batched_label, section(&batched, &batched_stages)),
    ]);
    let json = doc.render_pretty();
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    print!("{json}");

    if let (Some(path), Some(ring)) = (&trace, &ring) {
        if let Err(e) = std::fs::write(path, ring.export_jsonl()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "wrote {path} ({} events, {} dropped)",
            ring.len(),
            ring.dropped()
        );
        if ring.dropped() > 0 {
            eprintln!("trace ring overflowed; enlarge the capacity");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
