//! Measures multi-tenant acked ingest through the gateway over a
//! Unix-domain socket, recording throughput and ack round-trip latency
//! quantiles in `BENCH_gateway.json`.
//!
//! ```text
//! bench_gateway [--out FILE] [--smoke]
//! ```
//!
//! Each run stands up one [`Gateway`] over a fresh UDS path with N
//! tenants (N ∈ {1, 4, 16}), each tenant with its own keystore and its
//! own single-shard [`pnm_service`] pool. One [`ResilientClient`] per
//! tenant sends a pre-marked packet batch as sequenced `IngestSeq`
//! frames, stop-and-wait: each send waits for its ack before the next
//! frame goes out. Two wall clocks are kept:
//!
//! - **ingest wall**: first frame sent → every tenant's last ack, i.e.
//!   every frame admitted, enqueued, and acked exactly once;
//! - **end-to-end wall**: first frame sent → every tenant's backlog at
//!   zero, i.e. every packet carries a verdict. Throughput is computed
//!   against this clock — frames parked in a queue are not "done".
//!
//! Latency quantiles are exact, over the client-side wall time of every
//! `send` (frame out → trustworthy ack in); the reported p50/p99 are the
//! **worst tenant's** values, a conservative bound chosen over
//! cross-tenant merging so a starved tenant cannot hide behind a fast
//! one.
//!
//! `--smoke` runs a 2-tenant batch with tiny counts, asserts the books
//! balance (every frame acked `Accepted`, verdicts drain cleanly), and
//! writes nothing — CI-sized, UDS only, no TCP port.

use std::env;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pnm_core::{MarkingScheme, NodeContext, ProbabilisticNestedMarking, SinkConfig, VerifyMode};
use pnm_crypto::KeyStore;
use pnm_gateway::{
    AckCode, Connector, Gateway, GatewayConfig, ResilientClient, ResilientConfig, SendOutcome,
    TenantConfig, TenantRegistry,
};
use pnm_service::ServiceConfig;
use pnm_wire::{Location, NodeId, Packet, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sensor nodes per tenant deployment.
const NODES: u16 = 6;
/// Marking hops stamped onto every benched packet.
const HOPS: u16 = 4;
/// Gateway worker threads serving connections.
const WORKERS: usize = 2;

fn temp_sock(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "pnm-gwbench-{}-{}-{}.sock",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The integer value of the metrics-text line for `series`, or 0.
fn counter(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Exact `q`-quantile (nearest rank) of sorted samples.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A tenant's pre-marked ingest batch: canonical packet bytes, ready to
/// frame. Built outside the timed region.
fn marked_batch(keys: &KeyStore, tenant_seed: u64, packets: usize) -> Vec<Vec<u8>> {
    let scheme = ProbabilisticNestedMarking::paper_default(NODES.into());
    let mut rng = StdRng::seed_from_u64(0x6077_0000 ^ tenant_seed);
    (0..packets)
        .map(|seq| {
            let report = Report::new(
                format!("gw-{tenant_seed}-{seq}").into_bytes(),
                Location::new(seq as f32, tenant_seed as f32),
                seq as u64,
            );
            let mut pkt = Packet::new(report);
            for hop in 0..HOPS {
                let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
                scheme.mark(&ctx, &mut pkt, &mut rng);
            }
            pkt.to_bytes()
        })
        .collect()
}

struct RunResult {
    tenants: usize,
    total_packets: u64,
    ingest_wall_ms: f64,
    e2e_wall_ms: f64,
    throughput_pps: f64,
    p50_ack_us: u64,
    p99_ack_us: u64,
}

/// One full scenario: N tenants, one stop-and-wait acked client each.
fn run_scenario(tenants: usize, packets_per_tenant: usize) -> RunResult {
    let names: Vec<String> = (0..tenants).map(|i| format!("t{i:02}")).collect();
    let mut builder = TenantRegistry::builder();
    let mut stores: Vec<Arc<KeyStore>> = Vec::with_capacity(tenants);
    for (i, name) in names.iter().enumerate() {
        let master = format!("bench-gateway-tenant-{i}");
        let keys = Arc::new(KeyStore::derive_from_master(master.as_bytes(), NODES));
        builder = builder.tenant(
            name,
            TenantConfig::new(
                Arc::clone(&keys),
                ServiceConfig::new(SinkConfig::new(VerifyMode::Nested)).shards(1),
            ),
        );
        stores.push(keys);
    }
    let registry = Arc::new(builder.build().expect("registry"));

    let mut gw = Gateway::new(
        Arc::clone(&registry),
        GatewayConfig::default()
            .workers(WORKERS)
            .poll_interval(Duration::from_micros(200)),
    );
    let sock = temp_sock("run");
    gw.listen_uds(&sock).expect("bind UDS");
    let handle = gw.spawn().expect("spawn gateway");

    // Frame payloads are built before the clock starts.
    let batches: Vec<Vec<Vec<u8>>> = stores
        .iter()
        .enumerate()
        .map(|(i, keys)| marked_batch(keys, i as u64, packets_per_tenant))
        .collect();

    let barrier = Arc::new(Barrier::new(tenants + 1));
    let clients: Vec<_> = names
        .iter()
        .zip(batches)
        .enumerate()
        .map(|(i, (name, batch))| {
            let name = name.clone();
            let connector = Connector::uds(&sock);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let session = i as u64 + 1;
                let mut client =
                    ResilientClient::new(connector, session, ResilientConfig::default());
                assert!(client.ready().expect("connect"), "gateway ready");
                barrier.wait();
                let mut rtt_us = Vec::with_capacity(batch.len());
                for bytes in &batch {
                    let sent = Instant::now();
                    let outcome = client.send(name.as_bytes(), bytes).expect("acked send");
                    rtt_us.push(sent.elapsed().as_micros() as u64);
                    assert!(
                        matches!(
                            outcome,
                            SendOutcome::Counted {
                                code: AckCode::Accepted,
                                ..
                            }
                        ),
                        "tenant {name}: every frame must be accepted, got {outcome:?}"
                    );
                }
                rtt_us.sort_unstable();
                rtt_us
            })
        })
        .collect();

    barrier.wait();
    let start = Instant::now();
    let rtts: Vec<Vec<u64>> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    let ingest_wall = start.elapsed();

    // End-to-end: every enqueued packet carries a verdict.
    while registry.backlog() > 0 {
        std::thread::sleep(Duration::from_micros(500));
    }
    let e2e_wall = start.elapsed();

    let total_packets = (tenants * packets_per_tenant) as u64;
    let metrics = registry.metrics_text();
    for name in &names {
        let ingested = counter(
            &metrics,
            &format!("pnm_gateway_ingested_total{{tenant=\"{name}\"}}"),
        );
        assert_eq!(
            ingested, packets_per_tenant as u64,
            "tenant {name}: every frame must be counted exactly once"
        );
    }
    let p50 = rtts.iter().map(|r| quantile(r, 0.50)).max().unwrap_or(0);
    let p99 = rtts.iter().map(|r| quantile(r, 0.99)).max().unwrap_or(0);
    for name in &names {
        let verdict = registry.drain(name.as_bytes()).expect("drain verdict");
        assert!(
            !verdict.evidence_bytes.is_empty(),
            "tenant {name}: drained evidence must round-trip"
        );
    }
    handle.shutdown();

    let e2e_ms = e2e_wall.as_secs_f64() * 1e3;
    RunResult {
        tenants,
        total_packets,
        ingest_wall_ms: ingest_wall.as_secs_f64() * 1e3,
        e2e_wall_ms: e2e_ms,
        throughput_pps: total_packets as f64 / e2e_wall.as_secs_f64(),
        p50_ack_us: p50,
        p99_ack_us: p99,
    }
}

fn main() -> ExitCode {
    let mut out = "BENCH_gateway.json".to_string();
    let mut smoke = false;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(v) => out = v,
                None => {
                    eprintln!("error: --out needs a value");
                    return ExitCode::FAILURE;
                }
            },
            "--smoke" => smoke = true,
            other => {
                eprintln!("error: unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    if smoke {
        // CI-sized: two tenants over UDS, books must balance, no file.
        let r = run_scenario(2, 40);
        assert_eq!(r.total_packets, 80);
        println!(
            "bench_gateway smoke: 2 tenants, {} acked packets, e2e {:.1} ms, ack p99 {} us",
            r.total_packets, r.e2e_wall_ms, r.p99_ack_us
        );
        return ExitCode::SUCCESS;
    }

    let runs: Vec<RunResult> = [1usize, 4, 16]
        .iter()
        .map(|&n| run_scenario(n, 500))
        .collect();

    let run_json: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"tenants\": {},\n",
                    "      \"total_packets\": {},\n",
                    "      \"ingest_wall_ms\": {:.3},\n",
                    "      \"e2e_wall_ms\": {:.3},\n",
                    "      \"throughput_pps\": {:.0},\n",
                    "      \"p50_ack_us\": {},\n",
                    "      \"p99_ack_us\": {}\n",
                    "    }}"
                ),
                r.tenants,
                r.total_packets,
                r.ingest_wall_ms,
                r.e2e_wall_ms,
                r.throughput_pps,
                r.p50_ack_us,
                r.p99_ack_us,
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"scenario\": \"multi-tenant acked ingest through the gateway over a \
             Unix-domain socket\",\n",
            "  \"note\": \"acked, stop-and-wait ingest: one ResilientClient per tenant sends \
             one IngestSeq frame at a time and waits for its ack; throughput is against the \
             end-to-end clock (every packet carries a verdict); p50/p99 are the worst \
             tenant's exact client-side ack round-trip quantiles\",\n",
            "  \"workers\": {},\n",
            "  \"nodes_per_tenant\": {},\n",
            "  \"packets_per_tenant\": 500,\n",
            "  \"host_cores\": {},\n",
            "  \"runs\": [\n{}\n  ]\n",
            "}}\n"
        ),
        WORKERS,
        NODES,
        std::thread::available_parallelism().map_or(1, usize::from),
        run_json.join(",\n"),
    );
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    print!("{json}");
    ExitCode::SUCCESS
}
