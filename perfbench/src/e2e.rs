//! The end-to-end path: one lifecycle round of acked, exactly-once ingest
//! through the real stack (`ResilientClient` over a Unix-domain socket →
//! `Gateway` → `TenantRegistry` → `ServicePool` → `SinkEngine`, and on the
//! durable workload `LogStore`), with the round's correctness checks.
//!
//! A round sets the deployment up from nothing, sends every packet of the
//! run's stream through one closed-loop session (one stop-and-wait
//! `IngestSeq` in flight), drains the tenant, checks the verdict, and
//! shuts the gateway down. The durable workload restarts the gateway
//! half-way; the restart and the log replay stay off every end-to-end
//! clock.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pnm_core::{Evidence, SinkEngine};
use pnm_crypto::KeyStore;
use pnm_gateway::{
    AckCode, ClientConfig, ClientReport, Connector, DrainVerdict, Gateway, GatewayClient,
    GatewayConfig, GatewayHandle, ResilientClient, ResilientConfig, SendOutcome, TenantConfig,
    TenantRegistry,
};
use pnm_obs::JsonValue;
use pnm_service::{ServiceConfig, ServicePool};

use crate::host;
use crate::spans::{Recorder, NO_PACKET};
use crate::workload::{sink_config, Inputs, References, Spec, MASTER};

/// The one tenant every workload provisions.
pub const TENANT: &str = "field";

/// Socket timeout of the session: far above any ack (about 1 ms), low
/// enough that a wedged gateway fails the run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Health probes per traced round, for `gateway.health_rtt_us`.
const HEALTH_PROBES: usize = 100;

/// What every round of one run shares.
pub struct Ctx<'a> {
    pub spec: &'a Spec,
    pub inputs: &'a Inputs,
    pub refs: &'a References,
    /// The run's scratch directory (evidence logs, socket).
    pub dir: PathBuf,
    pub sock: PathBuf,
    pub seed: u64,
}

/// The tenant's pool: one shard (the shard, not the socket, is meant to
/// set the field workloads' rate) and a short queue, so an ack lags the
/// sink by at most `spec.queue` packets.
pub fn service_config(spec: &Spec) -> ServiceConfig {
    ServiceConfig::new(sink_config())
        .shards(1)
        .queue_capacity(spec.queue)
}

/// Derives the tenant's keys and HMAC schedule (`crypto.keys`).
pub fn derive_keys(nodes: u16) -> Arc<KeyStore> {
    let keys = Arc::new(KeyStore::derive_from_master(MASTER, nodes));
    keys.schedule();
    keys
}

/// One running gateway.
struct Life {
    keys: Arc<KeyStore>,
    registry: Arc<TenantRegistry>,
    handle: GatewayHandle,
}

fn start(ctx: &Ctx, evidence: Option<&Path>, rec: &mut Recorder, parent: u32) -> Life {
    let nodes = ctx.inputs.field.nodes();
    let keys = rec.time("crypto.keys", NO_PACKET, parent, 1, || derive_keys(nodes));
    let registry = rec.time("gateway.registry_build", NO_PACKET, parent, 1, || {
        let mut builder = TenantRegistry::builder().tenant(
            TENANT,
            TenantConfig::new(Arc::clone(&keys), service_config(ctx.spec)),
        );
        if let Some(dir) = evidence {
            builder = builder.evidence_dir(dir);
        }
        Arc::new(
            builder
                .build()
                .expect("tenant registry opens its evidence log"),
        )
    });
    let handle = rec.time("gateway.spawn", NO_PACKET, parent, 1, || {
        let mut gw = Gateway::new(Arc::clone(&registry), GatewayConfig::default());
        gw.listen_uds(&ctx.sock).expect("bind the gateway socket");
        gw.spawn().expect("spawn the gateway")
    });
    Life {
        keys,
        registry,
        handle,
    }
}

/// One round's figures and check results.
pub struct Round {
    pub traced: bool,
    pub setup_s: f64,
    /// Ack latency of every accepted packet, in µs.
    pub acks_us: Vec<f64>,
    /// Accepted packets before and after the restart.
    pub acked: [u64; 2],
    /// Send window of the round, restart excluded.
    pub ingest_s: f64,
    /// First send until the drained verdict, restart excluded.
    pub verdict_s: f64,
    pub report: ClientReport,
    /// The durable restart check: the final drain covered the packets
    /// acked before the restart. `None` without a restart.
    pub restart_ok: Option<bool>,
    pub evidence_bytes: usize,
    /// Failed correctness checks, one line each.
    pub failures: Vec<String>,
    /// Traced rounds only.
    pub backlog_max: u64,
    pub idle_cpu_pct: Option<f64>,
}

impl Round {
    pub fn packets(&self) -> u64 {
        self.acked[0] + self.acked[1]
    }
}

/// Runs one lifecycle round. Packet ids of its spans start at `first_id`.
pub fn round(ctx: &Ctx, r: usize, rec: &mut Recorder, first_id: u64) -> Round {
    let traced = rec.enabled();
    let evidence_dir = ctx.spec.durable.then(|| {
        let dir = ctx.dir.join(format!("evidence-{r}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the evidence directory");
        dir
    });
    let session = ctx.seed.rotate_left(21) ^ (r as u64 + 1);
    let round_span = rec.open("e2e.round", NO_PACKET, 0);
    let rid = round_span.id();
    let mut failures = Vec::new();

    // Set-up: everything before the first packet can be acked.
    let t0 = Instant::now();
    let mut life = start(ctx, evidence_dir.as_deref(), rec, rid);
    let (mut client, ready) = rec.time("gateway.connect", NO_PACKET, rid, 1, || {
        let mut client = ResilientClient::new(
            Connector::uds(&ctx.sock).config(
                ClientConfig::default()
                    .read_timeout(IO_TIMEOUT)
                    .write_timeout(IO_TIMEOUT),
            ),
            session,
            ResilientConfig::default().seed(session),
        );
        let ready = client.ready();
        (client, ready)
    });
    let setup_s = t0.elapsed().as_secs_f64();
    if !matches!(ready, Ok(true)) {
        failures.push(format!("gateway not ready after set-up: {ready:?}"));
    }
    let mut operator = GatewayClient::connect_uds(&ctx.sock).ok();

    let mut acks_us = Vec::with_capacity(ctx.inputs.stream.len());
    let mut acked = [0u64; 2];
    let mut life_no = 0;
    let mut off_clock = Duration::ZERO;
    let mut backlog_max = 0;
    let first_send = Instant::now();
    for (i, bytes) in ctx.inputs.stream.iter().enumerate() {
        if ctx.inputs.restart_at == Some(i) {
            let t = Instant::now();
            let dir = evidence_dir.as_deref().expect("durable rounds keep a log");
            life = restart(ctx, life, dir, rec, rid, &mut failures);
            operator = GatewayClient::connect_uds(&ctx.sock).ok();
            // The session finds its connection dead, reconnects, and the
            // probe confirms the new gateway answers.
            if let Err(e) = client.health() {
                failures.push(format!("session did not reconnect after the restart: {e}"));
            }
            life_no = 1;
            off_clock += t.elapsed();
        }
        let t = Instant::now();
        let out = rec.time("client.send", first_id + i as u64, rid, 1, || {
            client.send(TENANT.as_bytes(), bytes)
        });
        let us = t.elapsed().as_secs_f64() * 1e6;
        match out {
            Ok(SendOutcome::Counted {
                code: AckCode::Accepted,
                ..
            }) => {
                acks_us.push(us);
                acked[life_no] += 1;
            }
            other => failures.push(format!("packet {i} not accepted: {other:?}")),
        }
        if ctx.spec.scrape_every > 0 && (i + 1) % ctx.spec.scrape_every == 0 {
            scrape(&mut operator, rec, rid, &mut failures);
        }
        if traced && i % 8 == 0 {
            let backlog = rec.time("service.backlog", NO_PACKET, rid, 1, || {
                life.registry.backlog()
            });
            backlog_max = backlog_max.max(backlog);
        }
    }
    let ingest_s = (first_send.elapsed() - off_clock).as_secs_f64();

    // Traced rounds probe the idle gateway before draining, off the clock.
    let mut idle_cpu_pct = None;
    if traced {
        let t = Instant::now();
        while life.registry.backlog() > 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
        idle_cpu_pct = Some(idle_cpu(Duration::from_millis(200)));
        if let Some(op) = operator.as_mut() {
            for _ in 0..HEALTH_PROBES {
                if let Err(e) = rec.time("gateway.health", NO_PACKET, rid, 1, || op.health()) {
                    failures.push(format!("health probe failed: {e}"));
                }
            }
        }
        if ctx.spec.scrape_every == 0 {
            scrape(&mut operator, rec, rid, &mut failures);
        }
        off_clock += t.elapsed();
    }

    let verdict = rec.time("service.drain", NO_PACKET, rid, 1, || {
        client.drain(TENANT.as_bytes())
    });
    let verdict_s = (first_send.elapsed() - off_clock).as_secs_f64();
    let report = client.report();
    drop(client);
    drop(operator);

    // Exactly-once books on the client side: every packet accepted on its
    // first attempt; the one restart costs exactly one reconnect.
    let restarts = u64::from(ctx.inputs.restart_at.is_some());
    if report.attempts != report.counted
        || report.retries != 0
        || report.duplicates != 0
        || report.rejected != 0
        || report.reconnects != restarts
        || report.io_errors != restarts
    {
        failures.push(format!("client books unbalanced: {report:?}"));
    }
    let mut restart_ok = None;
    let mut evidence_bytes = 0;
    match verdict {
        Ok(v) => {
            evidence_bytes = v.evidence_bytes.len();
            restart_ok = check_verdict(ctx, &v, acked, &mut failures);
        }
        Err(e) => failures.push(format!("drain failed: {e}")),
    }
    if !life.handle.shutdown_graceful(Duration::from_secs(10)) {
        failures.push("graceful shutdown missed its deadline".into());
    }
    rec.close(round_span, acked[0] + acked[1]);
    Round {
        traced,
        setup_s,
        acks_us,
        acked,
        ingest_s,
        verdict_s,
        report,
        restart_ok,
        evidence_bytes,
        failures,
        backlog_max,
        idle_cpu_pct,
    }
}

/// Stops the first life gracefully (flushing its final checkpoint), reads
/// the log back, and starts the second life over the same evidence
/// directory.
fn restart(
    ctx: &Ctx,
    life: Life,
    dir: &Path,
    rec: &mut Recorder,
    rid: u32,
    failures: &mut Vec<String>,
) -> Life {
    let Life {
        keys,
        registry,
        handle,
    } = life;
    if !handle.shutdown_graceful(Duration::from_secs(10)) {
        failures.push("graceful shutdown before the restart missed its deadline".into());
    }
    drop(registry);
    let log = dir.join(format!("{TENANT}.pnme"));
    let recovered = rec.time("core.store.replay", NO_PACKET, rid, 1, || {
        ServicePool::recover_from_log(Arc::clone(&keys), service_config(ctx.spec), &log)
    });
    match recovered {
        Ok((pool, _)) => {
            if pool.drain().engine.evidence().to_bytes() != ctx.refs.pre {
                failures.push("log replay differs from the first life's verdict".into());
            }
        }
        Err(e) => failures.push(format!("log replay failed: {e}")),
    }
    start(ctx, Some(dir), rec, rid)
}

/// One operator scrape: the whole `MetricsText` exposition, then the
/// tenant's `Ops` snapshot, which must parse and name the tenant running.
fn scrape(
    operator: &mut Option<GatewayClient>,
    rec: &mut Recorder,
    rid: u32,
    failures: &mut Vec<String>,
) {
    let Some(op) = operator.as_mut() else {
        failures.push("no operator connection for the scrape".into());
        return;
    };
    let ops = rec.time("obs.scrape", NO_PACKET, rid, 1, || {
        op.metrics_text()
            .and_then(|_| op.ops_snapshot(TENANT.as_bytes()))
    });
    let running = ops
        .as_deref()
        .ok()
        .and_then(|text| pnm_obs::json::parse(text).ok())
        .is_some_and(|v| v.get("state").and_then(JsonValue::as_str) == Some("running"));
    if !running {
        failures.push(format!(
            "ops snapshot does not show the tenant running: {ops:?}"
        ));
    }
}

/// Process CPU per wall second, in %, over `window` of idleness.
fn idle_cpu(window: Duration) -> f64 {
    let cpu0 = host::process_cpu_ns();
    let t = Instant::now();
    std::thread::sleep(window);
    let cpu = host::process_cpu_ns().saturating_sub(cpu0);
    cpu as f64 / t.elapsed().as_nanos() as f64 * 100.0
}

/// The drained verdict's books, evidence identity and Theorem 4. Returns
/// the restart check's result on the durable workload.
fn check_verdict(
    ctx: &Ctx,
    v: &DrainVerdict,
    acked: [u64; 2],
    failures: &mut Vec<String>,
) -> Option<bool> {
    let summary = match pnm_obs::json::parse(&v.summary_json) {
        Ok(s) => s,
        Err(e) => {
            failures.push(format!("drain summary does not parse: {e}"));
            return None;
        }
    };
    let field = |k: &str| summary.get(k).and_then(JsonValue::as_u64);
    let total = acked[0] + acked[1];
    let durable = ctx.inputs.restart_at.is_some();
    // The named restart check. Until the registry replays its log on
    // start, the second life's drain covers only its own packets; every
    // other check then speaks of those.
    let restart_ok = durable.then(|| field("packets") == Some(total));
    let (covered, reference) = if restart_ok == Some(false) {
        (acked[1], &ctx.refs.post)
    } else {
        (total, &ctx.refs.all)
    };
    if field("packets") != Some(covered) {
        failures.push(format!(
            "drained packets {:?}, sessions counted {covered}",
            field("packets")
        ));
    }
    let processed = field("processed");
    if processed != Some(total) && !(durable && processed == Some(acked[1])) {
        failures.push(format!("drained processed {processed:?}, acked {acked:?}"));
    }
    for k in ["shed", "panics", "wedged"] {
        if field(k) != Some(0) {
            failures.push(format!("drain reports {k} = {:?}", field(k)));
        }
    }
    if v.evidence_bytes != *reference {
        failures.push("drained evidence differs from the sequential engine's".into());
    }
    theorem4(ctx, v, &summary, failures);
    restart_ok
}

/// Every node the verdict implicates lies within one hop of a mole, and
/// every mole is covered. Implicated: the unequivocal source, the source
/// regions of the evidence installed into a fresh engine, and quarantine.
fn theorem4(ctx: &Ctx, v: &DrainVerdict, summary: &JsonValue, failures: &mut Vec<String>) {
    let mut implicated = BTreeSet::new();
    if let Some(src) = summary
        .get("unequivocal_source")
        .and_then(JsonValue::as_u64)
    {
        implicated.insert(src);
    }
    if let Some(JsonValue::Array(q)) = summary.get("quarantined") {
        implicated.extend(q.iter().filter_map(JsonValue::as_u64));
    }
    match Evidence::from_bytes(&v.evidence_bytes) {
        Ok(ev) => {
            let mut fresh = SinkEngine::new(KeyStore::new(), sink_config());
            fresh.install_evidence(&ev);
            implicated.extend(
                fresh
                    .source_regions()
                    .iter()
                    .map(|r| u64::from(r.head.raw())),
            );
        }
        Err(e) => failures.push(format!("drained evidence does not decode: {e}")),
    }
    let hoods: Vec<(u16, BTreeSet<u64>)> = ctx
        .inputs
        .sources
        .iter()
        .map(|s| {
            let hood = ctx.inputs.field.closed_neighbourhood(s.mole);
            (s.mole, hood.into_iter().map(u64::from).collect())
        })
        .collect();
    for n in &implicated {
        if !hoods.iter().any(|(_, h)| h.contains(n)) {
            failures.push(format!(
                "Theorem 4: node {n} implicated, one hop from no mole"
            ));
        }
    }
    for (mole, hood) in &hoods {
        if implicated.is_disjoint(hood) {
            failures.push(format!("Theorem 4: mole {mole} not covered"));
        }
    }
}
