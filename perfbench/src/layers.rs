//! The traced run's replay: the workload's packets pushed, one call at a
//! time, through the public functions of each layer on the benchmark's
//! own thread, each call inside a span.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pnm_core::{AnonTable, LogStore, SinkEngine, SinkVerifier};
use pnm_crypto::{anon_id_many_prepared, verify_mark_macs_prepared, HmacKey, KeySchedule, MacTag};
use pnm_gateway::{
    AckCode, Envelope, IngestAck, Response, SeqFrame, Status, TenantConfig, TenantRegistry,
};
use pnm_service::ServicePool;
use pnm_wire::{MarkId, Packet};

use crate::e2e::{derive_keys, service_config, Ctx, TENANT};
use crate::spans::{Recorder, NO_PACKET};
use crate::workload::{reference_verdict, sink_config};

/// Figures the replay computes directly rather than from span times.
pub struct Counts {
    pub tables_per_pkt: f64,
    pub hashes_per_pkt: f64,
    pub log_bytes_per_pkt: f64,
    pub wire_bytes_per_pkt: f64,
    pub packet_bytes: f64,
}

/// Replays the first `spec.replay` packets of the stream. Spans land in
/// `rec`; failed sanity checks in `failures`.
pub fn replay(ctx: &Ctx, rec: &mut Recorder, failures: &mut Vec<String>) -> Counts {
    let n = ctx.spec.replay.min(ctx.inputs.packets.len());
    let packets = &ctx.inputs.packets[..n];
    let stream = &ctx.inputs.stream[..n];
    let nodes = ctx.inputs.field.nodes();
    for _ in 0..5 {
        black_box(rec.time("crypto.keys", NO_PACKET, 0, 1, || derive_keys(nodes)));
    }
    let keys = derive_keys(nodes);
    let schedule = keys.schedule();
    let verifier = SinkVerifier::new(Arc::clone(&keys));
    // Configured as a pool shard configures its engine.
    let shard_sink = sink_config().without_isolation().stage_timing(true);
    let mut engine = SinkEngine::new(Arc::clone(&keys), shard_sink.clone());
    let log_path = ctx.dir.join("replay.pnme");
    let _ = std::fs::remove_file(&log_path);
    let store = Arc::new(LogStore::open(&log_path).expect("open the replay log"));
    let mut durable = SinkEngine::new(Arc::clone(&keys), shard_sink);
    durable.attach_store(store, 0);

    for (i, (pkt, bytes)) in packets.iter().zip(stream).enumerate() {
        let id = i as u64;
        let root = rec.open("replay.packet", id, 0);
        let p = root.id();
        let decoded = rec.time("wire.decode", id, p, 1, || Packet::from_bytes(bytes));
        if decoded.as_ref() != Ok(pkt) {
            failures.push(format!("packet {i} does not decode to itself"));
        }
        let report = rec.time("wire.report_encode", id, p, 1, || pkt.report.to_bytes());
        black_box(rec.time("core.ingest", id, p, 1, || engine.ingest(pkt)));
        durable.ingest(pkt);
        if let Err(e) = rec.time("core.store.checkpoint", id, p, 1, || {
            durable.checkpoint_to_store()
        }) {
            failures.push(format!("checkpoint of packet {i} failed: {e}"));
        }
        let table = rec.time("core.table_build", id, p, 1, || {
            AnonTable::build_lanes_with(&schedule, &report)
        });
        black_box(
            rec.time("crypto.anon_id", id, p, schedule.len() as u64, || {
                anon_id_many_prepared(schedule.prepared(), &report, schedule.ids())
            }),
        );
        let chain = rec.time("core.verify", id, p, 1, || {
            verifier.verify_nested_with_table_batched(pkt, &table)
        });
        if chain.nodes.len() != pkt.marks.len() {
            failures.push(format!(
                "packet {i}: {} of {} marks verify",
                chain.nodes.len(),
                pkt.marks.len()
            ));
        }
        let jobs = mac_jobs(pkt, &schedule, &table);
        let refs: Vec<(&HmacKey, &[u8], &MacTag)> =
            jobs.iter().map(|(k, m, t)| (*k, m.as_slice(), t)).collect();
        let ok = rec.time("crypto.mac_verify", id, p, refs.len() as u64, || {
            verify_mark_macs_prepared(&refs)
        });
        if ok.len() != pkt.marks.len() || !ok.iter().all(|&b| b) {
            failures.push(format!("packet {i}: a mark MAC does not verify"));
        }
        rec.close(root, 1);
    }
    let counters = engine.counters();

    // The log just written is read back: replay time, and the replayed
    // verdict must be the writing engine's.
    let expected = reference_verdict(&keys, &durable);
    drop(durable);
    let log_bytes = std::fs::metadata(&log_path).map_or(0, |m| m.len());
    match rec.time("core.store.replay", NO_PACKET, 0, 1, || {
        ServicePool::recover_from_log(Arc::clone(&keys), service_config(ctx.spec), &log_path)
    }) {
        Ok((pool, _)) => {
            if pool.drain().engine.evidence().to_bytes() != expected {
                failures.push("replayed log differs from the engine that wrote it".into());
            }
        }
        Err(e) => failures.push(format!("replay of the layer log failed: {e}")),
    }

    for _ in 0..15 {
        let copy = rec.time("service.engine_clone", NO_PACKET, 0, 1, || {
            ctx.refs.engine.clone()
        });
        drop(black_box(copy));
    }

    // The pool under `Block`, fed the stream as fast as it admits it.
    let pool = ServicePool::new(Arc::clone(&keys), service_config(ctx.spec));
    for (i, pkt) in packets.iter().enumerate() {
        let pkt = pkt.clone();
        if let Err(e) = rec.time("service.ingest", i as u64, 0, 1, || pool.ingest(pkt)) {
            failures.push(format!("pool refused packet {i}: {e:?}"));
        }
    }
    while pool.snapshot().backlog() > 0 {
        std::thread::sleep(Duration::from_micros(200));
    }
    black_box(rec.time("service.pool_drain", NO_PACKET, 0, 1, || pool.drain()));

    // Admission alone: a paused pool with room for every packet, so no
    // call waits on the shard.
    let registry = TenantRegistry::builder()
        .tenant(
            TENANT,
            TenantConfig::new(
                Arc::clone(&keys),
                service_config(ctx.spec)
                    .queue_capacity(n + 1)
                    .start_paused(true),
            ),
        )
        .build()
        .expect("in-process registry");
    let session = ctx.seed ^ 0xAD_3170;
    let mut wire_bytes = 0usize;
    for (i, bytes) in stream.iter().enumerate() {
        let seq = i as u64 + 1;
        let payload = SeqFrame::encode_payload(TENANT.as_bytes(), session, seq, bytes);
        let ack = rec.time("gateway.admit", i as u64, 0, 1, || {
            registry.ingest_seq(TENANT.as_bytes(), &payload, Instant::now())
        });
        if ack.code != AckCode::Accepted {
            failures.push(format!(
                "in-process admission of packet {i}: {:?}",
                ack.code
            ));
        }
        wire_bytes += Envelope::ingest_seq(TENANT.as_bytes(), session, seq, bytes)
            .encode()
            .len()
            + Response::new(Status::Ok, IngestAck::new(AckCode::Accepted, seq).encode())
                .encode()
                .len();
    }
    black_box(registry.drain(TENANT.as_bytes()));

    let per = |x: f64| x / n.max(1) as f64;
    Counts {
        tables_per_pkt: per(counters.table_builds as f64),
        hashes_per_pkt: per(counters.hash_count as f64),
        log_bytes_per_pkt: per(log_bytes as f64),
        wire_bytes_per_pkt: per(wire_bytes as f64),
        packet_bytes: per(stream.iter().map(Vec::len).sum::<usize>() as f64),
    }
}

/// One `(key, message, tag)` job per mark: the message is the packet as
/// the marking node received it plus the ID it wrote, the key the real
/// node's (anonymous IDs resolved through the report's table).
fn mac_jobs<'a>(
    pkt: &Packet,
    schedule: &'a KeySchedule,
    table: &AnonTable,
) -> Vec<(&'a HmacKey, Vec<u8>, MacTag)> {
    let mut prefix = Packet::new(pkt.report.clone());
    let mut jobs = Vec::with_capacity(pkt.marks.len());
    for mark in &pkt.marks {
        let (node, repr) = match &mark.id {
            MarkId::Plain(id) => (Some(id.raw()), id.to_bytes().to_vec()),
            MarkId::Anon(aid) => (table.resolve(aid).first().copied(), aid.as_bytes().to_vec()),
        };
        if let (Some(key), Some(tag)) = (node.and_then(|n| schedule.get(n)), &mark.mac) {
            let mut msg = prefix.to_bytes();
            msg.extend_from_slice(&repr);
            jobs.push((key, msg, *tag));
        }
        prefix.push_mark(*mark);
    }
    jobs
}
