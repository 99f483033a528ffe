//! Decode-totality fuzzing for the gateway envelope, mirroring
//! `crates/wire/tests/fuzz_decode.rs`, plus the same property proven at
//! the socket: a live gateway fed arbitrary, bit-flipped, and truncated
//! frames over real connections never panics, and every frame is
//! accounted exactly once — acked as accepted, malformed or corrupt, or
//! rejected as a bad frame.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pnm_core::{MarkingScheme, NodeContext, ProbabilisticNestedMarking, SinkConfig, VerifyMode};
use pnm_crypto::KeyStore;
use pnm_gateway::{
    AckCode, Envelope, Gateway, GatewayConfig, IngestAck, OpCode, Response, Status, TenantConfig,
    TenantRegistry, DEFAULT_MAX_PAYLOAD,
};
use pnm_service::ServiceConfig;
use pnm_wire::{Location, NodeId, Packet, Report};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes: both decoders return without panicking, and a
    /// successful parse implies the consumed prefix was the canonical
    /// encoding.
    #[test]
    fn arbitrary_bytes_decode_totally(bytes in vec(any::<u8>(), 0..512)) {
        if let Ok(Some((env, used))) = Envelope::decode(&bytes, DEFAULT_MAX_PAYLOAD) {
            prop_assert!(used <= bytes.len());
            prop_assert_eq!(&env.encode()[..], &bytes[..used]);
        }
        if let Ok(Some((resp, used))) = Response::decode(&bytes, DEFAULT_MAX_PAYLOAD) {
            prop_assert!(used <= bytes.len());
            prop_assert_eq!(&resp.encode()[..], &bytes[..used]);
        }
    }

    /// A valid frame with one flipped bit either still parses (the flip
    /// hit the payload), reports "need more bytes", or fails with a
    /// structured error — never a panic, and a parse that succeeds is
    /// still canonical.
    #[test]
    fn bit_flipped_frames_decode_totally(
        tenant_len in 1usize..=16,
        payload in vec(any::<u8>(), 0..64),
        opcode in 0u8..4,
        byte_salt in any::<u64>(),
        bit in 0u8..8,
    ) {
        let opcode = match opcode {
            0 => OpCode::IngestSeq,
            1 => OpCode::Snapshot,
            2 => OpCode::MetricsText,
            _ => OpCode::Drain,
        };
        let mut env = Envelope::control(opcode, &vec![b't'; tenant_len]);
        env.payload = payload;
        let mut bytes = env.encode();
        let idx = (byte_salt % bytes.len() as u64) as usize;
        bytes[idx] ^= 1 << bit;
        if let Ok(Some((decoded, used))) = Envelope::decode(&bytes, DEFAULT_MAX_PAYLOAD) {
            prop_assert_eq!(&decoded.encode()[..], &bytes[..used]);
        }
    }

    /// Every strict prefix of a valid frame is "need more bytes" — the
    /// self-delimiting encoding leaves no byte optional, so truncation is
    /// indistinguishable from a slow sender and never an error.
    #[test]
    fn truncated_frames_ask_for_more(
        tenant_len in 1usize..=16,
        payload in vec(any::<u8>(), 0..64),
        cut_salt in any::<u64>(),
    ) {
        let mut env = Envelope::control(OpCode::IngestSeq, &vec![b't'; tenant_len]);
        env.payload = payload;
        let bytes = env.encode();
        let cut = (cut_salt % bytes.len() as u64) as usize;
        prop_assert_eq!(Envelope::decode(&bytes[..cut], DEFAULT_MAX_PAYLOAD).unwrap(), None);
    }
}

fn temp_sock(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "pnm-gwfz-{}-{}-{}.sock",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn counter_value(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|l| {
            l.strip_prefix(series)
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Reads `n` pipelined responses off `conn`.
fn read_responses(conn: &mut UnixStream, n: usize) -> Vec<Response> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        match Response::decode(&buf, 1 << 20).unwrap() {
            Some((resp, used)) => {
                buf.drain(..used);
                out.push(resp);
            }
            None => {
                let k = conn.read(&mut chunk).unwrap();
                assert!(k > 0, "gateway closed before answering");
                buf.extend_from_slice(&chunk[..k]);
            }
        }
    }
    out
}

/// The socket-level totality claim: hostile frames over live connections
/// never kill the gateway, and the books balance exactly — every ingest
/// frame that reached the server is acked accepted, malformed or corrupt
/// and counted once under that reason, and every garbage connection is
/// counted as exactly one bad frame.
#[test]
fn hostile_streams_over_socket_never_panic_and_are_exactly_counted() {
    let keys = Arc::new(KeyStore::derive_from_master(b"fuzz-tenant", 4));
    let registry = Arc::new(
        TenantRegistry::builder()
            .tenant(
                "alpha",
                TenantConfig::new(
                    Arc::clone(&keys),
                    ServiceConfig::new(SinkConfig::new(VerifyMode::Nested)).shards(1),
                ),
            )
            .build()
            .unwrap(),
    );
    let mut gw = Gateway::new(
        Arc::clone(&registry),
        GatewayConfig::default()
            .workers(1)
            .poll_interval(Duration::from_micros(200)),
    );
    let sock = temp_sock("hostile");
    gw.listen_uds(&sock).unwrap();
    let handle = gw.spawn().unwrap();

    let scheme = ProbabilisticNestedMarking::paper_default(4);
    let mut rng = StdRng::seed_from_u64(0xf02a);

    // 40 sequenced ingest frames over one pipelined connection, each
    // with one bit flipped. Even frames flip a packet bit before the CRC
    // is computed (the frame is intact; the packet may not decode, which
    // is a Malformed ack); odd frames flip a payload bit after encoding
    // (the CRC catches it: a Corrupt ack).
    const FLIPPED: u64 = 40;
    {
        let mut conn = UnixStream::connect(&sock).unwrap();
        for seq in 0..FLIPPED {
            let report = Report::new(
                format!("fz-{seq}").into_bytes(),
                Location::new(seq as f32, 0.0),
                seq,
            );
            let mut pkt = Packet::new(report);
            for hop in 0..4u16 {
                let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
                scheme.mark(&ctx, &mut pkt, &mut rng);
            }
            let mut bytes = pkt.to_bytes();
            let flip = 1 << (seq % 8);
            if seq % 2 == 0 {
                let idx = (seq as usize * 31) % bytes.len();
                bytes[idx] ^= flip;
            }
            let mut frame = Envelope::ingest_seq(b"alpha", 1, seq, &bytes).encode();
            if seq % 2 == 1 {
                // Envelope header is 5 + tenant(5) + payload_len(4) = 14
                // bytes; flip strictly inside the payload.
                let payload_start = 14;
                let idx = payload_start + (seq as usize * 31) % (frame.len() - payload_start);
                frame[idx] ^= flip;
            }
            conn.write_all(&frame).unwrap();
        }
        conn.write_all(&Envelope::control(OpCode::Snapshot, b"alpha").encode())
            .unwrap();
        let responses = read_responses(&mut conn, FLIPPED as usize + 1);
        for (seq, resp) in responses[..FLIPPED as usize].iter().enumerate() {
            assert_eq!(resp.status, Status::Ok);
            let ack = IngestAck::decode(&resp.payload).unwrap();
            if seq % 2 == 0 {
                assert!(
                    matches!(ack.code, AckCode::Accepted | AckCode::Malformed),
                    "frame {seq}: {ack:?}"
                );
            } else {
                assert_eq!(ack, IngestAck::new(AckCode::Corrupt, 0), "frame {seq}");
            }
        }
        assert_eq!(responses[FLIPPED as usize].status, Status::Ok);
    }

    // 10 garbage connections: each stream's first frame is unambiguously
    // invalid, so each is exactly one counted bad frame + an Error
    // response + a close.
    const GARBAGE: u64 = 10;
    for i in 0..GARBAGE {
        let mut conn = UnixStream::connect(&sock).unwrap();
        let stream: Vec<u8> = match i % 5 {
            0 => b"\x00\x00\x00\x00".to_vec(),
            1 => b"Qmost-of-a-frame".to_vec(),
            2 => b"PG\xff".to_vec(),     // bad version
            3 => b"PG\x03\x7f".to_vec(), // bad opcode
            _ => {
                // Valid prefix, absurd declared payload length.
                let mut f = Envelope::ingest_seq(b"alpha", 1, 0, b"x").encode();
                f[10..14].copy_from_slice(&u32::MAX.to_be_bytes());
                f
            }
        };
        conn.write_all(&stream).unwrap();
        let mut raw = Vec::new();
        conn.read_to_end(&mut raw).unwrap();
        let (resp, _) = Response::decode(&raw, 1 << 20).unwrap().unwrap();
        assert_eq!(resp.status, Status::Error, "stream {i}");
    }

    // Books must balance exactly: accepted + malformed + corrupt == frames
    // sent, bad frames == garbage connections, and the gateway is still
    // alive.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let text = registry.metrics_text();
        let accepted = counter_value(&text, "pnm_gateway_ingested_total{tenant=\"alpha\"}");
        let malformed = counter_value(
            &text,
            "pnm_gateway_rejected_total{reason=\"malformed\",tenant=\"alpha\"}",
        );
        let corrupt = counter_value(
            &text,
            "pnm_gateway_rejected_total{reason=\"corrupt\",tenant=\"alpha\"}",
        );
        let bad: u64 = ["bad_magic", "bad_version", "bad_opcode", "oversized"]
            .iter()
            .map(|r| {
                counter_value(
                    &text,
                    &format!("pnm_gateway_bad_frames_total{{reason=\"{r}\"}}"),
                )
            })
            .sum();
        if accepted + malformed + corrupt == FLIPPED && bad == GARBAGE {
            assert!(
                malformed > 0,
                "bit flips in packet payloads should break some packets"
            );
            assert_eq!(corrupt, FLIPPED / 2, "every post-CRC flip is caught");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "counts never balanced: accepted={accepted} malformed={malformed} \
             corrupt={corrupt} bad={bad}\n{text}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    registry
        .drain(b"alpha")
        .expect("gateway still serving after hostile streams");
    handle.shutdown();
}
