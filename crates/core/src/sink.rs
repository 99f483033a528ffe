//! The staged sink engine: every sink-side duty behind one API.
//!
//! The paper's sink performs a fixed pipeline on every arriving packet:
//! admit it past the traffic classifier (§5), verify its marks backwards
//! (§4.1), resolve anonymous IDs to real ids (§4.2/§7), fold the verified
//! chain into the reconstructed route (§4.2), and maintain the quarantine
//! implied by the current localization (§7). Before this module each
//! simulation runner wired those pieces together by hand, cloning the whole
//! [`KeyStore`] for every verifier it built. [`SinkEngine`] owns the
//! pipeline instead:
//!
//! 1. **classify** — optional [`TrafficClassifier`] gate; benign packets
//!    never reach verification.
//! 2. **verify + resolve** — backward nested MAC verification with
//!    anonymous-ID resolution, either through a per-report [`AnonTable`]
//!    cache (brute-force §4.2) or a topology-guided [`TopologyResolver`]
//!    ring search (§7) when adjacency is configured.
//! 3. **reconstruct** — the verified chain feeds the [`RouteReconstructor`]
//!    order matrix.
//! 4. **localize / quarantine** — unequivocal-source tracking and, when an
//!    [`IsolationPolicy`] is configured, quarantine-set maintenance.
//!
//! The engine is built once from a [`SinkConfig`] plus a shared
//! `Arc<KeyStore>` and has one ingest call, [`SinkEngine::ingest`], taking
//! an [`Arrival`] record (a bare `&Packet` converts into the default one),
//! plus the total byte decoder [`SinkEngine::ingest_bytes`] in front of
//! it. The engine amortizes the expensive anonymous-ID work across
//! packets: a multi-entry table cache keyed by report bytes means `k`
//! distinct reports cost `k` table builds no matter how many packets carry
//! them, and reusable scratch buffers keep per-mark verification
//! allocation-free. Uniform instrumentation ([`SinkCounters`]) reports
//! hash evaluations, mark verdicts, cache behavior, and resolver
//! fallbacks.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::ops::{Add, AddAssign};
use std::sync::Arc;

use std::time::Instant;

use pnm_crypto::KeyStore;
use pnm_obs::{TraceContext, Tracer};
use pnm_wire::{NodeId, Packet, WireError};
use serde::{Deserialize, Serialize};

use crate::classifier::{TrafficClassifier, Verdict};
use crate::isolation::{quarantine_set, IsolationPolicy, QuarantineFilter};
use crate::reconstruct::{AnnotatedLocalization, Localization, RouteReconstructor, SourceRegion};
use crate::replay::DuplicateSuppressor;
use crate::stage::StageMetrics;
use crate::store::{Evidence, EvidenceStore, RecordKind, StoreError};
use crate::verify::{AnonTable, SinkVerifier, TopologyResolver, VerifiedChain, VerifyMode};

/// Default number of per-report anonymous-ID tables the engine keeps live.
///
/// A source mole must vary report content to evade duplicate suppression,
/// but retransmissions and loss-recovery re-deliver the same report; a
/// small LRU window captures those without letting a report-varying mole
/// inflate sink memory.
const DEFAULT_TABLE_CACHE_CAPACITY: usize = 8;

/// Build-time description of a sink pipeline.
///
/// Only the verify mode is mandatory; everything else defaults to the plain
/// §4.2 sink (brute-force anonymous-ID resolution, no admission control, no
/// quarantine).
#[derive(Clone, Debug)]
pub struct SinkConfig {
    mode: VerifyMode,
    table_cache_capacity: usize,
    table_build_threads: usize,
    adjacency: Option<HashMap<u16, Vec<u16>>>,
    max_radius: Option<usize>,
    classifier: Option<TrafficClassifier>,
    isolation: Option<IsolationPolicy>,
    dedup_capacity: Option<usize>,
    min_support: usize,
    tracer: Tracer,
    stage_timing: bool,
}

impl SinkConfig {
    /// A pipeline verifying under `mode` with all optional stages disabled.
    pub fn new(mode: VerifyMode) -> Self {
        SinkConfig {
            mode,
            table_cache_capacity: DEFAULT_TABLE_CACHE_CAPACITY,
            table_build_threads: 1,
            adjacency: None,
            max_radius: None,
            classifier: None,
            isolation: None,
            dedup_capacity: None,
            min_support: 1,
            tracer: Tracer::noop(),
            stage_timing: false,
        }
    }

    /// Sets how many per-report anonymous-ID tables stay cached (≥ 1).
    pub fn table_cache_capacity(mut self, capacity: usize) -> Self {
        self.table_cache_capacity = capacity.max(1);
        self
    }

    /// Builds anonymous-ID tables with `threads` workers
    /// ([`AnonTable::build_parallel_lanes_with`]); default 1 = one
    /// lane-parallel worker. The resulting tables — and therefore every
    /// verdict, localization, and counter — are identical at any thread
    /// count; only table-build latency on multi-core sinks changes.
    pub fn table_build_threads(mut self, threads: usize) -> Self {
        self.table_build_threads = threads.max(1);
        self
    }

    /// Supplies sink-known adjacency, switching anonymous-ID resolution to
    /// the §7 topology-guided ring search (and giving the quarantine stage
    /// its one-hop neighborhoods).
    pub fn topology(mut self, adjacency: HashMap<u16, Vec<u16>>) -> Self {
        self.adjacency = Some(adjacency);
        self
    }

    /// Ring-search radius before the resolver falls back to a full scan.
    pub fn max_search_radius(mut self, radius: usize) -> Self {
        self.max_radius = Some(radius);
        self
    }

    /// Installs an admission-control classifier in front of verification.
    pub fn classifier(mut self, classifier: TrafficClassifier) -> Self {
        self.classifier = Some(classifier);
        self
    }

    /// Enables the quarantine stage under the given policy.
    pub fn isolation(mut self, policy: IsolationPolicy) -> Self {
        self.isolation = Some(policy);
        self
    }

    /// Enables idempotent duplicate suppression: a packet whose encoded
    /// bytes were already ingested (within the last `capacity` distinct
    /// packets) is rejected as [`RejectReason::Duplicate`] without touching
    /// any evidence. Duplicating links (MAC retransmissions, fault
    /// injection) then cannot skew support counts or rate windows.
    pub fn dedup(mut self, capacity: usize) -> Self {
        self.dedup_capacity = Some(capacity.max(1));
        self
    }

    /// Requires `n` supporting chains before
    /// [`SinkEngine::localize_annotated`] reports a single most-upstream
    /// node; thinner evidence widens to a region (default 1 = never widen).
    pub fn min_localization_support(mut self, n: usize) -> Self {
        self.min_support = n.max(1);
        self
    }

    /// Attaches a tracer. Untraced ingest emits one packet-level
    /// `sink.ingest` span plus table-build instants — cheap enough to
    /// keep armed permanently for the flight recorder. Packets carrying
    /// a [`TraceContext`] additionally get per-stage spans
    /// (`sink.classify`, `sink.verify`, `sink.resolve`,
    /// `sink.reconstruct`, `sink.localize`) as children of the trace.
    /// The default [`Tracer::noop`] is inert — the pipeline pays one
    /// branch per stage.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Enables per-stage latency histograms
    /// ([`SinkEngine::stage_metrics`]) without requiring a tracer — and a
    /// tracer does not imply them: spans already carry their own
    /// durations, so the histograms are a separate, explicit opt-in
    /// rather than a second set of clock reads taxing every traced
    /// packet. Default off: the uninstrumented pipeline never reads the
    /// clock.
    pub fn stage_timing(mut self, on: bool) -> Self {
        self.stage_timing = on;
        self
    }

    /// The configured verify mode.
    pub fn mode(&self) -> VerifyMode {
        self.mode
    }

    /// The configured isolation policy, if any.
    pub fn isolation_policy(&self) -> Option<IsolationPolicy> {
        self.isolation
    }

    /// Drops the isolation stage from this config.
    ///
    /// A sharded service builds its per-shard engines from a config with
    /// isolation stripped: shard-local quarantine decisions would depend on
    /// which packets a shard happened to see, so the service instead applies
    /// the policy once, on the cross-shard merged route graph.
    pub fn without_isolation(mut self) -> Self {
        self.isolation = None;
        self
    }
}

/// Uniform instrumentation across every pipeline stage.
///
/// All counts are cumulative since engine construction. Batch and
/// per-packet ingestion update them identically. Counters from several
/// engines (e.g. the shards of a service pool) combine with
/// [`SinkCounters::merge`] or `+=` — every field is a plain sum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SinkCounters {
    /// Packets offered to the pipeline (including classified-out ones).
    pub packets: usize,
    /// Total `H'` evaluations spent on anonymous-ID resolution (table
    /// builds plus ring searches).
    pub hash_count: usize,
    /// Marks whose MAC verified.
    pub marks_verified: usize,
    /// Marks rejected (invalid MAC, unknown key, or unreachable past the
    /// first invalid mark).
    pub marks_rejected: usize,
    /// Anonymous-ID tables built.
    pub table_builds: usize,
    /// Verifications served by an already-cached table.
    pub table_cache_hits: usize,
    /// Topology resolutions that missed the ring search and fell back to
    /// the full sorted scan.
    pub resolver_fallback_scans: usize,
    /// Packets the classifier admitted as suspicious.
    pub suspicious: usize,
    /// Packets the classifier rejected as benign (never verified).
    pub benign: usize,
    /// Byte buffers that failed wire decoding (corrupted/garbled input).
    pub malformed: usize,
    /// Packets rejected as exact duplicates of an already-ingested packet.
    pub duplicates_suppressed: usize,
}

impl SinkCounters {
    /// Fraction of nested verifications served from the table cache
    /// (`hits / (hits + builds)`); `None` before any nested verification.
    pub fn table_cache_hit_rate(&self) -> Option<f64> {
        let total = self.table_builds + self.table_cache_hits;
        (total > 0).then(|| self.table_cache_hits as f64 / total as f64)
    }

    /// Folds another engine's counters into this one (field-wise sum).
    pub fn merge(&mut self, other: &SinkCounters) {
        *self += *other;
    }
}

impl AddAssign for SinkCounters {
    fn add_assign(&mut self, rhs: SinkCounters) {
        self.packets += rhs.packets;
        self.hash_count += rhs.hash_count;
        self.marks_verified += rhs.marks_verified;
        self.marks_rejected += rhs.marks_rejected;
        self.table_builds += rhs.table_builds;
        self.table_cache_hits += rhs.table_cache_hits;
        self.resolver_fallback_scans += rhs.resolver_fallback_scans;
        self.suspicious += rhs.suspicious;
        self.benign += rhs.benign;
        self.malformed += rhs.malformed;
        self.duplicates_suppressed += rhs.duplicates_suppressed;
    }
}

impl Add for SinkCounters {
    type Output = SinkCounters;

    fn add(mut self, rhs: SinkCounters) -> SinkCounters {
        self += rhs;
        self
    }
}

impl std::iter::Sum for SinkCounters {
    fn sum<I: Iterator<Item = SinkCounters>>(iter: I) -> SinkCounters {
        iter.fold(SinkCounters::default(), Add::add)
    }
}

/// Why the pipeline refused a packet before verification.
///
/// Rejections are *counted outcomes*, never panics: the sink must stay
/// total over whatever the network delivers, including corrupted frames
/// and replayed duplicates.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RejectReason {
    /// The bytes did not decode as a wire packet (bit corruption,
    /// truncation, garbage injection). Carries the structured decode error.
    Malformed(WireError),
    /// The exact packet bytes were already ingested; suppressing the copy
    /// keeps ingestion idempotent under duplicating links.
    Duplicate,
}

/// One packet's arrival at an ingest layer: the packet, the arrival clock
/// the classifier's rate window reads, and the trace context the pass runs
/// under.
///
/// Every ingest layer — [`SinkEngine::ingest`] over a borrowed packet, the
/// service pool over an owned one — takes this one record. A bare packet
/// converts into the default record ([`Arrival::new`]): stamped with its
/// report's own timestamp (the simulators deliver reports stamped at send
/// time) and untraced. Tracing is observation only: the context never
/// changes an outcome, a counter, or an evidence byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival<P> {
    /// The packet (`&Packet` at the engine, `Packet` across a queue).
    pub packet: P,
    /// Arrival clock in microseconds, for the classifier's rate window.
    pub now_us: u64,
    /// Causal context; [`TraceContext::NONE`] when untraced.
    pub ctx: TraceContext,
}

impl<P: Borrow<Packet>> Arrival<P> {
    /// The default record: the report's own timestamp, untraced.
    pub fn new(packet: P) -> Self {
        let now_us = packet.borrow().report.timestamp;
        Arrival {
            packet,
            now_us,
            ctx: TraceContext::NONE,
        }
    }

    /// Overrides the arrival clock.
    pub fn at(mut self, now_us: u64) -> Self {
        self.now_us = now_us;
        self
    }

    /// Runs the pass inside `ctx`.
    pub fn traced(mut self, ctx: TraceContext) -> Self {
        self.ctx = ctx;
        self
    }

    /// The same arrival over a borrowed packet.
    pub fn as_ref(&self) -> Arrival<&Packet> {
        Arrival {
            packet: self.packet.borrow(),
            now_us: self.now_us,
            ctx: self.ctx,
        }
    }
}

impl<'a, P: Borrow<Packet>> From<&'a P> for Arrival<&'a Packet> {
    fn from(packet: &'a P) -> Self {
        Arrival::new(packet.borrow())
    }
}

impl From<Packet> for Arrival<Packet> {
    fn from(packet: Packet) -> Self {
        Arrival::new(packet)
    }
}

/// What the pipeline decided about one packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SinkOutcome {
    /// The classifier's verdict; `None` when no classifier is configured
    /// (every packet proceeds to verification).
    pub verdict: Option<Verdict>,
    /// The verified chain; `None` when the classifier rejected the packet
    /// as benign before verification or the packet was rejected outright.
    pub chain: Option<VerifiedChain>,
    /// Set when the packet was refused before verification (malformed
    /// bytes, suppressed duplicate); `None` on every admitted or
    /// classified packet.
    pub reject: Option<RejectReason>,
}

impl SinkOutcome {
    /// `true` if the packet reached the verify stage.
    pub fn admitted(&self) -> bool {
        self.chain.is_some()
    }

    /// `true` if the packet was refused before classification (malformed
    /// or duplicate).
    pub fn rejected(&self) -> bool {
        self.reject.is_some()
    }
}

/// The staged, batch-oriented sink: classify → verify/resolve →
/// reconstruct → localize/quarantine.
///
/// See the [module docs](self) for the pipeline description.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pnm_core::{MarkingScheme, NodeContext, ProbabilisticNestedMarking, SinkConfig, SinkEngine, VerifyMode};
/// use pnm_crypto::KeyStore;
/// use pnm_wire::{Location, NodeId, Packet, Report};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let keys = Arc::new(KeyStore::derive_from_master(b"deployment", 10));
/// let scheme = ProbabilisticNestedMarking::paper_default(10);
/// let mut sink = SinkEngine::new(Arc::clone(&keys), SinkConfig::new(VerifyMode::Nested));
/// let mut rng = StdRng::seed_from_u64(7);
///
/// for seq in 0..100u64 {
///     let report = Report::new(format!("bogus-{seq}").into_bytes(), Location::new(0.0, 0.0), seq);
///     let mut pkt = Packet::new(report);
///     for hop in 0..10u16 {
///         let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
///         scheme.mark(&ctx, &mut pkt, &mut rng);
///     }
///     sink.ingest(&pkt);
/// }
/// assert_eq!(sink.unequivocal_source(), Some(NodeId(0)));
/// assert!(sink.counters().hash_count > 0);
/// ```
#[derive(Clone, Debug)]
pub struct SinkEngine {
    keys: Arc<KeyStore>,
    mode: VerifyMode,
    verifier: SinkVerifier,
    resolver: Option<TopologyResolver>,
    adjacency: Option<HashMap<u16, Vec<u16>>>,
    classifier: Option<TrafficClassifier>,
    isolation: Option<IsolationPolicy>,
    reconstructor: RouteReconstructor,
    /// LRU cache of per-report anonymous-ID tables, most recent last.
    table_cache: Vec<(Vec<u8>, AnonTable)>,
    table_cache_capacity: usize,
    table_build_threads: usize,
    /// Reusable MAC-message buffer (shared across marks and packets).
    scratch: Vec<u8>,
    /// Reusable candidate-id buffer for anonymous-ID disambiguation.
    cand_buf: Vec<u16>,
    counters: SinkCounters,
    first_unequivocal: Option<usize>,
    quarantine: QuarantineFilter,
    last_quarantined_source: Option<NodeId>,
    dedup: Option<DuplicateSuppressor>,
    min_support: usize,
    tracer: Tracer,
    stage_timing: bool,
    stages: StageMetrics,
    store: Option<EngineStore>,
    /// Trace context of the packet currently in the pipeline
    /// ([`TraceContext::NONE`] for an untraced [`Arrival`]):
    /// stage spans open as its children, so one wire-carried context
    /// turns the whole staged pass into one correlated trace.
    current_ctx: TraceContext,
}

/// An attached evidence store plus the high-water mark of what it has
/// already been given, so checkpoints append only the delta.
#[derive(Clone, Debug)]
struct EngineStore {
    store: Arc<dyn EvidenceStore>,
    shard: u32,
    last_persisted: Evidence,
}

/// A lap clock for stage timing: reads the monotonic clock only when
/// instrumentation is on, so the default pipeline stays clock-free.
struct StageClock(Option<Instant>);

impl StageClock {
    fn start(enabled: bool) -> Self {
        StageClock(enabled.then(Instant::now))
    }

    /// Nanoseconds since start/previous lap; 0 (and no clock read) when
    /// disabled. Nanosecond resolution matters: the classify and localize
    /// stages run well under a microsecond, so coarser laps record 0 at
    /// every percentile.
    fn lap_ns(&mut self) -> u64 {
        match &mut self.0 {
            Some(t) => {
                let elapsed = t.elapsed().as_nanos() as u64;
                *t = Instant::now();
                elapsed
            }
            None => 0,
        }
    }

    fn enabled(&self) -> bool {
        self.0.is_some()
    }
}

impl SinkEngine {
    /// Builds the pipeline once from a config and the deployment keys.
    /// Accepts either an owned [`KeyStore`] or a shared `Arc<KeyStore>`;
    /// every stage holds the same `Arc`, so construction never copies key
    /// material.
    pub fn new(keys: impl Into<Arc<KeyStore>>, config: SinkConfig) -> Self {
        let keys = keys.into();
        let resolver = config.adjacency.clone().map(|adj| {
            let r = TopologyResolver::new(Arc::clone(&keys), adj);
            match config.max_radius {
                Some(radius) => r.with_max_radius(radius),
                None => r,
            }
        });
        SinkEngine {
            verifier: SinkVerifier::new(Arc::clone(&keys)),
            keys,
            mode: config.mode,
            resolver,
            adjacency: config.adjacency,
            classifier: config.classifier,
            isolation: config.isolation,
            reconstructor: RouteReconstructor::new(),
            table_cache: Vec::new(),
            table_cache_capacity: config.table_cache_capacity,
            table_build_threads: config.table_build_threads,
            scratch: Vec::new(),
            cand_buf: Vec::new(),
            counters: SinkCounters::default(),
            first_unequivocal: None,
            quarantine: QuarantineFilter::new(),
            last_quarantined_source: None,
            dedup: config.dedup_capacity.map(DuplicateSuppressor::new),
            min_support: config.min_support,
            tracer: config.tracer,
            stage_timing: config.stage_timing,
            stages: StageMetrics::new(),
            store: None,
            current_ctx: TraceContext::NONE,
        }
    }

    /// Runs one arrival through the full pipeline. A bare `&Packet`
    /// converts into the default [`Arrival`]: stamped with the report's own
    /// timestamp, untraced.
    ///
    /// With a traced context and an attached tracer, the pass opens one
    /// `sink.ingest` span as a child of the context and every stage span
    /// (`sink.classify` … `sink.localize`) opens under it — so a context
    /// carried from the gateway wire renders the packet's whole shard pass
    /// inside its originating trace. Counters, outcomes, and evidence never
    /// depend on tracing.
    pub fn ingest<'a>(&mut self, arrival: impl Into<Arrival<&'a Packet>>) -> SinkOutcome {
        let Arrival {
            packet,
            now_us,
            ctx,
        } = arrival.into();
        let ingest_span = if ctx.is_traced() && self.tracer.enabled() {
            let span = self.tracer.span_in("sink.ingest", ctx);
            self.current_ctx = span.context().unwrap_or(TraceContext::NONE);
            Some(span)
        } else {
            None
        };
        let outcome = self.ingest_staged(packet, now_us);
        drop(ingest_span);
        self.current_ctx = TraceContext::NONE;
        outcome
    }

    /// Runs raw received bytes through the pipeline, stamped with the
    /// decoded report's own timestamp.
    ///
    /// This entry point is **total**: bytes that fail wire decoding become
    /// a counted [`RejectReason::Malformed`] outcome — never a panic, never
    /// an `unwrap` on [`WireError`] — so the sink survives whatever a
    /// corrupting channel delivers.
    pub fn ingest_bytes(&mut self, bytes: &[u8]) -> SinkOutcome {
        match Packet::from_bytes(bytes) {
            Ok(packet) => self.ingest(&packet),
            Err(error) => {
                self.counters.packets += 1;
                self.counters.malformed += 1;
                SinkOutcome {
                    verdict: None,
                    chain: None,
                    reject: Some(RejectReason::Malformed(error)),
                }
            }
        }
    }

    /// The staged pipeline body behind [`SinkEngine::ingest`].
    fn ingest_staged(&mut self, packet: &Packet, now_us: u64) -> SinkOutcome {
        self.counters.packets += 1;
        let ctx = self.current_ctx;
        let tracer = self.tracer.clone();
        let mut clock = StageClock::start(self.stage_timing);

        // Untraced ingest under an armed collector records one
        // packet-level span, so a flight-recorder black-box still shows
        // the packet timeline around an anomaly. Per-stage spans (below,
        // via `span_traced`) open only inside a carried trace: without a
        // trace id they would be orphan detail nobody can correlate, and
        // on the hot path they are the difference between a ~2% and a
        // ~8% always-on overhead (see `bench_obs`). Traced entry points
        // already opened `sink.ingest` inside the trace.
        let _packet_span = if ctx.is_traced() {
            None
        } else {
            Some(tracer.span("sink.ingest"))
        };

        // Stage 0: idempotent duplicate suppression (when configured).
        // Runs before the classifier so duplicated frames cannot skew its
        // rate window, and before verification so they cost no hashes.
        // Timed as part of classify: both are admission gates.
        let mut classify_span = tracer.span_traced("sink.classify", ctx);
        if let Some(dedup) = &mut self.dedup {
            if !dedup.observe(&packet.to_bytes()) {
                self.counters.duplicates_suppressed += 1;
                classify_span.field("duplicate", true);
                drop(classify_span);
                if clock.enabled() {
                    self.stages.classify.record(clock.lap_ns());
                }
                return SinkOutcome {
                    verdict: None,
                    chain: None,
                    reject: Some(RejectReason::Duplicate),
                };
            }
        }

        // Stage 1: classify/admit.
        let verdict = self
            .classifier
            .as_mut()
            .map(|c| c.classify(&packet.report, now_us));
        match verdict {
            Some(Verdict::Benign) => {
                self.counters.benign += 1;
                classify_span.field("benign", true);
                drop(classify_span);
                if clock.enabled() {
                    self.stages.classify.record(clock.lap_ns());
                }
                return SinkOutcome {
                    verdict,
                    chain: None,
                    reject: None,
                };
            }
            Some(Verdict::Suspicious) => self.counters.suspicious += 1,
            None => {}
        }
        drop(classify_span);
        if clock.enabled() {
            self.stages.classify.record(clock.lap_ns());
        }

        // Stages 2–3: verify marks, resolving anonymous IDs.
        let verify_span = tracer.span_traced("sink.verify", ctx);
        let (chain, resolve_ns) = self.verify_stage(packet);
        drop(verify_span);
        if clock.enabled() {
            // The verify histogram is net of resolution time, so
            // verify + resolve sums to the measured wall time.
            let total_ns = clock.lap_ns();
            self.stages.resolve.record(resolve_ns);
            self.stages
                .verify
                .record(total_ns.saturating_sub(resolve_ns));
        }
        self.counters.marks_verified += chain.nodes.len();
        self.counters.marks_rejected += chain.total_marks - chain.nodes.len();

        // Stage 4: fold into the reconstructed route.
        let reconstruct_span = tracer.span_traced("sink.reconstruct", ctx);
        self.reconstructor.observe_chain(&chain.nodes);
        if self.first_unequivocal.is_none() && self.reconstructor.is_unequivocal() {
            self.first_unequivocal = Some(self.counters.packets);
        }
        drop(reconstruct_span);
        if clock.enabled() {
            self.stages.reconstruct.record(clock.lap_ns());
        }

        // Stage 5: quarantine maintenance (cheap: only runs on a new
        // unequivocal source).
        let localize_span = tracer.span_traced("sink.localize", ctx);
        self.update_quarantine();
        drop(localize_span);
        if clock.enabled() {
            self.stages.localize.record(clock.lap_ns());
        }

        SinkOutcome {
            verdict,
            chain: Some(chain),
            reject: None,
        }
    }

    /// Folds another engine's accumulated evidence into this one: counters
    /// sum, route graphs union ([`RouteReconstructor::merge`]), and
    /// quarantine sets union ([`QuarantineFilter::merge`]).
    ///
    /// This is the cross-shard merge a sharded traceback service performs
    /// at snapshot/drain time: because the route graph and quarantine set
    /// are set unions, absorbing shard engines in any order yields exactly
    /// the evidence a single engine would have accumulated over the whole
    /// stream. Both engines must verify under the same mode (debug-asserted);
    /// the absorbing engine keeps its own table cache and scratch buffers.
    /// `first_unequivocal` becomes the smaller of the two packet indices —
    /// a best-effort diagnostic, since shard-local packet counts are not a
    /// global arrival order. After absorbing, the quarantine stage re-runs
    /// on the next trigger (the merged graph may localize differently).
    /// Duplicate-suppression windows are engine-local and not merged; a
    /// partitioned deployment relies on duplicates hashing to the same
    /// partition (they do — identical bytes share a report).
    ///
    /// **Interaction with an attached store:** absorb merges in memory
    /// only — it appends nothing and does not advance the persistence
    /// high-water mark, so the absorbed evidence is carried by the *next*
    /// [`SinkEngine::checkpoint_to_store`] delta exactly once. Replaying
    /// the store therefore never double-counts absorbed evidence. The
    /// other engine's store attachment (if any) is not taken over.
    pub fn absorb(&mut self, other: &SinkEngine) {
        debug_assert_eq!(self.mode, other.mode, "absorbing mismatched verify modes");
        self.counters += other.counters;
        self.stages.merge(&other.stages);
        self.reconstructor.merge(&other.reconstructor);
        self.quarantine.merge(&other.quarantine);
        self.first_unequivocal = match (self.first_unequivocal, other.first_unequivocal) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_quarantined_source = None;
    }

    /// Verify + anonymous-ID resolution for one admitted packet. Returns
    /// the chain plus the nanoseconds spent on anonymous-ID resolution
    /// (0 when stage timing is off).
    fn verify_stage(&mut self, packet: &Packet) -> (VerifiedChain, u64) {
        if self.mode != VerifyMode::Nested {
            return (self.verifier.verify(packet, self.mode), 0);
        }
        let timed = self.stage_timing;
        let report_bytes = packet.report.to_bytes();
        if let Some(resolver) = &self.resolver {
            // §7 topology-guided resolution: no table build at all; each
            // anonymous ID is searched ring by ring from the previously
            // verified node. Resolution is interleaved with verification,
            // so its time is accumulated per call, not spanned.
            let mut hashes = 0usize;
            let mut fallbacks = 0usize;
            let mut resolve_ns = 0u128;
            let chain = self.verifier.verify_nested_with(
                packet,
                &mut self.scratch,
                &mut self.cand_buf,
                &mut |aid, anchor, out| {
                    let start = timed.then(Instant::now);
                    match resolver.resolve(&report_bytes, aid, anchor) {
                        Some(res) => {
                            hashes += res.hash_count;
                            fallbacks += res.via_fallback as usize;
                            out.push(res.id.raw());
                        }
                        None => {
                            // Unresolvable: the resolver scanned everything.
                            hashes += resolver.keys().len();
                            fallbacks += 1;
                        }
                    }
                    if let Some(start) = start {
                        resolve_ns += start.elapsed().as_nanos();
                    }
                },
            );
            self.counters.hash_count += hashes;
            self.counters.resolver_fallback_scans += fallbacks;
            return (chain, resolve_ns as u64);
        }
        // Brute-force §4.2 resolution through the per-report table cache:
        // resolution cost is the table lookup/build, so that is what the
        // resolve stage measures.
        let start = timed.then(Instant::now);
        let resolve_span = self
            .tracer
            .clone()
            .span_traced("sink.resolve", self.current_ctx);
        let idx = self.lookup_or_build_table(&report_bytes);
        drop(resolve_span);
        let resolve_ns = start.map_or(0, |s| s.elapsed().as_nanos() as u64);
        // Stage every mark's candidate MAC message, check all tags in one
        // lane-parallel sweep, then replay the stop-at-first-invalid walk.
        // Verdict-identical to the scalar walk (pinned by test).
        let table = &self.table_cache[idx].1;
        let chain = self
            .verifier
            .verify_batched_impl(packet, table, &mut self.scratch);
        (chain, resolve_ns)
    }

    /// Returns the cache index of the table for `report_bytes`, building
    /// and inserting it (LRU eviction) on a miss.
    fn lookup_or_build_table(&mut self, report_bytes: &[u8]) -> usize {
        if let Some(pos) = self
            .table_cache
            .iter()
            .position(|(rb, _)| rb == report_bytes)
        {
            // No instant event on a hit: hits are the per-packet common
            // case and the counter already tells the story; only the rare
            // (expensive) table build below is worth a trace line.
            self.counters.table_cache_hits += 1;
            // Move to the back: most recently used.
            let entry = self.table_cache.remove(pos);
            self.table_cache.push(entry);
        } else {
            let table = AnonTable::build_parallel_lanes_with(
                &self.keys.schedule(),
                report_bytes,
                self.table_build_threads,
            );
            self.counters.table_builds += 1;
            self.counters.hash_count += table.hash_count;
            self.tracer
                .event_in("sink.table_build", self.current_ctx, |f| {
                    f.push(("hashes", table.hash_count.into()));
                    f.push(("threads", self.table_build_threads.into()));
                });
            if self.table_cache.len() >= self.table_cache_capacity {
                self.table_cache.remove(0);
            }
            self.table_cache.push((report_bytes.to_vec(), table));
        }
        self.table_cache.len() - 1
    }

    /// Quarantines around the unequivocal source when it first appears (or
    /// changes). No-op without an isolation policy.
    fn update_quarantine(&mut self) {
        let Some(policy) = self.isolation else {
            return;
        };
        let Some(src) = self.reconstructor.unequivocal_source() else {
            return;
        };
        if self.last_quarantined_source == Some(src) {
            return;
        }
        self.last_quarantined_source = Some(src);
        self.apply_quarantine(&Localization::MostUpstream(src), policy);
    }

    fn apply_quarantine(&mut self, localization: &Localization, policy: IsolationPolicy) {
        let adjacency = self.adjacency.as_ref();
        let set = quarantine_set(localization, policy, |n| {
            adjacency
                .and_then(|a| a.get(&n.raw()))
                .map(|v| v.iter().copied().map(NodeId).collect())
                .unwrap_or_default()
        });
        self.quarantine.quarantine(set);
    }

    /// Recomputes the quarantine from the full current localization
    /// (including loops and ambiguity), folding it into the filter.
    /// No-op without an isolation policy.
    pub fn refresh_quarantine(&mut self) -> &QuarantineFilter {
        if let Some(policy) = self.isolation {
            let localization = self.reconstructor.localize();
            self.apply_quarantine(&localization, policy);
        }
        &self.quarantine
    }

    /// Quarantines the head of every reconstructed source region under the
    /// configured policy — the end-of-round sweep a multi-mole deployment
    /// runs (§7). No-op without an isolation policy.
    pub fn quarantine_source_regions(&mut self) -> &QuarantineFilter {
        if let Some(policy) = self.isolation {
            for region in self.reconstructor.source_regions() {
                self.apply_quarantine(&Localization::MostUpstream(region.head), policy);
            }
        }
        &self.quarantine
    }

    /// The shared deployment key table.
    pub fn keys(&self) -> &Arc<KeyStore> {
        &self.keys
    }

    /// The configured verify mode.
    pub fn mode(&self) -> VerifyMode {
        self.mode
    }

    /// Read access to the verify stage (for one-off out-of-band checks).
    pub fn verifier(&self) -> &SinkVerifier {
        &self.verifier
    }

    /// Per-stage latency histograms. Empty unless
    /// [`SinkConfig::stage_timing`] was enabled.
    pub fn stage_metrics(&self) -> &StageMetrics {
        &self.stages
    }

    /// Snapshot of the pipeline's instrumentation counters.
    pub fn counters(&self) -> SinkCounters {
        self.counters
    }

    /// Current localization decision.
    pub fn localize(&self) -> Localization {
        self.reconstructor.localize()
    }

    /// Current localization with its support/confidence annotation, under
    /// the configured minimum support
    /// ([`SinkConfig::min_localization_support`]): thin evidence degrades
    /// to a wider [`Localization::Ambiguous`] region instead of a single
    /// possibly-wrong node.
    pub fn localize_annotated(&self) -> AnnotatedLocalization {
        self.reconstructor.localize_annotated(self.min_support)
    }

    /// Reconstructed source regions (multi-mole deployments).
    pub fn source_regions(&self) -> Vec<SourceRegion> {
        self.reconstructor.source_regions()
    }

    /// The unequivocally identified most-upstream node, if reached.
    pub fn unequivocal_source(&self) -> Option<NodeId> {
        self.reconstructor.unequivocal_source()
    }

    /// Packets offered to the pipeline so far.
    pub fn packets_ingested(&self) -> usize {
        self.counters.packets
    }

    /// The packet count at which identification first became unequivocal.
    pub fn first_unequivocal(&self) -> Option<usize> {
        self.first_unequivocal
    }

    /// Distinct nodes whose marks have been collected (Figure 5's metric).
    pub fn observed_count(&self) -> usize {
        self.reconstructor.observed_count()
    }

    /// Read access to the underlying reconstructor.
    pub fn reconstructor(&self) -> &RouteReconstructor {
        &self.reconstructor
    }

    /// The quarantine filter maintained by the isolation stage.
    pub fn quarantine(&self) -> &QuarantineFilter {
        &self.quarantine
    }

    /// Exports the engine's accumulated traceback evidence — counters,
    /// route graph with support counts, quarantine set, and the
    /// first-unequivocal packet index — as one serializable [`Evidence`]
    /// value. Transient state (dedup window, table cache, scratch
    /// buffers, stage latency histograms) is deliberately excluded: it is
    /// either reproducible or observability, not evidence.
    pub fn evidence(&self) -> Evidence {
        let r = &self.reconstructor;
        Evidence {
            counters: self.counters,
            chains_observed: r.chains_observed(),
            nodes: r.nodes_set().clone(),
            edges: r.edge_pairs().collect(),
            head_support: r.head_support_map().clone(),
            edge_support: r.edge_support_map().clone(),
            quarantined: self.quarantine.quarantined().map(|n| n.raw()).collect(),
            first_unequivocal: self.first_unequivocal.map(|v| v as u64),
        }
    }

    /// Merges previously exported evidence into this engine — the replay
    /// half of crash recovery. Same monoid semantics as
    /// [`SinkEngine::absorb`]: counters sum, route graph and quarantine
    /// union, `first_unequivocal` takes the minimum. Installing the
    /// evidence of an uninterrupted run into a fresh engine reproduces
    /// its localization, quarantine, and counters exactly.
    pub fn install_evidence(&mut self, evidence: &Evidence) {
        self.counters += evidence.counters;
        self.reconstructor.install(
            evidence.nodes.iter().copied(),
            evidence.edges.iter().copied(),
            evidence.chains_observed,
            evidence.head_support.iter().map(|(&n, &c)| (n, c)),
            evidence.edge_support.iter().map(|(&e, &c)| (e, c)),
        );
        self.quarantine.quarantine(evidence.quarantined_nodes());
        self.first_unequivocal = match (
            self.first_unequivocal,
            evidence.first_unequivocal.map(|v| v as usize),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_quarantined_source = None;
    }

    /// Attaches a persistence backend. The engine's *current* evidence
    /// becomes the persistence high-water mark — it is presumed already
    /// in the store (true both for a fresh engine and for one just
    /// rebuilt via [`SinkEngine::install_evidence`] from that store), so
    /// the first checkpoint appends only what happens after attachment.
    pub fn attach_store(&mut self, store: Arc<dyn EvidenceStore>, shard: u32) {
        self.store = Some(EngineStore {
            shard,
            last_persisted: self.evidence(),
            store,
        });
    }

    /// Whether a persistence backend is attached.
    pub fn store_attached(&self) -> bool {
        self.store.is_some()
    }

    /// Appends the evidence accumulated since the last checkpoint (or
    /// attachment) to the attached store as one delta record. Returns
    /// `Ok(false)` when nothing changed (no record written).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotAttached`] without a store; otherwise whatever
    /// the backend's append returns. On error the high-water mark is not
    /// advanced, so the failed delta is retried in full by the next
    /// checkpoint.
    pub fn checkpoint_to_store(&mut self) -> Result<bool, StoreError> {
        let now = self.evidence();
        let Some(attached) = &mut self.store else {
            return Err(StoreError::NotAttached);
        };
        let delta = now.delta_since(&attached.last_persisted);
        if delta.is_empty() {
            return Ok(false);
        }
        attached
            .store
            .append(attached.shard, RecordKind::Delta, &delta)?;
        attached.last_persisted = now;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{EventRegistry, TrafficClassifier};
    use crate::config::MarkingConfig;
    use crate::scheme::{
        ExtendedAms, MarkingScheme, NestedMarking, NodeContext, PlainMarking,
        ProbabilisticNestedMarking,
    };
    use pnm_wire::{Location, Report};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Compile-time guarantee that engines can move onto worker threads and
    /// be shared behind references: `SinkEngine` (and the pieces it embeds)
    /// must stay `Send + Sync`. Breaking this — e.g. by reintroducing
    /// `Cell`/`Rc` interior mutability — fails the build of this test.
    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SinkEngine>();
        assert_send_sync::<SinkConfig>();
        assert_send_sync::<SinkCounters>();
        assert_send_sync::<SinkOutcome>();
        assert_send_sync::<RouteReconstructor>();
        assert_send_sync::<QuarantineFilter>();
        assert_send_sync::<TrafficClassifier>();
    }

    fn keys(n: u16) -> Arc<KeyStore> {
        Arc::new(KeyStore::derive_from_master(b"sink-test", n))
    }

    fn packet(
        ks: &KeyStore,
        scheme: &dyn MarkingScheme,
        n: u16,
        seq: u64,
        rng: &mut StdRng,
    ) -> Packet {
        let report = Report::new(
            format!("ev-{seq}").into_bytes(),
            Location::new(seq as f32, 0.0),
            seq,
        );
        let mut pkt = Packet::new(report);
        for i in 0..n {
            let ctx = NodeContext::new(NodeId(i), *ks.key(i).unwrap());
            scheme.mark(&ctx, &mut pkt, rng);
        }
        pkt
    }

    fn chain_adjacency(n: u16) -> HashMap<u16, Vec<u16>> {
        (0..n)
            .map(|i| {
                let mut neigh = Vec::new();
                if i > 0 {
                    neigh.push(i - 1);
                }
                if i + 1 < n {
                    neigh.push(i + 1);
                }
                (i, neigh)
            })
            .collect()
    }

    #[test]
    fn engine_converges_like_locator() {
        let n = 10u16;
        let ks = keys(n);
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut engine = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        let mut rng = StdRng::seed_from_u64(11);
        for seq in 0..200 {
            let pkt = packet(&ks, &scheme, n, seq, &mut rng);
            let out = engine.ingest(&pkt);
            assert!(out.admitted());
            assert!(out.verdict.is_none());
        }
        assert_eq!(engine.packets_ingested(), 200);
        assert_eq!(engine.unequivocal_source(), Some(NodeId(0)));
        assert!(engine.first_unequivocal().unwrap() < 200);
        let c = engine.counters();
        assert_eq!(c.packets, 200);
        // 200 distinct reports, cache capacity 8: every report builds.
        assert_eq!(c.table_builds, 200);
        assert_eq!(c.hash_count, 200 * n as usize);
        assert!(c.marks_verified > 0);
    }

    #[test]
    fn table_cache_amortizes_same_report() {
        let n = 8u16;
        let ks = keys(n);
        let cfg = MarkingConfig::builder().marking_probability(1.0).build();
        let scheme = ProbabilisticNestedMarking::new(cfg);
        let mut rng = StdRng::seed_from_u64(3);
        let pkt = packet(&ks, &scheme, n, 1, &mut rng);
        let mut engine = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        for _ in 0..5 {
            engine.ingest(&pkt);
        }
        let c = engine.counters();
        assert_eq!(c.table_builds, 1);
        assert_eq!(c.table_cache_hits, 4);
        assert_eq!(c.hash_count, n as usize);
        assert_eq!(c.table_cache_hit_rate(), Some(0.8));
    }

    #[test]
    fn table_cache_evicts_lru() {
        let n = 4u16;
        let ks = keys(n);
        let cfg = MarkingConfig::builder().marking_probability(1.0).build();
        let scheme = ProbabilisticNestedMarking::new(cfg);
        let mut rng = StdRng::seed_from_u64(4);
        let cfg_sink = SinkConfig::new(VerifyMode::Nested).table_cache_capacity(2);
        let mut engine = SinkEngine::new(Arc::clone(&ks), cfg_sink);
        let pkts: Vec<Packet> = (0..3)
            .map(|s| packet(&ks, &scheme, n, s, &mut rng))
            .collect();
        // 0, 1, 2 fill and overflow the 2-entry cache; 0 was evicted.
        for p in &pkts {
            engine.ingest(p);
        }
        engine.ingest(&pkts[0]);
        let c = engine.counters();
        assert_eq!(c.table_builds, 4);
        assert_eq!(c.table_cache_hits, 0);
        // 2 is still cached (most recent before the re-ingest of 0).
        engine.ingest(&pkts[2]);
        assert_eq!(engine.counters().table_cache_hits, 1);
    }

    #[test]
    fn topology_resolution_uses_fewer_hashes() {
        // Large network, short path: ring search touches ~2 keys per mark
        // while the brute-force table hashes all 300 provisioned nodes.
        let network = 300u16;
        let path = 20u16;
        let ks = keys(network);
        let cfg = MarkingConfig::builder().marking_probability(1.0).build();
        let scheme = ProbabilisticNestedMarking::new(cfg);
        let mut rng = StdRng::seed_from_u64(5);
        let pkt = packet(&ks, &scheme, path, 1, &mut rng);

        let mut brute = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        let chain_brute = brute.ingest(&pkt).chain.unwrap();

        let cfg_topo = SinkConfig::new(VerifyMode::Nested).topology(chain_adjacency(network));
        let mut topo = SinkEngine::new(Arc::clone(&ks), cfg_topo);
        let chain_topo = topo.ingest(&pkt).chain.unwrap();

        assert_eq!(chain_brute, chain_topo);
        assert!(chain_topo.fully_verified());
        // Every marker is the anchor's direct neighbor except the first
        // resolution (no anchor → fallback scan): far fewer hashes than the
        // full per-report table build.
        assert!(
            topo.counters().hash_count < brute.counters().hash_count,
            "topology {} vs brute {}",
            topo.counters().hash_count,
            brute.counters().hash_count
        );
        assert_eq!(topo.counters().table_builds, 0);
        assert!(topo.counters().resolver_fallback_scans >= 1);
    }

    #[test]
    fn classifier_gates_verification() {
        let n = 5u16;
        let ks = keys(n);
        let scheme = NestedMarking::new(MarkingConfig::default());
        let mut rng = StdRng::seed_from_u64(6);
        let pkt = packet(&ks, &scheme, n, 1, &mut rng);
        // A registry corroborating the packet's claimed event: the report
        // is benign and must never reach verification.
        let mut registry = EventRegistry::new(10.0);
        registry.register(1.0, 0.0, 0, u64::MAX);
        let classifier = TrafficClassifier::permissive().with_registry(registry);
        let cfg = SinkConfig::new(VerifyMode::Nested).classifier(classifier);
        let mut engine = SinkEngine::new(Arc::clone(&ks), cfg);
        let out = engine.ingest(&pkt);
        assert_eq!(out.verdict, Some(Verdict::Benign));
        assert!(!out.admitted());
        let c = engine.counters();
        assert_eq!(c.benign, 1);
        assert_eq!(c.marks_verified, 0);
        assert_eq!(c.hash_count, 0);
        assert_eq!(engine.observed_count(), 0);
    }

    #[test]
    fn quarantine_stage_tracks_unequivocal_source() {
        let n = 6u16;
        let ks = keys(n);
        let scheme = NestedMarking::new(MarkingConfig::default());
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = SinkConfig::new(VerifyMode::Nested)
            .topology(chain_adjacency(n))
            .isolation(IsolationPolicy::OneHopNeighborhood);
        let mut engine = SinkEngine::new(Arc::clone(&ks), cfg);
        let pkt = packet(&ks, &scheme, n, 1, &mut rng);
        engine.ingest(&pkt);
        assert_eq!(engine.unequivocal_source(), Some(NodeId(0)));
        // Node 0 and its one-hop neighbor 1 are quarantined.
        assert!(!engine.quarantine().permits(NodeId(0)));
        assert!(!engine.quarantine().permits(NodeId(1)));
        assert!(engine.quarantine().permits(NodeId(2)));
    }

    #[test]
    fn shared_engine_beats_fresh_engines() {
        // The acceptance workload: multiple packets carrying few distinct
        // reports. One engine over the stream must spend strictly fewer
        // anon-ID hash evaluations than N independent single-packet sinks.
        let n = 12u16;
        let ks = keys(n);
        let cfg = MarkingConfig::builder().marking_probability(1.0).build();
        let scheme = ProbabilisticNestedMarking::new(cfg);
        let mut rng = StdRng::seed_from_u64(9);
        let base: Vec<Packet> = (0..2)
            .map(|s| packet(&ks, &scheme, n, s, &mut rng))
            .collect();
        let workload: Vec<Packet> = (0..6).map(|i| base[i % 2].clone()).collect();

        let mut batch = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        for p in &workload {
            batch.ingest(p);
        }

        let fresh_total: usize = workload
            .iter()
            .map(|p| {
                let mut e = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
                e.ingest(p);
                e.counters().hash_count
            })
            .sum();
        assert!(
            batch.counters().hash_count < fresh_total,
            "batch {} vs {} across fresh engines",
            batch.counters().hash_count,
            fresh_total
        );
        // 2 distinct reports → exactly 2 table builds for the whole batch.
        assert_eq!(batch.counters().table_builds, 2);
        assert_eq!(batch.counters().table_cache_hits, 4);
    }

    #[test]
    fn absorb_merges_partitioned_engines() {
        // Partition a packet stream across two engines by report; the
        // absorbed union must match one engine fed the whole stream.
        let n = 10u16;
        let ks = keys(n);
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut rng = StdRng::seed_from_u64(21);
        let packets: Vec<Packet> = (0..40)
            .map(|s| packet(&ks, &scheme, n, s, &mut rng))
            .collect();

        let mut whole = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        for p in &packets {
            whole.ingest(p);
        }

        let mut a = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        let mut b = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        for (i, p) in packets.iter().enumerate() {
            if i % 2 == 0 {
                a.ingest(p);
            } else {
                b.ingest(p);
            }
        }
        a.absorb(&b);
        assert_eq!(a.counters(), whole.counters());
        assert_eq!(a.localize(), whole.localize());
        assert_eq!(a.source_regions(), whole.source_regions());
        assert_eq!(a.unequivocal_source(), whole.unequivocal_source());
    }

    #[test]
    fn evidence_round_trips_through_install() {
        let n = 10u16;
        let ks = keys(n);
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut rng = StdRng::seed_from_u64(31);
        let cfg = SinkConfig::new(VerifyMode::Nested).isolation(IsolationPolicy::SuspectsOnly);
        let mut engine = SinkEngine::new(Arc::clone(&ks), cfg.clone());
        for seq in 0..80 {
            let pkt = packet(&ks, &scheme, n, seq, &mut rng);
            engine.ingest(&pkt);
        }
        engine.refresh_quarantine();
        let evidence = engine.evidence();
        assert!(!evidence.quarantined.is_empty());

        let mut rebuilt = SinkEngine::new(Arc::clone(&ks), cfg);
        rebuilt.install_evidence(&evidence);
        // Byte-identical evidence, identical verdicts.
        assert_eq!(rebuilt.evidence().to_bytes(), evidence.to_bytes());
        assert_eq!(rebuilt.counters(), engine.counters());
        assert_eq!(rebuilt.localize(), engine.localize());
        assert_eq!(rebuilt.unequivocal_source(), engine.unequivocal_source());
        assert_eq!(rebuilt.first_unequivocal(), engine.first_unequivocal());
        let q: Vec<NodeId> = rebuilt.quarantine().quarantined().collect();
        let q0: Vec<NodeId> = engine.quarantine().quarantined().collect();
        assert_eq!(q, q0);
    }

    #[test]
    fn absorb_with_attached_store_emits_delta_once() {
        // Satellite check: absorb merges in memory only; the absorbed
        // evidence rides the *next* checkpoint delta exactly once, so a
        // replay of the store never double-counts it.
        let n = 8u16;
        let ks = keys(n);
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut rng = StdRng::seed_from_u64(37);
        let packets: Vec<Packet> = (0..20)
            .map(|s| packet(&ks, &scheme, n, s, &mut rng))
            .collect();

        let store = Arc::new(crate::store::MemStore::new());
        let mut a = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        a.attach_store(Arc::clone(&store) as Arc<dyn EvidenceStore>, 0);
        assert!(a.store_attached());
        for p in &packets[..10] {
            a.ingest(p);
        }
        assert!(a.checkpoint_to_store().unwrap());

        let mut b = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        for p in &packets[10..] {
            b.ingest(p);
        }
        a.absorb(&b);
        // Absorb wrote nothing; the next checkpoint carries it.
        assert_eq!(store.len(), 1);
        assert!(a.checkpoint_to_store().unwrap());
        assert_eq!(store.len(), 2);

        let replayed = store.replay().unwrap().merged();
        assert_eq!(replayed.to_bytes(), a.evidence().to_bytes());
        // Nothing new accumulated: no further record is written.
        assert!(!a.checkpoint_to_store().unwrap());
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn checkpoint_without_store_is_an_error() {
        let ks = keys(4);
        let mut engine = SinkEngine::new(ks, SinkConfig::new(VerifyMode::Nested));
        assert!(matches!(
            engine.checkpoint_to_store(),
            Err(crate::store::StoreError::NotAttached)
        ));
    }

    #[test]
    fn counters_merge_is_fieldwise_sum() {
        let a = SinkCounters {
            packets: 1,
            hash_count: 2,
            marks_verified: 3,
            marks_rejected: 4,
            table_builds: 5,
            table_cache_hits: 6,
            resolver_fallback_scans: 7,
            suspicious: 8,
            benign: 9,
            malformed: 10,
            duplicates_suppressed: 11,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b, a + a);
        assert_eq!(b.packets, 2);
        assert_eq!(b.benign, 18);
        assert_eq!(b.malformed, 20);
        assert_eq!(b.duplicates_suppressed, 22);
        let total: SinkCounters = [a, a, a].into_iter().sum();
        assert_eq!(total.hash_count, 6);
    }

    #[test]
    fn ingest_bytes_is_total_over_garbage() {
        let n = 6u16;
        let ks = keys(n);
        let mut engine = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        // Arbitrary garbage, empty input, and a truncated valid packet all
        // become counted rejections, never panics.
        let scheme = NestedMarking::new(MarkingConfig::default());
        let mut rng = StdRng::seed_from_u64(13);
        let valid = packet(&ks, &scheme, n, 1, &mut rng).to_bytes();
        let inputs: Vec<Vec<u8>> = vec![
            Vec::new(),
            vec![0xff; 3],
            vec![0u8; 4096],
            valid[..valid.len() - 1].to_vec(),
            {
                let mut v = valid.clone();
                v.push(0);
                v
            },
        ];
        for bytes in &inputs {
            let out = engine.ingest_bytes(bytes);
            assert!(!out.admitted());
            assert!(out.rejected());
            assert!(matches!(out.reject, Some(RejectReason::Malformed(_))));
        }
        let c = engine.counters();
        assert_eq!(c.packets, inputs.len());
        assert_eq!(c.malformed, inputs.len());
        assert_eq!(c.marks_verified + c.marks_rejected, 0);
        assert_eq!(engine.observed_count(), 0);
    }

    #[test]
    fn ingest_bytes_matches_ingest_on_valid_packets() {
        let n = 8u16;
        let ks = keys(n);
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut rng = StdRng::seed_from_u64(14);
        let packets: Vec<Packet> = (0..20)
            .map(|s| packet(&ks, &scheme, n, s, &mut rng))
            .collect();
        let mut by_packet = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        let mut by_bytes = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        for p in &packets {
            let a = by_packet.ingest(p);
            let b = by_bytes.ingest_bytes(&p.to_bytes());
            assert_eq!(a, b);
        }
        assert_eq!(by_packet.counters(), by_bytes.counters());
        assert_eq!(by_packet.localize(), by_bytes.localize());
    }

    #[test]
    fn dedup_makes_ingestion_idempotent() {
        let n = 6u16;
        let ks = keys(n);
        let cfg = MarkingConfig::builder().marking_probability(1.0).build();
        let scheme = ProbabilisticNestedMarking::new(cfg);
        let mut rng = StdRng::seed_from_u64(15);
        let pkt = packet(&ks, &scheme, n, 1, &mut rng);

        let mut once = SinkEngine::new(
            Arc::clone(&ks),
            SinkConfig::new(VerifyMode::Nested).dedup(64),
        );
        let first = once.ingest(&pkt);
        assert!(first.admitted());
        let after_one = (once.counters(), once.localize());

        for _ in 0..10 {
            let dup = once.ingest(&pkt);
            assert!(!dup.admitted());
            assert_eq!(dup.reject, Some(RejectReason::Duplicate));
        }
        // Evidence untouched; only the packet/duplicate tallies moved.
        assert_eq!(once.localize(), after_one.1);
        let c = once.counters();
        assert_eq!(c.duplicates_suppressed, 10);
        assert_eq!(c.packets, after_one.0.packets + 10);
        assert_eq!(c.marks_verified, after_one.0.marks_verified);
        assert_eq!(c.hash_count, after_one.0.hash_count);
        assert_eq!(c.table_cache_hits, after_one.0.table_cache_hits);
    }

    #[test]
    fn dedup_distinguishes_differently_marked_copies() {
        // Same report, different mark sets: not duplicates (the whole
        // packet bytes are the key, not just the report).
        let n = 6u16;
        let ks = keys(n);
        let cfg = MarkingConfig::builder().marking_probability(0.5).build();
        let scheme = ProbabilisticNestedMarking::new(cfg);
        let mut rng = StdRng::seed_from_u64(16);
        let mut engine = SinkEngine::new(
            Arc::clone(&ks),
            SinkConfig::new(VerifyMode::Nested).dedup(64),
        );
        let mut admitted = 0;
        for _ in 0..20 {
            let pkt = packet(&ks, &scheme, n, 1, &mut rng);
            if engine.ingest(&pkt).admitted() {
                admitted += 1;
            }
        }
        // Probabilistic marking varies the mark set: most copies differ.
        assert!(admitted > 1, "only {admitted} admitted");
    }

    #[test]
    fn engine_annotated_localization_uses_configured_support() {
        let n = 8u16;
        let ks = keys(n);
        let cfg = MarkingConfig::builder().marking_probability(1.0).build();
        let scheme = ProbabilisticNestedMarking::new(cfg);
        let mut rng = StdRng::seed_from_u64(17);
        let pkt = packet(&ks, &scheme, n, 1, &mut rng);
        let mut engine = SinkEngine::new(
            Arc::clone(&ks),
            SinkConfig::new(VerifyMode::Nested).min_localization_support(3),
        );
        engine.ingest(&pkt);
        // One fully verified chain: support 1 < 3 → widened region.
        let a = engine.localize_annotated();
        assert!(!a.is_unequivocal());
        assert_eq!(a.support, 1);
        match &a.localization {
            Localization::Ambiguous(region) => {
                assert!(region.contains(&NodeId(0)));
                assert!(region.len() >= 2);
            }
            other => panic!("expected widened region, got {other:?}"),
        }
        // Two more identical chains push support past the threshold.
        engine.ingest(&pkt);
        engine.ingest(&pkt);
        let a = engine.localize_annotated();
        assert!(a.is_unequivocal());
        assert_eq!(a.support, 3);
        assert_eq!(a.localization, Localization::MostUpstream(NodeId(0)));
    }

    #[test]
    fn threaded_table_builds_match_serial_engine() {
        let n = 16u16;
        let ks = keys(n);
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut rng = StdRng::seed_from_u64(23);
        let packets: Vec<Packet> = (0..30)
            .map(|s| packet(&ks, &scheme, n, s, &mut rng))
            .collect();

        let mut serial = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(VerifyMode::Nested));
        let serial_out: Vec<SinkOutcome> = packets.iter().map(|p| serial.ingest(p)).collect();

        let mut threaded = SinkEngine::new(
            Arc::clone(&ks),
            SinkConfig::new(VerifyMode::Nested).table_build_threads(4),
        );
        let threaded_out: Vec<SinkOutcome> = packets.iter().map(|p| threaded.ingest(p)).collect();

        assert_eq!(serial_out, threaded_out);
        assert_eq!(serial.counters(), threaded.counters());
        assert_eq!(serial.localize(), threaded.localize());
        assert_eq!(serial.unequivocal_source(), threaded.unequivocal_source());
    }

    #[test]
    fn non_nested_modes_skip_table_machinery() {
        let n = 5u16;
        let ks = keys(n);
        let mut rng = StdRng::seed_from_u64(10);
        let cfg = MarkingConfig::builder().marking_probability(1.0).build();
        for (mode, scheme) in [
            (
                VerifyMode::PlainTrust,
                Box::new(PlainMarking::new(cfg)) as Box<dyn MarkingScheme>,
            ),
            (VerifyMode::Ams, Box::new(ExtendedAms::new(cfg))),
        ] {
            let pkt = packet(&ks, scheme.as_ref(), n, 1, &mut rng);
            let mut engine = SinkEngine::new(Arc::clone(&ks), SinkConfig::new(mode));
            let out = engine.ingest(&pkt);
            assert!(out.chain.unwrap().nodes.len() == n as usize, "{mode:?}");
            let c = engine.counters();
            assert_eq!(c.table_builds, 0, "{mode:?}");
            assert_eq!(c.hash_count, 0, "{mode:?}");
        }
    }

    /// Instrumentation is observably free: with a tracer and stage timing
    /// on, every verdict, counter, and localization matches the
    /// uninstrumented engine exactly, while stage histograms fill and the
    /// trace balances.
    #[test]
    fn instrumented_engine_matches_uninstrumented() {
        let n = 8u16;
        let ks = keys(n);
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut rng = StdRng::seed_from_u64(31);
        let packets: Vec<Packet> = (0..60)
            .map(|s| packet(&ks, &scheme, n, s, &mut rng))
            .collect();

        let base_cfg = SinkConfig::new(VerifyMode::Nested)
            .table_cache_capacity(4)
            .dedup(16)
            .isolation(IsolationPolicy::SuspectsOnly);

        let mut plain = SinkEngine::new(Arc::clone(&ks), base_cfg.clone());
        let plain_out: Vec<SinkOutcome> = packets.iter().map(|p| plain.ingest(p)).collect();
        assert!(plain.stage_metrics().is_empty(), "timing off by default");

        let (tracer, ring) = pnm_obs::Tracer::ring(100_000);
        let mut traced = SinkEngine::new(
            Arc::clone(&ks),
            base_cfg.clone().tracer(tracer).stage_timing(true),
        );
        let traced_out: Vec<SinkOutcome> = packets.iter().map(|p| traced.ingest(p)).collect();

        assert_eq!(plain_out, traced_out);
        assert_eq!(plain.counters(), traced.counters());
        assert_eq!(plain.localize(), traced.localize());
        assert_eq!(plain.unequivocal_source(), traced.unequivocal_source());

        // Every stage histogram saw every admitted packet.
        let stages = traced.stage_metrics();
        assert_eq!(stages.classify.count(), 60);
        assert_eq!(stages.verify.count(), 60);
        assert_eq!(stages.resolve.count(), 60);
        assert_eq!(stages.reconstruct.count(), 60);
        assert_eq!(stages.localize.count(), 60);

        // The trace carries balanced spans plus table-build events.
        use pnm_obs::EventKind;
        let events = ring.events();
        let opens = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanOpen)
            .count();
        let closes = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanClose)
            .count();
        assert_eq!(opens, closes);
        assert!(events.iter().any(|e| e.name == "sink.table_build"));
        assert_eq!(ring.dropped(), 0);
    }

    /// A wire-carried [`TraceContext`] turns one staged pass into one
    /// correlated trace: a `sink.ingest` child of the caller's span,
    /// every stage span a child of `sink.ingest`, all in the same
    /// trace — and the outcome is identical to the untraced pass.
    #[test]
    fn traced_arrival_correlates_stage_spans_under_one_trace() {
        let n = 8u16;
        let ks = keys(n);
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut rng = StdRng::seed_from_u64(9);
        let pkt = packet(&ks, &scheme, n, 0, &mut rng);

        let base_cfg = SinkConfig::new(VerifyMode::Nested).table_cache_capacity(4);
        let mut plain = SinkEngine::new(Arc::clone(&ks), base_cfg.clone());
        let plain_out = plain.ingest(&pkt);

        let (tracer, ring) = pnm_obs::Tracer::ring(1024);
        let mut traced = SinkEngine::new(Arc::clone(&ks), base_cfg.tracer(tracer.clone()));
        let wire_ctx = {
            let root = tracer.span_root("client.send");
            root.context().expect("recording")
        };
        let traced_out = traced.ingest(Arrival::new(&pkt).traced(wire_ctx));
        assert_eq!(plain_out, traced_out);
        assert_eq!(plain.counters(), traced.counters());

        use pnm_obs::EventKind;
        let events = ring.events();
        assert!(
            events.iter().all(|e| e.trace == wire_ctx.trace),
            "every event joins the wire trace"
        );
        let ingest_open = events
            .iter()
            .find(|e| e.name == "sink.ingest" && e.kind == EventKind::SpanOpen)
            .expect("sink.ingest span present");
        assert_eq!(ingest_open.parent, wire_ctx.parent);
        for stage in crate::STAGE_NAMES {
            let name = format!("sink.{stage}");
            let open = events
                .iter()
                .find(|e| e.name == name && e.kind == EventKind::SpanOpen)
                .unwrap_or_else(|| panic!("{name} span present"));
            assert_eq!(open.parent, ingest_open.span, "{name} parents sink.ingest");
        }
        // Instants (table builds) ride the same trace too.
        let build = events
            .iter()
            .find(|e| e.name == "sink.table_build")
            .expect("table build instant");
        assert_eq!(build.trace, wire_ctx.trace);
        assert_eq!(build.span, ingest_open.span);

        // An untraced pass on the same engine records a packet-level
        // span only: per-stage detail is reserved for carried traces.
        let mut rng2 = StdRng::seed_from_u64(10);
        let pkt2 = packet(&ks, &scheme, n, 1, &mut rng2);
        traced.ingest(&pkt2);
        let untraced: Vec<_> = ring.events().into_iter().filter(|e| e.trace == 0).collect();
        assert!(untraced
            .iter()
            .any(|e| e.kind == EventKind::SpanOpen && e.name == "sink.ingest"));
        assert!(
            !untraced.iter().any(|e| e.name == "sink.classify"),
            "stage spans never open without a trace"
        );
    }

    /// Stage timing alone (no tracer) fills histograms; topology-guided
    /// resolution attributes ring-search time to the resolve stage.
    #[test]
    fn stage_timing_covers_topology_resolution() {
        let n = 8u16;
        let ks = keys(n);
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = SinkConfig::new(VerifyMode::Nested)
            .topology(chain_adjacency(n))
            .stage_timing(true);
        let mut engine = SinkEngine::new(Arc::clone(&ks), cfg);
        for seq in 0..40 {
            let pkt = packet(&ks, &scheme, n, seq, &mut rng);
            engine.ingest(&pkt);
        }
        let stages = engine.stage_metrics();
        assert_eq!(stages.verify.count(), 40);
        assert_eq!(stages.resolve.count(), 40);
        assert_eq!(engine.counters().table_builds, 0);
    }

    /// `absorb` folds stage histograms exactly like counters.
    #[test]
    fn absorb_merges_stage_metrics() {
        let n = 6u16;
        let ks = keys(n);
        let scheme = ProbabilisticNestedMarking::paper_default(n as usize);
        let mut rng = StdRng::seed_from_u64(77);
        let cfg = SinkConfig::new(VerifyMode::Nested).stage_timing(true);
        let mut a = SinkEngine::new(Arc::clone(&ks), cfg.clone());
        let mut b = SinkEngine::new(Arc::clone(&ks), cfg);
        for seq in 0..10 {
            let pkt = packet(&ks, &scheme, n, seq, &mut rng);
            if seq % 2 == 0 {
                a.ingest(&pkt);
            } else {
                b.ingest(&pkt);
            }
        }
        let before = a.stage_metrics().clone();
        a.absorb(&b);
        assert_eq!(a.stage_metrics().classify.count(), 10);
        let mut expect = before;
        expect.merge(b.stage_metrics());
        assert_eq!(a.stage_metrics(), &expect);
    }
}

#[cfg(test)]
mod lane_tests {
    use super::*;
    use crate::config::MarkingConfig;
    use crate::scheme::{MarkingScheme, NodeContext, ProbabilisticNestedMarking};
    use pnm_wire::{Location, Report};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Engine-level pin for the batched verify path: every chain matches
    /// the scalar reference walk over a serially built table — including
    /// tampered chains, where the batched sweep must replay the scalar
    /// walk's stop-at-first-invalid semantics — and the counters and
    /// stage samples add up to exactly those chains.
    #[test]
    fn engine_matches_scalar_oracle() {
        let keys = Arc::new(KeyStore::derive_from_master(b"lane-sink", 12));
        let cfg = MarkingConfig::builder().marking_probability(1.0).build();
        let scheme = ProbabilisticNestedMarking::new(cfg);
        let mut rng = StdRng::seed_from_u64(9);
        let mut packets = Vec::new();
        for seq in 0..6u64 {
            let report = Report::new(
                format!("lane-{}", seq % 2).into_bytes(),
                Location::new(seq as f32, 0.0),
                seq % 2,
            );
            let mut pkt = Packet::new(report);
            for hop in 0..12u16 {
                let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
                scheme.mark(&ctx, &mut pkt, &mut rng);
            }
            packets.push(pkt.clone());
            // Tampered variants: corrupted MAC, stripped MAC, missing mark.
            let i = (seq as usize * 3) % pkt.marks.len();
            let mut p = pkt.clone();
            p.marks[i].mac = Some(p.marks[i].mac.unwrap().corrupted());
            packets.push(p);
            let mut p = pkt.clone();
            p.marks[i].mac = None;
            packets.push(p);
            let mut p = pkt.clone();
            p.marks.remove(i);
            packets.push(p);
        }

        let cfg = SinkConfig::new(VerifyMode::Nested).stage_timing(true);
        let mut engine = SinkEngine::new(Arc::clone(&keys), cfg);
        let oracle = SinkVerifier::new(Arc::clone(&keys));
        let (mut verified, mut rejected) = (0, 0);
        for pkt in &packets {
            let want = oracle.verify_nested_scalar(pkt);
            verified += want.nodes.len();
            rejected += want.total_marks - want.nodes.len();
            assert_eq!(engine.ingest(pkt).chain, Some(want));
        }
        let c = engine.counters();
        assert_eq!((c.marks_verified, c.marks_rejected), (verified, rejected));
        assert_eq!(c.table_builds + c.table_cache_hits, packets.len());
        assert_eq!(c.hash_count, c.table_builds * 12);
        // Every stage recorded once per packet (sample values are
        // wall-clock).
        for (name, h) in engine.stage_metrics().iter() {
            assert_eq!(h.count(), packets.len() as u64, "stage {name}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::config::MarkingConfig;
    use crate::scheme::{
        ExtendedAms, MarkingScheme, NestedMarking, NodeContext, PlainMarking,
        ProbabilisticNestedMarking,
    };
    use pnm_wire::{Location, Report};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds `n_packets` marked packets over `n_reports` distinct reports,
    /// under one of the five schemes (indexed 0..5, covering every
    /// [`VerifyMode`]).
    fn scenario(
        scheme_idx: usize,
        path_len: u16,
        n_packets: usize,
        n_reports: usize,
        seed: u64,
    ) -> (Arc<KeyStore>, VerifyMode, Vec<Packet>) {
        let keys = Arc::new(KeyStore::derive_from_master(b"sink-prop", path_len));
        let cfg = MarkingConfig::builder().marking_probability(0.5).build();
        let (mode, scheme): (VerifyMode, Box<dyn MarkingScheme>) = match scheme_idx {
            0 => (VerifyMode::PlainTrust, Box::new(PlainMarking::new(cfg))),
            1 => (VerifyMode::Ams, Box::new(ExtendedAms::new(cfg))),
            2 => (
                VerifyMode::Nested,
                Box::new(NestedMarking::new(MarkingConfig::default())),
            ),
            3 => (
                VerifyMode::Nested,
                Box::new(ProbabilisticNestedMarking::new(cfg)),
            ),
            _ => (
                VerifyMode::Nested,
                Box::new(ProbabilisticNestedMarking::paper_default(path_len as usize)),
            ),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let packets = (0..n_packets)
            .map(|i| {
                let rep = (i % n_reports) as u64;
                let report = Report::new(
                    format!("prop-{rep}").into_bytes(),
                    Location::new(rep as f32, 1.0),
                    rep,
                );
                let mut pkt = Packet::new(report);
                for hop in 0..path_len {
                    let ctx = NodeContext::new(NodeId(hop), *keys.key(hop).unwrap());
                    scheme.mark(&ctx, &mut pkt, &mut rng);
                }
                pkt
            })
            .collect();
        (keys, mode, packets)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The engine's fast paths are pure optimizations across random
        /// scenarios and every verify mode: every chain equals the scalar
        /// reference walk, and 4 table-build threads change no outcome,
        /// counter, or localization. On nested multi-packet same-report
        /// workloads one engine additionally performs strictly fewer
        /// anon-ID hash evaluations than N independent single-packet
        /// engines.
        #[test]
        fn engine_matches_threaded_and_scalar_oracle(
            scheme_idx in 0usize..5,
            path_len in 2u16..14,
            n_packets in 1usize..10,
            n_reports in 1usize..4,
            seed in any::<u64>(),
        ) {
            let (keys, mode, packets) = scenario(scheme_idx, path_len, n_packets, n_reports, seed);

            let mut batch = SinkEngine::new(Arc::clone(&keys), SinkConfig::new(mode));
            let batch_out: Vec<SinkOutcome> = packets.iter().map(|p| batch.ingest(p)).collect();

            // Lane-parallel verify and resolve reproduce the scalar walk
            // chain for chain.
            let oracle = SinkVerifier::new(Arc::clone(&keys));
            for (p, out) in packets.iter().zip(&batch_out) {
                let want = match mode {
                    VerifyMode::Nested => oracle.verify_nested_scalar(p),
                    _ => oracle.verify(p, mode),
                };
                prop_assert_eq!(out.chain.as_ref(), Some(&want));
            }

            // Parallel anon-table builds are a pure optimization: an engine
            // building tables with 4 worker threads produces byte-identical
            // outcomes, counters, and localization.
            let mut threaded = SinkEngine::new(
                Arc::clone(&keys),
                SinkConfig::new(mode).table_build_threads(4),
            );
            let threaded_out: Vec<SinkOutcome> =
                packets.iter().map(|p| threaded.ingest(p)).collect();
            prop_assert_eq!(&batch_out, &threaded_out);
            prop_assert_eq!(batch.counters(), threaded.counters());
            prop_assert_eq!(batch.localize(), threaded.localize());
            prop_assert_eq!(batch.unequivocal_source(), threaded.unequivocal_source());
            prop_assert_eq!(batch.first_unequivocal(), threaded.first_unequivocal());

            // Strict amortization vs independent engines whenever the
            // workload actually repeats a report under nested verification
            // with at least one anonymous mark resolved per duplicate.
            if mode == VerifyMode::Nested && n_packets > n_reports {
                let fresh_total: usize = packets
                    .iter()
                    .map(|p| {
                        let mut e = SinkEngine::new(Arc::clone(&keys), SinkConfig::new(mode));
                        e.ingest(p);
                        e.counters().hash_count
                    })
                    .sum();
                let any_anon_repeat = batch.counters().table_cache_hits > 0
                    && batch.counters().hash_count > 0;
                if any_anon_repeat {
                    prop_assert!(
                        batch.counters().hash_count < fresh_total,
                        "batch {} vs fresh {}",
                        batch.counters().hash_count,
                        fresh_total
                    );
                }
            }
        }
    }
}
