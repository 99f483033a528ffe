//! Workload inputs, made from the run's seed: a grid field of keyed
//! nodes, source moles with fixed routes to the sink, the packet stream
//! every lifecycle round replays, the sequential reference verdicts, and
//! the attack episodes behind `packets_to_verdict`.

use std::collections::BTreeSet;
use std::sync::Arc;

use pnm_core::{
    IsolationPolicy, MarkingConfig, MarkingScheme, NestedMarking, NodeContext,
    ProbabilisticNestedMarking, SinkConfig, SinkEngine, VerifyMode,
};
use pnm_crypto::KeyStore;
use pnm_wire::{Location, NodeId, Packet, Report};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// Master secret every tenant's node keys derive from.
pub const MASTER: &[u8] = b"perfbench-deployment";

/// How forwarders mark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Marking {
    /// Probabilistic nested marking with anonymous IDs (§4.2), `p = 3/hops`.
    Pnm,
    /// Basic nested marking (§4.1): plain IDs, every forwarder marks.
    Nested,
}

/// One workload's make-up.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Grid columns and rows (see [`Field`]).
    pub width: u16,
    pub height: u16,
    pub marking: Marking,
    /// Source moles flooding in one lifecycle round.
    pub moles: usize,
    /// Forwarders between a mole and the sink, inclusive range.
    pub hops: (u16, u16),
    /// Packets each mole injects per lifecycle round.
    pub packets_per_mole: usize,
    /// Evidence log with the default per-packet checkpoint, and one
    /// graceful gateway restart half-way through every round.
    pub durable: bool,
    /// An operator `MetricsText` + `Ops` scrape after every this many
    /// packets (0: none).
    pub scrape_every: usize,
    /// Attack episodes behind `packets_to_verdict`.
    pub episodes: usize,
    /// The tenant pool's per-shard queue capacity.
    pub queue: usize,
    /// Packets the traced run replays through the per-layer calls.
    pub replay: usize,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "edge_acked",
        width: 7,
        height: 1,
        marking: Marking::Pnm,
        moles: 1,
        hops: (6, 6),
        packets_per_mole: 400,
        durable: false,
        scrape_every: 0,
        episodes: 1024,
        queue: 16,
        replay: 400,
    },
    Spec {
        name: "field_pnm",
        width: 32,
        height: 32,
        marking: Marking::Pnm,
        moles: 3,
        hops: (20, 20),
        packets_per_mole: 400,
        durable: false,
        scrape_every: 250,
        episodes: 512,
        queue: 16,
        replay: 160,
    },
    Spec {
        name: "field_nested_durable",
        width: 32,
        height: 32,
        marking: Marking::Nested,
        moles: 48,
        hops: (8, 24),
        packets_per_mole: 10,
        durable: true,
        scrape_every: 0,
        episodes: 32,
        queue: 16,
        replay: 160,
    },
];

impl Spec {
    pub fn field(&self) -> Field {
        Field {
            width: self.width,
            height: self.height,
        }
    }
}

/// A `width × height` grid. Node `(x, y)` has id `y·width + x`; the sink
/// hangs off node 0, so `(x, y)` lies `x + y + 1` hops from the sink and
/// its one-hop neighbours are the four grid neighbours.
#[derive(Clone, Copy, Debug)]
pub struct Field {
    pub width: u16,
    pub height: u16,
}

impl Field {
    pub fn nodes(&self) -> u16 {
        self.width * self.height
    }

    fn id(&self, x: u16, y: u16) -> u16 {
        y * self.width + x
    }

    fn xy(&self, id: u16) -> (u16, u16) {
        (id % self.width, id / self.width)
    }

    /// The node and its grid neighbours.
    pub fn closed_neighbourhood(&self, id: u16) -> BTreeSet<u16> {
        let (x, y) = self.xy(id);
        let mut out = BTreeSet::from([id]);
        if x > 0 {
            out.insert(self.id(x - 1, y));
        }
        if x + 1 < self.width {
            out.insert(self.id(x + 1, y));
        }
        if y > 0 {
            out.insert(self.id(x, y - 1));
        }
        if y + 1 < self.height {
            out.insert(self.id(x, y + 1));
        }
        out
    }

    /// A node `hops` forwarders away from the sink, uniformly among the
    /// diagonal `x + y = hops`.
    fn node_at(&self, hops: u16, rng: &mut StdRng) -> u16 {
        let lo = hops.saturating_sub(self.height - 1);
        let hi = hops.min(self.width - 1);
        let x = rng.random_range(lo..=hi);
        self.id(x, hops - x)
    }

    /// A shortest route from `mole` to the sink, choosing each step toward
    /// node 0 at random: the forwarders in path order (the mole's
    /// neighbour first, node 0 last).
    fn route(&self, mole: u16, rng: &mut StdRng) -> Vec<u16> {
        let (mut x, mut y) = self.xy(mole);
        let mut route = Vec::with_capacity(usize::from(x + y));
        while x + y > 0 {
            if y == 0 || (x > 0 && rng.next_u64() & 1 == 0) {
                x -= 1;
            } else {
                y -= 1;
            }
            route.push(self.id(x, y));
        }
        route
    }
}

/// A source mole flooding bogus reports along its fixed route.
pub struct Source {
    pub mole: u16,
    pub route: Vec<u16>,
    scheme: Box<dyn MarkingScheme>,
    tag: u64,
}

impl Source {
    fn new(field: &Field, marking: Marking, hops: u16, tag: u64, rng: &mut StdRng) -> Self {
        let mole = field.node_at(hops, rng);
        let route = field.route(mole, rng);
        let config = MarkingConfig::paper_default(route.len());
        let scheme: Box<dyn MarkingScheme> = match marking {
            Marking::Pnm => Box::new(ProbabilisticNestedMarking::new(config)),
            Marking::Nested => Box::new(NestedMarking::new(config)),
        };
        Source {
            mole,
            route,
            scheme,
            tag,
        }
    }

    /// The mole's `seq`-th bogus report, marked by every forwarder on the
    /// route. Every report is distinct, as a flooding mole's are.
    fn packet(&self, keys: &KeyStore, seq: u64, rng: &mut StdRng) -> Packet {
        let event = format!("bogus-{:016x}-{}-{seq}", self.tag, self.mole).into_bytes();
        let loc = Location::new(f32::from(self.mole), seq as f32);
        let mut pkt = Packet::new(Report::new(event, loc, seq));
        for &v in &self.route {
            let key = *keys.key(v).expect("every field node is keyed");
            self.scheme
                .mark(&NodeContext::new(NodeId(v), key), &mut pkt, rng);
        }
        pkt
    }
}

/// The sink pipeline every tenant runs: nested verification, quarantine
/// of the named suspects.
pub fn sink_config() -> SinkConfig {
    SinkConfig::new(VerifyMode::Nested).isolation(IsolationPolicy::SuspectsOnly)
}

/// Everything one run replays, made once from the seed before any clock
/// starts.
pub struct Inputs {
    pub field: Field,
    pub sources: Vec<Source>,
    pub packets: Vec<Packet>,
    /// Canonical bytes of `packets`, in send order.
    pub stream: Vec<Vec<u8>>,
    /// Packets sent before the restart (durable workload only).
    pub restart_at: Option<usize>,
}

impl Inputs {
    pub fn new(spec: &Spec, keys: &KeyStore, seed: u64) -> Self {
        let field = spec.field();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_F1E1D);
        // Every mole's first forwarder relays that mole's flood alone.
        // Multi-source localisation names the head of each branch (§9), so
        // a mole whose neighbour also relays another mole's flood has no
        // branch of its own and no check could expect it to be named.
        let mut sources: Vec<Source> = Vec::with_capacity(spec.moles);
        let mut tries = 0;
        while sources.len() < spec.moles {
            tries += 1;
            if tries > 2000 {
                // Boxed in by the moles placed so far: start over.
                sources.clear();
                tries = 0;
            }
            let hops = rng.random_range(spec.hops.0..=spec.hops.1);
            let src = Source::new(&field, spec.marking, hops, seed, &mut rng);
            let clash = sources.iter().any(|o| {
                o.mole == src.mole
                    || o.route.contains(&src.route[0])
                    || src.route.contains(&o.route[0])
            });
            if !clash {
                sources.push(src);
                tries = 0;
            }
        }
        // Moles take turns, so every round interleaves their floods.
        let mut packets = Vec::with_capacity(spec.moles * spec.packets_per_mole);
        for seq in 0..spec.packets_per_mole as u64 {
            for src in &sources {
                packets.push(src.packet(keys, seq, &mut rng));
            }
        }
        let stream = packets.iter().map(Packet::to_bytes).collect();
        Inputs {
            field,
            sources,
            restart_at: spec.durable.then_some(packets.len() / 2),
            packets,
            stream,
        }
    }
}

/// The evidence bytes a pool's drain reports for `engine`'s state: the
/// drain merges its shards into a fresh engine and applies the isolation
/// policy once, to the merged graph.
pub fn reference_verdict(keys: &Arc<KeyStore>, engine: &SinkEngine) -> Vec<u8> {
    let mut merged = SinkEngine::new(Arc::clone(keys), sink_config());
    merged.absorb(engine);
    merged.refresh_quarantine();
    merged.quarantine_source_regions();
    merged.evidence().to_bytes()
}

/// Sequential reference runs of the round's stream.
pub struct References {
    /// Drained evidence of every packet of the round.
    pub all: Vec<u8>,
    /// Of the packets before the restart, and of those after it.
    pub pre: Vec<u8>,
    pub post: Vec<u8>,
    /// The engine at the round's final state.
    pub engine: SinkEngine,
}

impl References {
    pub fn new(keys: &Arc<KeyStore>, inputs: &Inputs) -> Self {
        let split = inputs.restart_at.unwrap_or(inputs.packets.len());
        // Two table-build threads: tables, verdicts and counters are the
        // same at any thread count; only the reference runs faster.
        let config = sink_config().without_isolation().table_build_threads(2);
        let run = |packets: &[Packet], engine: &mut SinkEngine| {
            for p in packets {
                engine.ingest(p);
            }
        };
        let mut engine = SinkEngine::new(Arc::clone(keys), config.clone());
        run(&inputs.packets[..split], &mut engine);
        let pre = reference_verdict(keys, &engine);
        run(&inputs.packets[split..], &mut engine);
        let all = reference_verdict(keys, &engine);
        let post = if split < inputs.packets.len() {
            let mut tail = SinkEngine::new(Arc::clone(keys), config);
            run(&inputs.packets[split..], &mut tail);
            reference_verdict(keys, &tail)
        } else {
            Vec::new()
        };
        References {
            all,
            pre,
            post,
            engine,
        }
    }
}

/// Packets before a sequential sink names one episode's mole neighbour
/// unequivocally and for good (Fig. 7's settling point), over
/// `spec.episodes` independent episodes. Each episode is one mole at a
/// random place and route flooding until its whole route is observed and
/// the neighbour is named: after that no packet can add a node, so the
/// verdict cannot change. Like the paper's Fig. 7 runs, the episode's sink
/// holds the keys of the route's nodes (8-byte anonymous IDs make a
/// collision with any other node's ID negligible). Returns one settling
/// point per episode, or the episode that did not settle within the cap.
pub fn packets_to_verdict(
    spec: &Spec,
    keys: &KeyStore,
    seed: u64,
    threads: usize,
) -> Result<Vec<usize>, String> {
    const CAP: usize = 5000;
    let field = spec.field();
    let episode = |e: usize| -> Result<usize, String> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE915_0DE0_0000 ^ ((e as u64) << 20));
        let hops = rng.random_range(spec.hops.0..=spec.hops.1);
        let src = Source::new(&field, spec.marking, hops, seed ^ e as u64, &mut rng);
        let route_keys: KeyStore = src
            .route
            .iter()
            .map(|&v| (v, *keys.key(v).expect("keyed")))
            .collect();
        let mut sink = SinkEngine::new(route_keys, SinkConfig::new(VerifyMode::Nested));
        let neighbour = Some(NodeId(src.route[0]));
        let mut settled_from = None;
        for seq in 0..CAP as u64 {
            sink.ingest(&src.packet(keys, seq, &mut rng));
            let named = sink.unequivocal_source() == neighbour;
            settled_from = match (named, settled_from) {
                (true, None) => Some(seq as usize + 1),
                (true, s) => s,
                (false, _) => None,
            };
            if named && sink.observed_count() == src.route.len() {
                return Ok(settled_from.expect("named on this packet"));
            }
        }
        Err(format!("episode {e} did not settle within {CAP} packets"))
    };
    let threads = threads.max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let episode = &episode;
                scope.spawn(move || {
                    (t..spec.episodes)
                        .step_by(threads)
                        .map(|e| (e, episode(e)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<(usize, Result<usize, String>)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("episode thread"))
            .collect();
        all.sort_by_key(|(e, _)| *e);
        all.into_iter().map(|(_, r)| r).collect()
    })
}
