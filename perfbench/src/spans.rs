//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer. A span has a name, start, end and parent; every span of
//! one packet carries that packet's id. Nothing is written until the run
//! ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::host::alloc_counts;

/// Packet id of spans that belong to no packet (set-up, scrapes, drains).
pub const NO_PACKET: u64 = u64::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub packet: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work units the call covered (nodes hashed, marks verified, ...).
    pub units: u64,
    /// Allocations and allocated bytes made inside the span, by any thread.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span; close it with [`Recorder::close`].
pub struct Open {
    id: u32,
    parent: u32,
    packet: u64,
    name: &'static str,
    start: Instant,
    allocs: (u64, u64),
}

impl Open {
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Spans of one run. A disabled recorder records nothing and costs one
/// branch per call, so untraced rounds run the same code.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: u32,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn open(&mut self, name: &'static str, packet: u64, parent: u32) -> Open {
        let id = if self.enabled {
            self.next_id += 1;
            self.next_id - 1
        } else {
            0
        };
        Open {
            id,
            parent,
            packet,
            name,
            allocs: if self.enabled { alloc_counts() } else { (0, 0) },
            start: Instant::now(),
        }
    }

    pub fn close(&mut self, open: Open, units: u64) {
        let end = Instant::now();
        if !self.enabled {
            return;
        }
        let (a, b) = alloc_counts();
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            packet: open.packet,
            name: open.name,
            start_ns: ns(open.start),
            end_ns: ns(end),
            units,
            allocs: a - open.allocs.0,
            alloc_bytes: b - open.allocs.1,
        });
    }

    /// Runs `f` inside a span covering `units` units of work.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        packet: u64,
        parent: u32,
        units: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, packet, parent);
        let out = f();
        self.close(open, units);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the time its children
    /// cover. Children run on the span's own thread, one after another,
    /// so their durations do not overlap.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = std::collections::HashMap::<u32, u64>::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .map(|s| {
                s.dur_ns()
                    .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, own) in self.spans.iter().zip(self_ns) {
            let packet = if s.packet == NO_PACKET {
                "null".to_string()
            } else {
                s.packet.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"packet\":{packet},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"units\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.units, s.allocs, s.alloc_bytes
            )?;
        }
        out.flush()
    }
}

/// Per-name figures drawn from a recorder's spans.
pub struct Figures {
    rows: Vec<(&'static str, u64, u64, u64, u64)>, // name, self ns, units, allocs, bytes
}

impl Figures {
    pub fn new(rec: &Recorder) -> Self {
        Figures {
            rows: rec
                .spans()
                .iter()
                .zip(rec.self_ns())
                .map(|(s, own)| (s.name, own, s.units, s.allocs, s.alloc_bytes))
                .collect(),
        }
    }

    fn of<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = &'a (&'static str, u64, u64, u64, u64)> + 'a {
        self.rows.iter().filter(move |r| r.0 == name)
    }

    /// Median self time of the spans named `name`, in nanoseconds.
    pub fn median_ns(&self, name: &str) -> f64 {
        crate::stats::median(&self.of(name).map(|r| r.1 as f64).collect::<Vec<_>>())
    }

    /// Total self time per unit of work, in nanoseconds.
    pub fn ns_per_unit(&self, name: &str) -> f64 {
        let (ns, units) = self
            .of(name)
            .fold((0u64, 0u64), |a, r| (a.0 + r.1, a.1 + r.2));
        ns as f64 / units.max(1) as f64
    }

    /// Allocations and allocated bytes per unit of work.
    pub fn allocs_per_unit(&self, name: &str) -> (f64, f64) {
        let (a, b, units) = self.of(name).fold((0u64, 0u64, 0u64), |acc, r| {
            (acc.0 + r.3, acc.1 + r.4, acc.2 + r.2)
        });
        let units = units.max(1) as f64;
        (a as f64 / units, b as f64 / units)
    }
}
