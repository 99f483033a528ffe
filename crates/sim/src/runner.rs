//! Monte-Carlo runners implementing the paper's §6.2 methodology.
//!
//! The evaluation drives bogus reports down an `n`-node forwarding chain
//! (V1 = id 0 most upstream, Vn = id n−1 nearest the sink), marks them
//! with the scheme under test, and feeds the sink's staged
//! [`SinkEngine`]. Runs are seeded, independent,
//! and parallelized across OS threads.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pnm_core::{NodeContext, SinkConfig, SinkEngine, VerifiedChain};
use pnm_wire::{Location, NodeId, Packet, Report};

use crate::scenario::{PathScenario, SchemeKind};

/// Outcome of one honest-path run.
#[derive(Clone, Debug)]
pub struct HonestRun {
    /// `collected_after[x]` = distinct forwarders whose marks the sink holds
    /// after the first `x + 1` packets (Figure 5's quantity).
    pub collected_after: Vec<usize>,
    /// `status_after[x]` = the unequivocally identified most-upstream node
    /// after the first `x + 1` packets (`None` while the candidate set is
    /// still ambiguous). Early in a run this can transiently name a
    /// downstream node, before an upstream mark has been seen at all.
    pub status_after: Vec<Option<NodeId>>,
    /// The identified most-upstream node at the end of the budget.
    pub identified: Option<NodeId>,
}

impl HonestRun {
    /// Whether the sink ended the run unequivocally identifying the true
    /// first forwarder (V1 = id 0) — "the source" in the paper's phrasing,
    /// since the source mole is V1's one-hop neighbor.
    pub fn identified_source(&self) -> bool {
        self.identified == Some(NodeId(0))
    }

    /// Whether, after exactly `packets` packets, the sink unequivocally and
    /// *correctly* identified the source region (Figure 6's per-traffic
    /// success criterion).
    pub fn correct_at(&self, packets: usize) -> bool {
        packets >= 1
            && self
                .status_after
                .get(packets - 1)
                .is_some_and(|s| *s == Some(NodeId(0)))
    }

    /// The settling point: the first packet count from which the sink's
    /// identification is correct (= V1) and *never changes again* within
    /// the budget (Figure 7's quantity). `None` if identification never
    /// settles. The stability requirement excludes the transient early
    /// phase where a partially observed path looks unequivocal.
    pub fn first_stable_correct(&self) -> Option<usize> {
        if self.status_after.last().copied().flatten() != Some(NodeId(0)) {
            return None;
        }
        let mut idx = self.status_after.len();
        while idx > 0 && self.status_after[idx - 1] == Some(NodeId(0)) {
            idx -= 1;
        }
        Some(idx + 1)
    }
}

/// Runs one honest (attack-free) injection stream of `packets` packets down
/// the scenario's path under `scheme`, seeded by `seed`.
pub fn run_honest_path(
    scenario: &PathScenario,
    scheme_kind: SchemeKind,
    packets: usize,
    seed: u64,
) -> HonestRun {
    let n = scenario.path_len;
    let keys = Arc::new(scenario.keystore(0));
    let scheme = scheme_kind.build(scenario.config());
    let mut sink = SinkEngine::new(
        Arc::clone(&keys),
        SinkConfig::new(scheme_kind.verify_mode()),
    );
    let mut rng = StdRng::seed_from_u64(seed);

    let contexts: Vec<NodeContext> = (0..n)
        .map(|i| NodeContext::new(NodeId(i), *keys.key(i).expect("provisioned")))
        .collect();

    let mut collected_after = Vec::with_capacity(packets);
    let mut status_after = Vec::with_capacity(packets);
    for seq in 0..packets as u64 {
        let mut pkt = bogus_packet(seq, seed);
        for ctx in &contexts {
            scheme.mark(ctx, &mut pkt, &mut rng);
        }
        sink.ingest(&pkt);
        collected_after.push(sink.observed_count());
        status_after.push(sink.unequivocal_source());
    }

    HonestRun {
        collected_after,
        status_after,
        identified: sink.unequivocal_source(),
    }
}

/// A bogus report: content varies per packet (duplicates would be
/// suppressed en route, §2.3 footnote 4).
pub fn bogus_packet(seq: u64, run_tag: u64) -> Packet {
    let event = format!("bogus-{run_tag:016x}-{seq}").into_bytes();
    Packet::new(Report::new(event, Location::new(0.0, 0.0), seq))
}

/// Ingests a pre-built packet stream into a sink engine, returning the
/// verified chains (diagnostics helper for attack experiments).
pub fn ingest_all(sink: &mut SinkEngine, packets: &[Packet]) -> Vec<VerifiedChain> {
    packets
        .iter()
        .map(|p| sink.ingest(p).chain.expect("no classifier configured"))
        .collect()
}

/// Runs `runs` independent seeded experiments in parallel and collects the
/// results in run order. `f(run_index)` must be deterministic in its index.
pub fn parallel_runs<T, F>(runs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(runs.max(1));
    if threads <= 1 || runs <= 1 {
        return (0..runs as u64).map(f).collect();
    }
    let mut results: Vec<Option<T>> = (0..runs).map(|_| None).collect();
    let chunk = runs.div_ceil(threads);
    std::thread::scope(|scope| {
        for (t, slot_chunk) in results.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                for (i, slot) in slot_chunk.iter_mut().enumerate() {
                    *slot = Some(f((t * chunk + i) as u64));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_pnm_run_converges() {
        let scenario = PathScenario::paper(10);
        let run = run_honest_path(&scenario, SchemeKind::Pnm, 150, 42);
        assert_eq!(run.collected_after.len(), 150);
        // Collection counts are non-decreasing and end at n.
        assert!(run.collected_after.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*run.collected_after.last().unwrap(), 10);
        assert!(run.identified_source(), "identified {:?}", run.identified);
        let stable = run.first_stable_correct().expect("settles within 150");
        assert!(stable <= 150);
        assert!(run.correct_at(150));
        // The settling point is indeed stable: correct at every later count.
        for l in stable..=150 {
            assert!(run.correct_at(l), "flicker at {l}");
        }
        // Settling cannot precede collecting V1's own mark; with p = 0.3
        // that virtually never happens on packet 1.
        assert!(stable >= 2, "stable = {stable}");
    }

    #[test]
    fn honest_nested_identifies_in_one_packet() {
        let scenario = PathScenario::paper(15);
        let run = run_honest_path(&scenario, SchemeKind::Nested, 1, 7);
        assert_eq!(run.first_stable_correct(), Some(1));
        assert!(run.identified_source());
        assert_eq!(run.collected_after[0], 15);
        assert!(run.correct_at(1));
        assert!(!run.correct_at(0));
    }

    #[test]
    fn runs_are_deterministic_in_seed() {
        let scenario = PathScenario::paper(10);
        let a = run_honest_path(&scenario, SchemeKind::Pnm, 60, 5);
        let b = run_honest_path(&scenario, SchemeKind::Pnm, 60, 5);
        let c = run_honest_path(&scenario, SchemeKind::Pnm, 60, 6);
        assert_eq!(a.collected_after, b.collected_after);
        assert_eq!(a.status_after, b.status_after);
        assert!(a.collected_after != c.collected_after || a.status_after != c.status_after);
    }

    #[test]
    fn parallel_runs_preserve_order_and_determinism() {
        let results = parallel_runs(100, |i| i * i);
        assert_eq!(results.len(), 100);
        for (i, v) in results.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn parallel_runs_zero_and_one() {
        assert!(parallel_runs(0, |i| i).is_empty());
        assert_eq!(parallel_runs(1, |i| i + 1), vec![1]);
    }

    #[test]
    fn bogus_packets_differ() {
        assert_ne!(
            bogus_packet(0, 1).report.to_bytes(),
            bogus_packet(1, 1).report.to_bytes()
        );
        assert_ne!(
            bogus_packet(0, 1).report.to_bytes(),
            bogus_packet(0, 2).report.to_bytes()
        );
    }
}
