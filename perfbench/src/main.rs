//! End-to-end and per-layer benchmark of acked, exactly-once ingest.
//!
//! ```text
//! perfbench --workload <edge_acked|field_pnm|field_nested_durable>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` alternates
//! untraced and traced rounds, replays the inputs through each layer, and
//! reports the per-layer metrics. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See README.md for the workloads, the metrics and the normalisation.

mod e2e;
mod host;
mod layers;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pnm_crypto::Sha256xN;

use e2e::{Ctx, Round};
use spans::{Figures, Recorder};
use stats::{iqm, mean, median, quantile};
use workload::{Inputs, References, Spec, SPECS};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Scratch space for sockets, logs and span files, under the working
/// directory.
const OUT_DIR: &str = ".perfbench_out";

/// Fig. 7 of this reproduction at 20 hops (EXPERIMENTS.md): mean and
/// standard deviation of the settling point over 100 runs.
const FIG7_20_HOPS: (f64, f64, f64) = (62.9, 39.8, 100.0);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = SPECS.iter().find(|s| s.name == args.workload) else {
        eprintln!("error: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let run_dir = PathBuf::from(OUT_DIR).join(format!("{}-{}", spec.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("error: cannot create {}: {e}", run_dir.display());
        return ExitCode::FAILURE;
    }
    let code = run(spec, &args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    code
}

fn run(spec: &Spec, args: &Args, run_dir: &std::path::Path) -> ExitCode {
    let cores = host::cores();
    let mut failures: Vec<String> = Vec::new();

    // Inputs, references and episodes: made from the seed, off every clock.
    let prep = Instant::now();
    let keys = e2e::derive_keys(spec.field().nodes());
    let inputs = Inputs::new(spec, &keys, args.seed);
    let refs = References::new(&keys, &inputs);
    let settle = match workload::packets_to_verdict(spec, &keys, args.seed, cores) {
        Ok(v) => v,
        Err(e) => {
            failures.push(e);
            Vec::new()
        }
    };
    let settle_f: Vec<f64> = settle.iter().map(|&s| s as f64).collect();
    let packets_to_verdict = mean(&settle_f);
    check_settling(spec, &settle_f, &mut failures);
    eprintln!(
        "perfbench: {} seed {}: {} packets per round, inputs ready in {:.2} s",
        spec.name,
        args.seed,
        inputs.stream.len(),
        prep.elapsed().as_secs_f64()
    );

    let ctx = Ctx {
        spec,
        inputs: &inputs,
        refs: &refs,
        dir: run_dir.to_path_buf(),
        sock: run_dir.join("gw.sock"),
        seed: args.seed,
    };
    let mut rec = Recorder::new(false);
    let mut rounds: Vec<Round> = Vec::new();
    let mut ref_rates = vec![host::ref_rate(cores)];
    let budget = Duration::from_secs(args.seconds);
    let steal0 = host::cpu_steal_jiffies();
    let start = Instant::now();
    let mut next_id = 0u64;
    // Whole rounds only; a traced run needs one untraced and one traced.
    while start.elapsed() < budget || rounds.len() < 2 {
        rec.set_enabled(args.trace && rounds.len() % 2 == 1);
        let round = e2e::round(&ctx, rounds.len(), &mut rec, next_id);
        next_id += inputs.stream.len() as u64;
        ref_rates.push(host::ref_rate(cores));
        rounds.push(round);
    }

    let steal1 = host::cpu_steal_jiffies();
    let steal_pct = (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64 * 100.0;

    let attempted: u64 = rounds
        .iter()
        .map(|r| inputs.stream.len() as u64 + u64::from(r.restart_ok.is_some()))
        .sum();
    let failed: u64 = rounds
        .iter()
        .map(|r| inputs.stream.len() as u64 - r.packets() + u64::from(r.restart_ok == Some(false)))
        .sum();
    for (i, r) in rounds.iter().enumerate() {
        failures.extend(r.failures.iter().map(|f| format!("round {i}: {f}")));
    }

    // End-to-end figures from the untraced rounds: set-up as the median
    // over rounds, latency percentiles and rates per round, then their
    // interquartile mean. The metrics are raw; the fingerprint also
    // records them normalised to the nominal host speed (a rate scaled by
    // nominal ÷ the run's median reference rate, a time by its inverse).
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let ref_median = median(&ref_rates);
    let e2e = |speed: f64| -> [f64; 5] {
        let per_round =
            |x: &dyn Fn(&Round) -> f64| -> Vec<f64> { plain.iter().map(|r| x(r)).collect() };
        [
            median(&per_round(&|r| r.setup_s)) * speed,
            iqm(&per_round(&|r| quantile(&r.acks_us, 0.5))) * speed,
            iqm(&per_round(&|r| quantile(&r.acks_us, 0.9))) * speed,
            iqm(&per_round(&|r| r.packets() as f64 / r.ingest_s)) / speed,
            iqm(&per_round(&|r| r.packets() as f64 / r.verdict_s)) / speed,
        ]
    };
    let raw = e2e(1.0);
    let norm = e2e(ref_median / host::NOMINAL_REF_RATE);
    let peak_rss = host::peak_rss_mib();

    let mut trace_lines = Vec::new();
    let mut metrics = if args.trace {
        rec.set_enabled(true);
        let counts = layers::replay(&ctx, &mut rec, &mut failures);
        let spans_path =
            PathBuf::from(OUT_DIR).join(format!("spans-{}-{}.jsonl", spec.name, args.seed));
        match rec.write_jsonl(&spans_path) {
            Ok(()) => trace_lines.push(format!(
                "\"spans_file\": \"{}\", \"spans\": {}",
                spans_path.display(),
                rec.spans().len()
            )),
            Err(e) => failures.push(format!("cannot write {}: {e}", spans_path.display())),
        }
        let layer = layer_metrics(&rec, &counts, &rounds, raw[3]);
        // The closure on the timer-bound edge: one idle round trip plus
        // the admission call should account for the median ack.
        let value = |name| {
            layer
                .iter()
                .find(|x| x.name == name)
                .map_or(0.0, |x| x.value)
        };
        let sum = value("gateway.health_rtt_us") + value("gateway.admit_us");
        trace_lines.push(format!(
            "\"closure\": {{\"health_rtt_plus_admit_us\": {sum:.1}, \"ack_p50_us\": {:.1}, \"ratio\": {:.3}}}",
            raw[1],
            sum / raw[1]
        ));
        layer
    } else {
        vec![
            m("setup_s", "s", raw[0]),
            m("ack_p50_us", "us", raw[1]),
            m("ack_p90_us", "us", raw[2]),
            m("acked_pps", "1/s", raw[3]),
            m("verdict_pps", "1/s", raw[4]),
            m("packets_to_verdict", "packets", packets_to_verdict),
            m("peak_rss_mb", "MiB", peak_rss),
        ]
    };

    // Host fingerprint and the raw and normalised figures, on their own
    // line before the result.
    let names = [
        "setup_s",
        "ack_p50_us",
        "ack_p90_us",
        "acked_pps",
        "verdict_pps",
    ];
    let fig = |v: [f64; 5]| {
        names
            .iter()
            .zip(v)
            .map(|(n, x)| format!("\"{n}\": {x}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut host_line = format!(
        "{{\"host\": {{\"cores\": {cores}, \"sha256_backend\": \"{}\", \"force_portable\": {}, \"ref_rate_median\": {ref_median}, \"ref_rate_min\": {}, \"ref_rate_max\": {}, \"nominal_ref_rate\": {}, \"steal_pct\": {steal_pct:.2}}}, \"workload\": \"{}\", \"seed\": {}, \"rounds\": {}, \"untraced_rounds\": {}, \"raw\": {{{}}}, \"normalised\": {{{}}}",
        Sha256xN::backend().name(),
        std::env::var_os("PNM_SHA256_FORCE_PORTABLE").is_some(),
        ref_rates.iter().copied().fold(f64::INFINITY, f64::min),
        ref_rates.iter().copied().fold(0.0, f64::max),
        host::NOMINAL_REF_RATE,
        spec.name,
        args.seed,
        rounds.len(),
        plain.len(),
        fig(raw),
        fig(norm),
    );
    for line in &trace_lines {
        host_line.push_str(", ");
        host_line.push_str(line);
    }
    host_line.push('}');
    println!("{host_line}");

    for x in metrics.iter_mut().filter(|x| !x.value.is_finite()) {
        failures.push(format!("{} measured no finite value", x.name));
        x.value = 0.0;
    }
    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failures.is_empty(),
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}

/// The per-layer metrics of a traced run, from its spans, the replay's
/// counts and the rounds' reports. `untraced_rate` is the untraced rounds'
/// acked rate, the base of the tracing overhead.
fn layer_metrics(
    rec: &Recorder,
    counts: &layers::Counts,
    rounds: &[Round],
    untraced_rate: f64,
) -> Vec<Metric> {
    let figs = Figures::new(rec);
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let traced_rate = iqm(&traced
        .iter()
        .map(|r| r.packets() as f64 / r.ingest_s)
        .collect::<Vec<_>>());
    let (allocs, alloc_bytes) = figs.allocs_per_unit("core.ingest");
    let attempts: u64 = rounds.iter().map(|r| r.report.attempts).sum();
    let counted: u64 = rounds.iter().map(|r| r.report.counted).sum();
    let health_us = figs.median_ns("gateway.health") / 1e3;
    let admit_us = figs.median_ns("gateway.admit") / 1e3;
    vec![
        m("gateway.health_rtt_us", "us", health_us),
        m("gateway.admit_us", "us", admit_us),
        m(
            "gateway.idle_cpu_pct",
            "%",
            median(
                &traced
                    .iter()
                    .filter_map(|r| r.idle_cpu_pct)
                    .collect::<Vec<_>>(),
            ),
        ),
        m(
            "gateway.wire_bytes_per_pkt",
            "bytes",
            counts.wire_bytes_per_pkt,
        ),
        m(
            "gateway.attempts_per_pkt",
            "attempts",
            attempts as f64 / counted.max(1) as f64,
        ),
        m(
            "service.block_us",
            "us",
            figs.median_ns("service.ingest") / 1e3,
        ),
        m(
            "service.backlog_max",
            "packets",
            traced.iter().map(|r| r.backlog_max).max().unwrap_or(0) as f64,
        ),
        m(
            "service.engine_clone_us",
            "us",
            figs.median_ns("service.engine_clone") / 1e3,
        ),
        m(
            "service.drain_ms",
            "ms",
            figs.median_ns("service.pool_drain") / 1e6,
        ),
        m(
            "core.ingest_us",
            "us",
            figs.ns_per_unit("core.ingest") / 1e3,
        ),
        m(
            "core.table_build_us",
            "us",
            figs.ns_per_unit("core.table_build") / 1e3,
        ),
        m("core.tables_per_pkt", "tables", counts.tables_per_pkt),
        m("core.hashes_per_pkt", "hashes", counts.hashes_per_pkt),
        m(
            "core.verify_us",
            "us",
            figs.ns_per_unit("core.verify") / 1e3,
        ),
        m("core.allocs_per_pkt", "allocations", allocs),
        m("core.alloc_bytes_per_pkt", "bytes", alloc_bytes),
        m(
            "core.store.checkpoint_us",
            "us",
            figs.ns_per_unit("core.store.checkpoint") / 1e3,
        ),
        m(
            "core.store.log_bytes_per_pkt",
            "bytes",
            counts.log_bytes_per_pkt,
        ),
        m(
            "core.store.replay_ms",
            "ms",
            figs.median_ns("core.store.replay") / 1e6,
        ),
        m(
            "core.store.evidence_bytes",
            "bytes",
            median(
                &rounds
                    .iter()
                    .map(|r| r.evidence_bytes as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        m("crypto.keys_ms", "ms", figs.median_ns("crypto.keys") / 1e6),
        m(
            "crypto.anon_id_ns",
            "ns",
            figs.ns_per_unit("crypto.anon_id"),
        ),
        m(
            "crypto.mac_verify_ns",
            "ns",
            figs.ns_per_unit("crypto.mac_verify"),
        ),
        m(
            "wire.decode_us",
            "us",
            figs.ns_per_unit("wire.decode") / 1e3,
        ),
        m(
            "wire.report_encode_ns",
            "ns",
            figs.ns_per_unit("wire.report_encode"),
        ),
        m("wire.packet_bytes", "bytes", counts.packet_bytes),
        m("obs.scrape_ms", "ms", figs.median_ns("obs.scrape") / 1e6),
        m(
            "obs.trace_overhead_pct",
            "%",
            (untraced_rate / traced_rate - 1.0) * 100.0,
        ),
    ]
}

/// Fig. 7's band on the PNM field; exactly one packet under basic nested
/// marking (Theorems 1–2).
fn check_settling(spec: &Spec, settle: &[f64], failures: &mut Vec<String>) {
    if settle.len() != spec.episodes {
        return;
    }
    let got = mean(settle);
    match spec.marking {
        workload::Marking::Nested => {
            if settle.iter().any(|&s| s != 1.0) {
                failures.push(format!(
                    "nested marking needed more than one packet (mean {got})"
                ));
            }
        }
        workload::Marking::Pnm if spec.hops == (20, 20) => {
            let (fig_mean, fig_sd, fig_runs) = FIG7_20_HOPS;
            let own_sd = (settle.iter().map(|s| (s - got).powi(2)).sum::<f64>()
                / (settle.len() - 1).max(1) as f64)
                .sqrt();
            let se = (fig_sd * fig_sd / fig_runs + own_sd * own_sd / settle.len() as f64).sqrt();
            if (got - fig_mean).abs() > 4.0 * se {
                failures.push(format!(
                    "packets_to_verdict {got:.1} outside Fig. 7's band {fig_mean} ± {:.1}",
                    4.0 * se
                ));
            }
        }
        workload::Marking::Pnm => {}
    }
}
