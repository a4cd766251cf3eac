//! `bench` — end-to-end pipeline stage benchmark.
//!
//! ```text
//! cargo run --release -p astra-bench --bin bench -- pipeline \
//!     [--racks 4,12,36] [--shard-racks 108,360] [--seed 42] \
//!     [--out BENCH_pipeline.json] \
//!     [--check-floor crates/bench/floor_pipeline.json]
//! ```
//!
//! For each machine scale the driver runs the full production path —
//! simulate → serialize to disk → streaming parse → coalesce → spatial
//! aggregation → online prediction — and records per-stage wall time,
//! writing a JSON report
//! (default `BENCH_pipeline.json`, checked in at the repo root so the
//! perf trajectory is tracked across PRs). Each scale also sweeps the
//! supervised shard runner (`shard_s1`..`shard_s8`, auxiliary stages),
//! and `--shard-racks` adds generation + shard-sweep-only scales past
//! what the full pipeline can afford (the checked-in artifact uses
//! 108,360 — the fleet sizes ROADMAP item 2 calls for).
//!
//! `--check-floor` turns the run into a smoke gate for CI: the written
//! JSON must be syntactically valid and no stage may exceed 3× the
//! checked-in floor time for the matching rack count.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use astra_bench::json;
use astra_core::pipeline::{Analysis, AnalysisInput, Dataset};
use astra_core::stream::{stream_analyze, StreamOptions};
use astra_logs::binfmt::{self, LogFormat};
use astra_logs::io as logio;
use astra_logs::{ce, het, inventory, sensor};

const USAGE: &str = "\
bench — astra-mem pipeline benchmark driver

USAGE:
    bench pipeline [--racks LIST] [--shard-racks LIST] [--seed S] [--out FILE]
                   [--check-floor FILE] [--check-thresholds FILE]

OPTIONS:
    --racks LIST             comma-separated rack counts (default 4,12,36)
    --shard-racks LIST       extra scales measured through generation and the
                             supervised shard-count sweep only, skipping the
                             full pipeline (default none; the checked-in
                             artifact uses 108,360)
    --seed S                 master seed (default 42)
    --out FILE               JSON report path (default BENCH_pipeline.json)
    --check-floor FILE       fail if any stage exceeds 3x the floor time
    --check-thresholds FILE  run the stats --check regression gate against
                             each scale's metrics (p99, quarantine rate,
                             working set); fail on any violation
";

/// Shard counts every sweep point runs through — the supervised peer of
/// the `ASTRA_WORKERS` 1/2/4 determinism ladders, one step further.
const SHARD_SWEEP: [u32; 4] = [1, 2, 4, 8];

/// How much slower than the floor a stage may run before the smoke check
/// fails. Generous because CI machines are shared and slow.
const FLOOR_TOLERANCE: f64 = 3.0;

/// The span instrumentation with tracing *disabled* must cost less than
/// this fraction of pipeline wall time, or the run fails: the whole
/// design rests on the timeline being free when off.
const SPAN_OVERHEAD_LIMIT: f64 = 0.02;

struct Args {
    racks: Vec<u32>,
    shard_racks: Vec<u32>,
    seed: u64,
    out: PathBuf,
    check_floor: Option<PathBuf>,
    check_thresholds: Option<PathBuf>,
}

/// One measured pipeline stage: `(label, wall seconds)`.
type Stage = (&'static str, f64);

/// One `--shard-racks` scale: dataset cost plus the supervised
/// shard-count sweep, without the full pipeline.
struct ShardScaleResult {
    racks: u32,
    nodes: u32,
    ce_records: usize,
    simulate_secs: f64,
    serialize_bin_secs: f64,
    /// `(shard count, supervised wall seconds)` per sweep point.
    sweep: Vec<(u32, f64)>,
}

struct ScaleResult {
    racks: u32,
    nodes: u32,
    ce_records: usize,
    faults: usize,
    log_bytes: u64,
    /// Bytes the same dataset occupies in the binary columnar format.
    bin_log_bytes: u64,
    workingset_bytes: f64,
    stream_workingset_bytes: f64,
    stages: Vec<Stage>,
    /// Completed spans across the whole scale run (sum of every `time.*`
    /// histogram count) — the events `--trace-out` would have recorded.
    span_count: u64,
    /// This scale's final metric snapshot, for `--check-thresholds`.
    snapshot: astra_obs::Snapshot,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = argv.into_iter();
    match args.next().as_deref() {
        Some("pipeline") => {}
        Some("help" | "--help" | "-h") | None => return Err(String::new()),
        Some(other) => return Err(format!("unknown subcommand {other}")),
    }
    let mut parsed = Args {
        racks: vec![4, 12, 36],
        shard_racks: Vec::new(),
        seed: 42,
        out: PathBuf::from("BENCH_pipeline.json"),
        check_floor: None,
        check_thresholds: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--racks" => {
                let v = args.next().ok_or("--racks needs a value")?;
                parsed.racks = v
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<u32>()
                            .map_err(|_| format!("bad rack count {s}"))
                    })
                    .collect::<Result<_, _>>()?;
                if parsed.racks.is_empty() || parsed.racks.contains(&0) {
                    return Err("--racks needs positive counts".into());
                }
            }
            "--shard-racks" => {
                let v = args.next().ok_or("--shard-racks needs a value")?;
                parsed.shard_racks = v
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<u32>()
                            .map_err(|_| format!("bad rack count {s}"))
                    })
                    .collect::<Result<_, _>>()?;
                if parsed.shard_racks.contains(&0) {
                    return Err("--shard-racks needs positive counts".into());
                }
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                parsed.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--out" => {
                parsed.out = PathBuf::from(args.next().ok_or("--out needs a value")?);
            }
            "--check-floor" => {
                parsed.check_floor = Some(PathBuf::from(
                    args.next().ok_or("--check-floor needs a value")?,
                ));
            }
            "--check-thresholds" => {
                parsed.check_thresholds = Some(PathBuf::from(
                    args.next().ok_or("--check-thresholds needs a value")?,
                ));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    // The shard supervisor re-invokes `current_exe` in the hidden
    // worker mode; when this driver is the supervising process, that
    // re-executed binary is `bench` itself, so route a worker argv
    // straight back into the CLI implementation.
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some(astra_core::shard::WORKER_COMMAND) {
        return astra_core::cli::main(argv);
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) if e.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    // The micro-stage: per-span cost of the disabled-tracing fast path,
    // measured before the scales so it shares nothing with them.
    let per_span_ns = measure_span_overhead_ns();
    eprintln!("[bench] span overhead (tracing off): {per_span_ns:.0} ns/span");

    let mut results = Vec::new();
    for &racks in &args.racks {
        results.push(measure_scale(racks, args.seed)?);
    }
    let mut shard_results = Vec::new();
    for &racks in &args.shard_racks {
        shard_results.push(measure_shard_scale(racks, args.seed)?);
    }
    let report = render_report(args.seed, per_span_ns, &results, &shard_results);
    json::validate(&report).map_err(|e| format!("generated report is malformed: {e}"))?;
    std::fs::write(&args.out, &report)
        .map_err(|e| format!("writing {}: {e}", args.out.display()))?;
    eprintln!("[bench] wrote {}", args.out.display());
    print_table(&results);
    print_shard_table(&shard_results);

    // Gate: instrumentation cost extrapolated over each scale's actual
    // span volume must stay under SPAN_OVERHEAD_LIMIT of its wall time.
    for r in &results {
        let frac = span_overhead_frac(per_span_ns, r);
        eprintln!(
            "[bench] {} racks: {} spans, instrumentation ~{:.3}% of pipeline time",
            r.racks,
            r.span_count,
            100.0 * frac
        );
        if frac > SPAN_OVERHEAD_LIMIT {
            return Err(format!(
                "span instrumentation costs {:.2}% of the {}-rack pipeline \
                 (limit {:.0}%): the disabled-tracing fast path regressed",
                100.0 * frac,
                r.racks,
                100.0 * SPAN_OVERHEAD_LIMIT
            ));
        }
    }

    if let Some(floor_path) = &args.check_floor {
        check_floor(floor_path, &args.out, &results)?;
        eprintln!("[bench] floor check passed ({FLOOR_TOLERANCE}x tolerance)");
    }
    if let Some(thresholds_path) = &args.check_thresholds {
        check_thresholds(thresholds_path, &results)?;
        eprintln!("[bench] threshold check passed at every scale");
    }
    Ok(())
}

/// Time the span fast path with tracing off: open and drop spans against
/// a private registry in a tight loop. This is exactly what every
/// instrumented stage pays per span in a production (untraced) run.
fn measure_span_overhead_ns() -> f64 {
    const WARMUP: u32 = 10_000;
    const ITERS: u32 = 200_000;
    let registry = astra_obs::Registry::new();
    for _ in 0..WARMUP {
        let _guard = astra_obs::span_in(&registry, "bench.span_overhead");
    }
    let t = Instant::now();
    for _ in 0..ITERS {
        let _guard = astra_obs::span_in(&registry, "bench.span_overhead");
    }
    t.elapsed().as_nanos() as f64 / ITERS as f64
}

/// Instrumentation cost as a fraction of the scale's pipeline time: the
/// measured per-span cost times the spans the run actually completed.
fn span_overhead_frac(per_span_ns: f64, r: &ScaleResult) -> f64 {
    let total_ns = total_secs(r) * 1e9;
    if total_ns <= 0.0 {
        return 0.0;
    }
    per_span_ns * r.span_count as f64 / total_ns
}

/// The `stats --check` regression gate, applied to every scale's final
/// snapshot.
fn check_thresholds(path: &std::path::Path, results: &[ScaleResult]) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let thresholds =
        astra_obs::Thresholds::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    for r in results {
        let report = astra_obs::check(&thresholds, &r.snapshot);
        if !report.ok() {
            eprintln!("[bench] {} racks:\n{}", r.racks, report.render());
            return Err(format!(
                "{} of {} threshold rules exceeded at {} racks",
                report.violations(),
                report.results.len(),
                r.racks
            ));
        }
    }
    Ok(())
}

fn measure_scale(racks: u32, seed: u64) -> Result<ScaleResult, String> {
    eprintln!("[bench] measuring {racks} racks (seed {seed})...");
    astra_obs::reset_global();

    let t = Instant::now();
    let ds = Dataset::generate(racks, seed);
    let simulate_secs = t.elapsed().as_secs_f64();
    // The parallel k-way merge runs inside `simulate`; report its share
    // separately from the span metric it publishes.
    let merge_secs = timing_by_suffix("pipeline.merge");

    // Materialize the sensor excerpt before the serializer timings so
    // both formats measure pure serialization, not telemetry synthesis.
    std::hint::black_box(ds.sensor_excerpt());

    let dir = std::env::temp_dir().join(format!("astra-bench-pipeline-{}", std::process::id()));
    let t = Instant::now();
    ds.write_logs(&dir).map_err(|e| e.to_string())?;
    let serialize_secs = t.elapsed().as_secs_f64();
    let log_bytes = dir_bytes(&dir)?;

    let t = Instant::now();
    let input = AnalysisInput::from_dir(&dir).map_err(|e| e.to_string())?;
    let parse_secs = t.elapsed().as_secs_f64();

    let ce_records = input.records.len();
    let analysis = Analysis::run(ds.system, input.records);
    // The batch path drives the incremental engine: `consume` is the
    // sharded single pass, `coalesce`/`spatial` are the snapshot stages.
    let consume_secs = timing_by_suffix("pipeline.consume");
    let coalesce_secs = timing_by_suffix("pipeline.coalesce");
    let spatial_secs = timing_by_suffix("pipeline.spatial");
    let workingset_bytes = astra_obs::global()
        .snapshot()
        .gauge("pipeline.workingset_bytes");

    let t = Instant::now();
    let alerts = astra_predict::replay(
        &analysis.records,
        &astra_predict::PredictConfig::default(),
        &astra_predict::default_predictors(),
    );
    let predict_secs = t.elapsed().as_secs_f64();
    // Keep the alert stream alive through the timer so the stage cannot be
    // optimized away.
    std::hint::black_box(&alerts);

    // The streaming engine re-analyzes the same directory end to end
    // (parse + all analyses in one pass). It is an alternative to the
    // parse→analyze→predict path above, not a stage of it, so it is
    // excluded from the pipeline total; its peak accounted working set
    // is the bounded-memory claim the report tracks.
    let t = Instant::now();
    let report =
        stream_analyze(&dir, ds.system, &StreamOptions::default()).map_err(|e| e.to_string())?;
    let stream_secs = t.elapsed().as_secs_f64();
    std::hint::black_box(&report);
    let stream_workingset_bytes = astra_obs::global()
        .snapshot()
        .gauge("stream.workingset_bytes");

    // Full dataset verification (the `astra-mem fsck` hot loop): a
    // lenient classify-everything pass over every log. Like `stream` it
    // is an auxiliary pass, not a stage of the batch pipeline.
    let t = Instant::now();
    let fsck_opts = astra_logs::IngestOptions::lenient(Some(1.0));
    let q_ce = logio::parse_file_streaming(&dir.join("ce.log"), ce::FORMAT, &fsck_opts, "fsck.ce")
        .map_err(|e| e.to_string())?
        .1;
    let q_het =
        logio::parse_file_streaming(&dir.join("het.log"), het::FORMAT, &fsck_opts, "fsck.het")
            .map_err(|e| e.to_string())?
            .1;
    let q_inv = logio::parse_file_streaming(
        &dir.join("inventory.log"),
        inventory::FORMAT,
        &fsck_opts,
        "fsck.inventory",
    )
    .map_err(|e| e.to_string())?
    .1;
    let q_sen = logio::parse_file_streaming(
        &dir.join("sensors.log"),
        sensor::FORMAT,
        &fsck_opts,
        "fsck.sensors",
    )
    .map_err(|e| e.to_string())?
    .1;
    let fsck_secs = t.elapsed().as_secs_f64();
    for q in [&q_ce, &q_het, &q_inv, &q_sen] {
        if !q.is_empty() {
            return Err(format!(
                "fsck of a clean dataset found damage {}",
                q.summary()
            ));
        }
    }
    // The serve daemon answering live queries over the same directory:
    // start in-process, wait for the site's first full poll (which
    // ingests the whole static dataset), then time a fixed hammer of
    // reads across the endpoint surface. Like `stream` and `fsck` it is
    // an auxiliary pass, not a stage of the batch pipeline.
    let serve_opts = astra_serve::ServeOptions {
        listen: "127.0.0.1:0".to_string(),
        poll_interval: std::time::Duration::from_millis(10),
        ..astra_serve::ServeOptions::default()
    };
    let server = astra_core::serve::start_sites(
        &[(dir.clone(), ds.system)],
        &StreamOptions::default(),
        &serve_opts,
    )?;
    if !server.wait_ready(std::time::Duration::from_secs(300)) {
        return Err("serve daemon never became ready".into());
    }
    let site = dir.file_name().unwrap().to_string_lossy().into_owned();
    const SERVE_QUERIES: usize = 64;
    let t = Instant::now();
    for i in 0..SERVE_QUERIES {
        let path = match i % 4 {
            0 => format!("/site/{site}/analysis"),
            1 => format!("/site/{site}/spatial"),
            2 => format!("/site/{site}"),
            _ => "/health".to_string(),
        };
        let resp = astra_serve::http::get(server.addr(), &path)
            .map_err(|e| format!("serve query {path}: {e}"))?;
        if resp.status != 200 {
            return Err(format!("serve query {path} returned {}", resp.status));
        }
        std::hint::black_box(&resp.body);
    }
    let serve_secs = t.elapsed().as_secs_f64();
    server.trigger_shutdown();
    server.join();

    std::fs::remove_dir_all(&dir).ok();

    // Binary columnar peers of serialize/parse/fsck: the same dataset
    // through the astra-binlog format. Parse is verified record-identical
    // against the simulator ground truth, and fsck is the CRC sweep.
    let bin_dir = std::env::temp_dir().join(format!("astra-bench-binlog-{}", std::process::id()));
    let t = Instant::now();
    ds.write_logs_as(&bin_dir, LogFormat::Binary)
        .map_err(|e| e.to_string())?;
    let serialize_bin_secs = t.elapsed().as_secs_f64();
    let bin_log_bytes = dir_bytes(&bin_dir)?;

    let t = Instant::now();
    let bin_input = AnalysisInput::from_dir(&bin_dir).map_err(|e| e.to_string())?;
    let parse_bin_secs = t.elapsed().as_secs_f64();
    if bin_input.records != ds.sim.ce_log || bin_input.hets != ds.sim.het_log {
        return Err("binary parse disagrees with the simulated records".into());
    }
    std::hint::black_box(&bin_input);

    let t = Instant::now();
    for (name, kind) in [
        ("ce.log", binfmt::KIND_CE),
        ("het.log", binfmt::KIND_HET),
        ("inventory.log", binfmt::KIND_INVENTORY),
        ("sensors.log", binfmt::KIND_SENSOR),
    ] {
        let q = binfmt::fsck_scan(&bin_dir.join(name), kind).map_err(|e| e.to_string())?;
        if !q.is_empty() {
            return Err(format!(
                "binary fsck of a clean dataset found damage {}",
                q.summary()
            ));
        }
    }
    let fsck_bin_secs = t.elapsed().as_secs_f64();

    let snapshot = astra_obs::global().snapshot();
    let span_count = snapshot
        .entries
        .iter()
        .filter_map(|(_, frozen)| match frozen {
            astra_obs::Frozen::Timing(h) => Some(h.count),
            _ => None,
        })
        .sum();

    let mut stages = vec![
        ("simulate", simulate_secs),
        ("merge", merge_secs),
        ("serialize", serialize_secs),
        ("parse", parse_secs),
        ("consume", consume_secs),
        ("coalesce", coalesce_secs),
        ("spatial", spatial_secs),
        ("predict", predict_secs),
        ("stream", stream_secs),
        ("fsck", fsck_secs),
        ("serve", serve_secs),
        ("serialize_bin", serialize_bin_secs),
        ("parse_bin", parse_bin_secs),
        ("fsck_bin", fsck_bin_secs),
    ];

    // Per-profile generation cost at the same rack count: auxiliary
    // stages (a run simulates *one* platform, so these never count
    // toward the pipeline total) that keep the non-astra simulators'
    // cost on the perf trajectory. Measured after the snapshot so their
    // spans stay out of span_count and the threshold gate.
    for profile in astra_platform::registry() {
        if profile.name == "astra" {
            continue; // already measured as `simulate`
        }
        let label: &'static str =
            Box::leak(format!("generate_{}", profile.name.replace('-', "_")).into_boxed_str());
        let t = Instant::now();
        let pds = Dataset::generate_profile(&profile, Some(racks), seed);
        let secs = t.elapsed().as_secs_f64();
        std::hint::black_box(&pds);
        stages.push((label, secs));
    }

    // Supervised shard sweep over the binary dataset: each point
    // re-runs the whole analysis through `shard-analyze`'s supervisor
    // with worker subprocesses. Auxiliary like `stream`/`fsck` — an
    // alternative full pass, never part of the pipeline total — and
    // measured after the snapshot so its spans stay out of the gates.
    for (shards, secs) in supervised_sweep(&bin_dir, &ds, seed)? {
        let label: &'static str = Box::leak(format!("shard_s{shards}").into_boxed_str());
        stages.push((label, secs));
    }
    std::fs::remove_dir_all(&bin_dir).ok();

    Ok(ScaleResult {
        racks,
        nodes: ds.system.node_count(),
        ce_records,
        faults: analysis.faults.len(),
        log_bytes,
        bin_log_bytes,
        workingset_bytes,
        stream_workingset_bytes,
        stages,
        span_count,
        snapshot,
    })
}

/// One supervised `shard-analyze` pass per [`SHARD_SWEEP`] point over
/// an already-written dataset directory. The dataset has no manifest
/// (it came from `write_logs_as`, not `generate`), so the workers get
/// the machine shape replayed as an explicit `--racks` flag.
fn supervised_sweep(
    dir: &std::path::Path,
    ds: &Dataset,
    seed: u64,
) -> Result<Vec<(u32, f64)>, String> {
    let mut sweep = Vec::new();
    for shards in SHARD_SWEEP {
        let cfg = astra_core::shard::SupervisorConfig {
            dir: dir.to_path_buf(),
            system: ds.system,
            shards,
            timeout: std::time::Duration::from_secs(3600),
            retries: 2,
            degraded: false,
            seed,
            worker_flags: vec!["--racks".into(), ds.system.racks.to_string()],
            stream: StreamOptions::default(),
        };
        let t = Instant::now();
        let supervised = astra_core::shard::supervise(&cfg)?;
        let secs = t.elapsed().as_secs_f64();
        std::hint::black_box(&supervised.analyzer);
        sweep.push((shards, secs));
    }
    Ok(sweep)
}

/// A `--shard-racks` scale: simulate, serialize binary, sweep the
/// supervised shard runner, and skip the rest of the pipeline — these
/// scales exist to extend the shard scaling curve past what the full
/// stage set can afford per run.
fn measure_shard_scale(racks: u32, seed: u64) -> Result<ShardScaleResult, String> {
    eprintln!("[bench] measuring {racks} racks (seed {seed}, shard sweep only)...");
    astra_obs::reset_global();

    let t = Instant::now();
    let ds = Dataset::generate(racks, seed);
    let simulate_secs = t.elapsed().as_secs_f64();

    let dir =
        std::env::temp_dir().join(format!("astra-bench-shard-{racks}-{}", std::process::id()));
    let t = Instant::now();
    ds.write_logs_as(&dir, LogFormat::Binary)
        .map_err(|e| e.to_string())?;
    let serialize_bin_secs = t.elapsed().as_secs_f64();

    let sweep = supervised_sweep(&dir, &ds, seed);
    std::fs::remove_dir_all(&dir).ok();

    Ok(ShardScaleResult {
        racks,
        nodes: ds.system.node_count(),
        ce_records: ds.sim.ce_log.len(),
        simulate_secs,
        serialize_bin_secs,
        sweep: sweep?,
    })
}

/// Sum of `time.` metrics whose span path ends in `suffix` (span paths
/// nest, so match by leaf — same rule as `astra-mem stats`).
fn timing_by_suffix(suffix: &str) -> f64 {
    let snap = astra_obs::global().snapshot();
    snap.entries
        .iter()
        .filter(|(name, _)| {
            name.strip_prefix("time.")
                .map(|path| path == suffix || path.ends_with(&format!("/{suffix}")))
                .unwrap_or(false)
        })
        .map(|(name, _)| snap.timing_secs(name))
        .sum()
}

fn dir_bytes(dir: &std::path::Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        total += entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?
            .len();
    }
    Ok(total)
}

/// `simulate` wall time already contains the merge; `stream`, `fsck`,
/// `serve`, and the `shard_s*` sweep are alternative full passes over
/// the same data, not stages of the batch pipeline; the `*_bin` stages
/// are the binary format's peers of stages already counted; and the
/// `generate_*` stages time the other platform profiles' simulators (a
/// pipeline run simulates one platform). The total is the sum of the
/// remaining disjoint stages.
fn total_secs(r: &ScaleResult) -> f64 {
    r.stages
        .iter()
        .filter(|(label, _)| {
            *label != "merge"
                && *label != "stream"
                && *label != "fsck"
                && *label != "serve"
                && !label.ends_with("_bin")
                && !label.starts_with("generate_")
                && !label.starts_with("shard_s")
        })
        .map(|(_, secs)| secs)
        .sum()
}

fn render_report(
    seed: u64,
    per_span_ns: f64,
    results: &[ScaleResult],
    shard_results: &[ShardScaleResult],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"astra-bench-pipeline/v1\",\n");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(
        out,
        "  \"workers\": {},",
        astra_util::par::worker_count(usize::MAX)
    );
    let _ = writeln!(out, "  \"span_overhead_ns\": {per_span_ns:.1},");
    out.push_str("  \"scales\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"racks\": {},", r.racks);
        let _ = writeln!(out, "      \"nodes\": {},", r.nodes);
        let _ = writeln!(out, "      \"ce_records\": {},", r.ce_records);
        let _ = writeln!(out, "      \"faults\": {},", r.faults);
        let _ = writeln!(out, "      \"log_bytes\": {},", r.log_bytes);
        let _ = writeln!(out, "      \"bin_log_bytes\": {},", r.bin_log_bytes);
        let _ = writeln!(
            out,
            "      \"text_over_bin_bytes\": {:.2},",
            if r.bin_log_bytes > 0 {
                r.log_bytes as f64 / r.bin_log_bytes as f64
            } else {
                0.0
            }
        );
        let _ = writeln!(
            out,
            "      \"workingset_mib\": {:.1},",
            r.workingset_bytes / (1024.0 * 1024.0)
        );
        let _ = writeln!(
            out,
            "      \"stream_workingset_mib\": {:.1},",
            r.stream_workingset_bytes / (1024.0 * 1024.0)
        );
        let _ = writeln!(out, "      \"span_count\": {},", r.span_count);
        let _ = writeln!(
            out,
            "      \"span_overhead_frac\": {:.6},",
            span_overhead_frac(per_span_ns, r)
        );
        out.push_str("      \"stages\": {\n");
        for (j, (label, secs)) in r.stages.iter().enumerate() {
            let comma = if j + 1 < r.stages.len() { "," } else { "" };
            let _ = writeln!(out, "        \"{label}\": {secs:.6}{comma}");
        }
        out.push_str("      },\n");
        let _ = writeln!(out, "      \"total_secs\": {:.6}", total_secs(r));
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    if shard_results.is_empty() {
        out.push_str("  ]\n}\n");
        return out;
    }
    out.push_str("  ],\n");
    out.push_str("  \"shard_scales\": [\n");
    for (i, r) in shard_results.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"racks\": {},", r.racks);
        let _ = writeln!(out, "      \"nodes\": {},", r.nodes);
        let _ = writeln!(out, "      \"ce_records\": {},", r.ce_records);
        let _ = writeln!(out, "      \"simulate\": {:.6},", r.simulate_secs);
        let _ = writeln!(out, "      \"serialize_bin\": {:.6},", r.serialize_bin_secs);
        out.push_str("      \"shard_analyze\": {\n");
        for (j, (shards, secs)) in r.sweep.iter().enumerate() {
            let comma = if j + 1 < r.sweep.len() { "," } else { "" };
            let _ = writeln!(out, "        \"s{shards}\": {secs:.6}{comma}");
        }
        out.push_str("      }\n");
        let comma = if i + 1 < shard_results.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  ]\n}\n");
    out
}

fn print_table(results: &[ScaleResult]) {
    // Columns follow the stage list, so new stages never drift out of
    // alignment with a hand-kept header; widths stretch to long labels.
    let Some(first) = results.first() else { return };
    print!("{:>6} {:>8} {:>10}", "racks", "nodes", "CEs");
    for (label, _) in &first.stages {
        print!(" {label:>width$}", width = label.len().max(9));
    }
    println!(" {:>9}", "total");
    for r in results {
        print!("{:>6} {:>8} {:>10}", r.racks, r.nodes, r.ce_records);
        for (label, secs) in &r.stages {
            print!(
                " {:>width$}",
                format!("{secs:.3}s"),
                width = label.len().max(9)
            );
        }
        println!(" {:>9}", format!("{:.3}s", total_secs(r)));
    }
}

fn print_shard_table(results: &[ShardScaleResult]) {
    let Some(first) = results.first() else { return };
    print!(
        "{:>6} {:>8} {:>10} {:>9} {:>13}",
        "racks", "nodes", "CEs", "simulate", "serialize_bin"
    );
    for (shards, _) in &first.sweep {
        print!(" {:>9}", format!("shard_s{shards}"));
    }
    println!();
    for r in results {
        print!(
            "{:>6} {:>8} {:>10} {:>9} {:>13}",
            r.racks,
            r.nodes,
            r.ce_records,
            format!("{:.3}s", r.simulate_secs),
            format!("{:.3}s", r.serialize_bin_secs)
        );
        for (_, secs) in &r.sweep {
            print!(" {:>9}", format!("{secs:.3}s"));
        }
        println!();
    }
}

/// Gate against the checked-in floor: the written report must be valid
/// JSON and each stage listed in the floor must run within
/// [`FLOOR_TOLERANCE`]× its floor time at the floor's rack count.
fn check_floor(
    floor_path: &std::path::Path,
    report_path: &std::path::Path,
    results: &[ScaleResult],
) -> Result<(), String> {
    // Re-read from disk: the gate is about the artifact CI would archive.
    let report = std::fs::read_to_string(report_path)
        .map_err(|e| format!("reading {}: {e}", report_path.display()))?;
    json::validate(&report).map_err(|e| format!("{} is malformed: {e}", report_path.display()))?;

    let floor = std::fs::read_to_string(floor_path)
        .map_err(|e| format!("reading {}: {e}", floor_path.display()))?;
    json::validate(&floor).map_err(|e| format!("{} is malformed: {e}", floor_path.display()))?;
    let floor_racks = json::number_field(&floor, "racks")
        .ok_or_else(|| format!("{} has no \"racks\" field", floor_path.display()))?
        as u32;
    let measured = results
        .iter()
        .find(|r| r.racks == floor_racks)
        .ok_or_else(|| format!("no measured scale matches floor racks={floor_racks}"))?;

    let mut failures = Vec::new();
    for (label, secs) in &measured.stages {
        let Some(floor_secs) = json::number_field(&floor, label) else {
            continue;
        };
        let limit = floor_secs * FLOOR_TOLERANCE;
        if *secs > limit {
            failures.push(format!(
                "{label}: {secs:.3}s exceeds {limit:.3}s ({FLOOR_TOLERANCE}x floor {floor_secs:.3}s)"
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "stage regression vs floor:\n  {}",
            failures.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> impl Iterator<Item = String> {
        args.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn parses_full_command_line() {
        let a = parse_args(argv(&[
            "pipeline",
            "--racks",
            "2,4",
            "--shard-racks",
            "108,360",
            "--seed",
            "7",
            "--out",
            "/tmp/x.json",
            "--check-floor",
            "floor.json",
            "--check-thresholds",
            "thresholds.json",
        ]))
        .unwrap();
        assert_eq!(a.racks, vec![2, 4]);
        assert_eq!(a.shard_racks, vec![108, 360]);
        assert_eq!(a.seed, 7);
        assert_eq!(a.out, PathBuf::from("/tmp/x.json"));
        assert_eq!(a.check_floor, Some(PathBuf::from("floor.json")));
        assert_eq!(a.check_thresholds, Some(PathBuf::from("thresholds.json")));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(argv(&["pipeline", "--racks", "0"])).is_err());
        assert!(parse_args(argv(&["pipeline", "--shard-racks", "0"])).is_err());
        assert!(parse_args(argv(&["nonsense"])).is_err());
        assert!(parse_args(argv(&["pipeline", "--bogus"])).is_err());
    }

    fn sample_result() -> ScaleResult {
        ScaleResult {
            racks: 2,
            nodes: 144,
            ce_records: 1000,
            faults: 10,
            log_bytes: 4096,
            bin_log_bytes: 1024,
            workingset_bytes: 65536.0,
            stream_workingset_bytes: 32768.0,
            stages: vec![
                ("simulate", 0.5),
                ("merge", 0.1),
                ("parse", 0.25),
                ("stream", 0.4),
                ("serve", 0.3),
                ("parse_bin", 9.9),
                ("generate_x86_ddr4", 7.7),
            ],
            span_count: 1500,
            snapshot: astra_obs::Registry::new().snapshot(),
        }
    }

    #[test]
    fn report_is_valid_json() {
        let results = vec![sample_result()];
        let shard_results = vec![ShardScaleResult {
            racks: 108,
            nodes: 7776,
            ce_records: 5000,
            simulate_secs: 2.5,
            serialize_bin_secs: 0.5,
            sweep: vec![(1, 4.0), (2, 3.0), (4, 2.5), (8, 2.25)],
        }];
        let report = render_report(42, 120.0, &results, &shard_results);
        json::validate(&report).unwrap();
        assert_eq!(json::number_field(&report, "s8"), Some(2.25));
        assert_eq!(json::number_field(&report, "racks"), Some(2.0));
        assert_eq!(json::number_field(&report, "simulate"), Some(0.5));
        // total excludes the merge share (inside simulate), the stream
        // and serve passes (alternatives to parse+analyze, not stages of
        // it), the binary peers of already-counted stages, and the
        // other profiles' auxiliary generate stages.
        assert_eq!(json::number_field(&report, "total_secs"), Some(0.75));
        assert_eq!(json::number_field(&report, "generate_x86_ddr4"), Some(7.7));
        assert_eq!(json::number_field(&report, "parse_bin"), Some(9.9));
        assert_eq!(json::number_field(&report, "bin_log_bytes"), Some(1024.0));
        assert_eq!(
            json::number_field(&report, "text_over_bin_bytes"),
            Some(4.0)
        );
        assert_eq!(json::number_field(&report, "span_overhead_ns"), Some(120.0));
        assert_eq!(json::number_field(&report, "span_count"), Some(1500.0));
    }

    #[test]
    fn span_overhead_fraction_scales_with_span_volume() {
        let r = sample_result();
        // 1500 spans at 100 ns over 0.75 s of pipeline: 0.02% — well
        // under the 2% gate.
        let frac = span_overhead_frac(100.0, &r);
        assert!((frac - 0.0002).abs() < 1e-9, "{frac}");
        assert!(frac < SPAN_OVERHEAD_LIMIT);
    }

    #[test]
    fn span_overhead_micro_stage_returns_a_sane_cost() {
        let per_span = measure_span_overhead_ns();
        // A span is a string push, an Instant read, and a histogram
        // insert; anything past 100 µs means the clock or the fast path
        // is broken.
        assert!(per_span > 0.0 && per_span < 100_000.0, "{per_span}");
    }
}
