//! Traced run of the astra-mem benchmark.
//!
//! Generates one dataset and calls the public entry point of every layer
//! on it — log readers, the k-way merge, each analyzer, the batch
//! pipeline, the figure code, checkpointing, shard workers and the serve
//! tenant — with a span around each call. Spans (name, start, end,
//! parent) stay in memory and are written to `WORK/spans.jsonl` when the
//! run ends; the per-layer metrics derived from them are printed as one
//! JSON object on stdout.
//!
//! ```text
//! astra-perftrace info
//! astra-perftrace run DATA_DIR WORK_DIR RACKS SEED {text|binary}
//! astra-perftrace ce-tail DATA_DIR K N OUT
//! ```
//!
//! `ce-tail` holds back the last K records of `ce.log` for a live writer:
//! the log is cut to the records before them, and OUT receives the
//! held-back records as frames of N records each (N text lines, or one
//! `astra-binlog` block), ready to be appended one frame at a time while
//! `astra-mem serve` tails the log.
//!
//! Spans are taken around calls from outside the program, never inside
//! it: an analyzer is timed with one clock read per event batch, not per
//! event.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use astra_core::coalesce::CoalesceConfig;
use astra_core::experiments::{fig4, fig5};
use astra_core::pipeline::{Analysis, AnalysisInput, Dataset};
use astra_core::serve::{report_analysis_body, EngineSource};
use astra_core::shard::{partition_racks, run_worker, WorkerConfig};
use astra_core::stream::analyzers::{
    CoalesceAnalyzer, HetAnalyzer, PredictAnalyzer, SpatialAnalyzer, TempCorrAnalyzer,
};
use astra_core::stream::{
    stream_analyze, Analyzer, EventStream, MemEvent, StreamAnalyzer, StreamError, StreamOptions,
};
use astra_logs::binfmt::{self, BinFormat, BinReader, LogFormat};
use astra_logs::io::{ChunkReader, IngestChunk, STREAM_CHUNK_BYTES};
use astra_logs::{ce, het, inventory, sensor, IngestOptions, LineFormat, Manifest};
use astra_predict::{default_predictors, PredictConfig};
use astra_serve::{http, ServeOptions, Server, SiteSnapshot, SiteSource};
use astra_topology::SystemConfig;

/// Events handed to the analyzers per clock read.
const BATCH: usize = 65_536;
/// Closed-loop queries sent to the in-process server.
const QUERIES: usize = 200;
/// Views the query client rotates through.
const VIEWS: [&str; 4] = ["analysis", "spatial", "alerts", "health"];

type Res<T> = Result<T, String>;

struct Span {
    name: String,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// In-memory span recorder, shared with the serve ingest thread.
#[derive(Clone)]
struct Tracer {
    origin: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span recorder poisoned")
    }

    fn record(&self, name: &str, start: f64, end: f64, parent: Option<usize>) -> usize {
        let mut spans = self.spans();
        spans.push(Span {
            name: name.to_string(),
            start,
            end,
            parent,
        });
        spans.len() - 1
    }

    /// Open a span whose end is set by [`Tracer::close`].
    fn open(&self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.record(name, now, now, parent)
    }

    fn close(&self, id: usize) {
        let now = self.now();
        self.spans()[id].end = now;
    }

    /// Run `f` inside a span.
    fn span<R>(&self, name: &str, parent: usize, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Total duration of every span called `name`.
    fn total(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Self time per span name: duration minus the children's durations.
    fn self_times(&self) -> BTreeMap<String, f64> {
        let spans = self.spans();
        let mut child = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(child) {
            *out.entry(s.name.clone()).or_insert(0.0) += s.end - s.start - c;
        }
        out
    }

    fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_s":{:.9},"end_s":{:.9},"parent":{parent}}}"#,
                s.name, s.start, s.end
            );
        }
        std::fs::write(path, out)
    }
}

/// Drain one log alone through the reader the stream engine would pick
/// for it; returns (records, bytes).
fn drain_log<T: Send>(path: &Path, line: LineFormat<T>, bin: BinFormat<T>) -> Res<(u64, u64)> {
    let err = |e: io::Error| format!("{}: {e}", path.display());
    let file = File::open(path).map_err(err)?;
    let mut records = 0u64;
    let mut take = |chunk: IngestChunk<T>| -> Res<()> {
        if chunk.quarantine.total() > 0 {
            return Err(format!("{}: quarantined lines", path.display()));
        }
        records += chunk.records.len() as u64;
        std::hint::black_box(chunk.records);
        Ok(())
    };
    let bytes = if binfmt::file_is_binlog(path).map_err(err)? {
        let mut reader = BinReader::new(file, bin);
        while let Some(chunk) = reader.next_chunk().map_err(err)? {
            take(chunk)?;
        }
        reader.bytes_consumed()
    } else {
        let mut reader = ChunkReader::new(file, line, STREAM_CHUNK_BYTES);
        while let Some(chunk) = reader.next_chunk().map_err(err)? {
            take(chunk)?;
        }
        reader.bytes_consumed()
    };
    Ok((records, bytes as u64))
}

/// Fold one batch into an analyzer inside a span.
fn feed<A: Analyzer>(t: &Tracer, parent: usize, name: &str, a: &mut A, batch: &[MemEvent]) {
    let start = t.now();
    for ev in batch {
        a.consume(ev);
    }
    t.record(name, start, t.now(), Some(parent));
}

/// A serve tenant that times `poll` and `snapshot` of the wrapped
/// [`EngineSource`] on the server's ingest thread.
struct TimedSource {
    inner: EngineSource,
    tracer: Tracer,
    parent: usize,
}

impl SiteSource for TimedSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn poll(&mut self) -> Result<u64, String> {
        let start = self.tracer.now();
        let out = self.inner.poll();
        self.tracer
            .record("serve.poll", start, self.tracer.now(), Some(self.parent));
        out
    }

    fn checkpoint(&mut self) -> Result<bool, String> {
        self.inner.checkpoint()
    }

    fn snapshot(&self) -> SiteSnapshot {
        let start = self.tracer.now();
        let out = self.inner.snapshot();
        self.tracer.record(
            "serve.snapshot",
            start,
            self.tracer.now(),
            Some(self.parent),
        );
        out
    }
}

/// `sum`/`count` of one timing line of the `/metrics.jsonl` export.
fn timing_mean_ns(jsonl: &str, name: &str) -> Res<f64> {
    let tag = format!(r#""name":"{name}","kind":"timing""#);
    let line = jsonl
        .lines()
        .find(|l| l.contains(&tag))
        .ok_or_else(|| format!("/metrics.jsonl has no {name} timing"))?;
    let field = |key: &str| -> Res<f64> {
        let pat = format!(r#""{key}":"#);
        let at = line.find(&pat).ok_or(format!("{name} has no {key}"))? + pat.len();
        let end = line[at..]
            .find(|c: char| !c.is_ascii_digit())
            .map_or(line.len(), |e| at + e);
        line[at..end].parse::<f64>().map_err(|e| e.to_string())
    };
    Ok(field("sum")? / field("count")?)
}

struct Outcome {
    metrics: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, u64>,
    checks: Vec<(String, bool)>,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push((what.to_string(), ok));
    }
}

fn run(data: &Path, work: &Path, racks: u32, seed: u64, format: LogFormat) -> Res<Outcome> {
    let t = Tracer::new();
    let root = t.open("trace", None);
    let mut o = Outcome {
        metrics: BTreeMap::new(),
        counts: BTreeMap::new(),
        checks: Vec::new(),
        attempted: 0,
        failed: 0,
    };

    // Set-up: simulate, then write the logs and the provenance manifest.
    let profile = astra_platform::by_name("astra").map_err(|e| e.to_string())?;
    let ds = t.span("setup.simulate", root, || {
        Dataset::generate_profile(&profile, Some(racks), seed)
    });
    t.span("setup.write", root, || ds.write_logs_as(data, format))
        .map_err(|e| e.to_string())?;
    Manifest {
        profile: profile.name.to_string(),
        seed,
        racks,
        format: format.name().to_string(),
        tool: "astra-perftrace".to_string(),
    }
    .write(data)
    .map_err(|e| e.to_string())?;
    let system: SystemConfig = ds.system;
    let generated_ces = ds.sim.ce_log.len() as u64;
    drop(ds);

    // astra-logs: each log drained alone.
    let mut log_bytes = 0u64;
    let mut log_records = 0u64;
    for (name, res) in [
        (
            "ce",
            t.span("logs.decode.ce", root, || {
                drain_log(&data.join("ce.log"), ce::FORMAT, binfmt::CE)
            }),
        ),
        (
            "het",
            t.span("logs.decode.het", root, || {
                drain_log(&data.join("het.log"), het::FORMAT, binfmt::HET)
            }),
        ),
        (
            "inventory",
            t.span("logs.decode.inventory", root, || {
                drain_log(
                    &data.join("inventory.log"),
                    inventory::FORMAT,
                    binfmt::INVENTORY,
                )
            }),
        ),
        (
            "sensors",
            t.span("logs.decode.sensors", root, || {
                drain_log(&data.join("sensors.log"), sensor::FORMAT, binfmt::SENSOR)
            }),
        ),
    ] {
        let (records, bytes) = res?;
        if name == "ce" {
            o.check(
                "ce.log decodes to the generated CE count",
                records == generated_ces,
            );
        }
        log_records += records;
        log_bytes += bytes;
    }
    let decode_all = t.total("logs.decode.ce")
        + t.total("logs.decode.het")
        + t.total("logs.decode.inventory")
        + t.total("logs.decode.sensors");

    // core::stream and core::stream::analyzers: the merged stream drained
    // in batches; each batch is fed to every analyzer alone and to the
    // combined StreamAnalyzer.
    let pass = t.open("stream.pass", Some(root));
    let mut source = EventStream::open(data).map_err(|e| e.to_string())?;
    let mut coalesce = CoalesceAnalyzer::new(CoalesceConfig::default());
    let mut spatial = SpatialAnalyzer::new(system);
    let mut hets = HetAnalyzer::new();
    let mut tempcorr = TempCorrAnalyzer::new();
    let mut predict = PredictAnalyzer::new(PredictConfig::default(), default_predictors());
    let mut whole =
        StreamAnalyzer::new(system, CoalesceConfig::default(), PredictConfig::default());
    let mut batch: Vec<MemEvent> = Vec::with_capacity(BATCH);
    let mut events = 0u64;
    loop {
        let start = t.now();
        batch.clear();
        while batch.len() < BATCH {
            match source.next_event().map_err(|e| e.to_string())? {
                Some(ev) => batch.push(ev),
                None => break,
            }
        }
        t.record("stream.drain", start, t.now(), Some(pass));
        if batch.is_empty() {
            break;
        }
        events += batch.len() as u64;
        feed(&t, pass, "analyzers.coalesce", &mut coalesce, &batch);
        feed(&t, pass, "analyzers.spatial", &mut spatial, &batch);
        feed(&t, pass, "analyzers.het", &mut hets, &batch);
        feed(&t, pass, "analyzers.tempcorr", &mut tempcorr, &batch);
        feed(&t, pass, "analyzers.predict", &mut predict, &batch);
        feed(&t, pass, "analyzers.combined", &mut whole, &batch);
    }
    let stream_bytes = source.bytes_read() as u64;
    drop((coalesce, spatial, hets, tempcorr, predict, batch, source));
    let pass_report = t.span("analyzers.snapshot", pass, || whole.snapshot());
    let state_bytes = whole.accounted_bytes() as u64;
    drop(whole);
    t.close(pass);
    o.check(
        "stream events equal the records decoded",
        events == log_records,
    );
    o.check(
        "stream bytes equal the bytes decoded",
        stream_bytes == log_bytes,
    );
    let pass_body = report_analysis_body(&pass_report);
    drop(pass_report);

    // The streaming front door with no span inside it, called twice: the
    // untraced time of the work the batched pass attributes.
    let mut front_body = String::new();
    for _ in 0..2 {
        let front = t
            .span("front.stream_analyze", root, || {
                stream_analyze(data, system, &StreamOptions::default())
            })
            .map_err(|e| e.to_string())?
            .ok_or("stream_analyze stopped without a stop request")?;
        front_body = report_analysis_body(&front);
        o.check(
            "batched analyzer pass matches stream_analyze",
            pass_body == front_body,
        );
    }
    std::fs::write(work.join("trace-analysis.txt"), &front_body).map_err(|e| e.to_string())?;
    let front_s = t.total("front.stream_analyze") / 2.0;

    // The merged stream again, into a fresh combined analyzer: the event
    // count and the accounted state must repeat bit-for-bit.
    let (events_again, state_again) = t.span("repeat", root, || -> Res<(u64, u64)> {
        let mut source = EventStream::open(data).map_err(|e| e.to_string())?;
        let mut again =
            StreamAnalyzer::new(system, CoalesceConfig::default(), PredictConfig::default());
        let mut n = 0u64;
        while let Some(ev) = source.next_event().map_err(|e| e.to_string())? {
            again.consume(&ev);
            n += 1;
        }
        Ok((n, again.accounted_bytes() as u64))
    })?;
    o.check(
        "stream events repeat on a second pass",
        events_again == events,
    );
    o.check(
        "analyzer state bytes repeat on a second pass",
        state_again == state_bytes,
    );

    // core::pipeline and core::experiments: the batch path `analyze` runs.
    let input = t
        .span("pipeline.load", root, || AnalysisInput::from_dir(data))
        .map_err(|e| e.to_string())?;
    drop((input.hets, input.replacements, input.sensors));
    let sensors_alone = t.span("pipeline.sensors_decode", root, || {
        binfmt::parse_file_auto(
            &data.join("sensors.log"),
            sensor::FORMAT,
            binfmt::SENSOR,
            &IngestOptions::default(),
            "sensors",
        )
    });
    drop(sensors_alone.map_err(|e| format!("sensors.log: {e:?}"))?);
    let analysis = t.span("pipeline.run", root, || {
        Analysis::run(system, input.records)
    });
    let fig4 = t.span("experiments.fig4_batch", root, || {
        fig4::compute(&analysis, astra_util::time::study_span())
    });
    let fig5 = t.span("experiments.fig5_batch", root, || fig5::compute(&analysis));
    let batch_body = t.span("experiments.render", root, || {
        format!(
            "{} errors -> {} faults on {} nodes\n{}{}",
            analysis.total_errors(),
            analysis.total_faults(),
            system.node_count(),
            fig4.render(),
            fig5.render()
        )
    });
    drop(analysis);
    o.check(
        "batch pipeline matches stream_analyze",
        batch_body == front_body,
    );

    // Checkpointing, through stream_analyze: one interruption at half the
    // events, then resume-and-stop at the same point. Resuming without a
    // checkpoint path fails right after the read (a stop needs a path),
    // which times the read alone; with a path it reads and rewrites.
    let ck = work.join("trace.ckpt");
    let ck2 = work.join("trace-again.ckpt");
    let half = events / 2;
    let stopped = t.span("checkpoint.interrupt", root, || {
        stream_analyze(
            data,
            system,
            &StreamOptions {
                stop_after: Some(half),
                checkpoint_path: Some(ck.clone()),
                ..StreamOptions::default()
            },
        )
    });
    o.check(
        "interrupted run stops with a checkpoint",
        matches!(stopped, Ok(None)),
    );
    let ck_bytes = std::fs::metadata(&ck).map_err(|e| e.to_string())?.len();
    {
        let read_only = t.span("checkpoint.read", root, || {
            stream_analyze(
                data,
                system,
                &StreamOptions {
                    resume_from: Some(ck.clone()),
                    stop_after: Some(half),
                    ..StreamOptions::default()
                },
            )
        });
        o.check(
            "resume without a path fails after the read",
            matches!(read_only, Err(StreamError::Checkpoint { .. })),
        );
        let rewrite = t.span("checkpoint.read_write", root, || {
            stream_analyze(
                data,
                system,
                &StreamOptions {
                    resume_from: Some(ck.clone()),
                    stop_after: Some(half),
                    checkpoint_path: Some(ck2.clone()),
                    ..StreamOptions::default()
                },
            )
        });
        o.check("resume and rewrite succeeds", matches!(rewrite, Ok(None)));
        let again = std::fs::read(&ck2).map_err(|e| e.to_string())?;
        let first = std::fs::read(&ck).map_err(|e| e.to_string())?;
        o.check("rewritten checkpoint is byte-identical", again == first);
    }
    let ck_read = t.total("checkpoint.read");
    let ck_write = t.total("checkpoint.read_write") - ck_read;

    // core::shard: each worker of a 2-shard run, one after another; the
    // whole run twice, and the second run's snapshots must repeat the
    // first's byte for byte.
    let mut snapshots: [Vec<Vec<u8>>; 2] = [Vec::new(), Vec::new()];
    for (round, files) in snapshots.iter_mut().enumerate() {
        for (i, (lo, hi)) in partition_racks(racks, 2).into_iter().enumerate() {
            let out = work.join(format!("shard-{i}-{round}.snap"));
            t.span("shard.worker", root, || {
                run_worker(&WorkerConfig {
                    dir: data.to_path_buf(),
                    system,
                    rack_lo: lo,
                    rack_hi: hi,
                    shard_index: i as u32,
                    snapshot_out: out.clone(),
                    stream: StreamOptions::default(),
                })
            })?;
            files.push(std::fs::read(&out).map_err(|e| e.to_string())?);
        }
    }
    o.check(
        "shard snapshots repeat byte for byte",
        snapshots[0] == snapshots[1],
    );
    let snapshot_bytes: u64 = snapshots[0].iter().map(|f| f.len() as u64).sum();
    drop(snapshots);
    let worker_s = t.total("shard.worker") / 2.0;

    // astra-serve + core::serve: the tenant behind an in-process server,
    // then a closed-loop client and the handler timing from /metrics.jsonl.
    let serve = t.open("serve", Some(root));
    let tenant = t
        .span("serve.open", serve, || {
            EngineSource::open(data, system, &StreamOptions::default())
        })
        .map_err(|e| e.to_string())?;
    let site = tenant.name().to_string();
    let server = Server::start(
        vec![Box::new(TimedSource {
            inner: tenant,
            tracer: t.clone(),
            parent: serve,
        })],
        &ServeOptions {
            listen: "127.0.0.1:0".to_string(),
            ..ServeOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let ready = server.wait_ready(Duration::from_secs(150));
    o.check("in-process server becomes ready", ready);
    let addr = server.addr();
    let mut client_ms = Vec::with_capacity(QUERIES + 1);
    let started = Instant::now();
    let body = http::get(addr, &format!("/site/{site}/analysis"));
    client_ms.push(started.elapsed().as_secs_f64() * 1e3);
    o.check(
        "served analysis matches stream_analyze",
        body.as_ref()
            .is_ok_and(|r| r.status == 200 && r.body == front_body),
    );
    for i in 0..QUERIES {
        let started = Instant::now();
        let reply = http::get(addr, &format!("/site/{site}/{}", VIEWS[i % VIEWS.len()]));
        client_ms.push(started.elapsed().as_secs_f64() * 1e3);
        o.check(
            "query answered",
            reply.is_ok_and(|r| r.status == 200 && !r.body.is_empty()),
        );
    }
    let metrics = http::get(addr, "/metrics.jsonl").map_err(|e| e.to_string())?;
    server.trigger_shutdown();
    server.join();
    t.close(serve);
    let handler_ms = timing_mean_ns(&metrics.body, "serve.request")? / 1e6;
    let client_mean_ms = client_ms.iter().sum::<f64>() / client_ms.len() as f64;
    let snapshots = t.durations("serve.snapshot");
    let serve_snapshot = snapshots.iter().copied().fold(0.0, f64::max);

    t.close(root);
    t.write_jsonl(&work.join("spans.jsonl"))
        .map_err(|e| e.to_string())?;

    let drain = t.total("stream.drain");
    let consume: f64 = [
        "analyzers.coalesce",
        "analyzers.spatial",
        "analyzers.het",
        "analyzers.tempcorr",
        "analyzers.predict",
    ]
    .iter()
    .map(|n| t.total(n))
    .sum();
    let snapshot_s = t.total("analyzers.snapshot");
    // The batched pass with its clock reads, restricted to the work
    // stream_analyze does (drain, the combined analyzer, its snapshot),
    // against stream_analyze itself.
    let traced_s = drain + t.total("analyzers.combined") + snapshot_s;
    let m = &mut o.metrics;
    m.insert("logs.decode_ce_s", t.total("logs.decode.ce"));
    m.insert("logs.decode_sensors_s", t.total("logs.decode.sensors"));
    m.insert("stream.merge_s", drain - decode_all);
    m.insert(
        "analyzers.coalesce_consume_s",
        t.total("analyzers.coalesce"),
    );
    m.insert("analyzers.spatial_consume_s", t.total("analyzers.spatial"));
    m.insert("analyzers.het_consume_s", t.total("analyzers.het"));
    m.insert(
        "analyzers.tempcorr_consume_s",
        t.total("analyzers.tempcorr"),
    );
    m.insert("analyzers.predict_consume_s", t.total("analyzers.predict"));
    m.insert("analyzers.snapshot_s", snapshot_s);
    m.insert("pipeline.load_s", t.total("pipeline.load"));
    m.insert("pipeline.run_s", t.total("pipeline.run"));
    m.insert(
        "pipeline.sensors_decode_frac",
        t.total("pipeline.sensors_decode") / t.total("pipeline.load"),
    );
    m.insert(
        "experiments.fig4_batch_s",
        t.total("experiments.fig4_batch"),
    );
    m.insert("experiments.render_s", t.total("experiments.render"));
    m.insert("checkpoint.write_s", ck_write);
    m.insert("checkpoint.read_s", ck_read);
    m.insert("shard.worker_s", worker_s);
    m.insert("shard.work_ratio", worker_s / front_s);
    m.insert("serve.poll_s", t.total("serve.poll"));
    m.insert("serve.snapshot_s", serve_snapshot);
    m.insert("serve.handler_ms", handler_ms);
    m.insert("serve.wait_ms", client_mean_ms - handler_ms);
    m.insert("setup.simulate_s", t.total("setup.simulate"));
    m.insert("setup.write_s", t.total("setup.write"));
    m.insert(
        "stream.unattributed_frac",
        1.0 - (drain + consume + snapshot_s) / front_s,
    );
    m.insert("trace.overhead_frac", traced_s / front_s - 1.0);

    let c = &mut o.counts;
    c.insert("logs.bytes", log_bytes);
    c.insert("stream.events", events);
    c.insert("analyzers.state_bytes", state_bytes);
    c.insert("checkpoint.bytes", ck_bytes);
    c.insert("shard.snapshot_bytes", snapshot_bytes);
    c.insert("generated.ces", generated_ces);

    let mut table = String::new();
    for (name, secs) in t.self_times() {
        let _ = writeln!(table, "{secs:>10.4} s  {name}");
    }
    eprintln!("self time per span:\n{table}");
    Ok(o)
}

fn info() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serve = ServeOptions::default();
    format!(
        r#"{{"nproc":{nproc},"workers":{},"serve_poll_ms":{},"serve_workers":{},"serve_queue_depth":{}}}"#,
        astra_util::par::worker_count(usize::MAX),
        serve.poll_interval.as_millis(),
        serve.workers,
        serve.queue_depth,
    )
}

/// Cut the last `k` records off `data/ce.log` and return them as frames
/// of `n` records each, in the log's own format, with each frame's size.
fn ce_tail(data: &Path, k: usize, n: usize) -> Res<(Vec<u8>, Vec<usize>)> {
    let path = data.join("ce.log");
    let err = |e: io::Error| format!("{}: {e}", path.display());
    let mut tail = Vec::new();
    let mut frames = Vec::new();
    if binfmt::file_is_binlog(&path).map_err(err)? {
        let mut reader = BinReader::new(File::open(&path).map_err(err)?, binfmt::CE);
        let mut records = Vec::new();
        while let Some(chunk) = reader.next_chunk().map_err(err)? {
            records.extend(chunk.records);
        }
        let keep = records
            .len()
            .checked_sub(k)
            .ok_or("ce.log holds fewer records than asked for")?;
        let mut payload = Vec::new();
        for frame in records[keep..].chunks(n) {
            payload.clear();
            (binfmt::CE.encode)(frame, &mut payload);
            let before = tail.len();
            binfmt::append_block(&mut tail, &payload);
            frames.push(tail.len() - before);
        }
        let tmp = path.with_extension("log.tmp");
        let mut file = io::BufWriter::new(File::create(&tmp).map_err(err)?);
        binfmt::write_records(&mut file, binfmt::CE, &records[..keep]).map_err(err)?;
        io::Write::flush(&mut file).map_err(err)?;
        drop(file);
        std::fs::rename(&tmp, &path).map_err(err)?;
    } else {
        // Read back from the end until the window holds k whole lines.
        let mut file = File::open(&path).map_err(err)?;
        let size = file.metadata().map_err(err)?.len();
        let mut window = 1u64 << 20;
        let cut = loop {
            let from = size.saturating_sub(window);
            let mut buf = Vec::new();
            io::Seek::seek(&mut file, io::SeekFrom::Start(from)).map_err(err)?;
            io::Read::read_to_end(&mut file, &mut buf).map_err(err)?;
            let ends: Vec<usize> = (0..buf.len()).filter(|&i| buf[i] == b'\n').collect();
            if buf.last() != Some(&b'\n') {
                return Err("ce.log does not end with a newline".to_string());
            }
            if ends.len() > k {
                let start = ends[ends.len() - 1 - k] + 1;
                let lines: Vec<&[u8]> = buf[start..].split_inclusive(|&b| b == b'\n').collect();
                for frame in lines.chunks(n) {
                    let bytes: usize = frame.iter().map(|l| l.len()).sum();
                    frame.iter().for_each(|l| tail.extend_from_slice(l));
                    frames.push(bytes);
                }
                break from + start as u64;
            }
            if from == 0 {
                return Err("ce.log holds fewer lines than asked for".to_string());
            }
            window *= 4;
        };
        drop(file);
        File::options()
            .write(true)
            .open(&path)
            .and_then(|f| f.set_len(cut))
            .map_err(err)?;
    }
    Ok((tail, frames))
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: astra-perftrace info | run DATA_DIR WORK_DIR RACKS SEED {text|binary} \
                 | ce-tail DATA_DIR K N OUT";
    let result = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["info"] => Ok(info()),
        ["ce-tail", data, k, n, out] => (|| -> Res<String> {
            let k: usize = k.parse().map_err(|_| "K must be a number")?;
            let n: usize = n.parse().map_err(|_| "N must be a number")?;
            if n == 0 {
                return Err("N must be at least 1".to_string());
            }
            let (tail, frames) = ce_tail(Path::new(data), k, n)?;
            std::fs::write(out, &tail).map_err(|e| e.to_string())?;
            let sizes: Vec<String> = frames.iter().map(usize::to_string).collect();
            Ok(format!(r#"{{"frames":[{}]}}"#, sizes.join(",")))
        })(),
        ["run", data, work, racks, seed, format] => (|| -> Res<String> {
            let racks: u32 = racks.parse().map_err(|_| "RACKS must be a number")?;
            let seed: u64 = seed.parse().map_err(|_| "SEED must be a number")?;
            let format = LogFormat::parse(format).ok_or("format must be text or binary")?;
            let data = PathBuf::from(data);
            let work = PathBuf::from(work);
            std::fs::create_dir_all(&data).map_err(|e| e.to_string())?;
            std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
            let o = run(&data, &work, racks, seed, format)?;
            let mut out = String::from(r#"{"metrics":{"#);
            for (i, (k, v)) in o.metrics.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(out, r#"{sep}"{k}":{v:e}"#);
            }
            out.push_str(r#"},"counts":{"#);
            for (i, (k, v)) in o.counts.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(out, r#"{sep}"{k}":{v}"#);
            }
            out.push_str(r#"},"failed_checks":["#);
            let failed: Vec<String> = o
                .checks
                .iter()
                .filter(|(_, ok)| !ok)
                .map(|(what, _)| format!(r#""{}""#, json_escape(what)))
                .collect();
            out.push_str(&failed.join(","));
            let _ = write!(
                out,
                r#"],"attempted":{},"failed":{},"info":{}}}"#,
                o.attempted,
                o.failed,
                info()
            );
            Ok(out)
        })(),
        _ => Err(usage.to_string()),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
