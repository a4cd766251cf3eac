#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the astra-mem CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload text-12r --seed 42 --seconds 60 --trace 0

The script builds `astra-mem` (and, for the traced run, the
`perfbench/trace` package) from source, generates the workload's dataset
from `--seed`, times the CLI's front doors from outside, checks every
output, and prints one JSON result as the last line of stdout. A line
before it records the host and the run. See perfbench/README.md for the
workloads and the metric definitions.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# Workload -> generated dataset. Both run every front door; they differ in
# what dominates: line decode (text, 12 racks) or analyzer state (binary,
# the full 36-rack machine).
WORKLOADS = {
    "text-12r": {"racks": 12, "format": "text"},
    "bin-36r": {"racks": 36, "format": "binary"},
}
# The sensors.log excerpt holds the same number of readings per rack for
# every seed; only the CE count depends on the seed.
SENSORS_PER_RACK = 184_464
# CE records the astra profile generates at seed 42: the reference volume
# the scaled metrics are scaled to.
REFERENCE_CES = {12: 1_657_972, 36: 4_494_785}

SETUP_REPEATS = 2  # generate runs per run; setup_s is their median
ROUNDS = 2  # batch rounds per run, each calling every batch front door once
# Live serve phase: it runs for what is left of --seconds after set-up,
# the batch rounds and serve readiness, within these limits.
LIVE_MIN_S = 5.0
LIVE_MAX_S = 30.0
# Open-loop appends in the live phase: 16 CE records every 250 ms, the
# rate of the serve freshness measurement this benchmark was specified
# with. The records are the last ones the generator wrote, held back
# from ce.log at set-up, so every append is new, distinct and in order.
APPEND_EVERY_S = 0.25
APPEND_LINES = 16
HOLD_BACK = APPEND_LINES * int(LIVE_MAX_S / APPEND_EVERY_S + 8)
PROBE_GAP_S = 0.02  # pause between freshness probes of /site/S/health
SITE = "astra"  # dataset directory name == serve site name
RUN_LIMIT_S = 170  # after the build, a run ends within 180 s

E2E_UNITS = {
    "setup_s": "s",
    "analyze_s": "s",
    "analyze_rss_mib": "MiB",
    "stream_analyze_s": "s",
    "stream_analyze_rss_mib": "MiB",
    "resume_analyze_s": "s",
    "shard_analyze_s": "s",
    "shard_analyze_cpu_s": "s",
    "serve_ready_s": "s",
    "serve_rss_mib": "MiB",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "query_qps": "1/s",
    "freshness_p50_ms": "ms",
    "freshness_p90_ms": "ms",
}
# The CE count varies between seeds (interquartile range 28 % of the
# median at 12 racks, 9 % at 36), and most metrics grow with it. A metric
# listed here is reported scaled to the seed-42 CE count, as
#     measured / (share + (1 - share) * CEs / CEs at seed 42),
# where `share` is the part of its seed-42 value that does not grow with
# the CE count: a least-squares fit of value = a + b * CEs over earlier
# runs (perfbench/README.md). Only metrics whose fit explains at least
# half their variance across seeds are listed; every other metric is
# reported as measured. The run line holds the measured values.
FIXED_SHARES = {
    "text-12r": {
        "analyze_s": 0.22,
        "analyze_rss_mib": 0.36,
        "stream_analyze_s": 0.23,
        "stream_analyze_rss_mib": 0.24,
        "resume_analyze_s": 0.20,
        "shard_analyze_s": 0.26,
        "shard_analyze_cpu_s": 0.26,
        "serve_rss_mib": 0.34,
        "freshness_p50_ms": 0.19,
        "freshness_p90_ms": 0.25,
    },
    "bin-36r": {
        "analyze_rss_mib": 0.36,
        "stream_analyze_rss_mib": 0.13,
    },
}
LAYER_UNITS = {
    "logs.decode_ce_s": "s",
    "logs.decode_sensors_s": "s",
    "logs.bytes": "B",
    "stream.merge_s": "s",
    "stream.events": "count",
    "analyzers.coalesce_consume_s": "s",
    "analyzers.spatial_consume_s": "s",
    "analyzers.het_consume_s": "s",
    "analyzers.tempcorr_consume_s": "s",
    "analyzers.predict_consume_s": "s",
    "analyzers.snapshot_s": "s",
    "analyzers.state_bytes": "B",
    "pipeline.load_s": "s",
    "pipeline.run_s": "s",
    "pipeline.sensors_decode_frac": "ratio",
    "experiments.fig4_batch_s": "s",
    "experiments.render_s": "s",
    "checkpoint.write_s": "s",
    "checkpoint.read_s": "s",
    "checkpoint.bytes": "B",
    "shard.worker_s": "s",
    "shard.snapshot_bytes": "B",
    "shard.work_ratio": "ratio",
    "serve.poll_s": "s",
    "serve.snapshot_s": "s",
    "serve.handler_ms": "ms",
    "serve.wait_ms": "ms",
    "setup.simulate_s": "s",
    "setup.write_s": "s",
    "stream.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}
# Counts that must repeat bit-for-bit for the same code and seed.
EXACT_COUNTS = (
    "logs.bytes",
    "stream.events",
    "analyzers.state_bytes",
    "checkpoint.bytes",
    "shard.snapshot_bytes",
)


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failure, ...)."""


class Tally:
    """Operations attempted and failed; a wrong answer is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


class Call:
    def __init__(self, wall, cpu, rss_mib, code, stdout):
        self.wall, self.cpu, self.rss_mib, self.code, self.stdout = wall, cpu, rss_mib, code, stdout


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def remaining(deadline):
    return max(1.0, deadline - time.perf_counter())


def run_timed(argv, deadline):
    """Run one CLI call; wall time from outside, CPU and peak RSS from the
    reaped process's rusage (which includes the children it reaped)."""
    with tempfile.TemporaryFile(dir=WORK_ROOT) as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=subprocess.DEVNULL,
        )
        timer = threading.Timer(remaining(deadline), proc.kill)
        timer.daemon = True
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
        out.seek(0)
        stdout = out.read()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        proc.returncode,
        stdout,
    )


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for argv in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "astra-core", "--bin", "astra-mem"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/trace/Cargo.toml"],
    ):
        if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
            raise BenchError("no Cargo.toml at the checkout root: nothing to build")
        done = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(argv)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "astra-mem"), os.path.join(release, "astra-perftrace")


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def http_get(addr, path, timeout=10.0):
    """One GET on a fresh connection (the daemon closes after each reply)."""
    with socket.create_connection(addr, timeout=timeout) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: astra\r\nConnection: close\r\n\r\n".encode())
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


def health_events(addr):
    status, body = http_get(addr, f"/site/{SITE}/health")
    if status != 200:
        raise ValueError(f"health status {status}")
    return json.loads(body)["events"]


# ---------------------------------------------------------------------------
# Set-up


def generate(bins, spec, seed, out, deadline, tally):
    call = run_timed(
        [bins["cli"], "generate", "--profile", "astra", "--racks", str(spec["racks"]),
         "--seed", str(seed), "--format", spec["format"], "--out", out],
        deadline,
    )
    ok = tally.check(call.code == 0, f"generate exited {call.code}")
    words = call.stdout.decode(errors="replace").split()
    counts = None
    if ok and len(words) > 5 and words[0] == "wrote":
        counts = (int(words[1]), int(words[3]), int(words[5]))
    tally.check(counts is not None, "generate printed no record counts")
    return call, counts


def set_up(bins, spec, seed, work, deadline, tally):
    """Generate the dataset SETUP_REPEATS times; keep the last copy."""
    times, counts, data = [], set(), None
    for i in range(SETUP_REPEATS):
        out = os.path.join(work, f"gen{i}", SITE)
        call, c = generate(bins, spec, seed, out, deadline, tally)
        if c is None:
            raise BenchError("generate failed")
        times.append(call.wall)
        counts.add(c)
        if data is not None:
            shutil.rmtree(os.path.dirname(data))
        data = out
    tally.check(len(counts) == 1, "generate is not deterministic for one seed")
    ces, hets, invs = counts.pop()
    return data, times, ces, hets + invs


# ---------------------------------------------------------------------------
# Batch front doors


def first_line_ces(stdout):
    line = stdout.split(b"\n", 1)[0].decode(errors="replace").split()
    return int(line[0]) if len(line) > 1 and line[1] == "errors" else None


def batch_phase(bins, data, ces, events, deadline, tally, reference):
    cli = bins["cli"]
    ckpt = os.path.join(os.path.dirname(data), "resume.ckpt")
    samples = {k: [] for k in ("analyze", "stream", "resume", "shard")}
    rss = {"analyze": [], "stream": []}
    shard_cpu = []

    def same_output(call, what):
        ok = tally.check(call.code == 0, f"{what} exited {call.code}")
        if ok and reference[0] is None:
            reference[0] = call.stdout
            tally.check(first_line_ces(call.stdout) == ces,
                        f"{what}: first line's CE total differs from the generator's {ces}")
        return ok and tally.check(call.stdout == reference[0], f"{what}: stdout differs from analyze")

    def analyze():
        call = run_timed([cli, "analyze", data], deadline)
        if same_output(call, "analyze"):
            samples["analyze"].append(call.wall)
            rss["analyze"].append(call.rss_mib)

    def stream():
        call = run_timed([cli, "stream-analyze", data], deadline)
        if same_output(call, "stream-analyze"):
            samples["stream"].append(call.wall)
            rss["stream"].append(call.rss_mib)

    def resume():
        stop = run_timed([cli, "stream-analyze", data, "--stop-after", str(events // 2),
                          "--checkpoint", ckpt], deadline)
        ok = tally.check(stop.code == 0 and stop.stdout == b"" and os.path.isfile(ckpt),
                         "stream-analyze --stop-after wrote no checkpoint")
        if ok:
            rest = run_timed([cli, "stream-analyze", data, "--resume", ckpt], deadline)
            if same_output(rest, "stream-analyze --resume"):
                samples["resume"].append(stop.wall + rest.wall)
        for path in (ckpt, ckpt + ".tmp"):
            if os.path.exists(path):
                os.remove(path)

    def shard():
        call = run_timed([cli, "shard-analyze", data, "--shards", "2"], deadline)
        if same_output(call, "shard-analyze"):
            samples["shard"].append(call.wall)
            shard_cpu.append(call.cpu)

    doors = [analyze, stream, resume, shard]
    for rounds in range(ROUNDS):
        # Rotate the order so that no front door always runs first.
        for door in doors[rounds % 4:] + doors[:rounds % 4]:
            door()
    if any(len(v) == 0 for v in samples.values()):
        raise BenchError("a batch front door never succeeded")
    return {
        "analyze_s": statistics.median(samples["analyze"]),
        "analyze_rss_mib": statistics.median(rss["analyze"]),
        "stream_analyze_s": statistics.median(samples["stream"]),
        "stream_analyze_rss_mib": statistics.median(rss["stream"]),
        "resume_analyze_s": statistics.median(samples["resume"]),
        "shard_analyze_s": statistics.median(samples["shard"]),
        "shard_analyze_cpu_s": statistics.median(shard_cpu),
    }, samples


# ---------------------------------------------------------------------------
# Serve


def hold_back(bins, data, work, deadline, tally):
    """Cut the last HOLD_BACK CE records off ce.log; return them as the
    frames the live phase appends, APPEND_LINES records each."""
    tail = os.path.join(work, "ce.tail")
    call = run_timed([bins["trace"], "ce-tail", data, str(HOLD_BACK), str(APPEND_LINES), tail],
                     deadline)
    if not tally.check(call.code == 0, "ce-tail failed"):
        raise BenchError("could not hold back the tail of ce.log")
    sizes = json.loads(call.stdout)["frames"]
    with open(tail, "rb") as f:
        frames = [f.read(n) for n in sizes]
    os.remove(tail)
    return frames


class Daemon:
    """`astra-mem serve DIR` from spawn to readiness; killed and reaped on
    exit (its shutdown checkpoint is not part of the workload)."""

    def __init__(self, bins, data, deadline):
        spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [bins["cli"], "serve", data, "--listen", "127.0.0.1:0"],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        self.timer = threading.Timer(remaining(deadline), self.proc.kill)
        self.timer.daemon = True
        self.timer.start()
        self.usage = None
        try:
            line = self.proc.stdout.readline().decode().strip()
            if not line.startswith("listening on http://"):
                raise BenchError(f"serve printed {line!r}")
            host, port = line.rsplit("/", 1)[-1].rsplit(":", 1)
            self.addr = (host, int(port))
            self.ready_s = None
            while self.ready_s is None:
                if time.perf_counter() > deadline:
                    raise BenchError("serve never became ready")
                try:
                    status, body = http_get(self.addr, "/health")
                    if status == 200 and json.loads(body)["ready"]:
                        self.ready_s = time.perf_counter() - spawned
                except (OSError, ValueError, KeyError):
                    pass
                if self.ready_s is None:
                    time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def alive(self):
        return self.proc.poll() is None

    def stop(self):
        self.timer.cancel()
        if self.proc.returncode is None:
            self.proc.kill()
            _, status, self.usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.proc.stdin.close()

    def __enter__(self):
        return self

    def __exit__(self, *_):
        self.stop()


def serve_phase(bins, data, frames, run_end, deadline, tally, reference):
    """A cold start to readiness, then the live phase on the same daemon,
    until `run_end` but within LIVE_MIN_S..LIVE_MAX_S."""
    with Daemon(bins, data, deadline) as daemon:
        status, body = http_get(daemon.addr, f"/site/{SITE}/analysis")
        tally.check(status == 200 and body == reference,
                    "/analysis differs from analyze stdout after the backlog")
        base = health_events(daemon.addr)
        live_s = min(LIVE_MAX_S, max(LIVE_MIN_S, run_end - time.perf_counter()))
        live = live_phase(daemon.addr, data, frames, base, live_s, tally)
        final = health_events(daemon.addr)
        tally.check(final == base + live["appended"] * APPEND_LINES,
                    "not every append became visible")
        tally.check(daemon.alive(), "serve died during the run")
    return {
        "serve_ready_s": daemon.ready_s,
        "serve_rss_mib": daemon.usage.ru_maxrss / 1024.0,
        "query_p50_ms": statistics.median(live["query_ms"]),
        "query_p90_ms": p90(live["query_ms"]),
        "query_qps": len(live["query_ms"]) / live["query_window_s"],
        "freshness_p50_ms": statistics.median(live["fresh_ms"]),
        "freshness_p90_ms": p90(live["fresh_ms"]),
    }, {
        "queries": len(live["query_ms"]),
        "appends": live["appended"],
        "append_lateness_max_ms": live["late_ms"],
        "live_s": live_s,
    }


def live_phase(addr, data, frames, base, seconds, tally):
    """Writes beside reads: an open-loop appender that probes freshness,
    and one closed-loop query client."""
    views = ["analysis", "spatial", "alerts", "health"]
    query_ms, fresh_ms = [], []
    lock = threading.Lock()
    start = time.perf_counter()
    end = start + seconds
    stats = {"appended": 0, "late_ms": 0.0}
    window = [start, end]  # first query sent, last reply received

    def query_client():
        i = 0
        window[0] = time.perf_counter()
        while time.perf_counter() < end:
            view = views[i % len(views)]
            t0 = time.perf_counter()
            try:
                status, body = http_get(addr, f"/site/{SITE}/{view}")
                ok = status == 200 and valid_view(view, body)
            except (OSError, ValueError):
                ok = False
            took = time.perf_counter() - t0
            with lock:
                if tally.check(ok, f"query /{view} failed"):
                    query_ms.append(took * 1e3)
            i += 1
        window[1] = time.perf_counter()

    def appender():
        pending = []  # (due time, events that cover the append)
        seen = base
        due = start
        with open(os.path.join(data, "ce.log"), "ab", buffering=0) as log_file:
            while True:
                now = time.perf_counter()
                if due < end and now >= due:
                    log_file.write(frames[stats["appended"]])
                    stats["appended"] += 1
                    pending.append((due, base + stats["appended"] * APPEND_LINES))
                    stats["late_ms"] = max(stats["late_ms"], (now - due) * 1e3)
                    due += APPEND_EVERY_S
                    continue
                if not pending and due >= end:
                    return
                if now > end + 30:
                    with lock:
                        for _ in pending:
                            tally.check(False, "append never became visible")
                    return
                try:
                    events = health_events(addr)
                    ok = events >= seen
                    seen = max(seen, events)
                except (OSError, ValueError, KeyError):
                    ok = False
                answered = time.perf_counter()
                with lock:
                    tally.check(ok, "freshness probe failed")
                    while pending and pending[0][1] <= seen:
                        fresh_ms.append((answered - pending.pop(0)[0]) * 1e3)
                time.sleep(PROBE_GAP_S)

    threads = [threading.Thread(target=query_client), threading.Thread(target=appender)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if not query_ms or len(fresh_ms) < 2:
        raise BenchError("live phase produced no samples")
    return {
        "query_ms": query_ms,
        "query_window_s": window[1] - window[0],
        "fresh_ms": fresh_ms,
        "appended": stats["appended"],
        "late_ms": stats["late_ms"],
    }


def valid_view(view, body):
    if view == "analysis":
        return b" errors -> " in body.split(b"\n", 1)[0]
    if view in ("alerts", "health"):
        json.loads(body)
        return True
    return len(body) > 0


# ---------------------------------------------------------------------------
# Traced run


def fingerprint(bins):
    digest = hashlib.sha256()
    for path in (bins["cli"], bins["trace"]):
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def traced_run(bins, spec, seed, workload, work, deadline, tally):
    data = os.path.join(work, SITE)
    done = subprocess.run(
        [bins["trace"], "run", data, work, str(spec["racks"]), str(seed), spec["format"]],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, timeout=remaining(deadline),
    )
    if done.returncode != 0:
        raise BenchError("traced run failed")
    trace = json.loads(done.stdout.decode().strip().splitlines()[-1])
    tally.attempted += trace["attempted"]
    tally.failed += trace["failed"]
    tally.problems += trace["failed_checks"]
    # The same front door as users run it must give the same answer.
    with open(os.path.join(work, "trace-analysis.txt"), "rb") as f:
        expected = f.read()
    call = run_timed([bins["cli"], "stream-analyze", data], deadline)
    tally.check(call.code == 0 and call.stdout == expected,
                "untraced stream-analyze differs from the traced run")
    tally.check(first_line_ces(call.stdout) == trace["counts"]["generated.ces"],
                "first line's CE total differs from the generator's")
    metrics = dict(trace["metrics"])
    counts = trace["counts"]
    for name in EXACT_COUNTS:
        metrics[name] = counts[name]
    check_counts_repeat(bins, workload, seed, counts, tally)
    return metrics


def check_counts_repeat(bins, workload, seed, counts, tally):
    """Exact counts must repeat bit-for-bit across runs of the same code
    and seed. The tracer repeats each within the run; this also compares
    them with what an earlier traced run in this checkout saw, if any."""
    path = os.path.join(WORK_ROOT, "exact-counts.json")
    key = f"{workload}/{seed}/{fingerprint(bins)}"
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    mine = {name: counts[name] for name in EXACT_COUNTS}
    if key in seen:
        for name in EXACT_COUNTS:
            tally.check(seen[key][name] == mine[name], f"{name} changed between runs of one seed")
    else:
        seen[key] = mine
        with open(path + ".tmp", "w") as f:
            json.dump(seen, f, indent=1, sort_keys=True)
        os.replace(path + ".tmp", path)


# ---------------------------------------------------------------------------


def info_record(bins, args, extra):
    info = json.loads(subprocess.run([bins["trace"], "info"], stdout=subprocess.PIPE,
                                     check=True).stdout)
    return {
        "run": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": info["nproc"],
            "workers": info["workers"],
            "build_profile": "release (root Cargo.toml [profile.release])",
            "serve_poll_ms": info["serve_poll_ms"],
            "serve_accept_sleep_ms": 5,
            "serve_workers": info["serve_workers"],
            **extra,
        }
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Unwind on SIGTERM too, so the daemon is killed and the dataset removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.perf_counter() + RUN_LIMIT_S
    spec = WORKLOADS[args.workload]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    cli, tracer = build(target)
    # A first run in a fresh checkout spends its time building.
    deadline = time.perf_counter() + RUN_LIMIT_S
    bins = {"cli": cli, "trace": tracer}
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    tally = Tally()
    try:
        if args.trace:
            metrics = traced_run(bins, spec, args.seed, args.workload, work, deadline, tally)
            units = LAYER_UNITS
            extra = {}
        else:
            run_end = time.perf_counter() + args.seconds
            data, setup_times, ces, small = set_up(bins, spec, args.seed, work, deadline, tally)
            frames = hold_back(bins, data, work, deadline, tally)
            ratio = ces / REFERENCE_CES[spec["racks"]]
            ces -= HOLD_BACK
            events = ces + small + SENSORS_PER_RACK * spec["racks"]
            reference = [None]
            batch, samples = batch_phase(bins, data, ces, events, deadline, tally, reference)
            serve, serve_info = serve_phase(bins, data, frames, run_end, deadline, tally,
                                            reference[0])
            measured = {"setup_s": statistics.median(setup_times), **batch, **serve}
            shares = FIXED_SHARES[args.workload]
            metrics = {k: v / (shares[k] + (1 - shares[k]) * ratio) if k in shares else v
                       for k, v in measured.items()}
            units = E2E_UNITS
            extra = {"ces": ces, "held_back_ces": HOLD_BACK, "ce_ratio": ratio, "rounds": ROUNDS,
                     "measured_s": time.perf_counter() - run_end + args.seconds,
                     "wall_samples_s": samples, **serve_info,
                     "measured": {k: measured[k] for k in sorted(shares)}}
        print(json.dumps(info_record(bins, args, extra), sort_keys=True))
        if tally.problems:
            log("failed checks: " + "; ".join(tally.problems))
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        log(f"error: {e}")
        sys.exit(1)
