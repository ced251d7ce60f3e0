"""pointline benchmark: closed-loop CLI requests, checked outputs, traced layers.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; pointline is imported from its
`src/` directory. One client sends one request at a time, each request a
fresh `python -m pointline ...` process, timed from spawn to exit. Requests
repeat in rounds; a round is the workload's fixed list of requests built
from --seed, and rounds start until --seconds have passed. Every output is
checked against the benchmark's own references, and repeats of a request
must be byte-identical.

--trace 0 prints the end-to-end metrics. --trace 1 sends the same rounds
through trace_entry.py, which records spans around each layer's public
functions, then replays as many rounds untraced to measure the tracing
overhead, and prints the per-layer metrics. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
See NOTES.md for the workloads and the definition of every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

REQUEST_TIMEOUT_S = 60
SETUP_IMPORTS = 5
IMPORT_REPEATS = 3
TAIL_BEYOND = 10
HOLDOUT_SEED_NOTE = (
    "check any claimed gain again on a second seed that was not used while "
    "the change was written"
)
LAYERS = ("cli", "pointfile", "geometry", "audits", "constants", "generators")


@dataclass(frozen=True)
class Sample:
    request: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    code: int
    stdout: bytes


def spawn(argv: list[str], workdir: Path, env: dict, request: int = -1) -> Sample:
    """Run one child to exit; time it from spawn to reaping and take its rusage."""
    out_path = workdir / "stdout.bin"
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.DEVNULL)
        watchdog = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(request, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                  proc.returncode, out_path.read_bytes())


def closed_loop(argv_for, round_size: int, seconds: float, workdir, env,
                between=None, rounds: int | None = None):
    """Whole rounds until `seconds` pass, or exactly `rounds` rounds.

    argv_for(request_index, sample_index) gives the command of one request.
    between() runs after each round and does not count in its duration.
    """
    done: list[tuple[list[Sample], float]] = []
    count = 0
    start = time.perf_counter()
    while len(done) < rounds if rounds is not None else time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        samples = [spawn(argv_for(k, count + k), workdir, env, k) for k in range(round_size)]
        done.append((samples, time.perf_counter() - t0))
        count += round_size
        if between is not None:
            between()
    return done


def loop_rps(rounds) -> float:
    """Requests completed per second of loop time, between-round work excluded."""
    return sum(len(samples) for samples, _ in rounds) / sum(seconds for _, seconds in rounds)


def check_samples(requests, samples) -> tuple[int, list[str]]:
    """Count wrong outputs: a checker rejects them or a repeat differs."""
    first: dict[int, bytes] = {}
    verdicts: dict[tuple[int, int, bytes], str | None] = {}
    failed, reasons = 0, []
    for s in samples:
        digest = hashlib.sha256(s.stdout).digest()
        key = (s.request, s.code, digest)
        if key not in verdicts:
            verdicts[key] = requests[s.request].check(s.code, s.stdout)
        reason = verdicts[key]
        if reason is None and first.setdefault(s.request, digest) != digest:
            reason = "stdout differs from the first run of the same request"
        if reason is not None:
            failed += 1
            reasons.append(f"{' '.join(requests[s.request].argv)}: {reason}")
    return failed, reasons


def end_to_end(rounds, setup_walls):
    samples = [s for round_samples, _ in rounds for s in round_samples]
    walls = sorted(s.wall_s for s in samples)
    n = len(walls)
    tail_index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    metrics = {
        "throughput_rps": (loop_rps(rounds), "req/s"),
        "latency_p50_ms": (1000 * statistics.median(walls), "ms"),
        "latency_tail_ms": (1000 * walls[tail_index], "ms"),
        "cpu_ms_per_request": (1000 * statistics.fmean(s.cpu_s for s in samples), "ms"),
        "peak_rss_mb": (max(s.maxrss_kb for s in samples) / 1024, "MB"),
        "setup_s": (statistics.median(setup_walls), "s"),
    }
    tail = {"percentile": round(100 * tail_index / n, 2), "samples_beyond": n - 1 - tail_index,
            "requests": n, "rounds": len(rounds), "setup_imports": len(setup_walls)}
    return metrics, tail


def per_layer(traces, traced, untraced):
    """Per-request means of span times and counters from the traced pass."""
    ms = dict.fromkeys(("cli.main", "geometry.compute_arrangement", "geometry.dirac_degree",
                        "pointfile.parse_points", "constants.tail_sum", "constants.x_of",
                        "generators.search_min_dirac"), 0.0)
    self_ms = dict.fromkeys(LAYERS, 0.0)
    fn_self_ms = dict.fromkeys(("constants.delta_of", "constants.solve_fixed_point",
                                "constants.sweep_fixed_points"), 0.0)
    calls = dict.fromkeys(("geometry.compute_arrangement", "constants.tail_sum"), 0)
    counts: dict[str, float] = {}
    spans_total = 0
    for trace in traces:
        spans = trace["spans"]
        spans_total += len(spans)
        child_ns = [0] * len(spans)
        for name, start, end, parent, _rid in spans:
            if parent is not None:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, _rid) in enumerate(spans):
            dur = (end - start) / 1e6
            own = dur - child_ns[i] / 1e6
            self_ms[name.split(".")[0]] += own
            if name in fn_self_ms:
                fn_self_ms[name] += own
            if name in calls:
                calls[name] += 1
            # Inclusive time counts only the outermost span of a name.
            if name in ms and (parent is None or not _inside(spans, parent, name)):
                ms[name] += dur
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
    n = len(traces)
    wall_ms = 1000 * statistics.fmean(s.wall_s for r, _ in traced for s in r)
    startup_ms = wall_ms - ms["cli.main"] / n
    tail_calls = calls["constants.tail_sum"]
    traced_rps, untraced_rps = loop_rps(traced), loop_rps(untraced)
    m = {
        "geometry.compute_arrangement.ms": (ms["geometry.compute_arrangement"] / n, "ms"),
        "geometry.compute_arrangement.calls": (calls["geometry.compute_arrangement"] / n, "count"),
        "geometry.pairs": (counts.get("geometry.pairs", 0) / n, "count"),
        "geometry.pairs_per_s": (_rate(counts.get("geometry.pairs", 0),
                                       ms["geometry.compute_arrangement"]), "1/s"),
        "geometry.dirac_degree.ms": (ms["geometry.dirac_degree"] / n, "ms"),
        "pointfile.parse_points.ms": (ms["pointfile.parse_points"] / n, "ms"),
        "pointfile.bytes": (counts.get("pointfile.bytes", 0) / n, "B"),
        "audits.checks": (counts.get("audits.checks", 0) / n, "count"),
        "constants.tail_sum.ms": (ms["constants.tail_sum"] / n, "ms"),
        "constants.tail_sum.calls": (tail_calls / n, "count"),
        "constants.tail_width_log2": (
            counts.get("constants.tail_width_log2_sum", 0) / tail_calls if tail_calls else 0.0,
            "log2"),
        "constants.x_of.ms": (ms["constants.x_of"] / n, "ms"),
        "generators.search_min_dirac.ms": (ms["generators.search_min_dirac"] / n, "ms"),
        "generators.iterations": (counts.get("generators.iterations", 0) / n, "count"),
        "generators.proposals_per_s": (_rate(counts.get("generators.iterations", 0),
                                             ms["generators.search_min_dirac"]), "1/s"),
    }
    for name, value in fn_self_ms.items():
        m[f"{name}.self_ms"] = (value / n, "ms")
    for layer, value in self_ms.items():
        m[f"{layer}.self_ms"] = (value / n, "ms")
    accounted = sum(self_ms.values()) / n + startup_ms
    m |= {
        "cli.startup_ms": (startup_ms, "ms"),
        "trace.wall_ms": (wall_ms, "ms"),
        "trace.accounted_pct": (100 * accounted / wall_ms, "%"),
        "trace.spans": (spans_total / n, "count"),
        "trace.traced_rps": (traced_rps, "req/s"),
        "trace.untraced_rps": (untraced_rps, "req/s"),
        "trace.overhead_rps": (untraced_rps - traced_rps, "req/s"),
    }
    return m


def _inside(spans, index, name) -> bool:
    while index is not None:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def _rate(count, ms_total) -> float:
    return count / (ms_total / 1000) if ms_total else 0.0


def environment() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "git_revision": rev,
            "nproc": os.cpu_count(), "cpu_model": cpu}


def run(args, workdir: Path) -> tuple[dict, int, int, dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    requests = workloads.build(args.workload, args.seed, workdir)
    details = {"workload": args.workload, "seed": args.seed,
               "inputs_digest": workloads.inputs_digest(requests, workdir),
               "holdout_seed": HOLDOUT_SEED_NOTE, "round": [r.kind for r in requests],
               "environment": environment()}
    commands = [[sys.executable, "-m", "pointline", *r.argv] for r in requests]
    size = len(requests)
    importer = [sys.executable, "-c", "import pointline.cli"]
    spawn(importer, workdir, env)  # compiles the bytecode, untimed
    if not args.trace:
        # One set-up sample is the best of a few back-to-back imports, and
        # the samples are spread over the run, so that load from other
        # tenants of the box moves few of them.
        def setup_sample() -> float:
            return min(spawn(importer, workdir, env).wall_s for _ in range(IMPORT_REPEATS))

        setup_walls = [setup_sample() for _ in range(SETUP_IMPORTS)]

        def between():
            setup_walls.append(setup_sample())

        rounds = closed_loop(lambda k, i: commands[k], size, args.seconds, workdir, env, between)
        metrics, details["tail"] = end_to_end(rounds, setup_walls)
        samples = [s for r, _ in rounds for s in r]
        details["p50_ms_by_request"] = _p50_by_request(requests, samples)
    else:
        entry = str(BENCH / "trace_entry.py")
        traced = closed_loop(
            lambda k, i: [sys.executable, entry, str(workdir / f"spans-{i}.json"), f"r{i}",
                          *requests[k].argv],
            size, args.seconds, workdir, env)
        traces = [json.loads(path.read_text())
                  for path in (workdir / f"spans-{i}.json" for i in range(size * len(traced)))
                  if path.is_file()]
        untraced = closed_loop(lambda k, i: commands[k], size, 0, workdir, env, rounds=len(traced))
        metrics = per_layer(traces, traced, untraced)
        samples = [s for r, _ in traced + untraced for s in r]
    failed, reasons = check_samples(requests, samples)
    details["error_rate"] = {"failed": failed, "attempted": len(samples),
                             "value": failed / len(samples)}
    details["failures"] = reasons[:5]
    return metrics, len(samples), failed, details


def _p50_by_request(requests, samples) -> dict:
    walls: dict[str, list[float]] = {}
    for s in samples:
        walls.setdefault(f"{s.request}:{requests[s.request].kind}", []).append(1000 * s.wall_s)
    return {k: round(statistics.median(v), 3) for k, v in walls.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "pointline" / "cli.py").is_file():
        print(f"pointline sources not found under {SRC}", file=sys.stderr)
        return 2
    work_root = BENCH / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        metrics, attempted, failed, details = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name:<38} {value:>14.4f} {unit}")
    err = details["error_rate"]
    print(f"{'error_rate':<38} {err['value']:>14.4f} ratio ({err['failed']} of {err['attempted']})")
    if "tail" in details:
        t = details["tail"]
        print(f"latency_tail_ms is p{t['percentile']} of {t['requests']} requests "
              f"({t['samples_beyond']} beyond it)")
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
