"""Smoke check of the benchmark itself: deterministic inputs, strict checkers.

usage: python3 bench/selfcheck.py

For every workload, building a round twice from one seed must give the same
inputs digest, and another seed a different one. Then each request of the
round runs once through pointline. Its checker must accept the real output
and reject each corruption of it: another exit code, a truncated document,
and a changed value that the checker exists to verify.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SRC = BENCH.parent / "src"


def _bump(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return str(Fraction(value) + Fraction(1, 1000))


# Per request kind: payload paths whose values the checker must verify.
# A path ending in a callable replaces the value with callable(payload).
MUTATIONS = {
    "analyze": [("s", 0, 1), ("dirac_degree",), ("dirac_witness",), ("lines",)],
    "verify": [("binding_failures", lambda p: ["melchior"]), ("checks", 0, "lhs"),
               ("checks", 5, "parts", 0, "lhs")],
    "constants-dirac": [("eps",), ("delta", "lo"), ("delta", "hi")],
    "constants-beck": [("eps",), ("beck_constant", "lo"), ("eps_at_least_threshold",)],
    "constants-fixed-eps": [("x",), ("h",), ("tail", "lo"), ("delta", "lo"), ("delta", "hi")],
    "constants-optimize-dirac": [("best_c",), ("sweep", -1, "delta_lo"), ("best_eps",)],
    "constants-optimize-beck": [("best_c",), ("sweep", -1, "delta_lo"),
                                ("best_beck_constant", "lo")],
    "proof-trace": [("checks", 0, "small_pairs"), ("checks", 0, "k"),
                    ("checks", 0, "step_reports", 0, "holds")],
    "search-n12": [("degree",), ("points", 1, lambda p: p["points"][0]), ("ratio",)],
    "search-n40": [("degree",), ("points", 0, lambda p: [0, p["extent"] + 1])],
}


def _mutate(stdout: bytes, path) -> bytes:
    doc = json.loads(stdout)
    node = doc["payload"]
    *parents, last = path
    if callable(last):
        *parents, key = parents
        value_of = last
    else:
        key = last
        value_of = None
    for step in parents:
        node = node[step]
    node[key] = value_of(doc["payload"]) if value_of else _bump(node[key])
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def check_workload(workload: str, scratch: Path, env: dict) -> list[str]:
    problems = []
    digests = []
    for tag, seed in (("a", 1), ("b", 1), ("c", 2)):
        workdir = scratch / f"{workload}-{tag}"
        workdir.mkdir()
        requests = workloads.build(workload, seed, workdir)
        digests.append(workloads.inputs_digest(requests, workdir))
    if digests[0] != digests[1]:
        problems.append(f"{workload}: one seed gave two different inputs")
    if digests[0] == digests[2]:
        problems.append(f"{workload}: seeds 1 and 2 gave the same inputs")

    workdir = scratch / f"{workload}-a"
    for request in workloads.build(workload, 1, workdir):
        proc = subprocess.run([sys.executable, "-m", "pointline", *request.argv], cwd=workdir,
                              env=env, capture_output=True, timeout=120)
        label = f"{workload} {' '.join(request.argv)}"
        reason = request.check(proc.returncode, proc.stdout)
        if reason is not None:
            problems.append(f"{label}: real output rejected: {reason}")
            continue
        corruptions = [("exit code 1", 1, proc.stdout),
                       ("truncated", 0, proc.stdout[: len(proc.stdout) // 2])]
        corruptions += [(f"changed {path}", 0, _mutate(proc.stdout, path))
                        for path in MUTATIONS[request.kind]]
        for what, code, stdout in corruptions:
            if request.check(code, stdout) is None:
                problems.append(f"{label}: accepted a corruption ({what})")
        print(f"ok   {label}: accepts its output, rejects {len(corruptions)} corruptions")
    return problems


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    work_root = BENCH / "_work"
    work_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=work_root))
    try:
        problems = [p for w in workloads.WORKLOADS for p in check_workload(w, scratch, env)]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print(f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
