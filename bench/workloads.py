"""Workload inputs and the checkers for pointline's outputs.

`build(workload, seed, workdir)` writes a round's input files into workdir
and returns the round: a list of requests, each a pointline argument list
plus a checker. The same seed gives the same files and arguments. Every
reference a checker compares against comes from `reference`, never from
pointline.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor, gcd
from pathlib import Path
from typing import Callable

import reference
from reference import ALPHA, LAMBDA, Enclosures

WORKLOADS = ("arrangement", "certify-search")

DEFAULT_CHECKS = ["melchior", "hirzebruch", "kelly-moser", "stt", "main", "beck"]
DEFAULT_TAIL_WIDTH = Fraction(1, 10**9)
# The sweep advances its tail by exact subtraction and re-rounds to 2^-96
# at each step, so its enclosure may be this much wider than requested.
SWEEP_ROUNDING = Fraction(1, 2**80)
TARGETS = {
    "dirac_eps": Fraction(1000, 36158),
    "beck_delta": Fraction(100, 3257),
    "beck_constant": Fraction(1, 98),
    "beck_eps": Fraction(1, 49),
    "fixed_eps_delta": Fraction(1, 37),
}


class Mismatch(Exception):
    """pointline's output disagrees with the benchmark's reference."""


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple[str, ...]
    checker: Callable[[dict], None]

    def check(self, code: int, stdout: bytes) -> str | None:
        """None when the output is correct, else the reason it is not."""
        if code != 0:
            return f"exit code {code}"
        try:
            doc = json.loads(stdout)
            if not stdout.endswith(b"\n"):
                raise Mismatch("output does not end in a newline")
            if doc["schema_version"] != "1" or doc["command"] != self.argv[0]:
                raise Mismatch("wrong schema_version or command")
            self.checker(doc)
        except (Mismatch, ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None


def build(workload: str, seed: int, workdir: Path) -> list[Request]:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "arrangement":
        return _lattice(rng, workdir) + _rational(rng, workdir)
    if workload == "certify-search":
        return _certify(rng, workdir) + _search(rng)
    raise ValueError(f"unknown workload {workload!r}")


def inputs_digest(requests: list[Request], workdir: Path) -> str:
    """sha256 of every request's arguments and every input file's bytes."""
    h = hashlib.sha256()
    h.update(json.dumps([r.argv for r in requests]).encode())
    for path in sorted(workdir.glob("*.txt")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# point sets


def _grid(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A translated w x h grid with w*h = n and neither side twice the other."""
    shapes = [(w, n // w) for w in range(1, n + 1) if n % w == 0 and w * w * 2 >= n >= w * w / 2]
    w, h = rng.choice(shapes)
    ox, oy = rng.randint(-50, 50), rng.randint(-50, 50)
    return [(x + ox, y + oy) for x in range(w) for y in range(h)]


def _dense(rng: random.Random, n: int, extent: int) -> list[tuple[int, int]]:
    """n distinct cells of a translated (extent+1)^2 grid, in draw order."""
    side = extent + 1
    ox, oy = rng.randint(-50, 50), rng.randint(-50, 50)
    return [(c // side + ox, c % side + oy) for c in rng.sample(range(side * side), n)]


def _affine(rng: random.Random, pts):
    """Image of pts under a random rational affine map with nonzero determinant."""

    def rat(span: int) -> Fraction:
        return Fraction(rng.randint(-span, span), rng.randint(1, 9))

    while True:
        a, b, c, d = rat(9), rat(9), rat(9), rat(9)
        if a * d - b * c != 0:
            break
    e, f = rat(40), rat(40)
    return [(a * x + b * y + e, c * x + d * y + f) for x, y in pts]


def _circle(rng: random.Random, n: int):
    """n rational points on the unit circle with pairwise distinct denominators."""
    pts, dens = [], set()
    while len(pts) < n:
        q = rng.randint(2, 400)
        p = rng.randint(1, q - 1)
        if gcd(p, q) != 1:
            continue
        x = Fraction(q * q - p * p, q * q + p * p)
        y = Fraction(2 * p * q, q * q + p * p)
        if x.denominator in dens:
            continue
        dens.add(x.denominator)
        if rng.random() < 0.5:
            x, y = y, x
        pts.append((x * rng.choice((1, -1)), y * rng.choice((1, -1))))
    return pts


def _write_points(workdir: Path, name: str, pts) -> tuple[str, str]:
    data = "".join(f"{x} {y}\n" for x, y in pts).encode()
    (workdir / name).write_bytes(data)
    return name, hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# arrangement workload: integer lattices, then rational sets


def _lattice(rng, workdir):
    sets = [
        ("lattice-grid144.txt", _grid(rng, 144)),
        ("lattice-grid100.txt", _grid(rng, 100)),
        ("lattice-dense180.txt", _dense(rng, 180, 16)),
        ("lattice-dense120.txt", _dense(rng, 120, 12)),
    ]
    requests = []
    for name, pts in sets:
        requests += _arrangement_requests(workdir, name, pts, reference.arrangement(pts))
    return requests


def _rational(rng, workdir):
    requests = []
    for name, n in (("rational-circle120.txt", 120), ("rational-circle170.txt", 170)):
        requests += _arrangement_requests(
            workdir, name, _circle(rng, n), reference.general_position_stats(n)
        )
    # An affine map keeps order and collinearity, so the image has its
    # preimage's statistics, witness included.
    for name, pts in (
        ("rational-affine-grid144.txt", _grid(rng, 144)),
        ("rational-affine-dense150.txt", _dense(rng, 150, 14)),
    ):
        requests += _arrangement_requests(
            workdir, name, _affine(rng, pts), reference.arrangement(pts)
        )
    return requests


def _arrangement_requests(workdir, name, pts, ref) -> list[Request]:
    name, digest = _write_points(workdir, name, pts)

    def check_analyze(doc):
        if doc["input_digest"] != digest:
            raise Mismatch("input_digest is not the file's sha256")
        payload = doc["payload"]
        n = payload["n"]
        if sum(comb(i, 2) * si for i, si in payload["s"]) != comb(n, 2):
            raise Mismatch("sum C(i,2) s_i != C(n,2)")
        for key, want in ref.items():
            if payload[key] != want:
                raise Mismatch(f"{key} = {payload[key]!r}, reference {want!r}")

    def check_verify(doc):
        if doc["input_digest"] != digest:
            raise Mismatch("input_digest is not the file's sha256")
        payload = doc["payload"]
        if payload["binding_failures"] != []:
            raise Mismatch(f"binding failures {payload['binding_failures']}")
        checks = {c["name"]: c for c in payload["checks"]}
        if [c["name"] for c in payload["checks"]] != DEFAULT_CHECKS:
            raise Mismatch("default verify must report the six default checks in order")
        for want in _expected_reports(ref):
            got = _find_report(checks, want["name"])
            for key in ("lhs", "rhs", "holds", "preconditions_met"):
                if key in want and got[key] != want[key]:
                    raise Mismatch(f"{want['name']}.{key} = {got[key]!r}, reference {want[key]!r}")
        if len(checks["stt"]["parts"]) != ref["l_max"] - 1:
            raise Mismatch("stt must report levels 2..l_max")

    return [
        Request("analyze", ("analyze", name, "--json"), check_analyze),
        Request("verify", ("verify", name, "--json"), check_verify),
    ]


def _find_report(checks: dict, name: str) -> dict:
    for top in checks.values():
        if top["name"] == name:
            return top
        for part in top["parts"]:
            if part["name"] == name:
                return part
    raise Mismatch(f"report {name} missing")


def _expected_reports(ref: dict) -> list[dict]:
    """Exact lhs/rhs of the audits whose values follow from the histogram."""
    s = dict(ref["s"])
    n, lines, l_max = ref["n"], ref["lines"], ref["l_max"]

    def rat(v) -> str:
        return str(Fraction(v))

    return [
        {"name": "melchior", "holds": True, "preconditions_met": True,
         "lhs": rat(s.get(2, 0)), "rhs": rat(3 + sum((i - 3) * v for i, v in s.items() if i >= 4))},
        {"name": "hirzebruch", "preconditions_met": l_max <= n - 3,
         "lhs": rat(s.get(2, 0) + Fraction(3, 4) * s.get(3, 0)),
         "rhs": rat(n + sum((2 * i - 9) * v for i, v in s.items() if i >= 5))},
        {"name": "kelly-moser-incidences", "holds": True,
         "lhs": rat(3 * lines), "rhs": rat(3 + ref["incidences"])},
        {"name": "kelly-moser-edges", "holds": True,
         "lhs": rat(2 * lines), "rhs": rat(3 + ref["edges"])},
        {"name": "main-degree", "holds": True,
         "lhs": rat(ref["dirac_degree"]), "rhs": rat(Fraction(n, 37))},
        {"name": "beck-lines", "holds": True,
         "lhs": rat(lines), "rhs": rat(Fraction(n * (n - l_max), 98))},
    ]


# ---------------------------------------------------------------------------
# certify-search workload: the constants pipeline


def _certify(rng, workdir):
    enc = Enclosures()
    eps = rng.choice((Fraction(1, 37), Fraction(1, 40), Fraction(1, 45), Fraction(1, 50)))
    return [
        _solve_request(enc, "dirac", 71, DEFAULT_TAIL_WIDTH),
        _solve_request(enc, "beck", 67, DEFAULT_TAIL_WIDTH),
        _fixed_eps_request(enc, 71, Fraction(1, 37)),
        _solve_request(enc, "dirac", rng.randint(40, 150), Fraction(1, 10**10)),
        _solve_request(enc, "beck", rng.randint(40, 150), Fraction(1, 10**11)),
        _optimize_request(enc, "dirac", 8, rng.randint(250, 350)),
        _optimize_request(enc, "beck", rng.randint(8, 40), rng.randint(450, 600)),
        _fixed_eps_request(enc, rng.randint(100_000, 105_000), eps),
        _fixed_eps_request(enc, rng.randint(400_000, 420_000), eps),
        _proof_trace_request(rng, workdir),
    ]


def _interval(doc_iv: dict) -> tuple[Fraction, Fraction]:
    lo, hi = Fraction(doc_iv["lo"]), Fraction(doc_iv["hi"])
    if lo > hi:
        raise Mismatch(f"empty interval [{lo}, {hi}]")
    return lo, hi


def _width_flag(width: Fraction) -> tuple[str, ...]:
    return () if width == DEFAULT_TAIL_WIDTH else ("--tail-width", str(width))


def _check_fixed_point(enc, mode, c, eps, delta, width, rounding=Fraction(0)):
    """eps = lam * delta.lo, and eps lies in the benchmark's own enclosure."""
    lam = LAMBDA[mode]
    if eps != lam * delta[0]:
        raise Mismatch(f"c={c}: eps != lam * delta.lo")
    root = enc.fixed_point(c, mode, tail_hi_slack=width + rounding)
    upper = enc.fixed_point(c, mode)
    if root is None or upper is None or not root.lo <= eps <= upper.hi:
        raise Mismatch(f"c={c}: eps {eps} outside the reference enclosure")
    if not enc.delta(c, eps).overlaps(*delta):
        raise Mismatch(f"c={c}: delta does not overlap the reference enclosure")


def _solve_request(enc, mode, c, width) -> Request:
    argv = ("constants", "--c", str(c), "--mode", mode, *_width_flag(width), "--json")
    lam = LAMBDA[mode]
    # A paper target is required only where the reference certifies it
    # even with the full requested width charged against pointline.
    root = enc.fixed_point(c, mode, tail_hi_slack=width)
    if root is None:
        raise ValueError(f"cutoff {c} has no certified fixed point in mode {mode}")

    def check(doc):
        p = doc["payload"]
        if p["mode"] != mode or p["c"] != c:
            raise Mismatch("mode or c not echoed")
        eps, delta = Fraction(p["eps"]), _interval(p["delta"])
        _check_fixed_point(enc, mode, c, eps, delta, width)
        b = 1 / (reference.h_of(c) + 1)
        if delta[1] - delta[0] > b * reference.BETA / 2 * width:
            raise Mismatch("delta is wider than the requested tail width allows")
        if mode == "dirac" and root.lo >= TARGETS["dirac_eps"] and eps < TARGETS["dirac_eps"]:
            raise Mismatch("1000/36158 not certified")
        if mode == "beck":
            const = _interval(p["beck_constant"])
            if const[0] != min(eps / 2, delta[0] / 3):
                raise Mismatch("beck_constant.lo != min(eps/2, delta.lo/3)")
            if p["eps_at_least_threshold"] != (eps >= TARGETS["beck_eps"]):
                raise Mismatch("eps_at_least_threshold is wrong")
            ref_delta = root.lo / lam
            for target, value, ref_value in (
                ("beck_delta", delta[0], ref_delta),
                ("beck_constant", const[0], min(root.lo / 2, ref_delta / 3)),
                ("beck_eps", eps, root.lo),
            ):
                if ref_value >= TARGETS[target] and value < TARGETS[target]:
                    raise Mismatch(f"{TARGETS[target]} not certified")

    return Request(f"constants-{mode}", argv, check)


def _fixed_eps_request(enc, c, eps) -> Request:
    argv = ("constants", "--c", str(c), "--mode", "fixed-eps", "--eps", str(eps), "--json")
    h = reference.h_of(c)
    x = (h + 1) / 2
    ref_tail = enc.tail(c)
    certifies_target = (
        eps == TARGETS["fixed_eps_delta"]
        and enc.delta(c, eps, tail_hi_slack=DEFAULT_TAIL_WIDTH).lo >= TARGETS["fixed_eps_delta"]
    )

    def check(doc):
        p = doc["payload"]
        if p["mode"] != "fixed-eps" or p["c"] != c or Fraction(p["eps"]) != eps:
            raise Mismatch("mode, c or eps not echoed")
        exact = {"h": h, "x": x, "y": Fraction(c - 1) - 2 * x, "mid_term": reference.mid_term(c)}
        for key, want in exact.items():
            if Fraction(p[key]) != want:
                raise Mismatch(f"{key} = {p[key]}, reference {want}")
        tail, delta = _interval(p["tail"]), _interval(p["delta"])
        if tail[1] - tail[0] > DEFAULT_TAIL_WIDTH:
            raise Mismatch("tail is wider than the requested width")
        if delta[1] - delta[0] > reference.BETA / 2 / (h + 1) * DEFAULT_TAIL_WIDTH:
            raise Mismatch("delta is wider than the requested tail width allows")
        if not ref_tail.overlaps(*tail):
            raise Mismatch("tail does not overlap the reference enclosure")
        if not enc.delta(c, eps).overlaps(*delta):
            raise Mismatch("delta does not overlap the reference enclosure")
        if certifies_target and delta[0] < TARGETS["fixed_eps_delta"]:
            raise Mismatch("1/37 not certified")

    return Request("constants-fixed-eps", argv, check)


def _optimize_request(enc, mode, c_min, c_max) -> Request:
    argv = ("constants", "--mode", mode, "--optimize",
            "--c-min", str(c_min), "--c-max", str(c_max), "--json")
    lam = LAMBDA[mode]
    rounding = SWEEP_ROUNDING * (c_max - c_min)

    def check(doc):
        p = doc["payload"]
        if (p["mode"], p["c_min"], p["c_max"]) != (mode, c_min, c_max):
            raise Mismatch("mode or range not echoed")
        sweep = p["sweep"]
        if [e["c"] for e in sweep] != list(range(c_min, c_max + 1)):
            raise Mismatch("sweep does not cover c_min..c_max in order")
        best = None
        for e in sweep:
            c = e["c"]
            if e["delta_lo"] is None:
                if enc.fixed_point(c, mode, tail_hi_slack=DEFAULT_TAIL_WIDTH + rounding):
                    raise Mismatch(f"c={c}: reported no fixed point, reference has one")
                continue
            if enc.has_no_root(c, mode):
                raise Mismatch(f"c={c}: reported a fixed point, reference has none")
            lo = Fraction(e["delta_lo"])
            root = enc.fixed_point(c, mode, tail_hi_slack=DEFAULT_TAIL_WIDTH + rounding)
            upper = enc.fixed_point(c, mode)
            if root is not None and not root.lo <= lam * lo <= upper.hi:
                raise Mismatch(f"c={c}: delta_lo outside the reference enclosure")
            if best is None or lo > best[1]:
                best = (c, lo)
        if best is None or p["best_c"] != best[0]:
            raise Mismatch("best_c is not the sweep's maximum of delta_lo")
        delta = _interval(p["best_delta"])
        if delta[0] != best[1]:
            raise Mismatch("best_delta.lo differs from its sweep entry")
        eps = Fraction(p["best_eps"])
        _check_fixed_point(enc, mode, best[0], eps, delta, DEFAULT_TAIL_WIDTH, rounding)
        ref_best = enc.fixed_point(best[0], mode, tail_hi_slack=DEFAULT_TAIL_WIDTH + rounding)
        if (mode == "dirac" and c_min <= 71 <= c_max
                and ref_best.lo >= TARGETS["dirac_eps"] and eps < TARGETS["dirac_eps"]):
            raise Mismatch("1000/36158 not certified by the best cutoff")
        if mode == "beck":
            const = _interval(p["best_beck_constant"])
            if const[0] != min(eps / 2, delta[0] / 3):
                raise Mismatch("best_beck_constant.lo != min(eps/2, delta.lo/3)")

    return Request(f"constants-optimize-{mode}", argv, check)


def _proof_trace_request(rng, workdir) -> Request:
    eps = Fraction(1, 4)
    c = 8
    while True:
        pts = _dense(rng, 48, 30)
        ref = reference.arrangement(pts)
        if ref["l_max"] <= eps * ref["n"]:
            break
    name, digest = _write_points(workdir, "certify-trace48.txt", pts)
    s, n = dict(ref["s"]), ref["n"]
    j_hi = floor(eps * n)
    k = next((i for i in range(2, j_hi + 1)
              if sum((j - 1) * v for j, v in s.items() if j >= i) <= ALPHA * n), j_hi + 1)
    want = {"c": c, "k": k, "eps": str(eps), "small_pairs": 0, "medium_pairs": 0, "large_pairs": 0}
    for i, v in s.items():
        cls = "small_pairs" if i <= c else "large_pairs" if i >= k else "medium_pairs"
        want[cls] += comb(i, 2) * v

    def check(doc):
        if doc["input_digest"] != digest:
            raise Mismatch("input_digest is not the file's sha256")
        p = doc["payload"]
        if p["binding_failures"] != [] or len(p["checks"]) != 1:
            raise Mismatch("proof-trace reported binding failures")
        trace = p["checks"][0]
        for key, value in want.items():
            if trace[key] != value:
                raise Mismatch(f"{key} = {trace[key]!r}, reference {value!r}")
        tally = trace["small_pairs"] + trace["medium_pairs"] + trace["large_pairs"]
        if tally != comb(n, 2):
            raise Mismatch("the pair tally does not cover C(n,2)")
        if len(trace["step_reports"]) != 4 or not all(r["holds"] for r in trace["step_reports"]):
            raise Mismatch("a proof step does not hold")

    argv = ("verify", name, "--check", "proof-trace", "--c", str(c), "--eps", str(eps), "--json")
    return Request("proof-trace", argv, check)


# ---------------------------------------------------------------------------
# certify-search workload: the degree search


def _search(rng):
    return [
        _search_request(12, 11, 3000, rng.randrange(2**32)),
        _search_request(40, 30, 500, rng.randrange(2**32)),
    ]


def _search_request(n, extent, iters, seed) -> Request:
    argv = ("search", "--n", str(n), "--extent", str(extent),
            "--iters", str(iters), "--seed", str(seed), "--json")

    def check(doc):
        p = doc["payload"]
        if (p["n"], p["extent"], p["seed"], p["iterations_run"]) != (n, extent, seed, iters):
            raise Mismatch("n, extent, seed or iterations not echoed")
        pts = [(Fraction(x), Fraction(y)) for x, y in p["points"]]
        if len(pts) != n or len(set(pts)) != n:
            raise Mismatch("the result does not have n distinct points")
        if any(v.denominator != 1 or not 0 <= v <= extent for pt in pts for v in pt):
            raise Mismatch("a point lies outside the extent")
        ref = reference.arrangement([(int(x), int(y)) for x, y in pts])
        if ref["l_max"] == n:
            raise Mismatch("the result is collinear")
        if p["degree"] != ref["dirac_degree"]:
            raise Mismatch(f"degree {p['degree']}, reference {ref['dirac_degree']}")
        if Fraction(p["ratio"]) != Fraction(2 * p["degree"], n):
            raise Mismatch("ratio != 2 degree / n")

    return Request(f"search-n{n}", argv, check)
