"""Acceptance suite: one test per shipping criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
Each test prints `[acceptance N] PASS ...` before asserting, so a failure
still leaves the measured numbers on the terminal.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from conftest import build_corpus, oracle_arrangement, stats_as_dict
from pointline import (
    PipelineParams,
    PointSet,
    audit_proof_steps,
    check_beck,
    check_hirzebruch,
    check_kelly_moser,
    check_main,
    check_melchior,
    check_stt,
    compute_arrangement,
    delta_of,
    h_of,
    tail_sum,
    x_of,
)

CMD = [sys.executable, "-m", "pointline"]


def run_cli(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True)


def verdict(num, ok, detail):
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def test_acceptance_1_fixed_eps_delta():
    t0 = time.monotonic()
    proc = run_cli("constants", "--c", "71", "--mode", "fixed-eps",
                   "--eps", "1/37", "--json")
    elapsed = time.monotonic() - t0
    payload = json.loads(proc.stdout)["payload"]
    lo = Fraction(payload["delta"]["lo"])
    ok = proc.returncode == 0 and lo >= Fraction(1, 37) and elapsed < 5
    verdict(1, ok, f"delta.lo = {payload['delta']['lo_decimal']} >= 1/37 in {elapsed:.2f}s")


def test_acceptance_2_dirac_fixed_point():
    proc = run_cli("constants", "--c", "71", "--mode", "dirac", "--json")
    payload = json.loads(proc.stdout)["payload"]
    lo, hi = Fraction(payload["delta"]["lo"]), Fraction(payload["delta"]["hi"])
    ok = (proc.returncode == 0 and lo >= Fraction(1000, 36158)
          and hi - lo <= Fraction(1, 10**6))
    verdict(2, ok, f"delta.lo = {payload['delta']['lo_decimal']} >= 1000/36158, "
                   f"width = {float(hi - lo):.2e}")


def test_acceptance_3_beck_pipeline():
    t0 = time.monotonic()
    proc = run_cli("constants", "--c", "67", "--mode", "beck", "--json")
    elapsed = time.monotonic() - t0
    payload = json.loads(proc.stdout)["payload"]
    lo = Fraction(payload["delta"]["lo"])
    const = Fraction(payload["beck_constant"]["lo"])
    eps = Fraction(payload["eps"])
    ok = (proc.returncode == 0 and lo >= Fraction(100, 3257)
          and const >= Fraction(1, 98) and eps >= Fraction(1, 49) and elapsed < 5)
    verdict(3, ok, f"delta.lo = {payload['delta']['lo_decimal']} >= 100/3257, "
                   f"constant = {payload['beck_constant']['lo_decimal']} >= 1/98, "
                   f"eps >= 1/49 in {elapsed:.2f}s")


def test_acceptance_4_zeta_anchor():
    t = tail_sum(2, Fraction(1, 10**5))
    total_lo, total_hi = t.lo + 2, t.hi + 2
    ok = Fraction("2.84698") <= total_lo and total_hi <= Fraction("2.84700")
    verdict(4, ok, f"zeta(2)+zeta(3) in [{float(total_lo):.7f}, {float(total_hi):.7f}] "
                   f"within [2.84698, 2.84700]")


def test_acceptance_5_x_claim_sweep():
    t0 = time.monotonic()
    bad = [c for c in range(8, 501) if x_of(c) != (h_of(c) + 1) / 2]
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 10
    verdict(5, ok, f"four-branch max equals (h+1)/2 for c in 8..500 in {elapsed:.2f}s"
                   + (f"; mismatches {bad[:5]}" if bad else ""))


def test_acceptance_6_oracle_equivalence():
    rnd = random.Random(20260822)
    mismatches = 0
    for _ in range(200):
        n = rnd.randint(1, 10)
        seen = set()
        while len(seen) < n:
            seen.add((rnd.randint(0, 14), rnd.randint(0, 14)))
        coords = sorted(seen)
        st = compute_arrangement(PointSet.from_coords(coords))
        if stats_as_dict(st) != oracle_arrangement(coords):
            mismatches += 1
    verdict(6, mismatches == 0, f"200/200 random sets match the brute-force oracle "
                                f"({mismatches} mismatches)")


def test_acceptance_7_inequality_property_suite():
    t0 = time.monotonic()
    params = PipelineParams()
    failures = []
    corpus = build_corpus()
    for name, ps in corpus:
        st = compute_arrangement(ps)
        if not check_melchior(st).holds:
            failures.append((name, "melchior"))
        if not check_kelly_moser(st).holds:
            failures.append((name, "kelly-moser"))
        if st.l_max <= st.n - 3 and not check_hirzebruch(st).holds:
            failures.append((name, "hirzebruch"))
        for i in range(2, st.l_max + 1):
            if not check_stt(st, i, params).holds:
                failures.append((name, f"stt i={i}"))
        beck = check_beck(st)
        if beck.binding_failures() or not beck.holds:
            failures.append((name, "beck"))
        main = check_main(st)
        degree_part = next(p for p in main.parts if p.name == "main-degree")
        if not degree_part.holds:
            failures.append((name, "main-degree"))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60
    verdict(7, ok, f"{len(corpus)} configurations, zero failures in {elapsed:.1f}s"
                   + (f"; first failures {failures[:5]}" if failures else ""))


def test_acceptance_8_proof_trace_conservation():
    eps = Fraction(1, 2) - Fraction(1, 1000)
    params = PipelineParams()
    breakdown = delta_of(8, eps, params)
    failures = []
    audited = 0
    for name, ps in build_corpus():
        st = compute_arrangement(ps)
        if st.l_max > eps * st.n:
            continue
        audited += 1
        tr = audit_proof_steps(st, breakdown, params)
        tally = tr.small_pairs + tr.medium_pairs + tr.large_pairs
        want = math.comb(st.n, 2)
        if tally < want:
            failures.append((name, "tally"))
        if 8 < tr.k and tally != want:  # disjoint classes must tile exactly
            failures.append((name, "equality"))
        if any(not r.holds for r in tr.step_reports):
            failures.append((name, "steps"))
    ok = not failures and audited > 0
    verdict(8, ok, f"S+M+Lg covers C(n,2) and steps (1)-(4) hold on "
                   f"{audited} configurations"
                   + (f"; failures {failures[:5]}" if failures else ""))


def test_acceptance_9_cli_determinism(tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text("".join(f"{x} {y}\n" for x in range(4) for y in range(4)))
    invocations = [
        ("analyze", str(grid), "--json"),
        ("verify", str(grid), "--json"),
        ("verify", str(grid), "--check", "proof-trace", "--eps", "499/1000", "--json"),
        ("constants", "--c", "71", "--mode", "dirac", "--json"),
        ("constants", "--c", "67", "--mode", "beck", "--json"),
        ("constants", "--mode", "dirac", "--optimize", "--c-min", "60",
         "--c-max", "75", "--json"),
        ("generate", "random_grid", "15", "--extent", "30", "--seed", "11"),
        ("search", "--n", "8", "--extent", "7", "--iters", "100", "--seed", "5", "--json"),
    ]
    diffs = 0
    for args in invocations:
        first, second = run_cli(*args), run_cli(*args)
        if first.stdout != second.stdout or first.returncode != second.returncode:
            diffs += 1
    verdict(9, diffs == 0, f"{len(invocations)} commands re-run byte-identically")
