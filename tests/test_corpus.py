"""Frozen extremal point sets and the family they come from.

tests/data holds one point file per set, each naming its source in a
comment: the Kelly-Moser 7-point set, eight points of the 5x5 grid with
largest point degree n/2, and the triangle sets for k = 3 and 4, whose
largest point degrees (4 and 6) are below ceil(n/2). The tests pin each
file's statistics through `analyze --json`, its audit slacks through
`verify --json`, and the triangle family's degrees as the test builds it
for k = 2..7.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pointline import (
    PointSet,
    check_hirzebruch,
    check_kelly_moser,
    check_melchior,
    compute_arrangement,
    parse_points,
)

DATA = Path(__file__).resolve().parent / "data"

# file: its analyze payload without s, then s, then every default
# check's slack as verify prints it, in CHECKS order
CHECKS = ("melchior", "hirzebruch", "kelly-moser", "stt", "main", "beck")
FROZEN = {
    "kelly_moser_7.txt": (
        dict(n=7, lines=9, incidences=24, edges=15, l_max=3, dirac_degree=4, dirac_witness=3),
        {2: 3, 3: 6},
        ("0", "1/2", "0", "1461219/16384", "141/37", "3")),
    "grid5_8.txt": (
        dict(n=8, lines=12, incidences=31, edges=19, l_max=4, dirac_degree=4, dirac_witness=0),
        {2: 7, 3: 3, 4: 2},
        ("2", "5/4", "2", "10033/288", "140/37", "3")),
    "triangle_9.txt": (
        dict(n=9, lines=13, incidences=36, edges=23, l_max=4, dirac_degree=4, dirac_witness=0),
        {2: 6, 3: 4, 4: 3},
        ("0", "0", "0", "89337/2048", "139/37", "3")),
    "triangle_13.txt": (
        dict(n=13, lines=28, incidences=75, edges=47, l_max=5, dirac_degree=6, dirac_witness=0),
        {2: 18, 3: 4, 4: 3, 5: 3},
        ("6", "5", "6", "4985547/131072", "209/37", "7")),
}


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "pointline", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)["payload"]


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_sets_are_pinned(name):
    scalars, s, slacks = FROZEN[name]
    path = str(DATA / name)
    stats = run_cli("analyze", path, "--json")
    assert dict(map(tuple, stats.pop("s"))) == s
    assert stats == scalars
    report = run_cli("verify", path, "--json")
    assert report["binding_failures"] == []
    checks = report["checks"]
    assert tuple(c["name"] for c in checks) == CHECKS
    assert tuple(c["slack"] for c in checks) == slacks
    assert all(c["holds"] and c["preconditions_met"] for c in checks)


def triangle_set(k):
    """T_k = {(x, y) : x, y >= 0, x + y < k} plus the points at infinity of
    directions (1,0), (0,1) and (1,-1), under (X, Y, Z) -> (X, Y)/(X + 7Y + 100Z)."""
    host = [(x, y, 1) for x in range(k) for y in range(k - x)]
    host += [(1, 0, 0), (0, 1, 0), (1, -1, 0)]
    return PointSet.from_coords((Fraction(x, x + 7 * y + 100 * z), Fraction(y, x + 7 * y + 100 * z))
                                for x, y, z in host)


def test_triangle_family():
    degrees = {}
    for k in range(2, 8):
        ps = triangle_set(k)
        stats = compute_arrangement(ps)
        assert stats.n == k * (k + 1) // 2 + 3
        degrees[k] = stats.dirac_degree
        if k <= 3:
            assert [check(stats).slack for check in
                    (check_melchior, check_hirzebruch, check_kelly_moser)] == [0, 0, 0]
    assert degrees == {2: 3, 3: 4, 4: 6, 5: 9, 6: 12, 7: 17}
    for k, name in ((3, "triangle_9.txt"), (4, "triangle_13.txt")):
        frozen = parse_points((DATA / name).read_text())
        assert set(frozen) == set(triangle_set(k))
