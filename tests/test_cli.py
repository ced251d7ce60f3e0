import hashlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

CMD = [sys.executable, "-m", "pointline"]


def run_cli(*args, **kwargs):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, **kwargs)


def write_grid(tmp_path, name="grid.txt", side=3):
    path = tmp_path / name
    lines = [f"{x} {y}" for x in range(side) for y in range(side)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_analyze_json(tmp_path):
    path = write_grid(tmp_path, side=5)
    proc = run_cli("analyze", path, "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["schema_version"] == "1"
    assert doc["command"] == "analyze"
    assert len(doc["input_digest"]) == 64
    payload = doc["payload"]
    assert payload["n"] == 25
    assert payload["lines"] == 140
    assert payload["incidences"] == 340
    assert payload["edges"] == 200
    assert payload["l_max"] == 5
    assert payload["dirac_degree"] == 15
    assert dict(map(tuple, payload["s"])) == {2: 108, 3: 16, 4: 4, 5: 12}
    assert proc.stdout.endswith("\n")


def test_analyze_human(tmp_path):
    proc = run_cli("analyze", write_grid(tmp_path))
    assert proc.returncode == 0
    assert "lines" in proc.stdout and "20" in proc.stdout


def test_analyze_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    proc = run_cli("analyze", str(path), "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["n"] == 0


def test_analyze_parse_error_exit_2(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n3 x\n")
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 2
    assert "line 2" in proc.stderr


def test_analyze_reads_lines_ending_only_at_newline(tmp_path):
    crlf, lf = tmp_path / "crlf.txt", tmp_path / "lf.txt"
    crlf.write_bytes(b"0 0\r\n1 0\r\n0 1\r\n")
    lf.write_bytes(b"0 0\n1 0\n0 1\n")
    crlf_doc = json.loads(run_cli("analyze", str(crlf), "--json").stdout)
    lf_doc = json.loads(run_cli("analyze", str(lf), "--json").stdout)
    assert crlf_doc["payload"] == lf_doc["payload"]
    for data in (b"0 0\n1 0\f0 1\n", b"0 0\r1 0\r0 1\r"):
        path = tmp_path / "sep.txt"
        path.write_bytes(data)
        proc = run_cli("analyze", str(path))
        assert proc.returncode == 2, data
        assert "fields" in proc.stderr and proc.stdout == ""


def test_analyze_missing_file_exit_2(tmp_path):
    proc = run_cli("analyze", str(tmp_path / "absent.txt"))
    assert proc.returncode == 2


def test_analyze_duplicates_exit_3(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("1 2\n1 2\n")
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 3


def test_verify_default_checks(tmp_path):
    proc = run_cli("verify", write_grid(tmp_path), "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    payload = doc["payload"]
    assert payload["binding_failures"] == []
    names = [c["name"] for c in payload["checks"]]
    assert names == ["melchior", "hirzebruch", "kelly-moser", "stt", "main", "beck"]
    assert all(c["holds"] for c in payload["checks"])
    melchior = payload["checks"][0]
    assert (melchior["lhs"], melchior["rhs"]) == ("12", "3")  # rationals as strings


def test_verify_subset_and_proof_trace(tmp_path):
    path = write_grid(tmp_path, side=5)
    proc = run_cli("verify", path, "--check", "proof-trace", "--c", "8",
                   "--eps", "1/4", "--json")
    assert proc.returncode == 0
    trace = json.loads(proc.stdout)["payload"]["checks"][0]
    assert trace["name"] == "proof-trace"
    assert trace["k"] == 3
    assert trace["small_pairs"] == 300
    assert [r["name"] for r in trace["step_reports"]] == [
        "small-pairs", "medium-lines", "medium-pairs", "large-pairs"]
    assert all(r["holds"] for r in trace["step_reports"])


def test_verify_collinear_non_binding(tmp_path):
    path = tmp_path / "col.txt"
    path.write_text("".join(f"{i} 0\n" for i in range(5)))
    proc = run_cli("verify", str(path), "--check", "melchior,kelly-moser,main", "--json")
    assert proc.returncode == 0  # raw failures are non-binding here
    payload = json.loads(proc.stdout)["payload"]
    assert payload["binding_failures"] == []
    melchior = payload["checks"][0]
    assert not melchior["preconditions_met"]


def test_verify_binding_failure_exit_1(tmp_path):
    # an absurd alpha/beta makes the two-sided stt bound fail for real
    path = write_grid(tmp_path, side=5)
    proc = run_cli("verify", path, "--check", "stt",
                   "--alpha", "1/1000000", "--beta", "1/1000000", "--json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)["payload"]
    assert payload["binding_failures"] != []


def test_verify_of_fewer_than_three_points_exits_0(tmp_path):
    # Beck's l is the largest collinear subset: a lone point is one, so its
    # n(n-l)/98 and n(n-l)/196 bounds are 0 and hold
    for name, text in (("zero.txt", ""), ("one.txt", "1/2 -3/7\n"), ("two.txt", "0 0\n1 1\n")):
        path = tmp_path / name
        path.write_text(text)
        proc = run_cli("verify", str(path), "--json")
        assert proc.returncode == 0, name
        payload = json.loads(proc.stdout)["payload"]
        assert payload["binding_failures"] == [], name
        beck = payload["checks"][-1]
        assert (beck["name"], beck["holds"]) == ("beck", True), name
        proc = run_cli("verify", str(path))
        assert proc.returncode == 0, name
        assert "beck: holds" in proc.stdout and "binding failures: 0" in proc.stdout, name


def test_verify_human_prints_a_skipped_check_with_its_reason(tmp_path):
    col = tmp_path / "col.txt"
    col.write_text("".join(f"{i} 0\n" for i in range(5)))
    two = tmp_path / "two.txt"
    two.write_text("0 0\n1 1\n")
    proc = run_cli("verify", str(col), "--check", "proof-trace")
    assert (proc.returncode, proc.stdout) == (
        0, "proof-trace: skipped: l_max = 5 exceeds eps*n = 499/200\nbinding failures: 0\n")
    proc = run_cli("verify", str(two), "--check", "main")
    assert (proc.returncode, proc.stdout) == (
        0, "main: skipped: need at least 3 points, got 2\nbinding failures: 0\n")


def test_verify_unknown_check_exit_4(tmp_path):
    proc = run_cli("verify", write_grid(tmp_path), "--check", "melchoir")
    assert proc.returncode == 4
    assert "unknown check" in proc.stderr


def test_verify_human_output(tmp_path):
    proc = run_cli("verify", write_grid(tmp_path), "--check", "melchior")
    assert proc.returncode == 0
    assert "melchior: holds" in proc.stdout
    assert "binding failures: 0" in proc.stdout


def test_constants_fixed_eps():
    proc = run_cli("constants", "--c", "71", "--mode", "fixed-eps",
                   "--eps", "1/37", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)["payload"]
    assert payload["mode"] == "fixed-eps"
    assert payload["h"] == "4899/337"
    assert Fraction(payload["delta"]["lo"]) >= Fraction(1, 37)
    # decimal previews carry >= 10 significant digits
    digits = payload["delta"]["lo_decimal"].replace(".", "").lstrip("-0")
    assert len(digits) >= 10


def test_constants_dirac():
    proc = run_cli("constants", "--c", "71", "--mode", "dirac", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)["payload"]
    delta_lo = Fraction(payload["delta"]["lo"])
    assert Fraction(payload["eps"]) == delta_lo
    assert delta_lo >= Fraction(1000, 36158)


def test_constants_beck():
    proc = run_cli("constants", "--c", "67", "--mode", "beck", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)["payload"]
    assert Fraction(payload["delta"]["lo"]) >= Fraction(100, 3257)
    assert Fraction(payload["beck_constant"]["lo"]) >= Fraction(1, 98)
    assert payload["eps_at_least_threshold"] is True


def test_constants_no_solution_exit_5():
    proc = run_cli("constants", "--c", "8", "--mode", "dirac")
    assert proc.returncode == 5
    assert proc.stderr.strip()


def test_constants_bad_cutoff_exit_5():
    proc = run_cli("constants", "--c", "7", "--mode", "fixed-eps", "--eps", "1/37")
    assert proc.returncode == 5


def test_constants_missing_c_exit_2():
    proc = run_cli("constants", "--mode", "dirac")
    assert proc.returncode == 2


def test_constants_refuses_flags_its_mode_does_not_read():
    cases = (
        (("--c", "71", "--mode", "dirac", "--eps", "1/37"), "--eps needs --mode fixed-eps"),
        (("--c", "67", "--mode", "beck", "--eps", "1/37"), "--eps needs --mode fixed-eps"),
        (("--mode", "beck", "--optimize", "--eps", "1/37"), "--eps needs --mode fixed-eps"),
        (("--mode", "dirac", "--optimize", "--c", "71"), "--c is not read under --optimize"),
        (("--mode", "dirac", "--optimize", "--c", "71", "--c-min", "60", "--c-max", "80"),
         "--c is not read under --optimize"),
        (("--c", "71", "--mode", "dirac", "--c-min", "60"), "--c-min and --c-max need --optimize"),
        (("--c", "71", "--mode", "fixed-eps", "--eps", "1/37", "--c-max", "80"),
         "--c-min and --c-max need --optimize"),
        # a refusal that existed before keeps its place
        (("--mode", "fixed-eps", "--optimize", "--c", "71"),
         "--optimize needs --mode dirac or beck"),
        (("--mode", "dirac", "--eps", "1/37"), "--c is required unless --optimize is given"),
    )
    for flags, message in cases:
        for form in ((), ("--json",)):
            proc = run_cli("constants", *flags, *form)
            assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message + "\n"), flags
    # without --c-min and --c-max, --optimize sweeps 8..200
    default = run_cli("constants", "--mode", "beck", "--optimize", "--json")
    explicit = run_cli("constants", "--mode", "beck", "--optimize",
                       "--c-min", "8", "--c-max", "200", "--json")
    assert default.returncode == 0
    # every byte but the digest is the same: an omitted --c-min or --c-max
    # is hashed as null, not as the 8 or 200 it stands for
    digests = [json.loads(proc.stdout)["input_digest"] for proc in (default, explicit)]
    assert digests[0] != digests[1]
    assert default.stdout.replace(*digests) == explicit.stdout
    payload = json.loads(default.stdout)["payload"]
    assert (payload["c_min"], payload["c_max"]) == (8, 200)


def test_constants_optimize():
    proc = run_cli("constants", "--mode", "dirac", "--optimize",
                   "--c-min", "60", "--c-max", "80", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)["payload"]
    assert payload["best_c"] == 71
    assert len(payload["sweep"]) == 21
    assert all(row["delta_lo"] is not None for row in payload["sweep"])


def test_constants_optimize_empty_sweep_exit_5():
    proc = run_cli("constants", "--mode", "dirac", "--optimize",
                   "--c-min", "8", "--c-max", "27")
    assert proc.returncode == 5
    assert proc.stdout == ""
    assert proc.stderr == "no cutoff in 8..27 admits a positive fixed point\n"
    proc = run_cli("constants", "--mode", "dirac", "--optimize",
                   "--c-min", "7", "--c-max", "27")
    assert proc.returncode == 5
    assert proc.stderr.strip()


def test_constants_tiny_tail_width_finishes():
    width = Fraction(1, 10**20)
    proc = run_cli("constants", "--c", "71", "--mode", "dirac",
                   "--tail-width", str(width), "--json", timeout=60)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)["payload"]
    assert payload["tail_width"] == str(width)
    delta_lo = Fraction(payload["delta"]["lo"])
    delta_hi = Fraction(payload["delta"]["hi"])
    h = Fraction(71 * 69, 5 * 71 - 18)
    beta = Fraction(31827, 1024)
    assert delta_hi - delta_lo <= beta / (2 * (h + 1)) * width
    assert delta_lo >= Fraction(1000, 36158)


def test_constants_optimize_beck():
    proc = run_cli("constants", "--mode", "beck", "--optimize",
                   "--c-min", "60", "--c-max", "80", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)["payload"]
    assert payload["best_c"] == 67
    assert Fraction(payload["best_beck_constant"]["lo"]) >= Fraction(1, 98)


def test_generate_grid_stdout():
    proc = run_cli("generate", "grid", "5", "5")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len(lines) == 25
    assert lines[0] == "0 0"
    assert lines[-1] == "4 4"


def test_generate_to_file_and_round_trip(tmp_path):
    out = tmp_path / "parabola6.txt"
    proc = run_cli("generate", "parabola", "6", "--out", str(out))
    assert proc.returncode == 0
    assert "n=6" in proc.stdout
    proc = run_cli("analyze", str(out), "--json")
    payload = json.loads(proc.stdout)["payload"]
    assert payload["n"] == 6
    assert dict(map(tuple, payload["s"])) == {2: 15}


def test_generate_random_grid_deterministic(tmp_path):
    a = run_cli("generate", "random_grid", "20", "--extent", "50", "--seed", "7")
    b = run_cli("generate", "random_grid", "20", "--extent", "50", "--seed", "7")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert len(a.stdout.splitlines()) == 20


def test_generate_failure_exit_5():
    for args in (("random_grid", "10", "--extent", "2", "--seed", "1"),
                 # above the 10^6-point cap: refused before anything is built
                 ("grid", "100000", "100000")):
        proc = run_cli("generate", *args, timeout=10)
        assert proc.returncode == 5, args
        assert proc.stdout == ""


def test_over_4300_digit_numbers_exit_2(tmp_path):
    # CPython refuses int-string conversions of more than 4300 digits
    big = "1" + "0" * 4300
    path = tmp_path / "big.txt"
    path.write_text(f"{big} 0\n0 1\n")
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 2
    assert "line 1" in proc.stderr
    proc = run_cli("constants", "--c", "71", "--mode", "fixed-eps", "--eps", f"1/{big}")
    assert proc.returncode == 2
    assert proc.stdout == ""
    # integer flags take the same grammar, without a "/q" part
    for args in (("constants", "--mode", "dirac", "--c", "7_1"),
                 ("constants", "--mode", "dirac", "--c", "16/2"),
                 ("constants", "--mode", "dirac", "--c", "0x10"),
                 ("constants", "--mode", "dirac", "--c", big),
                 ("search", "--n", "\u0661\u0662", "--extent", "11", "--iters", "30",
                  "--seed", "1"),
                 ("generate", "grid", "\u0663", "2")):
        proc = run_cli(*args)
        assert proc.returncode == 2, args
        assert proc.stdout == ""
    signed = run_cli("constants", "--mode", "dirac", "--c", "+71", "--json")
    plain = run_cli("constants", "--mode", "dirac", "--c", "71", "--json")
    assert signed.returncode == 0
    assert signed.stdout == plain.stdout


def test_verify_values_over_4300_digits_exit_5(tmp_path):
    # valid flags whose reports hold a number too long to print as a string
    path = write_grid(tmp_path, side=5)
    for flags in (("--alpha", "9" * 4300),
                  ("--check", "proof-trace", "--eps", "1/4", "--c", "9" * 1500)):
        for form in ((), ("--json",)):
            proc = run_cli("verify", path, *flags, *form, timeout=10)
            assert proc.returncode == 5, flags[:2]
            assert proc.stdout == ""
            assert "Exceeds the limit (4300 digits)" in proc.stderr
            assert "Traceback" not in proc.stderr


def test_generate_bad_arity_exit_2():
    proc = run_cli("generate", "grid", "5")
    assert proc.returncode == 2


# Each rule generate enforces, with the message and exit code it gives
# when that rule is the first one a request breaks.
GENERATE_ERRORS = (
    (("grid", "5"), 2, "grid takes two sizes: WIDTH HEIGHT"),
    (("grid", "0", "5"), 2, "grid needs width >= 1 and height >= 1"),
    (("near_pencil", "2"), 2, "near_pencil needs n >= 3"),
    (("collinear", "0"), 2, "collinear needs n >= 1"),
    (("parabola", "1", "2"), 2, "parabola takes one size: N"),
    (("random_grid", "20"), 2, "random_grid requires --extent and --seed"),
    (("random_grid", "20", "--extent", "50"), 2, "random_grid requires --extent and --seed"),
    (("random_grid", "20", "--seed", "7"), 2, "random_grid requires --extent and --seed"),
    (("random_grid", "0", "--extent", "2", "--seed", "1"), 2,
     "random_grid needs n >= 1 and extent >= 0"),
    (("random_grid", "3", "--extent", "-1", "--seed", "1"), 2,
     "random_grid needs n >= 1 and extent >= 0"),
    (("random_grid", "10", "--extent", "2", "--seed", "1"), 5,
     "cannot place 10 distinct points on a 3x3 grid"),
    (("near_pencil", "2000000"), 5, "2000000 points requested; the cap is 1000000"),
    # only random_grid reads --extent and --seed; every other kind refuses them
    (("grid", "2", "2", "--extent", "5", "--seed", "3"), 2, "grid takes no --extent or --seed"),
    (("grid", "0", "5", "--seed", "1"), 2, "grid takes no --extent or --seed"),
)


@pytest.mark.parametrize("args,code,message", GENERATE_ERRORS)
def test_generate_error_contract(args, code, message):
    proc = run_cli("generate", *args, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", message + "\n")


def test_extent_of_2_64_or_more_exits_2():
    # A coordinate is drawn from 0..extent by one 64-bit draw, so extent
    # must stay below 2^64; at 2^64 the request used to loop forever.
    big = str(2**64)
    for args in (("generate", "random_grid", "3", "--extent", big, "--seed", "1"),
                 ("search", "--n", "5", "--extent", big, "--iters", "10", "--seed", "1")):
        proc = run_cli(*args, timeout=10)
        assert proc.returncode == 2, args
        assert proc.stdout == ""
        assert proc.stderr == f"need extent < 2^64, got {big}\n"


def test_generate_unwritable_out_exit_2(tmp_path):
    for out in (tmp_path / "missing" / "x.txt", tmp_path):
        proc = run_cli("generate", "grid", "3", "3", "--out", str(out))
        assert proc.returncode == 2, out
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"cannot write {out}: ")
        assert "Traceback" not in proc.stderr


def test_search_cli():
    proc = run_cli("search", "--n", "3", "--extent", "2", "--iters", "10",
                   "--seed", "1", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)["payload"]
    assert payload["degree"] == 2
    assert payload["rng"] == "splitmix64"
    assert len(payload["points"]) == 3


def test_search_domain_error_exit_5():
    proc = run_cli("search", "--n", "10", "--extent", "2", "--iters", "10", "--seed", "1")
    assert proc.returncode == 5
    # 10 restarts over C(2000, 2) pairs: refused before any work is done
    proc = run_cli("search", "--n", "2000", "--extent", "3000", "--iters", "10",
                   "--seed", "1", timeout=10)
    assert proc.returncode == 5
    assert proc.stdout == ""
    assert "the cap is 1000000" in proc.stderr


def test_search_validation_exit_2():
    proc = run_cli("search", "--n", "2", "--extent", "5", "--iters", "10", "--seed", "1")
    assert proc.returncode == 2


def test_json_reruns_are_byte_identical(tmp_path):
    path = write_grid(tmp_path, side=4)
    invocations = [
        ("analyze", path, "--json"),
        ("verify", path, "--json"),
        ("constants", "--c", "71", "--mode", "dirac", "--json"),
        ("search", "--n", "6", "--extent", "5", "--iters", "50", "--seed", "3", "--json"),
    ]
    for args in invocations:
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.endswith("\n")
        json.loads(first.stdout)  # well-formed


def test_verify_bad_cutoff_and_eps_exit_5(tmp_path):
    path = write_grid(tmp_path)
    for flags in (("--c", "7"), ("--eps", "3/5")):
        proc = run_cli("verify", path, "--check", "proof-trace", *flags)
        assert proc.returncode == 5, flags
        assert proc.stderr.strip()


def test_default_verify_validates_the_pipeline_flags(tmp_path):
    # the default checks never read --c, --eps or --tail-width, but an
    # out-of-range value is refused as it is with --check proof-trace
    path = write_grid(tmp_path, side=5)
    cases = (
        (("--tail-width", "0"), "width bound must be positive, got 0"),
        (("--tail-width", "1/1" + "0" * 101), "width bound must be at least 1/10^100"),
        (("--c", "7"), "cutoff must be >= 8, got 7"),
        (("--eps", "3/5"), "eps must lie in (0, 1/2), got 3/5"),
        (("--eps", "0"), "eps must lie in (0, 1/2), got 0"),
        # eps is checked before the cutoff, as proof-trace's delta_of does
        (("--c", "7", "--eps", "3/5"), "eps must lie in (0, 1/2), got 3/5"),
        # the width is a PipelineParams field, so it is refused before eps
        (("--eps", "1/2", "--tail-width", "0"), "width bound must be positive, got 0"),
    )
    for flags, message in cases:
        for check in ("melchior,hirzebruch,kelly-moser,stt,main,beck", "melchior"):
            proc = run_cli("verify", path, "--check", check, *flags, "--json")
            assert proc.returncode == 5, flags
            assert proc.stdout == ""
            assert proc.stderr == message + "\n"


def test_verify_params_record_the_tail_width(tmp_path):
    # the width changes step 3's rhs, so the document names the width used
    path = write_grid(tmp_path, side=5)
    docs = {}
    for width in ("1/1000000000", "1/100"):
        proc = run_cli("verify", path, "--check", "proof-trace", "--eps", "1/4",
                       "--tail-width", width, "--json")
        assert proc.returncode == 0
        docs[width] = json.loads(proc.stdout)["payload"]
        assert docs[width]["params"]["tail_width"] == width
    wide, narrow = docs["1/100"], docs["1/1000000000"]
    assert wide["params"] != narrow["params"]
    steps = [{r["name"]: r for r in doc["checks"][0]["step_reports"]} for doc in (wide, narrow)]
    assert steps[0]["medium-pairs"]["rhs"] != steps[1]["medium-pairs"]["rhs"]


def test_verify_bad_alpha_or_beta_exit_5(tmp_path):
    path = write_grid(tmp_path)
    for flag in ("--alpha=-1/2", "--beta=0"):
        proc = run_cli("verify", path, flag)
        assert proc.returncode == 5, flag
        assert proc.stderr.strip()


def test_nonpositive_tail_width_exit_5(tmp_path):
    path = write_grid(tmp_path, side=5)
    for args in (("verify", path, "--check", "proof-trace", "--eps", "1/4"),
                 # l_max = 5 > eps*n: the trace is skipped, the width still checked
                 ("verify", path, "--check", "proof-trace", "--eps", "1/12"),
                 ("constants", "--c", "71", "--mode", "dirac"),
                 ("constants", "--mode", "beck", "--optimize", "--c-min", "60",
                  "--c-max", "61")):
        proc = run_cli(*args, "--tail-width", "0")
        assert proc.returncode == 5, args
        assert "width bound must be positive" in proc.stderr


def test_tail_width_below_floor_exit_5(tmp_path):
    # far narrower widths take seconds and outgrow the 4300-digit print limit
    parabola = tmp_path / "parabola.txt"
    parabola.write_text("".join(f"{x} {x * x}\n" for x in range(12)))
    width = "1/1" + "0" * 101
    for args in (("verify", str(parabola), "--check", "proof-trace", "--eps", "1/4"),
                 ("constants", "--c", "71", "--mode", "dirac"),
                 ("constants", "--mode", "beck", "--optimize", "--c-min", "60",
                  "--c-max", "61")):
        proc = run_cli(*args, "--tail-width", width, "--json", timeout=10)
        assert proc.returncode == 5, args
        assert proc.stdout == ""
        assert "at least 1/10^100" in proc.stderr


def test_verify_runs_the_kernel_once(tmp_path, monkeypatch, capsys):
    from pointline import cli, geometry

    calls = []
    kernel = geometry.compute_arrangement

    def counting(ps):
        calls.append(ps.n)
        return kernel(ps)

    monkeypatch.setattr(geometry, "compute_arrangement", counting)
    assert cli.main(["verify", write_grid(tmp_path, side=4), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert [c["name"] for c in payload["checks"]][4] == "main"
    assert calls == [16]


# Each command's handler, with the exit code its result carries.
HANDLED = (
    (["analyze", "GRID"], 0),
    (["analyze", "GRID", "--json"], 0),
    (["verify", "GRID"], 0),
    (["verify", "GRID", "--check", "stt", "--alpha", "1/1000000", "--beta", "1/1000000",
      "--json"], 1),
    (["constants", "--c", "67", "--mode", "beck"], 0),
    (["constants", "--mode", "dirac", "--optimize", "--c-min", "60", "--c-max", "62", "--json"],
     0),
    (["generate", "grid", "3", "3"], 0),
    (["generate", "grid", "3", "3", "--out", "OUT"], 0),
    (["search", "--n", "6", "--extent", "5", "--iters", "20", "--seed", "1", "--json"], 0),
    (["search", "--n", "6", "--extent", "5", "--iters", "20", "--seed", "1"], 0),
)

# Each refusal a handler raises, with the exit code main maps it to.
REFUSED = (
    (["analyze", "MISSING"], "_CliFailure", 2),
    (["verify", "GRID", "--check", "nope"], "_CliFailure", 4),
    (["verify", "GRID", "--c", "7"], "BadCutoff", 5),
    (["verify", "GRID", "--beta", "0"], "ValueError", 5),
    (["constants", "--mode", "dirac"], "_CliFailure", 2),
    (["constants", "--c", "27", "--mode", "dirac"], "NoSolution", 5),
    (["constants", "--c", "71", "--mode", "fixed-eps", "--eps", "1/2"], "BadEps", 5),
    (["generate", "grid", "5"], "ValueError", 2),
    (["generate", "grid", "3", "3", "--out", "TMP"], "_CliFailure", 2),
    (["generate", "random_grid", "10", "--extent", "2", "--seed", "1"], "GenerationFailed", 5),
    (["search", "--n", "2", "--extent", "5", "--iters", "10", "--seed", "1"], "ValueError", 2),
    (["search", "--n", "10", "--extent", "2", "--iters", "10", "--seed", "1"],
     "GenerationFailed", 5),
)


def test_handlers_return_their_result_and_only_main_writes(tmp_path, capsys):
    # a handler computes (payload, text, source, code) and writes nothing;
    # main writes the document or the text, and maps each refusal to its code
    from pointline import cli, errors

    names = {"GRID": write_grid(tmp_path, side=4), "OUT": str(tmp_path / "out.txt"),
             "MISSING": str(tmp_path / "missing.txt"), "TMP": str(tmp_path)}
    for argv, expected in HANDLED:
        argv = [names.get(arg, arg) for arg in argv]
        args = cli._build_parser().parse_args(argv)
        payload, text, source, code = args.func(args)
        assert capsys.readouterr() == ("", ""), argv
        assert code == expected, argv
        assert (payload is None) == (argv[0] == "generate")
        assert (source is None) == (argv[0] not in ("analyze", "verify"))
        assert cli.main(argv) == code
        document = "--json" in argv
        assert capsys.readouterr() == (cli._document(args, payload, source) if document else text,
                                       "")
    assert (tmp_path / "out.txt").read_text() == "0 0\n0 1\n0 2\n1 0\n1 1\n1 2\n2 0\n2 1\n2 2\n"
    types = vars(errors) | {"_CliFailure": cli._CliFailure, "ValueError": ValueError}
    for argv, refusal, expected in REFUSED:
        argv = [names.get(arg, arg) for arg in argv]
        args = cli._build_parser().parse_args(argv)
        with pytest.raises(types[refusal]):
            args.func(args)
        assert capsys.readouterr() == ("", ""), argv
        assert cli.main(argv) == expected, argv
        out, err = capsys.readouterr()
        assert (out, err.count("\n")) == ("", 1), argv


def test_verify_calls_each_check_through_the_audits_module(tmp_path, monkeypatch):
    # a function put in place of a check in pointline.audits is the one that
    # runs, as the benchmark's tracer relies on
    from pointline import audits, cli

    names = ("check_melchior", "check_hirzebruch", "check_kelly_moser", "check_stt",
             "check_main", "check_beck", "audit_proof_steps")
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(audits, name, counting(name, getattr(audits, name)))
    path = write_grid(tmp_path, side=5)
    assert cli.main(["verify", path, "--json"]) == 0
    assert calls == dict.fromkeys(names, 1) | {"check_stt": 4, "audit_proof_steps": 0}
    calls.update(dict.fromkeys(names, 0))
    assert cli.main(["verify", path, "--check", "proof-trace", "--json"]) == 0
    assert calls == dict.fromkeys(names, 0) | {"audit_proof_steps": 1}


def test_optimize_sweep_over_the_cap_exits_5_before_any_work():
    from pointline.constants import MAX_SWEEP_ROWS

    proc = run_cli("constants", "--mode", "dirac", "--optimize", "--c-min", "8",
                   "--c-max", "100000000", "--json", timeout=10)
    assert proc.returncode == 5
    assert proc.stdout == ""
    assert proc.stderr == (
        f"99999993 cutoffs requested in 8..100000000; the cap is {MAX_SWEEP_ROWS}\n")


# sha256 of stdout for commands that exercise every stage of the constants
# pipeline: long sweeps in both modes, fixed eps at a small and a huge
# cutoff, narrow tail widths, and a proof trace. Evaluation may change how
# each value is computed, never a byte of what is printed.
CONSTANTS_SHA256 = {
    ("constants", "--mode", "dirac", "--optimize", "--c-min", "8", "--c-max", "600", "--json"):
        "fe4f5ff8b07c79aff02312263e9a5033c7d7504b79dc49699f552341ead178b2",
    ("constants", "--mode", "beck", "--optimize", "--c-min", "8", "--c-max", "600", "--json"):
        "1d3eb8e438fcd243a5f32268ab31d6017f49ea5d4810e54e80405d1ec393281a",
    ("constants", "--c", "71", "--mode", "fixed-eps", "--eps", "1/37", "--json"):
        "b94ccead49064ea91b9d7d1488b3756c265362c69486a1f18e2e33ae2d40a55d",
    ("constants", "--c", "401507", "--mode", "fixed-eps", "--eps", "1/45", "--json"):
        "7bde074476d96f8d7d5a716dc6f0c3e661e2eedee6d1fbacbbab129a60467f7e",
    ("constants", "--c", "78", "--mode", "beck", "--tail-width", "1/100000000000", "--json"):
        "2dac049aa13558d15324294b7581b8a0c30d0b41f03b3e6e493a2312641e3d11",
    ("constants", "--c", "71", "--mode", "dirac", "--tail-width", "1/1" + "0" * 100, "--json"):
        "17d788349aa92a3b75d95b3efff3baa887009856c21f2940568b1e2569f08f11",
    ("verify", "CORPUS", "--check", "proof-trace", "--json"):
        "82045cc141ff9bafc7ac563cb7bb72108ab5cd24bb0d30a86c11b1a699999f46",
}


def test_constants_output_is_pinned(tmp_path):
    from pointline import format_points, generate

    corpus = tmp_path / "random-n40-seed27.txt"
    corpus.write_text(format_points(generate("random_grid", 40, extent=25, seed=27)))
    for command, digest in CONSTANTS_SHA256.items():
        argv = [str(corpus) if arg == "CORPUS" else arg for arg in command]
        proc = subprocess.run(CMD + argv, capture_output=True)
        assert proc.returncode == 0, command
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, command
    for command, message in (
        (("--c", "27", "--mode", "dirac"),
         "no positive fixed point at c=27: 1 - (beta/2)*(mid + tail) <= 0"),
        (("--c", "7", "--mode", "beck"), "cutoff must be >= 8, got 7"),
        (("--c", "7", "--mode", "fixed-eps", "--eps", "1/2"), "eps must lie in (0, 1/2), got 1/2"),
    ):
        proc = run_cli("constants", *command, "--json")
        assert (proc.returncode, proc.stdout, proc.stderr) == (5, "", message + "\n"), command


# The object a constants document's input_digest hashes, with every flag
# but --mode at its default: the command and each flag as argparse holds
# it, Fractions as "p/q" and an omitted flag as null. --json is not hashed.
CONSTANTS_FLAGS = {
    "command": "constants", "c": None, "mode": None, "eps": None, "alpha": "103/16",
    "beta": "31827/1024", "tail_width": "1/1000000000", "optimize": False,
    "c_min": None, "c_max": None,
}


@pytest.mark.parametrize("argv, flags", [
    (("--c", "71", "--mode", "dirac"), {"c": 71, "mode": "dirac"}),
    (("--c", "78", "--mode", "beck", "--tail-width", "1/100000000000"),
     {"c": 78, "mode": "beck", "tail_width": "1/100000000000"}),
    (("--c", "71", "--mode", "fixed-eps", "--eps", "2/74"),
     {"c": 71, "mode": "fixed-eps", "eps": "1/37"}),
    (("--mode", "beck", "--optimize", "--c-max", "90", "--alpha", "7"),
     {"mode": "beck", "optimize": True, "c_max": 90, "alpha": "7"}),
])
def test_constants_digest_covers_the_parsed_flags(argv, flags):
    proc = run_cli("constants", *argv, "--json")
    assert proc.returncode == 0, proc.stderr
    source = json.dumps(CONSTANTS_FLAGS | flags, sort_keys=True).encode()
    assert json.loads(proc.stdout)["input_digest"] == hashlib.sha256(source).hexdigest()


def test_constants_digest_ignores_flag_order_and_spelling():
    for argv, respelled in (
        (("--c", "71", "--mode", "dirac"), ("--mode=dirac", "--c=071")),
        (("--c", "71", "--mode", "fixed-eps", "--eps", "1/37"),
         ("--eps=2/74", "--mode", "fixed-eps", "--c", "+71")),
    ):
        proc = run_cli("constants", *argv, "--json")
        assert proc.returncode == 0, proc.stderr
        assert run_cli("constants", *respelled, "--json").stdout == proc.stdout, respelled


def test_constants_digest_does_not_hash_results(monkeypatch, capsys):
    from pointline import cli, constants

    argv = ["constants", "--c", "71", "--mode", "dirac", "--json"]
    assert cli.main(argv) == 0
    before = json.loads(capsys.readouterr().out)
    solve = constants.solve_fixed_point

    def other_result(c, params, mode):
        eps, delta = solve(c, params, mode)
        return eps / 2, delta

    monkeypatch.setattr(constants, "solve_fixed_point", other_result)
    assert cli.main(argv) == 0
    after = json.loads(capsys.readouterr().out)
    assert after["payload"]["eps"] != before["payload"]["eps"]
    assert after["input_digest"] == before["input_digest"]


# Point files that reach each shape of an arrangement or audit document:
# a grid, the Kelly-Moser 7-point set (slack 0 in Melchior and
# Kelly-Moser), a near-pencil, a collinear set (every check skipped or
# non-binding), points of the unit circle (no three collinear) and an
# empty file.
REPORT_INPUTS = {
    "grid5": "".join(f"{x} {y}\n" for x in range(5) for y in range(5)),
    "kelly-moser7": "0 0\n6 0\n0 6\n3 0\n0 3\n3 3\n2 2\n",
    "near-pencil": "0 0\n1 0\n2 0\n3 0\n4 0\n0 1\n",
    "collinear": "".join(f"{i} 0\n" for i in range(5)),
    "unit-circle": "".join(
        f"{Fraction(m * m - k * k, m * m + k * k)} {Fraction(2 * m * k, m * m + k * k)}\n"
        for m in range(1, 6) for k in range(m) if math.gcd(m, k) == 1),
    "empty": "",
}

# (exit code, sha256 of stdout) of analyze --json, default verify --json
# and two proof traces: on the grid, where l_max 5 <= 25/4, and on the
# collinear set, where it is reported as skipped.
REPORT_SHA256 = {
    ("analyze", "grid5"):
        (0, "8b119bfd26f8bd40358cca04d60fcd2eed2f5af658ae73a6d4b24c4d02377728"),
    ("verify", "grid5"):
        (0, "fcb97e96a49d0acb1ae8549d420a6fe01217749d681ad0b60113a2c1aa551dab"),
    ("analyze", "kelly-moser7"):
        (0, "857abae280f4dd03dbf1f5f7abd4b5ea2777b9a66926f15694e6deebcfe2b25e"),
    ("verify", "kelly-moser7"):
        (0, "304f4fbe1cf7a895c3f12fa28c4205390a244f66cba5faa9d2b7b692e6117621"),
    ("analyze", "near-pencil"):
        (0, "8012576e489325419cfbe2f0d52ed00b1fe9f9c7b51e4cd84baf8bfbf52fa813"),
    ("verify", "near-pencil"):
        (0, "49fd4a51bf1d71b28c531e8913653d6e20a68d3ebdfa82e555eff4e36174a88b"),
    ("analyze", "collinear"):
        (0, "e29584c1de0de03777462de1beb6a514e4b60dfda11b140e2b8de566b8924e2c"),
    ("verify", "collinear"):
        (0, "da2311979a942de85e6540f870d882c36a08cf758a2c41cf7e5a8f4eea2bd938"),
    ("analyze", "unit-circle"):
        (0, "f3a252b854ee7ef77535c9d3ef8745156ab1d8acddf6130c91b56220a5cac789"),
    ("verify", "unit-circle"):
        (0, "aca1b138a0571a625bef2809017bef819218c1d51df5091594bea4c26dbf0793"),
    ("analyze", "empty"):
        (0, "db03007c786cf362962838cff202bc778230f7c8985358d9d85cf655dabb4281"),
    ("verify", "empty"):
        (0, "b0618830ad6fc5b7d2617edb218a0ba0fecbff96bba1ebfbf1befb88a49b2fd3"),
    ("verify", "grid5", "--check", "proof-trace", "--c", "8", "--eps", "1/4"):
        (0, "8f9a1e3626b3fdb71a13c8cf97836bb579faa7f07c0bbd7dc0bd9889754722c8"),
    ("verify", "collinear", "--check", "proof-trace"):
        (0, "ee0c7f51dc496af5582a385c8866da0e2765d7ef5ec32fe8cb29240dce6e71b1"),
}


def test_report_documents_are_pinned(tmp_path):
    paths = {}
    for name, text in REPORT_INPUTS.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    for (command, name, *flags), expected in REPORT_SHA256.items():
        proc = subprocess.run(CMD + [command, str(paths[name]), *flags, "--json"],
                              capture_output=True)
        assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == expected, (
            command, name, *flags)


# sha256 of each --help text as argparse prints it at 80 columns, the same
# bytes under Python 3.10 to 3.13. The parsers are filled in lazily, per
# subcommand; the text must not change.
HELP_SHA256 = {
    (): "222eee6b8814f05f9aaebdd06c87fa1c55a34b9d1cd74bc12c41a9c1e110cf80",
    ("analyze",): "8c4c88df3c4d00e011c7f622c034ef6ff03ac6c25c3bd1c861fa4e4a4a6632d4",
    ("verify",): "e2a419fea3f46b610157477652d6eb11e12f6237eac4d29eb32664a03051825e",
    ("constants",): "9b0e5bb92f8e221e7832c42ea56c6b921d1949a07c07bca28c1b8179eb1f09fd",
    ("generate",): "ad65ba3b563462c6987d0a498f599b16bf4b20bc4b05f453e66c58f0a116dfb0",
    ("search",): "63be2ad1b2f04080103a9b8dc2b98db1e16608d60b9ee4256ada59a4b736ecce",
}


def test_help_text_is_pinned():
    env = dict(os.environ, COLUMNS="80")
    for command, digest in HELP_SHA256.items():
        proc = subprocess.run(CMD + [*command, "--help"], capture_output=True, env=env)
        assert proc.returncode == 0, command
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, command


def test_parser_defaults_and_choices_come_from_the_library():
    from pointline import DEFAULT_TAIL_WIDTH, PipelineParams, cli
    from pointline.constants import MODES
    from pointline.generators import KINDS

    parser = cli._build_parser()
    defaults = PipelineParams()
    for argv in (["verify", "f.txt"], ["constants", "--mode", "dirac"]):
        args = parser.parse_args(argv)
        assert (args.alpha, args.beta) == (defaults.alpha, defaults.beta)
        assert args.tail_width == DEFAULT_TAIL_WIDTH
    for kind in KINDS:
        assert cli._build_parser().parse_args(["generate", kind, "3"]).kind == kind
    proc = run_cli("generate", "hexagon", "3")
    assert proc.returncode == 2
    assert f"choose from {', '.join(map(repr, KINDS))}" in proc.stderr
    for mode in (*MODES, "fixed-eps"):
        assert cli._build_parser().parse_args(["constants", "--mode", mode]).mode == mode
    proc = run_cli("constants", "--mode", "newton")
    assert proc.returncode == 2
    assert f"choose from {', '.join(map(repr, (*MODES, 'fixed-eps')))}" in proc.stderr


# Loaded by site at start-up, ahead of any other sitecustomize: lists
# sys.modules into a file when the run ends, at exit or at the os._exit
# that ends a pointline command.
_MODULES_HOOK = """\
import atexit, os, sys

def _write_modules():
    with open({out!r}, "w") as f:
        f.write("\\n".join(sys.modules))

def _exit(code, _os_exit=os._exit):
    _write_modules()
    _os_exit(code)

atexit.register(_write_modules)
os._exit = _exit
"""


def _loaded(*args, tmp_path) -> set:
    """The modules in sys.modules when a python run ends: those imported by
    any means, importlib.import_module included."""
    hook = tmp_path / "modules_hook"
    hook.mkdir(exist_ok=True)
    out = hook / "modules.txt"
    out.unlink(missing_ok=True)
    (hook / "sitecustomize.py").write_text(_MODULES_HOOK.format(out=str(out)))
    path = os.pathsep.join(p for p in (str(hook), os.environ.get("PYTHONPATH", "")) if p)
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return set(out.read_text().split("\n"))


def _imported(*args, tmp_path) -> set:
    """The modules a python run loads beyond those that start-up alone
    loads (`python -c pass` under the same interpreter and environment),
    such as what a site .pth file loads before pointline runs."""
    return _loaded(*args, tmp_path=tmp_path) - _loaded("-c", "pass", tmp_path=tmp_path)


def test_each_command_imports_only_its_modules(tmp_path):
    constants = _imported("-m", "pointline", "constants", "--c", "71", "--mode", "dirac",
                          "--json", tmp_path=tmp_path)
    assert {"pointline.cli", "pointline.constants", "pointline.errors"} <= constants
    assert not constants & {"dataclasses", "inspect", "pointline.geometry", "pointline.audits",
                            "pointline.generators", "pointline.pointfile"}
    analyze = _imported("-m", "pointline", "analyze", write_grid(tmp_path), "--json",
                        tmp_path=tmp_path)
    assert {"pointline.geometry", "pointline.pointfile"} <= analyze
    assert not analyze & {"pointline.audits", "pointline.constants", "pointline.generators"}
    verify = _imported("-m", "pointline", "verify", write_grid(tmp_path), "--json",
                       tmp_path=tmp_path)
    assert {"pointline.audits", "pointline.constants", "pointline.geometry",
            "pointline.pointfile"} <= verify
    assert not verify & {"pointline.generators", "dataclasses", "inspect"}
    # a rational flag is parsed without loading the point-file reader
    fixed_eps = _imported("-m", "pointline", "constants", "--mode", "fixed-eps", "--c", "71",
                          "--eps", "1/45", "--json", tmp_path=tmp_path)
    assert not fixed_eps & {"pointline.pointfile", "pointline.geometry"}
    search = _imported("-m", "pointline", "search", "--n", "12", "--extent", "11",
                       "--iters", "300", "--seed", "1", "--json", tmp_path=tmp_path)
    assert "pointline.generators" in search
    # a search's start-up is part of its latency: no point-file reader,
    # audits or constants
    assert not search & {"pointline.audits", "pointline.constants", "pointline.pointfile"}
    # documents are rendered by cli's own writer, and files read and written
    # with open
    for imported in (constants, analyze, verify, search):
        assert not imported & {"json", "json.decoder", "json.scanner", "json.encoder",
                               "pathlib"}
    # only a JSON document is hashed
    human = _imported("-m", "pointline", "constants", "--c", "71", "--mode", "dirac",
                      tmp_path=tmp_path)
    assert not human & {"hashlib", "_hashlib"}
    bare = _imported("-c", "import pointline", tmp_path=tmp_path)
    assert "pointline" in bare
    assert not {m for m in bare if m.startswith("pointline.")}
    # the public number grammar is _record's, without the point-set modules
    grammar = _imported("-c", "import pointline; pointline.parse_rational", tmp_path=tmp_path)
    assert {"pointline._record", "fractions"} <= grammar
    assert not grammar & {"pointline.geometry", "pointline.pointfile", "pointline.errors"}


def test_proof_trace_evaluates_delta_of_once(tmp_path, monkeypatch):
    # verify validates its flags with delta_of and hands that breakdown to
    # the trace, so the tail is bracketed once per request
    from pointline import cli, constants

    calls = []
    tail_sum = constants.tail_sum

    def counting(*args):
        calls.append(args)
        return tail_sum(*args)

    monkeypatch.setattr(constants, "tail_sum", counting)
    path = write_grid(tmp_path, side=5)
    assert cli.main(["verify", path, "--check", "proof-trace", "--eps", "1/4", "--json"]) == 0
    assert len(calls) == 1
    calls.clear()
    assert cli.main(["verify", path, "--json"]) == 0
    assert len(calls) == 1


# A command ends through cli.run: once stdout and stderr are flushed the
# process ends with os._exit. These tests pin what that must not change.

RUN = [sys.executable, "-c", "from pointline.cli import run; run()"]


def test_run_matches_the_module_entry_point(tmp_path):
    codes = set()
    grid = write_grid(tmp_path, side=5)
    for argv in (["constants", "--c", "71", "--mode", "dirac", "--json"],
                 ["verify", grid, "--check", "proof-trace"],
                 ["verify", grid, "--check", "stt", "--alpha", "1/1000000", "--beta", "1/1000000"],
                 ["constants", "--c", "27", "--mode", "dirac"],
                 ["analyze", str(tmp_path / "missing.txt")],
                 ["verify", grid, "--check", "nope"],
                 ["search", "--n", "0", "--extent", "3", "--iters", "1", "--seed", "1"],
                 ["constants", "--mode", "newton"],
                 ["generate", "--help"]):
        module = subprocess.run(CMD + argv, capture_output=True)
        script = subprocess.run(RUN + argv, capture_output=True)
        assert (script.returncode, script.stdout) == (module.returncode, module.stdout), argv
        assert module.stdout or module.stderr, argv
        codes.add(module.returncode)
    assert codes == {0, 1, 2, 4, 5}


def test_closed_stdout_pipe_is_an_uncaught_error():
    # about 1.5 MB of JSON into a pipe whose reader is gone
    proc = subprocess.Popen(
        CMD + ["constants", "--mode", "beck", "--optimize", "--c-max", "5000", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert stderr.startswith("Traceback")
    assert stderr.endswith("BrokenPipeError: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_flush_exits_as_the_interpreter_does():
    # block-buffered stdout: the write succeeds and the final flush fails,
    # so run falls back to SystemExit and the interpreter reports it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(CMD + ["generate", "grid", "3", "3"], stdout=full,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    assert proc.returncode == 120
    assert b"No space left on device" in proc.stderr


def test_generate_out_leaves_the_complete_file(tmp_path):
    argv = ["generate", "random_grid", "400", "--extent", "60", "--seed", "5"]
    out = tmp_path / "random400.txt"
    proc = run_cli(*argv, "--out", str(out))
    assert (proc.returncode, proc.stdout) == (0, f"{out} n=400\n")
    assert out.read_text() == run_cli(*argv).stdout


def test_a_profiled_command_still_prints_its_profile():
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "pointline", "constants",
                           "--c", "71", "--mode", "dirac"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("alpha ")
    assert re.search(r"^\s*\d+ function calls.* in [\d.]+ seconds$", proc.stdout, flags=re.M)


def test_json_writer_errors():
    # an int json cannot print, with json's message; shapes no payload holds
    from pointline import cli

    huge = 10**4300
    with pytest.raises(ValueError) as ours:
        cli._json({"c": huge}, "\n")
    with pytest.raises(ValueError) as theirs:
        json.dumps({"c": huge}, sort_keys=True, indent=2)
    assert str(ours.value) == str(theirs.value)
    assert cli._json([huge - 1]) == json.dumps([huge - 1])
    for value in (0.5, (1, 2)):
        with pytest.raises(TypeError):
            cli._json(value)
    # a string no document holds, named in the error, as a value or a key
    for value in ({"note": "caf\u00e9"}, {"caf\u00e9": 1}):
        with pytest.raises(ValueError, match="^not a document string: 'caf\u00e9'$"):
            cli._json(value, "\n")
