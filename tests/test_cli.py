import json
import subprocess
import sys
from fractions import Fraction

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


def test_constants_optimize():
    proc = run_cli("constants", "--mode", "dirac", "--optimize",
                   "--c-min", "60", "--c-max", "80", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)["payload"]
    assert payload["best_c"] == 71
    assert len(payload["sweep"]) == 21
    assert all(row["delta_lo"] is not None for row in payload["sweep"])


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
    proc = run_cli("generate", "random_grid", "10", "--extent", "2", "--seed", "1")
    assert proc.returncode == 5


def test_generate_bad_arity_exit_2():
    proc = run_cli("generate", "grid", "5")
    assert proc.returncode == 2


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


def test_verify_bad_alpha_or_beta_exit_5(tmp_path):
    path = write_grid(tmp_path)
    for flag in ("--alpha=-1/2", "--beta=0"):
        proc = run_cli("verify", path, flag)
        assert proc.returncode == 5, flag
        assert proc.stderr.strip()


def test_nonpositive_tail_width_exit_5(tmp_path):
    path = write_grid(tmp_path, side=5)
    for args in (("verify", path, "--check", "proof-trace", "--eps", "1/4"),
                 ("constants", "--c", "71", "--mode", "dirac"),
                 ("constants", "--mode", "beck", "--optimize", "--c-min", "60",
                  "--c-max", "61")):
        proc = run_cli(*args, "--tail-width", "0")
        assert proc.returncode == 5, args
        assert "width bound must be positive" in proc.stderr


def test_verify_runs_the_kernel_once(tmp_path, monkeypatch, capsys):
    from pointline import cli, geometry

    calls = []
    kernel = geometry.direction_classes

    def counting(pts):
        calls.append(len(pts))
        return kernel(pts)

    monkeypatch.setattr(geometry, "direction_classes", counting)
    assert cli.main(["verify", write_grid(tmp_path, side=4), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert [c["name"] for c in payload["checks"]][4] == "main"
    assert calls == [16]
