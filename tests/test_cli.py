import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cfraj import __version__
from cfraj.cli import RunConfig, main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_import_leaves_scipy_out():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, cfraj.cli; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert not any("scipy" in path.read_text()
                   for path in (src / "cfraj").glob("*.py"))


def test_runconfig_roundtrip_bit_exact():
    cfg = RunConfig(n_bound=7, p=2, sigma_anchor=[5, 1], eps="3/10",
                    schedule_i=[2, 4], schedule_r=[1, 1],
                    rule={"kind": "sum-of-previous"}, seed=11,
                    xi=["0", "2", "1024"])
    text = cfg.to_json()
    again = RunConfig.from_json(text)
    assert again == cfg
    assert again.to_json() == text
    assert len(cfg.config_hash) == 16
    assert int(cfg.config_hash, 16) >= 0
    assert RunConfig(seed=12).config_hash != RunConfig(seed=13).config_hash


def test_nu_build_support_size(capsys):
    code, out, _ = run_cli(capsys, [
        "nu", "build", "--N", "3", "--p", "2",
        "--sigma-log", "5", "--eps", "0.3"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["measure"]["support"]) == 5
    assert doc["version"] == __version__
    assert len(doc["config_hash"]) == 16
    assert doc["config"]["eps"] == "3/10"
    assert doc["feasibility"]["beta_achieved"] == pytest.approx(1.0)
    assert doc["feasibility"]["strict"]["feasible"] is False
    assert doc["feasibility"]["strict_required_i1"] > 10**4


def test_nu_build_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["nu", "build", "--N", "3"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["nu", "build"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 64


def test_nu_build_operational_errors(capsys, monkeypatch):
    # window empty at an unreachable sigma
    code, _, err = run_cli(capsys, [
        "nu", "build", "--N", "2", "--p", "1",
        "--sigma", "50.0", "--eps", "1/4"])
    assert code == 2 and "error" in err
    # digit budget from the environment wins over everything
    monkeypatch.setenv("CFRAJ_DIGIT_BUDGET", "10")
    code, _, err = run_cli(capsys, [
        "nu", "build", "--N", "5", "--p", "3",
        "--sigma-log", "5", "--eps", "1/4"])
    assert code == 2 and "budget" in err.lower()


def test_nu_build_writes_file_atomically(capsys, tmp_path):
    out_path = tmp_path / "measure.json"
    code, out, _ = run_cli(capsys, [
        "nu", "build", "--N", "3", "--p", "2", "--sigma-log", "5",
        "--eps", "0.3", "--out", str(out_path)])
    assert code == 0
    assert "support size 5" in out
    doc = json.loads(out_path.read_text())
    assert doc["measure"]["N"] == 3
    assert not (tmp_path / "measure.json.tmp").exists()


def test_schedule_make_closed_form(capsys):
    code, out, _ = run_cli(capsys, [
        "schedule", "make", "--tau", "3", "--p", "2", "--sigma", "2.0",
        "--i1", "4", "--r", "1,2,3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schedule"]["i"] == [4, 96, 9216]
    assert doc["schedule"]["rule"] == {"kind": "psi-power", "tau": "3"}


def test_schedule_make_needs_exactly_one_family(capsys):
    code, _, err = run_cli(capsys, [
        "schedule", "make", "--p", "2", "--sigma", "2.0",
        "--i1", "4", "--r", "1,2"])
    assert code == 2 and "exactly one" in err


def test_lambda_mass_exact(capsys):
    base = ["lambda", "mass", "--N", "5", "--p", "1", "--sigma-log", "5",
            "--eps", "3/10", "--schedule-i", "2,4,7,11",
            "--schedule-r", "1,1,1,1", "--horizon", "13"]
    code, out, _ = run_cli(capsys, base + ["--prefix", "4,4,8,5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert doc["mass"] == "1/8"
    assert doc["chain"] == [1, 2]
    # forced position violated -> dead prefix, exact zero
    code, out, _ = run_cli(capsys, base + ["--prefix", "4,4,9,5"])
    doc = json.loads(out)
    assert doc["valid"] is False and doc["mass"] == "0/1"


def test_lambda_sample_forced_positions(capsys):
    base = ["lambda", "sample", "--N", "5", "--p", "1", "--sigma-log", "5",
            "--eps", "3/10", "--schedule-i", "2,4", "--schedule-r", "1,1",
            "--horizon", "6", "--depth", "6", "--count", "3",
            "--seed", "9"]
    code, out, _ = run_cli(capsys, base)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["paths"]) == 3
    for path in doc["paths"]:
        digits = [b[0] for b in path]
        assert digits[2] == digits[0] + digits[1]
    code, out2, _ = run_cli(capsys, base)
    assert json.loads(out2)["paths"] == doc["paths"]


def scan_rows(text):
    lines = text.splitlines()
    assert lines[0].startswith(f"# cfraj_version={__version__} config_hash=")
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def test_fourier_scan_csv_contract(capsys):
    code, out, _ = run_cli(capsys, [
        "fourier", "scan", "--N", "3", "--p", "1", "--sigma-log", "6",
        "--sigma-k", "2", "--eps", "1/4", "--xi", "0,2,8",
        "--method", "cylinder", "--depth", "4"])
    assert code == 0
    rows = scan_rows(out)
    assert [r["xi"] for r in rows] == ["0", "2", "8"]
    assert float(rows[0]["abs"]) == 1.0
    assert float(rows[0]["err"]) == 0.0


def test_fourier_scan_deterministic_bytes(capsys, tmp_path):
    argv = ["fourier", "scan", "--N", "3", "--p", "1", "--sigma-log", "6",
            "--sigma-k", "2", "--eps", "1/4", "--xi-dyadic", "0:3",
            "--method", "mc", "--samples", "2000", "--depth", "3",
            "--seed", "5"]
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert run_cli(capsys, argv + ["--out", str(a)])[0] == 0
    assert run_cli(capsys, argv + ["--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()
    other = argv[:-1] + ["6", "--out", str(c)]
    assert run_cli(capsys, other)[0] == 0
    assert a.read_bytes() != c.read_bytes()
    rows = scan_rows(a.read_text())
    assert [r["xi"] for r in rows] == ["1", "2", "4", "8"]


def test_fourier_scan_prints_the_hash_its_file_carries(capsys, tmp_path):
    out_path = tmp_path / "decay.csv"
    code, out, _ = run_cli(capsys, [
        "fourier", "scan", "--N", "3", "--p", "1", "--sigma-log", "6",
        "--sigma-k", "2", "--eps", "1/4", "--measure", "nu",
        "--xi-dyadic", "0:11", "--method", "cylinder", "--depth", "6",
        "--out", str(out_path)])
    assert code == 0
    printed = out.split("config ")[1].split()[0]
    header = out_path.read_text().splitlines()[0]
    assert header.endswith(f"config_hash={printed}")


def test_fourier_scan_methods_agree(capsys):
    shared = ["fourier", "scan", "--N", "3", "--p", "1", "--sigma-log",
              "6", "--sigma-k", "2", "--eps", "1/4", "--xi", "1,4,16",
              "--depth", "5"]
    _, cyl_out, _ = run_cli(capsys, shared + ["--method", "cylinder"])
    _, mc_out, _ = run_cli(capsys, shared + [
        "--method", "mc", "--samples", "100000", "--seed", "2"])
    for rc, rm in zip(scan_rows(cyl_out), scan_rows(mc_out)):
        gap = math.hypot(float(rc["re"]) - float(rm["re"]),
                         float(rc["im"]) - float(rm["im"]))
        assert gap <= float(rc["err"]) + float(rm["err"])


def test_verify_suites(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "cf"])
    assert code == 0 and "[cf] ok" in out
    code, out, _ = run_cli(capsys, ["verify", "--suite", "audit"])
    assert code == 0
    assert "flagged rows: deriv_sup, l2_mass, decay" in out
    assert "-97/358" in out
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 64


def test_verify_corrupted_measure_file(capsys, tmp_path):
    bad = tmp_path / "measure.json"
    bad.write_text("{ this is not json")
    code, _, err = run_cli(capsys, [
        "verify", "--suite", "nu", "--measure-file", str(bad)])
    assert code == 2 and err
    missing_keys = tmp_path / "empty.json"
    missing_keys.write_text("{}")
    code, _, err = run_cli(capsys, [
        "verify", "--suite", "nu", "--measure-file", str(missing_keys)])
    assert code == 2


def test_verify_with_good_measure_file(capsys, tmp_path):
    out_path = tmp_path / "m.json"
    run_cli(capsys, ["nu", "build", "--N", "3", "--p", "1",
                     "--sigma-log", "6", "--sigma-k", "2", "--eps", "1/4",
                     "--out", str(out_path)])
    code, out, _ = run_cli(capsys, [
        "verify", "--suite", "nu", "--measure-file", str(out_path)])
    assert code == 0 and "[nu] ok" in out


def test_audit_exponents_command(capsys):
    code, out, _ = run_cli(capsys, ["audit", "exponents"])
    assert code == 0
    assert "-97/358" in out and out.count("*") == 3
    code, out, _ = run_cli(capsys, ["audit", "exponents",
                                    "--alpha", "1/4"])
    assert code == 0 and "*" not in out
    code, _, err = run_cli(capsys, ["audit", "exponents",
                                    "--alpha", "1/2"])
    assert code == 2 and "alpha" in err
    code, _, err = run_cli(capsys, ["audit", "exponents",
                                    "--alpha", "nonsense"])
    assert code == 2