import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cfraj import __version__, config_hash, numeric
from cfraj.cascade import CYLINDER_BUDGET
from cfraj.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_import_leaves_scipy_out():
    src = ROOT / "src"
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


@pytest.mark.parametrize("argv", [["audit", "exponents"], ["--help"]],
                         ids=["audit-exponents", "help"])
def test_cli_parser_and_audit_load_no_numpy(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    code = ("import sys\nfrom cfraj.cli import main\ntry:\n"
            f"    main({argv!r})\nexcept SystemExit:\n    pass\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'numpy' or m in ('cfraj.blocks', 'cfraj.cascade')))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_cli_import_and_single_leaf_sets_start_no_thread():
    """The leaf pool is made on the first map of two or more leaves:
    importing the CLI starts no thread and loads no concurrent.futures,
    and a set of one leaf (the lemma sweep's 32 atoms) stays on the
    calling thread."""
    src = ROOT / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    code = """
import random, sys, threading
import cfraj.cli
print(threading.active_count(), "concurrent.futures" in sys.modules)
from fractions import Fraction
from cfraj.blocks import build_nu
from cfraj.fourier import decay_scan
from cfraj.oscillatory import check_integral_inequality, integral_sweep_case
nu = build_nu(3, 1, None, Fraction(1, 4), sigma_anchor=(6, 2))
decay_scan(nu, [-3, 0, 1, 2, 2**41], "cylinder", 5)
check_integral_inequality(integral_sweep_case(random.Random(0)), nu, 5)
print(threading.active_count(), "concurrent.futures" in sys.modules)
"""
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["1 False", "1 False"]


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
    # 5^3 block tuples over the enumeration cap
    code, _, err = run_cli(capsys, [
        "nu", "build", "--N", "5", "--p", "3",
        "--sigma-log", "5", "--eps", "1/4", "--budget", "10"])
    assert code == 2 and "budget" in err.lower()
    # an anchor log(m)/k is checked before the division
    for argv in (
            ["nu", "build", "--N", "3", "--p", "1", "--sigma-log", "6",
             "--sigma-k", "0"],
            ["schedule", "make", "--tau", "3", "--p", "2", "--sigma-log",
             "6", "--sigma-k", "0", "--i1", "4", "--r", "1,2"]):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: sigma anchor log(6)/0 needs m >= 1 and " \
            "k >= 1\n", argv
    # a zero denominator in any fraction argument, as any malformed number
    nu = ["--N", "3", "--p", "1", "--sigma-log", "6", "--sigma-k", "2"]
    scan = ["fourier", "scan", *nu, "--xi", "4"]
    for argv in (
            ["nu", "build", *nu, "--eps", "1/0"],
            ["lambda", "mass", *LAMBDA_FLAGS, "--prefix", "4", "--eps", "1/0"],
            ["lambda", "sample", *LAMBDA_FLAGS, "--depth", "2",
             "--eps", "1/0"],
            [*scan, "--eps", "1/0"],
            ["fourier", "scan", *nu, "--xi", "4,1/0"],
            [*scan, "--alpha", "1/0"],
            ["schedule", "make", "--tau", "1/0", "--p", "2", "--sigma", "2.0",
             "--i1", "4", "--r", "1,2"],
            ["lambda", "mass", *LAMBDA_FLAGS, "--prefix", "4",
             "--rule", "power:1/0"],
            ["audit", "exponents", "--alpha", "1/0"]):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: zero denominator in '1/0'\n", argv


def test_digit_budget_env_leaves_the_enumeration_cap_alone(capsys,
                                                          monkeypatch):
    # CFRAJ_DIGIT_BUDGET sets only guard_int's digit limit, which this
    # process has already read
    monkeypatch.setattr(numeric, "_digit_budget",
                        numeric.DEFAULT_DIGIT_BUDGET)
    argv = ["nu", "build", "--N", "5", "--p", "3", "--sigma-log", "5",
            "--eps", "1/4"]
    code, plain, _ = run_cli(capsys, argv)
    assert code == 0
    monkeypatch.setenv("CFRAJ_DIGIT_BUDGET", "10")
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and out == plain


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


@pytest.mark.parametrize("argv, err", [
    (["nu", "build", "--N", "3", "--p", "2", "--sigma", "inf"],
     "error: sigma must be finite, got inf\n"),
    (["nu", "build", "--N", "3", "--p", "2", "--sigma", "nan"],
     "error: sigma must be finite, got nan\n"),
    (["schedule", "make", "--tau", "3", "--p", "2", "--sigma", "inf",
      "--i1", "4", "--r", "1,2,3"],
     "error: sigma must be finite, got inf\n"),
    (["schedule", "make", "--exp", "--p", "2", "--sigma", "nan",
      "--i1", "4", "--r", "1,2,3"],
     "error: sigma must be finite, got nan\n"),
    (["schedule", "make", "--tau", "3", "--p", "2", "--sigma", "0",
      "--i1", "4", "--r", "1,2,3"],
     "error: sigma must be positive\n"),
    (["lambda", "mass", "--N", "5", "--p", "1", "--sigma", "inf",
      "--schedule-i", "2", "--schedule-r", "1", "--prefix", "4"],
     "error: sigma must be finite, got inf\n"),
], ids=["nu-inf", "nu-nan", "schedule-inf", "schedule-nan", "schedule-zero",
        "lambda-inf"])
def test_a_non_finite_sigma_is_an_operational_error(capsys, argv, err):
    assert run_cli(capsys, argv) == (2, "", err)


@pytest.mark.parametrize("sigmas, err", [
    (["--sigma", "2.0", "--sigma-log", "5"],
     "argument --sigma-log: not allowed with argument --sigma"),
    ([], "one of the arguments --sigma --sigma-log is required"),
], ids=["both", "neither"])
def test_schedule_make_takes_one_sigma(capsys, sigmas, err):
    with pytest.raises(SystemExit) as exc:
        main(["schedule", "make", "--tau", "3", "--p", "2", *sigmas,
              "--i1", "4", "--r", "1,2,3"])
    assert exc.value.code == 64
    assert capsys.readouterr().err.endswith(
        f"cfraj schedule make: error: {err}\n")


@pytest.mark.parametrize("argv, other", [
    (["schedule", "make", "--tau", "3", "--p", "2", "--sigma", "2.0",
      "--sigma-k", "7", "--i1", "4", "--r", "1,2,3"], "--sigma"),
    (["nu", "build", "--N", "3", "--p", "2", "--sigma-median",
      "--sigma-k", "7"], "--sigma-median"),
], ids=["schedule-sigma", "nu-median"])
def test_sigma_k_needs_sigma_log(capsys, argv, other):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    err = capsys.readouterr().err
    prog = f"cfraj {argv[0]} {argv[1]}"
    assert err.startswith(f"usage: {prog} ")
    assert err.splitlines()[-1] == (
        f"{prog}: error: argument --sigma-k: not allowed with argument "
        f"{other}, only with --sigma-log")


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


def test_lambda_sample_exp_rule_forces_the_true_digit(capsys):
    # typical digits 5, 5, 4 give q = 109, and the forced digit is
    # ceil(e^109 / 109^2), past 53 bits
    code, out, _ = run_cli(capsys, [
        "lambda", "sample", "--N", "5", "--p", "1", "--sigma-log", "5",
        "--eps", "0.3", "--schedule-i", "3,6", "--schedule-r", "1,1",
        "--rule", "exp", "--depth", "4", "--seed", "0"])
    assert code == 0
    assert json.loads(out)["paths"] == [
        [[5], [5], [4], [18333506276651970672114631187557297305642391]]]


LAMBDA_FLAGS = ["--N", "5", "--p", "1", "--sigma-log", "5", "--eps", "0.3",
                "--schedule-i", "2,4", "--schedule-r", "1,1", "--rule", "sum"]
NU_CONFIG = {"n_bound", "p", "sigma", "sigma_anchor", "eps"}
LAMBDA_CONFIG = NU_CONFIG | {"schedule_i", "schedule_r", "rule", "horizon"}


@pytest.mark.parametrize("argv, keys", [
    (["nu", "build", "--N", "3", "--p", "2", "--sigma-log", "5",
      "--eps", "0.3"], NU_CONFIG | {"profile", "budget"}),
    (["schedule", "make", "--tau", "3", "--p", "2", "--sigma", "2.0",
      "--i1", "4", "--r", "1,2,3"],
     {"p", "sigma", "rule", "i1", "r", "depth", "profile"}),
    (["lambda", "mass", *LAMBDA_FLAGS, "--prefix", "4,4,8,5"],
     LAMBDA_CONFIG | {"prefix"}),
    (["lambda", "sample", *LAMBDA_FLAGS, "--count", "2", "--depth", "6",
      "--seed", "7"], LAMBDA_CONFIG | {"seed", "count", "depth"}),
], ids=["nu-build", "schedule-make", "lambda-mass", "lambda-sample"])
def test_json_config_rehashes_to_its_printed_hash(capsys, argv, keys):
    # keys: exactly the values the command reads to make its output
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    config = json.loads(json.dumps(doc["config"]))
    assert config_hash(config) == doc["config_hash"]
    assert set(config) == keys


def test_nu_build_judges_strict_feasibility_by_its_budget(capsys):
    argv = ["nu", "build", "--N", "3", "--p", "2", "--sigma-log", "5",
            "--eps", "0.3"]
    docs = [json.loads(run_cli(capsys, argv + extra)[1])
            for extra in ([], ["--budget", "1000"])]
    assert [d["feasibility"]["strict"]["enumeration_budget"]
            for d in docs] == [CYLINDER_BUDGET, 1000]
    assert [d["config"]["budget"] for d in docs] == [CYLINDER_BUDGET, 1000]
    assert docs[0]["config_hash"] != docs[1]["config_hash"]


def test_lambda_sample_rejects_a_negative_count(capsys):
    code, out, err = run_cli(capsys, [
        "lambda", "sample", *LAMBDA_FLAGS, "--count", "-2", "--depth", "6"])
    assert (code, out, err) == (2, "", "error: count must be >= 0\n")


@pytest.mark.parametrize("measure", ["nu", "lambda"])
def test_fourier_scan_rejects_depth_zero(capsys, measure):
    code, out, err = run_cli(capsys, [
        "fourier", "scan", *LAMBDA_FLAGS, "--measure", measure,
        "--xi", "1,2", "--depth", "0"])
    assert (code, out, err) == (2, "", "error: depth must be >= 1\n")


@pytest.mark.parametrize("xi", [["--xi", ""], ["--xi", " , "],
                                ["--xi-dyadic", "5:3"]])
def test_fourier_scan_refuses_an_empty_frequency_list(capsys, xi):
    code, out, err = run_cli(capsys, [
        "fourier", "scan", *LAMBDA_FLAGS, "--measure", "nu", *xi,
        "--depth", "3"])
    assert (code, out, err) == (2, "", "error: xi_list must not be empty\n")


@pytest.mark.parametrize("span", ["5", "3:5:7", "a:b"])
def test_fourier_scan_refuses_a_malformed_dyadic_range(capsys, span):
    code, out, err = run_cli(capsys, [
        "fourier", "scan", *LAMBDA_FLAGS, "--measure", "nu",
        "--xi-dyadic", span, "--depth", "3"])
    assert (code, out, err) == (
        2, "", f"error: --xi-dyadic takes LO:HI, two integers, not '{span}'\n")


LIST_COMMANDS = {
    "--r": ["schedule", "make", "--tau", "3", "--p", "2", "--sigma", "2.0",
            "--i1", "4"],
    "--schedule-i": ["lambda", "mass", *LAMBDA_FLAGS, "--prefix", "4"],
    "--schedule-r": ["lambda", "mass", *LAMBDA_FLAGS, "--prefix", "4"],
    "--prefix": ["lambda", "mass", *LAMBDA_FLAGS],
    "--xi": ["fourier", "scan", *LAMBDA_FLAGS, "--measure", "nu",
             "--depth", "3"],
}


@pytest.mark.parametrize("flag, text", [
    ("--r", "1,,3"), ("--r", "1,"), ("--r", ",1"), ("--r", "1,x"),
    ("--r", "1 2"), ("--schedule-i", "2,,4"), ("--schedule-r", "1,"),
    ("--prefix", "4,,4"), ("--prefix", "4,a"), ("--xi", "4,,8"),
    ("--xi", "4,"), ("--xi", "4,x")])
def test_comma_lists_refuse_an_empty_or_bad_field(capsys, flag, text):
    code, out, err = run_cli(capsys, LIST_COMMANDS[flag] + [flag, text])
    kind = "frequencies" if flag == "--xi" else "integers"
    assert (code, out, err) == (
        2, "", f"error: {flag} takes comma-separated {kind}, not '{text}'\n")


def test_lambda_mass_reads_an_empty_prefix(capsys):
    code, out, err = run_cli(capsys, LIST_COMMANDS["--prefix"]
                             + ["--prefix", ""])
    doc = json.loads(out)
    assert (code, err) == (0, "")
    assert (doc["prefix"], doc["valid"], doc["mass"]) == ([], True, "1/1")


def test_lambda_sample_seed_changes_the_config_hash(capsys):
    base = ["lambda", "sample", *LAMBDA_FLAGS, "--count", "3",
            "--depth", "6", "--seed"]
    docs = [json.loads(run_cli(capsys, base + [seed])[1])
            for seed in ("7", "8")]
    assert docs[0]["paths"] != docs[1]["paths"]
    assert docs[0]["config_hash"] != docs[1]["config_hash"]


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


def test_fourier_scan_writes_file_atomically(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    argv = ["fourier", "scan", "--N", "3", "--p", "1", "--sigma-log", "6",
            "--sigma-k", "2", "--eps", "1/4", "--xi", "4,8", "--depth", "3"]
    code, csv_out, _ = run_cli(capsys, argv)
    assert code == 0
    assert run_cli(capsys, argv + ["--out", str(out_path)])[0] == 0
    assert out_path.read_text() == csv_out
    assert not (tmp_path / "scan.csv.tmp").exists()


def test_fourier_scan_budget_caps_the_cylinders(capsys):
    # 2 atoms at depth 7: 128 cylinders against a cap of 100
    argv = ["fourier", "scan", "--N", "3", "--p", "1", "--sigma-log", "6",
            "--sigma-k", "2", "--eps", "1/4", "--xi", "1,2", "--depth", "7"]
    code, out, err = run_cli(capsys, argv + ["--budget", "100"])
    assert code == 2 and out == ""
    assert "budget 100" in err
    assert run_cli(capsys, argv + ["--budget", "128"])[0] == 0


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


def test_verify_runs_each_lemma_check(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "nu"])
    assert code == 0
    assert "  pass  q_nu exponent reported  (log mass/log q=-0.6851 on the " \
           "support 3 times vs -beta'=-1.5000; unmet: " \
           "beta_achieved=0.7737 < beta')" in out
    assert "  pass  Frostman ceiling reported  (log s/(2 log q_max)=0.3155 " \
           "log s/(2 mean log q)=0.3869)" in out
    code, out, _ = run_cli(capsys, ["verify", "--suite", "nu",
                                    "--profile", "strict"])
    assert code == 0
    assert "  pass  strict-profile feasibility reported  (feasible=False " \
           "required_p=" in out
    assert "vs -beta'=-1.9800; unmet: beta_achieved=0.7737 < beta')" in out
    code, out, _ = run_cli(capsys, ["verify", "--suite", "lambda"])
    assert code == 0 and "FAIL" not in out
    for line in ("lemma 2 window and mass margins  (beta'=7/20 < ",
                 "phi_r bound from r = 2  (tau=4 word 0,2: r=2 True r=3 "
                 "True; r=1 False reported",
                 "q^2 psi(q) nonincreasing",
                 "admissible runs past block 2 are the forced blocks",
                 "schedule superlacunary at R = 10  (i=(4, 96, 9216) "
                 "ratios 19.20 94.04 n0=1)",
                 "gap condition (certified)  (margins 8786.1)"):
        assert f"  pass  {line}" in out


def test_verify_refuses_a_sweep_with_no_cases(capsys):
    code, out, err = run_cli(capsys, [
        "verify", "--suite", "lemmas", "--cases", "0"])
    assert (code, out, err) == (
        2, "", "error: a sweep needs at least one case\n")


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


def readme_commands():
    """argv of each cfraj line in the README's sh blocks."""
    text = (ROOT / "README.md").read_text()
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("cfraj "):
                lines.append(shlex.split(line)[1:])
    return lines


def test_readme_cli_examples_run(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 7  # one example per subcommand
    for argv in commands:
        code, _, err = run_cli(capsys, argv)
        assert code == 0, (argv, err)
        if "--out" in argv:
            assert (tmp_path / argv[argv.index("--out") + 1]).exists()
