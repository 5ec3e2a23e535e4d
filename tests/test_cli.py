"""Command-line contract: examples, precedence, exit codes, byte stability."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetagw import cli, offspring, validate_classify
from thetagw.errors import NumericError

from conftest import DESK_RAW, fft_pmf


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "thetagw.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_classify_example():
    r = run_cli("classify", "--theta", "1", "--a", "2", "--c", "1")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["case"]["case_id"] == "case1"
    assert doc["params"]["q"] == 1.0
    assert doc["summary"]["d"] == 1.0
    assert doc["summary"]["m"] == 0.5
    # wall time goes to stderr so stdout stays byte-stable
    assert "wall_time" not in r.stdout
    assert "wall_time_s=" in r.stderr


def test_classify_pure_death():
    # theta = -1 with q = 1 is f(s) = a s + 1 - a: no explosion, no survival
    r = run_cli("classify", "--theta", "-1", "--a", "0.5", "--q", "1")
    assert r.returncode == 0, r.stderr
    case = json.loads(r.stdout)["case"]
    assert (case["case_id"], case["criticality"]) == ("case6", "PureDeath")


def test_iterate_example():
    r = run_cli("iterate", "--theta", "1", "--a", "1", "--c", "1",
                "--n", "3", "--s", "0")
    assert r.returncode == 0
    assert json.loads(r.stdout)["value"] == 0.75
    r2 = run_cli("iterate", "--theta", "1", "--a", "1", "--c", "1",
                 "--n", "3", "--s", "0", "--format", "text")
    assert r2.stdout == "0.75\n"


def test_iterate_saturates_for_large_n():
    # a**n overflows for a = 2; the iterate rounds to 1.0 (= A = q) well before
    for n in ("2000", "2000.5", "1e300"):
        r = run_cli("iterate", "--theta", "1", "--a", "2", "--c", "1", "--n", n)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["value"] == 1.0


def test_verify_example():
    r = run_cli("verify", "--theta", "-0.5", "--a", "0.5", "--q", "0", "--A", "1")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_classify_round_trips():
    from thetagw import serialize, validate_classify

    r = run_cli("classify", "--theta", "0", "--a", "0.5", "--q", "0.25")
    doc = json.loads(r.stdout)
    p, tag = validate_classify(doc["params"])
    assert serialize(p) == doc["params"]
    assert tag.case_id == doc["case"]["case_id"]


def test_stdout_byte_identical_across_runs_and_workers():
    args = ("simulate", "--theta", "-1", "--a", "0.5", "--q", "0.3",
            "--replicates", "3000", "--seed", "11", "--n-max", "20",
            "--format", "csv")
    first = run_cli(*args, "--workers", "1")
    again = run_cli(*args, "--workers", "1")
    four = run_cli(*args, "--workers", "4")
    assert first.returncode == 0
    assert first.stdout == again.stdout
    assert first.stdout == four.stdout
    head, *rows = first.stdout.strip().split("\n")
    assert head == "n,emp_t0_tail,emp_t1_tail,emp_t_tail,se"
    # trailing summary line is a JSON object with the ks record
    summary = json.loads(rows[-1])
    assert set(summary) == {"ks", "censored_fraction", "seed"}
    assert summary["seed"] == 11


def test_csv_headers():
    r = run_cli("pmf", "--theta", "1", "--a", "0.5", "--q", "0.5",
                "--k-max", "3", "--format", "csv")
    assert r.stdout.splitlines()[0] == "k,p_k"
    r = run_cli("absorb", "--theta", "-1", "--a", "0.5", "--q", "0.3",
                "--n", "2", "--format", "csv")
    assert r.stdout.splitlines()[0] == "n,t0_tail,t1_tail,t_tail"
    r = run_cli("gumbel", "--a", "0.5", "--q", "0", "--r", "1", "--format", "csv")
    lines = r.stdout.splitlines()
    assert lines[0] == "y,exact,limit"
    assert lines[1].split(",")[1] == "nan"


def test_out_file(tmp_path):
    dest = tmp_path / "out.json"
    r = run_cli("classify", "--theta", "1", "--a", "2", "--c", "1",
                "--out", str(dest))
    assert r.returncode == 0 and r.stdout == ""
    assert json.loads(dest.read_text())["case"]["case_id"] == "case1"


def test_config_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": 1.0, "a": 1.0, "c": 1.0, "s": 0.5, "n": 3}))
    base = run_cli("iterate", "--config", str(cfg))
    assert json.loads(base.stdout)["s"] == 0.5
    override = run_cli("iterate", "--config", str(cfg), "--s", "0")
    doc = json.loads(override.stdout)
    assert doc["s"] == 0.0 and doc["value"] == 0.75


def test_env_seed_default():
    r = run_cli("simulate", "--theta", "-1", "--a", "0.5", "--q", "0.3",
                "--replicates", "200", "--n-max", "5",
                env_extra={"THETA_GW_SEED": "123"})
    assert json.loads(r.stdout)["seed"] == 123
    # explicit flag wins over the environment
    r2 = run_cli("simulate", "--theta", "-1", "--a", "0.5", "--q", "0.3",
                 "--replicates", "200", "--n-max", "5", "--seed", "9",
                 env_extra={"THETA_GW_SEED": "123"})
    assert json.loads(r2.stdout)["seed"] == 9


def test_env_seed_must_be_an_integer():
    r = run_cli("simulate", "--theta", "-1", "--a", "0.5", "--q", "0.3",
                "--replicates", "200", "--n-max", "5",
                env_extra={"THETA_GW_SEED": "12x"})
    assert r.returncode == 3 and r.stdout == ""
    assert "THETA_GW_SEED" in r.stderr


def test_config_rejects_unknown_keys(tmp_path):
    # a misspelt option, and one that belongs to another subcommand
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": 1.0, "a": 2.0, "c": 1.0,
                               "replicate": 5, "seed": 1}))
    r = run_cli("classify", "--config", str(cfg))
    assert r.returncode == 3 and r.stdout == ""
    assert "replicate" in r.stderr and "seed" in r.stderr


@pytest.mark.parametrize("data, message", [
    # valid JSON that is not an object names no option
    (b"[1, 2]", "config file must hold a JSON object"),
    (b'\xff\xfe{"k_max": 3}', "cannot read config"),  # not UTF-8
    (b'{"k_max": ' + b"[" * 5000 + b"]" * 5000 + b"}", "cannot read config"),  # too deep to decode
], ids=["json-array", "not-utf-8", "nested-5000-deep"])
def test_config_must_hold_an_object(tmp_path, capsys, data, message):
    # a config file that cannot be read as an object is a parameter error
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(data)
    assert cli.main(["classify", "--config", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and message in err and "unexpected error" not in err


P6 = ["--theta", "-1", "--a", "0.5", "--q", "0.3"]


def test_embed_t_adds_a_residual_time(tmp_path, capsys):
    # --t appends a fourth time to the residual times 0.5, 1 and 2, and the
    # same option read from --config prints the same bytes
    argv = ["embed", *P6, "--k-max", "3"]
    assert cli.main(argv) == 0
    base = json.loads(capsys.readouterr().out)["checks"]["quad_residuals"]
    assert cli.main([*argv, "--t", "3"]) == 0
    out = capsys.readouterr().out
    residuals = json.loads(out)["checks"]["quad_residuals"]
    assert len(residuals) == 4 and residuals[:3] == base
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t": 3}))
    assert cli.main([*argv, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == out
GUMBEL = ["gumbel", "--theta", "-0.5", "--a", "0.5", "--q", "0.3"]


@pytest.mark.parametrize("argv, cfg, code", [
    (["simulate", *P6, "--replicates", "10"], {"seed": "abc"}, 3),
    (["pmf", *P6], {"k_max": "x"}, 3),
    (["absorb", *P6], {"n": [1]}, 3),
    (["classify", "--a", "0.5", "--q", "0.3"], {"theta": "x"}, 3),
    (["classify", *P6], {"format": "xml"}, 3),
    (["pmf", *P6], {"k_max": 1000001}, 3),
    (["absorb", *P6, "--n", "1e30"], None, 2),
    (["absorb", *P6, "--n", "nan"], None, 2),
    (["absorb", *P6, "--n", "2.5"], None, 2),
    ([*GUMBEL, "--n", "nan"], None, 2),
    ([*GUMBEL, "--n", "1e30"], None, 2),
    (["pmf", *P6, "--k-max", "100000000000"], None, 2),
    (["pmf", *P6, "--k-max", "1000001"], None, 2),
    (["qprocess", *P6, "--k-max", "-3"], None, 2),
    (["iterate", *P6, "--n", "nan"], None, 2),
    (["iterate", *P6, "--s", "nan"], None, 2),
    (["embed", *P6, "--t", "nan"], None, 2),
    (["simulate", *P6, "--replicates", "10", "--n-max", "100000000000"], None, 2),
    (["simulate", *P6, "--replicates", "10", "--n-max", "0"], None, 3),
], ids=[
    "config-seed", "config-k_max", "config-n-list", "config-theta", "config-format",
    "config-k_max-past-cap", "absorb-n-huge", "absorb-n-nan", "absorb-n-fraction",
    "gumbel-n-nan", "gumbel-n-huge", "pmf-k-max-huge", "pmf-k-max-past-cap",
    "qprocess-k-max-negative", "iterate-n-nan", "iterate-s-nan", "embed-t-nan",
    "simulate-n-max-huge", "simulate-n-max-zero",
])
def test_bad_input_exit_codes(tmp_path, capsys, argv, cfg, code):
    # a flag its type rejects is a usage error (2); the same text read from a
    # config file is a parameter error (3); either way nothing reaches stdout
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = [*argv, "--config", str(path)]
    assert cli.main(argv) == code
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [["iterate", *P6], GUMBEL], ids=["iterate", "gumbel"])
def test_n_defaults_to_50(capsys, argv):
    assert cli.main(argv) == 0
    default = capsys.readouterr().out
    assert cli.main([*argv, "--n", "50"]) == 0
    assert capsys.readouterr().out == default


def test_usage_exit_codes():
    assert run_cli("nonsense").returncode == 2
    assert run_cli("classify", "--theta", "one").returncode == 2
    # a subcommand's usage error: its own usage and prog name, on stderr only
    out = run_cli("simulate", "--theta", "1", "--replicates", "x", env_extra={"COLUMNS": "80"})
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == (
        "usage: thetagw simulate [-h] [--config CONFIG] [--theta THETA] [--a A] [--c C]\n"
        "                        [--q Q] [--A A] [--format FORMAT] [--out OUT]\n"
        "                        [--replicates REPLICATES] [--seed SEED]\n"
        "                        [--n-max N_MAX] [--z-cap Z_CAP] [--workers WORKERS]\n"
        "thetagw simulate: error: argument --replicates: invalid int value: 'x'\n"
    )
    # csv is only defined for tabular subcommands
    assert run_cli("classify", "--theta", "1", "--a", "2", "--c", "1",
                   "--format", "csv").returncode == 2


def test_domain_exit_codes():
    assert run_cli("classify", "--theta", "3", "--a", "1", "--c", "1").returncode == 3
    assert run_cli("classify").returncode == 3
    assert run_cli("iterate", "--theta", "1", "--a", "2", "--c", "1",
                   "--s", "1.5").returncode == 3
    # c implies q = A - ((1 - a)/c)**(1/theta), a power past the float range
    assert run_cli("classify", "--theta=1e-3", "--a=0.5", "--c=1e-10").returncode == 3
    # unreadable config counts as a parameter problem, not a crash
    assert run_cli("classify", "--config", "/does/not/exist.json").returncode == 3


# a magnitude from 1e-300 to 1e300 of either sign
EXTREME = st.builds(
    lambda e, neg: (-1.0 if neg else 1.0) * 10.0**e, st.floats(-300.0, 300.0), st.booleans()
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.sampled_from(["classify", "iterate", "absorb", "pmf", "gumbel", "qprocess", "embed"]),
    st.fixed_dictionaries({"theta": EXTREME, "a": EXTREME, "c": EXTREME, "q": EXTREME}),
    st.sampled_from([("c",), ("q",), ("c", "q"), ()]),
    st.one_of(st.none(), EXTREME),
    st.integers(0, 20),
)
def test_no_analytic_subcommand_exits_1(command, params, law, big_a, rows):
    # extreme input ends in 0 ok, 3 parameter or 4 numeric, never in 1, the
    # unexpected error. law names which of c and q are given, and A may be
    # left out; --k-max and --n stay at most 20 to keep this quick
    argv = [command, *(f"--{k}={v!r}" for k, v in params.items() if k in ("theta", "a", *law))]
    if big_a is not None:
        argv.append(f"--A={big_a!r}")
    if command in ("pmf", "qprocess", "embed"):
        argv.append(f"--k-max={rows}")
    elif command in ("absorb", "gumbel"):
        argv.append(f"--n={rows}")
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(out):
        warnings.simplefilter("ignore", UserWarning)  # the library's conditioning and quality notes
        code = cli.main(argv)
    assert code in (0, 3, 4), (argv, out.getvalue()[-300:])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "quad_residuals reads 6.3e-05 against 1e-06: the float c fixes q only to "
    "2.9e-17 relative at a = 1.2e-17, so F_t(s) - q keeps about 5 digits at t = 0.5 "
    "and none at t = 1; an exact antiderivative of 1/(h(x) - x) misses there too, "
    "so the cause is the flow's gap to q, not QUADPACK's roundoff"))
def test_embed_at_tiny_a_passes_its_checks(capsys):
    argv = ["embed", "--theta=-0.14911272520210703", "--a=1.223968043276796e-17",
            "--q=0.0058826748014885475", "--k-max=6"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the quadrature's flag-2 notes
        assert cli.main(argv) == 0, capsys.readouterr().out


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 8: at 1 - a = 3.2e-11 the tail sum is still alive at n = 2^14, "
    "and QAGS's completion integral reports error 5.96e+09 on a sum of 6.9e9, so "
    "absorb exits 4; the series completion has no subinterval limit"))
def test_near_critical_completion_gives_a_value(capsys):
    argv = ["absorb", "--theta=1.0", "--a=0.9999999999678232", "--A=1.087912360651882",
            "--q=1.0", "--n=18"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the quadrature's flag notes
        code = cli.main(argv)
    assert code == 0, capsys.readouterr().err
    expected = json.loads(capsys.readouterr().out)["expected"]
    assert 0.0 < expected["e_t0_given_finite"] < math.inf


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 9: h(s) - s and h's D in the aq form are differences of powers "
    "that cancel at A = 1e6, so h(0.5) reads 0.49999999976158155 and embed exits 4 "
    "(A = 1e5 passes); in the log-ratio coordinate h(q) = q holds at every A"))
def test_embed_h_fixes_q_at_large_A(capsys):
    argv = ["embed", "--theta=0.5", "--a=0.5", "--q=0.5", "--A=1e6", "--k-max=5"]
    assert cli.main(argv) == 0, capsys.readouterr().err


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP items 7 and 12: the semigroup check's inner F_t(0), A minus a power, "
    "reads -4.9e-8 on this admissible law, and the outer call refuses it with "
    "'s must lie in [0, A]' (exit 3); F_t as q + gap stays in [0, A], and the "
    "closed-form flow check has no path to skip"))
def test_embed_admissible_law_is_not_refused(capsys):
    argv = ["embed", "--theta=-0.0001316842891482262", "--a=5.6563844560402385e-11",
            "--A=93374.04155646382", "--q=1.485600194749438e-22", "--k-max=5"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the quadrature's flag notes
        code = cli.main(argv)
    assert code == 0, capsys.readouterr().err


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP items 9 and 12: p_0 is A minus a power, which keeps about eps*A/|theta| "
    "absolute, so at A = 6.1e6 it prints 5.23e-06 where q = 0 forces p_0 = 0; "
    "q + gap(1, 0) in the log-ratio form reads 0"))
def test_pmf_p0_is_zero_at_q_zero(capsys):
    argv = ["pmf", "--theta=-5.557824235902436e-05", "--a=0.8032473675177247",
            "--A=6069504.459667816", "--q=0", "--k-max=2"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["p"][0] == 0.0


def test_unwritable_out_exits_3(tmp_path, capsys):
    # an --out in a missing directory, naming a directory or holding a NUL
    # byte is a parameter problem like an unreadable --config, not a crash
    for dest in (tmp_path / "missing" / "x.json", tmp_path, "a\x00b"):
        code = cli.main(["classify", "--theta", "1", "--a", "2", "--c", "1", "--out", str(dest)])
        err = capsys.readouterr().err
        assert code == 3
        assert f"cannot write --out {dest}" in err
        assert "unexpected error" not in err


def test_pmf_above_the_route_cap_exits_3(capsys):
    # the triangle route stops at 10^4 before building anything
    assert cli.main(["pmf", "--theta", "1", "--a", "2", "--c", "1", "--k-max", "10001"]) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["qprocess", "--theta=1", "--a=0.5", "--q=0.5", "--A=1e17"],  # Q(0) cancels to 0
    ["qprocess", "--theta=1", "--a=0.5", "--q=0.5", "--A=1e10"],  # Q(0) keeps ~7 digits
    ["qprocess", "--theta=1", "--a=0.5", "--q=0.5", "--A=1e200"],  # (A - q)^2 overflows
    ["embed", "--theta=0", "--a=0.5897969762292109", "--A=1.780146358319437e160",
     "--q=0.22588312696234158", "--k-max=10"],  # h(x) - x rounds to 0 on the path
    ["embed", "--theta=1", "--a=0.8747814950131493", "--A=1.0000000000054412",
     "--q=0.9999999999999953", "--k-max=10"],
    ["embed", "--theta=5e-324", "--a=0.5", "--q=0.99999", "--k-max=10"],  # D rounds to 0
    # h's aq form: (A - s)^2 overflows, so h(q) reads nan
    ["embed", "--theta=1.0", "--a=0.2952930482569529", "--q=0.24878911012497618",
     "--A=1.529916308085258e+237", "--k-max=3"],
    # the lattice route's p_0 = A - (a A^(1/m) + c)^m, a power past the float range
    ["pmf", "--theta=-0.001", "--a=1e-300", "--A=1.7976931348623157e308", "--q=0", "--k-max=3"],
    # the rate (1 + 1/theta)(1 - q)^(-theta) - 1/theta rounds to 0
    ["embed", "--theta=-1e-17", "--a=0.5", "--q=0.5", "--k-max=3"],
], ids=["qprocess-A-1e17", "qprocess-A-1e10", "qprocess-A-1e200", "embed-A-1e160", "embed-q-near-A",
        "embed-theta-5e-324", "embed-h-of-q-nan", "pmf-lattice-p0", "embed-rate-rounds-to-0"])
def test_unrepresentable_values_exit_4(capsys, argv):
    # admissible laws whose values leave the float range end in the numeric
    # error exit, not in the unexpected-error exit 1, and no numpy
    # RuntimeWarning (an error under this suite's settings) escapes on the way
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # tiny theta is ill-conditioned
        assert cli.main(argv) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("thetagw: numeric error: ") and err.count("\n") == 1


@pytest.mark.parametrize("theta, k_max", [("-0.891", 2000), ("-0.95", 2000), ("-0.6", 5000)])
def test_triangle_overflow_exits_4(capsys, theta, k_max):
    # the triangle's scaled rows of these cancelling laws pass the float range
    # before k_max, and it refuses them with a NumericError naming the order
    # (exit 4), not the exit 1 of a bare "-inf + inf in fsum"; pmf serves them
    # by the series route, within the 1e-12 clamp of the reference
    p, _ = validate_classify({"theta": float(theta), "a": 0.371, "q": 0.306})
    with pytest.raises(NumericError, match="scaled rows overflow at order"):
        offspring._pmf_triangle(p, k_max)
    argv = ["pmf", f"--theta={theta}", "--a=0.371", "--q=0.306", f"--k-max={k_max}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 0
    probs = np.array(json.loads(capsys.readouterr().out)["p"])
    assert np.max(np.abs(probs - fft_pmf(p, k_max))) < 1e-12


def test_failed_table_build_exits_4_every_time(capsys, monkeypatch):
    # masses that raise NumericError fail the first offspring table's build,
    # and a second run in the same process fails the same way
    def refused(p, order):
        raise NumericError(f"no masses up to order {order}")

    monkeypatch.setattr(offspring, "pmf", refused)
    argv = ["simulate", "--theta=-0.891", "--a=0.371", "--q=0.306", "--replicates=200"]
    for _ in range(2):
        assert cli.main(argv) == 4
        out = capsys.readouterr()
        assert out.out == ""
        assert "no masses up to order 256" in out.err


def test_huge_moments_saturate(capsys):
    # case3 at a = 5e-324: the mean a^(-1/theta) and a^2 in f''(1) leave the float range
    assert cli.main(["classify", "--theta=1", "--a=5e-324", "--q=0"]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["m"] == "inf" and summary["f2_at_1"] == "inf"


@pytest.mark.parametrize("cmd", ["verify", "embed"])
def test_q_zero_above_one(capsys, cmd):
    # f_t(0) rounds to -2.2e-16 for this case9 set; s that close below 0 is 0
    argv = [cmd, "--theta", "-0.3", "--a", "0.6", "--A", "1.5", "--q", "0"]
    assert cli.main(argv) == 0  # 5 if a check failed
    doc = json.loads(capsys.readouterr().out)
    if cmd == "verify":
        assert doc["passed"] and doc["checks"]
    else:
        assert doc["case"]["case_id"] == "case9"
        assert doc["checks"]["semigroup_sup_err"] < 1e-10


def test_numeric_exit_code(monkeypatch):
    def boom(opts):
        raise NumericError("forced")

    monkeypatch.setitem(cli._HANDLERS, "classify", boom)
    rc = cli.main(["classify", "--theta", "1", "--a", "2", "--c", "1"])
    assert rc == 4


def test_check_failure_exit_code(monkeypatch):
    def failing(opts):
        checks = [{"name": "x", "target": "y", "value": 1.0, "tol": 0.1,
                   "passed": False}]
        return {"checks": checks, "passed": False}, None, "FAIL\n", checks

    monkeypatch.setitem(cli._HANDLERS, "verify", failing)
    rc = cli.main(["verify"])
    assert rc == 5


def test_embed_reports_checks():
    r = run_cli("embed", "--theta", "-1", "--a", "0.5", "--q", "0.3")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["lambda"] == pytest.approx(0.6931471805599453)
    assert doc["checks"]["embed_sup_err"] < 1e-10
    assert doc["checks"]["semigroup_sup_err"] < 1e-10
    assert max(doc["checks"]["quad_residuals"]) < 1e-6


CASE7 = ("--theta", "0.5", "--a", "0.5", "--A", "2", "--q", "1")


@pytest.mark.parametrize("argv", [
    ("embed", *CASE7),
    ("verify", *CASE7),
    ("absorb", "--theta", "0.5", "--a", "1.0", "--c", "1.0"),  # tail-sum completion
], ids=["embed-case7", "verify-case7", "absorb-case2h"])
def test_quadrature_paths_run_without_scipy(argv):
    # scipy is a test dependency only: the commands that integrate must give
    # the same stdout, byte for byte, with its import blocked
    blocked = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['scipy'] = None\n"
         "from thetagw.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == run_cli(*argv).stdout


def test_classify_and_refusals_leave_numpy_unloaded():
    # import thetagw loads no module, classify is scalar arithmetic in params,
    # and a refused law comes before any handler imports the library it runs;
    # gumbel reads no law, so its refusal is the law it is not given
    script = (
        "import sys\n"
        "import thetagw\n"
        "assert 'numpy' not in sys.modules, 'import thetagw loaded numpy'\n"
        "from thetagw.cli import main\n"
        "assert main(['classify', '--theta', '1.0', '--a', '0.5', '--c', '1.0']) == 0\n"
        "law = ['--theta', '0.0', '--a', '0.5', '--q', '0.25', '--c', '2.0']\n"
        "for cmd in ('pmf', 'iterate', 'absorb', 'qprocess', 'embed', 'simulate', 'verify'):\n"
        "    assert main([cmd, *law]) == 3, cmd\n"
        "assert main(['pmf', *law, '--k-max', '5']) == 3\n"
        "assert main(['gumbel', '--theta', '0.0', '--a', '0.5']) == 3\n"
        "assert 'numpy' not in sys.modules, 'the CLI loaded numpy'\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert r.returncode == 0, r.stderr
    assert '"case_id": "case3"' in r.stdout
    assert r.stderr.count("parameter error: theta = 0 stores c = 1-a") == 8
    assert "parameter error: gumbel needs --a and --q" in r.stderr


def test_qprocess_nulls():
    doc = json.loads(run_cli("qprocess", "--theta", "1", "--a", "1",
                             "--c", "1").stdout)
    assert doc["b"] is None and doc["stationary"] is None
    assert doc["w"] is not None
    doc2 = json.loads(run_cli("qprocess", "--theta", "1", "--a", "0.5",
                              "--q", "0.5").stdout)
    assert doc2["w"] is None
    assert doc2["b"][0] == pytest.approx(0.5)


def test_gumbel_lattice_rows():
    r = run_cli("gumbel", "--theta", "-0.01", "--a", "0.5", "--q", "0",
                "--format", "csv")
    rows = [line.split(",") for line in r.stdout.splitlines()[1:]]
    # lattice spacing is exactly 1 in y
    ys = [float(a) for a, _, _ in rows]
    assert all(abs((b - a) - 1.0) < 1e-12 for a, b in zip(ys, ys[1:]))
    devs = [abs(float(ex) - float(lim)) for _, ex, lim in rows]
    assert max(devs) < 0.01


def test_gumbel_theta_zero_takes_r_zero(capsys):
    # theta = 0 fixes r = 0 whatever r is declared: eps = 1/ln(1/(A - 1)), w = 1
    assert cli.main(["gumbel", "--theta=0", "--A=1.5", "--a=0.5", "--q=0", "--r=0.2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["r"] == 0 and doc["w"] == 1
    assert doc["eps"] == 1.0 / math.log(2.0)


def test_float_formatting_is_17g():
    r = run_cli("iterate", "--theta", "1", "--a", "2", "--c", "1",
                "--n", "2", "--s", "0.5", "--format", "text")
    assert r.stdout == f"{10.0 / 11.0:.17g}\n"


def _rendering_argvs() -> list[list[str]]:
    """The text and csv forms the perfbench goldens (JSON only) leave unpinned."""

    def desk(name):
        return [f"--{k}={v!r}" for k, v in DESK_RAW[name].items()]

    out = []
    for name in ("case3", "case5b", "case8b"):
        for cmd in ("classify", "pmf", "iterate", "absorb", "qprocess", "embed", "verify"):
            out.append([cmd, *desk(name), "--format=text"])
        for cmd in ("pmf", "absorb"):
            out.append([cmd, *desk(name), "--format=csv"])
    sim = ["simulate", "--theta=-1", "--a=0.5", "--q=0.3", "--replicates=500", "--n-max=20"]
    for head in (["gumbel", *desk("case5")], ["gumbel", *desk("case5b")],
                 ["gumbel", "--a=0.5", "--q=0", "--r=1"], sim):
        out += [[*head, "--format=text"], [*head, "--format=csv"]]
    return out + [[*sim, "--format=json"], ["verify", "--format=text"]]


# " ".join(argv) -> sha256 of stdout, recorded before the CLI rendered the
# library's records directly
RENDERING_DIGESTS = {
    "classify --theta=1.0 --a=0.5 --q=0.5 --format=text":
        "32f905f20ccc7a8d4f3d079e20d33eb4baaeca32ecbf07e2961da7e8aa305c55",
    "pmf --theta=1.0 --a=0.5 --q=0.5 --format=text":
        "6e64d405bd8d04fd214b27683e5bbaaa6fdbdc729866d7e11191ffcc261bba91",
    "iterate --theta=1.0 --a=0.5 --q=0.5 --format=text":
        "ba754aa53e0a7d1aeba4c292af9411abd93fe60256d1b8bafd56a7978735a8c3",
    "absorb --theta=1.0 --a=0.5 --q=0.5 --format=text":
        "30ca34af7720ff437b5841dabd518ec44eee2a1e0259342f6a6bc0c3d8336e81",
    "qprocess --theta=1.0 --a=0.5 --q=0.5 --format=text":
        "805fa27f87e44b02331c29a7f5422d8cba9cf6e9de29f3372700d63ab6ec76d2",
    "embed --theta=1.0 --a=0.5 --q=0.5 --format=text":
        "80197cbcb0aafae126347607bd84a3632540008038f07a3aafe914934da10d3f",
    "verify --theta=1.0 --a=0.5 --q=0.5 --format=text":
        "8378b9564da421f352509947fca09d47e090e51b4c1804b550eb7f03a5d2e136",
    "pmf --theta=1.0 --a=0.5 --q=0.5 --format=csv":
        "68ffa5c02101acfb7c16069cd113f6a1616ebd90378ca97e679799688a564859",
    "absorb --theta=1.0 --a=0.5 --q=0.5 --format=csv":
        "65b4ba1c02815252306eb4e37f6a4128c93d732ee0de013636c5d7ba87641dd8",
    "classify --theta=-0.5 --a=0.5 --q=0.3 --format=text":
        "e1dab45918e6b29bdc35cb3dc3a0420777027c93be8fefad5c37c10137652c8c",
    "pmf --theta=-0.5 --a=0.5 --q=0.3 --format=text":
        "09e574afd6adae99889f386e3755a933b98958f6e690e6bc34bc8aced83f92fb",
    "iterate --theta=-0.5 --a=0.5 --q=0.3 --format=text":
        "400bf1854fe9ecae70a7eb70ad7030767315173a589a7aedba62ab46bc38bf0f",
    "absorb --theta=-0.5 --a=0.5 --q=0.3 --format=text":
        "4f93fd32affe8fe61d19d3b6fbd7626338ba78e02b24ab520a6e87c4190fcff9",
    "qprocess --theta=-0.5 --a=0.5 --q=0.3 --format=text":
        "673c0fb3cfdf0123a0964d49c862c3ab98e99b292a761fbbb3e1f46da9dcc3cf",
    "embed --theta=-0.5 --a=0.5 --q=0.3 --format=text":
        "27e15c4c8ba607b9fbf06ad0bc8af7b9cca2a268ebdc7429a57151a8c4ce8aea",
    "verify --theta=-0.5 --a=0.5 --q=0.3 --format=text":
        "08cc4d057b57ed234e6a588a732f249dd8700cc1df832e9a4e9c6b840a3db8eb",
    "pmf --theta=-0.5 --a=0.5 --q=0.3 --format=csv":
        "919482b6923a564543f96f786f3bfdb5aaf689b36983fc07b3b6f3b3394c9720",
    "absorb --theta=-0.5 --a=0.5 --q=0.3 --format=csv":
        "1785af9a97e285727b929a24215526a005b008789be4ba1b1ce948e21ec04ebd",
    "classify --theta=0.0 --a=0.5 --A=2.0 --q=0.5 --format=text":
        "7dd75933c78993927711b8c6d789b5a39150546c1718102ab476cafe5fcb33a5",
    "pmf --theta=0.0 --a=0.5 --A=2.0 --q=0.5 --format=text":
        "f16616bc452e262a129a4b96b13fb5c202be5b634459981b5ca04cbe7a5fd943",
    "iterate --theta=0.0 --a=0.5 --A=2.0 --q=0.5 --format=text":
        "9a6911e00e6c8294b072b62524c56a1e7cf923a53f341f78c764c187f772efe7",
    "absorb --theta=0.0 --a=0.5 --A=2.0 --q=0.5 --format=text":
        "ab1ac273c997fecf3fb7dc82c53f7fb2a67b1dd57b595f99239ad696e32208c2",
    "qprocess --theta=0.0 --a=0.5 --A=2.0 --q=0.5 --format=text":
        "0b2d9f6d2f7cd9fd0f59d949894dbae5347ec75072c7bee70e8be9e6ac23d499",
    "embed --theta=0.0 --a=0.5 --A=2.0 --q=0.5 --format=text":
        "73dc96765914192b3ad7a2c743a608162e3946fbc18760bd1f4b72101413fb1b",
    "verify --theta=0.0 --a=0.5 --A=2.0 --q=0.5 --format=text":
        "1b890bc7d44ecc96b39a917919490120a2fc436cb5cf3bccd20302e7183bff04",
    "pmf --theta=0.0 --a=0.5 --A=2.0 --q=0.5 --format=csv":
        "b62ed5e66d861e6e5190b2e4c5006b87493e2ec2e37d62daf9111ce47afb805e",
    "absorb --theta=0.0 --a=0.5 --A=2.0 --q=0.5 --format=csv":
        "6d640f22da25e1c055878b4c2b36053fd97d776c46911b07905bddc46637ec85",
    "gumbel --theta=-0.5 --a=0.5 --q=0.0 --format=text":
        "4ee44f1e337eb958c3803c20fe6775fa3238aaa1c29d80059613659d5cb789ae",
    "gumbel --theta=-0.5 --a=0.5 --q=0.0 --format=csv":
        "16d1a9d933f7b4c25786581f145204ff3e2d291834d552046420232339494366",
    "gumbel --theta=-0.5 --a=0.5 --q=0.3 --format=text":
        "846d629348262895582752da808c1981c96766bb1691d0d635abfb859d9fc1dc",
    "gumbel --theta=-0.5 --a=0.5 --q=0.3 --format=csv":
        "0c16f3a29b8f54e99c3c38f896986e1e39cf0c846a7b3d88f6121bfc5a0a6e08",
    "gumbel --a=0.5 --q=0 --r=1 --format=text":
        "3027da238dad7729720f4127b2eb0f04aa697fd2ebb797bf5b675f6b7156b364",
    "gumbel --a=0.5 --q=0 --r=1 --format=csv":
        "fd3da2f60985bb5abe0e543f6f3dc1465ce496aedefe18b4d77f61a263a9af21",
    "simulate --theta=-1 --a=0.5 --q=0.3 --replicates=500 --n-max=20 --format=text":
        "81da3c9bd2aac23e43956fa91c85159a27d7c7fd80d95142045f386b51088bf4",
    "simulate --theta=-1 --a=0.5 --q=0.3 --replicates=500 --n-max=20 --format=csv":
        "447953263acb4f23c9efc82c7bbee79558080f06b3b97b4fcd42edcc5714db67",
    "simulate --theta=-1 --a=0.5 --q=0.3 --replicates=500 --n-max=20 --format=json":
        "2a7fa6777a2dfea2545892281c9dcb6e08df3c461f6b6c86065b7d46985545eb",
    "verify --format=text":
        "36134d943c94a209b6ec8a5490854945279cfb9102a8bc668cd6eb7753fb132e",
}


def test_renderings_byte_identical(capsys, monkeypatch):
    monkeypatch.delenv("THETA_GW_SEED", raising=False)
    got = {}
    for argv in _rendering_argvs():
        assert cli.main(argv) == 0, argv
        got[" ".join(argv)] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == RENDERING_DIGESTS
