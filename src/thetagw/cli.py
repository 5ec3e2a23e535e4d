"""Command-line surface.

Subcommands: classify | pmf | iterate | absorb | gumbel | qprocess | embed |
simulate | verify. Every subcommand accepts --config <json> with flag > file
> default precedence, writes byte-stable output (fixed field order, floats at
17 significant digits) to --out or stdout, and reports wall time on stderr
only so stdout stays reproducible.

Exit codes: 0 ok, 2 usage, 3 domain/parameter, 4 numeric or truncation,
5 a named check failed, 1 anything unexpected.

Each subcommand checks its flags and law before it imports the library code it
runs, so ``classify`` and those refusals never load numpy; the library's do.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import math
import numbers
import os
import sys
import time

from .errors import DomainError, NumericError
from .params import K_MAX_RATIO, scalar_summary, serialize, validate_classify

_USAGE_EXIT = 2
_DOMAIN_EXIT = 3
_NUMERIC_EXIT = 4
_CHECK_EXIT = 5

_PARAM_KEYS = ("theta", "a", "c", "q", "A")


def __getattr__(name: str):
    # perfbench's tracer test reads ``cli.offspring_pmf``; it is looked up in
    # offspring on every access, so a patched ``offspring.pmf`` shows here too
    if name == "offspring_pmf":
        from .offspring import pmf
        return pmf
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fmt(x) -> str:
    """Canonical scalar rendering: 17 significant digits for floats."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, numbers.Integral):
        return str(int(x))
    xf = float(x)
    if math.isnan(xf):
        return "nan"
    if math.isinf(xf):
        return "inf" if xf > 0 else "-inf"
    return f"{xf:.17g}"


def _json_value(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, str):
        return json.dumps(x)
    if isinstance(x, enum.Enum):
        return _json_value(x.value)
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in x) + "]"
    if isinstance(x, dict):
        items = (f"{json.dumps(str(k))}: {_json_value(v)}" for k, v in x.items())
        return "{" + ", ".join(items) + "}"
    text = _fmt(x)
    # JSON has no literals for these; keep them explicit and parseable
    return json.dumps(text) if text in ("nan", "inf", "-inf") else text


def _json_doc(obj: dict) -> str:
    return _json_value(obj) + "\n"


def _csv_doc(header: list[str], rows: list[list], trailer: str = "") -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    return "\n".join(lines) + "\n" + trailer


def _real(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan  # each caller rejects NaN with its own message


def _finite(text: str) -> float:
    """A finite real: iterate's --n and --s, embed's --t, gumbel's --r."""
    x = _real(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite real, got {text!r}")
    return x


def _rows(text: str) -> int:
    """A whole row count no larger than the largest table the library builds."""
    x = _real(text)
    if not (x.is_integer() and 0 <= x <= K_MAX_RATIO):
        raise argparse.ArgumentTypeError(
            f"expected a whole number in [0, {K_MAX_RATIO}], got {text!r}"
        )
    return int(x)


def _format(text: str) -> str:
    if text not in ("json", "csv", "text"):
        raise argparse.ArgumentTypeError(f"expected json, csv or text, got {text!r}")
    return text


# Filled by ``_command``, once per subcommand: the parser, the defaults and the
# reading of --config/THETA_GW_SEED values all come from this declaration.
_COMMANDS: dict[str, tuple[str, bool, dict]] = {}
_HANDLERS: dict = {}
_COMMON = {
    **{key: (float, None) for key in _PARAM_KEYS},
    "format": (_format, "json"),
    "out": (str, None),
}


def _command(name: str, help_text: str, *, tabular: bool = False, **options):
    """Register a handler; each option is (type, default[, help])."""
    def register(handler):
        _COMMANDS[name] = (help_text, tabular, {**_COMMON, **options})
        _HANDLERS[name] = handler
        return handler
    return register


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="thetagw", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, _, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON file with defaults; flags override it")
        for key, (conv, _, *doc) in options.items():
            # unset flags stay out of the namespace, so _resolve sees what was given
            sp.add_argument("--" + key.replace("_", "-"), dest=key, type=conv,
                            default=argparse.SUPPRESS, help=doc[0] if doc else None)
    return top


def _resolve(command: str, given: dict) -> dict:
    """flag > config file > environment (seed only) > declared default.

    A config or THETA_GW_SEED value is read as its text would be as the flag:
    the flag's type converts it, and a value it rejects is a parameter error
    naming the key or the variable.
    """
    options = _COMMANDS[command][2]
    cfg = {}
    if "config" in given:
        path = given.pop("config")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DomainError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise DomainError("config file must hold a JSON object")
    unknown = sorted(set(cfg) - set(options))
    if unknown:
        raise DomainError(f"config keys not accepted by {command}: {', '.join(unknown)}")
    env_seed = os.environ.get("THETA_GW_SEED")
    texts = {"seed": ("THETA_GW_SEED", env_seed)} if env_seed and "seed" in options else {}
    for key, val in cfg.items():
        texts[key] = (f"config key {key!r}", val if isinstance(val, str) else json.dumps(val))
    opts = {key: opt[1] for key, opt in options.items()}
    for key, (source, text) in texts.items():
        if key in given:
            continue
        try:
            opts[key] = options[key][0](text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise DomainError(f"{source}: {exc}") from None
    return opts | given


def _record(rec, **keys) -> dict:
    """A library record's fields in order, each under its name in keys if given."""
    return {keys.get(k, k): v for k, v in dataclasses.asdict(rec).items()}


def _params_from(opts: dict):
    """The law, its case tag and the document head every law's output opens with."""
    raw = {k: opts[k] for k in _PARAM_KEYS if opts[k] is not None}
    if not raw:
        raise DomainError(
            "no parameters given: pass --theta/--a/--c/--q/--A or --config"
        )
    p, tag = validate_classify(raw)
    return p, tag, {"params": serialize(p), "case": _record(tag)}


@_command("classify", "canonical parameters, case tag and scalar summary")
def _cmd_classify(opts):
    p, tag, head = _params_from(opts)
    s = scalar_summary(p)
    d = p.d if tag.case_id == "case1" else None
    payload = {**head, "summary": {**_record(s, mean_m="m"), "d": d}}
    text = [
        f"case: {tag.case_id} ({tag.criticality.value}, "
        f"{'regular' if tag.regular else 'explosive'})",
        " ".join(f"{k}={_fmt(v)}" for k, v in head["params"].items() if k != "case_id"),
        f"m={_fmt(s.mean_m)} gamma={_fmt(s.gamma)} p_inf={_fmt(s.p_inf)}",
    ]
    return payload, None, "\n".join(text) + "\n", []


@_command("pmf", "offspring masses p_0..p_k", tabular=True, k_max=(_rows, 50))
def _cmd_pmf(opts):
    p, _, head = _params_from(opts)
    import numpy as np
    from .offspring import pmf
    k_max = opts["k_max"]
    probs = pmf(p, k_max)
    s = scalar_summary(p)
    covered = float(np.sum(probs))
    payload = {
        **head,
        "p": list(probs),
        "p_inf": s.p_inf,
        "tail_mass": max(s.f_at_1 - covered, 0.0),
    }
    rows = [[k, probs[k]] for k in range(k_max + 1)]
    text = "\n".join(f"p_{k} = {_fmt(v)}" for k, v in rows) + "\n"
    return payload, (["k", "p_k"], rows), text, []


@_command("iterate", "explicit n-step generating function value",
          n=(_finite, 50.0), s=(_finite, 0.0))
def _cmd_iterate(opts):
    p, _, head = _params_from(opts)
    from .pgf import eval_fn
    n, s = opts["n"], opts["s"]
    value = eval_fn(p, n, s)
    payload = {**head, "n": n, "s": s, "value": value}
    return payload, None, _fmt(value) + "\n", []


@_command("absorb", "extinction/explosion time tails and expectations", tabular=True,
          n=(_rows, 50, "horizon (rows 0..n)"))
def _cmd_absorb(opts):
    p, _, head = _params_from(opts)
    import numpy as np
    from .absorption import absorption_tails, expected_absorption
    hor = opts["n"]
    tails = absorption_tails(p)
    n = np.arange(0, hor + 1)
    t0 = tails.t0_tail(n)
    t1 = tails.t1_tail(n)
    tt = tails.t_tail(n)
    header = ["n", "t0_tail", "t1_tail", "t_tail"]
    payload = {
        **head,
        **dict(zip(header, (list(n), list(t0), list(t1), list(tt)))),
        "expected": _record(expected_absorption(p)),
    }
    rows = [[int(k), t0[k], t1[k], tt[k]] for k in range(hor + 1)]
    text = "\n".join(
        f"n={k:4d}  t0={_fmt(r1)}  t1={_fmt(r2)}  t={_fmt(r3)}"
        for k, r1, r2, r3 in rows
    ) + "\n"
    return payload, (header, rows), text, []


@_command("gumbel", "near-critical explosion-time limit on the y-lattice", tabular=True,
          n=(_rows, 50, "largest lattice index"),
          r=(_finite, None, "limit regime parameter when theta is not given"))
def _cmd_gumbel(opts):
    a, q = opts["a"], opts["q"]
    if a is None or q is None:
        raise DomainError("gumbel needs --a and --q")
    from .absorption import gumbel_limit
    big_a = opts["A"] if opts["A"] is not None else 1.0  # A = 1 as in validate_classify
    rec = gumbel_limit(a, q, theta=opts["theta"], big_a=big_a, r=opts["r"])
    rows = rec.lattice(opts["n"])
    header = ["y", "exact", "limit"]
    payload = {**_record(rec, big_a="A"), "rows": [dict(zip(header, row)) for row in rows]}
    text = "\n".join(
        f"y={_fmt(y)}  exact={_fmt(e)}  limit={_fmt(l)}" for y, e, l in rows
    ) + "\n"
    return payload, (header, rows), text, []


@_command("qprocess", "harmonic function and the three limit laws", k_max=(_rows, 50))
def _cmd_qprocess(opts):
    p, tag, head = _params_from(opts)
    from .qprocess import conditional_limit_b, critical_limit_w, stationary_law
    order = opts["k_max"]
    gamma = scalar_summary(p).gamma
    laws = {}
    for name, law in (
        ("b", conditional_limit_b),
        ("stationary", stationary_law),
        ("w", critical_limit_w),
    ):
        try:
            laws[name] = list(law(p, order).probs)
        except DomainError:  # this law is trivial or undefined for the case
            laws[name] = None
    payload = {**head, "gamma": gamma, **laws}
    text_lines = [f"case {tag.case_id}: gamma={_fmt(gamma)}"]
    for name, val in laws.items():
        text_lines.append(
            f"{name}: " + ("null" if val is None else " ".join(_fmt(v) for v in val[:10]))
        )
    return payload, None, "\n".join(text_lines) + "\n", []


@_command("embed", "continuous-time generator, coefficients and residuals",
          k_max=(_rows, 50), t=(_finite, None, "extra residual time"))
def _cmd_embed(opts):
    p, _, head = _params_from(opts)
    import numpy as np
    from .embedding import build_embedding, h_coeffs
    from .verify import _embed_checks
    e = build_embedding(p)
    st = h_coeffs(e, opts["k_max"])
    times = [0.5, 1.0, 2.0]
    if opts["t"] is not None:
        times.append(opts["t"])
    checks, values = _embed_checks(e, np.linspace(0.0, 1.0, 50), times)
    payload = {
        **head,
        "lambda": e.lam,
        "mu": e.mu,
        "h0": float(st.coeffs[0]),
        "h_coeffs": list(st.coeffs),
        "h_at_1": e.h_at_1,
        "checks": values,
    }
    text = (
        f"lambda={_fmt(e.lam)} mu={_fmt(e.mu)} h0={_fmt(st.coeffs[0])}\n"
        + "\n".join(
            f"{c.name}: {_fmt(c.value)} (tol {_fmt(c.tol)}) {'PASS' if c.passed else 'FAIL'}"
            for c in checks
        )
        + "\n"
    )
    return payload, None, text, [dataclasses.asdict(c) for c in checks]


@_command("simulate", "Monte Carlo tail estimates vs the closed forms", tabular=True,
          replicates=(int, 100_000), seed=(int, 0), n_max=(_rows, 200),
          z_cap=(int, 10_000_000), workers=(int, 1))
def _cmd_simulate(opts):
    p, _, head = _params_from(opts)
    from .absorption import absorption_tails
    from .simulate import SimConfig, estimate_tails, ks_distance
    cfg = SimConfig(
        params=p,
        replicates=opts["replicates"],
        n_max=opts["n_max"],
        z_cap=opts["z_cap"],
        master_seed=opts["seed"],
    )
    emp = estimate_tails(cfg, workers=opts["workers"])
    tails = absorption_tails(p)
    ks = ks_distance(emp, tails, range(0, cfg.n_max + 1))
    t0 = emp.tail("t0")
    t1 = emp.tail("t1")
    tt = emp.tail("t")
    se = emp.se("t")
    rows = [[n, t0[n], t1[n], tt[n], se[n]] for n in range(cfg.n_max + 1)]
    header = ["n", "emp_t0_tail", "emp_t1_tail", "emp_t_tail", "se"]
    summary = {
        "ks": _record(ks),
        "censored_fraction": emp.censored_fraction,
        "seed": cfg.master_seed,
    }
    payload = {
        **head,
        "replicates": cfg.replicates,
        "rows": [dict(zip(header, row)) for row in rows],
        **summary,
    }
    text = (
        f"replicates={cfg.replicates} censored={_fmt(emp.censored_fraction)}\n"
        "ks: " + " ".join(f"{k}={_fmt(v)}" for k, v in summary["ks"].items()) + "\n"
    )
    return payload, (header, rows, _json_doc(summary)), text, []


@_command("verify", "cross-module identity suite (one set per case by default)",
          seed=(int, 0))
def _cmd_verify(opts):
    seed = opts["seed"]
    p = _params_from(opts)[0] if any(opts[k] is not None for k in _PARAM_KEYS) else None
    from .verify import verify_set, verify_suite
    checks = verify_suite(seed=seed) if p is None else verify_set(p)
    check_dicts = [dataclasses.asdict(c) for c in checks]
    payload = {"checks": check_dicts, "seed": seed,
               "passed": all(c.passed for c in checks)}
    text = "\n".join(
        f"{'PASS' if c.passed else 'FAIL'}  {c.name}  {c.target}  "
        f"value={_fmt(c.value)}  tol={_fmt(c.tol)}"
        for c in checks
    ) + f"\n{'all checks pass' if payload['passed'] else 'CHECK FAILURES'}\n"
    return payload, None, text, check_dicts


def _write(dest: str | None, data: str) -> None:
    if dest is None:
        sys.stdout.write(data)
        return
    try:
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(data)
    except OSError as exc:
        raise DomainError(f"cannot write --out {dest}: {exc}") from exc


def run_command(argv=None) -> int:
    started = time.perf_counter()
    given = vars(_build_parser().parse_args(argv))
    command = given.pop("command")
    opts = _resolve(command, given)
    fmt = opts["format"]
    if fmt == "csv" and not _COMMANDS[command][1]:
        print(f"thetagw: error: {command} has no csv form", file=sys.stderr)
        return _USAGE_EXIT

    payload, csv_spec, text, checks = _HANDLERS[command](opts)
    if fmt == "json":
        doc = _json_doc({"command": command, **payload})
    elif fmt == "csv":
        doc = _csv_doc(*csv_spec)
    else:
        doc = text
    _write(opts["out"], doc)
    print(f"wall_time_s={time.perf_counter() - started:.3f}", file=sys.stderr)
    failed = [c for c in checks if not c["passed"]]
    return _CHECK_EXIT if failed else 0


def main(argv=None) -> int:
    try:
        return run_command(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except DomainError as exc:
        print(f"thetagw: parameter error: {exc}", file=sys.stderr)
        return _DOMAIN_EXIT
    except NumericError as exc:
        print(f"thetagw: numeric error: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT
    except Exception as exc:  # pragma: no cover - safety net
        print(f"thetagw: unexpected error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
