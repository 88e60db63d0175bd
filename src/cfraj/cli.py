"""Command-line front door.

Subcommands: nu build | schedule make | lambda mass | lambda sample |
fourier scan | verify | audit exponents. The four JSON commands (nu
build, schedule make, lambda mass, lambda sample) print the tool
version, their config (the values that decide their output) and its
config_hash. fourier scan writes CSV whose header carries the version
and the hash of the scan's config. verify and audit exponents print
plain text with neither. Files are written atomically. --budget caps
enumeration: the N^p block tuples, and in a cylinder scan also the
cylinders or cascade leaves; nu build judges the strict profile's
enumerability against it. Exit codes: 0 ok, 1 property violation,
2 operational error, 64 usage.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional

from . import __version__, config_hash
from .audit import exponent_audit, format_audit
from .blocks import (NuMeasure, _anchored_sigma, build_nu,
                     median_log_continuant)
from .cascade import CYLINDER_BUDGET, build_lambda, classify, sample_path
from .errors import CfrajError, PreconditionViolated
from .fourier import decay_scan
from .profiles import get_profile, strict_feasibility
from .rules import AssignmentRule, PsiFamily
from .schedule import Schedule, make_schedule_psi
from .verify import SUITE_NAMES, format_reports, run_suites


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _emit_json(config: dict, body: dict,
               out: Optional[str] = None) -> None:
    doc = {"version": __version__, "config_hash": config_hash(config),
           "config": config, **body}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_dyadic(text: str) -> tuple[int, int]:
    """LO and HI of --xi-dyadic LO:HI, two integers."""
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:  # a bad integer, or not two of them
        raise PreconditionViolated(
            f"--xi-dyadic takes LO:HI, two integers, not {text!r}") from None
    return lo, hi


def _parse_xi_token(tok: str):
    try:
        return int(tok)
    except ValueError:
        pass
    if "/" in tok:
        return _fraction(tok)
    return float(tok)


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _parse_rule(text: str) -> AssignmentRule:
    if text == "sum":
        return AssignmentRule.sum_of_previous()
    if text == "exp":
        return AssignmentRule.psi_exp()
    if text.startswith("power:"):
        return AssignmentRule.psi_power(_fraction(text.split(":", 1)[1]))
    raise PreconditionViolated(
        f"unknown rule {text!r}; expected sum, exp, or power:TAU")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract is 64
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _add_nu_flags(p: argparse.ArgumentParser, required: bool = True):
    p.add_argument("--N", dest="n_bound", type=int, required=required)
    p.add_argument("--p", dest="p", type=int, required=required)
    p.add_argument("--eps", default="1/4")
    sig = p.add_mutually_exclusive_group(required=required)
    sig.add_argument("--sigma-log", dest="sigma_log", type=int,
                     help="anchor sigma = log(M)/k symbolically")
    sig.add_argument("--sigma", dest="sigma", type=float)
    sig.add_argument("--sigma-median", dest="sigma_median",
                     action="store_true",
                     help="sigma = median log-continuant of the level")
    p.add_argument("--sigma-k", dest="sigma_k", type=int, default=1)
    p.add_argument("--budget", type=int, default=CYLINDER_BUDGET,
                   help="enumeration cap: the N^p block tuples, and in "
                        "a cylinder scan also the cylinders or cascade "
                        "leaves (default %(default)s)")


def _add_schedule_flags(p: argparse.ArgumentParser):
    p.add_argument("--schedule-i", dest="schedule_i",
                   help="comma-separated stage starts, e.g. 2,4,7,11")
    p.add_argument("--schedule-r", dest="schedule_r",
                   help="comma-separated run lengths")
    p.add_argument("--rule", default="sum",
                   help="sum | exp | power:TAU")
    p.add_argument("--horizon", type=int, default=None)


def build_parser() -> _Parser:
    root = _Parser(prog="cfraj", description=__doc__)
    root.add_argument("--version", action="version",
                      version=f"cfraj {__version__}")
    sub = root.add_subparsers(dest="command", required=True,
                              parser_class=_Parser)

    nu = sub.add_parser("nu", help="block measures")
    nusub = nu.add_subparsers(dest="subcommand", required=True,
                              parser_class=_Parser)
    nb = nusub.add_parser("build", help="build a block measure")
    _add_nu_flags(nb)
    nb.add_argument("--profile", choices=("desk", "strict"), default="desk")
    nb.add_argument("--out")
    nb.set_defaults(func=cmd_nu_build)

    sch = sub.add_parser("schedule", help="forced-run schedules")
    schsub = sch.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)
    sm = schsub.add_parser("make", help="grow a schedule for a psi family")
    sm.add_argument("--tau", help="power-family exponent (rational)")
    sm.add_argument("--exp", action="store_true",
                    help="use the exponential psi family")
    sm.add_argument("--p", type=int, required=True)
    sm.add_argument("--sigma", type=float)
    sm.add_argument("--sigma-log", dest="sigma_log", type=int)
    sm.add_argument("--sigma-k", dest="sigma_k", type=int, default=1)
    sm.add_argument("--i1", type=int, required=True)
    sm.add_argument("--r", required=True,
                    help="comma-separated run lengths, e.g. 1,2,3")
    sm.add_argument("--depth", type=int, default=None)
    sm.add_argument("--profile", choices=("desk", "strict"), default="desk")
    sm.add_argument("--out")
    sm.set_defaults(func=cmd_schedule_make)

    lam = sub.add_parser("lambda", help="cascade measure")
    lamsub = lam.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)
    lmass = lamsub.add_parser("mass", help="exact mass of a digit prefix")
    _add_nu_flags(lmass)
    _add_schedule_flags(lmass)
    lmass.add_argument("--prefix", required=True,
                       help="comma-separated partial quotients")
    lmass.set_defaults(func=cmd_lambda_mass)
    lsamp = lamsub.add_parser("sample", help="draw paths from the cascade")
    _add_nu_flags(lsamp)
    _add_schedule_flags(lsamp)
    lsamp.add_argument("--count", type=int, default=1)
    lsamp.add_argument("--depth", type=int, required=True)
    lsamp.add_argument("--seed", type=int, default=0)
    lsamp.set_defaults(func=cmd_lambda_sample)

    four = sub.add_parser("fourier", help="transform estimation")
    foursub = four.add_subparsers(dest="subcommand", required=True,
                                  parser_class=_Parser)
    fs = foursub.add_parser("scan", help="decay scan to CSV")
    _add_nu_flags(fs)
    _add_schedule_flags(fs)
    fs.add_argument("--measure", choices=("nu", "lambda"), default="nu")
    xi = fs.add_mutually_exclusive_group(required=True)
    xi.add_argument("--xi", help="comma-separated frequencies")
    xi.add_argument("--xi-dyadic", dest="xi_dyadic",
                    help="LO:HI -> 2^LO .. 2^HI inclusive")
    fs.add_argument("--method", choices=("cylinder", "mc", "montecarlo"),
                    default="cylinder")
    fs.add_argument("--depth", type=int, default=4)
    fs.add_argument("--samples", type=int, default=20000)
    fs.add_argument("--seed", type=int, default=0)
    fs.add_argument("--alpha", default="50/358")
    fs.add_argument("--out")
    fs.set_defaults(func=cmd_fourier_scan)

    ver = sub.add_parser("verify", help="run invariant suites")
    ver.add_argument("--suite", required=True,
                     choices=SUITE_NAMES + ("all",))
    ver.add_argument("--profile", choices=("desk", "strict"),
                     default="desk")
    ver.add_argument("--cases", type=int, default=60)
    ver.add_argument("--seed", type=int, default=20260823)
    ver.add_argument("--measure-file", dest="measure_file")
    ver.set_defaults(func=cmd_verify)

    aud = sub.add_parser("audit", help="exponent bookkeeping")
    audsub = aud.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)
    ae = audsub.add_parser("exponents", help="recorded vs recomputed table")
    ae.add_argument("--alpha", default="50/358")
    ae.set_defaults(func=cmd_audit_exponents)

    return root


# ------------------------------------------------------------- commands


def _resolve_sigma(args) -> tuple[Optional[float],
                                  Optional[tuple[int, int]]]:
    if getattr(args, "sigma_median", False):
        _, anchor = median_log_continuant(args.n_bound, args.p,
                                          budget=args.budget)
        return None, anchor
    if args.sigma_log is not None:
        return None, (args.sigma_log, args.sigma_k)
    return args.sigma, None


def _nu_from_args(args) -> tuple[NuMeasure, dict]:
    sigma, anchor = _resolve_sigma(args)
    eps = _fraction(args.eps)
    nu = build_nu(args.n_bound, args.p, sigma, eps, sigma_anchor=anchor,
                  budget=args.budget)
    config = {
        "n_bound": args.n_bound, "p": args.p, "sigma": sigma,
        "sigma_anchor": list(anchor) if anchor else None,
        "eps": f"{eps.numerator}/{eps.denominator}",
    }
    return nu, config


def cmd_nu_build(args) -> int:
    nu, config = _nu_from_args(args)
    prof = get_profile(args.profile)
    strict = strict_feasibility(nu.n_bound, nu.p, args.budget)
    feasibility = {
        "beta_achieved": nu.beta_achieved,
        "beta_target": float(prof.beta_prime),
        "meets_target": nu.beta_achieved >= float(prof.beta_prime),
        "strict": strict,
        "strict_required_i1": math.ceil(
            strict["required_sigma"] / nu.sigma),
    }
    _emit_json({**config, "profile": args.profile, "budget": args.budget},
               {"measure": nu.to_json_doc(), "feasibility": feasibility},
               args.out)
    if args.out:
        print(f"nu: support size {len(nu.support)}, "
              f"beta_achieved {nu.beta_achieved:.4f} -> {args.out}")
    return 0


def cmd_schedule_make(args) -> int:
    if args.exp == (args.tau is not None):
        raise PreconditionViolated("pick exactly one of --tau and --exp")
    psi = PsiFamily.exponential() if args.exp \
        else PsiFamily.power(_fraction(args.tau))
    if args.sigma_log is not None:
        sigma = _anchored_sigma((args.sigma_log, args.sigma_k))
    elif args.sigma is not None:
        sigma = args.sigma
    else:
        raise PreconditionViolated("need --sigma or --sigma-log")
    r_list = _parse_int_list(args.r)
    depth = args.depth if args.depth is not None else len(r_list)
    carrier = SimpleNamespace(p=args.p, sigma=sigma)
    sch = make_schedule_psi(psi, carrier, r_list, args.i1, depth,
                            profile=args.profile)
    config = {"p": args.p, "sigma": sigma, "rule": sch.rule.to_json(),
              "i1": args.i1, "r": r_list, "depth": depth,
              "profile": args.profile}
    _emit_json(config, {"schedule": {
        **sch.to_json_doc(), "p": sch.p, "sigma": sch.sigma,
        "rule": sch.rule.to_json(), "profile": sch.profile}}, args.out)
    if args.out:
        print(f"schedule: i = {list(sch.i)} -> {args.out}")
    return 0


def _lambda_from_args(args):
    nu, config = _nu_from_args(args)
    if args.schedule_i is None or args.schedule_r is None:
        raise PreconditionViolated(
            "lambda commands need --schedule-i and --schedule-r")
    rule = _parse_rule(args.rule)
    sch = Schedule(
        i=tuple(_parse_int_list(args.schedule_i)),
        r=tuple(_parse_int_list(args.schedule_r)),
        p=nu.p, sigma=nu.sigma, rule=rule,
    )
    horizon = args.horizon if args.horizon is not None \
        else sch.i[-1] + sch.r[-1] + 1
    lm = build_lambda(nu, sch, horizon=horizon)
    config.update(schedule_i=list(sch.i), schedule_r=list(sch.r),
                  rule=rule.to_json(), horizon=horizon)
    return lm, config


def cmd_lambda_mass(args) -> int:
    lm, config = _lambda_from_args(args)
    digits = _parse_int_list(args.prefix)
    p = lm.nu.p
    if len(digits) % p:
        raise PreconditionViolated(
            f"prefix length must be a multiple of p={p}")
    blocks = [tuple(digits[k:k + p]) for k in range(0, len(digits), p)]
    state = classify(lm, blocks)
    _emit_json({**config, "prefix": digits}, {
        "prefix": digits,
        "valid": state.valid,
        "mass": f"{state.mass.numerator}/{state.mass.denominator}",
        "mass_float": float(state.mass),
        "chain": list(state.chain),
    })
    return 0


def cmd_lambda_sample(args) -> int:
    if args.count < 0:
        raise PreconditionViolated("count must be >= 0")
    lm, config = _lambda_from_args(args)
    paths = []
    for k in range(args.count):
        blocks = sample_path(lm, args.depth, args.seed + k)
        paths.append([list(b) for b in blocks])
    _emit_json({**config, "seed": args.seed, "count": args.count,
                "depth": args.depth},
               {"seed": args.seed, "depth": args.depth, "paths": paths})
    return 0


def cmd_fourier_scan(args) -> int:
    if args.xi is not None:
        xi_list = [_parse_xi_token(t)
                   for t in args.xi.replace(",", " ").split()]
    else:
        lo, hi = _parse_dyadic(args.xi_dyadic)
        xi_list = [2**k for k in range(lo, hi + 1)]
    method = "montecarlo" if args.method == "mc" else args.method
    if args.measure == "lambda":
        measure, _ = _lambda_from_args(args)
    else:
        measure, _ = _nu_from_args(args)
    table = decay_scan(
        measure, xi_list, method, args.depth,
        samples=args.samples, seed=args.seed,
        alpha=_fraction(args.alpha), budget=args.budget,
    )
    if args.out:
        _atomic_write(args.out, table.serialize_csv())
        print(f"scan: {len(table.rows)} rows, config {table.config_hash} "
              f"-> {args.out}")
    else:
        sys.stdout.write(table.serialize_csv())
    return 0


def cmd_verify(args) -> int:
    measure = None
    if args.measure_file:
        with open(args.measure_file) as fh:
            doc = json.load(fh)
        measure = NuMeasure.from_json_doc(
            doc["measure"] if "measure" in doc else doc)
    reports = run_suites([args.suite], profile=args.profile,
                         measure=measure, cases=args.cases,
                         seed=args.seed)
    print(format_reports(reports))
    return 0 if all(rep.ok for rep in reports) else 1


def cmd_audit_exponents(args) -> int:
    print(format_audit(exponent_audit(_fraction(args.alpha))))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CfrajError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, TypeError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
