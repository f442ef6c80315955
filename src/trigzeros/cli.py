"""Command-line interface.

Subcommands:
  simulate    Monte Carlo zero counts across degrees, vs the theory table
  kacrice     expected zeros by Kac-Rice quadrature (no sampling)
  constants   limit constants C, J, K and the I_alpha identity
  count       count the zeros of one seeded sample, optionally dumping roots
  verify      run the full acceptance battery (--quick for a reduced run)

Exit codes: 0 success, 1 usage error, 2 numerical failure (failed rows,
uncertified counts, a counting error such as a non-finite coefficient or
a count above the 2n ceiling, or acceptance criteria not met).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from .constants import (
    compute_C,
    compute_I_alpha,
    compute_J,
    compute_K,
    monte_carlo_C,
    monte_carlo_K,
)
from .harness import (
    ExperimentConfig,
    load_config_file,
    report_to_csv,
    report_to_json,
    run_experiment,
)
from .kacrice import expected_zeros_quadrature
from .models import CoefficientModel, sample_coefficients
from .trigpoly import evaluate
from .zeros import GRID_PER_DEGREE, count_zeros


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for
    numerical failures, so remap usage problems to exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_model_arguments(parser):
    # every model flag defaults to None, so that _model can tell a flag
    # left out from one given, and a config file can fill the former
    parser.add_argument("--kind", choices=("trig", "cosine"), default=None,
                        help="basis: cos+sin pairs or cosines only (default: trig)")
    parser.add_argument("--dep", choices=("iid", "periodic"), default=None,
                        help="coefficient dependence (default: periodic when "
                             "--ell is given, iid otherwise)")
    parser.add_argument("--ell", type=int, default=None,
                        help="coefficient period for the periodic model")
    parser.add_argument("--r", type=int, default=None,
                        help="expected block remainder; rejected if any "
                             "degree disagrees (sanity check)")
    parser.add_argument("--sigma", type=float, default=None,
                        help="coefficient standard deviation (default: 1; zero "
                             "counts are invariant to it)")
    parser.add_argument("--n", type=int, action="append", required=False,
                        help="degree; repeat for several rows")


_MODEL_KEYS = ("kind", "dep", "ell", "sigma")
_GRID_HELP = (f"nodes a degree of the function counted (default {GRID_PER_DEGREE}): W = 2 sin(ell "
              "x/2) T of degree n + ell/2 for every periodic r != 0, on ell times a 5-smooth size; "
              "else T, on a 5-smooth size (cosine: a multiple of 4)")


def _model(parser, values, degrees, expected_r):
    """The model of values["kind"], ["dep"], ["ell"] and ["sigma"] (None
    where no flag or config key gave one), checked against the degrees.

    One set of rules, whichever source gave a value: kind defaults to
    trig, sigma to 1, and dep to periodic when ell is given and iid
    otherwise; ell and expected_r (--r) belong to the periodic model;
    each degree splits by model.period(n), and with expected_r its block
    remainder must equal it.  A breach is a usage error (exit 1)."""
    kind, dep, ell, sigma = (values[key] for key in _MODEL_KEYS)
    if dep is None:
        dep = "iid" if ell is None else "periodic"
    if dep == "iid" and ell is not None:
        parser.error("--ell only applies to the periodic model")
    if dep == "iid" and expected_r is not None:
        parser.error("--r only applies to the periodic model")
    try:
        model = CoefficientModel(kind="trig" if kind is None else kind, dep=dep, ell=ell,
                                 sigma=1.0 if sigma is None else sigma)
        splits = [model.period(n) for n in degrees]
    except ValueError as exc:
        parser.error(str(exc))
    for split in splits:
        if expected_r not in (None, split.r):
            parser.error(
                f"degree n={split.n} with ell={split.ell} leaves remainder {split.r}, "
                f"not the requested r={expected_r}"
            )
    return model


def _write_output(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _cmd_simulate(parser, args):
    values = {
        "kind": args.kind,
        "dep": args.dep,
        "ell": args.ell,
        "sigma": args.sigma,
        "degrees": tuple(args.n) if args.n else None,
        "trials": args.trials,
        "master_seed": args.seed,
        "grid_per_degree": args.grid_per_degree,
        "workers": args.workers,
    }
    if args.config:
        try:
            from_file = load_config_file(args.config)
        except (OSError, ValueError) as exc:
            parser.error(f"--config: {exc}")
        # explicit flags win; the file fills the flags left out
        for key, value in from_file.items():
            if values.get(key) is None:
                values[key] = value
    degrees = values.pop("degrees")
    if degrees is None:
        degrees = ExperimentConfig.degrees
    model = _model(parser, values, degrees, args.r)
    # ExperimentConfig defaults fill what neither flags nor file gave
    options = {key: value for key, value in values.items()
               if value is not None and key not in _MODEL_KEYS}
    try:
        config = ExperimentConfig(**dataclasses.asdict(model), degrees=degrees, **options)
    except ValueError as exc:
        parser.error(str(exc))

    try:
        report = run_experiment(config)
    except (FloatingPointError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = (
        report_to_json(report) if args.format == "json" else report_to_csv(report)
    )
    _write_output(text, args.out)
    return 2 if report.any_failed() else 0


# ---------------------------------------------------------------------------
# kacrice
# ---------------------------------------------------------------------------


def _cmd_kacrice(parser, args):
    degrees = tuple(args.n) if args.n else (100,)
    # the quadrature reads the model, n and the split of its sample, never
    # the coefficients, so the throwaway draw takes sigma = 1: a draw at the
    # user's sigma could overflow although the total does not depend on it
    model = dataclasses.replace(_model(parser, vars(args), degrees, args.r), sigma=1.0)
    rows = []
    for n in degrees:
        try:
            rows.append((n, expected_zeros_quadrature(sample_coefficients(model, n, seed=0))))
        except (ValueError, FloatingPointError, RuntimeError) as exc:
            print(f"error: n={n}: {exc}", file=sys.stderr)
            return 2

    if args.format == "json":
        import json

        payload = [
            {
                "n": n,
                "random_part": res.value,
                "deterministic": res.deterministic_zeros,
                "total": res.total(),
                "error_estimate": res.abs_error_estimate,
                "panels": res.panels_used,
            }
            for n, res in rows
        ]
        _write_output(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = ["n,random_part,deterministic,total,error_estimate,panels"]
        for n, res in rows:
            lines.append(
                f"{n},{res.value:.12g},{res.deterministic_zeros},"
                f"{res.total():.12g},{res.abs_error_estimate:.6g},"
                f"{res.panels_used}"
            )
        _write_output("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


_CONSTANT_ARGUMENTS = {"C": ("ell", "r"), "J": ("ell", "r"), "K": ("ell",), "I": ("alpha",)}


def _cmd_constants(parser, args):
    """Every requested value, the Monte Carlo estimate included, is computed
    before the first line is printed, so a usage error leaves stdout empty."""
    what = args.what
    if args.mc and what in ("J", "I"):
        parser.error(f"--mc applies to C or K only, got --mc {args.mc} for {what}")
    needed = _CONSTANT_ARGUMENTS[what]
    if any(getattr(args, name) is None for name in needed):
        parser.error(f"{what} requires " + " and ".join("--" + name for name in needed))
    mc = None
    try:
        if what == "C":
            lines = [f"C[{args.ell},{args.r}] = {compute_C(args.ell, args.r):.12f}"]
            if args.mc:
                mc = monte_carlo_C(args.ell, args.r, n_points=args.mc)
        elif what == "J":
            lines = [f"J[{args.ell},{args.r}] = {compute_J(args.ell, args.r):.12f}"]
        elif what == "K":
            lines = [f"K[{args.ell}] = {compute_K(args.ell):.12f}"]
            if args.mc:
                mc = monte_carlo_K(args.ell, n_points=args.mc)
        else:  # I
            value = compute_I_alpha(args.alpha)  # refuses alpha outside (0, pi/2)
            closed = math.pi**2 / (math.sin(args.alpha) * math.cos(args.alpha))
            lines = [f"I[{args.alpha}] = {value:.12f}", f"closed form  = {closed:.12f}"]
    except ValueError as exc:
        parser.error(str(exc))
    if mc is not None:
        lines.append(f"monte-carlo = {mc[0]:.12f} +- {mc[1]:.2e}")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def _cmd_count(parser, args):
    if args.n and len(args.n) > 1:
        parser.error("count takes one --n")
    n = args.n[0] if args.n else 100
    model = _model(parser, vars(args), (n,), args.r)
    if args.grid_per_degree < 1:
        parser.error("--grid-per-degree must be >= 1")
    try:
        sample = sample_coefficients(model, n, seed=args.seed)
        report = count_zeros(
            sample,
            grid_per_degree=args.grid_per_degree,
            want_roots=bool(args.dump_roots),
        )
    except (ValueError, FloatingPointError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    route = (f"route=phase pieces={report.pieces}" if report.pieces
             else f"grid={report.grid_size}")
    print(f"n={n} seed={args.seed} count={report.count} {route} stable={report.stable}")
    if args.dump_roots:
        resid = np.abs(evaluate(sample, report.roots))
        lines = ["index,x,residual"]
        for i, (x, rr) in enumerate(zip(report.roots, resid)):
            lines.append(f"{i},{x:.15g},{rr:.3e}")
        with open(args.dump_roots, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0 if report.stable else 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(parser, args):
    del parser
    from .acceptance import run_all

    results = run_all(quick=args.quick)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    return 2 if failed else 0


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    """The top-level parser; each subcommand's parser is kept as the
    command_parser default of its arguments, so that a handler reports a
    usage error with the subcommand's own usage line."""
    parser = _Parser(prog="trigzeros", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="Monte Carlo zero counting")
    _add_model_arguments(p_sim)
    p_sim.add_argument("--trials", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--grid-per-degree", type=int, default=None, help=_GRID_HELP)
    p_sim.add_argument("--workers", type=int, default=None)
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sim.add_argument("--out", default=None, help="write report to a file")
    p_sim.add_argument("--config", default=None,
                       help="key=value file; explicit flags override it")

    p_kr = sub.add_parser("kacrice", help="expected zeros by quadrature")
    _add_model_arguments(p_kr)
    p_kr.add_argument("--format", choices=("csv", "json"), default="csv")
    p_kr.add_argument("--out", default=None)

    p_const = sub.add_parser("constants", help="limit constants")
    p_const.add_argument("--what", choices=("C", "J", "K", "I"), required=True)
    p_const.add_argument("--ell", type=int, default=None)
    p_const.add_argument("--r", type=int, default=None)
    p_const.add_argument("--alpha", type=float, default=None)
    p_const.add_argument("--mc", type=int, default=0,
                         help="confirm C or K with this many random points (0: off)")

    p_count = sub.add_parser("count", help="count zeros of one sample")
    _add_model_arguments(p_count)
    p_count.add_argument("--seed", type=int, default=0)
    p_count.add_argument("--grid-per-degree", type=int, default=GRID_PER_DEGREE, help=_GRID_HELP)
    p_count.add_argument("--dump-roots", default=None, metavar="PATH",
                         help="write refined roots as CSV (index,x,residual)")

    p_verify = sub.add_parser("verify", help="run the acceptance battery")
    p_verify.add_argument("--quick", action="store_true",
                          help="reduced trial counts (minutes -> seconds)")

    for command_parser in sub.choices.values():
        command_parser.set_defaults(command_parser=command_parser)
    return parser


_HANDLERS = {
    "simulate": _cmd_simulate,
    "kacrice": _cmd_kacrice,
    "constants": _cmd_constants,
    "count": _cmd_count,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args.command_parser, args)


if __name__ == "__main__":
    sys.exit(main())
