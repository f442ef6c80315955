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
from .models import (
    CoefficientModel,
    decompose_degree,
    sample_coefficients,
    validate_model,
)
from .trigpoly import evaluate
from .zeros import count_zeros


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for
    numerical failures, so remap usage problems to exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_model_arguments(parser, with_degrees=True, none_defaults=False):
    # none_defaults lets a config file fill flags the user did not type
    parser.add_argument("--kind", choices=("trig", "cosine"),
                        default=None if none_defaults else "trig",
                        help="basis: cos+sin pairs or cosines only")
    parser.add_argument("--dep", choices=("iid", "periodic"), default=None,
                        help="coefficient dependence (default: periodic when "
                             "--ell is given, iid otherwise)")
    parser.add_argument("--ell", type=int, default=None,
                        help="coefficient period for the periodic model")
    parser.add_argument("--r", type=int, default=None,
                        help="expected block remainder; rejected if any "
                             "degree disagrees (sanity check)")
    parser.add_argument("--sigma", type=float,
                        default=None if none_defaults else 1.0,
                        help="coefficient standard deviation (zero counts "
                             "are invariant to it)")
    if with_degrees:
        parser.add_argument("--n", type=int, action="append", required=False,
                            help="degree; repeat for several rows")


def _resolve_model_args(parser, args):
    if args.ell is not None and args.dep == "iid":
        parser.error("--ell only applies to the periodic model")
    dep = args.dep
    if dep is None:
        dep = "periodic" if args.ell is not None else "iid"
    model = CoefficientModel(
        kind=args.kind,
        dep=dep,
        ell=args.ell if dep == "periodic" else None,
        sigma=args.sigma,
    )
    try:
        validate_model(model)
    except ValueError as exc:
        parser.error(str(exc))
    return model


def _check_degrees(parser, model, degrees, expected_r):
    """Usage errors for a degree below 1, below one period of a periodic
    model, or with a block remainder other than --r."""
    if expected_r is not None and model.dep != "periodic":
        parser.error("--r only applies to the periodic model")
    for n in degrees:
        if n < 1:
            parser.error(f"degree must be >= 1, got n={n}")
        if model.dep != "periodic":
            continue
        try:
            got = decompose_degree(n, model.ell).r
        except ValueError as exc:
            parser.error(str(exc))
        if expected_r is not None and got != expected_r:
            parser.error(
                f"degree n={n} with ell={model.ell} leaves remainder {got}, "
                f"not the requested r={expected_r}"
            )


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
    overrides = {}
    if args.config:
        try:
            overrides = load_config_file(args.config)
        except (OSError, ValueError) as exc:
            parser.error(f"--config: {exc}")

    merged = {
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
    # config file fills gaps; explicit CLI flags win; ExperimentConfig
    # defaults fill the rest
    for key, value in overrides.items():
        if merged.get(key) is None:
            merged[key] = value
    if merged["dep"] is None:
        merged["dep"] = "periodic" if merged["ell"] is not None else "iid"
    if args.ell is not None and merged["dep"] == "iid":
        parser.error("--ell only applies to the periodic model")
    if merged["dep"] != "periodic":
        merged["ell"] = None

    try:
        config = ExperimentConfig(
            **{key: value for key, value in merged.items() if value is not None}
        )
        config.validate()
    except (TypeError, ValueError) as exc:
        parser.error(str(exc))
    _check_degrees(parser, config.model(), config.degrees, args.r)

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
    model = _resolve_model_args(parser, args)
    degrees = tuple(args.n) if args.n else (100,)
    _check_degrees(parser, model, degrees, args.r)
    try:
        samples = [sample_coefficients(model, n, seed=0) for n in degrees]
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = []
    for sample in samples:
        try:
            res = expected_zeros_quadrature(sample)
        except (ValueError, FloatingPointError) as exc:
            print(f"n={sample.n}: {exc}", file=sys.stderr)
            return 2
        rows.append((sample.n, res))

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


def _cmd_constants(parser, args):
    what = args.what
    if args.mc < 0 or (args.mc and what in ("J", "I")):
        parser.error(f"--mc takes n_points >= 1 for C or K (0: off), got {args.mc} for {what}")
    try:
        if what == "C":
            if args.ell is None or args.r is None:
                parser.error("C requires --ell and --r")
            value = compute_C(args.ell, args.r)
            print(f"C[{args.ell},{args.r}] = {value:.12f}")
            if args.mc:
                mean, se = monte_carlo_C(args.ell, args.r, n_points=args.mc)
                print(f"monte-carlo = {mean:.12f} +- {se:.2e}")
        elif what == "J":
            if args.ell is None or args.r is None:
                parser.error("J requires --ell and --r")
            value = compute_J(args.ell, args.r)
            print(f"J[{args.ell},{args.r}] = {value:.12f}")
        elif what == "K":
            if args.ell is None:
                parser.error("K requires --ell")
            value = compute_K(args.ell)
            print(f"K[{args.ell}] = {value:.12f}")
            if args.mc:
                mean, se = monte_carlo_K(args.ell, n_points=args.mc)
                print(f"monte-carlo = {mean:.12f} +- {se:.2e}")
        else:  # I
            if args.alpha is None:
                parser.error("I requires --alpha")
            value = compute_I_alpha(args.alpha)
            closed = math.pi**2 / (math.sin(args.alpha) * math.cos(args.alpha))
            print(f"I[{args.alpha}] = {value:.12f}")
            print(f"closed form  = {closed:.12f}")
    except ValueError as exc:
        parser.error(str(exc))
    return 0


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def _cmd_count(parser, args):
    model = _resolve_model_args(parser, args)
    n = args.n[-1] if args.n else 100
    _check_degrees(parser, model, (n,), args.r)
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
    parser = _Parser(prog="trigzeros", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="Monte Carlo zero counting")
    _add_model_arguments(p_sim, none_defaults=True)
    p_sim.add_argument("--trials", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--grid-per-degree", type=int, default=None,
                       help="minimum nodes per degree, rounded up to a "
                            "5-smooth size")
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
    p_count.add_argument("--grid-per-degree", type=int, default=32,
                         help="minimum nodes per degree, rounded up to a "
                              "5-smooth size")
    p_count.add_argument("--dump-roots", default=None, metavar="PATH",
                         help="write refined roots as CSV (index,x,residual)")

    p_verify = sub.add_parser("verify", help="run the acceptance battery")
    p_verify.add_argument("--quick", action="store_true",
                          help="reduced trial counts (minutes -> seconds)")

    return parser


_HANDLERS = {
    "simulate": _cmd_simulate,
    "kacrice": _cmd_kacrice,
    "constants": _cmd_constants,
    "count": _cmd_count,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    return handler(parser, args)


if __name__ == "__main__":
    sys.exit(main())
