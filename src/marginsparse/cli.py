"""Command-line front end.

Subcommands: select (one selection run), cv (repeated k-fold grid),
synth (write a synthetic dataset), verify (bound checks), feature-freq
(selection frequency across CV folds).  All outputs are JSON tagged with
schema "margin-sparse/1".  Exit codes: 0 success, 2 usage error, 3 data
error (also an input too large for memory), 4 numerical failure; failures
other than a flag rejected by the parser emit an error JSON on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

import numpy as np

from .errors import DataError, NumericalError
from .bss import bss_select
from .data import gen_synthetic, load_dataset, write_svmlight
from .geometry import MIN_DELTA
from .linalg import spectral_error
from .pipelines import (METHODS, MODES, cv_experiment, feature_frequencies,
                        select_geometry, summarize_cv, supervised_select,
                        unsupervised_select, verify_margin_bound)

SCHEMA = "margin-sparse/1"
DEFAULT_R_GRID = (300, 400, 500)
# The flags each verify --bound reads besides --bound; main refuses the rest.
_VERIFY_FLAGS = {
    "spectral": {"--l", "--d", "--r", "--trials", "--seed", "--out"},
    "margin": {"--data", "--features", "--method", "--mode", "--C", "--seed", "--t",
               "--chunk-fraction", "--kkt-tol", "--delta", "--out"},
    "radius": {"--data", "--features", "--method", "--seed", "--t", "--delta", "--out"},
}


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if np.isfinite(f) else None
    return obj


def _emit(payload, out_path):
    text = json.dumps(_jsonify({"schema": SCHEMA, **payload}), indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _run_selection(args):
    data = load_dataset(args.data)
    kwargs = dict(C=args.C, seed=args.seed, kkt_tol=args.kkt_tol,
                  meb_delta=args.delta)
    if args.mode == "supervised":
        return supervised_select(data, args.method, args.features, t=args.t,
                                 chunk_fraction=args.chunk_fraction, **kwargs)
    return unsupervised_select(data, args.method, args.features, t=args.t,
                               **kwargs)


def _report_fields(rep):
    """What select and verify --bound margin both print of a report."""
    return {
        "method": rep.method,
        "mode": rep.mode,
        "r": rep.r,
        "seed": rep.seed,
        "spectral_error": rep.spectral_error,
        "margin_full": rep.margin_full,
        "margin_sampled": rep.margin_sampled,
        "radius_full": rep.ball_full.radius,
        "radius_sampled": rep.ball_sampled.radius,
    }


def cmd_select(args):
    t0 = time.perf_counter()
    rep = _run_selection(args)
    bounds = verify_margin_bound(rep)
    payload = {
        **_report_fields(rep),
        "C": rep.C,
        "selected_indices": rep.selected_indices,
        "weights": rep.weights,
        "margin_sampled_full_data": rep.margin_sampled_full_data,
        "n_support": rep.n_support,
        "bound_checks": {
            "margin": bounds.margin_status,
            "ratio": bounds.ratio_status,
        },
        "wall_time_s": time.perf_counter() - t0,
    }
    _emit(payload, args.out)
    return 0


def cmd_cv(args):
    data = load_dataset(args.data)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    r_list = args.features if args.features else list(DEFAULT_R_GRID)
    cells = cv_experiment(data, methods, r_list, folds=args.folds,
                          repeats=args.repeats, seed=args.seed, C=args.C,
                          mode=args.mode, t=args.t,
                          chunk_fraction=args.chunk_fraction,
                          kkt_tol=args.kkt_tol,
                          include_full=not args.no_full_baseline,
                          workers=args.workers)
    # each group's cells come in (repeat, fold) order
    rows = [{"method": method, "r": r, **stat}
            for (method, r), stat in summarize_cv(cells).items()]
    payload = {
        "mode": args.mode,
        "folds": args.folds,
        "repeats": args.repeats,
        "seed": args.seed,
        "C": args.C,
        "results": rows,
    }
    _emit(payload, args.out)
    return 0


def cmd_synth(args):
    data = gen_synthetic(args.n, args.d, args.k, args.seed)
    text = write_svmlight(data)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _verify_spectral(args):
    rng = np.random.default_rng(args.seed)
    d = args.d
    bound = 3.0 * np.sqrt(args.l / args.r)
    lo, hi = 1.0 - np.sqrt(args.l / args.r), 1.0 + np.sqrt(args.l / args.r)
    failures = 0
    max_err = 0.0
    for _ in range(args.trials):
        V = np.linalg.qr(rng.standard_normal((d, args.l)))[0]
        op = bss_select(V, args.r)
        sig = np.linalg.svd(V[op.indices] * op.weights[:, None], compute_uv=False)
        err = spectral_error(V, op.indices, op.weights)
        max_err = max(max_err, err)
        if err > bound or sig.min() < lo - 1e-9 or sig.max() > hi + 1e-9:
            failures += 1
    return {
        "bound": "spectral",
        "l": args.l,
        "r": args.r,
        "d": d,
        "trials": args.trials,
        "failures": failures,
        "max_spectral_error": max_err,
        "error_bound": bound,
        "singular_value_range": [lo, hi],
        "all_passed": failures == 0,
    }


def _verify_margin(args):
    rep = _run_selection(args)
    b = verify_margin_bound(rep)
    return {
        "bound": "margin",
        **_report_fields(rep),
        "margin_check": asdict(b.margin),
        "radius_check": asdict(b.radius),
        "ratio_check": {**asdict(b.ratio), "epsilon": b.epsilon_hat},
    }


def _verify_radius(args):
    # The radius bound is about the data's ball, so the selection is always
    # unsupervised, from the full data, whatever --mode says; no SVM is solved.
    rep = select_geometry(load_dataset(args.data), args.method, args.features,
                          args.seed, t=args.t, meb_delta=args.delta)
    chk = verify_margin_bound(rep).radius
    return {
        "bound": "radius",
        "method": args.method,
        "r": args.features,
        "seed": args.seed,
        "radius_full": rep.ball_full.radius,
        "radius_sampled": rep.ball_sampled.radius,
        "spectral_error": rep.spectral_error,
        "bound_value": chk.rhs,
        "status": chk.status,
        "reason": chk.reason,
    }


def cmd_verify(args):
    if args.bound == "spectral":
        payload = _verify_spectral(args)
    elif args.bound == "margin":
        payload = _verify_margin(args)
    else:
        payload = _verify_radius(args)
    _emit(payload, args.out)
    return 0


def cmd_feature_freq(args):
    data = load_dataset(args.data)
    r = args.features if args.features is not None else DEFAULT_R_GRID[0]
    cells = cv_experiment(data, [args.method], r, folds=args.folds,
                          repeats=args.repeats, seed=args.seed, C=args.C,
                          mode=args.mode, t=args.t,
                          chunk_fraction=args.chunk_fraction,
                          kkt_tol=args.kkt_tol, workers=args.workers)
    # a group whose cells were all skipped has no counts: report it empty
    freq = feature_frequencies(cells, data.d).get((args.method, r),
                                                  np.zeros(data.d, dtype=int))
    order = np.argsort(freq, kind="stable")[::-1]
    ranked = [{"index": int(i), "feature_id": int(i) + 1, "count": int(freq[i])}
              for i in order if freq[i] > 0]
    payload = {
        "method": args.method,
        "mode": args.mode,
        "r": r,
        "folds": args.folds,
        "repeats": args.repeats,
        "seed": args.seed,
        "cells": int(sum(not c.skipped for c in cells)),
        "top": ranked[: args.top],
        "frequencies": ranked,
    }
    _emit(payload, args.out)
    for row in ranked[: args.top]:
        sys.stderr.write(
            f"feature {row['feature_id']:>6d}  selected in {row['count']} cells\n")
    return 0


def _flag_sets():
    """The parent parsers whose flags the subcommands share, by name."""
    sets = {name: argparse.ArgumentParser(add_help=False, allow_abbrev=False)
            for name in ("data", "method", "solver", "ball", "grid")}
    sets["data"].add_argument("--data", required=True,
                              help="dataset path (svmlight or .csv)")
    sets["method"].add_argument("--method", default="bss", choices=list(METHODS))
    p = sets["solver"]
    p.add_argument("--mode", default="supervised", choices=list(MODES))
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t", type=int, default=None,
                   help="sketch rows (approx-bss only)")
    p.add_argument("--chunk-fraction", dest="chunk_fraction", type=float,
                   default=0.1, help="rfe elimination fraction per round")
    p.add_argument("--kkt-tol", dest="kkt_tol", type=float, default=1e-4)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    sets["ball"].add_argument("--delta", type=float, default=1e-3,
                              help="enclosing-ball approximation parameter, "
                                   f"in [{MIN_DELTA:g}, 1)")
    p = sets["grid"]
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--workers", type=int, default=1)
    return sets


def build_parser():
    # allow_abbrev=False throughout: a flag prefix is a usage error, so a
    # flag a subcommand lacks cannot run as one it has.
    parser = argparse.ArgumentParser(
        prog="marginsparse", allow_abbrev=False,
        description="Margin-preserving feature selection for linear SVMs.")
    sub = parser.add_subparsers(dest="command", required=True)
    sets = _flag_sets()

    def add(name, summary, *flag_sets):
        return sub.add_parser(name, help=summary, allow_abbrev=False,
                              parents=[sets[s] for s in flag_sets])

    p = add("select", "run one feature selection", "data", "method", "solver", "ball")
    p.add_argument("--features", type=int, required=True, help="number r of features")
    p.set_defaults(func=cmd_select)

    p = add("cv", "repeated k-fold cross-validation grid", "data", "solver", "grid")
    p.add_argument("--methods", default="bss",
                   help="comma-separated list (may include 'full')")
    p.add_argument("--features", type=int, nargs="*", default=None,
                   help=f"r grid (default {list(DEFAULT_R_GRID)})")
    p.add_argument("--no-full-baseline", action="store_true",
                   help="skip the no-selection baseline row")
    p.set_defaults(func=cmd_cv)

    p = add("synth", "write a synthetic dataset")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--d", type=int, default=1000)
    p.add_argument("--k", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_synth)

    p = add("verify", "check a spectral/margin/radius bound",
            "method", "solver", "ball")
    p.add_argument("--bound", required=True,
                   choices=["spectral", "margin", "radius"])
    p.add_argument("--l", type=int, default=8, help="columns of V (spectral)")
    p.add_argument("--d", type=int, default=100, help="rows of V (spectral)")
    p.add_argument("--r", dest="r", type=int, default=128,
                   help="selections per trial (spectral)")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--data", default=None,
                   help="dataset path (margin and radius bounds)")
    p.add_argument("--features", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = add("feature-freq", "selection frequency of each feature across CV folds",
            "data", "method", "solver", "grid")
    p.add_argument("--features", type=int, default=None)
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(func=cmd_feature_freq)

    return parser


def _fail(code, kind, exc):
    payload = {"schema": SCHEMA, "error": {"type": kind, "message": str(exc)}}
    sys.stderr.write(json.dumps(payload) + "\n")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    bound = getattr(args, "bound", None)
    if bound is not None:
        # Prefixes are off, so a given flag appears in argv under its name.
        given = {tok.split("=", 1)[0] for tok in argv if tok.startswith("--")}
        unread = sorted(given - _VERIFY_FLAGS[bound] - {"--bound"})
        if unread:
            parser.error(f"--bound {bound} does not read {', '.join(unread)}")
    if bound in ("margin", "radius") and not args.data:
        parser.error("--data is required for margin/radius verification")
    if bound in ("margin", "radius") and args.features is None:
        parser.error("--features is required for margin/radius verification")
    if bound == "spectral":
        # V is d x l with orthonormal columns, so l cannot exceed d.
        if not 1 <= args.l <= args.d:
            parser.error(f"--l must be between 1 and --d ({args.d}), got {args.l}")
        if args.trials < 1:
            parser.error(f"--trials must be at least 1, got {args.trials}")
    # cv and feature-freq counts; --folds above n is left to the data check.
    for flag, least in (("folds", 2), ("repeats", 1), ("workers", 1), ("top", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            parser.error(f"--{flag} must be at least {least}, got {value}")
    # solver and ball parameters, where the subcommand takes them
    for flag, valid, span in (("C", lambda v: v > 0, "positive"),
                              ("kkt_tol", lambda v: v >= 0, "non-negative"),
                              ("delta", lambda v: 0 < v < 1, "in (0, 1)"),
                              ("delta", lambda v: v >= MIN_DELTA, f"at least {MIN_DELTA:g}"),
                              ("chunk_fraction", lambda v: 0 <= v < 1, "in [0, 1)")):
        value = getattr(args, flag, None)
        if value is not None and not valid(value):
            parser.error(f"--{flag.replace('_', '-')} must be {span}, got {value}")
    try:
        return args.func(args)
    except DataError as e:
        return _fail(3, "data", e)
    except OSError as e:
        return _fail(3, "data", e)
    except NumericalError as e:
        return _fail(4, "numerical", e)
    except ValueError as e:
        return _fail(2, "usage", e)
    except MemoryError as e:
        return _fail(3, "data", f"not enough memory for this input: {e}")


if __name__ == "__main__":
    sys.exit(main())
