"""Command-line front end.

Subcommands: select (one selection run), cv (repeated k-fold grid),
synth (write a synthetic dataset), verify (bound checks), feature-freq
(selection frequency across CV folds).  All outputs are JSON tagged with
schema "margin-sparse/1".  Exit codes: 0 success, 2 usage error, 3 data
error, 4 numerical failure; failures emit an error JSON on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .errors import DataError, NumericalError
from .bss import bss_select
from .data import gen_synthetic, load_dataset, write_svmlight
from .geometry import augmented_right_basis, radius_bound_check
from .leverage import leverage_select
from .linalg import spectral_error
from .operators import SamplingOperator
from .pipelines import (METHODS, cv_experiment, feature_frequencies,
                        summarize_cv, supervised_select, unsupervised_select,
                        verify_margin_bound)

SCHEMA = "margin-sparse/1"
DEFAULT_R_GRID = (300, 400, 500)


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
    text = json.dumps(_jsonify(payload), indent=2) + "\n"
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


def cmd_select(args):
    t0 = time.perf_counter()
    rep = _run_selection(args)
    bounds = verify_margin_bound(rep)
    payload = {
        "schema": SCHEMA,
        "method": rep.method,
        "mode": rep.mode,
        "r": rep.r,
        "seed": rep.seed,
        "C": rep.C,
        "selected_indices": rep.selected_indices,
        "weights": rep.weights,
        "margin_full": rep.margin_full,
        "margin_sampled": rep.margin_sampled,
        "margin_sampled_full_data": rep.margin_sampled_full_data,
        "spectral_error": rep.spectral_error,
        "radius_full": rep.radius_full,
        "radius_sampled": rep.radius_sampled,
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
    stats = summarize_cv(cells)
    groups = {}
    for cell in cells:
        groups.setdefault((cell.method, cell.r), []).append(cell)
    rows = []
    for (method, r), stat in stats.items():
        grp = sorted(groups[(method, r)], key=lambda c: (c.repeat, c.fold))
        rows.append({
            "method": method,
            "r": r,
            "mean_error": stat["mean_error"],
            "std_error": stat["std_error"],
            "cells": stat["cells"],
            "skipped": stat["skipped"],
            "margins": [c.margin_sampled for c in grp if not c.skipped],
            "skipped_cells": [
                {"repeat": c.repeat, "fold": c.fold, "reason": c.reason}
                for c in grp if c.skipped
            ],
        })
    payload = {
        "schema": SCHEMA,
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
        "schema": SCHEMA,
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
        "schema": SCHEMA,
        "bound": "margin",
        "method": args.method,
        "mode": args.mode,
        "r": args.features,
        "seed": args.seed,
        "spectral_error": b.spectral_error,
        "margin_full": b.margin_full,
        "margin_sampled": b.margin_sampled,
        "radius_full": b.radius_full,
        "radius_sampled": b.radius_sampled,
        "margin_check": {"status": b.margin_status, "lhs": b.margin_lhs,
                         "rhs": b.margin_rhs},
        "ratio_check": {"status": b.ratio_status, "lhs": b.ratio_lhs,
                        "rhs": b.ratio_rhs, "epsilon": b.epsilon_hat},
    }


def _verify_radius(args):
    data = load_dataset(args.data)
    basis = augmented_right_basis(data.X, args.delta)
    if args.method == "bss":
        op = bss_select(basis.V, args.features)
    elif args.method == "leverage":
        op = leverage_select(basis.V, args.features, args.seed)
    else:
        raise ValueError("radius verification supports methods bss and leverage")
    chk = radius_bound_check(basis, op)
    return {
        "schema": SCHEMA,
        "bound": "radius",
        "method": args.method,
        "r": args.features,
        "seed": args.seed,
        "radius_full": chk.radius_full,
        "radius_sampled": chk.radius_sampled,
        "spectral_error": chk.spectral_error,
        "bound_value": chk.bound,
        "status": "pass" if chk.passed else "fail",
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
        "schema": SCHEMA,
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


def _add_common_selection_flags(p, need_data=True):
    if need_data:
        p.add_argument("--data", required=True, help="dataset path (svmlight or .csv)")
    p.add_argument("--method", default="bss", choices=list(METHODS))
    p.add_argument("--mode", default="supervised",
                   choices=["supervised", "unsupervised"])
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t", type=int, default=None,
                   help="sketch rows (approx-bss only)")
    p.add_argument("--chunk-fraction", dest="chunk_fraction", type=float,
                   default=0.1, help="rfe elimination fraction per round")
    p.add_argument("--kkt-tol", dest="kkt_tol", type=float, default=1e-4)
    p.add_argument("--delta", type=float, default=1e-3,
                   help="enclosing-ball approximation parameter")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="marginsparse",
        description="Margin-preserving feature selection for linear SVMs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("select", help="run one feature selection")
    _add_common_selection_flags(p)
    p.add_argument("--features", type=int, required=True, help="number r of features")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("cv", help="repeated k-fold cross-validation grid")
    _add_common_selection_flags(p)
    p.add_argument("--methods", default="bss",
                   help="comma-separated list (may include 'full')")
    p.add_argument("--features", type=int, nargs="*", default=None,
                   help=f"r grid (default {list(DEFAULT_R_GRID)})")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--no-full-baseline", action="store_true",
                   help="skip the no-selection baseline row")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("synth", help="write a synthetic dataset")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--d", type=int, default=1000)
    p.add_argument("--k", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="check a spectral/margin/radius bound")
    p.add_argument("--bound", required=True,
                   choices=["spectral", "margin", "radius"])
    p.add_argument("--l", type=int, default=8, help="columns of V (spectral)")
    p.add_argument("--d", type=int, default=100, help="rows of V (spectral)")
    p.add_argument("--r", dest="r", type=int, default=128,
                   help="selections per trial (spectral)")
    p.add_argument("--trials", type=int, default=50)
    _add_common_selection_flags(p, need_data=False)
    p.add_argument("--data", default=None,
                   help="dataset path (margin and radius bounds)")
    p.add_argument("--features", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("feature-freq",
                       help="selection frequency of each feature across CV folds")
    _add_common_selection_flags(p)
    p.add_argument("--features", type=int, default=None)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(func=cmd_feature_freq)

    return parser


def _fail(code, kind, exc):
    payload = {"schema": SCHEMA, "error": {"type": kind, "message": str(exc)}}
    sys.stderr.write(json.dumps(payload) + "\n")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "bound", None) in ("margin", "radius") and not args.data:
        parser.error("--data is required for margin/radius verification")
    if getattr(args, "bound", None) in ("margin", "radius") and args.features is None:
        parser.error("--features is required for margin/radius verification")
    if getattr(args, "bound", None) == "spectral":
        # V is d x l with orthonormal columns, so l cannot exceed d.
        if not 1 <= args.l <= args.d:
            parser.error(f"--l must be between 1 and --d ({args.d}), got {args.l}")
        if args.trials < 1:
            parser.error(f"--trials must be at least 1, got {args.trials}")
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


if __name__ == "__main__":
    sys.exit(main())
