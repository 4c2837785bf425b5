"""Command line front end.

Each subcommand loads device files, runs one of the feasibility checks
and reports the verdict on stdout.  Exit codes encode the outcome so
shell pipelines can branch on it: 0 feasible, 1 infeasible, 2 undecided,
3 malformed input or usage.  The ``reproduce`` subcommand regenerates the bundled
reference tables as deterministic CSV files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import chancompat as cc
from . import obschan as ocn
from . import obscompat as oc
from . import process as pt
from . import steering as st
from .config import DEFAULT_TOLS, Tolerances
from .devices import (Observable, cloner_marginal_coefficient, diag_channel,
                      fourier_pair, identity_channel, mub_qubit, sharp_observable,
                      werner_cloner)
from .sdpcore import NoiseClass, SolveResult, Verdict
from .serialize import load_device, serialize

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_UNDECIDED = 2
EXIT_MALFORMED = 3


def _tols(args) -> Tolerances:
    tols = DEFAULT_TOLS
    if args.tol is not None:
        tols = replace(tols, feas=args.tol)
    if args.max_iter is not None:
        tols = replace(tols, max_iter=args.max_iter)
    return tols


def _noise(args) -> NoiseClass:
    """The noise class ``--noise-mode`` names; "optimized" is trivial noise, optimized over."""
    return NoiseClass({"optimized": "trivial"}.get(args.noise_mode, args.noise_mode))


def _code(solve: SolveResult) -> int:
    """Exit code of a verdict: a witness exits 0, a certificate 1, anything else is undecided."""
    if solve.verdict is Verdict.FEASIBLE:
        return EXIT_FEASIBLE
    if solve.verdict is Verdict.INFEASIBLE_CERTIFIED:
        return EXIT_INFEASIBLE
    return EXIT_UNDECIDED


def _load(path, kinds) -> object:
    device = load_device(path)
    label = type(device).__name__.lower()
    if label not in kinds:
        raise ValueError(f"{path}: expected {' or '.join(kinds)}, got {label}")
    return device


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _solve_payload(solve: SolveResult) -> dict:
    return {
        "verdict": solve.verdict.name,
        "iterations": solve.iterations,
        "residual": float(solve.residual),
    }


def _solve_text(solve: SolveResult) -> str:
    return (f"{solve.verdict.name} (iterations={solve.iterations}, "
            f"residual={solve.residual:.3e})")


def _write_witness(args, device) -> None:
    if args.witness and device is not None:
        text = serialize(device)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
            print(f"witness written to {args.out}")
        else:
            sys.stdout.write(text)


def _parse_grid(spec: str, axes: int) -> np.ndarray:
    """The axis of an ``axes``-dimensional grid, once its point count is known to fit."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:count, got {spec!r}")
    a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1:
        raise ValueError("grid count must be positive")
    if n ** axes > 10_000:
        raise ValueError(f"{n ** axes} grid points exceed the supported 10000")
    return np.linspace(a, b, n)


# === subcommands =============================================================


def cmd_check_joint(args) -> int:
    observables = [_load(p, ("observable",)) for p in args.files]
    res = oc.check_joint(observables, _tols(args))
    _emit(args, _solve_payload(res.solve), _solve_text(res.solve))
    if res.joint is not None:
        _write_witness(args, res.joint.observable)
    return _code(res.solve)


def cmd_degree(args) -> int:
    observables = [_load(p, ("observable",)) for p in args.files]
    value = oc.degree_of_compatibility(observables, _noise(args), _tols(args))
    _emit(args, {"degree": value, "noise_mode": args.noise_mode}, f"degree {value:.6f}")
    return EXIT_FEASIBLE


def _region_rows(observables, grid, mode: NoiseClass, tols) -> list:
    """``(weights, verdict name)`` at every point of the product grid, in C order."""
    rows = []
    for weights in itertools.product(map(float, grid), repeat=len(observables)):
        res = oc.region_membership(observables, oc.NoiseSpec(weights, mode), tols)
        rows.append((weights, res.solve.verdict.name))
    return rows


def cmd_region(args) -> int:
    observables = [_load(p, ("observable",)) for p in args.files]
    grid = _parse_grid(args.grid, len(observables))
    rows = _region_rows(observables, grid, _noise(args), _tols(args))
    lines = ["weights,verdict"]
    lines += [",".join(f"{w:.6f}" for w in ws) + f",{v}" for ws, v in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"region written to {args.out}")
    elif args.json:
        print(json.dumps([{"weights": list(ws), "verdict": v} for ws, v in rows]))
    else:
        sys.stdout.write(text)
    return EXIT_FEASIBLE


def cmd_criteria(args) -> int:
    observables = [_load(p, ("observable",)) for p in args.files]
    tols = _tols(args)
    report = {}
    lines = []
    if len(observables) <= 4:
        jr = oc.jordan_criterion(observables)
        report["jordan"] = {"certified": jr.certified, "min_eigenvalue": jr.min_eigenvalue}
        lines.append(f"jordan: certified={jr.certified} min_eig={jr.min_eigenvalue:.6f}")
    pair_reports = []
    for i in range(len(observables)):
        for j in range(i + 1, len(observables)):
            cr = oc.commutator_criterion(observables[i], observables[j])
            pair_reports.append({"pair": [i, j], "certified": cr.certified,
                                 "lhs": cr.lhs, "rhs": cr.rhs})
            lines.append(f"commutator ({i},{j}): certified={cr.certified} "
                         f"lhs={cr.lhs:.6f} rhs={cr.rhs:.6f}")
    report["commutator"] = pair_reports
    if len(observables) >= 2:
        targets = observables[:2]
        approx = observables[2:4] if len(observables) >= 4 else targets
        mr = oc.mur_test(targets[0], targets[1], approx[0], approx[1])
        report["mur"] = {"certified": mr.certified, "lhs": mr.lhs, "rhs": mr.rhs}
        lines.append(f"mur: certified={mr.certified} lhs={mr.lhs:.6f} rhs={mr.rhs:.6f}")
    if args.weights:
        ws = [float(w) for w in args.weights.split(",")]
        sw = oc.squared_weight_criterion(ws)
        report["squared_weight"] = {"certified": sw}
        lines.append(f"squared-weight: certified={sw}")
    res = oc.check_joint(observables, tols)
    report["joint"] = _solve_payload(res.solve)
    lines.append(f"joint: {_solve_text(res.solve)}")
    _emit(args, report, "\n".join(lines))
    return _code(res.solve)


def cmd_channel_compat(args) -> int:
    chan_a = _load(args.files[0], ("channel",))
    chan_b = _load(args.files[1], ("channel",))
    tols = _tols(args)
    if args.noise_mode:
        value = cc.robustness(chan_a, chan_b, _noise(args), tols)
        _emit(args, {"robustness": value, "noise_mode": args.noise_mode},
              f"robustness {value:.6f}")
        return EXIT_FEASIBLE
    res = cc.check_channel_pair(chan_a, chan_b, tols)
    _emit(args, _solve_payload(res.solve), _solve_text(res.solve))
    _write_witness(args, res.joint)
    return _code(res.solve)


def cmd_obs_channel(args) -> int:
    obs = _load(args.files[0], ("observable",))
    chan = _load(args.files[1], ("channel",))
    res = ocn.check_obs_channel(obs, chan, _tols(args))
    _emit(args, _solve_payload(res.solve), _solve_text(res.solve))
    return _code(res.solve)


def cmd_steering(args) -> int:
    devices = [load_device(p) for p in args.files]
    tols = _tols(args)
    if len(devices) == 1 and isinstance(devices[0], st.Assemblage):
        res = st.check_lhs(devices[0], tols)
        _emit(args, _solve_payload(res.solve), _solve_text(res.solve))
        return _code(res.solve)
    if not all(isinstance(d, Observable) for d in devices):
        raise ValueError("steering needs one assemblage file or observable files")
    rep = st.steering_jm_crosscheck(devices, tols)
    payload = {"lhs": _solve_payload(rep.lhs.solve),
               "joint": _solve_payload(rep.joint.solve), "agree": rep.agree}
    text = (f"lhs: {_solve_text(rep.lhs.solve)}\n"
            f"joint: {_solve_text(rep.joint.solve)}\nagree: {rep.agree}")
    _emit(args, payload, text)
    return _code(rep.lhs.solve)


def cmd_process(args) -> int:
    t1 = _load(args.files[0], ("tester",))
    t2 = _load(args.files[1], ("tester",))
    rep = pt.commutation_vs_compat_report(t1, t2, _tols(args))
    payload = {"max_commutator": rep.max_commutator,
               "pair": _solve_payload(rep.pair.solve),
               "degree": rep.degree.value}
    text = (f"max commutator {rep.max_commutator:.3e}\n"
            f"pair: {_solve_text(rep.pair.solve)}\n"
            f"degree {rep.degree.value:.6f}")
    _emit(args, payload, text)
    return _code(rep.pair.solve)


def cmd_order(args) -> int:
    obs1 = _load(args.files[0], ("observable",))
    obs2 = _load(args.files[1], ("observable",))
    rep = oc.postprocessing_order(obs1, obs2, _tols(args))
    payload = {"below": rep.below, "residual": rep.residual, "solve": _solve_payload(rep.solve)}
    _emit(args, payload, f"below: {rep.below} (residual {rep.residual:.3e})\n"
                         f"solve: {_solve_text(rep.solve)}")
    return _code(rep.solve)


# === reproduction targets ====================================================


def _boundary_lam2(d: int, lam1: float) -> float:
    # largest lam2 in [0, 1] that oc.fourier_region_formula accepts: the larger
    # root of (c (lam1 + lam2) - e)^2 + c (lam1 - lam2)^2 = d, e with its slack
    c, e = d - 1, d - 2 + 1e-12
    half_b = c * ((d - 2) * lam1 - e)
    c0 = (c * lam1 - e) ** 2 + c * lam1 ** 2 - d
    root = (math.sqrt(half_b ** 2 - c * d * c0) - half_b) / (c * d)
    return min(max(root, 0.0), 1.0)


def _repro_fig4(outdir: Path, tols) -> list[Path]:
    curves = ["# seed=0", "d,lam1,lam2"]
    for d in (3, 100):
        for lam1 in np.linspace(0.0, 1.0, 200):
            curves.append(f"{d},{lam1:.6f},{_boundary_lam2(d, float(lam1)):.6f}")
    curves_path = outdir / "fig4_curves.csv"
    curves_path.write_text("\n".join(curves) + "\n", encoding="utf-8")

    grid = np.linspace(0.0, 1.0, 6)
    rows = _region_rows(fourier_pair(3), grid, NoiseClass.UNIFORM_NOISE, tols)
    lines = ["# seed=0", "lam1,lam2,verdict"]
    lines += [f"{w[0]:.6f},{w[1]:.6f},{v}" for w, v in rows]
    grid_path = outdir / "fig4_grid.csv"
    grid_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [curves_path, grid_path]


def _repro_pos_mom(outdir: Path, tols) -> list[Path]:
    lines = ["# seed=0", "d,degree"]
    for d in (2, 3, 4, 5):
        pair = fourier_pair(d)
        value = oc.degree_of_compatibility(pair, NoiseClass.TRIVIAL_NOISE, tols)
        lines.append(f"{d},{value:.6f}")
    path = outdir / "pos_mom_table.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [path]


def _repro_bc_bound(outdir: Path, tols) -> list[Path]:
    lines = ["# seed=7", "n,d,measured,expected"]
    for n, d in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
        cloner = werner_cloner(d, n)
        measured = cloner_marginal_coefficient(cloner, d, n)
        expected = (n + d) / (n * (1 + d))
        lines.append(f"{n},{d},{measured:.9f},{expected:.9f}")
    path = outdir / "bc_bound_table.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [path]


def _repro_mub(outdir: Path, tols) -> list[Path]:
    bx, by, bz = mub_qubit()
    lines = ["# seed=0", "family,joint_threshold,steering_threshold"]
    for name, obs in (("xz", (bx, bz)), ("xyz", (bx, by, bz))):
        tj = oc.degree_of_compatibility(obs, NoiseClass.UNIFORM_NOISE, tols)
        ts = st.steering_degree(obs, tols).value
        lines.append(f"{name},{tj:.6f},{ts:.6f}")
    path = outdir / "mub_thresholds.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [path]


def _repro_process_q(outdir: Path, tols) -> list[Path]:
    basis = sharp_observable(np.eye(2))
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    tm = pt.prepare_measure_tester(p0, basis)
    tn = pt.prepare_measure_tester(p1, basis)
    rep = pt.commutation_vs_compat_report(tm, tn, tols)
    lines = ["# seed=0", "max_commutator,verdict,degree",
             f"{rep.max_commutator:.3e},{rep.pair.solve.verdict.name},{rep.degree.value:.6f}"]
    path = outdir / "process_q.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [path]


def _repro_robustness(outdir: Path, tols) -> list[Path]:
    ident = identity_channel(2)
    dz = diag_channel(dim=2)
    lines = ["# seed=0", "pair,noise_class,value"]
    for name, pair in (("id,id", (ident, ident)), ("dephase,id", (dz, ident))):
        value = cc.robustness(pair[0], pair[1], cc.NoiseClass.ARBITRARY_NOISE, tols)
        lines.append(f"\"{name}\",arbitrary,{value:.6f}")
    path = outdir / "robustness.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [path]


REPRO_TARGETS = {
    "fig4": _repro_fig4,
    "pos-mom-table": _repro_pos_mom,
    "bc-bound-table": _repro_bc_bound,
    "mub-thresholds": _repro_mub,
    "process-q": _repro_process_q,
    "robustness": _repro_robustness,
}


def cmd_reproduce(args) -> int:
    outdir = Path(args.out) if args.out else Path.cwd()
    outdir.mkdir(parents=True, exist_ok=True)
    paths = REPRO_TARGETS[args.target](outdir, _tols(args))
    for p in paths:
        print(f"wrote {p}")
    return EXIT_FEASIBLE


# === parser ==================================================================


_FLAGS = {
    "--tol": dict(type=float, default=None, help="feasibility tolerance"),
    "--max-iter": dict(type=int, default=None, help="iteration cap"),
    "--json": dict(action="store_true", help="machine-readable output"),
    "--out": dict(default=None, help="output file or directory"),
    "--witness": dict(action="store_true", help="emit the feasibility witness"),
}


def _add_flags(sub: argparse.ArgumentParser, *names: str) -> None:
    """Register --tol, --max-iter and the named flags, each only where it is read."""
    for name in ("--tol", "--max-iter") + names:
        sub.add_argument(name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qincompat",
        description="Feasibility checks for joint measurability and its relatives.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-joint", help="joint measurability of observables")
    p.add_argument("files", nargs="+")
    _add_flags(p, "--json", "--witness", "--out")
    p.set_defaults(func=cmd_check_joint)

    p = sub.add_parser("degree", help="symmetric noise threshold of a family")
    p.add_argument("files", nargs="+")
    p.add_argument("--noise-mode", choices=("uniform", "optimized"), default="optimized")
    _add_flags(p, "--json")
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("region", help="compatibility region on a weight grid")
    p.add_argument("files", nargs="+")
    p.add_argument("--grid", required=True, metavar="A:B:N")
    p.add_argument("--noise-mode", choices=("uniform", "optimized"), default="uniform")
    _add_flags(p, "--json", "--out")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("criteria", help="analytic incompatibility criteria")
    p.add_argument("files", nargs="+")
    p.add_argument("--weights", default=None, help="comma-separated mixing weights")
    _add_flags(p, "--json")
    p.set_defaults(func=cmd_criteria)

    p = sub.add_parser("channel-compat", help="compatibility of two channels")
    p.add_argument("files", nargs=2)
    p.add_argument("--noise-mode", choices=("trivial", "compatible", "arbitrary"),
                   default=None, help="report noise robustness instead of a verdict")
    _add_flags(p, "--json", "--witness", "--out")
    p.set_defaults(func=cmd_channel_compat)

    p = sub.add_parser("obs-channel", help="joint realizability of observable and channel")
    p.add_argument("files", nargs=2)
    _add_flags(p, "--json")
    p.set_defaults(func=cmd_obs_channel)

    p = sub.add_parser("steering", help="local hidden state search")
    p.add_argument("files", nargs="+")
    _add_flags(p, "--json")
    p.set_defaults(func=cmd_steering)

    p = sub.add_parser("process", help="tester pair compatibility")
    p.add_argument("files", nargs=2)
    _add_flags(p, "--json")
    p.set_defaults(func=cmd_process)

    p = sub.add_parser("order", help="classical post-processing order")
    p.add_argument("files", nargs=2)
    _add_flags(p, "--json")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("reproduce", help="regenerate a reference table")
    p.add_argument("target", choices=sorted(REPRO_TARGETS))
    _add_flags(p, "--out")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which here would read as undecided
        return EXIT_MALFORMED if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    raise SystemExit(main())
