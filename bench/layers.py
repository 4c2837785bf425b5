"""Which library functions the traced run wraps, and the per-layer metrics.

Layers are the package modules.  The checks layer (``obscompat``,
``chancompat``, ``obschan``, ``steering``, ``process``) and ``devices`` get a
span for every public function; ``sdpcore`` gets spans for the solver,
witness verification, bisection, ``real_linear_map`` and
``SdpProblem.assemble``.  Vectorizations and partial traces in ``linalg`` and
the LAPACK calls ``eigh``, ``eigvalsh`` and ``svd`` are leaves.  ``cli``,
``serialize`` and ``config`` do no compute and are not measured.

A name is replaced in every package module that binds it, so a consumer's
own import (``obscompat.solve_feasibility``) is wrapped as well.
"""
from __future__ import annotations

import inspect
import statistics
import sys

import numpy as np

from spans import Patcher, Recorder, self_times

CHECK_MODULES = ("obscompat", "chancompat", "obschan", "steering", "process")
VERDICTS = ("FEASIBLE", "INFEASIBLE_CERTIFIED", "INFEASIBLE_HEURISTIC", "UNDECIDED")

SOLVE = "sdpcore.solve_feasibility"
VERIFY = "sdpcore.verify_witness"
BISECT = "sdpcore.bisect_threshold"
LINEAR_MAP = "sdpcore.real_linear_map"
ASSEMBLE = "sdpcore.SdpProblem.assemble"

LINALG_LEAVES = {
    "real_vec_to_hermitian": "linalg.vec_convert",
    "hermitian_to_real_vec": "linalg.vec_convert",
    "partial_trace": "linalg.partial_trace",
}
NUMPY_LEAVES = ("eigh", "eigvalsh", "svd")


def _on_solve(span, result):
    span.info = {"verdict": result.verdict.name, "iterations": result.iterations}


def _on_assemble(span, result):
    a, _ = result
    span.info = {"shape": list(a.shape)}


def instrument(pkg, rec: Recorder) -> Patcher:
    """Wrap the layer boundaries of the imported package ``pkg``; undo with ``restore()``."""
    bindings: dict[int, list] = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == pkg.__name__ or name.startswith(pkg.__name__ + ".")):
            for attr, value in vars(mod).items():
                bindings.setdefault(id(value), []).append((mod, attr))
    patcher = Patcher()

    def everywhere(fn, wrapper):
        for mod, attr in bindings.get(id(fn), ()):
            patcher.set(mod, attr, wrapper)

    sdpcore, devices = pkg.sdpcore, pkg.devices
    for attr, on_result in (("solve_feasibility", _on_solve), ("verify_witness", None),
                            ("bisect_threshold", None), ("real_linear_map", None)):
        fn = getattr(sdpcore, attr)
        everywhere(fn, rec.span_fn(f"sdpcore.{attr}", fn, on_result))
    patcher.set(sdpcore.SdpProblem, "assemble",
                rec.span_fn(ASSEMBLE, sdpcore.SdpProblem.assemble, _on_assemble))

    for layer in CHECK_MODULES + ("devices",):
        mod = getattr(pkg, layer)
        for attr in mod.__all__:
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                everywhere(fn, rec.span_fn(f"{layer}.{attr}", fn))
    for attr in devices.__all__:
        cls = getattr(devices, attr)
        if inspect.isclass(cls) and "__post_init__" in vars(cls):
            patcher.set(cls, "__post_init__",
                        rec.span_fn(f"devices.{attr}", vars(cls)["__post_init__"]))
    from_choi = vars(devices.Channel)["from_choi"].__func__
    patcher.set(devices.Channel, "from_choi",
                classmethod(rec.span_fn("devices.Channel.from_choi", from_choi)))

    for attr, leaf in LINALG_LEAVES.items():
        fn = getattr(pkg.linalg, attr)
        everywhere(fn, rec.leaf_fn(leaf, fn))
    for attr in NUMPY_LEAVES:
        patcher.set(np.linalg, attr, rec.leaf_fn(f"numpy.{attr}", getattr(np.linalg, attr)))
    return patcher


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans, as ``name -> (value, unit)``."""
    spans = rec.spans
    selfs = self_times(spans)
    # parents are recorded before their children, so one forward pass suffices
    in_solve, in_bisect = [], []
    for span in spans:
        up = span.parent
        in_solve.append(span.name == SOLVE or (up is not None and in_solve[up]))
        in_bisect.append(span.name == BISECT or (up is not None and in_bisect[up]))

    def leaf(name, where=lambda i: True):
        calls = secs = 0
        for i, span in enumerate(spans):
            entry = span.leaves.get(name)
            if entry is not None and where(i):
                calls += entry[0]
                secs += entry[1]
        return calls, secs

    def named(name):
        return [i for i, span in enumerate(spans) if span.name == name]

    solves = named(SOLVE)
    iters = [spans[i].info["iterations"] for i in solves]
    infeasible_iters = [spans[i].info["iterations"] for i in solves
                        if spans[i].info["verdict"] == "INFEASIBLE_CERTIFIED"]
    solve_self = sum(selfs[i] for i in solves)
    svd_in_solve = sum(spans[i].leaves.get("numpy.svd", (0, 0.0))[1] for i in solves)
    shapes = [spans[i].info["shape"] for i in named(ASSEMBLE)]
    bisects = named(BISECT)
    vec_calls, vec_s = leaf("linalg.vec_convert")
    root_vec = rec.root_leaves.get("linalg.vec_convert", (0, 0.0))
    pt_calls, pt_s = leaf("linalg.partial_trace")

    out = {
        "sdpcore.solves": (len(solves), "count"),
        "sdpcore.iterations": (sum(iters), "count"),
        "sdpcore.iters_p50": (_median(iters), "count"),
        "sdpcore.iters_max": (max(iters, default=0), "count"),
        "sdpcore.iters_infeasible_p50": (_median(infeasible_iters), "count"),
    }
    for verdict in VERDICTS:
        out[f"sdpcore.verdict.{verdict}"] = (
            sum(spans[i].info["verdict"] == verdict for i in solves), "count")
    out.update({
        "sdpcore.solve_self_s": (solve_self, "s"),
        "sdpcore.us_per_iter": ((solve_self - svd_in_solve) / sum(iters) * 1e6 if sum(iters) else 0.0,
                                "us"),
        "sdpcore.eigh_s": (leaf("numpy.eigh", lambda i: in_solve[i])[1], "s"),
        "sdpcore.eigvalsh_s": (leaf("numpy.eigvalsh", lambda i: in_solve[i])[1], "s"),
        "sdpcore.svd_s": (leaf("numpy.svd", lambda i: in_solve[i])[1], "s"),
        "sdpcore.assemble_s": (sum(spans[i].duration for i in named(ASSEMBLE)), "s"),
        "sdpcore.constraint_mb": (max((r * c * 8 / 2**20 for r, c in shapes), default=0.0),
                                  "MiB-computed"),
        "sdpcore.real_linear_map_s": (sum(spans[i].duration for i in named(LINEAR_MAP)), "s"),
        "sdpcore.real_linear_map.calls": (len(named(LINEAR_MAP)), "count"),
        "sdpcore.verify_witness_s": (sum(spans[i].duration for i in named(VERIFY)), "s"),
        "sdpcore.verify_witness.calls": (len(named(VERIFY)), "count"),
        "sdpcore.bisect.searches": (len(bisects), "count"),
        "sdpcore.bisect.probes": (sum(in_bisect[i] for i in solves), "count"),
        "sdpcore.bisect_s": (sum(spans[i].duration for i in bisects
                                 if spans[i].parent is None or not in_bisect[spans[i].parent]), "s"),
        "linalg.vec_convert_s": (vec_s + root_vec[1], "s"),
        "linalg.vec_convert.calls": (vec_calls + root_vec[0], "count"),
        "linalg.vec_convert.solve_s": (leaf("linalg.vec_convert", lambda i: in_solve[i])[1], "s"),
        "linalg.vec_convert.build_s": (
            leaf("linalg.vec_convert", lambda i: not in_solve[i])[1] + root_vec[1], "s"),
        "linalg.partial_trace_s": (pt_s, "s"),
        "linalg.partial_trace.calls": (pt_calls, "count"),
    })
    for layer in ("devices",) + CHECK_MODULES:
        idx = [i for i, span in enumerate(spans) if span.name.startswith(layer + ".")]
        out[f"{layer}.self_s"] = (sum(selfs[i] for i in idx), "s")
        out[f"{layer}.calls"] = (len(idx), "count")
    return out
