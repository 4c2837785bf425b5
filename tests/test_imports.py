"""Lint as a test: every name a package module imports is read in that module,
every module-level private function or class is read somewhere in the package,
every ``Tolerances`` field is read from a passed record, only sdpcore
spells the names of the joint device's and the factor's records, no other
module names a block or a witness key by an f-string, only sdpcore drives a
bisection, only ``sdpcore._certificate`` makes a certificate, only the
dense witness check assembles A, ``real_linear_map`` gains no caller,
only ``threshold_search`` calls ``solve_feasibility`` inside sdpcore,
only ``SdpProblem`` and ``_Data`` read a problem's layout, only
``devices`` mixes a device with noise, only sdpcore sets a ``MAX_*`` cap
or writes a problem, only the shared solve and search paths ask
``joint_problem`` and only ``postprocessing_order`` asks ``order_problem``;
and a guard on what solving imports."""
import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qincompat.config import Tolerances

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qincompat"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Imported names never loaded and not listed in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_scan_finds_unused_names():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from a import b, c as d, e\n__all__ = ['e']\nx: b = np.zeros(1)\n")
    assert unused_imports(source) == ["d", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_privates(sources: dict[str, str]) -> list[str]:
    """``module:name`` of each module-level private function or class that no
    module reads, by name, attribute or import."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return sorted(f"{module}:{name}" for module, name in defined if name not in read)


def test_scan_finds_dead_privates():
    sources = {
        "a": "def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\ndef public(): return _used()\n",
        "b": "from a import _shared\nimport a\nx = a._by_attr\n",
        "c": "def _shared(): pass\ndef _by_attr(): pass\nclass _Base: pass\nclass K(_Base): pass\n",
    }
    assert dead_privates(sources) == ["a:_Gone", "a:_dead"]


def test_package_reads_every_private_definition():
    assert dead_privates({p.stem: p.read_text(encoding="utf-8") for p in SOURCES}) == []


def defaults_only_fields(fields, sources: dict[str, str]) -> list[str]:
    """Fields never read as an attribute of anything but ``DEFAULT_TOLS``: a
    field no caller's record reaches is a module constant, not a setting."""
    read = set()
    for source in sources.values():
        read.update(node.attr for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and not (isinstance(node.value, ast.Name) and node.value.id == "DEFAULT_TOLS"))
    return sorted(set(fields) - read)


def test_scan_finds_defaults_only_fields():
    sources = {
        "a": "def f(tols):\n    return tols.feas + DEFAULT_TOLS.slack\n",
        "b": "x = DEFAULT_TOLS.cap\ny = (tols or DEFAULT_TOLS).step\nself.gone = 1\n",
    }
    assert defaults_only_fields(["feas", "slack", "cap", "step", "gone"], sources) == [
        "cap", "gone", "slack"]


def test_every_tolerance_field_is_read_from_a_passed_record():
    fields = [f.name for f in dataclasses.fields(Tolerances)]
    assert defaults_only_fields(fields, {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}) == []


def joint_block_names(source: str) -> list[int]:
    """Lines that spell the names ``sdpcore.joint_problem`` gives the joint
    device's records, or ``sdpcore.order_problem`` its factor's: the string ``"g"``
    or ``"factor"``, or an f-string that starts ``g{`` or ``n{``."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Constant) and node.value in ("g", "factor")
                   or isinstance(node, ast.JoinedStr) and len(node.values) > 1
                   and isinstance(node.values[0], ast.Constant) and node.values[0].value in ("g", "n")
                   and isinstance(node.values[1], ast.FormattedValue)})


def test_scan_finds_joint_block_names():
    source = ('a = f"g{i}"\nb = f"n{k}_{x}"\nc = "g{i}"\nd = f"gap{i}"\n'
              'e = f"{g}"\nf = f"ng{i}"\ng = w[f"g{i}"] + f"{x:n}"\n'
              'h = witness["g"]\ni = "g" in w\nj = w["gg"] + w[g] + w.g\n'
              'k = res.witness["factor"]\nm = w.factor + w["factors"]\n')
    assert joint_block_names(source) == [1, 2, 7, 8, 9, 11]


def test_only_sdpcore_names_joint_blocks():
    # the layout of a joint device on its outcome grid, and of an order question's
    # factor, is sdpcore's alone: other modules read them through sdpcore.joint_witness
    # and sdpcore.order_factor
    spelled = {p.name for p in SOURCES if joint_block_names(p.read_text(encoding="utf-8"))}
    assert spelled == {"sdpcore.py"}


def fstring_block_names(source: str) -> list[int]:
    """Lines that name a record by an f-string: the first argument of
    ``add_psd_block`` or ``add_scalar_block``, or a key of a ``witness``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) in ("add_psd_block", "add_scalar_block"):
            names = node.args[:1] + [k.value for k in node.keywords if k.arg == "name"]
            found.update(n.lineno for n in names if isinstance(n, ast.JoinedStr))
        elif (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.JoinedStr)
              and getattr(node.value, "id", getattr(node.value, "attr", None)) == "witness"):
            found.add(node.lineno)
    return sorted(found)


def test_scan_finds_fstring_block_names():
    source = ('p.add_psd_block(f"op{x}", 4, 1.0)\nadd_scalar_block(name=f"p{x}", length=2)\n'
              'r.witness[f"rec{y}"]\nwitness[f"n{k}"]\np.add_psd_block("op", 4, 1.0, lead=(3,))\n'
              'terms[f"op{x}"] = 1.0\nw[f"op{x}"]\nwitness["op"][x]\np.add_equality({f"e{x}": 1.0}, b)\n'
              'q.add_scalar_block(n, f"{m}")\n')
    assert fstring_block_names(source) == [1, 2, 3, 4]


def test_only_sdpcore_names_blocks_by_fstring():
    # an outcome-indexed device is one stack record, whose blocks are indexed,
    # not named one per outcome; sdpcore names the joint device's noise records
    spelled = [f"{p.name}:{line}" for p in SOURCES if p.name != "sdpcore.py"
               for line in fstring_block_names(p.read_text(encoding="utf-8"))]
    assert spelled == []


def bisection_calls(source: str) -> list[int]:
    """Lines that call ``bisect_threshold``, by name or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == "bisect_threshold")


def test_scan_finds_bisection_calls():
    source = ("from .sdpcore import bisect_threshold\nr = bisect_threshold(f, tol)\n"
              "s = sdpcore.bisect_threshold(f)\nt = threshold_search(build)\n"
              "u = bisect_threshold\nv = q.bisect_threshold_x(f)\n")
    assert bisection_calls(source) == [2, 3]


def test_only_sdpcore_drives_a_bisection():
    # every other threshold goes through sdpcore.threshold_search, which
    # factorizes its family once and hands the bisection certified upper ends
    calling = {p.name for p in SOURCES if bisection_calls(p.read_text(encoding="utf-8"))}
    assert calling == {"sdpcore.py"}


def certificate_makers(source: str) -> list[str]:
    """Sorted names of the innermost function around each call of
    ``Certificate``, by name or as an attribute; ``<module>`` for a call
    outside any function."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(
                    child.func, "id", getattr(child.func, "attr", None)) == "Certificate":
                found.append(where)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_scan_finds_certificate_makers():
    source = ("from .sdpcore import Certificate\nc = Certificate({}, 0.0, 0.0, y, 0.0)\n"
              "def _certificate(p):\n    return Certificate(p)\n"
              "class K:\n    def f(self):\n        def g():\n            return sdpcore.Certificate(1)\n"
              "        return g, Certificate\n"
              "def h():\n    return CertificateX(1), x.Certificate_(2)\n")
    assert certificate_makers(source) == ["<module>", "_certificate", "g"]


def test_only_one_function_makes_a_certificate():
    # every INFEASIBLE_CERTIFIED verdict carries multipliers that one check
    # validated from the assembled data; no other path may build one
    makers = [f"{p.stem}.{where}" for p in SOURCES for where in certificate_makers(p.read_text(encoding="utf-8"))]
    assert makers == ["sdpcore._certificate"]


def assemble_calls(source: str) -> list[str]:
    """Sorted places of each ``.assemble(`` call: the innermost function
    around it (``<module>`` outside any), then, after a colon, the test of
    the innermost ``if`` around it, as ``not (test)`` in its else branch."""
    found = []

    def visit(node, where, branch):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "assemble":
            found.append(f"{where}:{branch}" if branch else where)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where, branch = node.name, None
        if isinstance(node, ast.If):
            test = ast.unparse(node.test)
            visit(node.test, where, branch)
            for child in node.body:
                visit(child, where, test)
            for child in node.orelse:
                visit(child, where, f"not ({test})")
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, where, branch)

    visit(ast.parse(source), "<module>", None)
    return sorted(found)


def test_scan_finds_assemble_calls():
    source = ("x = p.assemble()\n"
              "def verify_witness(p, constraints=None):\n"
              "    if constraints is None:\n        a, b = p.assemble()\n"
              "    else:\n        a = p.assemble()\n"
              "    if constraints is None and p:\n        q = p.assemble\n"
              "    return p.assemble_x(), assemble(p)\n"
              "def f(p):\n    def g():\n        if constraints is None:\n            return p.assemble()\n"
              "    return sdpcore.SdpProblem.assemble(p)\n")
    assert assemble_calls(source) == ["<module>", "f", "g:constraints is None",
                                      "verify_witness:constraints is None",
                                      "verify_witness:not (constraints is None)"]


def test_only_the_dense_witness_check_assembles():
    # the solve path reads A's triplets; the dense A is the reference of
    # verify_witness, and of nothing else
    places = [f"{p.stem}.{where}" for p in SOURCES for where in assemble_calls(p.read_text(encoding="utf-8"))]
    assert places == ["sdpcore.verify_witness"]


def calls_by_function(source: str, name: str) -> list[str]:
    """Sorted names of the module-level function or class around each call of
    ``name``, by name or as an attribute; ``<module>`` for a call outside any."""
    found = []
    for node in ast.parse(source).body:
        where = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else "<module>"
        found += [where for call in ast.walk(node) if isinstance(call, ast.Call)
                  and getattr(call.func, "id", getattr(call.func, "attr", None)) == name]
    return sorted(found)


def test_scan_finds_calls_by_function():
    source = ("from .sdpcore import solve\nr = solve(p)\n"
              "def search(f):\n    def probe(lam):\n        return solve(f(lam))\n    return probe\n"
              "class K:\n    def m(self):\n        return sdpcore.solve(self.p), solve\n"
              "def other():\n    return solver(1), x.solve_it(2)\n")
    assert calls_by_function(source, "solve") == ["<module>", "K", "search"]


def test_real_linear_map_gains_no_caller():
    # the probed map costs in_dim calls of a dense basis slice; triplets written
    # from indices replace it, and the two callers left are to go the same way
    callers = [f"{p.stem}.{where}" for p in SOURCES
               for where in calls_by_function(p.read_text(encoding="utf-8"), "real_linear_map")]
    assert callers == ["obschan.rank1_channel_form_check", "sdpcore._compose_map"]


def noise_mixers(sources: dict[str, str]) -> list[str]:
    """Sorted modules that call ``mix_with_trivial``, by name or as an attribute."""
    return sorted(module for module, source in sources.items() if calls_by_function(source, "mix_with_trivial"))


def test_scan_finds_noise_mixers():
    sources = {"a": "from .devices import mix_with_trivial\nx = [mix_with_trivial(o, w) for o in f]\n",
               "b": "def f(o):\n    return lambda w: devices.mix_with_trivial(o, w)\n",
               "c": "from .devices import mix_with_trivial\n__all__ = ['mix_with_trivial']\ny = mix_with_trivial\n",
               "d": "z = q.mix_with_trivial_x(o)\n"}
    assert noise_mixers(sources) == ["a", "b"]


def test_only_devices_mixes_noise():
    # every noisy question is one joint_problem call, which writes its noise; a module
    # that mixed devices first would answer in a second noise vocabulary
    mixers = noise_mixers({p.stem: p.read_text(encoding="utf-8") for p in SOURCES})
    assert set(mixers) <= {"devices"}


def joint_question_askers(sources: dict[str, str]) -> list[str]:
    """Sorted ``module.where`` of each call of ``joint_problem`` outside sdpcore,
    ``where`` the module-level function or class around it."""
    return sorted(f"{module}.{where}" for module, source in sources.items() if module != "sdpcore"
                  for where in calls_by_function(source, "joint_problem"))


def test_scan_finds_joint_question_askers():
    sources = {"sdpcore": "def threshold_search(build):\n    return joint_problem(m)\n",
               "a": "from .sdpcore import joint_problem\ndef _decide(m):\n    return solve(joint_problem(m))\n"
                    "def _search(m):\n    return lambda lam: sdpcore.joint_problem(m, (lam,))\nask = joint_problem\n",
               "b": "x = joint_problem_x(1)\ndef f():\n    return q.joint_problems\n"}
    assert joint_question_askers(sources) == ["a._decide", "a._search"]


def test_device_margins_are_written_in_one_place():
    # obscompat.margins_of writes the margins of observables, channels and
    # instruments, the tester, assemblage and state layouts keep their own, and
    # every check and search hands them to one solve path and one search path
    askers = joint_question_askers({p.stem: p.read_text(encoding="utf-8") for p in SOURCES})
    assert askers == ["obscompat._decide", "obscompat._search"]


def test_order_questions_are_asked_in_one_place():
    # obscompat.postprocessing_order lays out an order question's pair by margins_of
    # and asks sdpcore.order_problem; channel division and sequential recovery call it
    askers = sorted(f"{p.stem}.{where}" for p in SOURCES if p.name != "sdpcore.py"
                    for where in calls_by_function(p.read_text(encoding="utf-8"), "order_problem"))
    assert askers == ["obscompat.postprocessing_order"]


def test_only_sdpcore_writes_a_problem():
    # every question builds through sdpcore.joint_problem or sdpcore.order_problem
    writers = [f"{p.stem}.{where}" for p in SOURCES if p.name != "sdpcore.py"
               for where in calls_by_function(p.read_text(encoding="utf-8"), "SdpProblem")]
    assert writers == []


def test_only_threshold_search_solves_inside_sdpcore():
    # a face's problem runs through the solve loop itself, so one question is
    # one solve_feasibility call; only a threshold search makes one per probe
    source = (PACKAGE / "sdpcore.py").read_text(encoding="utf-8")
    assert calls_by_function(source, "solve_feasibility") == ["threshold_search"]


LAYOUT = ("_blocks", "_chunks", "_rhs", "_pieces", "_layout")


def layout_reads(source: str) -> list[str]:
    """Sorted ``where.field`` of each read of a problem's layout fields ``LAYOUT`` as an
    attribute, ``where`` the module-level function or class around it; a write is no read."""
    found = []
    for node in ast.parse(source).body:
        where = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else "<module>"
        found += [f"{where}.{n.attr}" for n in ast.walk(node)
                  if isinstance(n, ast.Attribute) and n.attr in LAYOUT and isinstance(n.ctx, ast.Load)]
    return sorted(found)


def test_scan_finds_layout_reads():
    source = ("class SdpProblem:\n    def f(self):\n        self._rhs.append(1)\n        return self._blocks\n"
              "def g(p):\n    p._rhs = [1]\n    return p._pieces[0], p.blocks, p._rhs_x\n"
              "class _Projector:\n    def at(self, m):\n        m._rhs = []\n        return len(m._chunks)\n"
              "n = len(q._blocks)\n"
              "class _Data:\n    def f(self, p):\n        self._layout = p._frozen()\n        return self._layout.coo\n"
              "def h(data):\n    return data._layout.factorization, data.layout\n")
    assert layout_reads(source) == ["<module>._blocks", "SdpProblem._blocks", "SdpProblem._rhs",
                                    "_Data._layout", "_Projector._chunks", "g._pieces", "h._layout"]


def test_only_the_problem_and_its_data_read_the_layout():
    # _Data groups the cones and row groups once; every check, step and the face read
    # it, so a change of the record layout is made in two places only.  The shared
    # layout (_layout), with its read-only arrays and factorization, stays there too
    source = (PACKAGE / "sdpcore.py").read_text(encoding="utf-8")
    assert [read for read in layout_reads(source) if read.split(".")[0] not in ("SdpProblem", "_Data")] == []


def cap_constants(source: str) -> list[str]:
    """Sorted ``MAX_*`` names that a source assigns at module level, outside any
    function or class body."""
    names, todo = [], list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            names += [n.id for t in getattr(node, "targets", [getattr(node, "target", None)]) for n in ast.walk(t)
                      if isinstance(n, ast.Name) and n.id.startswith("MAX_")]
        todo.extend(ast.iter_child_nodes(node))
    return sorted(names)


def test_scan_finds_cap_constants():
    source = ("MAX_STRATEGIES = 4096\nMAX_A: int = 1\nMAX_B, x = 2, 3\nMAX_C += 1\n"
              "from .sdpcore import MAX_BLOCK_SIDE\nfrom .a import MAX_D as MAX_E\n"
              "def f():\n    MAX_LOCAL = 3\nclass K:\n    MAX_K = 1\ny = MAX_BLOCK_SIDE\n_MAX_Z = 2\n"
              "if y:\n    MAX_F = 1\n")
    assert cap_constants(source) == ["MAX_A", "MAX_B", "MAX_C", "MAX_F", "MAX_STRATEGIES"]


def test_only_sdpcore_sets_a_cap():
    # joint_problem is the one gate of every joint question: a module that kept a cap
    # of its own would refuse, or admit, what the gate does not
    caps = [f"{p.stem}.{name}" for p in SOURCES if p.name != "sdpcore.py"
            for name in cap_constants(p.read_text(encoding="utf-8"))]
    assert caps == []


def test_solving_leaves_numpy_ma_unimported():
    # numpy.ma costs about 10 ms and 1.7 MB on first import (np.unique loads
    # it); a cold process that decides a joint family and a channel pair must
    # not pay for it
    code = ("import sys\nimport qincompat as q\nx, _, z = q.mub_qubit()\n"
            "assert q.check_joint([x, z]).verdict is q.Verdict.INFEASIBLE_CERTIFIED\n"
            "assert q.check_channel_pair(q.identity_channel(2), q.depolarizing_channel(2)).feasible\n"
            "print('numpy.ma' in sys.modules)\n")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
