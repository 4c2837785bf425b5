"""Lint as a test: every name a package module imports is read in that module,
every module-level private function or class is read somewhere in the package,
every ``Tolerances`` field is read from a passed record, and only sdpcore
spells the names of the joint device's blocks; and a guard on what solving
imports."""
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
    """Lines of the f-strings that start ``g{`` or ``n{``, the way
    ``sdpcore.joint_problem`` names the joint device's blocks."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.JoinedStr) and len(node.values) > 1
                  and isinstance(node.values[0], ast.Constant) and node.values[0].value in ("g", "n")
                  and isinstance(node.values[1], ast.FormattedValue))


def test_scan_finds_joint_block_names():
    source = ('a = f"g{i}"\nb = f"n{k}_{x}"\nc = "g{i}"\nd = f"gap{i}"\n'
              'e = f"{g}"\nf = f"ng{i}"\ng = w[f"g{i}"] + f"{x:n}"\n')
    assert joint_block_names(source) == [1, 2, 7]


def test_only_sdpcore_names_joint_blocks():
    # the layout of a joint device on its outcome grid is sdpcore's alone:
    # other modules read it through sdpcore.joint_witness
    spelled = {p.name for p in SOURCES if joint_block_names(p.read_text(encoding="utf-8"))}
    assert spelled == {"sdpcore.py"}


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
