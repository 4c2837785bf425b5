"""Canonical JSON files for devices.

Every device kind round-trips through one flat JSON schema: complex
entries are [re, im] pairs, matrices are nested row-major lists, and the
canonical text form (sorted keys, two-space indent, trailing newline) is
byte-stable, so serializing a parsed file reproduces it exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .devices import Channel, Observable, State
from .process import Tester
from .steering import Assemblage

__all__ = [
    "serialize",
    "parse",
    "save_device",
    "load_device",
    "to_json_obj",
    "from_json_obj",
]

Device = State | Observable | Channel | Tester | Assemblage


def _enc(mat: np.ndarray) -> list:
    """Nested row-major lists with [re, im] leaves."""
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim == 2:
        return [[[float(z.real), float(z.imag)] for z in row] for row in arr]
    return [_enc(sub) for sub in arr]


def _dec(obj, depth: int) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix data: {exc}") from None
    if arr.ndim != depth + 3 or arr.shape[-1] != 2:
        raise ValueError(f"matrix data has shape {arr.shape}, expected [re, im] leaves")
    return arr[..., 0] + 1j * arr[..., 1]


def _dec_outcomes(obj):
    if obj is None:
        return None
    if not isinstance(obj, list):
        raise ValueError(f"outcomes must be a list, not {obj!r}")
    return tuple(tuple(o) if isinstance(o, list) else o for o in obj)


def to_json_obj(device: Device) -> dict:
    """Plain-JSON dictionary for one device."""
    if isinstance(device, State):
        return {"kind": "state", "dim": device.dim, "matrix": _enc(device.matrix)}
    if isinstance(device, Observable):
        return {"kind": "observable", "dim": device.dim,
                "effects": _enc(device.effects), "outcomes": list(device.outcomes)}
    if isinstance(device, Channel):
        return {"kind": "channel", "in_dim": device.in_dim, "out_dim": device.out_dim,
                "kraus": _enc(device.kraus)}
    if isinstance(device, Tester):
        return {"kind": "tester", "in_dim": device.in_dim, "out_dim": device.out_dim,
                "effects": _enc(device.effects), "outcomes": list(device.outcomes)}
    if isinstance(device, Assemblage):
        return {"kind": "assemblage", "dim": device.dim, "blocks": _enc(device.blocks)}
    raise ValueError(f"cannot serialize {type(device).__name__}")


def from_json_obj(obj: dict) -> Device:
    """Device from a plain-JSON dictionary; raises ValueError when malformed."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("device file must be an object with a 'kind' field")
    kind = obj["kind"]
    for name in ("dim", "in_dim", "out_dim"):
        if name in obj and (isinstance(obj[name], bool) or not isinstance(obj[name], int)):
            raise ValueError(f"{name} must be an integer, not {obj[name]!r}")
    try:
        if kind == "state":
            mat = _dec(obj["matrix"], 0)
            if mat.shape[0] != obj["dim"]:
                raise ValueError(f"dim {obj['dim']} does not match matrix shape {mat.shape}")
            return State(mat)
        if kind == "observable":
            eff = _dec(obj["effects"], 1)
            if eff.shape[1] != obj["dim"]:
                raise ValueError(f"dim {obj['dim']} does not match effect shape {eff.shape}")
            return Observable(eff, _dec_outcomes(obj.get("outcomes")))
        if kind == "channel":
            kraus = _dec(obj["kraus"], 1)
            if kraus.shape[1:] != (obj["out_dim"], obj["in_dim"]):
                raise ValueError(f"dims ({obj['in_dim']}, {obj['out_dim']}) do not match "
                                 f"kraus shape {kraus.shape}")
            return Channel(kraus)
        if kind == "tester":
            eff = _dec(obj["effects"], 1)
            return Tester(eff, obj["in_dim"], obj["out_dim"], _dec_outcomes(obj.get("outcomes")))
        if kind == "assemblage":
            blocks = _dec(obj["blocks"], 2)
            if blocks.shape[2] != obj["dim"]:
                raise ValueError(f"dim {obj['dim']} does not match block shape {blocks.shape}")
            return Assemblage(blocks)
    except KeyError as exc:
        raise ValueError(f"device file is missing field {exc}") from None
    raise ValueError(f"unknown device kind {kind!r}")


def serialize(device: Device) -> str:
    """Canonical JSON text; stable under parse/serialize round trips."""
    return json.dumps(to_json_obj(device), indent=2, sort_keys=True, allow_nan=False) + "\n"


def parse(text: str) -> Device:
    """Device from JSON text."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    return from_json_obj(obj)


def save_device(device: Device, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(device))


def load_device(path) -> Device:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())
