"""JSON encoding of the toolkit's values.

One fixed wire format so reports can be diffed byte for byte: rationals as
{"num", "den"} objects (plain ints where a value is integral by type),
root coordinates as integer lists, and `dumps` with sorted keys and a
trailing newline.  Parsers accept exactly what the encoders emit; schemas
for the CLI outputs live under schemas/ next to this module.
"""

from __future__ import annotations

import json
from fractions import Fraction as Q
from typing import Sequence

from .apartment import AffineWeylElement, EnclosedSet, HalfApartment
from .errors import MasureError
from .heckepath import BreakpointCheck, GrowthReport, PLPath
from .kmcore import (
    RootGeneratingSystem,
    Root,
    WeylElement,
    default_realization,
    enumerate_real_roots,
    realization,
    validate_matrix,
)


def rational_to_json(x) -> dict:
    x = Q(x)
    return {"num": x.numerator, "den": x.denominator}


def rational_from_json(obj) -> Q:
    if isinstance(obj, int):
        return Q(obj)
    return Q(obj["num"], obj["den"])


def vector_to_json(v: Sequence) -> list:
    return [rational_to_json(c) for c in v]


def vector_from_json(obj) -> tuple[Q, ...]:
    return tuple(rational_from_json(c) for c in obj)


def rgs_from_json(obj) -> RootGeneratingSystem:
    matrix = validate_matrix(obj["matrix"])
    real = obj.get("realization")
    if real is None:
        return default_realization(matrix)
    return realization(
        matrix,
        [vector_from_json(c) for c in real["coroots"]],
        [vector_from_json(f) for f in real["forms"]],
    )


def root_to_json(root: Root) -> dict:
    return {"coords": list(root.coords), "word": list(root.word), "base": root.base}


def root_from_json(rgs: RootGeneratingSystem, obj, height_bound: int) -> Root:
    coords = tuple(obj["coords"])
    for root in enumerate_real_roots(rgs, height_bound):
        if root.coords == coords:
            return root
    raise MasureError(f"no real root with coordinates {coords} within height {height_bound}")


def half_to_json(half: HalfApartment) -> dict:
    out = {"root": list(half.root.coords), "level": half.level}
    if half.strict:
        out["strict"] = True
    return out


def enclosed_to_json(enclosed: EnclosedSet) -> dict:
    out = {
        "empty": enclosed.is_empty,
        "halves": [half_to_json(h) for h in enclosed.halves],
        "exact": enclosed.exact,
    }
    if enclosed.truncated_at is not None:
        out["truncated_at"] = enclosed.truncated_at
    return out


def weyl_to_json(w: WeylElement) -> dict:
    return {"word": list(w.word)}


def affine_weyl_to_json(g: AffineWeylElement) -> dict:
    return {
        "word": list(g.linear.word),
        "translation": vector_to_json(g.translation),
    }


def path_to_json(path: PLPath) -> dict:
    return {
        "times": [rational_to_json(t) for t in path.times],
        "points": [vector_to_json(p) for p in path.points],
    }


def path_from_json(obj) -> PLPath:
    return PLPath(
        tuple(rational_from_json(t) for t in obj["times"]),
        tuple(vector_from_json(p) for p in obj["points"]),
    )


def breakpoint_to_json(bp: BreakpointCheck) -> dict:
    out = {
        "time": rational_to_json(bp.time),
        "left": vector_to_json(bp.left),
        "right": vector_to_json(bp.right),
        "status": bp.status,
    }
    if bp.witness is not None:
        out["witness"] = list(bp.witness)
    if bp.note:
        out["note"] = bp.note
    return out


def growth_report_to_json(report: GrowthReport) -> dict:
    out = {
        "verdict": report.verdict,
        "breakpoints": [breakpoint_to_json(b) for b in report.breakpoints],
        "orbit_condition": report.orbit_condition,
        "monotone_chain": report.monotone_chain,
        "endpoint_inequality": report.endpoint_inequality,
        "strictness": report.strictness,
        "endpoint_comparison": report.endpoint_comparison,
        "exact": report.exact,
    }
    if report.first_offense is not None:
        out["first_offense"] = rational_to_json(report.first_offense)
    return out


def certificate_to_json(value):
    """Certificates carry heterogeneous witnesses; encode by type."""
    if isinstance(value, EnclosedSet):
        return enclosed_to_json(value)
    if isinstance(value, AffineWeylElement):
        return affine_weyl_to_json(value)
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, Q):
        return rational_to_json(value)
    if isinstance(value, (tuple, list)):
        return [certificate_to_json(v) for v in value]
    raise TypeError(f"no JSON encoding for certificate value {value!r}")


def verification_report_to_json(report) -> dict:
    return {
        "verdict": report.verdict,
        "trials": report.trials,
        "checks": [
            {"name": c.name, "verdict": c.verdict, "detail": c.detail}
            for c in report.checks
        ],
        "certificates": [
            {"name": name, "value": certificate_to_json(value)}
            for name, value in report.certificates
        ],
    }


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
