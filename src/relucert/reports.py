"""The report document: a fixed-order JSON text that round-trips exactly.

Floats are printed with 17 significant digits, enough to reproduce every
IEEE double bit-for-bit on re-parse; key order and formatting are fixed so
identical runs emit byte-identical reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .frames import TOL_RANK, TOL_UNIT, TOL_ZERO_ROW
from .layer import TOL_ACTIVE, TOL_MARGIN, VERIFY_TOL
from .polytope import TOL_INTERIOR, TOL_PLANE
from .solvers import TOL_SOLVER

SCHEMA = "relucert-report/1"
UNCONSTRAINED_SENTINEL = "unconstrained"

TOLERANCES = {
    "unit_row": TOL_UNIT,
    "zero_row": TOL_ZERO_ROW,
    "rank": TOL_RANK,
    "plane": TOL_PLANE,
    "interior": TOL_INTERIOR,
    "solver": TOL_SOLVER,
    "active": TOL_ACTIVE,
    "margin": TOL_MARGIN,
    "reconstruction": VERIFY_TOL,
}


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float reached the report writer")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def render(value) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    # floats, null and strings first: the items of the mixed (alpha) lists
    if type(value) is float:
        return _fmt_float(value)
    if value is None:
        return "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)  # json.dumps' own string encoder
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, dict):
        inner = ", ".join(f"{render(str(k))}: {render(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + _render_items(value) + "]"
    raise TypeError(f"cannot render {type(value).__name__} into a report")


def _render_items(values) -> str:
    """The items of a list, comma-separated. A list of Python floats, of
    Python ints (not bools) or of lists of ints is rendered with no call per
    item; any other list item by item."""
    kinds = set(map(type, values))
    if kinds == {float}:
        if not all(map(math.isfinite, values)):
            raise ValueError("non-finite float reached the report writer")
        if 0.0 in values:
            values = [v + 0.0 for v in values]  # normalize -0.0
        return ", ".join(["%.17g"] * len(values)) % tuple(values)
    if kinds == {int}:
        return ", ".join(map(str, values))
    if kinds <= {list, tuple} and set(map(type, chain.from_iterable(values))) <= {int}:
        return repr(list(map(list, values)))[1:-1]  # int lists: their repr is their JSON
    return ", ".join(map(render, values))


@dataclass(frozen=True)
class Report:
    document: dict

    def to_text(self) -> str:
        return render(self.document) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Report":
        return cls(json.loads(text))


def alpha_entries(values: np.ndarray, unconstrained: np.ndarray) -> list:
    """Alpha array for the report: floats, the unconstrained sentinel, or
    null where an entry was not computed (NaN)."""
    out = np.asarray(values, dtype=float).tolist()
    for i in np.flatnonzero(unconstrained | np.isnan(values)).tolist():
        out[i] = UNCONSTRAINED_SENTINEL if unconstrained[i] else None
    return out


def build_report(*, command: str, version: str, domain: str, radius: float,
                 frame, norms, rescaled_bias, poly, omnidirectional: bool,
                 positive_report, estimate, stability_report, certificate,
                 solver_tol: float) -> Report:
    """Assemble the full analysis document in its fixed field order."""
    free = estimate.unconstrained_mask
    doc = {
        "schema": SCHEMA,
        "tool": {"name": "relucert", "version": version},
        "command": command,
        "domain": domain,
        "radius": float(radius),
        "input": {
            "rows": frame.m,
            "cols": frame.n,
            "fingerprint": frame.fingerprint(),
            "row_norms": np.asarray(norms, dtype=float).tolist(),
            "rescaled_bias": (None if rescaled_bias is None
                              else np.asarray(rescaled_bias, dtype=float).tolist()),
        },
        "polytope": {
            "full_dimensional": bool(poly.full_dimensional),
            "omnidirectional": bool(omnidirectional),
            "num_facets": poly.num_facets,
            "facet_vertices": poly.vertices,
            "nonneg": None if positive_report is None else {
                "facet_indices": positive_report.facet_indices,
                "vertex_indices": positive_report.vertex_indices,
                "nonneg_omnidirectional": bool(positive_report.nonneg_omnidirectional),
            },
        },
        "bias_estimate": {
            "alpha_X": alpha_entries(estimate.alpha_X, free),
            "alpha_S": alpha_entries(estimate.alpha_S, free),
            "alpha_B": alpha_entries(estimate.alpha_B, free),
            "alpha_scaled": alpha_entries(estimate.alpha_scaled, free),
            "unconstrained_indices": np.flatnonzero(free).tolist(),
        },
        "stability": None if stability_report is None else {
            "A0": stability_report.A0,
            "A0_note": "certified lower bound over facet sub-frames",
            "B0": stability_report.B0,
            "image_radius": stability_report.image_radius,
        },
        "certificate": None if certificate is None else {
            "injective": bool(certificate.injective),
            "margins": [None if math.isinf(v) else v
                        for v in np.asarray(certificate.margins, dtype=float).tolist()],
            "failing_indices": certificate.failing_indices,
            "estimate": certificate.estimate_ref,
        },
        "tolerances": dict(TOLERANCES) | {"solver": float(solver_tol)},
    }
    return Report(doc)

