"""The report document: a fixed-order JSON text that round-trips exactly.

Floats are printed with 17 significant digits, enough to reproduce every
IEEE double bit-for-bit on re-parse; key order and formatting are fixed so
identical runs emit byte-identical reports.

Each list is written with no call per entry. `build_report` keeps the
facet vertex lists and the alpha and margin lists in the form they come
from, and `render` writes each by one format operation: the facet vertex
lists (`IntLists`, the incidence table's flat columns) by one `%d`
template per facet size; the alpha and margin lists (`Entries`, a float
array with a code per entry for the `"unconstrained"` and `null` literals)
by one `%.17g` format of their finite entries, placed among the literals
by one template. A plain list of floats is written by one `%.17g`
template, a plain list of ints by one `%d` template, and any other list
item by item, each item in the format those paths give it. So a parsed
report, whose document is plain JSON, renders to the same text:
`Report.from_text(t).to_text() == t`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .errors import FrameMismatch
from .frames import TOL_RANK, TOL_UNIT, TOL_ZERO_ROW
from .hull import TOL_PLANE
from .layer import TOL_ACTIVE, TOL_MARGIN, VERIFY_TOL, _estimate_ref
from .pbe import DOMAIN_BALL_POSITIVE
from .polytope import TOL_INTERIOR, is_omnidirectional, nonzero_2d
from .solvers import TOL_SOLVER

SCHEMA = "relucert-report/1"
UNCONSTRAINED_SENTINEL = "unconstrained"
_SENTINEL_JSON = encode_basestring_ascii(UNCONSTRAINED_SENTINEL)

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


@dataclass(frozen=True)
class Entries:
    """A list of floats with JSON literals in place of some entries, as the
    alpha and margin lists come from their arrays: entry i is the float
    `values[i]` where `codes[i]` is 0, else the JSON text
    `literals[codes[i] - 1]`."""

    values: np.ndarray  # float
    codes: np.ndarray  # int
    literals: tuple = ()


@dataclass(frozen=True)
class IntLists:
    """A list of int lists held flat, as the facet vertex lists come from
    the incidence table: list i is the next `lengths[i]` items of `flat`."""

    lengths: list
    flat: list


def render(value) -> str:
    """Deterministic JSON with 17-significant-digit floats. Takes JSON
    values, numpy arrays and scalars, `Entries` and `IntLists`."""
    if type(value) is float:
        return _float_items([value + 0.0])  # + 0.0 normalizes -0.0
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
        return _float_items([float(value) + 0.0])
    if isinstance(value, dict):
        inner = ", ".join([f"{encode_basestring_ascii(str(k))}: {render(v)}"
                           for k, v in value.items()])
        return "{" + inner + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + _render_items(value) + "]"
    if isinstance(value, Entries):
        return "[" + _render_entries(value.values, value.codes, value.literals) + "]"
    if isinstance(value, IntLists):
        return "[" + _render_int_lists(value.lengths, value.flat) + "]"
    raise TypeError(f"cannot render {type(value).__name__} into a report")


def _render_items(values) -> str:
    """The items of a list, comma-separated. A list of floats or of ints is
    rendered with no call per item; any other list item by item."""
    kind_set = set(map(type, values))
    if kind_set == {float}:
        return _float_items([v + 0.0 for v in values] if 0.0 in values else values)
    if kind_set <= {int}:
        return ", ".join(["%d"] * len(values)) % tuple(values)
    return ", ".join(map(render, values))


def _render_entries(values: np.ndarray, codes: np.ndarray, literals: tuple) -> str:
    """Floats and literals: one `%.17g` format of the floats, then one
    template that holds the literals (`%` escaped), placed by their codes."""
    floats = _float_items((values[codes == 0] + 0.0).tolist())  # + 0.0 normalizes -0.0
    if not codes.any():
        return floats
    pieces = np.array(["%s", *(text.replace("%", "%%") for text in literals)], dtype=object)
    return ", ".join(pieces[codes].tolist()) % tuple(floats.split(", ") if floats else ())


def _float_items(floats: list) -> str:
    """Floats, comma-separated, by one `%.17g` format. ValueError if one is
    not finite: "%.17g" prints inf and nan, and no "n" for a finite float."""
    text = ", ".join(["%.17g"] * len(floats)) % tuple(floats)
    if "n" in text:
        raise ValueError("non-finite float reached the report writer")
    return text


def _render_int_lists(lengths: list, flat: list) -> str:
    """Int lists from their lengths and flat items: one `%d` template per
    list length, one %-format over every item."""
    templates = {k: "[" + ", ".join(["%d"] * k) + "]" for k in set(lengths)}
    return ", ".join(map(templates.__getitem__, lengths)) % tuple(flat)


@dataclass(frozen=True)
class Report:
    """A report document. From `build_report`, `facet_vertices` is an
    `IntLists` and the alpha and margin lists are `Entries`, everything else
    JSON values; parsed by `from_text`, the whole document is plain JSON
    (`Report.from_text(r.to_text()).document` for a built report `r`)."""

    document: dict

    def to_text(self) -> str:
        return render(self.document) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Report":
        return cls(json.loads(text))


def alpha_entries(values: np.ndarray, unconstrained: np.ndarray) -> Entries:
    """Alpha list for the report: floats, the unconstrained sentinel, or
    null where an entry was not computed (NaN)."""
    values = np.asarray(values, dtype=float)
    return Entries(values, np.where(unconstrained, 1, 2 * np.isnan(values)),
                   (_SENTINEL_JSON, "null"))


def _margin_entries(margins: np.ndarray) -> Entries:
    """Margin list for the report: floats, or null where a margin is
    infinite (an unconstrained entry)."""
    margins = np.asarray(margins, dtype=float)
    return Entries(margins, np.isinf(margins).astype(int), ("null",))


def build_report(*, command: str, norms, rescaled_bias, poly, positive_report, estimate,
                 stability_report, certificate) -> Report:
    """Assemble the full analysis document in its fixed field order. The
    header states the scope of the numbers below it: the domain, radius and
    solver tolerance of `estimate`, the frame and omnidirectionality of
    `poly`. FrameMismatch if `estimate` was computed for another frame, if
    `stability_report` was computed for another radius (within 1e-12 times
    the radius, as `layer.certify` compares radii), if `certificate` was
    made against another estimate (domain, radius or frame), or if
    `positive_report` is given on the ball or missing on ball+."""
    frame = poly.frame
    if estimate.frame_fingerprint != frame.fingerprint():
        raise FrameMismatch("estimate was computed for a different frame")
    if (stability_report is not None
            and abs(stability_report.radius - estimate.radius) > 1e-12 * estimate.radius):
        raise FrameMismatch("stability report was computed for a different radius")
    if certificate is not None and certificate.estimate_ref != _estimate_ref(estimate):
        raise FrameMismatch("certificate was made against a different estimate")
    positive = estimate.domain == DOMAIN_BALL_POSITIVE
    if (positive_report is not None) != positive:
        raise FrameMismatch(f"a {estimate.domain!r} estimate takes "
                            f"{'a' if positive else 'no'} non-negative facet report")
    free = estimate.unconstrained_mask
    rows, cols = nonzero_2d(poly.incidence)
    doc = {
        "schema": SCHEMA,
        "tool": {"name": "relucert", "version": __version__},
        "command": command,
        "domain": estimate.domain,
        "radius": estimate.radius,
        "input": {
            "rows": frame.m,
            "cols": frame.n,
            "fingerprint": estimate.frame_fingerprint,
            "row_norms": np.asarray(norms, dtype=float).tolist(),
            "rescaled_bias": (None if rescaled_bias is None
                              else np.asarray(rescaled_bias, dtype=float).tolist()),
        },
        "polytope": {
            "full_dimensional": bool(poly.full_dimensional),
            "omnidirectional": is_omnidirectional(poly),
            "num_facets": poly.num_facets,
            "facet_vertices": IntLists(np.bincount(rows, minlength=poly.num_facets).tolist(),
                                       cols.tolist()),
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
            "margins": _margin_entries(certificate.margins),
            "failing_indices": certificate.failing_indices,
            "estimate": certificate.estimate_ref,
        },
        "tolerances": dict(TOLERANCES) | {"solver": estimate.tol},
    }
    return Report(doc)

