"""Regenerate bench/data/references.json: the base frames of every workload
and the program's results on them.

Run from the repository root:

    python3 bench/make_references.py

The file is recorded once, at the commit the benchmark was defined on, and
is the reference that later commits are checked against: facet counts,
per-row `alpha_scaled` (radius 1) and the unconstrained rows of the domain.
A benchmark run never re-derives these; it only transforms the base frames
in ways that leave them unchanged (see workloads.py).
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import relucert as rc  # noqa: E402

OUT = Path(__file__).resolve().parent / "data" / "references.json"


def sphere(n: int, m: int, seed: int) -> np.ndarray:
    rows = np.random.default_rng(seed).standard_normal((m, n))
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def cube(n: int) -> np.ndarray:
    return np.array(list(itertools.product([-1.0, 1.0], repeat=n)))


def cell24() -> np.ndarray:
    """The 24-cell: all permutations of (+-1, +-1, 0, 0), in sorted order."""
    rows = set()
    for i, j in itertools.combinations(range(4), 2):
        for si in (1.0, -1.0):
            for sj in (1.0, -1.0):
                v = [0.0] * 4
                v[i], v[j] = si, sj
                rows.add(tuple(v))
    return np.array(sorted(rows))


def ternary(n: int, m: int, seed: int) -> np.ndarray:
    """m distinct non-zero rows of {-1, 0, 1}^n, as in a quantized layer."""
    grid = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=n)))
    grid = grid[np.any(grid != 0.0, axis=1)]
    pick = np.random.default_rng(seed).choice(len(grid), size=m, replace=False)
    return grid[np.sort(pick)]


def analyse(rows: np.ndarray, domain: str) -> dict | None:
    """Reference results, or None when the frame does not suit the domain."""
    frame, _, _ = rc.normalize(rows)
    poly = rc.build_polytope(frame)
    if domain == rc.DOMAIN_BALL:
        if not rc.is_omnidirectional(poly):
            return None
        est = rc.pbe_ball(frame, poly)
    else:
        report = rc.positive_facets(poly)
        if not report.nonneg_omnidirectional:
            return None
        est = rc.pbe_positive(frame, poly, report)
    alpha = ["unconstrained" if free else float(v)
             for v, free in zip(est.alpha_scaled, est.unconstrained_mask)]
    return {"facets": poly.num_facets, "alpha_scaled": alpha}


def first_suitable(make, domain: str, seed: int) -> tuple[np.ndarray, dict, int]:
    """Unit rows from the first of consecutive seeds whose frame suits the domain."""
    for s in range(seed, seed + 50):
        rows = make(s)
        rows = rows / np.linalg.norm(rows, axis=1)[:, None]
        ref = analyse(rows, domain)
        if ref is not None:
            return rows, ref, s
    raise RuntimeError(f"no suitable frame from seed {seed}")


def main() -> int:
    ball, plus = rc.DOMAIN_BALL, rc.DOMAIN_BALL_POSITIVE
    specs = [
        # name, domain, generator, first seed (None: no randomness)
        ("rs6x16", ball, lambda s: sphere(6, 16, s), 610),
        ("rs5x30", ball, lambda s: sphere(5, 30, s), 530),
        ("rs4x60", ball, lambda s: sphere(4, 60, s), 460),
        ("rs4x40", ball, lambda s: sphere(4, 40, s), 440),
        ("cell24", plus, lambda s: cell24(), None),
        ("ternary4x30", plus, lambda s: ternary(4, 30, s), 430),
        ("cube4", plus, lambda s: cube(4), None),
        ("cube3", plus, lambda s: cube(3), None),
        ("gp3x120", plus, lambda s: sphere(3, 120, s), 3120),
        ("gp3x200", plus, lambda s: sphere(3, 200, s), 3200),
        ("layer3x200", ball, lambda s: sphere(3, 200, s), 1320),
        ("layer4x60", ball, lambda s: sphere(4, 60, s), 1460),
    ]
    frames = {}
    for name, domain, make, seed in specs:
        rows, ref, used = first_suitable(make, domain, seed if seed is not None else 0)
        frames[name] = {"domain": domain, "seed": used if seed is not None else None,
                        "rows": rows.tolist(), **ref}
        print(f"{name:12s} {domain:5s} m={len(rows):3d} facets={ref['facets']}", flush=True)
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    doc = {"program_version": rc.__version__, "commit": commit, "radius": 1.0,
           "frames": frames}
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
