"""Census of `build_polytope` on seeded degenerate frames: how many build,
and how many of those have the facets of scipy's Qhull.

A script, not a test module (pytest does not collect it). Frame sets:

- fuzz: `oracles.fuzz_frame(KINDS[k], n, default_rng([s, n, k]))` for
  n = 2..6, every kind k and every seed s in [start, stop);
- snapped: `oracles.snapped(n, s)` for n = 3, 4, 5 and s in [start, stop).

Each frame's outcome is "qhull" (built, full-dimensional, and its facet
vertex sets are Qhull's), "built" (any other polytope) or "raises"
(`DegenerateHull` or any other library error). The library is the
`relucert` on the import path, so another checkout is censused by pointing
PYTHONPATH at its `src`:

    PYTHONPATH=../other/src python tests/hull_census.py fuzz 0 300 --save other.json
    PYTHONPATH=src python tests/hull_census.py fuzz 0 300 --against other.json

prints the counts of this checkout and lists the frames lost and gained
against the other's saved outcomes; it exits 1 if a frame is lost (built
there and raises here, or matched Qhull there and does not here). The
outcomes of two small slices are kept in tests/data/census/, and CI checks
every change against them:

    PYTHONPATH=src python tests/hull_census.py fuzz 0 20 --against tests/data/census/fuzz-0-20.json
    PYTHONPATH=src python tests/hull_census.py snapped 0 10 --against tests/data/census/snapped-0-10.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import relucert as rc  # noqa: E402
from relucert.errors import RelucertError  # noqa: E402

KINDS = ("cross-polytope", "near-duplicate", "coplanar")


def frames(which: str, start: int, stop: int):
    """(name, weights) of every frame in the set."""
    for s in range(start, stop):
        if which == "snapped":
            for n in (3, 4, 5):
                yield f"snapped n={n} s={s}", oracles.snapped(n, s)
        else:
            for n in range(2, 7):
                for k, kind in enumerate(KINDS):
                    yield (f"{kind} n={n} s={s}",
                           oracles.fuzz_frame(kind, n, np.random.default_rng([s, n, k])))


def outcome(weights: np.ndarray) -> str:
    try:
        frame, _, _ = rc.normalize(weights)
        poly = rc.build_polytope(frame)
    except (ValueError, RelucertError):
        return "raises"
    if poly.full_dimensional and sorted(poly.vertices) == oracles.qhull_facets(frame.elements):
        return "qhull"
    return "built"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("set", choices=["fuzz", "snapped"])
    parser.add_argument("start", type=int)
    parser.add_argument("stop", type=int)
    parser.add_argument("--save", type=Path, help="write every frame's outcome as JSON")
    parser.add_argument("--against", type=Path, help="outcomes saved from another checkout")
    args = parser.parse_args(argv)

    got = {name: outcome(w) for name, w in frames(args.set, args.start, args.stop)}
    built = sum(v != "raises" for v in got.values())
    matching = sum(v == "qhull" for v in got.values())
    print(f"{args.set} {args.start}..{args.stop - 1}: {len(got)} frames, "
          f"{built} built, {matching} match Qhull")
    if args.save:
        args.save.write_text(json.dumps(got, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    lost_any = False
    if args.against:
        old = json.loads(args.against.read_text(encoding="utf-8"))
        tests = (("built", lambda v: v != "raises"), ("match Qhull", lambda v: v == "qhull"))
        for label, test in tests:
            lost = [k for k in got if k in old and test(old[k]) and not test(got[k])]
            gained = [k for k in got if k in old and test(got[k]) and not test(old[k])]
            print(f"{label}: {sum(test(old[k]) for k in got if k in old)} -> "
                  f"{sum(test(got[k]) for k in got if k in old)}, "
                  f"lost {len(lost)}, gained {len(gained)}")
            for k in lost:
                print(f"  lost   {k} ({old[k]} -> {got[k]})")
            for k in gained:
                print(f"  gained {k} ({old[k]} -> {got[k]})")
            lost_any = lost_any or bool(lost)
    return 1 if lost_any else 0


if __name__ == "__main__":
    sys.exit(main())
