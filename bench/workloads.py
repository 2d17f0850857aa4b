"""The three benchmark workloads: seeded inputs, CLI commands and output checks.

Every command is `relucert <subcommand> ...` on CSV files written here; the
program sees nothing else. Inputs are derived from the base frames in
data/references.json, whose facet counts and `alpha_scaled` were recorded at
the commit that defined the benchmark. A seed changes the numbers the program
reads but never those reference results:

- ball domain: a random row order and random row norms. Row order permutes
  the indices of the hull and of the bias estimate but not their values, and
  `normalize` divides the norms out. Quickhull makes its choices by geometry,
  so its work does not change either; a random rotation would change that
  work by up to a third per frame and make the cost depend on the seed.
- non-negative domain: random row norms only. Row order changes how many
  coverage LPs run (the 24-cell's count varies fivefold with it).

Biases are drawn per seed at a margin of 1e-3 to 1e-2 from the reference
threshold, below it (passing) or, for a few chosen rows, above it (failing),
so no verdict depends on the last digits of a threshold.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).resolve().parent / "data" / "references.json"
VERIFY_TOL = 1e-8     # reconstruction round-trip tolerance of the program
ALPHA_TOL = 1e-6      # looser than the cone solver's 1e-9 value tolerance
RECON_MARGIN = 1e-3   # reconstruct layers sit this far below their threshold


@dataclass(frozen=True)
class Item:
    """`copies` commands on one base frame, each with its own transform."""

    base: str
    copies: int
    rows: int = 0  # input rows per reconstruct command


@dataclass(frozen=True)
class Workload:
    kind: str  # "certify" or "reconstruct"
    domain: str
    items: tuple[Item, ...]


# A pass runs every command once. The loop runs two passes unless a pass is
# shorter than half of --seconds. With two passes the median and the tail
# rank (the eleventh-slowest of at least 22 commands) fall inside one class
# of near-identical commands: rs4x60, gp3x200 and layer3x200.
WORKLOADS = {
    "certify-ball": Workload("certify", "ball", (
        Item("rs6x16", 1), Item("rs5x30", 3), Item("rs4x60", 4), Item("rs4x40", 4))),
    "certify-orthant": Workload("certify", "ball+", (
        Item("cell24", 1), Item("ternary4x30", 1), Item("cube4", 1), Item("cube3", 1),
        Item("gp3x200", 6), Item("gp3x120", 2))),
    "reconstruct-stream": Workload("reconstruct", "ball", (
        Item("layer3x200", 7, rows=2000), Item("layer4x60", 4, rows=2000))),
}


@dataclass
class Command:
    label: str
    argv: list[str]
    out: Path
    facets: int
    injective: bool
    failing: list[int]
    alpha_scaled: list  # floats, or "unconstrained"
    inputs: np.ndarray | None = None  # reconstruct only

    @property
    def units(self) -> int:
        """Operations one run of the command attempts: its rows, or itself."""
        return 1 if self.inputs is None else len(self.inputs)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def _csv(a: np.ndarray) -> str:
    return "\n".join(",".join(repr(float(v)) for v in row) for row in np.atleast_2d(a)) + "\n"


def _biases(rng, alpha: np.ndarray, free: np.ndarray):
    """Rescaled biases (all negative) and the rows they make fail."""
    delta = rng.uniform(1e-3, 1e-2, alpha.shape[0])
    beta = np.where(free, -rng.uniform(0.1, 1.0, alpha.shape[0]), alpha - delta)
    failing: list[int] = []
    candidates = np.nonzero(~free & (alpha < -0.05))[0]
    if candidates.size and rng.random() < 0.5:
        k = int(rng.integers(1, min(3, candidates.size) + 1))
        failing = sorted(int(i) for i in rng.choice(candidates, size=k, replace=False))
        beta[failing] = alpha[failing] + delta[failing]
    return beta, failing


def _ball_inputs(rng, rows: int, n: int) -> np.ndarray:
    x = rng.standard_normal((rows, n))
    x /= np.linalg.norm(x, axis=1)[:, None]
    return x * (rng.random(rows) ** (1.0 / n))[:, None]


def build(name: str, seed: int, workdir: Path, refs: dict) -> list[Command]:
    """Write the workload's input files for `seed` and return its commands."""
    wl = WORKLOADS[name]
    inputs_dir = workdir / "inputs"
    out_dir = workdir / "out"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    per_item: list[list[Command]] = []
    for item_no, item in enumerate(wl.items):
        per_item.append([])
        ref = refs["frames"][item.base]
        if ref["domain"] != wl.domain:
            raise ValueError(f"{item.base} is not a {wl.domain} frame")
        unit = np.array(ref["rows"])
        m, n = unit.shape
        free = np.array([a == "unconstrained" for a in ref["alpha_scaled"]])
        alpha = np.array([np.inf if f else a for a, f in zip(ref["alpha_scaled"], free)])
        for copy in range(item.copies):
            rng = np.random.default_rng([seed, item_no, copy])
            perm = rng.permutation(m) if wl.domain == "ball" else np.arange(m)
            rows = unit[perm]
            norms = np.exp(rng.uniform(math.log(0.5), math.log(2.0), m))
            a, fr = alpha[perm], free[perm]
            if wl.kind == "reconstruct":
                beta, failing = a - RECON_MARGIN, []
            else:
                beta, failing = _biases(rng, a, fr)
            label = f"{item.base}-{copy}"
            w_path, b_path = inputs_dir / f"{label}.w.csv", inputs_dir / f"{label}.b.csv"
            w_path.write_text(_csv(norms[:, None] * rows), encoding="utf-8")
            b_path.write_text(_csv(norms * beta), encoding="utf-8")
            out = out_dir / f"{label}.out"
            xs = None
            if wl.kind == "reconstruct":
                xs = _ball_inputs(rng, item.rows, n)
                x_path = inputs_dir / f"{label}.x.csv"
                x_path.write_text(_csv(xs), encoding="utf-8")
                argv = ["reconstruct", str(w_path), "--bias", str(b_path),
                        "--inputs", str(x_path), "--out", str(out)]
            else:
                argv = ["certify", str(w_path), "--bias", str(b_path),
                        "--domain", wl.domain, "--out", str(out)]
            per_item[-1].append(Command(
                label=label, argv=argv, out=out, facets=ref["facets"],
                injective=not failing, failing=failing,
                alpha_scaled=["unconstrained" if f else float(v) for v, f in zip(a, fr)],
                inputs=xs))
    # Spread each item's copies evenly over the pass, so that every class of
    # commands meets the machine's slow and fast moments alike.
    return [c for _, _, c in sorted(
        ((k + 0.5) / len(cmds), i, c) for i, cmds in enumerate(per_item)
        for k, c in enumerate(cmds))]


def warmup_command(name: str, workdir: Path) -> list[str]:
    """A tiny command of the workload's kind, run during set-up only."""
    wl = WORKLOADS[name]
    d = workdir / "warmup"
    d.mkdir(parents=True, exist_ok=True)
    if wl.domain == "ball+":
        w = np.eye(3)
    else:
        w = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    (d / "w.csv").write_text(_csv(w), encoding="utf-8")
    (d / "b.csv").write_text(_csv(-np.ones(len(w))), encoding="utf-8")
    if wl.kind == "reconstruct":
        (d / "x.csv").write_text(_csv(_ball_inputs(np.random.default_rng(0), 20, 3)),
                                 encoding="utf-8")
        return ["reconstruct", str(d / "w.csv"), "--bias", str(d / "b.csv"),
                "--inputs", str(d / "x.csv"), "--out", str(d / "out")]
    return ["certify", str(d / "w.csv"), "--bias", str(d / "b.csv"),
            "--domain", wl.domain, "--out", str(d / "out")]


def check(cmd: Command, exit_code: int) -> tuple[int, list[str], str]:
    """Failed operations, problems found and the output digest of one run."""
    if exit_code != 0:
        return cmd.units, [f"{cmd.label}: exit code {exit_code}"], ""
    try:
        data = cmd.out.read_bytes()
    except OSError as exc:
        return cmd.units, [f"{cmd.label}: no output ({exc})"], ""
    digest = hashlib.blake2b(data, digest_size=16).hexdigest()
    if cmd.inputs is None:
        problems = _check_report(cmd, data)
        return int(bool(problems)), problems, digest
    failed, problems = _check_roundtrip(cmd, data)
    return failed, problems, digest


def _check_report(cmd: Command, data: bytes) -> list[str]:
    try:
        doc = json.loads(data)
        facets = doc["polytope"]["num_facets"]
        cert = doc["certificate"]
        alpha = doc["bias_estimate"]["alpha_scaled"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{cmd.label}: report does not parse ({exc!r})"]
    problems = []
    if facets != cmd.facets:
        problems.append(f"{cmd.label}: {facets} facets, reference {cmd.facets}")
    if cert["injective"] is not cmd.injective:
        problems.append(f"{cmd.label}: injective={cert['injective']}, reference {cmd.injective}")
    if list(cert["failing_indices"]) != cmd.failing:
        problems.append(f"{cmd.label}: failing {cert['failing_indices']}, reference {cmd.failing}")
    if len(alpha) != len(cmd.alpha_scaled):
        problems.append(f"{cmd.label}: {len(alpha)} alpha_scaled entries")
        return problems
    for i, (got, want) in enumerate(zip(alpha, cmd.alpha_scaled)):
        if isinstance(want, str) or isinstance(got, str):
            ok = got == want
        else:
            ok = type(got) in (int, float) and abs(got - want) <= ALPHA_TOL
        if not ok:
            problems.append(f"{cmd.label}: alpha_scaled[{i}] = {got}, reference {want}")
            break
    return problems


def _check_roundtrip(cmd: Command, data: bytes) -> tuple[int, list[str]]:
    xs = cmd.inputs
    n = xs.shape[1]
    lines = data.decode("utf-8").splitlines()[1:]
    if len(lines) != len(xs):
        return len(xs), [f"{cmd.label}: {len(lines)} output rows for {len(xs)} inputs"]
    tail = np.array([ln.rsplit(",", n + 1)[1:] for ln in lines], dtype=float)
    xhat, err = tail[:, :n], tail[:, n]
    bad = ~(np.abs(xhat - xs).max(axis=1) <= VERIFY_TOL) | ~(err <= VERIFY_TOL)
    failed = int(bad.sum())
    problems = [f"{cmd.label}: {failed} rows not reconstructed within {VERIFY_TOL}"] if failed else []
    return failed, problems
