"""Checks of the benchmark's tracer, checks and statistics.

Not part of the repository's test suite (the file name keeps pytest from
collecting it there, because these checks pin the program as it was when
the benchmark was defined). Run them from the repository root with

    python3 -m pytest -q bench/tests/check_tracer.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import relucert.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer, layer_times  # noqa: E402

# The cheapest commands of each workload that still reach its layers.
SUBSETS = {
    "certify-ball": ["rs4x40-0"],
    "certify-orthant": ["cube3-0", "gp3x120-0"],
    "reconstruct-stream": ["layer4x60-0"],
}


def commands(name: str, tmp_path: Path, labels=None) -> list:
    cmds = workloads.build(name, 3, tmp_path / name, workloads.load_references())
    wanted = SUBSETS[name] if labels is None else labels
    return [c for c in cmds if c.label in wanted]


def traced_counts(cmds) -> dict:
    with Tracer() as tracer:
        results = run.run_pass(cmds, workloads.check, tracer)
    assert all(not r["problems"] for r in results), results
    return tracer.counts


@pytest.fixture(scope="module")
def counts(tmp_path_factory) -> dict:
    tmp = tmp_path_factory.mktemp("fire")
    return {name: traced_counts(commands(name, tmp)) for name in SUBSETS}


def test_every_wrapper_fires_on_some_workload(counts):
    for layer, *_ in TARGETS:
        assert any(c[layer + ".calls"] > 0 for c in counts.values()), layer


def test_wrappers_fire_on_the_workload_that_exercises_them(counts):
    ball, orthant, recon = (counts[k] for k in SUBSETS)
    assert ball["solvers.cone.calls"] > 0 and ball["solvers.lp.calls"] == 0
    assert ball["polytope.positive_facets.calls"] == 0
    assert orthant["solvers.lp.calls"] > 0 and orthant["polytope.positive_facets.selected"] > 0
    assert orthant["polytope.facets"] < orthant["hull.raw_facets"]  # the cube merges
    assert recon["solvers.lp.calls"] == 0
    rows = 2000
    assert recon["layer.reconstruct.calls"] == recon["layer.forward.calls"] == rows
    assert recon["layer.facet_reconstruction.calls"] >= rows
    assert recon["frames.dual_synthesis.calls"] == recon["polytope.facets"]
    assert ball["reports.render.calls"] == 1 and recon["reports.render.calls"] == 0


def test_no_cone_program_on_general_position_orthant_frames(tmp_path):
    counts = traced_counts(commands("certify-orthant", tmp_path, ["gp3x120-0"]))
    assert counts["solvers.cone.calls"] == 0 and counts["solvers.lp.calls"] > 0


def test_absent_target_is_reported_not_fatal(tmp_path):
    targets = TARGETS + (("gone.function", "relucert.cli", "no_such_function", None),
                         ("gone.module", "relucert.no_such_module", "f", None),
                         ("gone.method", "relucert.reports", "Report.no_such_method", None))
    cmds = commands("certify-ball", tmp_path)
    with Tracer(targets) as tracer:
        results = run.run_pass(cmds, workloads.check, tracer)
    assert not results[0]["problems"]
    assert [a.split()[0] for a in tracer.absent] == ["gone.function", "gone.module", "gone.method"]
    assert tracer.counts["gone.function.calls"] == 0 and tracer.counts["cli.calls"] == 1


def test_tracer_restores_the_program(tmp_path):
    before = relucert.cli.pbe_ball, relucert.cli.main
    with Tracer():
        assert relucert.cli.pbe_ball is not before[0]
    assert (relucert.cli.pbe_ball, relucert.cli.main) == before


def test_traced_and_untraced_outputs_are_identical_and_counts_repeat(tmp_path):
    for name in SUBSETS:
        cmds = commands(name, tmp_path)
        plain = run.run_pass(cmds, workloads.check)
        passes = []
        with Tracer() as tracer:
            for _ in range(2):
                tracer.reset()
                passes.append((run.run_pass(cmds, workloads.check, tracer), dict(tracer.counts)))
        for results, _ in passes:
            assert [r["digest"] for r in results] == [r["digest"] for r in plain], name
        assert passes[0][1] == passes[1][1], name


def test_checks_catch_wrong_results(tmp_path):
    cmd = commands("certify-ball", tmp_path)[0]
    assert relucert.cli.main(cmd.argv) == 0
    assert workloads.check(cmd, 0)[:2] == (0, [])
    cmd.facets += 1
    assert workloads.check(cmd, 0)[0] == 1
    cmd.facets -= 1
    cmd.alpha_scaled[0] += 1e-5
    assert "alpha_scaled[0]" in workloads.check(cmd, 0)[1][0]
    assert workloads.check(cmd, 5)[0] == 1

    rec = commands("reconstruct-stream", tmp_path)[0]
    assert relucert.cli.main(rec.argv) == 0
    assert workloads.check(rec, 0)[:2] == (0, [])
    rec.inputs = rec.inputs.copy()
    rec.inputs[:7] += 1e-6
    assert workloads.check(rec, 0)[0] == 7


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([float(v) for v in range(24, 0, -1)]) == (14.0, 100.0 * 14 / 24)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_self_time_excludes_direct_children_only():
    spans = [("cli", 0.0, 10.0, -1, 0), ("polytope.build", 1.0, 5.0, 0, 0),
             ("hull.quickhull", 2.0, 4.0, 1, 0), ("io.read", 6.0, 7.0, 0, 0)]
    busy, own = layer_times(spans)
    assert busy["cli"] == 10.0 and own["cli"] == 5.0
    assert own["polytope.build"] == 2.0 and own["hull.quickhull"] == 2.0


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", dirs_exist_ok=True,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify-ball",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_results_carry_exactly_the_declared_metrics(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    cmds = commands("certify-ball", tmp_path)
    fake = [{"seconds": 0.5 + i / 100, "wall_s": 0.6 + i / 100, "failed": 0, "problems": [], "digest": ""}
            for i in range(len(cmds))]
    values, _ = run.end_to_end([fake] * 12, cmds, 0.2)
    assert list(values) == [m["name"] for m in bench["end_to_end"]]
    spans = [("cli", 0.0, 1.0, -1, 0)]
    traced = [(fake, spans, Counter({"cli.calls": 1}), 1.5)] * 2
    values, _, problems = run.per_layer(fake, traced, bench["per_layer"])
    assert list(values) == [m["name"] for m in bench["per_layer"]] and not problems
