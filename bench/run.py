"""relucert benchmark: drives `relucert.cli.main(argv)` in-process.

    python3 bench/run.py --workload certify-ball --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a checkout: it imports the program from the
checkout's `src/` and writes inputs, outputs and results under `.bench_run/`
at the checkout root. BENCHMARK.json lists the workloads, their reasons and
the metrics; workloads.py builds the inputs and checks the outputs.

Loop: closed, one caller, no extra threads (BLAS pinned to one thread).
Set-up (`setup_s`) is the median of nine rounds, each a fresh interpreter
importing the CLI, writing the inputs and one tiny warm-up command. A pass
then runs each of the workload's commands once, timing the CLI call alone.
Every time reported (set-up, commands) is in seconds at a reference machine
speed: speed.py times a fixed yardstick before, after and (untraced passes)
during each call and scales the call's wall time by it, because this
shared host's speed drifts by up to 2x within a minute. The summary also
prints the raw wall-clock figures.
With `--trace 0` the run repeats whole passes until `--seconds` have passed,
and at least two, and prints the end-to-end metrics. With `--trace 1` it runs
one untraced pass and two traced passes (tracer.py), checks that their
counts and outputs agree, and prints the per-layer metrics. The summary
above the result states each metric's sample count, base and percentile.

Every command's output is checked against data/references.json; any
mismatch makes the run exit 1. The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import UNIT_REF_S, SpeedProbe  # noqa: E402
from tracer import Tracer, layer_times  # noqa: E402

MIN_PASSES = 2
SETUP_ROUNDS = 9
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: (value,
    percentile). With ten samples or fewer it is the maximum, at p100."""
    xs = sorted(samples)
    if len(xs) <= 10:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def fresh_import(src: Path) -> None:
    """Import the CLI in a fresh interpreter, as every command-line use of
    the program does."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-c", "import relucert.cli"], env=env, check=True)


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "loadavg": list(os.getloadavg()),
    }


def run_pass(commands, check, tracer=None, ticks=False) -> list[dict]:
    """Run every command once; time only the CLI call, check afterwards.
    `ticks` samples the machine's speed during each call too (speed.py).

    Each call starts from a collected heap, as a command in a fresh process
    does. Without that, the program's cyclic garbage from earlier calls
    stays until the collector happens to run, and the peak RSS grows by a
    different amount per seed (45 to 48.6 MB on certify-ball, against a
    steady 38.7 MB with it)."""
    import relucert.cli

    probe = SpeedProbe(ticks)
    results = []
    for i, cmd in enumerate(commands):
        if tracer is not None:
            tracer.command = i
        gc.collect()
        code, wall, seconds = probe.time(relucert.cli.main, cmd.argv)
        failed, problems, digest = check(cmd, code)
        results.append({"seconds": seconds, "wall_s": wall, "failed": failed,
                        "problems": problems, "digest": digest})
    return results


def compare_digests(reference: list[dict], other: list[dict], what: str, commands) -> list[str]:
    return [f"{cmd.label}: output of {what} differs"
            for cmd, a, b in zip(commands, reference, other) if a["digest"] != b["digest"]]


def end_to_end(passes, commands, setup_s: float) -> tuple[dict, list[str]]:
    samples = [r["seconds"] for p in passes for r in p]
    busy = sum(samples)
    rows = sum(0 if c.inputs is None else len(c.inputs) for c in commands) * len(passes)
    attempted = sum(c.units for c in commands) * len(passes)
    failed = sum(r["failed"] for p in passes for r in p)
    value, pct = tail(samples)
    n = len(samples)
    values = {
        "setup_s": setup_s,
        "certify_per_s": n / busy,
        "op_p50_s": statistics.median(samples),
        "op_tail_s": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    base = "rows" if rows else "commands"
    notes = {
        "setup_s": f"median of {SETUP_ROUNDS} set-ups: import, inputs, warm-up",
        "certify_per_s": f"{n} commands, each one certification, in {busy:.3f} s",
        "op_p50_s": f"{n} samples",
        "op_tail_s": f"p{pct:.1f}, {min(10, n - 1)} of {n} samples beyond",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    lines = [f"{k:18s} {v:.6g}  ({notes[k]})" for k, v in values.items()]
    lines.append(f"{'recon_rows_per_s':18s} "
                 + (f"{rows / busy:.6g}  ({rows} rows in {n} commands)" if rows
                    else "n/a  (no reconstruct rows in this workload)"))
    lines.append(f"{'failed_ratio':18s} {failed / attempted:.6g}  "
                 f"({failed} of {attempted} {base})")
    walls = [r["wall_s"] for p in passes for r in p]
    unit_ms = 1e3 * UNIT_REF_S * statistics.median(w / s for w, s in zip(walls, samples))
    lines.append(f"wall clock: {n / sum(walls):.6g} commands/s, p50 {statistics.median(walls):.6g} s, "
                 f"tail {tail(walls)[0]:.6g} s; yardstick unit {unit_ms:.4g} ms "
                 f"(the figures above are at its reference {1e3 * UNIT_REF_S:g} ms)")
    lines.append("median s per command: " + ", ".join(
        f"{c.label} {statistics.median(p[i]['seconds'] for p in passes):.3f}"
        for i, c in enumerate(commands)))
    return values, lines


def per_layer(untraced, traced, declared) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics from the two traced passes, and the counts that
    differ between them."""
    (p1, spans1, counts1, wall1), (p2, spans2, counts2, wall2) = traced
    problems = [f"counts differ between traced passes: {k} {counts1.get(k, 0)} != {counts2.get(k, 0)}"
                for k in sorted(set(counts1) | set(counts2)) if counts1.get(k, 0) != counts2.get(k, 0)]
    times = [layer_times(spans1), layer_times(spans2)]
    counts = counts1

    def med(kind: int, layer: str) -> float:
        return statistics.median(t[kind][layer] for t in times)

    def ratio(a: str, b: str) -> float:
        return counts[a] / counts[b] if counts[b] else 0.0

    base = sum(r["seconds"] for r in untraced)
    cmd_time = statistics.median(sum(r["seconds"] for r in p) for p in (p1, p2))
    root = [sum(s[2] - s[1] for s in spans if s[0] == "cli") for spans in (spans1, spans2)]
    derived = {
        "polytope.merge_ratio": ratio("polytope.facets", "hull.raw_facets"),
        "solvers.lp.feasible_ratio": ratio("solvers.lp.feasible", "solvers.lp.calls"),
        "layer.reconstruct.candidates_per_call": ratio("layer.facet_reconstruction.calls",
                                                       "layer.reconstruct.calls"),
        "trace.overhead_ratio": cmd_time / base - 1.0,
        "trace.uncovered_s": statistics.median(w - r for w, r in zip((wall1, wall2), root)),
    }
    values = {}
    for metric in declared:
        name = metric["name"]
        layer, _, suffix = name.rpartition(".")
        if name in derived:
            values[name] = derived[name]
        elif suffix == "busy_s":
            values[name] = med(0, layer)
        elif suffix == "self_s":
            values[name] = med(1, layer)
        else:
            values[name] = counts[name]
    busy, own = times[0]
    lines = [f"{'layer':28s} {'calls':>9s} {'busy_s':>10s} {'self_s':>10s}"]
    for layer in sorted(busy, key=lambda k: -own[k]):
        lines.append(f"{layer:28s} {counts[layer + '.calls']:9d} {busy[layer]:10.4f} "
                     f"{own[layer]:10.4f}")
    lines.append(f"{'(uncovered)':28s} {'':9s} {'':10s} {derived['trace.uncovered_s']:10.4f}")
    lines.append(f"trace.overhead_ratio {derived['trace.overhead_ratio']:.4f} "
                 f"(traced {cmd_time:.3f} s vs untraced {base:.3f} s of commands per pass)")
    lines.append(f"counters: {dict(sorted(counts.items()))}")
    return values, lines, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "relucert" / "cli.py").is_file():
        print(f"error: no program to benchmark: {src / 'relucert'} is missing", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    if args.workload not in whys:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(whys)}",
              file=sys.stderr)
        return 2
    for key in BLAS_ENV:
        os.environ[key] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import relucert.cli

    import workloads

    import_s = time.perf_counter() - START
    facts = machine_facts()
    workdir = ROOT / ".bench_run" / args.workload
    refs = workloads.load_references()
    def set_up():
        fresh_import(src)
        commands = workloads.build(args.workload, args.seed, workdir, refs)
        warm = workloads.warmup_command(args.workload, workdir)
        return commands, warm, relucert.cli.main(warm)

    probe = SpeedProbe(ticks=False)
    setups = []
    for _ in range(SETUP_ROUNDS):
        (commands, warm, code), _, seconds = probe.time(set_up)
        if code != 0:
            print(f"error: warm-up command failed: {warm}", file=sys.stderr)
            return 1
        setups.append(seconds)
    setup_s = statistics.median(setups)

    print(f"relucert benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {whys[args.workload]}")
    print("machine: " + json.dumps(facts))
    print(f"loop: closed, 1 caller, {len(commands)} commands per pass; "
          f"in-process import {import_s:.3f} s")

    check = workloads.check
    if args.trace == 0:
        passes = []
        t0 = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
            passes.append(run_pass(commands, check, ticks=True))
        problems = [p for r in passes[0] for p in r["problems"]]
        for k, later in enumerate(passes[1:], start=2):
            problems += compare_digests(passes[0], later, f"pass {k}", commands)
        print(f"passes: {len(passes)} in {time.perf_counter() - t0:.2f} s")
        all_results = [r for p in passes for r in p]
        values, lines = end_to_end(passes, commands, setup_s)
        attempted = sum(c.units for c in commands) * len(passes)
        spans_out = None
    else:
        untraced = run_pass(commands, check)
        traced = []
        with Tracer() as tracer:
            for _ in range(2):
                tracer.reset()
                results = run_pass(commands, check, tracer)
                wall = sum(r["wall_s"] for r in results)
                traced.append((results, tracer.spans, tracer.counts, wall))
        problems = [p for r in untraced for p in r["problems"]]
        for k, (results, *_rest) in enumerate(traced, start=1):
            problems += compare_digests(untraced, results, f"traced pass {k}", commands)
        all_results = untraced + [r for results, *_rest in traced for r in results]
        values, lines, count_problems = per_layer(untraced, traced, bench["per_layer"])
        problems += count_problems
        if tracer.absent:
            lines.append("absent wrappers (metrics read 0): " + ", ".join(tracer.absent))
        lines.append("busy time, counts and failures only: the program is single-threaded, "
                     "so no layer waits on another")
        attempted = sum(c.units for c in commands) * 3
        spans_out = traced

    failed = sum(r["failed"] for r in all_results)
    if problems and not failed:
        failed = 1
    for line in lines:
        print(line)
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    stem = f"seed{args.seed}-trace{args.trace}"
    (workdir / f"result-{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "why": whys[args.workload], "seed": args.seed,
         "machine": facts, "summary": lines, "problems": problems, **result}, indent=1))
    if spans_out is not None:
        with open(workdir / f"spans-{stem}.csv", "w", encoding="utf-8") as out:
            out.write("pass,id,layer,start_s,end_s,parent,command\n")
            for k, (_, spans, _, _) in enumerate(spans_out, start=1):
                for i, (layer, start, end, parent, command) in enumerate(spans):
                    out.write(f"{k},{i},{layer},{start!r},{end!r},{parent},{command}\n")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
