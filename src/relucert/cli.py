"""Command-line surface: pbe, certify, reconstruct, monitor, gen.

Exit codes: 0 success, 2 parse/input errors, 3 geometric preconditions
(omnidirectionality, spanning sub-frames), 4 solver failures, 5
reconstruction refusals or failures. Errors are mirrored as one JSON object
on standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import warnings

import numpy as np

from . import __version__, fixtures, io as fio
from .errors import (DegenerateHull, DimensionMismatch, FrameMismatch, NotAFrame,
                     NotConverged, NotNonnegOmnidirectional, NotOmnidirectional, OrphanVertex,
                     ParseError, ReconstructionFailed, RelucertError, SolverFailed,
                     UnknownName, ZeroRow)
from .frames import normalize
from .layer import ReLULayer, certify, forward, reconstruct_batch
from .pbe import (DOMAIN_BALL, DOMAIN_BALL_POSITIVE, pbe_ball, pbe_positive,
                  stability, stability_positive)
from .polytope import build_polytope, positive_facets
from .reports import build_report
from .solvers import TOL_SOLVER

_EXIT_CODES = (
    (ParseError, 2), (ZeroRow, 2), (UnknownName, 2), (DimensionMismatch, 2),
    (FrameMismatch, 2), (ValueError, 2),
    (DegenerateHull, 3), (NotOmnidirectional, 3), (NotNonnegOmnidirectional, 3),
    (OrphanVertex, 3), (NotAFrame, 3),
    (NotConverged, 4), (SolverFailed, 4),
    (ReconstructionFailed, 5),
)
# input rows per forward/reconstruct_batch call, at most: bounds peak memory.
# A block holds whole formatter slices (`_block_rows`).
RECONSTRUCT_BLOCK = 256


def _exit_code(exc: Exception) -> int:
    for klass, code in _EXIT_CODES:
        if isinstance(exc, klass):
            return code
    return 1


def _emit_error(exc: Exception) -> int:
    code = _exit_code(exc)
    payload = {"error": type(exc).__name__, "exit_code": code, "message": str(exc)}
    import json

    print(json.dumps(payload), file=sys.stderr)
    return code


@contextlib.contextmanager
def _output(out_path: str | None):
    """The output file, opened for writing, or standard output."""
    if out_path:
        try:
            handle = open(out_path, "w", encoding="utf-8", newline="\n")
        except OSError as exc:
            raise ParseError(f"cannot write {out_path}: {exc}") from exc
        with handle:
            yield handle
    else:
        yield sys.stdout


def _write_text(text: str, out_path: str | None) -> None:
    with _output(out_path) as handle:
        handle.write(text)


def _analyze(weights: np.ndarray, bias: np.ndarray | None, radius: float,
             domain: str, tol: float):
    """The pipeline on arrays: normalize, hull, the domain's bias estimate
    and, when a bias is given (else None), the layer and its certificate.
    Returns (poly, norms, positive, estimate, layer, certificate), with
    `positive` the non-negative facet report on ball+ and None on the ball.
    `pbe_ball` and `pbe_positive` check the domain's precondition and raise
    NotOmnidirectional or NotNonnegOmnidirectional (exit 3)."""
    frame, rescaled, norms = normalize(weights, bias)
    poly = build_polytope(frame)
    if domain == DOMAIN_BALL:
        positive = None
        estimate = pbe_ball(frame, poly, radius, tol=tol)
    else:
        positive = positive_facets(poly)
        estimate = pbe_positive(frame, poly, positive, radius, tol=tol)
    layer = certificate = None
    if rescaled is not None:
        layer = ReLULayer(frame, rescaled, radius, domain)
        certificate = certify(layer, estimate)
    return poly, norms, positive, estimate, layer, certificate


def _read_layer(args):
    """The weights and, if given, the bias of a command's arguments."""
    weights = fio.read_matrix(args.weights)
    bias = fio.read_vector(args.bias, weights.shape[0]) if args.bias else None
    return weights, bias


def _cmd_report(args) -> int:
    poly, norms, positive, estimate, layer, certificate = _analyze(
        *_read_layer(args), args.radius, args.domain, args.tol)
    if positive is None:
        stab = stability(poly.frame, poly, args.radius)
    else:
        stab = stability_positive(poly.frame, poly, positive, args.radius)
    report = build_report(
        command=args.command, norms=norms, rescaled_bias=None if layer is None else layer.bias,
        poly=poly, positive_report=positive, estimate=estimate, stability_report=stab,
        certificate=certificate)
    _write_text(report.to_text(), args.out)
    return 0


def _cmd_reconstruct(args) -> int:
    _, _, _, _, layer, certificate = _analyze(
        *_read_layer(args), args.radius, DOMAIN_BALL, args.tol)
    if not certificate.injective and not args.force:
        raise ReconstructionFailed(
            "layer is not certified injective; pass --force to try anyway")
    frame = layer.frame
    inputs = fio.read_matrix(args.inputs)
    if inputs.shape[1] != frame.n:
        raise ParseError(f"inputs have {inputs.shape[1]} columns, expected {frame.n}")
    # Every block is inverted before anything is written, so a refusal
    # leaves no partial output. Only the (N, n) inverses are kept: each
    # block's outputs are recomputed when it is written, which holds peak
    # memory to one block of outputs and its text.
    step = _block_rows(frame.m + frame.n + 1)
    blocks = [slice(start, start + step) for start in range(0, inputs.shape[0], step)]
    xhat = np.empty_like(inputs)
    failed = 0
    for rows in blocks:
        xhat[rows], lost = reconstruct_batch(layer, forward(layer, inputs[rows]))
        if lost.any() and not args.force:
            raise ReconstructionFailed("output has no unique verified preimage")
        failed += int(np.count_nonzero(lost))
    err = np.max(np.abs(xhat - inputs), axis=1)  # NaN on failed rows
    header = ([f"z{i}" for i in range(frame.m)]
              + [f"xhat{j}" for j in range(frame.n)] + ["roundtrip_error"])
    with _output(args.out) as handle:
        handle.write(",".join(header) + "\n")
        for rows in blocks:
            with warnings.catch_warnings():  # the inputs' ball check warned above
                warnings.simplefilter("ignore")
                outputs = forward(layer, inputs[rows])
            handle.write(fio.format_matrix(np.hstack([outputs, xhat[rows], err[rows, None]])))
    if failed:
        print(f"warning: {failed} inputs could not be reconstructed", file=sys.stderr)
    return 0


def _block_rows(cols: int) -> int:
    """Rows per reconstruct block of `cols` output fields: the most whole
    `format_matrix` slices in RECONSTRUCT_BLOCK rows, or RECONSTRUCT_BLOCK
    rows where one slice holds as many. A block then formats in full slices
    only: a (3, 200) layer's 204 fields give 240 rows (3 slices of 80), a
    (4, 60) layer's 65 give 252 (one slice)."""
    per_slice = fio.slice_rows(cols)
    return min(RECONSTRUCT_BLOCK, max(1, RECONSTRUCT_BLOCK // per_slice) * per_slice)


def _cmd_monitor(args) -> int:
    import json

    epochs = fio.read_trace(args.trace)
    header = "epoch,mean_rescaled_bias,mean_alpha_scaled,proportion_below,omnidirectional"
    lines = [header]
    first_error: Exception | None = None
    for epoch, weights, bias in epochs:
        try:
            _, _, _, estimate, layer, _ = _analyze(
                weights, bias, args.radius, DOMAIN_BALL, args.tol)
            below = np.count_nonzero(layer.bias <= estimate.alpha_scaled)
            proportion = float(below) / layer.frame.m
            lines.append(",".join([
                str(epoch),
                repr(float(np.mean(layer.bias))),
                repr(float(np.mean(estimate.alpha_scaled))),
                repr(proportion),
                "true",
            ]))
        except (RelucertError, ValueError) as exc:
            if first_error is None:
                first_error = exc
            print(json.dumps({"epoch": epoch, "error": type(exc).__name__,
                              "message": str(exc)}), file=sys.stderr)
    if len(lines) == 1:
        raise first_error if first_error is not None else ParseError("empty trace")
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_gen(args) -> int:
    matrix = fixtures.generate(args.name, n=args.n, m=args.m, seed=args.seed)
    _write_text(fio.format_matrix(matrix), args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: in-process callers
    of `main` (tests, library use) parse with the same parser."""
    parser = argparse.ArgumentParser(
        prog="relucert",
        description="Injectivity certificates and exact reconstruction for ReLU layers",
    )
    parser.add_argument("--version", action="version", version=f"relucert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, bias_required=False):
        p.add_argument("weights", nargs="?", default="-",
                       help="weights CSV path, '-' for stdin (default)")
        p.add_argument("--bias", required=bias_required, default=None,
                       help="bias CSV path (single row or column)")
        p.add_argument("--radius", type=float, default=1.0,
                       help="input ball radius (default 1.0)")
        p.add_argument("--tol", type=float, default=TOL_SOLVER,
                       help="largest dual infeasibility a cone program may leave (default 1e-9)")
        p.add_argument("--out", default=None, help="write output here instead of stdout")

    p = sub.add_parser("pbe", help="estimate an upper bias and report it")
    common(p)
    p.add_argument("--domain", choices=[DOMAIN_BALL, DOMAIN_BALL_POSITIVE],
                   default=DOMAIN_BALL)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("certify", help="estimate and compare against a given bias")
    common(p, bias_required=True)
    p.add_argument("--domain", choices=[DOMAIN_BALL, DOMAIN_BALL_POSITIVE],
                   default=DOMAIN_BALL)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("reconstruct", help="invert the layer on given inputs (ball domain)")
    common(p, bias_required=True)
    p.add_argument("--inputs", required=True, help="CSV of input rows to round-trip")
    p.add_argument("--force", action="store_true",
                   help="proceed even when the layer is not certified")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("monitor", help="per-epoch injectivity metrics for a training trace")
    p.add_argument("trace", nargs="?", default="-", help="trace path, '-' for stdin")
    p.add_argument("--radius", type=float, default=3.1,
                   help="input ball radius (default 3.1)")
    p.add_argument("--tol", type=float, default=TOL_SOLVER)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_monitor)

    p = sub.add_parser("gen", help="emit a named frame as CSV")
    p.add_argument("name", help="mercedes | tetrahedron | icosahedron | basis | random-sphere")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)
    return parser


def _check_options(args) -> None:
    """Reject a --tol or --radius no estimate can use, before any input is read."""
    if "tol" in args and not (np.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    if "radius" in args and not (np.isfinite(args.radius) and args.radius > 0.0):
        raise ValueError(f"--radius must be a finite number > 0, got {args.radius!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_options(args)
        return args.func(args)
    except (RelucertError, ValueError) as exc:
        return _emit_error(exc)


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """`warnings.showwarning` for the console script: one line, `warning:
    <message>`, like the command's other messages, without a source line."""
    print(f"warning: {message}", file=sys.stderr)


def entry() -> None:
    """The console script. Warnings print as one `warning: <message>` line;
    in-process callers of `main` still get them as warnings. A reader that
    closes standard output early (say, `| head -1`) ends the command with
    exit 1 and nothing on standard error: the rest of the output goes to the
    null device, where the interpreter's final flush cannot fail again."""
    warnings.showwarning = _print_warning
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
