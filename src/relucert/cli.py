"""Command-line surface: pbe, certify, reconstruct, monitor, gen.

Exit codes: 0 success, 2 parse/input errors, 3 geometric preconditions
(omnidirectionality), 4 solver failures, 5 reconstruction refusals or
failures. Errors are mirrored as one JSON object on standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import warnings

import numpy as np

from . import __version__, fixtures, io as fio
from .errors import (DegenerateHull, DimensionMismatch, FrameMismatch, NotConverged,
                     NotNonnegOmnidirectional, NotOmnidirectional, OrphanVertex,
                     ParseError, ReconstructionFailed, RelucertError, SolverFailed,
                     UnknownName, ZeroRow)
from .frames import normalize
from .layer import ReLULayer, build_dual_bank, certify, forward, reconstruct_batch
from .pbe import (DOMAIN_BALL, DOMAIN_BALL_POSITIVE, pbe_ball, pbe_positive,
                  stability, stability_positive)
from .polytope import build_polytope, is_omnidirectional, positive_facets
from .reports import build_report
from .solvers import TOL_SOLVER

_EXIT_CODES = (
    (ParseError, 2), (ZeroRow, 2), (UnknownName, 2), (DimensionMismatch, 2),
    (FrameMismatch, 2), (ValueError, 2),
    (DegenerateHull, 3), (NotOmnidirectional, 3), (NotNonnegOmnidirectional, 3),
    (OrphanVertex, 3),
    (NotConverged, 4), (SolverFailed, 4),
    (ReconstructionFailed, 5),
)
RECONSTRUCT_BLOCK = 256  # input rows per forward/reconstruct_batch call: bounds peak memory


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
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
    else:
        yield sys.stdout


def _write_text(text: str, out_path: str | None) -> None:
    with _output(out_path) as handle:
        handle.write(text)


def _certify(weights_path: str, bias_path: str | None, radius: float,
             domain: str, tol: float):
    """Shared pipeline: parse, normalize, hull, bias estimate, and (when a
    bias is given, else None) the layer and its certificate."""
    weights = fio.read_matrix(weights_path)
    bias = fio.read_vector(bias_path, weights.shape[0]) if bias_path else None
    frame, rescaled, norms = normalize(weights, bias)
    poly = build_polytope(frame)
    positive = None
    if domain == DOMAIN_BALL:
        if not is_omnidirectional(poly):
            raise NotOmnidirectional("frame is not omnidirectional; try --domain ball+")
        estimate = pbe_ball(frame, poly, radius, tol=tol)
    else:
        positive = positive_facets(poly)
        if not positive.nonneg_omnidirectional:
            raise NotNonnegOmnidirectional(
                "facet cones do not cover the non-negative orthant")
        estimate = pbe_positive(frame, poly, positive, radius, tol=tol)
    layer = certificate = None
    if rescaled is not None:
        layer = ReLULayer(frame, rescaled, radius, domain)
        certificate = certify(layer, estimate)
    return poly, norms, positive, estimate, layer, certificate


def _cmd_report(args) -> int:
    poly, norms, positive, estimate, layer, certificate = _certify(
        args.weights, args.bias, args.radius, args.domain, args.tol)
    if positive is None:
        stab = stability(poly.frame, poly, args.radius)
    else:
        stab = stability_positive(poly.frame, poly, positive, args.radius)
    report = build_report(
        command=args.command, version=__version__, domain=args.domain, radius=args.radius,
        frame=poly.frame, norms=norms, rescaled_bias=None if layer is None else layer.bias,
        poly=poly, omnidirectional=is_omnidirectional(poly), positive_report=positive,
        estimate=estimate, stability_report=stab, certificate=certificate,
        solver_tol=args.tol)
    _write_text(report.to_text(), args.out)
    return 0


def _cmd_reconstruct(args) -> int:
    poly, _, _, _, layer, certificate = _certify(
        args.weights, args.bias, args.radius, DOMAIN_BALL, args.tol)
    if not certificate.injective and not args.force:
        raise ReconstructionFailed(
            "layer is not certified injective; pass --force to try anyway")
    frame = poly.frame
    inputs = fio.read_matrix(args.inputs)
    if inputs.shape[1] != frame.n:
        raise ParseError(f"inputs have {inputs.shape[1]} columns, expected {frame.n}")
    bank = build_dual_bank(frame, poly, layer.bias)
    # Every block is inverted before anything is written, so a refusal
    # leaves no partial output. Only the (N, n) inverses are kept: each
    # block's outputs are recomputed when it is written, which holds peak
    # memory to one block of outputs and its text.
    blocks = [slice(start, start + RECONSTRUCT_BLOCK)
              for start in range(0, inputs.shape[0], RECONSTRUCT_BLOCK)]
    xhat = np.empty_like(inputs)
    failed = 0
    for rows in blocks:
        xhat[rows], lost = reconstruct_batch(bank, layer, forward(layer, inputs[rows]))
        if lost.any() and not args.force:
            raise ReconstructionFailed("no facet left-inverse reproduces the given output")
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
            fields = np.hstack([outputs, xhat[rows], err[rows, None]])
            handle.write("".join(",".join(map(repr, row)) + "\n" for row in fields.tolist()))
    if failed:
        print(f"warning: {failed} inputs could not be reconstructed", file=sys.stderr)
    return 0


def _cmd_monitor(args) -> int:
    import json

    epochs = fio.read_trace(args.trace)
    header = "epoch,mean_rescaled_bias,mean_alpha_scaled,proportion_below,omnidirectional"
    lines = [header]
    first_error: Exception | None = None
    for epoch, weights, bias in epochs:
        try:
            frame, rescaled, _ = normalize(weights, bias)
            poly = build_polytope(frame)
            if not is_omnidirectional(poly):
                raise NotOmnidirectional(f"epoch {epoch}: frame is not omnidirectional")
            estimate = pbe_ball(frame, poly, args.radius, tol=args.tol)
            proportion = float(np.count_nonzero(rescaled <= estimate.alpha_scaled)) / frame.m
            lines.append(",".join([
                str(epoch),
                repr(float(np.mean(rescaled))),
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


def build_parser() -> argparse.ArgumentParser:
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RelucertError, ValueError) as exc:
        return _emit_error(exc)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
