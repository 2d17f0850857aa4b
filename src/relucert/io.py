"""CSV matrices and epoch trace files.

Matrix files are plain CSV: one row per line, comma-separated decimal
fields, no header. A trace file concatenates epoch blocks, each being one
line `epoch <k>`, then the m weight rows as CSV, then one bias row prefixed
`bias,`.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Iterable

import numpy as np

from .errors import ParseError


def _read_lines(path: str) -> list[str]:
    try:
        if path == "-":
            return sys.stdin.read().splitlines()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _parse_row(line: str, path: str, lineno: int) -> list[float]:
    fields = line.split(",")
    try:
        return [float(f) for f in fields]
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: bad numeric field: {exc}") from exc


def parse_matrix(lines: Iterable[str], path: str = "<memory>") -> np.ndarray:
    """The matrix of CSV `lines`, blank lines skipped. Every line's comma
    count is checked against the first's, and all fields go to one
    `np.array(fields, dtype=float)`, which parses each `str` as `float()`
    does. On a mismatch, the first bad line in file order is named."""
    lines = list(lines)
    rows = [line for line in lines if line.strip()]
    if not rows:
        raise ParseError(f"{path}: no data rows")
    commas = rows[0].count(",")
    try:
        if any(line.count(",") != commas for line in rows):
            raise ValueError("ragged rows")
        a = np.array(",".join(rows).split(","), dtype=float).reshape(len(rows), commas + 1)
    except ValueError:
        _check_rows(lines, path)  # raises the first line's ParseError
        raise
    if not np.isfinite(a).all():
        raise ParseError(f"{path}: non-finite entries")
    return a


def _check_rows(lines: list[str], path: str) -> None:
    """Parse `lines` one by one and raise the ParseError of the first line
    with a bad field or a width other than the first row's."""
    width = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        row = _parse_row(line, path, lineno)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")


def read_matrix(path: str) -> np.ndarray:
    """Matrix CSV from a path ('-' reads standard input)."""
    return parse_matrix(_read_lines(path), path)


def read_vector(path: str, length: int | None = None) -> np.ndarray:
    """A vector stored as a single CSV row, a single column, or one value per line."""
    a = read_matrix(path)
    if a.shape[0] == 1:
        v = a[0]
    elif a.shape[1] == 1:
        v = a[:, 0]
    else:
        raise ParseError(f"{path}: expected a single row or column")
    if length is not None and v.shape[0] != length:
        raise ParseError(f"{path}: expected {length} values, got {v.shape[0]}")
    return v


def format_matrix(a) -> str:
    """CSV text of a matrix (a vector is one row), each field the shortest
    repr of its float, so integer entries print as `1.0`."""
    rows = np.atleast_2d(np.asarray(a, dtype=float)).tolist()
    return "".join(",".join(map(repr, row)) + "\n" for row in rows)


def _writer_count(blocks: int) -> int:
    """Processes that format `blocks` blocks: one per CPU this process may
    run on, at most one per block, and 1 where `os.fork` does not exist."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, blocks))


def _serve(fd: int, inherited: list[int], blocks: range,
           block_text: Callable[[int], str]) -> None:
    """A forked writer: send each of `blocks` down pipe `fd` as one frame (an
    8-byte big-endian length, then the UTF-8 text), and exit. It never
    returns into the caller, whatever happens."""
    code = 1
    try:
        for other in inherited:  # read ends: the parent's closing must break the pipes
            os.close(other)
        with open(fd, "wb") as pipe:
            for k in blocks:
                data = block_text(k).encode()
                pipe.write(len(data).to_bytes(8, "big"))
                pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _receive(pipe) -> str | None:
    """The next frame from a writer, or None if it ended short."""
    head = pipe.read(8)
    if len(head) == 8:
        size = int.from_bytes(head, "big")
        data = pipe.read(size)
        if len(data) == size:
            return data.decode()
    return None


def write_blocks(handle, count: int, block_text: Callable[[int], str]) -> None:
    """Write block_text(0), ..., block_text(count - 1) to `handle` in order,
    formatted by P = `_writer_count(count)` processes.

    Block k goes to worker k mod P. Worker 0 is this process; workers 1..P-1
    are forked children (POSIX `fork`), each with its own pipe, that format
    their blocks in order and send each one as a length-prefixed frame. This
    process formats its own blocks and relays the children's frames as they
    come, so every process holds about one block of text, and the output is
    the serial loop's, byte for byte. A child that dies or sends a short
    frame costs time, never bytes: its remaining blocks are formatted here.
    On the way out every read end is closed, so a child blocked on a full
    pipe gets EPIPE, and every child is reaped.
    """
    workers = _writer_count(count)
    pipes = {}  # worker -> the read end of its pipe, while it delivers
    pids = []
    try:
        for worker in range(1, min(workers, count)):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: this one formats those blocks
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                _serve(write_fd, [read_fd] + [p.fileno() for p in pipes.values()],
                       range(worker, count, workers), block_text)
            os.close(write_fd)
            pids.append(pid)
            pipes[worker] = open(read_fd, "rb")
        for k in range(count):
            text = None
            pipe = pipes.get(k % workers)
            if pipe is not None:
                text = _receive(pipe)
                if text is None:
                    pipes.pop(k % workers).close()
            handle.write(block_text(k) if text is None else text)
    finally:
        for pipe in pipes.values():
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def read_trace(path: str) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Epoch blocks (epoch number, weight matrix, bias vector), shape-checked."""
    lines = [ln for ln in _read_lines(path) if ln.strip()]
    epochs: list[tuple[int, np.ndarray, np.ndarray]] = []
    i = 0
    shape = None
    while i < len(lines):
        head = lines[i].split()
        if len(head) != 2 or head[0] != "epoch":
            raise ParseError(f"{path}: expected 'epoch <k>' at line {i + 1}")
        try:
            epoch = int(head[1])
        except ValueError as exc:
            raise ParseError(f"{path}: bad epoch number at line {i + 1}") from exc
        i += 1
        rows = []
        while i < len(lines) and not lines[i].startswith("bias,") and not lines[i].startswith("epoch "):
            rows.append(_parse_row(lines[i], path, i + 1))
            i += 1
        if i >= len(lines) or not lines[i].startswith("bias,"):
            raise ParseError(f"{path}: epoch {epoch} has no bias row")
        bias = _parse_row(lines[i][len("bias,"):], path, i + 1)
        i += 1
        if not rows:
            raise ParseError(f"{path}: epoch {epoch} has no weight rows")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ParseError(f"{path}: epoch {epoch} weight rows are ragged")
        weights = np.array(rows, dtype=float)
        if len(bias) != weights.shape[0]:
            raise ParseError(f"{path}: epoch {epoch} bias length {len(bias)} != m={weights.shape[0]}")
        if shape is None:
            shape = weights.shape
        elif weights.shape != shape:
            raise ParseError(f"{path}: epoch {epoch} shape {weights.shape} != {shape}")
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise ParseError(f"{path}: epoch {epoch} has non-finite entries")
        epochs.append((epoch, weights, np.array(bias, dtype=float)))
    if not epochs:
        raise ParseError(f"{path}: empty trace")
    return epochs


def format_trace(epochs: Iterable[tuple[int, np.ndarray, np.ndarray]]) -> str:
    parts = []
    for epoch, weights, bias in epochs:
        parts.append(f"epoch {int(epoch)}\n")
        parts.append(format_matrix(weights))
        parts.append("bias," + format_matrix(bias))
    return "".join(parts)
