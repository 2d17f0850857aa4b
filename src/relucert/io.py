"""CSV matrices and epoch trace files.

Matrix files are plain CSV: one row per line, comma-separated decimal
fields, no header. A trace file concatenates epoch blocks, each being one
line `epoch <k>`, then the m weight rows as CSV, then one bias row prefixed
`bias,`.
"""

from __future__ import annotations

import functools
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


SLICE_FIELDS = 8192  # fields formatted at once: bounds a slice's arrays to about 2 MB
_P10 = np.array([10 ** e for e in range(19)], np.int64)  # 10^0 .. 10^18
_F10 = np.array([float(10 ** e) for e in range(21)])  # 10^0 .. 10^20, all exact doubles
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves
_MANTISSA = (1 << 52) - 1


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi + lo == a exactly, each of at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _word(text: str) -> np.uint32:
    """The 4 bytes of text as one word, in memory order."""
    return np.uint32(int.from_bytes(text.encode(), sys.byteorder))


@functools.cache
def _group_words() -> np.ndarray:
    """The 4-byte text of every 4-digit group g at g + 10000 * v, for the
    variants v = 0 zero-padded, 1 leading zeros blank, 2 the same but 0 as
    "   0", 3 trailing zeros blank but 0 as "0   ", 4 trailing zeros blank.
    Built on first use (about 1 ms), read-only."""
    g = np.arange(10000, dtype=np.uint16)[:, None]
    place = np.array([1000, 100, 10, 1], np.uint16)
    lead = g < place
    trail = g % (10 * place) == 0
    units, first = lead.copy(), trail.copy()
    units[:, 3] = False
    first[:, 0] = False
    blank = np.stack([np.zeros_like(lead), lead, units, first, trail])
    digits = (g // place % 10 + ord("0")).astype(np.uint8)
    table = np.where(blank, np.uint8(ord(" ")), digits).view(np.uint32).ravel()
    table.flags.writeable = False
    return table


_F10_HI, _F10_LO = _halves(_F10)
_BLANK = _word("    ")
_POINT = _word("   .")
_ZERO, _ZERO_FRACTION = _word("   0"), _word("0   ")  # 0.0 is "0" + point + "0"
_MINUS = _word("   -") - _BLANK  # added to a separator word, it writes the sign


def _repr_fields(values: np.ndarray) -> list[str]:
    """`repr` of each value: the fields the exact path leaves open."""
    return [repr(v) for v in values.tolist()]


def _shortest(ax: np.ndarray):
    """(Z, D, F, ok) for positive doubles 1e-4 <= ax < 1e16, not powers of
    two: repr's digits as Z in [1e16, 1e17) (trailing zeros past the last
    digit), its decimal point after digit D, and F = digits after the
    point. Where ok is False the field is left to `repr`."""
    k = np.clip(16 - np.floor(np.log10(ax)).astype(np.int64), 1, 20)
    scale = _F10[k]
    # y = ax * 10^k = hi + lo exactly (Dekker's two-product), split into
    # an integer Y and a fraction f in [0, 1)
    hi = ax * scale
    ah, al = _halves(ax)
    lo = ((ah * _F10_HI[k] - hi) + ah * _F10_LO[k] + al * _F10_HI[k]) + al * _F10_LO[k]
    whole = np.floor(lo)
    y = hi.astype(np.int64) + whole.astype(np.int64)
    f = lo - whole
    # half the gap to either neighbour, times 10^k: exact, h = hh + hf
    h = ((ax.view(np.int64) >> 52) - 53 << 52).view(np.float64) * scale
    hh = np.floor(h)
    hf = h - hh
    above = 1.0 - hf  # exact: hf is a multiple of 2^-47
    # the integers strictly inside (y - h, y + h) are [low, high]
    low = y - hh.astype(np.int64) + (f > hf)
    high = y + hh.astype(np.int64) + (f > above)
    ok = (y >= _P10[16]) & (high < _P10[17]) & (f != hf) & (f != above)
    # the largest 10^j with a multiple in [low, high]; digits = 17 - j
    j = np.zeros(ax.shape, np.int64)
    rows = np.flatnonzero(ok)
    for e in range(1, 17):
        q = _P10[e]
        rows = rows[high[rows] // q * q >= low[rows]]
        if not rows.size:
            break
        j[rows] = e
    # its multiple nearest y, with exact ties left to repr
    q = _P10[j]
    head = y // q
    twice = 2 * (y - head * q) + (f >= 0.5)
    exact = (f == 0.0) | (f == 0.5)
    ok &= (twice != q) | ~exact
    point = 17 - k
    return (head + (twice > q) + ((twice == q) & ~exact)) * q, point, 17 - j - point, ok


def _digit_words(z: np.ndarray, point: np.ndarray, ci: int, cf: int) -> np.ndarray:
    """(N, ci + 1 + cf) words for the digits z and decimal points of
    `_shortest`: ci integer groups (leading zeros blank, at least "0"),
    the point, cf fraction groups (trailing zeros blank, at least "0")."""
    groups = _group_words()
    words = np.empty((z.size, ci + 1 + cf), np.uint32)
    shift = np.minimum(17 - point, 17)
    whole = z // _P10[shift]
    frac = z - whole * _P10[shift]
    lead = True  # all higher groups are zero: leading zeros blank
    for i in range(ci):
        q = _P10[4 * (ci - 1 - i)]
        g = whole // q
        whole = whole - g * q
        words[:, i] = groups.take(g + 10000 * (2 if i == ci - 1 else 1) * lead)
        lead = lead & (g == 0)
    words[:, ci] = _POINT
    # the fraction's first 8 digits in fa, the next 12 in fb
    u = 9 - point
    q = _P10[np.maximum(u, 0)]
    fa = frac // q
    fb = (frac - fa * q) * _P10[np.minimum(12 - u, 12)]
    fa = fa * _P10[np.maximum(-u, 0)]
    high, mid, top = fa // 10000, fb // 10000, fb // 100000000
    parts = [high, fa - high * 10000, top, mid - top * 10000, fb - mid * 10000][:cf]
    tail = True  # all lower groups are zero: trailing zeros blank
    for i in range(cf - 1, -1, -1):
        words[:, ci + 1 + i] = groups.take(parts[i] + 10000 * (3 if i == 0 else 4) * tail)
        tail = tail & (parts[i] == 0)
    return words


def format_matrix(a) -> str:
    """CSV text of a matrix (a vector is one row), each field the shortest
    repr of its float, so integer entries print as `1.0`: byte for byte
    `"".join(",".join(map(repr, row)) + "\\n" for row in rows)`.

    The fields are formatted SLICE_FIELDS at a time with array operations.
    Zeros are constants. Every x with 1e-4 <= |x| < 1e16 that is not a
    power of two gets repr's digits from exact arithmetic, in `_shortest`:

    - With k = 16 - floor(log10 |x|) <= 20, 10^k is an exact double, and
      Dekker's two-product (Numer. Math. 18, 1971) holds y = |x| 10^k
      exactly as an int64 Y in [1e16, 1e17) plus a fraction f in [0, 1).
    - x is no power of two, so both its neighbours lie spacing(x) away: a
      decimal reads back as x if its distance to |x| is below spacing(x) / 2
      (at exactly that distance round-half-even decides). Scaled by 10^k,
      this half gap H is exact: a power of two times 5^k < 2^53.
    - Reading back is monotone in the digit count, and repr prints the
      fewest digits that read back, nearest to x among those: the multiple
      of 10^j nearest y, for the largest j with a multiple of 10^j strictly
      within H of y, in 17 - j digits. The interval (y - H, y + H) is
      symmetric about y, so the nearest multiple lies in it when any does.
    - Every comparison is exact: on integers, and on f and H split into
      integer and fraction parts. A field goes to `repr` when y is an exact
      tie between two multiples, when y - H or y + H is an integer (so a
      decimal may lie at distance exactly H), or when the float log10 put
      y outside [1e16, 1e17).

    So does every other field: nan, +-inf, powers of two and values outside
    the window (`_repr_fields`). Each field's text is laid out in 4-byte
    words (separator and sign, integer digit groups, point, fraction digit
    groups) padded with spaces, and `bytes.translate` deletes the spaces.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    rows, cols = a.shape
    if cols == 0:
        return "\n" * rows
    step = max(1, SLICE_FIELDS // cols)
    return b"".join(_format_rows(a[start:start + step])
                    for start in range(0, rows, step)).decode("ascii")


def _format_rows(a: np.ndarray) -> bytes:
    """CSV bytes of the rows of a, as `format_matrix` describes."""
    x = a.ravel()
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e16) & ((x.view(np.int64) & _MANTISSA) != 0)
    at = np.flatnonzero(fast)
    z, point, nfrac, ok = _shortest(ax[at])
    slow = ~fast & (x != 0.0)
    slow[at[~ok]] = True
    at, z, point, nfrac = at[ok], z[ok], point[ok], nfrac[ok]
    others = np.flatnonzero(slow)
    texts = _repr_fields(x[others])
    # words: separator and sign, integer groups, point, fraction groups
    ci = -(-int(point.max(initial=1)) // 4)
    cf = -(-int(nfrac.max(initial=1)) // 4)
    digits = ci + 1 + cf
    width = max(1 + digits, 1 - (-max(map(len, texts), default=0) // 4))
    out = np.empty((x.size, width), np.uint32)
    out[:, 1:1 + digits] = [_BLANK] * (ci - 1) + [_ZERO, _POINT, _ZERO_FRACTION] + [_BLANK] * (cf - 1)
    out[:, 1 + digits:] = _BLANK
    out[at, 1:1 + digits] = _digit_words(z, point, ci, cf)
    if others.size:
        text = "".join(t.ljust(4 * (width - 1)) for t in texts).encode()
        out[others, 1:] = np.frombuffer(text, np.uint32).reshape(-1, width - 1)
    sep = out.reshape(a.shape + (width,))[:, :, 0]
    sep[:, 1:] = _word(",   ")
    sep[:, 0] = _word("\n   ")
    sep[0, 0] = _BLANK  # the slice's first row has none; its last "\n" is added below
    out[:, 0] += (np.signbit(x) & ~slow).astype(np.uint32) * _MINUS
    return out.tobytes().translate(None, b" ") + b"\n"


WRITER_BLOCKS = 16  # blocks per writer process: with fewer, a second process buys no time


def _writer_count(blocks: int) -> int:
    """Processes that format `blocks` blocks: one per WRITER_BLOCKS blocks,
    at most one per CPU this process may run on, at least 1, and 1 where
    `os.fork` does not exist.

    A forked writer costs its fork, its pipe and a free CPU. Timed alone
    (2-core host, 256 x 204 blocks of about 9 ms each, median of 15), two
    writers against one took 93 against 79 ms for 8 blocks, 279 against
    258 ms for 24, and 232 against 353 ms for 32. With fewer blocks the
    second process only made the command's time depend on whether the
    other CPU was busy."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, blocks // WRITER_BLOCKS))


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
