"""CSV matrices and epoch trace files.

Matrix files are plain CSV: one row per line, comma-separated decimal
fields, no header. A trace file concatenates epoch blocks, each being one
line `epoch <k>`, then the m weight rows as CSV, then one bias row prefixed
`bias,`. Both parse with `parse_matrix`, so in a trace as in a matrix file
a bad field or a row of the wrong width is named by its file line, blank
lines counted.
"""

from __future__ import annotations

import functools
import sys
from typing import Iterable

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


def parse_matrix(lines: Iterable[str], path: str = "<memory>", *, first_line: int = 1) -> np.ndarray:
    """The matrix of CSV `lines`, blank lines skipped. Every line's comma
    count is checked against the first's, and all fields go to one
    `np.array(fields, dtype=float)`, which parses each `str` as `float()`
    does. On a mismatch, the first bad line in file order is named, with
    `lines[0]` as line `first_line` of the file."""
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
        _check_rows(lines, path, first_line)  # raises the first line's ParseError
        raise
    if not np.isfinite(a).all():
        raise ParseError(f"{path}: non-finite entries")
    return a


def _check_rows(lines: list[str], path: str, first_line: int) -> None:
    """Parse `lines` one by one and raise the ParseError of the first line
    with a bad field or a width other than the first row's."""
    width = None
    for lineno, line in enumerate(lines, start=first_line):
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


# Fields formatted at once, at most. A (3, 200) reconstruct block of 240 rows
# goes in three slices and peaks at 1.31 MB under tracemalloc, its text
# included (256 rows: four slices, 1.24 MB); fewer, larger slices save a
# little time, but two slices of 128 rows peak at 1.73 MB.
SLICE_FIELDS = 16384
_P10 = np.array([10 ** e for e in range(19)], np.int64)  # 10^0 .. 10^18
_F10 = np.array([float(10 ** e) for e in range(21)])  # 10^0 .. 10^20, all exact doubles
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves
_MANTISSA = (1 << 52) - 1


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi + lo == a exactly, each of at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _half(text: str) -> np.uint16:
    """The 2 bytes of text as one half-word, in memory order."""
    return np.frombuffer(text.encode(), np.uint16)[0]


@functools.cache
def _group_words() -> np.ndarray:
    """The 4-byte text of every 4-digit group g at g + 10000 * v, for the
    variants v = 0 zero-padded, 1 leading zeros blank, 2 trailing zeros
    blank but 0 as "0   ", 3 trailing zeros blank. Built on first use
    (about 1 ms), read-only."""
    g = np.arange(10000, dtype=np.uint16)[:, None]
    place = np.array([1000, 100, 10, 1], np.uint16)
    lead = g < place
    trail = g % (10 * place) == 0
    first = trail.copy()
    first[:, 0] = False
    blank = np.stack([np.zeros_like(lead), lead, first, trail])
    digits = (g // place % 10 + ord("0")).astype(np.uint8)
    table = np.where(blank, np.uint8(ord(" ")), digits).view(np.uint32).ravel()
    table.flags.writeable = False
    return table


_F10_HI, _F10_LO = _halves(_F10)
_UNITS = np.frombuffer("".join(f"{d}." for d in range(10)).encode(), np.uint16)  # "0." .. "9."
_BLANK = _half("  ")
_MINUS = _half(" -") - _BLANK  # added to a separator half-word, it writes the sign


def _repr_fields(values: np.ndarray) -> list[str]:
    """`repr` of each value: the fields the exact path leaves open."""
    return [repr(v) for v in values.tolist()]


def _shortest(x: np.ndarray, at: np.ndarray):
    """(Z, D, F, ok) for the doubles x[at], whose magnitudes are in
    [1e-4, 1e16) and no powers of two: repr's digits as Z in [1e16, 1e17)
    (trailing zeros past the last digit), its decimal point after digit D,
    and F = digits after the point (D and F as int8). Where ok is False
    the field is left to `repr`."""
    ax = np.abs(x[at])
    e = np.log10(ax)
    k = np.clip(16 - np.floor(e, out=e), 1, 20).astype(np.int8)
    del e
    scale = _F10.take(k)
    # y = ax * 10^k = hi + lo exactly (Dekker's two-product), split into
    # an integer Y and a fraction f in [0, 1)
    hi = ax * scale
    ah, al = _halves(ax)
    th, tl = _F10_HI.take(k), _F10_LO.take(k)
    f = ah * th
    f -= hi
    f += ah * tl
    f += al * th
    f += al * tl
    del ah, al, th, tl
    whole = np.floor(f)
    f -= whole
    y = hi.astype(np.int64)
    y += whole.astype(np.int64)
    del hi, whole
    # half the gap to either neighbour, times 10^k: exact, h = hh + hf
    hf = ((ax.view(np.int64) >> 52) - 53 << 52).view(np.float64)
    hf *= scale
    del ax, scale
    hh = np.floor(hf)
    hf -= hh
    hh = hh.astype(np.int64)
    above = 1.0 - hf  # exact: hf is a multiple of 2^-47
    # the integers strictly inside (y - h, y + h) are [low, high]
    low = y - hh
    low += f > hf
    high = hh
    high += y
    high += f > above
    ok = (y >= _P10[16]) & (high < _P10[17]) & (f != hf) & (f != above)
    del hf, above
    # the largest 10^j with a multiple in [low, high]; digits = 17 - j.
    # j > 0 for about half the fields, j > 1 for few: 10 is tried on all
    tens = high // 10
    tens *= 10
    tens = (tens >= low) & ok
    j = tens.astype(np.int8)
    rows = np.flatnonzero(tens)
    for e in range(2, 17):
        q = _P10[e]
        rows = rows[high[rows] // q * q >= low[rows]]
        if not rows.size:
            break
        j[rows] = e
    del low, high, rows
    # its multiple nearest y, with exact ties left to repr
    q = _P10.take(j)
    head = y // q
    y -= head * q
    y *= 2
    y += f >= 0.5  # twice the distance of y above head * q, in units of q
    exact = (f == 0.0) | (f == 0.5)
    del f
    ok &= (y != q) | ~exact
    head += (y > q) | ((y == q) & ~exact)
    head *= q
    point = 17 - k
    return head, point, 17 - j - point, ok


def _digit_words(out: np.ndarray, at: np.ndarray, z: np.ndarray, point: np.ndarray,
                 ci: int, cf: int) -> None:
    """Write the digits z and decimal points of `_shortest` into rows `at`
    of the word array `out`: in the first ci words the integer digits
    (leading zeros blank, at least the units digit) and the point, right
    after the half-word that holds separator and sign; in the next cf
    words the fraction groups (trailing zeros blank, at least "0").
    z is overwritten."""
    groups = _group_words()
    half = out.view(np.uint16)
    shift = _P10.take(np.minimum(17 - point, 17))
    whole = z // shift
    shift *= whole
    frac = z  # z becomes the fraction digits, in place
    frac -= shift
    del shift
    rest = whole // 10
    whole -= rest * 10
    half[:, 2 * ci - 1][at] = _UNITS.take(whole)
    del whole
    pairs = groups.view(np.uint16).reshape(-1, 2)
    lead = True  # all higher groups are zero: leading zeros blank
    for i in range(ci - 1):
        q = _P10[4 * (ci - 2 - i)]
        g = rest // q
        rest -= g * q
        half[at, 1 + 2 * i:3 + 2 * i] = pairs.take(g + 10000 * lead, axis=0)
        lead = lead & (g == 0)
    # the fraction's first 8 digits in fa (groups 0, 1), the next 12 in
    # frac (groups 2, 3, 4); each is cut into groups from its last one up
    u = 9 - point
    q = _P10.take(np.maximum(u, 0))
    fa = frac // q
    q *= fa
    frac -= q
    frac *= _P10.take(np.minimum(12 - u, 12))
    fa *= _P10.take(np.maximum(-u, 0))
    del q, u
    rest = frac // _P10[4 * (5 - cf)] if cf > 2 else fa // _P10[4 * (2 - cf)]
    tail = True  # all lower groups are zero: trailing zeros blank
    for i in range(cf - 1, -1, -1):
        if i == 1 and cf > 2:
            rest = fa
        g = rest
        if i not in (0, 2):  # below the first group of fa or frac
            rest = g // 10000
            g = g - rest * 10000
        out[:, ci + i][at] = groups.take(g + tail * (20000 if i == 0 else 30000))
        tail = tail & (g == 0)


def slice_rows(cols: int) -> int:
    """Rows of `cols` fields that `format_matrix` formats at once, at most:
    the whole rows in SLICE_FIELDS fields, and at least one."""
    return max(1, SLICE_FIELDS // cols)


def format_matrix(a) -> str:
    """CSV text of a matrix (a vector is one row), each field the shortest
    repr of its float, so integer entries print as `1.0`: byte for byte
    `"".join(",".join(map(repr, row)) + "\\n" for row in rows)`.

    The fields are formatted at most SLICE_FIELDS at a time with array
    operations. Zeros are constants. Every x with 1e-4 <= |x| < 1e16 that
    is not a power of two gets repr's digits from exact arithmetic, in
    `_shortest`:

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
    the window (`_repr_fields`, once per distinct value). Each field's text
    is laid out in 4-byte words padded with spaces, in a bytearray whose
    `translate` deletes the spaces: separator, sign, integer digits and
    point in the first words, fraction digit groups in the rest
    (",-0." and five groups, 24 bytes, for a field below 1 with up to 20
    fraction digits). The rows are cut into slices of equal size, and a
    slice's arrays are freed as soon as they are dead, so the peak memory
    is the text twice (its slices and their join) or the text so far and
    one slice's arrays (see SLICE_FIELDS).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    rows, cols = a.shape
    if not a.size:
        return "\n" * rows
    count = -(-rows // slice_rows(cols))
    step = -(-rows // count)  # rows per slice, as even as the count allows
    return "".join([*(_format_rows(a[start:start + step], start > 0).decode("ascii")
                      for start in range(0, rows, step)), "\n"])


def _format_rows(a: np.ndarray, follows: bool) -> bytearray:
    """CSV bytes of the rows of a, as `format_matrix` describes, without
    the last row's newline and, unless the rows follow earlier ones,
    without the newline before the first."""
    x = a.ravel()
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e16) & ((x.view(np.int64) & _MANTISSA) != 0)
    slow = ~fast & (ax != 0.0)
    del ax
    at = np.flatnonzero(fast)
    del fast
    z, point, nfrac, ok = _shortest(x, at)
    if not ok.all():
        slow[at[~ok]] = True
        at, z, point, nfrac = at[ok], z[ok], point[ok], nfrac[ok]
    others = np.flatnonzero(slow)
    keys, inverse = np.unique(x[others].view(np.int64), return_inverse=True)
    texts = _repr_fields(keys.view(np.float64))
    # words: separator, sign, integer digits and point; fraction groups
    ci = (int(point.max(initial=1)) + 6) // 4
    cf = (int(nfrac.max(initial=1)) + 3) // 4
    width = max(ci + cf, (max(map(len, texts), default=0) + 5) // 4)
    # every field starts as ",0.0"; the first of each row starts with a newline
    buf = bytearray((", ".ljust(4 * ci - 2) + "0." + "0".ljust(4 * (width - ci))).encode()) * x.size
    out = np.frombuffer(buf, np.uint32).reshape(x.size, width)
    _digit_words(out, at, z, point, ci, cf)
    del at, z, point
    half = out.view(np.uint16)
    if others.size:
        text = "".join(t.ljust(4 * width - 2) for t in texts).encode()
        half[others, 1:] = np.frombuffer(text, np.uint16).reshape(-1, 2 * width - 1)[inverse]
    first = half.reshape(a.shape + (2 * width,))[:, 0, 0]
    first[:] = _half("\n ")
    if not follows:
        first[0] = _BLANK
    half[:, 0] += (np.signbit(x) > slow) * _MINUS  # a sign on the exact fields
    return buf.translate(None, b" ")


def read_trace(path: str) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Epoch blocks (epoch number, weight matrix, bias vector), shape-checked.
    Each block's weight lines and its bias row go through `parse_matrix`."""
    text = _read_lines(path)
    epochs: list[tuple[int, np.ndarray, np.ndarray]] = []
    i = 0
    while i < len(text):
        if not text[i].strip():
            i += 1
            continue
        head = text[i].split()
        if len(head) != 2 or head[0] != "epoch":
            raise ParseError(f"{path}: expected 'epoch <k>' at line {i + 1}")
        try:
            epoch = int(head[1])
        except ValueError as exc:
            raise ParseError(f"{path}: bad epoch number at line {i + 1}") from exc
        start = i = i + 1
        while i < len(text) and not text[i].startswith(("bias,", "epoch ")):
            i += 1
        if i == len(text) or not text[i].startswith("bias,"):
            raise ParseError(f"{path}: epoch {epoch} has no bias row")
        if not any(line.strip() for line in text[start:i]):
            raise ParseError(f"{path}: epoch {epoch} has no weight rows")
        bias_row = text[i][len("bias,"):]
        if not bias_row.strip():
            raise ParseError(f"{path}:{i + 1}: epoch {epoch} has an empty bias row")
        weights = parse_matrix(text[start:i], path, first_line=start + 1)
        bias = parse_matrix([bias_row], path, first_line=i + 1)[0]
        i += 1
        if len(bias) != weights.shape[0]:
            raise ParseError(f"{path}: epoch {epoch} bias length {len(bias)} != m={weights.shape[0]}")
        if epochs and weights.shape != epochs[0][1].shape:
            raise ParseError(f"{path}: epoch {epoch} shape {weights.shape} != {epochs[0][1].shape}")
        epochs.append((epoch, weights, bias))
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
