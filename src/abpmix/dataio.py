"""Cohort input, hourly aggregation, reference filtering, and simulation.

Input CSV schema: header row with at least ``subject_id``, ``time`` and
the outcome column (``sbp`` or ``dbp``); any remaining columns become
static covariates, which must keep one value across a subject's rows
(a change is a SchemaError).  Times are elapsed hours since recording
start.

Tokenizers of ``read_cohort``.  It reads chunks of ``_CHUNK_ROWS``
records, so that the memory beyond the converted columns is one chunk's
text and fields.  A plain file is read with universal newlines and split
at line ends and ``,``, which is all that ``csv``'s dialect does to its
text: outside quotes, ``csv.reader`` too ends a record at LF, CRLF or a
lone CR.  A file is plain if its header has every needed column and
every chunk has no ``"`` or NUL, no field over ``csv.field_size_limit()``,
every record of the header's width (the final line end may be missing)
and every time and outcome a number.  At the first chunk that is not,
``csv.reader`` reads the file again from its header and raises every
error below; a plain file holds none of them before its cohort checks.

Errors of ``read_cohort``.  Records are numbered from the header, row 1;
blank records are skipped but counted.  Invalid UTF-8 anywhere in the
file is a ParseError first; then a missing column is a SchemaError; then
the earliest offending record raises.  A record that ``csv`` cannot
tokenize, such as one with a field over ``csv.field_size_limit()``, is a
ParseError, the header included.  Within a record the checks run in
this order: a short row, an unparsable time, an unparsable outcome
(ParseError), a time its subject already has (DuplicateError), a
covariate whose value differs from the subject's first record
(SchemaError).  Then one vectorized pass over the sorted cohort makes
every check of ``TimeGrid`` and ``Subject``, in their order: finite times
(GridError), times in [0, 24] (GridError), strictly increasing times
(GridError; sorted times without duplicates always are), finite
outcomes (SpecError).
The first subject, in order of first appearance, that fails one raises
its first failed check, naming the subject and that check's earliest
record: ``row 3: subject 'b': time points must lie in [0.0, 24.0]``.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from itertools import compress, islice
from operator import itemgetter
from types import SimpleNamespace
from typing import Mapping, Optional, Sequence

import numpy as np

from .basis import TIME_DOMAIN, TimeGrid
from .design import BasisContext, Cohort, ModelSpec, Subject
from .errors import ConfigError, DuplicateError, GridError, ParseError, SchemaError, SpecError

OUTCOMES = ("sbp", "dbp")


_CHUNK_ROWS = 1024  # records tokenized and converted at a time: bounds the peak memory


def _covariate_value(raw: str):
    try:
        return float(raw)
    except ValueError:
        return raw


def _changed(was: str, now: str) -> bool:
    """Whether a covariate cell holds another value than the subject's first
    (``41`` and ``41.0`` are one value; the same text is never a change)."""
    return was != now and _covariate_value(was) != _covariate_value(now)


def _floats(cells: list):
    """``float()`` of the cells before the first one that does not parse,
    and that cell's index (``len(cells)`` when every cell parses)."""
    try:
        return np.fromiter(map(float, cells), float, len(cells)), len(cells)
    except ValueError:
        for n, text in enumerate(cells):
            try:
                float(text)
            except ValueError:
                return np.fromiter(map(float, cells[:n]), float, n), n


def _layout(header: list, outcome: str):
    """The covariate columns, every column but ``subject_id``, ``time`` and
    the outcomes, and the header indices of the subject id, the time, the
    outcome and each covariate; a SchemaError names the first missing
    column."""
    column = {name: j for j, name in enumerate(header)}
    for required in ("subject_id", "time", outcome):
        if required not in column:
            raise SchemaError(f"missing column {required!r}")
    covariate_columns = [c for c in header if c not in ("subject_id", "time", *OUTCOMES)]
    return covariate_columns, [column[c] for c in ("subject_id", "time", outcome,
                                                   *covariate_columns)]


@dataclass
class _Columns:
    """The records read so far, converted.  ``index`` holds the header
    indices of the subject id, the time, the outcome and each covariate;
    ``codes`` numbers the subject ids in order of first appearance;
    ``parts`` holds one list per column of ``convert``'s arrays; ``row``
    is the number of the next record; ``error`` is the first bad
    record's ParseError, or None."""
    covariate_columns: Sequence[str]
    index: list
    codes: dict = field(default_factory=dict)
    parts: list = field(init=False)
    row: int = 2
    error: Optional[ParseError] = None

    def __post_init__(self):
        self.parts = [[] for _ in range(len(self.index) + 1)]

    def convert(self, cells: list, rownums, outcome: str):
        """One chunk's time, outcome, subject-code and record-number arrays
        and one object array per covariate, up to the chunk's first record
        with an unparsable time or outcome, and that record's ParseError,
        or None.  ``cells`` holds the chunk's texts, one list per ``index``
        column; the chunk's new subject ids join ``codes``."""
        sids, times, values, *covs = cells
        t, bad_t = _floats(times)
        y, bad_y = _floats(values)
        n = min(bad_t, bad_y)
        error = None
        if n < len(sids):
            name, text = ("time", times[n]) if bad_t == n else (outcome, values[n])
            error = ParseError(f"row {rownums[n]}: cannot parse {name}={text!r}")
            sids, t, y, rownums, covs = sids[:n], t[:n], y[:n], rownums[:n], [c[:n] for c in covs]
        for sid in dict.fromkeys(sids):
            self.codes.setdefault(sid, len(self.codes))
        code = np.fromiter(map(self.codes.__getitem__, sids), np.intp, len(sids))
        return [t, y, code, rownums] + [np.array(c, dtype=object) for c in covs], error

    def append(self, arrays: list):
        for part, arr in zip(self.parts, arrays):
            part.append(arr)


def read_cohort(path, outcome: str = "sbp") -> Cohort:
    """Read a cohort CSV, one Subject per id with ascending times.

    The records are tokenized and converted column by column in chunks of
    ``_CHUNK_ROWS``, so that the memory beyond the converted columns is
    one chunk's text and fields.  A plain file (see the module docstring)
    is split at line ends and ``,``; any other is read again from its
    header by ``csv.reader``, which raises every error of the module
    docstring.  One stable sort on (subject, time) then finds duplicate
    times and orders each subject's rows, and one pass over the sorted
    arrays checks the whole cohort.  The sorted time and outcome arrays
    are then made read-only, and each subject's ``times.points`` and
    ``y`` are views (slices) of them, built without a copy or a second
    check.
    """
    outcome = outcome.lower()
    try:
        with open(path, encoding="utf-8", newline=None) as fh:
            columns = _read_plain(fh, outcome)
        if columns is None:
            with open(path, encoding="utf-8", newline="") as fh:
                columns = _read_csv(fh, outcome)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc.reason}") from None
    parts = [np.concatenate(p) for p in columns.parts] if columns.codes else None
    return _assemble(parts, list(columns.codes), columns.error, outcome, columns.covariate_columns)


def _plain_fields(text: str, limit: int):
    """The fields of ``text``, lines that each end in ``\\n`` but perhaps
    the last, in order, with a ``"\\n"`` after each line's; None if the
    text holds ``"`` or NUL or a field is over ``limit`` characters.
    Otherwise ``csv.reader`` reads each line as exactly those fields."""
    if '"' in text or "\0" in text:
        return None
    fields = (text if text.endswith("\n") else text + "\n").replace("\n", ",\n,").split(",")
    fields.pop()  # the empty text after the last line's marker
    if len(text) > limit and max(map(len, fields)) > limit:
        return None
    return fields


def _read_plain(fh, outcome: str) -> Optional[_Columns]:
    """The columns of the text file ``fh``, opened with universal newlines,
    or None at its header or first chunk that is not plain: whose lines
    ``_plain_fields`` does not split into records of the header's width,
    that holds a time or outcome that is not a number, or, for the header,
    that lacks a needed column.

    Each chunk of records is split once, and column j is the strided
    slice of the fields from j on.
    """
    limit = csv.field_size_limit()
    header = _plain_fields(fh.readline(), limit)
    if header is None:
        return None
    try:
        columns = _Columns(*_layout(header[:-1], outcome))
    except SchemaError:
        return None
    stride = len(header)  # the fields of a record and its "\n"
    while lines := list(islice(fh, _CHUNK_ROWS)):
        n = len(lines)
        fields = _plain_fields("".join(lines), limit)
        if (fields is None or len(fields) != n * stride
                or fields[stride - 1::stride].count("\n") != n):
            return None
        arrays, error = columns.convert([fields[j::stride] for j in columns.index],
                                        np.arange(columns.row, columns.row + n), outcome)
        if error is not None:
            return None
        columns.append(arrays)
        columns.row += n
    return columns


def _records(reader, first: int, count: int):
    """Up to ``count`` records, the first numbered ``first``, and the
    ParseError of a record that ``csv`` cannot tokenize, such as one with a
    field over ``csv.field_size_limit()``, or None."""
    rows = []
    try:
        rows.extend(islice(reader, count))  # keeps the records before a failure
    except csv.Error as exc:
        return rows, ParseError(f"row {first + len(rows)}: {exc}")
    return rows, None


def _drain(fh) -> None:
    """Decode the rest of the file, so that invalid UTF-8 is found first."""
    for _ in fh:
        pass


def _read_csv(text, outcome: str) -> _Columns:
    """Read the text file ``text`` with ``csv.reader`` from its header,
    converting the records up to the first one that is short or holds an
    unparsable number, and decode what is left after that, so that
    invalid UTF-8 comes first.  Raises the errors that come before any
    record's: a header ``csv`` cannot tokenize and a missing column.
    """
    reader = csv.reader(text)
    rows, error = _records(reader, 1, 1)
    if error is None:
        try:
            columns = _Columns(*_layout(rows[0] if rows else [], outcome))
        except SchemaError as exc:
            error = exc
    if error is not None:
        _drain(text)
        raise error
    width = max(columns.index) + 1
    while columns.error is None:
        rows, error = _records(reader, columns.row, _CHUNK_ROWS)
        if not rows:
            columns.error = error
            break
        start = columns.row
        columns.row += len(rows)
        lengths = np.fromiter(map(len, rows), np.intp, len(rows))
        short = np.flatnonzero((lengths < width) & (lengths > 0))
        if short.size:
            s = int(short[0])
            error = ParseError(f"row {start + s}: expected {width} fields, found {lengths[s]}")
            rows, lengths = rows[:s], lengths[:s]
        rownums = np.flatnonzero(lengths) + start
        if rownums.size < len(rows):
            rows = list(compress(rows, lengths))
        arrays, bad = columns.convert([list(map(itemgetter(j), rows)) for j in columns.index],
                                      rownums, outcome)
        columns.append(arrays)
        columns.error = bad or error
    _drain(text)
    return columns


def _assemble(columns, ids, error, outcome, covariate_columns) -> Cohort:
    """Subjects from the converted records, after the checks that compare
    records (duplicate times, changed covariates) and one pass over the
    sorted cohort that makes every check of ``TimeGrid`` and ``Subject``;
    each subject then holds read-only views of the sorted arrays."""
    if not ids:
        raise error if error is not None else SchemaError("no data rows")
    t, y, code, rownum, *cells = columns
    order = np.lexsort((t, code))  # stable: equal (code, t) keep record order
    ts, cs = t[order], code[order]
    dup = order[1:][(cs[1:] == cs[:-1]) & (ts[1:] == ts[:-1])]
    bad_dup = int(dup.min()) if dup.size else t.size
    firsts = np.unique(code, return_index=True)[1]  # each subject's first record
    ref = firsts[code]
    bad_cov = t.size
    for col in cells:
        for i in np.flatnonzero(col != col[ref]):
            if i >= bad_cov:
                break
            if _changed(col[ref[i]], col[i]):
                bad_cov = i
                break
    if bad_dup <= bad_cov and bad_dup < t.size:
        raise DuplicateError(f"row {rownum[bad_dup]}: duplicate time {float(t[bad_dup])} "
                             f"for subject {ids[code[bad_dup]]!r}")
    if bad_cov < t.size:
        i = bad_cov
        for c, col in zip(covariate_columns, cells):
            was, now = col[ref[i]], col[i]
            if _changed(was, now):
                raise SchemaError(
                    f"row {rownum[i]}: covariate {c!r} of subject {ids[code[i]]!r} changes "
                    f"from {was!r} to {now!r}; covariates must be static"
                )
    if error is not None:
        raise error
    ys = y[order]
    lo, hi = TIME_DOMAIN
    checks = (  # in the order of TimeGrid's and Subject's own checks
        (~np.isfinite(ts), GridError, "time grid contains non-finite values"),
        ((ts < lo) | (ts > hi), GridError, f"time points must lie in [{lo}, {hi}]"),
        (np.r_[False, ~((ts[1:] > ts[:-1]) | (cs[1:] != cs[:-1]))], GridError,
         "time points must be strictly increasing"),  # TimeGrid._trusted's precondition
        (~np.isfinite(ys), SpecError, "non-finite outcome values"),
    )
    failed = np.logical_or.reduce([mask for mask, _, _ in checks])
    # subject k's rows are edges[k] to edges[k + 1]; an empty range is an empty subject
    edges = np.searchsorted(cs, np.arange(len(ids) + 1)).tolist()
    bad = np.union1d(cs[failed], np.flatnonzero(np.diff(edges) == 0))
    if bad.size:  # the first such subject's first failed check, at its earliest record
        k = int(bad[0])
        a, b = edges[k], edges[k + 1]
        if a == b:
            raise SpecError(f"subject {ids[k]!r} has no observations")
        mask, kind, what = next(c for c in checks if c[0][a:b].any())
        raise kind(f"row {rownum[order[a:b][mask[a:b]]].min()}: subject {ids[k]!r}: {what}")
    ts.flags.writeable = False
    ys.flags.writeable = False
    values = [[_covariate_value(col[j]) for j in firsts.tolist()] for col in cells]
    subjects = tuple(
        Subject._trusted(sid, TimeGrid._trusted(ts[a:b]), ys[a:b], dict(zip(covariate_columns, v)))
        for sid, a, b, *v in zip(ids, edges, edges[1:], *values)
    )
    return Cohort(subjects=subjects, outcome_label=outcome.upper())


BLOCK_VALUES = 8192  # numbers formatted at a time by the CSV writers: bounds their peak memory

_POW10 = np.array([10.0 ** k for k in range(23)])  # exact: 5**22 < 2**53
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for binary64
_ROW = np.arange(22, dtype=np.uint8)[:, None]


def _two_product(a, b):
    """``(p, e)`` with ``p = fl(a * b)`` and ``p + e = a * b`` exactly (Dekker)."""
    p = a * b
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _significand(a):
    """For 1e-4 <= a < 1e16: D = a 10^(16 - e) rounded half to even, in
    [1e16, 1e17), and the decimal exponent e (see ``format_g17``)."""
    e = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _two_product(a, _POW10[16 - e])
    off = (((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.intp)
           - ((hi < 1e16) | ((hi == 1e16) & (lo < 0))))
    wrong = np.flatnonzero(off)
    if wrong.size:
        e[wrong] += off[wrong]
        hi[wrong], lo[wrong] = _two_product(a[wrong], _POW10[16 - e[wrong]])
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), e


def _digit_rows(a):
    """The 17 digits of each ``_significand`` as ASCII, position-major: row
    r holds digit r of every value, rows 17 to 21 are NUL; and e."""
    d, e = _significand(a)
    lead = d // 10 ** 16
    rest = d - lead * 10 ** 16
    high = rest // 10 ** 8
    groups = np.empty((4, d.size), np.uint16)  # the other 16 digits, four at a time
    for j, half in enumerate((high, rest - high * 10 ** 8)):
        half = half.astype(np.uint32)
        top = half // 10000
        groups[2 * j], groups[2 * j + 1] = top, half - top * 10000
    # numpy vectorizes // of small unsigned ints by a constant, but not %
    q1, q2, q3 = groups // 1000, groups // 100, groups // 10
    digits = np.zeros((22, d.size), np.uint8)
    digits[0] = lead
    digits[1:17:4], digits[2:17:4] = q1, q2 - q1 * 10
    digits[3:17:4], digits[4:17:4] = q3 - q2 * 10, groups - q3 * 10
    digits[:17] += 48
    return digits, e


def format_g17(values) -> np.ndarray:
    """The text ``format(v, ".17g")`` of every value, as a (n, w) uint8 array
    (w <= 24): row i with its NUL bytes dropped is value i's ASCII text.

    For 1e-4 <= |v| < 1e16, ``%.17g`` is fixed notation of the integer D
    = |v| 10^k rounded half to even, for the k in [0, 22] that puts |v|
    10^k in [1e16, 1e17): the point follows digit 17 - k, ``0.`` and zeros
    lead when |v| < 1, and trailing zeros after the point are dropped.
    Why the arrays below give exactly that D:

    - 10^k is an exact double, as 5^22 < 2^53.
    - Dekker's two-product splits |v| 10^k = hi + lo exactly.  That needs
      IEEE binary64 with round-to-nearest, and one rounding per numpy
      ufunc: no fused multiply-add, no extended precision.  No product
      here comes near overflow or underflow.
    - floor(log10 |v|) can be one off next to a power of ten, so k is
      corrected by comparing hi and lo with 1e16 and 1e17.  A check on
      the rounded D instead misjudges 0.09999999999999999.
    - hi >= 1e16 > 2^53 is an even integer and |lo| <= 8, so D = hi +
      rint(lo): rint rounds ties to even, which is how ``%.17g`` rounds
      the ties that occur, such as 100 + 2^-15.
    - D < 1e17: no double in range lies within 5e-18, relatively, of a
      power of ten other than that power itself, so no rounding carries.

    D's digits come from integer division of its four-digit groups.  From
    there on the arrays are position-major, one row per character
    position, so that placing the point, shifting in the leading zeros
    and dropping trailing zeros are whole-row masks and blends; one
    transpose makes the result row-major.  Zero, non-finite values and
    other magnitudes go through ``format`` one at a time.
    """
    x = np.asarray(values, dtype=float).ravel()
    n = x.size
    if not n:
        return np.zeros((0, 0), np.uint8)
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)  # NaN is not
    digits, e = _digit_rows(np.where(fast, a, 1.0))
    point = np.maximum(e, 0).astype(np.uint8)  # the last digit before the point
    for s in range(1, -min(int(e.min()), 0) + 1):  # |v| < 1: s zeros, the first before the point
        cols = np.flatnonzero(e == -s)
        if cols.size:
            digits[s:s + 17, cols] = digits[:17, cols]
            digits[:s, cols] = 48
    last = ((digits > 48) * _ROW).max(axis=0)  # the last nonzero digit
    digits *= _ROW <= np.maximum(last, point)  # trailing zeros after the point become NUL
    out = np.empty((23, n), np.uint8)
    out[0] = (x < 0) * np.uint8(45)
    out[1] = digits[0]
    out[2:] = digits[:21]
    body = out[1:]  # row r: digit r up to the point, then the point, then digit r - 1
    digits -= body  # in place from here: the blends' terms
    digits *= _ROW <= point
    body += digits
    np.subtract((last > point) * np.uint8(46), body, out=digits)
    digits *= _ROW == point + np.uint8(1)
    body += digits
    used = np.flatnonzero(out.any(axis=1))
    width = used[-1] + 1 - used[0]
    slow = np.flatnonzero(~fast)
    spelled = text_fields([format(v, ".17g") for v in x[slow].tolist()])[0]
    fields = np.zeros((n, max(width, spelled.shape[1])), np.uint8)
    fields[:, :width] = out[used[0]:used[-1] + 1].T
    fields[slow] = 0
    fields[slow, :spelled.shape[1]] = spelled
    return fields


def csv_writer(fh):
    """A ``csv.writer`` on ``fh`` whose rows end in ``\\n``.  It writes
    through a ``\\r\\n`` terminator, which makes it quote a field holding
    either character, so that every row reads back as written."""
    return csv.writer(SimpleNamespace(write=lambda row: fh.write(row[:-2] + "\n")),
                      lineterminator="\r\n")


def write_csv(path, header, rows):
    """Write the header row and then ``rows`` to ``path`` with ``csv_writer``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv_writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


_SPECIAL = re.compile('[,"\r\n\0]')  # what ``csv_quoted`` passes to the writer


def csv_quoted(texts) -> list:
    """Each text as ``csv_writer`` writes it as one field of a row: one
    without ``,``, ``"``, ``\\r``, ``\\n`` or NUL as it is, any other through
    the writer (which quotes it, or raises on NUL before Python 3.11)."""
    buf = io.StringIO()
    writer = csv_writer(buf)
    quoted = list(texts)
    for i, text in enumerate(quoted):
        if _SPECIAL.search(text):
            writer.writerow((text, ""))
            quoted[i] = buf.getvalue()[:-2]
            buf.seek(0)
            buf.truncate()
    return quoted


def text_fields(texts):
    """The UTF-8 bytes of each text, NUL-padded to a (n, w) uint8 array, and
    the bool array of which bytes are the text's own (a text may hold NUL)."""
    encoded = [t.encode("utf-8") for t in texts]
    lengths = np.fromiter(map(len, encoded), np.intp, len(encoded))
    width = int(lengths.max(initial=0))
    padded = b"".join(t.ljust(width, b"\0") for t in encoded)
    matrix = np.frombuffer(padded, np.uint8).reshape(len(encoded), width)
    return matrix, np.arange(width) < lengths[:, None]


def csv_lines(columns) -> np.ndarray:
    """CSV lines put together column by column, as bytes in a uint8 array.
    A column is a bytes separator, the same on every line; a (lines, w)
    uint8 array of ``format_g17`` fields, whose NUL bytes are dropped; or
    a pair of ``text_fields`` arrays, gathered to (lines, w)."""
    columns = [c if isinstance(c, tuple) else (c, None) for c in columns]
    lines = next(len(c) for c, _ in columns if not isinstance(c, bytes))
    matrix = np.empty((lines, sum(len(c) if isinstance(c, bytes) else c.shape[1]
                                  for c, _ in columns)), np.uint8)
    texts, start = [], 0
    for column, keep in columns:
        if isinstance(column, bytes):
            column = np.frombuffer(column, np.uint8)
        stop = start + column.shape[-1]
        matrix[:, start:stop] = column
        if keep is not None:
            texts.append((start, stop, keep))
        start = stop
    keep = matrix != 0
    for start, stop, mask in texts:
        keep[:, start:stop] = mask
    return matrix[keep]


def blocks(sizes):
    """(start, stop) of consecutive runs of items whose sizes add up to at
    most BLOCK_VALUES; a larger item is a run of its own."""
    start, total = 0, 0
    for i, size in enumerate(sizes):
        if total + size > BLOCK_VALUES and i > start:
            yield start, i
            start, total = i, 0
        total += size
    if len(sizes) > start:
        yield start, len(sizes)


def g17_texts(values) -> list:
    """``format(v, ".17g")`` of every value, as a list of str from one
    ``format_g17`` call."""
    return csv_lines([format_g17(values), b"\n"]).tobytes().decode("ascii").split("\n")[:-1]


def write_cohort(path, cohort: Cohort, outcome: str = "sbp"):
    """Write a cohort back out in the input CSV schema; the times and
    outcomes are ``g17_texts``."""
    outcome = outcome.lower()
    cov_names = sorted({k for s in cohort for k in s.covariates})
    numbers = zip(g17_texts(np.concatenate([s.times.points for s in cohort])),
                  g17_texts(np.concatenate([s.y for s in cohort])))
    write_csv(path, ["subject_id", "time", outcome] + cov_names,
              ([s.id, t, v] + [str(s.covariates.get(c, "")) for c in cov_names]
               for s in cohort for t, v in islice(numbers, s.n_obs)))


def hourly_aggregate(cohort: Cohort) -> Cohort:
    """Bin raw readings by floor-hour and average each nonempty bin.

    Aggregated measurements sit at the bin midpoints h + 0.5, which keeps
    them strictly inside [0, 24].  Empty bins produce no row.
    """
    subjects = []
    for s in cohort:
        bins = np.clip(np.floor(s.times.points).astype(int), 0, 23)
        times, values = [], []
        for h in range(24):
            mask = bins == h
            if np.any(mask):
                times.append(h + 0.5)
                values.append(float(np.mean(s.y[mask])))
        subjects.append(
            Subject(id=s.id, times=TimeGrid(np.asarray(times)), y=np.asarray(values),
                    covariates=s.covariates)
        )
    return Cohort(subjects=tuple(subjects), outcome_label=cohort.outcome_label)


def filter_normals(cohort: Cohort, thresholds: Mapping[int, Sequence[float]]) -> Cohort:
    """Keep subjects whose every measurement is within its hour's bounds.

    ``thresholds`` maps hour index (0-23) to (lower, upper); a threshold
    must exist for every hour at which any subject has a measurement (the
    lowest hour without one is named).
    """
    hours = np.clip(np.floor(np.concatenate([s.times.points for s in cohort])).astype(int), 0, 23)
    lo, hi = np.empty(24), np.empty(24)
    for h in np.unique(hours).tolist():
        if h not in thresholds:
            raise ConfigError(f"no threshold supplied for hour {h}")
        lo[h], hi[h] = thresholds[h]
    y = np.concatenate([s.y for s in cohort])
    inside = (lo[hours] <= y) & (y <= hi[hours])
    starts = np.cumsum([0] + [s.n_obs for s in cohort][:-1])
    kept = [s for s, ok in zip(cohort, np.logical_and.reduceat(inside, starts)) if ok]
    if not kept:
        raise ConfigError("no subjects remain after filtering")
    return Cohort(subjects=tuple(kept), outcome_label=cohort.outcome_label)


@dataclass(frozen=True)
class SimulationConfig:
    """Generative description of a synthetic cohort."""

    spec: ModelSpec
    beta: np.ndarray
    sigma_d: np.ndarray
    sigma2: float
    n_subjects: int
    missing_rate: float = 0.0
    time_jitter_sd: float = 0.0
    seed: int = 0
    base_times: Optional[np.ndarray] = None

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        sigma_d = np.atleast_2d(np.asarray(self.sigma_d, dtype=float))
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "sigma_d", sigma_d)
        if self.spec.group_terms or self.spec.interaction_terms:
            raise ConfigError("the simulator does not generate covariates")
        if beta.shape != (self.spec.fixed.n_columns,):
            raise ConfigError(f"beta must have length {self.spec.fixed.n_columns}")
        m = self.spec.random.n_columns
        if sigma_d.shape != (m, m):
            raise ConfigError(f"sigma_d must be {m}x{m}")
        ev = np.linalg.eigvalsh(0.5 * (sigma_d + sigma_d.T))
        if ev[0] < -1e-10 * max(abs(ev[-1]), 1.0):
            raise ConfigError("sigma_d must be positive semidefinite")
        if self.sigma2 < 0:
            raise ConfigError("sigma2 must be nonnegative")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ConfigError("missing_rate must be in [0, 1)")
        if self.n_subjects < 1:
            raise ConfigError("need at least one subject")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        base = self.base_times
        base = np.asarray(base, dtype=float) if base is not None else np.arange(24.0) + 0.5
        object.__setattr__(self, "base_times", base)
        expected = base.size * (1.0 - self.missing_rate)
        if expected < self.spec.fixed.n_columns + 1:
            raise ConfigError("base_times and missing_rate leave too few expected observations "
                              "per subject")


def _simulate_subject(index: int, config: SimulationConfig, context: BasisContext,
                      chol_d: np.ndarray):
    rng = np.random.default_rng([config.seed, index])
    t = config.base_times.copy()
    if config.time_jitter_sd > 0:
        t = np.sort(np.clip(t + rng.normal(scale=config.time_jitter_sd, size=t.size), 0.0, 24.0))
        if np.any(np.diff(t) <= 0):
            t = np.unique(t)
    if config.missing_rate > 0:
        keep = rng.random(t.size) >= config.missing_rate
        if keep.sum() < config.spec.fixed.n_columns + 1:
            keep[:] = True  # degenerate draw: fall back to the full grid
        t = t[keep]
    grid = TimeGrid(t)
    s, u = context.time_matrices(grid)
    d = chol_d @ rng.standard_normal(chol_d.shape[0])
    e = rng.standard_normal(len(grid)) * np.sqrt(config.sigma2)
    y = s @ config.beta + u @ d + e
    return Subject(id=f"s{index:04d}", times=grid, y=y)


def simulate_cohort(config: SimulationConfig, outcome_label: str = "SBP") -> Cohort:
    """Draw a cohort from the model; deterministic in (seed, subject index)."""
    context = BasisContext(config.spec)
    # PSD but possibly singular: eigen square root instead of Cholesky
    ev, vec = np.linalg.eigh(0.5 * (config.sigma_d + config.sigma_d.T))
    chol_d = vec @ np.diag(np.sqrt(np.maximum(ev, 0.0)))
    subjects = [_simulate_subject(i, config, context, chol_d) for i in range(config.n_subjects)]
    return Cohort(subjects=tuple(subjects), outcome_label=outcome_label)
