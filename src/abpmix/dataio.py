"""Cohort input, CSV output, hourly aggregation, reference filtering, and simulation.

Input CSV schema: header row with at least ``subject_id``, ``time`` and
the outcome column (``sbp`` or ``dbp``); any remaining columns become
static covariates, which must keep one value across a subject's rows
(a change is a SchemaError).  Times are elapsed hours since recording
start.

Tokenizers of ``read_cohort``.  One ``np.loadtxt`` call tokenizes and
converts a file, quoted or not, unless ``loadtxt`` might read it
otherwise than ``csv.reader``.  Then one ``csv.reader`` loop over the
records reads the file instead and raises every error below.  That is
so for a file with:

- a NUL, a header that holds a quote or lacks a needed column, or no
  record after the header;
- a line that may be longer than ``csv.field_size_limit()``;
- a record that ``loadtxt`` cannot read: a short or whitespace-only
  record, or a time or outcome that numpy's parser refuses, such as
  ``1_0``, which ``float()`` reads;
- a blank record or a line end inside quotes, which ``loadtxt`` passes
  over: its record count plus one is then not the file's count of LF,
  CRLF and lone CR line ends (an unterminated last line included).

After ``loadtxt``, one comparison of the id column with itself shifted
by a record finds the runs of equal consecutive ids; only each run's
first id is looked up in a dict, so subjects are numbered in order of
first appearance whether their records are contiguous or not.

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
import math
import re
from array import array
from dataclasses import dataclass
from itertools import chain, groupby
from typing import Mapping, Optional, Sequence

import numpy as np

from .basis import TIME_DOMAIN, TimeGrid
from .design import BasisContext, Cohort, ModelSpec, Subject
from .errors import ConfigError, DuplicateError, GridError, ParseError, SchemaError, SpecError

OUTCOMES = ("sbp", "dbp")


def _covariate_value(raw: str):
    try:
        return float(raw)
    except ValueError:
        return raw


def _changed(was: str, now: str) -> bool:
    """Whether a covariate cell holds another value than the subject's first
    (``41`` and ``41.0`` are one value; the same text is never a change)."""
    return was != now and _covariate_value(was) != _covariate_value(now)


def _number(text: str, name: str, row: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"row {row}: cannot parse {name}={text!r}") from None


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


_LINE_END = re.compile(r"\r\n?|\n")  # where csv.reader ends a record outside quotes
_NOT_LINE_END = re.compile(r"[^\r\n]")


def read_cohort(path, outcome: str = "sbp") -> Cohort:
    """Read a cohort CSV, one Subject per id with ascending times.

    The file is first read whole, so that invalid UTF-8 anywhere is the
    first error; a leading UTF-8 byte-order mark, which spreadsheets'
    "CSV UTF-8" exports write, is skipped (``np.loadtxt`` skips the header
    line that holds it).  A file that ``_loadable`` accepts is then
    tokenized and converted by one ``np.loadtxt`` call; ``_read_records``
    reads any other with ``csv.reader``, and so every file that holds an
    error of the module docstring.  One stable sort on (subject, time) then finds
    duplicate times and orders each subject's rows, and one pass over the
    sorted arrays checks the whole cohort.  The sorted time and outcome
    arrays are then made read-only, and each subject's ``times.points``
    and ``y`` are views (slices) of them, built without a copy or a
    second check.
    """
    outcome = outcome.lower()
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            loadable = _loadable(fh.read(), outcome)  # no copy of the text outlives this
        read = _loadtxt(path, *loadable) if loadable else None
        if read is None:
            with open(path, encoding="utf-8-sig", newline="") as fh:
                read = _read_records(fh, outcome)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc.reason}") from None
    columns, ids, error, covariate_columns = read
    return _assemble(columns, ids, error, outcome, covariate_columns)


def _loadable(text: str, outcome: str):
    """The layout of ``text`` and its number of lines, if ``np.loadtxt``
    may read it as ``csv.reader`` does: no NUL, a header with every needed
    column and no quote, a record after it, and no line over
    ``csv.field_size_limit()``; else None."""
    header_end = _LINE_END.search(text)
    if header_end is None or "\0" in text or not _NOT_LINE_END.search(text, header_end.end()):
        return None
    header = text[:header_end.start()]
    if '"' in header:
        return None
    # a line over the limit holds a whole aligned block without a line end
    block = max(1, (csv.field_size_limit() + 1) // 2)
    for start in range(0, len(text) - block + 1, block):
        if text.find("\n", start, start + block) < 0 and text.find("\r", start, start + block) < 0:
            return None
    try:
        layout = _layout(header.split(","), outcome)
    except SchemaError:
        return None
    ends = text.count("\n")
    if "\r" in text:  # CR and CRLF line ends
        ends += text.count("\r") - text.count("\r\n")
    return *layout, ends + (text[-1] not in "\r\n")


def _loadtxt(path, covariate_columns, index, lines):
    """``_assemble``'s arguments from one ``np.loadtxt`` call, or None if
    it raises ValueError or its records and the file's lines disagree: it
    skips blank records and reads on past a line end inside quotes."""
    try:
        table = np.loadtxt(path, dtype="O,f8,f8" + ",O" * len(covariate_columns), delimiter=",",
                           skiprows=1, usecols=index, quotechar='"', comments=None, ndmin=1,
                           encoding="utf-8")
    except ValueError:
        return None
    if table.size + 1 != lines:
        return None
    # codes by runs of equal ids (see the module docstring)
    sids = table["f0"]
    heads = np.flatnonzero(np.append(True, sids[1:] != sids[:-1]))
    codes = {}
    run_code = np.fromiter((codes.setdefault(sid, len(codes)) for sid in sids[heads].tolist()),
                           np.intp, heads.size)
    code = np.repeat(run_code, np.diff(np.append(heads, sids.size)))
    # copies, so that the table and each record's id are freed on return
    t, y, *cells = (table[name].copy() for name in table.dtype.names[1:])
    return [t, y, code, np.arange(2, code.size + 2), *cells], list(codes), None, covariate_columns


def _read_records(fh, outcome: str):
    """``_assemble``'s arguments from ``csv.reader`` over the text file
    ``fh``: the records before the first bad one, and its error (a header
    that ``csv`` cannot tokenize or that lacks a column included), or
    None.  Empty records are skipped but counted."""
    reader = csv.reader(fh)
    row, covariate_columns, cells, error = 0, [], [], None  # row: records read, header included
    codes, code, rows = {}, array("q"), array("q")
    times, values = array("d"), array("d")
    try:
        header = next(reader, [])
        row = 1
        covariate_columns, (i_sid, i_time, i_value, *i_covs) = _layout(header, outcome)
        cells = [[] for _ in i_covs]
        width = max(i_sid, i_time, i_value, *i_covs) + 1
        for record in reader:
            row += 1
            if len(record) < width:
                if record:
                    raise ParseError(f"row {row}: expected {width} fields, found {len(record)}")
                continue
            t, y = _number(record[i_time], "time", row), _number(record[i_value], outcome, row)
            times.append(t)
            values.append(y)
            code.append(codes.setdefault(record[i_sid], len(codes)))
            rows.append(row)
            for column, j in zip(cells, i_covs):
                column.append(record[j])
    except csv.Error as exc:
        error = ParseError(f"row {row + 1}: {exc}")
    except (ParseError, SchemaError) as exc:
        error = exc
    columns = [np.array(a) for a in (times, values, code, rows)]
    return columns + [np.array(c, dtype=object) for c in cells], list(codes), error, covariate_columns


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
    if not slow.size:
        return out[used[0]:used[-1] + 1].T.copy()
    spelled = _text_fields([format(v, ".17g") for v in x[slow].tolist()])[0]
    fields = np.zeros((n, max(width, spelled.shape[1])), np.uint8)
    fields[:, :width] = out[used[0]:used[-1] + 1].T
    fields[slow] = 0
    fields[slow, :spelled.shape[1]] = spelled
    return fields


_SPECIAL = re.compile('[,"\r\n\0]')  # what ``csv_quoted`` passes to ``csv.writer``


def csv_quoted(texts) -> list:
    """Each text as one CSV field: one without ``,``, ``"``, ``\\r``, ``\\n``
    or NUL as it is, any other as a ``csv.writer`` with a ``\\r\\n``
    terminator quotes it, so that every row reads back as written (or
    raises on NUL before Python 3.11)."""
    quoted = list(texts)
    for i, text in enumerate(quoted):
        if _SPECIAL.search(text):
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\r\n").writerow((text, ""))
            quoted[i] = buf.getvalue()[:-3]  # less the empty field's "," and the "\r\n"
    return quoted


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    return format(float(v), ".17g") if v is not None and math.isfinite(v) else ""


def write_csv(path, header, rows):
    """Write the header row and then ``rows`` to ``path``, a line of fields
    joined by ``,`` each.  A str cell goes through ``csv_quoted``, a number
    is ``format(float(v), ".17g")``, and None or a number that is not
    finite is an empty field."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for row in chain([header], rows):
            fh.write(",".join(csv_quoted(map(_cell, row))) + "\n")


def _text_fields(texts):
    """The UTF-8 bytes of each text, NUL-padded to a (n, w) uint8 array, and
    the bool array of which bytes are the text's own (a text may hold NUL)."""
    encoded = [t.encode("utf-8") for t in texts]
    lengths = np.fromiter(map(len, encoded), np.intp, len(encoded))
    width = int(lengths.max(initial=0))
    padded = b"".join(t.ljust(width, b"\0") for t in encoded)
    matrix = np.frombuffer(padded, np.uint8).reshape(len(encoded), width)
    return matrix, np.arange(width) < lengths[:, None]


def _csv_lines(columns) -> np.ndarray:
    """CSV lines put together column by column, as bytes in a uint8 array.
    A column is a bytes separator, the same on every line; a (lines, w)
    uint8 array of ``format_g17`` fields, whose NUL bytes are dropped; or
    a pair of ``_text_fields`` arrays, gathered to (lines, w)."""
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


def _blocks(sizes):
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


def _series_lines(times, block, labels, own):
    """The plot CSV lines of a block of series, as bytes in uint8 arrays,
    from one ``format_g17`` call on the times and every value."""
    n = len(times)
    numbers = format_g17(np.concatenate([times] + [c for s in block for c in s[1:]]))
    stamps = numbers[:n][:, numbers[:n].any(axis=0)]
    width, start, lines = numbers.shape[1], n, []
    for k, run in groupby(range(len(block)), lambda i: len(block[i]) - 1):
        run = list(run)  # series with k columns each, their values next in numbers
        values = numbers[start:start + len(run) * k * n].reshape(len(run), k, n, width)
        start += values.shape[0] * k * n
        columns = [np.tile(stamps, (len(run), 1)), b",",
                   (np.repeat(labels[run], n, axis=0), np.repeat(own[run], n, axis=0))]
        for j in range(k):
            columns += [b",", values[:, j].reshape(len(run) * n, width)]
        lines.append(_csv_lines(columns + [b"," * (3 - k) + b"\n"]))
    return lines


def write_series(path, times, series):
    """Plot CSV, a row per series and time.  ``series`` yields (label,
    values) or (label, values, lower, upper); a series without bounds
    leaves them empty.  The numbers go out in blocks of about
    ``BLOCK_VALUES``, formatted by ``format_g17``."""
    series = list(series)
    labels, own = _text_fields(csv_quoted([s[0] for s in series]))
    sizes = [len(times) * (len(s) - 1) for s in series]
    with open(path, "wb") as fh:
        fh.write(b"time,series,value,lower,upper\n")
        for a, b in _blocks(sizes):
            fh.writelines(_series_lines(times, series[a:b], labels[a:b], own[a:b]))


def write_cohort(path, cohort: Cohort, outcome: str = "sbp"):
    """Write a cohort back out in the input CSV schema, in blocks of about
    ``BLOCK_VALUES`` numbers, whose times and outcomes ``format_g17``
    formats.  Each subject's id and covariates are quoted once and
    repeated over its rows."""
    cov_names = sorted({k for s in cohort for k in s.covariates})
    texts = [_text_fields(csv_quoted(column)) for column in [[s.id for s in cohort]] + [
        [str(s.covariates.get(c, "")) for s in cohort] for c in cov_names]]
    subject = np.repeat(np.arange(len(cohort)), [s.n_obs for s in cohort])
    t = np.concatenate([s.times.points for s in cohort])
    y = np.concatenate([s.y for s in cohort])
    step = max(BLOCK_VALUES // 2, 1)  # two numbers a row
    write_csv(path, ["subject_id", "time", outcome.lower(), *cov_names], [])
    with open(path, "ab") as fh:
        for a in range(0, t.size, step):
            k = subject[a:a + step]  # each row's subject
            numbers = format_g17(np.concatenate([t[a:a + step], y[a:a + step]]))
            ids, *covs = [(matrix[k], own[k]) for matrix, own in texts]
            columns = [ids, b",", numbers[:k.size], b",", numbers[k.size:]]
            for cov in covs:
                columns += [b",", cov]
            fh.write(_csv_lines(columns + [b"\n"]))


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
