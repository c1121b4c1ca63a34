import csv
import io
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import abpmix as a
from abpmix import dataio
from abpmix.basis import TimeGrid
from abpmix.dataio import write_cohort
from abpmix.design import BasisContext
from abpmix.errors import (AbpmixError, ConfigError, DuplicateError, GridError, ParseError,
                           SchemaError, SpecError)

from conftest import poly_spec, row_loop_read_cohort


def write_csv(path, text):
    path.write_text(text)
    return str(path)


def subject(cohort, sid):
    """The subject of ``cohort`` whose id is ``sid``."""
    return {s.id: s for s in cohort}[sid]


GOOD_CSV = """subject_id,time,sbp,dbp
a,0.5,120,80
a,2.5,125,82
a,1.5,118,79
b,0.5,130,85
b,1.5,128,84
b,2.5,131,86
"""


class TestReadCohort:
    def test_happy_path_sorts_times(self, tmp_path):
        cohort = a.read_cohort(write_csv(tmp_path / "c.csv", GOOD_CSV))
        assert len(cohort) == 2
        s = subject(cohort, "a")
        np.testing.assert_array_equal(s.times.points, [0.5, 1.5, 2.5])
        np.testing.assert_array_equal(s.y, [120.0, 118.0, 125.0])

    def test_outcome_channel_selectable(self, tmp_path):
        cohort = a.read_cohort(write_csv(tmp_path / "c.csv", GOOD_CSV), outcome="dbp")
        np.testing.assert_array_equal(subject(cohort, "a").y, [80.0, 79.0, 82.0])

    def test_missing_time_column(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", "subject_id,sbp\na,120\n")
        with pytest.raises(SchemaError, match="time"):
            a.read_cohort(p)

    def test_parse_error_names_row(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", "subject_id,time,sbp\na,0.5,120\na,1.5,oops\n")
        with pytest.raises(ParseError, match="row 3"):
            a.read_cohort(p)

    def test_duplicate_time_rejected(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", "subject_id,time,sbp\na,0.5,120\na,0.5,121\n")
        with pytest.raises(DuplicateError):
            a.read_cohort(p)

    def test_covariates_attached(self, tmp_path):
        p = write_csv(
            tmp_path / "c.csv",
            "subject_id,time,sbp,diet,age\na,1,120,control,41\na,2,121,control,41\n",
        )
        s = subject(a.read_cohort(p), "a")
        assert s.covariates["diet"] == "control"
        assert s.covariates["age"] == 41.0

    def test_covariate_change_within_subject_rejected(self, tmp_path):
        p = write_csv(
            tmp_path / "c.csv",
            "subject_id,time,sbp,diet,age\na,1,120,control,41\na,2,121,salt,41\n",
        )
        with pytest.raises(SchemaError, match="row 3.*'diet'"):
            a.read_cohort(p)

    def test_covariate_respelled_with_same_value_accepted(self, tmp_path):
        p = write_csv(
            tmp_path / "c.csv",
            "subject_id,time,sbp,diet,age\na,1,120,control,41\na,2,121,control,41.0\n",
        )
        assert subject(a.read_cohort(p), "a").covariates["age"] == 41.0

    def test_unchanged_nan_covariate_next_to_a_respelled_one_accepted(self, tmp_path):
        # the same text is never a change, even where its value is NaN
        p = write_csv(
            tmp_path / "c.csv",
            "subject_id,time,sbp,age,diet\na,1,120,41,nan\na,2,121,41.0,nan\n",
        )
        assert subject(a.read_cohort(p), "a").covariates["age"] == 41.0

    def test_short_row_names_row(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", "subject_id,time,sbp\na,0.5,120\na,1.5\n")
        with pytest.raises(ParseError, match="row 3"):
            a.read_cohort(p)

    def test_field_over_csv_limit_is_parse_error(self, tmp_path):
        huge = '"' + "x" * (csv.field_size_limit() + 1) + '"'
        p = write_csv(tmp_path / "c.csv", f"subject_id,time,sbp\na,0.5,120\n{huge},1.5,121\n")
        with pytest.raises(ParseError, match="row 3: field larger than field limit"):
            a.read_cohort(p)
        p = write_csv(tmp_path / "h.csv", f"subject_id,time,{huge}\na,0.5,120\n")
        with pytest.raises(ParseError, match="row 1: field larger than field limit"):
            a.read_cohort(p)
        # an earlier bad record still raises first
        p = write_csv(tmp_path / "s.csv", f"subject_id,time,sbp\na,0.5\n{huge},1.5,121\n")
        with pytest.raises(ParseError, match="row 2: expected 3 fields"):
            a.read_cohort(p)

    def test_invalid_utf8_is_parse_error(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_bytes(b"subject_id,time,sbp\n\xff,0.5,120\n")
        with pytest.raises(ParseError, match="UTF-8") as plain:
            a.read_cohort(str(p))
        # the same error from a quoted file
        p.write_bytes(b'subject_id,time,sbp\n"a",1,120\n\xff,0.5,120\n')
        with pytest.raises(ParseError) as quoted:
            a.read_cohort(str(p))
        assert str(quoted.value) == str(plain.value)

    def test_invalid_utf8_takes_precedence(self, tmp_path):
        # the bad byte lies past the first block the decoder reads
        body = "".join(f"s{k % 10},{k // 10 / 4},120\n" for k in range(900))
        p = tmp_path / "c.csv"
        p.write_bytes(b"subject_id,time,sbp\nb,oops,120\n" + body.encode() + b"\xff,1,2\n")
        with pytest.raises(ParseError, match="UTF-8"):
            a.read_cohort(str(p))
        p.write_bytes(b"subject_id,sbp\n" + body.encode() + b"\xff,1\n")
        with pytest.raises(ParseError, match="UTF-8"):
            a.read_cohort(str(p))

    def test_invalid_utf8_after_a_bad_number_takes_precedence(self, tmp_path):
        p = tmp_path / "c.csv"
        # the bad byte lies past the first block the decoder reads after the bad number
        body = "".join(f"s{k % 10},{k // 10 / 4},120\n" for k in range(900))
        p.write_bytes(b"subject_id,time,sbp\na,0.5,120\na,1,121\nb,oops,120\nb,1,1\n"
                      + body.encode() + b"\xff,1,2\n")
        with pytest.raises(ParseError, match="not valid UTF-8: invalid start byte$"):
            a.read_cohort(str(p))

    def test_a_bad_number_in_a_quoted_file_sends_it_to_csv_reader(self, tmp_path):
        head = b'subject_id,time,sbp\na,1,120\na,2,121\n"b",1,122\n'
        p = tmp_path / "c.csv"
        outcomes, used = [], []
        for last in (b"b,2,oops\n", b"b,2,123\n"):
            p.write_bytes(head + last)
            with mock.patch("csv.reader", wraps=csv.reader) as reader:
                outcomes.append(read_outcome(a.read_cohort, str(p)))
            used.append(reader.called)
            assert outcomes[-1] == read_outcome(row_loop_read_cohort, str(p))
        assert outcomes[0] == (ParseError, "row 5: cannot parse sbp='oops'")
        assert [s[0] for s in outcomes[1][1]] == ["a", "b"]
        assert used == [True, False]  # loadtxt reads the quoted id itself

    def test_a_late_quote_is_tokenized_once(self, tmp_path):
        records = [f"s{k // 20:04d},{k % 20},{120 + k % 7}" for k in range(1_500)]
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        plain.write_text("subject_id,time,sbp\n" + "\n".join(records) + "\n")
        sid, rest = records[-1].split(",", 1)
        quoted.write_text("subject_id,time,sbp\n" + "\n".join(records[:-1])
                          + f'\n"{sid}",{rest}\n')
        assert quoted.read_text().count('"') == 2
        with (mock.patch("csv.reader", wraps=csv.reader) as reader,
              mock.patch("numpy.loadtxt", wraps=np.loadtxt) as loadtxt):
            got = read_outcome(a.read_cohort, str(quoted))
        assert not reader.called
        assert loadtxt.call_count == 1
        assert got == read_outcome(a.read_cohort, str(plain))

    def test_cr_only_file_reads_as_its_lf_twin(self, tmp_path):
        body = b"subject_id,time,sbp\n" + "".join(
            f"s{k % 100},{k // 100 / 8},{120 + k % 7}\n" for k in range(2_400)).encode()
        lf, cr = tmp_path / "lf.csv", tmp_path / "cr.csv"
        lf.write_bytes(body)
        cr.write_bytes(body.replace(b"\n", b"\r"))
        want = a.read_cohort(str(lf))
        # universal newlines end its records where csv.reader would, without csv.reader
        with mock.patch("csv.reader", side_effect=AssertionError("csv.reader called")):
            got = a.read_cohort(str(cr))
        assert ([(s.id, s.times.points.tobytes(), s.y.tobytes()) for s in got]
                == [(s.id, s.times.points.tobytes(), s.y.tobytes()) for s in want])

    @pytest.mark.parametrize("text,by_csv_reader", [
        (GOOD_CSV, False),
        ('subject_id,time,sbp\r\na,1,120\r\n"b,x",2,121\r\n', False),  # a quoted id, CRLF
        ('"subject_id",time,sbp\na,1,120\n\nb,2,121\n', True),  # a quoted header, a blank record
        ("subject_id,sbp\na,120\n", True),  # the same SchemaError
    ])
    def test_byte_order_mark_reads_as_its_plain_twin(self, tmp_path, text, by_csv_reader):
        # spreadsheets' "CSV UTF-8" exports start with one
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text.encode("utf-8"))
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        want = read_outcome(a.read_cohort, str(plain))
        with mock.patch("csv.reader", wraps=csv.reader) as reader:
            got = read_outcome(a.read_cohort, str(bom))
        assert got == want == read_outcome(row_loop_read_cohort, str(bom))
        assert reader.called == by_csv_reader
        assert (want[0] is SchemaError) == (text.count(",") == 2)

    def test_subjects_hold_read_only_views(self, tmp_path):
        cohort = a.read_cohort(write_csv(tmp_path / "c.csv", GOOD_CSV))
        arrays = [arr for s in cohort for arr in (s.times.points, s.y)]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flags.writeable = True
        # no two subjects, and no subject's times and y, share memory
        for i, arr in enumerate(arrays):
            assert not any(np.shares_memory(arr, other) for other in arrays[i + 1:])

    def test_cohort_check_error_names_row_and_subject(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", "subject_id,time,sbp\na,1,120\nb,24.5,121\n")
        with pytest.raises(GridError) as info:
            a.read_cohort(p)
        assert str(info.value) == "row 3: subject 'b': time points must lie in [0.0, 24.0]"
        p = write_csv(tmp_path / "y.csv", "subject_id,time,sbp\na,2,120\na,1,nan\n")
        with pytest.raises(SpecError, match=r"^row 3: subject 'a': non-finite outcome values$"):
            a.read_cohort(p)

    def test_cohort_check_covers_a_subject_without_records(self):
        columns = [np.array([0.5]), np.array([120.0]), np.array([0]), np.array([2])]
        with pytest.raises(SpecError, match="subject 'b' has no observations"):
            dataio._assemble(columns, ["a", "b"], None, "sbp", [])

    def test_write_read_round_trip(self, tmp_path):
        cohort = a.read_cohort(write_csv(tmp_path / "c.csv", GOOD_CSV))
        out = tmp_path / "out.csv"
        write_cohort(out, cohort)
        back = a.read_cohort(str(out))
        for s in cohort:
            t = subject(back, s.id)
            np.testing.assert_array_equal(t.times.points, s.times.points)
            np.testing.assert_array_equal(t.y, s.y)


ID_ALPHABET = 'ab,"\n\r \u00e9'
PLAIN_ID_ALPHABET = 'ab1 .,"\u00e9\u4e2d'
# each inner list spells one value
COVARIATE_CELLS = {"age": [["41", "41.0", " 41", "4_1"], ["42"], [""]],
                   "diet": [["control"], ["salt"], ["nan"], ["NaN"], [""]]}
NUMBER_EDGES = ["nan", "inf", "-inf", "1e400", "-0.0", " 3.5 ", "1_0", "0x1", "abc", "",
                "-0.5", "24.5"]


@st.composite
def cohort_csv(draw, plain=False):
    """A cohort CSV text with respelled or changed covariates, duplicate
    times and bad numbers: quoted ids, blank and short records, CRLF or
    LF; or, if ``plain``, non-ASCII and numeric ids, quoted only for a
    comma or a quote, every record the header's width and LF, CRLF or
    CR, the final one optional."""
    covariates = draw(st.sampled_from([(), ("age",), ("age", "diet"), ("diet", "age")]))
    header = ["subject_id", "time", "sbp", *covariates]
    if draw(st.booleans()):  # an unused outcome column, possibly last
        header.insert(draw(st.integers(0, len(header))), "dbp")
    if plain:
        id_text = st.one_of(st.text(PLAIN_ID_ALPHABET, max_size=3), st.integers(0, 99).map(str))
    else:
        id_text = st.text(ID_ALPHABET, max_size=3)
    ids = draw(st.lists(id_text, min_size=1, max_size=4, unique=True))
    spellings = {sid: {c: draw(st.sampled_from(COVARIATE_CELLS[c])) for c in covariates}
                 for sid in ids}
    dirty = draw(st.booleans())
    half_hours = st.integers(0, 48).map(lambda k: repr(k / 2))
    times = st.one_of(half_hours, st.sampled_from(NUMBER_EDGES)) if dirty else half_hours
    values = st.floats(60, 200).map(repr)
    values = st.one_of(values, st.sampled_from(NUMBER_EDGES)) if dirty else values
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"] if plain else ["\n", "\r\n"]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=newline)
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.integers(2 if plain else 0, 19))
        if kind == 0:
            out.write(newline)
            continue
        sid = draw(st.sampled_from(ids))
        cells = {"subject_id": sid, "time": draw(times), "sbp": draw(values), "dbp": "80"}
        for c in covariates:
            changed = dirty and draw(st.integers(0, 7)) == 0
            pool = sum(COVARIATE_CELLS[c], []) if changed else spellings[sid][c]
            cells[c] = draw(st.sampled_from(pool))
        row = [cells[h] for h in header]
        if kind == 1 and dirty:
            row = row[: draw(st.integers(1, len(row) - 1))]
        writer.writerow(row)
    text = out.getvalue()
    return text.removesuffix(newline) if plain and draw(st.booleans()) else text


def numpy_reads(text):
    """Whether numpy's float parser takes ``text``: ``float()``'s, without
    its underscores and non-ASCII digits."""
    core = text.strip()
    try:
        float(core)
    except ValueError:
        return False
    return core.isascii() and "_" not in core


def read_plainly(text):
    """Whether ``read_cohort`` reads ``text`` by ``np.loadtxt`` alone, not
    by ``csv.reader``: no NUL, a header without a quote that has every
    needed column, at least one record, no line over
    ``csv.field_size_limit()``, one record per line (no blank record, no
    line end inside quotes), each record at least as wide as the header's
    needed columns, and every time and outcome a number numpy reads.  None
    where the answer is left open: a line too long to rule out a field
    over the limit, but not over it.  A leading byte-order mark is not part
    of the text."""
    text = text.removeprefix("\ufeff")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").removesuffix("\n").split("\n")
    header = lines[0].split(",")
    if ("\0" in text or '"' in lines[0] or len(lines) < 2
            or not {"subject_id", "time", "sbp"} <= set(header)):
        return False
    longest = max(map(len, lines))
    if longest > csv.field_size_limit():
        return False
    if longest >= (csv.field_size_limit() + 1) // 2:
        return None
    records = list(csv.reader(io.StringIO(text, newline="")))[1:]
    width = max(j for j, c in enumerate(header) if c != "dbp") + 1
    i, j = header.index("time"), header.index("sbp")
    return (len(records) == len(lines) - 1
            and all(len(r) >= width and numpy_reads(r[i]) and numpy_reads(r[j])
                    for r in records))


def read_outcome(read, path):
    """Everything a reader returns, bitwise, or the class and message it raises."""
    try:
        cohort = read(path)
    except AbpmixError as exc:
        return type(exc), str(exc)
    return cohort.outcome_label, [(s.id, s.times.points.tobytes(), s.y.tobytes(),
                                   repr(s.covariates)) for s in cohort]


class TestReadCohortMatchesRowLoop:
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(text=cohort_csv())
    # a duplicate time and a changed covariate in one record
    @example(text="subject_id,time,sbp,age\na,1,120,41\na,1,121,42\n")
    # changes in two columns, the first column's earlier
    @example(text="subject_id,time,sbp,age,diet\na,1,1,41,x\na,2,1,42,x\na,3,1,42,y\n")
    # an unchanged NaN cell before the changed one
    @example(text="subject_id,time,sbp,diet,age\na,1,1,nan,41\na,2,1,nan,42\n")
    # a bad outcome before a bad time
    @example(text="subject_id,time,sbp\na,0.5,1\na,1.5,x\na,zz,1\n")
    # the first subject's bad outcome comes in a later record than the second's bad time
    @example(text="subject_id,time,sbp\na,1,120\nb,25,120\na,2,inf\n")
    # one subject with a non-finite time and a non-finite outcome: the time grid's error
    @example(text="subject_id,time,sbp\na,1,nan\na,inf,120\n")
    # finite times outside [0, 24], each the only bad value of its cohort
    @example(text="subject_id,time,sbp\na,1,120\na,24.5,121\n")
    @example(text="subject_id,time,sbp\na,-0.5,120\na,1,121\n")
    # a byte-order mark before a header, a quoted id and a blank record
    @example(text='\ufeffsubject_id,time,sbp\n"a",1,120\n\nb,2,121\n')
    def test_same_cohort_or_same_error(self, tmp_path_factory, text):
        assert_reads_like_row_loop(tmp_path_factory, text)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(text=cohort_csv(plain=True))
    # at each edge of the loadtxt path: a quote only in the last record, CRLF
    # or CR only on the last line, CR then CRLF (a blank line), NUL, a record
    # longer than the header, a blank line, no final newline, a field at and
    # one over the csv field limit
    @example(text='subject_id,time,sbp\na,1,120\n"b",2,121\n')
    @example(text="subject_id,time,sbp\na,1,120\nb,2,121\r\n")
    @example(text="subject_id,time,sbp\na,1,120\nb,2,121\r")
    @example(text="subject_id,time,sbp\ra,1,120\r\r\nb,2,121\r\n")
    @example(text="subject_id,time,sbp\na,1,120\nb\0,2,121\n")
    @example(text="subject_id,time,sbp\na,1,120\nb,2,121,x\nc,1,1\n")
    # a long record, then a short one, that fill the numeric columns if they are split as
    # one record after another of the header's width
    @example(text="subject_id,time,sbp\na,1,120,5\n6,7\n")
    @example(text="subject_id,time,sbp\na,1,120\n\nb,2,121\n")
    @example(text="subject_id,time,sbp\na,1,120\nb,2,121")
    @example(text=f"subject_id,time,sbp\na,1,120\n{'x' * csv.field_size_limit()},2,121\n")
    @example(text=f"subject_id,time,sbp\na,1,120\n{'x' * (csv.field_size_limit() + 1)},2,121\n")
    @example(text=f"subject_id,time,{'x' * (csv.field_size_limit() + 1)}\na,1,120\n")
    # an unquoted outcome one digit over the csv field limit
    @example(text=f"subject_id,time,sbp\na,1,{'1' * (csv.field_size_limit() + 1)}\n")
    # a bad number after a duplicate time
    @example(text="subject_id,time,sbp\na,1,120\na,1,121\na,2,x\n")
    # a blank record before a duplicate time: row 4, which loadtxt would number 3
    @example(text="subject_id,time,sbp\na,1,120\n\na,1,121\n")
    # a line end inside quotes, LF or CR, in an id before a bad time
    @example(text='subject_id,time,sbp\n"a\nb",1,120\nc,x,121\n')
    @example(text='subject_id,time,sbp\n"a\rb",1,120\nc,x,121\n')
    # a time that float() reads and numpy does not
    @example(text="subject_id,time,sbp\na,1_0,120\n")
    # a comment character inside an id
    @example(text="subject_id,time,sbp\na#b,1,120\n")
    # a subject's records in two separate runs; ids alternating record by record
    @example(text="subject_id,time,sbp\nb,1,120\nb,2,121\na,1,110\nb,3,122\na,2,111\n")
    @example(text="subject_id,time,sbp\nb,1,120\na,1,110\nb,2,121\na,2,111\nb,3,122\n")
    # a header and no record; a quoted header name
    @example(text="subject_id,time,sbp\n")
    @example(text='"subject_id",time,sbp\na,1,120\n')
    # a byte-order mark before a plain and a quoted header
    @example(text="\ufeffsubject_id,time,sbp\na,1,120\nb,2,121\n")
    @example(text='\ufeff"subject_id",time,sbp\na,1,120\n')
    def test_plain_file_same_cohort_or_same_error(self, tmp_path_factory, text):
        used_csv_reader = assert_reads_like_row_loop(tmp_path_factory, text)
        plainly = read_plainly(text)
        assert plainly is None or used_csv_reader != plainly

    def test_write_cohort_output_is_read_without_csv_reader(self, tmp_path):
        cfg = a.SimulationConfig(spec=poly_spec(2), beta=np.array([120.0, -10.0, 5.0]),
                                 sigma_d=np.diag([80.0, 40.0, 20.0]), sigma2=16.0,
                                 n_subjects=60, seed=5, missing_rate=0.1, time_jitter_sd=0.3)
        cohort = a.Cohort(subjects=tuple(
            a.Subject(id=f"{s.id}-\u00e9", times=s.times, y=s.y,
                      covariates={"age": 30.0 + k % 7, "diet": ("salt", "control")[k % 2]})
            for k, s in enumerate(a.simulate_cohort(cfg))))
        path = tmp_path / "c.csv"
        write_cohort(path, cohort)
        assert sum(s.n_obs for s in cohort) > 1_024
        written = path.read_bytes()
        for newline in (b"\n", b"\r\n", b"\r"):  # as written, and as if by CRLF or CR tools
            path.write_bytes(written.replace(b"\n", newline))
            with mock.patch("csv.reader", side_effect=AssertionError("csv.reader called")):
                back = a.read_cohort(str(path))
            assert [(s.id, s.covariates) for s in back] == [(s.id, s.covariates) for s in cohort]
            for s, t in zip(cohort, back):
                assert s.times.points.tobytes() == t.times.points.tobytes()
                assert s.y.tobytes() == t.y.tobytes()


def assert_reads_like_row_loop(tmp_path_factory, text):
    """Assert that ``read_cohort`` reads the text as the row loop does, and
    return whether it called ``csv.reader``."""
    path = tmp_path_factory.mktemp("csv") / "c.csv"
    path.write_bytes(text.encode("utf-8"))
    want = read_outcome(row_loop_read_cohort, str(path))
    with mock.patch("csv.reader", wraps=csv.reader) as reader:
        got = read_outcome(a.read_cohort, str(path))
    assert got == want
    return reader.called


def bits_to_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


POWERS = [10.0 ** k for k in range(-5, 18)]


class TestFormatG17:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.integers(0, 2 ** 64 - 1).map(bits_to_float)),
                    max_size=40))
    # exact ties at the 17th digit, odd m / 2**(k + 1) for |v| 10**k in [1e16, 1e17)
    @example([100 + 2.0 ** -15, 100 + 3 * 2.0 ** -15, -(1 + 2.0 ** -17), 0.5 + 2.0 ** -18])
    @example(POWERS + [math.nextafter(p, 0.0) for p in POWERS]
             + [math.nextafter(p, math.inf) for p in POWERS])
    @example([1e-4, math.nextafter(1e-4, 0.0), 1e16, math.nextafter(1e16, 0.0)])
    @example([0.09999999999999999])
    @example([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324])
    def test_bytes_are_format_17g(self, values):
        fields = dataio.format_g17(np.array(values, dtype=float))
        assert fields.dtype == np.uint8 and len(fields) == len(values)
        got = [bytes(row[row != 0]).decode("ascii") for row in fields]
        assert got == [format(v, ".17g") for v in values]


def cohort_csv_bytes(cohort, outcome="sbp"):
    """The cohort CSV with one ``format(v, ".17g")`` per number."""
    cov_names = sorted({k for s in cohort for k in s.covariates})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["subject_id", "time", outcome] + cov_names)
    for s in cohort:
        for t, v in zip(s.times.points, s.y):
            writer.writerow([s.id, format(t, ".17g"), format(v, ".17g")]
                            + [str(s.covariates.get(c, "")) for c in cov_names])
    return buf.getvalue().encode("utf-8")


class TestWriteCohort:
    # 7 numbers a block: three rows, so that blocks cut through subjects
    @pytest.fixture(autouse=True, params=[7, 300, dataio.BLOCK_VALUES])
    def block_values(self, request):
        with mock.patch.object(dataio, "BLOCK_VALUES", request.param):
            yield

    # jittered times, then negative outcomes; both span several blocks
    @pytest.mark.parametrize("beta, jitter", [([500.0, -10.0, 5.0], 0.3),
                                              ([-500.0, 10.0, -5.0], 0.0)])
    def test_bytes_match_per_value_format(self, tmp_path, beta, jitter):
        cfg = a.SimulationConfig(spec=poly_spec(2), beta=np.array(beta),
                                 sigma_d=np.diag([80.0, 40.0, 20.0]), sigma2=16.0,
                                 n_subjects=400, seed=11, missing_rate=0.1,
                                 time_jitter_sd=jitter)
        cohort = a.simulate_cohort(cfg)
        assert (np.concatenate([s.y for s in cohort]) < 0).all() == (beta[0] < 0)
        write_cohort(tmp_path / "c.csv", cohort)
        assert (tmp_path / "c.csv").read_bytes() == cohort_csv_bytes(cohort)

    def test_quoted_ids_and_covariates(self, tmp_path):
        grid = TimeGrid(np.array([0.5, 12.25]))
        cohort = a.Cohort(subjects=(
            a.Subject(id='o"b,1', times=grid, y=np.array([120.0, -0.0]),
                      covariates={"diet": "salt, low", "age": 41.0}),
            a.Subject(id="line\nbreak", times=grid, y=np.array([1e-5, 1e16]),
                      covariates={"diet": ""}),
        ))
        write_cohort(tmp_path / "c.csv", cohort, outcome="DBP")
        assert (tmp_path / "c.csv").read_bytes() == cohort_csv_bytes(cohort, "dbp")


def written_field(text):
    """``text`` as a ``csv.writer`` with a ``\\r\\n`` terminator writes it as
    the first of two fields."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow((text, ""))
    return buf.getvalue()[:-3]


class TestCsvQuoted:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.text(st.one_of(st.sampled_from(',"\r\n\0 '), st.characters())),
                    max_size=6))
    @example(["", "a", "\r", "\n", ",", '"', " x ", "\u00e9"])
    @example(["\0", "a\0b"])
    def test_same_as_the_writer_or_both_raise(self, texts):
        try:
            want = [written_field(t) for t in texts]
        except csv.Error:
            with pytest.raises(csv.Error):
                dataio.csv_quoted(texts)
        else:
            assert dataio.csv_quoted(texts) == want


class TestHourlyAggregate:
    def test_singleton_bins_move_to_midpoints(self):
        times = TimeGrid(np.array([0.2, 1.9, 2.4]))
        s = a.Subject(id="s", times=times, y=np.array([100.0, 110.0, 120.0]))
        out = a.hourly_aggregate(a.Cohort(subjects=(s,))).subjects[0]
        np.testing.assert_array_equal(out.times.points, [0.5, 1.5, 2.5])
        np.testing.assert_array_equal(out.y, [100.0, 110.0, 120.0])

    def test_mean_of_two_readings(self):
        s = a.Subject(id="s", times=TimeGrid(np.array([7.1, 7.6])), y=np.array([118.0, 122.0]))
        out = a.hourly_aggregate(a.Cohort(subjects=(s,))).subjects[0]
        np.testing.assert_array_equal(out.times.points, [7.5])
        np.testing.assert_array_equal(out.y, [120.0])

    def test_empty_bins_dropped(self):
        rng = np.random.default_rng(0)
        hours = np.array(sorted(rng.choice(24, size=20, replace=False)), dtype=float)
        s = a.Subject(id="s", times=TimeGrid(hours + 0.25), y=rng.normal(120, 5, 20))
        out = a.hourly_aggregate(a.Cohort(subjects=(s,))).subjects[0]
        assert out.n_obs == 20

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        times = TimeGrid(np.sort(rng.uniform(0, 24, size=30)))
        s = a.Subject(id="s", times=times, y=rng.normal(120, 5, 30))
        once = a.hourly_aggregate(a.Cohort(subjects=(s,)))
        twice = a.hourly_aggregate(once)
        np.testing.assert_array_equal(once.subjects[0].times.points, twice.subjects[0].times.points)
        np.testing.assert_array_equal(once.subjects[0].y, twice.subjects[0].y)

    def test_count_conservation(self):
        rng = np.random.default_rng(2)
        times = np.sort(rng.uniform(0, 24, size=50))
        s = a.Subject(id="s", times=TimeGrid(times), y=rng.normal(120, 5, 50))
        out = a.hourly_aggregate(a.Cohort(subjects=(s,))).subjects[0]
        nonempty = len(set(np.floor(times).astype(int)))
        assert out.n_obs == nonempty


class TestFilterNormals:
    def cohort(self):
        t = TimeGrid(np.array([0.5, 1.5]))
        return a.Cohort(
            subjects=(
                a.Subject(id="ok", times=t, y=np.array([120.0, 118.0])),
                a.Subject(id="high", times=t, y=np.array([120.0, 190.0])),
            )
        )

    def test_conjunctive_filtering(self):
        out = a.filter_normals(self.cohort(), {0: (90, 140), 1: (90, 140)})
        assert [s.id for s in out] == ["ok"]

    def test_wide_bounds_identity(self):
        out = a.filter_normals(self.cohort(), {0: (-1e9, 1e9), 1: (-1e9, 1e9)})
        assert len(out) == 2

    def test_missing_hour_threshold(self):
        with pytest.raises(ConfigError, match="hour 1"):
            a.filter_normals(self.cohort(), {0: (90, 140)})

    def test_missing_hour_threshold_after_an_out_of_range_value(self):
        # the out-of-range 190 at hour 0 must not stop the check of hour 1
        cohort = a.Cohort(subjects=(
            a.Subject(id="A", times=TimeGrid(np.array([0.5, 1.5])), y=np.array([190.0, 118.0])),
            a.Subject(id="B", times=TimeGrid(np.array([0.5])), y=np.array([120.0])),
        ))
        with pytest.raises(ConfigError, match="hour 1"):
            a.filter_normals(cohort, {0: (90, 140)})

    def test_everyone_filtered_is_an_error(self):
        with pytest.raises(ConfigError):
            a.filter_normals(self.cohort(), {0: (0, 1), 1: (0, 1)})


class TestSimulateCohort:
    def test_seed_determinism(self):
        spec = poly_spec(2)
        cfg = a.SimulationConfig(
            spec=spec, beta=np.array([500.0, -10.0, 5.0]),
            sigma_d=np.diag([50.0, 25.0, 10.0]), sigma2=16.0, n_subjects=12, seed=3,
            missing_rate=0.2, time_jitter_sd=0.1,
        )
        c1, c2 = a.simulate_cohort(cfg), a.simulate_cohort(cfg)
        for s1, s2 in zip(c1, c2):
            assert s1.id == s2.id
            np.testing.assert_array_equal(s1.times.points, s2.times.points)
            np.testing.assert_array_equal(s1.y, s2.y)

    def test_noiseless_subjects_lie_on_population_curve(self):
        spec = poly_spec(2)
        beta = np.array([480.0, -12.0, 6.0])
        cfg = a.SimulationConfig(
            spec=spec, beta=beta, sigma_d=np.zeros((3, 3)), sigma2=0.0,
            n_subjects=5, seed=11,
        )
        cohort = a.simulate_cohort(cfg)
        ctx = BasisContext(spec)
        for s in cohort:
            expected = ctx.fixed_time_matrix(s.times) @ beta
            np.testing.assert_allclose(s.y, expected, atol=1e-10)

    def test_marginal_variance_moments(self):
        spec = poly_spec(2)
        sigma_d = np.diag([80.0, 40.0, 20.0])
        sigma2 = 25.0
        cfg = a.SimulationConfig(
            spec=spec, beta=np.array([500.0, -10.0, 5.0]), sigma_d=sigma_d,
            sigma2=sigma2, n_subjects=2000, seed=19,
        )
        cohort = a.simulate_cohort(cfg)
        ctx = BasisContext(spec)
        times = cohort.subjects[0].times
        u = ctx.time_matrices(times)[1]
        target = np.einsum("ij,jk,ik->i", u, sigma_d, u) + sigma2
        ys = np.stack([s.y for s in cohort])
        emp = ys.var(axis=0, ddof=1)
        # Var of a sample variance of normals: 2 sigma^4 / (n - 1)
        se = target * np.sqrt(2.0 / (len(cohort) - 1))
        assert np.all(np.abs(emp - target) <= 3.0 * se)

    def test_missing_rate_thins(self):
        spec = poly_spec(1)
        cfg = a.SimulationConfig(
            spec=spec, beta=np.array([500.0, -10.0]), sigma_d=np.diag([50.0, 10.0]),
            sigma2=9.0, n_subjects=200, seed=23, missing_rate=0.25,
        )
        cohort = a.simulate_cohort(cfg)
        frac = cohort.n_obs / (200 * 24)
        assert 0.70 <= frac <= 0.80

    def test_config_validation(self):
        spec = poly_spec(1)
        with pytest.raises(ConfigError):
            a.SimulationConfig(spec=spec, beta=np.zeros(3), sigma_d=np.eye(2),
                               sigma2=1.0, n_subjects=5)
        with pytest.raises(ConfigError):
            a.SimulationConfig(spec=spec, beta=np.zeros(2), sigma_d=-np.eye(2),
                               sigma2=1.0, n_subjects=5)
        with pytest.raises(ConfigError):
            a.SimulationConfig(spec=spec, beta=np.zeros(2), sigma_d=np.eye(2),
                               sigma2=1.0, n_subjects=5, missing_rate=0.99)
