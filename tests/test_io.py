import csv
import io
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shufflevar.io as sio
from shufflevar import build_design
from shufflevar.cli import main
from shufflevar.design import DesignError
from shufflevar.io import (
    DatasetFormatError,
    parse_noise,
    parse_permutation,
    read_dataset,
    write_dataset,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


GOOD = [
    "t,stimulus,block,v1,v2",
    "1,a,x,0.5,1.0",
    "2,b,x,-0.25,2.0",
    "3,a,y,0.125,3.0",
    "4,b,y,2.5,4.0",
]


class TestReadDataset:
    def test_basic(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, GOOD)
        design, names, Y = read_dataset(p)
        assert (design.T, design.m, design.n, design.n_blocks) == (4, 2, 2, 2)
        assert names == ["v1", "v2"]
        assert Y[:, 0].tolist() == [0.5, -0.25, 0.125, 2.5]

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["# provenance", GOOD[0], "# mid-file note"] + GOOD[1:])
        design, _, _ = read_dataset(p)
        assert design.T == 4

    def test_rows_sorted_by_t(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, [GOOD[0], GOOD[4], GOOD[2], GOOD[1], GOOD[3]])
        design, _, Y = read_dataset(p)
        assert Y[:, 0].tolist() == [0.5, -0.25, 0.125, 2.5]
        assert list(design.labels) == ["a", "b", "a", "b"]

    def test_missing_block_warns(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["t,stimulus,v1", "1,a,0.5", "2,b,1.0", "3,a,1.5", "4,b,2.0"])
        with pytest.warns(UserWarning, match="block"):
            design, _, _ = read_dataset(p)
        assert not design.has_blocks

    def test_bad_header(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["stimulus,t,v1", "a,1,0.5"])
        with pytest.raises(DatasetFormatError):
            read_dataset(p)

    def test_no_series_columns(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["t,stimulus,block", "1,a,x"])
        with pytest.raises(DatasetFormatError):
            read_dataset(p)

    def test_bad_t_sequence(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, [GOOD[0]] + [GOOD[1], GOOD[2], GOOD[3], "6,b,y,2.5,4.0"])
        with pytest.raises(DatasetFormatError, match="permutation of 1..4"):
            read_dataset(p)

    def test_non_numeric_value_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, [GOOD[0], GOOD[1], "2,b,x,oops,2.0", GOOD[3], GOOD[4]])
        with pytest.raises(DatasetFormatError, match=":3:"):
            read_dataset(p)

    def test_nan_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, [GOOD[0], GOOD[1], "2,b,x,nan,2.0", GOOD[3], GOOD[4]])
        with pytest.raises(DatasetFormatError, match="non-finite"):
            read_dataset(p)

    def test_field_count_mismatch(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, [GOOD[0], "1,a,x,0.5"])
        with pytest.raises(DatasetFormatError):
            read_dataset(p)


# Comment and blank lines between the data lines, so that a file line is not
# its data-row index: the third data row sits on file line 7.
def with_bad_row(bad_row):
    return ["# provenance", GOOD[0], "", GOOD[1], "# note", "  ", bad_row, GOOD[3], GOOD[4]]


# A file whose line 3 has a bad t and whose line 4 is short (found by Hypothesis).
FIRST_FAULT_FIRST = (
    b"# note\nt,stimulus,block,v1\na3,c,x,1e-3\na,x,2\n5,b,y,-4\n2,b,x,0\n6,c,y,1\n4,a,y,7.5\n"
)

ROW_FAULTS = {
    "unparseable-value": ("2,b,x,oops,2.0", "could not convert string 'oops'"),
    "unparseable-t": ("two,b,x,-0.25,2.0", "could not convert string 'two'"),
    "t-out-of-range": ("5,b,x,-0.25,2.0", "permutation of 1..4, got t=5"),
    "t-repeated": ("1,b,x,-0.25,2.0", "permutation of 1..4, got t=1"),
    "short-row": ("2,b,x,-0.25", "expected 5 fields, got 4"),
    "long-row": ("2,b,x,-0.25,2.0,3.0", "expected 5 fields, got 6"),
    # A quote past the labels, and after it as many numbers as there are series.
    "long-row-quoted-field": ('2,b,x,"1",-0.25,2.0', "expected 5 fields, got 6"),
    "unclosed-quote": ('2,"b,x,-0.25,2.0', "quoted field not closed on its line"),
    "quote-spans-lines": ('2,"b\nb",x,-0.25,2.0', "quoted field not closed on its line"),
    "nan": ("2,b,x,nan,2.0", "non-finite value"),
    "underscore-digits": ("2,b,x,1_0,2.0", "could not convert string '1_0'"),
    "non-ascii-digit": ("2,b,x,\u0661,2.0", "could not convert string"),
    # The quote runs into the next line, though this line alone parses.
    "unclosed-quote-last-field": ('2,b,x,-0.25,"2.0', "quoted field not closed on its line"),
}


class TestRowErrorLine:
    @pytest.mark.parametrize("fault", ROW_FAULTS)
    def test_names_file_line(self, fault, tmp_path):
        bad_row, reason = ROW_FAULTS[fault]
        p = tmp_path / "d.csv"
        write_lines(p, with_bad_row(bad_row))
        with pytest.raises(DatasetFormatError) as info:
            read_dataset(p)
        message = str(info.value)
        assert message.startswith(f"{p}:7: "), message
        assert reason in message
        # numpy's own wording and row count never reach a user.
        assert "dtype" not in message and "at row" not in message

    @pytest.mark.parametrize("end", ["\n", "\r\n", ""])
    @pytest.mark.parametrize("column", [2, 4])
    def test_quote_left_open_on_the_last_line(self, column, end, tmp_path):
        # The same fault as on any other line, whether or not the file ends
        # in a line break: the quote must not close at the end of the input.
        fields = GOOD[4].split(",")
        fields[column] = '"' + fields[column]
        p = tmp_path / "d.csv"
        p.write_bytes(("\n".join(GOOD[:4] + [",".join(fields)]) + end).encode())
        with pytest.raises(DatasetFormatError) as info:
            read_dataset(p)
        assert str(info.value) == f"{p}:5: quoted field not closed on its line"

    def test_quote_inside_a_label_is_kept(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, [line.replace(",a,", ',a"b,') for line in GOOD])
        design, _, _ = read_dataset(p)
        assert design.labels == ('a"b', "b", 'a"b', "b")

    def test_undecodable_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(("\n".join(GOOD) + "\n").encode() + b"5,a,x,\x81\xff,1\n")
        with pytest.raises(DatasetFormatError, match=str(p)):
            read_dataset(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, [GOOD[0], "# no rows"])
        with pytest.raises(DatasetFormatError, match="no data rows"):
            read_dataset(p)

    @pytest.mark.parametrize(
        "data",
        [
            b"# \x81 note\n" + "\n".join(GOOD).encode(),
            GOOD[0].encode() + b"\n2,b,x,oops,2.0\n# \x81\n",
            b"t,stim,v1\n1,a,1\n# \x81\n",
        ],
        ids=["comment", "after-a-faulty-row", "after-a-bad-header"],
    )
    def test_byte_not_utf8_is_the_first_fault(self, data, tmp_path):
        # Any byte of the file that is not UTF-8 is an error, found before any
        # row error, a comment line's byte included.
        p = tmp_path / "d.csv"
        p.write_bytes(data)
        with pytest.raises(DatasetFormatError) as info:
            read_dataset(p)
        assert str(info.value) == f"{p}: not utf-8 text: invalid start byte"

    def test_first_faulty_line_in_file_order(self, tmp_path):
        # A plain line's t is read after the lines that follow it; the fault on
        # line 3 still comes before the short row on line 4.
        p = tmp_path / "d.csv"
        p.write_bytes(FIRST_FAULT_FIRST)
        with pytest.raises(DatasetFormatError) as info:
            read_dataset(p)
        assert str(info.value) == f"{p}:3: could not convert string 'a3' to int64"

    def test_lone_cr_in_a_crlf_file_ends_a_line(self, tmp_path):
        # As in text mode: "2,b,x,-0.25,2.0" and "3,a,y,..." are two lines.
        p = tmp_path / "d.csv"
        p.write_bytes(b"\r\n".join(line.encode() for line in GOOD[:2]) + b"\r\n"
                      + b"\r".join(line.encode() for line in GOOD[2:4]) + b"\r\n"
                      + GOOD[4].encode() + b"\r\n")
        _, _, Y = read_dataset(p)
        assert Y[:, 0].tolist() == [0.5, -0.25, 0.125, 2.5]
        p.write_bytes(p.read_bytes().replace(b",-0.25,2.0\r", b",-0.25\r"))
        with pytest.raises(DatasetFormatError) as info:
            read_dataset(p)
        assert str(info.value) == f"{p}:3: expected 5 fields, got 4"

    @pytest.mark.parametrize(
        "respell",
        [
            lambda line: '{},"{}","{}",{}'.format(*line.split(",", 3)),
            lambda line: ",".join(f'"{f}"' for f in line.rstrip("\r\n").split(",")) + "\n",
            lambda line: re.sub(r"(?<![0-9.eE])(-?)0\.", r"\1.", line),
        ],
        ids=["labels-quoted", "all-quoted", "leading-dot"],
    )
    def test_other_spellings_read_as_plain_ones(self, respell, tmp_path):
        # Quoted labels are read with the packed numbers; a quoted number and
        # ".5" are not JSON, so those lines are read whole by np.loadtxt.
        plain, other = tmp_path / "plain.csv", tmp_path / "other.csv"
        rng = np.random.default_rng(1)
        design = build_design(["a", "b", "c"] * 4, ["x"] * 6 + ["y"] * 6)
        write_dataset(plain, design, ["v1", "v2", "v3"], rng.standard_normal((12, 3)) / 2)
        lines = plain.read_text().splitlines(keepends=True)
        other.write_text("".join(lines[:1] + [respell(line) for line in lines[1:]]))
        assert other.read_text() != plain.read_text()
        assert read_outcome(read_dataset, other) == read_outcome(read_dataset, plain)

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"t,stimulus,block,v1\n1,a,x,.5\n2,b,x,\"1\n3,a,y,1\nfour,b,y,2\n", 3),
            (b"t,stimulus,block,v1\n1,a,x,.5\ntwo,b,x,1\n3,a,y,oops\n4,b,y,2\n", 3),
            (b"t,stimulus,block,v1\n1,a,x,.5\n2,b,x,1\n3,a,y,1\n4,b,y,\"2\n", 5),
        ],
        ids=["open-quote-then-plain", "plain-then-whole", "open-quote-on-the-last-line"],
    )
    def test_first_fault_among_packed_and_whole_lines(self, data, line, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(data)
        with pytest.raises(DatasetFormatError) as info:
            read_dataset(p)
        assert str(info.value).startswith(f"{p}:{line}: ")
        assert read_outcome(read_dataset, p) == read_outcome(loadtxt_parse, p)

    @pytest.mark.parametrize("rows, bound", [("in t order", 1.5), ("reversed", 2.5)])
    def test_peak_memory_is_a_small_multiple_of_the_values(self, rows, bound, tmp_path):
        # Lines are not held: the peak is the values, a copy of them in t order
        # if the rows are not, and a little more; the file is 2.5 times the values.
        p = tmp_path / "d.csv"
        T, S = 360, 200
        design = build_design([f"s{j}" for j in range(36)] * 10)
        Y = np.random.default_rng(2).standard_normal((T, S))
        write_dataset(p, design, [f"y{j}" for j in range(S)], Y)
        if rows == "reversed":
            header, *body = p.read_text().splitlines(keepends=True)
            p.write_text("".join([header] + body[::-1]))
        with pytest.warns(UserWarning, match="no block column"):
            read_dataset(p)  # imports, caches
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning, match="no block column"):
                _, _, Y2 = read_dataset(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert Y2.tobytes() == Y.tobytes() and p.stat().st_size > 2.5 * Y.nbytes
        assert peak <= bound * Y.nbytes, peak / Y.nbytes


def reference_read(path):
    """The csv.reader row loop the numpy parse replaced: labels, blocks,
    names and the T x S values, rows in t order."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if line.strip() and not line.lstrip().startswith("#")]
    reader = csv.reader(lines)
    header = [h.strip() for h in next(reader)]
    first_series = 3 if header[2] == "block" else 2
    records = sorted(
        (int(row[0]), row[1], row[2] if first_series == 3 else None,
         [float(v) for v in row[first_series:]])
        for row in reader
    )
    blocks = [r[2] for r in records] if first_series == 3 else None
    return [r[1] for r in records], blocks, header[first_series:], np.array([r[3] for r in records])


# Labels and names with the characters the csv module quotes or keeps as is.
csv_text = st.text(st.sampled_from('ab ,"#xé'), max_size=5)


@st.composite
def csv_written_dataset(draw):
    """A valid dataset written by csv.writer, with comment and blank lines."""
    m, n, S = draw(st.integers(2, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    stimuli = draw(st.lists(csv_text, min_size=m, max_size=m, unique=True))
    blocks = draw(st.one_of(st.none(), st.lists(csv_text, min_size=1, max_size=3)))
    names = draw(st.lists(csv_text, min_size=S, max_size=S))
    order = draw(st.permutations(range(m * n)))
    values = st.floats(allow_nan=False, allow_infinity=False)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["t", "stimulus"] + (["block"] if blocks is not None else []) + names)
    for t in order:
        labels = [stimuli[t % m]]
        if blocks is not None:
            labels.append(blocks[t % len(blocks)])
        writer.writerow([t + 1] + labels + [repr(draw(values)) for _ in range(S)])
    lines = out.getvalue().splitlines(keepends=True)
    for _ in range(draw(st.integers(0, 4))):
        extra = draw(st.sampled_from(["# comment, with \"quotes\"\n", "\n", "   \r\n"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return "".join(lines)


class TestAgainstCsvReader:
    @settings(max_examples=200, deadline=None)
    @given(csv_written_dataset())
    def test_same_dataset(self, text):
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            path = Path(tmp) / "d.csv"
            path.write_text(text, encoding="utf-8", newline="")
            labels, blocks, names, Y_ref = reference_read(path)
            design, names2, Y = read_dataset(path)
        assert list(design.labels) == labels
        assert design.has_blocks == (blocks is not None)
        if blocks is not None:
            assert list(design.block_labels) == blocks
        assert names2 == names
        assert Y.shape == Y_ref.shape and Y.tobytes() == Y_ref.tobytes()


class TestWriteDataset:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        design = build_design(["a", "a", "b", "b"], ["x", "x", "y", "y"])
        names = [f"v{j}" for j in range(3)]
        Y = rng.standard_normal((4, 3))
        p = tmp_path / "d.csv"
        write_dataset(p, design, names, Y, comments=["written by test"])
        design2, names2, Y2 = read_dataset(p)
        assert list(design2.labels) == list(design.labels)
        assert list(design2.block_labels) == list(design.block_labels)
        assert names2 == names
        assert np.array_equal(Y2, Y)  # 17 digits round-trips

    @pytest.mark.parametrize("blocks", [["x", "x", "y", "y"], None], ids=["blocks", "no-blocks"])
    def test_has_blocks_survives_a_round_trip(self, blocks, tmp_path):
        design = build_design(["a", "b", "a", "b"], blocks)
        p = tmp_path / "d.csv"
        write_dataset(p, design, ["v"], np.zeros((4, 1)))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            design2, _, _ = read_dataset(p)
        assert design2.has_blocks == design.has_blocks
        assert [str(w.message) for w in seen] == (
            [] if blocks else [f"{p}: no block column; assuming a single block"]
        )
        assert list(design2.block_labels) == list(design.block_labels)


class TestParsePermutation:
    def test_named_forms(self):
        d = build_design(["a", "a", "b", "b"])
        assert parse_permutation("identity", d).mapping.tolist() == [0, 1, 2, 3]
        assert parse_permutation("reverse", d).mapping.tolist() == [3, 2, 1, 0]
        assert parse_permutation("shift:1", d).mapping.tolist() == [1, 2, 3, 0]
        assert parse_permutation("odd-even", d).mapping.tolist() == [1, 0, 3, 2]
        br = parse_permutation("block-random", d, seed=5)
        assert sorted(br.mapping.tolist()) == [0, 1, 2, 3]

    def test_file_form_one_based(self, tmp_path):
        d = build_design(["a", "a", "b", "b"])
        p = tmp_path / "perm.txt"
        p.write_text("4\n3\n2\n1\n")
        assert parse_permutation(f"file:{p}", d).mapping.tolist() == [3, 2, 1, 0]

    def test_file_length_mismatch(self, tmp_path):
        d = build_design(["a", "a", "b", "b"])
        p = tmp_path / "perm.txt"
        p.write_text("1\n2\n")
        with pytest.raises(ValueError):
            parse_permutation(f"file:{p}", d)

    def test_unknown(self):
        d = build_design(["a", "a", "b", "b"])
        with pytest.raises(ValueError):
            parse_permutation("bogus", d)


class TestParseNoise:
    def test_forms(self):
        assert parse_noise("iid").family == "iid"
        m = parse_noise("exp-nugget:0.7,30")
        assert m.family == "exp_nugget" and m.params == (0.7, 30.0)
        m = parse_noise("block:0.5,0.7")
        assert m.family == "block" and m.params == (0.5, 0.7)
        m = parse_noise("ar:0.5,-0.2")
        assert m.family == "ar" and m.params == (0.5, -0.2)

    def test_bad_forms(self):
        for spec in ["exp-nugget:0.7", "block:1", "ar:", "ar:1,2,3,4", "bogus:1"]:
            with pytest.raises(ValueError):
                parse_noise(spec)


VALID_FILES = [
    "\n".join(GOOD) + "\n",
    "t,stimulus,v1\n1,a,0.5\n2,b,1.0\n3,a,1.5\n4,b,2.0\n",
    "# note\nt,stimulus,block,v1\n3,c,x,1e-3\n1,a,x,2\n5,b,y,-4\n2,b,x,0\n6,c,y,1\n4,a,y,7.5\n",
]


@st.composite
def mutated_dataset(draw):
    """A valid dataset after a few character-level edits."""
    text = draw(st.sampled_from(VALID_FILES))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        piece = draw(st.text(",\n#\". -+e0123456789abcnxyt", max_size=3))
        cut = draw(st.integers(0, 3))
        text = text[:i] + piece + text[i + cut:]
    return text


class TestFuzzDataset:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.text(st.characters(blacklist_categories=("Cs",))), mutated_dataset()))
    def test_estimate_exits_0_or_1(self, text):
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            path = Path(tmp) / "d.csv"
            path.write_text(text, encoding="utf-8")
            try:
                read_dataset(path)
            except (DatasetFormatError, DesignError):
                pass  # no other error, numpy's included, escapes
            rc = main(["estimate", "-i", str(path), "-o", str(Path(tmp) / "est.csv")])
            assert rc in (0, 1)


def loadtxt_parse(path):
    """The reader as one whole-file ``np.loadtxt`` parse: the file's lines
    read in text mode, all data lines and a closing line in one call with
    the row dtype, and each line read on its own for the first one's error.

    The closing line is a record parsed after the data lines: a quote left
    open on the last of them runs into it, as it would run into the next
    line of the file, instead of closing at the end of the input.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = [
                (i + 1, line)
                for i, line in enumerate(fh)
                if line.strip() and not line.lstrip().startswith("#")
            ]
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not {exc.encoding} text: {exc.reason}") from None
    if not lines:
        raise DatasetFormatError(f"{path}: no data rows")
    (head_lineno, head), *rows = lines
    k, names = sio._header(path, head_lineno, head)
    S = len(names)
    row = np.dtype([("t", np.int64), ("labels", object, (k - 1,)), ("y", np.float64, (S,))])
    closing = ",".join(["1"] + [""] * (k - 1) + ["0"] * S)
    try:
        table = sio._loadtxt([line for _, line in rows] + [closing], row)[:-1]
        if len(table) != len(rows):
            raise ValueError("a quoted field runs over a line break")
    except ValueError as exc:
        for lineno, line in rows:
            sio._record(path, lineno, line, row, k + S)
        raise DatasetFormatError(f"{path}: {exc}") from None
    linenos = [lineno for lineno, _ in rows]
    return sio._dataset(path, names, linenos, table["t"], table["labels"], table["y"])


def read_outcome(read, path):
    """What ``read`` gives: labels, blocks, names and the values' bytes, or
    the type and text of its error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            design, names, Y = read(path)
    except (DatasetFormatError, DesignError) as exc:
        return type(exc).__name__, str(exc)
    blocks = list(design.block_labels) if design.has_blocks else None
    return list(design.labels), blocks, names, Y.shape, Y.tobytes()


def assert_parse_matches_loadtxt(text, newline=None):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_text(text, encoding="utf-8", newline=newline)
        assert read_outcome(read_dataset, path) == read_outcome(loadtxt_parse, path)


# One row per spelling of a number; a naive fast reader fails the "-0" row.
SPELLINGS = {
    "int-minus-zero": "-0",
    "float-minus-zero": "-0.0",
    "underflow": "1e-400",
    "negative-underflow": "-1e-400",
    "min-subnormal": "5e-324",
    "subnormal-halfway": "2.4703282292062328e-324",
    "17-digits": "0.10000000000000001",
    "25-digits": "1.234567890123456789012345",
    "halfway-decimal": "1.00000000000000011102230246251565404236316680908203125",
    "int-2**53+1": "9007199254740993",
    "int-above-u64": "18446744073709551617",
    "overflow": "1e309",
    "leading-point": ".5",
    "trailing-point": "5.",
    "plus-sign": "+1",
    "underscore": "1_0",
    "arabic-digit": "\u0661",
    "nan": "nan",
    "inf": "inf",
    "true": "true",
    "false": "false",
    "null": "null",
    "quoted": '"1.5"',
    "quoted-int": '"1"',
    "array": "[1]",
    "empty": "",
    "spaces-and-tabs": " \t1.5 \t",
}


def spelled_file(spelling, ending="\n"):
    """GOOD with ``spelling`` as v1 of the second data row and v2 of the last."""
    lines = [GOOD[0], GOOD[1], f"2,b,x,{spelling},2.0", GOOD[3], f"4,b,y,2.5,{spelling}"]
    return ending.join(lines) + ending


class TestAgainstLoadtxtParse:
    @pytest.mark.parametrize("spelling", SPELLINGS.values(), ids=SPELLINGS.keys())
    def test_spelling(self, spelling):
        assert_parse_matches_loadtxt(spelled_file(spelling), newline="")

    @pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_ending(self, ending):
        assert_parse_matches_loadtxt(spelled_file("-0.5", ending), newline="")

    @pytest.mark.parametrize("row", [1, 2, 3, 4])
    def test_quote_left_open_in_a_label(self, row):
        lines = list(GOOD)
        t, stimulus, block, *values = lines[row].split(",")
        lines[row] = ",".join([t, stimulus, '"' + block, *values])
        assert_parse_matches_loadtxt("\n".join(lines) + "\n")

    def test_quoted_labels(self):
        text = '# note\nt,stimulus,block,v1\n1,"a,1",x,0.5\n2,b,"x ""y""",-0\n3,"a,1",x,1e-3\n4,b,"x ""y""",2\n'
        assert_parse_matches_loadtxt(text)

    @pytest.mark.parametrize(
        "data",
        [
            b"t,stimulus,block,v1\r\n1,a,x,0.5\r\n2,b,x\r1.0\r\n3,a,y,1\r\n4,b,y,2\r\n",
            b"t,stimulus,block,v1\r\n1,a,x,0.5\r\n2,b,x,1\r3,a,y,1\r\n4,b,y,2\r\r",
            b"# \x81\nt,stimulus,block,v1\n1,a,x,0.5\n2,b,x,1\n",
            b"t,stimulus,v1\n1,a,.5\n2,b,x\n\xc2\xa0\n# \xff\n",
            b"t,stimulus,v1\n\xc2\xa0# note\n1,\xc3\xa9,1\n\x1c\n2,b,-0\n",
            FIRST_FAULT_FIRST,
        ],
        ids=["lone-cr-short-row", "lone-cr", "comment-byte", "byte-after-a-fault",
             "unicode-space-and-label", "first-fault-in-file-order"],
    )
    def test_bytes(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_bytes(data)
            assert read_outcome(read_dataset, path) == read_outcome(loadtxt_parse, path)

    @settings(max_examples=200, deadline=None)
    @given(csv_written_dataset())
    def test_csv_written(self, text):
        assert_parse_matches_loadtxt(text, newline="")

    @settings(max_examples=300, deadline=None)
    @given(mutated_dataset())
    def test_mutated(self, text):
        assert_parse_matches_loadtxt(text)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mixed_spellings(self, data):
        """Plain and quoted lines mixed, each value a table spelling or a
        float's repr, under each line ending."""
        value = st.one_of(st.sampled_from(list(SPELLINGS.values())), st.floats().map(repr))
        lines = [GOOD[0]]
        for line in GOOD[1:]:
            t, stimulus, block, *_ = line.split(",")
            if data.draw(st.booleans()):
                stimulus = f'"{stimulus}"'
            lines.append(",".join([t, stimulus, block, data.draw(value), data.draw(value)]))
        ending = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        assert_parse_matches_loadtxt(ending.join(lines) + ending, newline="")


def many_rows(T=12, S=3):
    """The lines of a valid dataset of T rows and S series."""
    rng = np.random.default_rng(4)
    lines = ["t,stimulus,block," + ",".join(f"v{j}" for j in range(S))]
    for t in range(T):
        values = ",".join(repr(v) for v in rng.standard_normal(S).tolist())
        lines.append(f"{t + 1},s{t % 3},b{t // 6},{values}")
    return lines


def outcomes_with_buffer(size, data):
    """``read_outcome`` of ``read_dataset``, its buffer starting at ``size``
    bytes, and of ``loadtxt_parse`` on a file of the bytes ``data``."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(sio, "_BUFFER_BYTES", size):
        path = Path(tmp) / "d.csv"
        path.write_bytes(data)
        return read_outcome(read_dataset, path), read_outcome(loadtxt_parse, path)


class TestSmallBuffers:
    """The reader with a buffer of a few bytes, so that a small file spans
    many of them, against the loadtxt oracle."""

    @pytest.mark.parametrize("size", [1, 16, 64, 200])
    def test_file_spanning_several_buffers(self, size):
        data = ("\n".join(many_rows()) + "\n").encode()
        assert len(data) > 4 * size
        got, want = outcomes_with_buffer(size, data)
        assert got == want and len(got) == 5  # a dataset, not an error

    def test_line_longer_than_the_buffer(self):
        lines = many_rows(S=40)
        data = ("\n".join(lines) + "\n").encode()
        assert min(map(len, lines)) > 10 * 16
        got, want = outcomes_with_buffer(16, data)
        assert got == want and got[3] == (12, 40)

    @pytest.mark.parametrize("bad", [False, True], ids=["valid", "short-last-row"])
    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_break_at_every_buffer_boundary(self, ending, bad):
        # Each size puts the first buffer's end at another byte of the file,
        # a "\r\n" split across it among them; the short row's error must
        # still name line 7, so a split "\r\n" is one line break, not two.
        lines = many_rows(T=6)
        if bad:
            lines[-1] = lines[-1].rpartition(",")[0]
        data = (ending.join(lines) + ending).encode()
        for size in range(1, len(data) + 2):
            got, want = outcomes_with_buffer(size, data)
            assert got == want, size
            assert got[1].endswith(":7: expected 6 fields, got 5") if bad else len(got) == 5, size

    @pytest.mark.parametrize("bad", [False, True], ids=["valid", "short-row"])
    def test_lone_cr_in_a_later_buffer(self, bad):
        lines = many_rows()
        if bad:
            lines[11] = lines[11].rpartition(",")[0]
        data = ("\r\n".join(lines[:10]) + "\r\n" + "\r".join(lines[10:]) + "\r\n").encode()
        for size in (16, 64):
            got, want = outcomes_with_buffer(size, data)
            assert got == want
            assert (got[0] == "DatasetFormatError") == bad
            assert not bad or got[1].endswith(":12: expected 6 fields, got 5")

    def test_byte_not_utf8_in_a_later_buffer_after_a_row_error(self):
        lines = many_rows()
        lines[2] = "2,s1,b0,oops,1,2"
        data = ("\n".join(lines) + "\n").encode() + b"# \x81\n"
        for size in (16, 64):
            got, want = outcomes_with_buffer(size, data)
            assert got == want and got[1].endswith(": not utf-8 text: invalid start byte")

    @pytest.mark.parametrize("last", ["", "\r", ",oops", ',"2.0'], ids=["plain", "cr", "fault", "open-quote"])
    def test_last_line_without_newline(self, last):
        # The last line's "]" goes into the byte after it, at any buffer size.
        data = ("\n".join(many_rows(T=6)) + last).encode()
        for size in range(1, len(data) + 2):
            got, want = outcomes_with_buffer(size, data)
            assert got == want, size
            assert (len(got) == 5) == (last in ("", "\r")), size

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(csv_written_dataset(), mutated_dataset()), st.integers(1, 80))
    def test_any_file_at_any_size(self, text, size):
        got, want = outcomes_with_buffer(size, text.encode())
        assert got == want


class TestLinesReadByOrjson:
    """Lines with UTF-8 labels or a lone ``\\r`` ending have their numbers
    read in place, as plain lines do: ``np.loadtxt`` sees only their heads."""

    @pytest.mark.parametrize(
        "ending,label",
        [("\n", "café"), ("\r\n", "μ"), ("\r", "s"), ("\r", "ß")],
        ids=["lf-utf8", "crlf-utf8", "cr", "cr-utf8"],
    )
    def test_no_whole_line_goes_to_loadtxt(self, ending, label, tmp_path):
        lines = many_rows()
        lines[1:] = [line.replace(",s", f",{label}", 1) for line in lines[1:]]
        path = tmp_path / "d.csv"
        path.write_bytes((ending.join(lines) + ending).encode())
        whole, loadtxt = [], sio._loadtxt

        def spy(lines, dtype):
            if "y" in (np.dtype(dtype).names or ()):
                whole.append(len(lines))
            return loadtxt(lines, dtype)

        for size in (16, 64, 16384):
            whole.clear()
            with mock.patch.object(sio, "_loadtxt", spy), mock.patch.object(sio, "_BUFFER_BYTES", size):
                got = read_outcome(read_dataset, path)
            assert got == read_outcome(loadtxt_parse, path) and len(got) == 5
            assert whole == [1], size  # only the closing line
