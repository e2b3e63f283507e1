import csv
import io
import tempfile
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


ROW_FAULTS = {
    "unparseable-value": ("2,b,x,oops,2.0", "could not convert string 'oops'"),
    "unparseable-t": ("two,b,x,-0.25,2.0", "could not convert string 'two'"),
    "t-out-of-range": ("5,b,x,-0.25,2.0", "permutation of 1..4, got t=5"),
    "t-repeated": ("1,b,x,-0.25,2.0", "permutation of 1..4, got t=1"),
    "short-row": ("2,b,x,-0.25", "expected 5 fields, got 4"),
    "long-row": ("2,b,x,-0.25,2.0,3.0", "expected 5 fields, got 6"),
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


def loadtxt_parse(path, rows, row, n_fields):
    """The parse without orjson: one ``np.loadtxt`` over all data lines and a
    closing line with the row dtype, and ``_check_rows`` for its errors."""
    try:
        lines = [line for _, line in rows] + [sio._closing_line(row, n_fields)]
        table = sio._loadtxt(lines, row)[:-1]
        if len(table) != len(rows):
            raise ValueError("a quoted field runs over a line break")
    except ValueError as exc:
        sio._check_rows(path, rows, row, n_fields)
        raise DatasetFormatError(f"{path}: {exc}") from None
    return table["t"], table["labels"], table["y"]


def read_outcome(path):
    """What ``read_dataset`` gives: labels, blocks, names and the values'
    bytes, or the type and text of its error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            design, names, Y = read_dataset(path)
    except (DatasetFormatError, DesignError) as exc:
        return type(exc).__name__, str(exc)
    blocks = list(design.block_labels) if design.has_blocks else None
    return list(design.labels), blocks, names, Y.shape, Y.tobytes()


def assert_parse_matches_loadtxt(text, newline=None):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_text(text, encoding="utf-8", newline=newline)
        got = read_outcome(path)
        with mock.patch.object(sio, "_parse_rows", loadtxt_parse):
            want = read_outcome(path)
    assert got == want


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
    "null": "null",
    "quoted": '"1.5"',
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
