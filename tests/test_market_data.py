import codecs
import csv
import gc
import json
import math
import subprocess
import sys
import tempfile
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantfolio import (
    PricePanel,
    ReturnPanel,
    SplitSpec,
    load_csv,
    split,
    synth_panel,
    to_returns,
    write_csv,
)
from quantfolio.allocation import GaConfig, WeightVector, equal_weights, minvar
from quantfolio.backtest import Periodic, Strategy, Threshold, run
from quantfolio.cli import RunConfig, _read_artifact
from quantfolio.clustering import ward_cluster
from quantfolio.market_data import _READ_BUFFER
from quantfolio.qaoa import QaoaConfig, sample, walk_forward
from quantfolio.schedule_qubo import QuboParams, QuboProblem, _qubo_matrix, candidate_dates
from quantfolio.shrinkage import ShrunkCovariance

from conftest import subprocess_env


def _write(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    @pytest.mark.parametrize("text,message", [
        ("", "empty file"),
        ("\n , \n", "empty file"),
        ("day,AAA\n2024-01-02,100.0\n", "first column must be 'date'"),
        ("date\n2024-01-02\n", "no ticker columns"),
        ("date,,AAA\n2024-01-02,1.0,100.0\n2024-01-03,1.0,101.0\n2024-01-04,1.0,102.0\n",
         "header column 2 has no ticker name"),
        ("date,\n2024-01-02,100.0\n2024-01-03,101.0\n", "header column 2 has no ticker name"),
        ("date,AAA, \n2024-01-02,100.0,\n2024-01-03,101.0,\n",
         "header column 3 has no ticker name"),
    ])
    def test_header_errors_name_the_file(self, tmp_path, text, message):
        path = _write(tmp_path, text)
        with pytest.raises(ValueError) as got:
            load_csv(path)
        assert str(got.value) == f"{path}: {message}"

    def test_full_panel_passthrough(self, tmp_path):
        path = _write(tmp_path, (
            "date,AAA,BBB\n"
            "2024-01-02,100.0,50.0\n"
            "2024-01-03,101.0,49.5\n"
            "2024-01-04,102.5,50.5\n"
        ))
        panel = load_csv(path)
        assert panel.n_days == 3
        assert len(panel.tickers) == 2
        assert panel.tickers == ("AAA", "BBB")
        assert panel.dropped == ()
        assert panel.prices[0, 0] == 100.0
        assert panel.dates[0] == date(2024, 1, 2)

    def test_blank_cell_drops_ticker_and_reports_it(self, tmp_path):
        path = _write(tmp_path, (
            "date,AAA,BBB\n"
            "2024-01-02,100.0,50.0\n"
            "2024-01-03,101.0,\n"
            "2024-01-04,102.5,50.5\n"
        ))
        panel = load_csv(path)
        assert panel.tickers == ("AAA",)
        assert panel.dropped == ("BBB",)

    def test_zero_price_drops_ticker(self, tmp_path):
        path = _write(tmp_path, (
            "date,AAA,BBB\n"
            "2024-01-02,100.0,0.0\n"
            "2024-01-03,101.0,49.5\n"
        ))
        panel = load_csv(path)
        assert panel.tickers == ("AAA",)
        assert panel.dropped == ("BBB",)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    def test_too_few_rows(self, tmp_path):
        path = _write(tmp_path, "date,AAA\n2024-01-02,100.0\n")
        with pytest.raises(ValueError, match="at least 2"):
            load_csv(path)

    def test_zero_surviving_tickers(self, tmp_path):
        path = _write(tmp_path, (
            "date,AAA\n"
            "2024-01-02,\n"
            "2024-01-03,101.0\n"
        ))
        with pytest.raises(ValueError, match="no ticker"):
            load_csv(path)

    def test_roundtrip_via_write_csv(self, tmp_path):
        panel = synth_panel(seed=3, T=40, M=4)
        path = tmp_path / "out.csv"
        write_csv(panel, path)
        back = load_csv(path)
        assert back.tickers == panel.tickers
        assert back.dates == panel.dates
        np.testing.assert_array_equal(back.prices, panel.prices)

    def test_row_length_error_names_the_file_line(self, tmp_path):
        path = _write(tmp_path, (
            "date,AAA,BBB\n"
            "\n"
            "\n"
            "2024-01-02,100.0,50.0\n"
            "2024-01-03,101.0\n"
        ))
        with pytest.raises(ValueError, match="line 5 has 2 cells, expected 3"):
            load_csv(path)

    def test_bad_date_names_the_file_line(self, tmp_path):
        path = _write(tmp_path, (
            "date,AAA,BBB\n"
            "2024-01-02,1,2\n"
            "2024-13-03,2,3\n"
        ))
        for tickers in (None, ["BBB"]):
            with pytest.raises(ValueError, match=(
                r"prices\.csv: line 3 has a bad date: month must be in 1\.\.12"
            )):
                load_csv(path, tickers)

    def test_duplicate_ticker_column_rejected(self, tmp_path):
        path = _write(tmp_path, (
            "date,AAA,BBB,AAA\n"
            "2024-01-02,100.0,50.0,\n"
            "2024-01-03,101.0,49.5,\n"
        ))
        for tickers in (None, ["BBB"]):
            with pytest.raises(ValueError, match=r"prices\.csv: duplicate ticker column 'AAA'"):
                load_csv(path, tickers)

    def test_unknown_ticker_subset_rejected(self, tmp_path):
        path = _write(tmp_path, (
            "date,AAA,BBB\n"
            "2024-01-02,100.0,50.0\n"
            "2024-01-03,101.0,49.5\n"
        ))
        with pytest.raises(ValueError, match="unknown tickers: ZZZ"):
            load_csv(path, ["AAA", "ZZZ"])

    def test_subset_parses_only_named_columns_in_order(self, tmp_path):
        path = _write(tmp_path, (
            "date,AAA,BBB,CCC\n"
            "2024-01-02,100.0,n/a,20.0\n"
            "2024-01-03,101.0,,21.0\n"
        ))
        panel = load_csv(path, ["CCC", "AAA"])
        assert panel.tickers == ("CCC", "AAA")
        assert panel.dropped == ()
        np.testing.assert_array_equal(panel.prices, [[20.0, 100.0], [21.0, 101.0]])

    def test_rows_after_last_are_checked_but_not_kept(self, tmp_path):
        text = (
            "date,AAA,BBB\n"
            "2024-01-02,100.0,50.0\n"
            "2024-01-03,101.0,49.5\n"
            "2024-01-04,,-1\n"
        )
        for tickers in (None, ["BBB", "AAA"]):
            panel = load_csv(_write(tmp_path, text), tickers, date(2024, 1, 3))
            assert panel.dates == (date(2024, 1, 2), date(2024, 1, 3))
            assert panel.dropped == ()
            assert panel.tickers == tuple(tickers or ("AAA", "BBB"))
        for late, what in (("2024-13-05,1,1", "line 5 has a bad date"),
                           ("2024-01-05,1", "line 5 has 2 cells")):
            with pytest.raises(ValueError, match=what):
                load_csv(_write(tmp_path, text + late + "\n"), None, date(2024, 1, 3))
        with pytest.raises(ValueError, match="need at least 2 data rows on or before 2024-01-02"):
            load_csv(_write(tmp_path, text), None, date(2024, 1, 2))

    @pytest.mark.parametrize("late", ["2024-01-03", "2024-01-04"], ids=["earlier", "repeated"])
    def test_dates_must_increase_on_every_row(self, tmp_path, late):
        path = _write(tmp_path, (
            "date,AAA,BBB\n"
            "2024-01-02,100.0,50.0\n"
            "\n"
            "2024-01-04,101.0,49.5\n"
            f"{late},102.0,49.0\n"
        ))
        message = (rf"prices\.csv: line 5 has date {late}, not after the previous row's "
                   r"2024-01-04: dates must be strictly increasing")
        # with ``last``, the row out of order follows one that is not kept
        for tickers in (None, ["BBB"]):
            for last in (None, date(2024, 1, 3)):
                with pytest.raises(ValueError, match=message):
                    load_csv(path, tickers, last)

    def test_subset_still_checks_every_date(self, tmp_path):
        path = _write(tmp_path, (
            "date,AAA,BBB\n"
            "2024-01-02,100.0,50.0\n"
            "2024-13-03,101.0,49.5\n"
        ))
        with pytest.raises(ValueError):
            load_csv(path, ["AAA"])


    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("bad,what", [
        ("2024-01-04,102.5", "line 6 has 2 cells, expected 3"),
        ("2024-01-32,102.5,50.5", "line 6 has a bad date: day is out of range"),
    ])
    def test_errors_name_the_physical_line(self, tmp_path, end, bad, what):
        lines = ["date,AAA,BBB", "", "2024-01-02,100.0,50.0", "  ", "2024-01-03,101.0,49.5",
                 bad, "2024-01-05,103.0,51.0"]
        path = tmp_path / "prices.csv"
        path.write_bytes(end.join(lines).encode() + end.encode())
        for tickers in (None, ["AAA"]):
            with pytest.raises(ValueError, match=rf"prices\.csv: {what}"):
                load_csv(path, tickers)

    def test_quoted_cells_are_read_as_csv(self, tmp_path):
        # a quoted header cell may hold a comma or span lines; errors still
        # name the physical line
        text = ('date,"A,1","B\nC",D\r\n'
                '2024-01-02,"100.0",50.0, 7\r\n'
                '2024-01-03,101.0,"49.5","8"\r\n')
        path = _write(tmp_path, text)
        panel = load_csv(path)
        assert panel.tickers == ("A,1", "B\nC", "D")
        np.testing.assert_array_equal(panel.prices, [[100.0, 50.0, 7.0], [101.0, 49.5, 8.0]])
        assert load_csv(path, ["D", "A,1"]).tickers == ("D", "A,1")
        with pytest.raises(ValueError, match="line 5 has 2 cells"):
            load_csv(_write(tmp_path, text + '2024-01-04,"1"\r\n'))
        # a row whose quoted cell spans lines 5-6 is a gap, and its errors
        # name the line the row ends on
        assert load_csv(_write(tmp_path, text + '2024-01-04,"1\r\n2",3,4\r\n')).dropped == ("A,1",)
        with pytest.raises(ValueError, match="line 6 has 3 cells"):
            load_csv(_write(tmp_path, text + '2024-01-04,"1\r\n2",3\r\n'))

    def test_bare_carriage_return_line_ends_rejected(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_bytes(b"date,AAA\r2024-01-02,100.0\r2024-01-03,101.0\r")
        with pytest.raises(ValueError, match=(r"prices\.csv: line 1 has a carriage return "
                                              r"inside it; line ends must be \\n or \\r\\n")):
            load_csv(path)
        path.write_bytes(b"date,AAA\n2024-01-02,100.0\n2024-01-03,1\r01.0\n")
        with pytest.raises(ValueError, match="line 3 has a carriage return"):
            load_csv(path)
        # a last line may end in a lone carriage return
        path.write_bytes(b"date,AAA\r\n2024-01-02,100.0\r\n2024-01-03,101.0\r")
        assert load_csv(path).prices[-1, 0] == 101.0

    @pytest.mark.parametrize("bad", ["2024-01-04,1", "2024-02-30,1,2"])
    def test_file_closed_when_a_row_raises(self, tmp_path, bad):
        rows = [f"2024-01-0{d},{d},{d}" for d in (1, 2, 3)]
        path = _write(tmp_path, "\n".join(["date,AAA,BBB", *rows, bad, *rows]) + "\n")
        # a ResourceWarning made an error in a finaliser is unraisable: collect it
        unraisable = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            hook, sys.unraisablehook = sys.unraisablehook, unraisable.append
            try:
                for tickers in (None, ["BBB"]):
                    with pytest.raises(ValueError, match="line 5"):
                        load_csv(path, tickers)
                gc.collect()
            finally:
                sys.unraisablehook = hook
        assert not unraisable

    def test_non_ascii_ticker_round_trips_in_utf8_under_any_locale(self, tmp_path):
        panel = replace(synth_panel(seed=4, T=5, M=2), tickers=("ÉLAN", "BBB"))
        path = tmp_path / "prices.csv"
        # an ASCII locale: text files opened with the locale's encoding fail
        script = ("import sys; from dataclasses import replace; "
                  "from quantfolio import load_csv, synth_panel, write_csv; "
                  "p = replace(synth_panel(seed=4, T=5, M=2), tickers=('\\xc9LAN', 'BBB')); "
                  "write_csv(p, sys.argv[1]); print(ascii(load_csv(sys.argv[1]).tickers))")
        env = {**subprocess_env(), "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        proc = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        # the universe comes back sorted by name: "B" sorts before "\xc9"
        assert proc.stdout.strip() == ascii(("BBB", "ÉLAN"))
        assert path.read_bytes().startswith("date,ÉLAN,BBB\r\n".encode("utf-8"))
        back = load_csv(path)
        assert back.tickers == panel.tickers[::-1]
        np.testing.assert_array_equal(back.prices, panel.prices[:, ::-1])


def reference_write_csv(panel, path):
    """The per-cell ``csv.writer`` output ``write_csv`` must equal byte for byte."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *panel.tickers])
        for t, d in enumerate(panel.dates):
            writer.writerow([d.isoformat(), *[repr(float(p)) for p in panel.prices[t]]])


def test_write_csv_bytes_equal_csv_writer_reference(tmp_path):
    panel = replace(synth_panel(seed=8, T=60, M=6),
                    tickers=("A,B", 'say "hi"', "plain", " pad ", "ÉLAN", "F"))
    path, ref = tmp_path / "prices.csv", tmp_path / "reference.csv"
    write_csv(panel, path)
    reference_write_csv(panel, ref)
    assert path.read_bytes() == ref.read_bytes()
    # the header's cells are stripped, and the universe is sorted by name
    assert load_csv(path).tickers == tuple(sorted(tk.strip() for tk in panel.tickers))

def reference_load_csv(path, last=None):
    """The cell-by-cell parser that read every row into memory first: the
    reference for ``load_csv``'s dates, tickers, drops and price bits, with
    the columns sorted by ticker name. Rows after ``last`` have their length,
    date and date order checked, and nothing more."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if any(c.strip() for c in r)]
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if header[0].lower() != "date":
        raise ValueError(f"{path}: first column must be 'date'")
    tickers = header[1:]
    if not tickers:
        raise ValueError(f"{path}: no ticker columns")

    dates = []
    kept = []
    for t, row in enumerate(rows[1:]):
        if len(row) != len(header):
            raise ValueError(
                f"{path}: row {t + 2} has {len(row)} cells, expected {len(header)}"
            )
        day = date.fromisoformat(row[0].strip())
        if t and day <= previous:
            raise ValueError(f"{path}: row {t + 2} has a date out of order")
        previous = day
        if last is None or day <= last:
            dates.append(day)
            kept.append(row[1:])
    if len(kept) < 2:
        raise ValueError(f"{path}: need at least 2 data rows")

    raw = np.full((len(kept), len(tickers)), np.nan)
    for t, row in enumerate(kept):
        for i, cell in enumerate(row):
            cell = cell.strip()
            if not cell:
                continue
            try:
                raw[t, i] = float(cell)
            except ValueError:
                pass

    order = sorted(range(len(tickers)), key=tickers.__getitem__)
    tickers, raw = [tickers[i] for i in order], raw[:, order]
    complete = np.all(np.isfinite(raw) & (raw > 0.0), axis=0)
    dropped = tuple(tk for tk, ok in zip(tickers, complete) if not ok)
    if not np.any(complete):
        raise ValueError(f"{path}: no ticker has a complete positive price history")
    keep = tuple(tk for tk, ok in zip(tickers, complete) if ok)
    return PricePanel(tuple(dates), keep, raw[:, complete], dropped=dropped)


# "\xa0" (no-break space) is whitespace to str.strip and float, but not ASCII
_ODD_CELLS = ("", "  ", " 12.5 ", "\t7\t", "\xa03\xa0", "n/a", "0", "-1", "nan", "inf", "1e-3")
_BLANK_LINES = ("", "  ", " , ", '""', "\xa0,")
# plain, quoted, quoted with the delimiter inside, and non-ASCII header cells
_TICKER_FORMS = (("T{}", "T{}"), ('"T{}"', "T{}"), ('"T,{}"', "T,{}"), ("É{}", "É{}"))


@st.composite
def price_csvs(draw):
    """Small wide CSVs mixing valid prices with blank, padded, non-numeric,
    zero, negative and non-finite cells, quoted cells, quoted header tickers
    (some holding a comma), blank lines anywhere and LF or CRLF line ends.
    Returns the text, the parsed ticker names and a ``last`` date (or None)
    drawn from before the first row to after the last."""
    n_tickers = draw(st.integers(1, 5))
    n_rows = draw(st.integers(2, 7))
    price = st.floats(0.01, 1e4).map(repr)
    odd = st.one_of(price, st.sampled_from(_ODD_CELLS))
    quote = st.sampled_from(("{}", "{}", '"{}"'))  # a third of the cells quoted
    # a clean column holds plain prices only, so some tickers survive
    columns = [price if draw(st.booleans()) else odd for _ in range(n_tickers)]
    forms = [draw(st.sampled_from(_TICKER_FORMS)) for _ in range(n_tickers)]
    lines = ["date," + ",".join(cell.format(i) for i, (cell, _) in enumerate(forms))]
    for t in range(n_rows):
        day = (date(2024, 1, 1) + timedelta(days=t)).isoformat()
        lines.append(",".join([day, *(draw(quote).format(draw(col)) for col in columns)]))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_BLANK_LINES)))
    end = draw(st.sampled_from(("\n", "\r\n")))
    last = draw(st.none() | st.integers(-1, n_rows).map(
        lambda k: date(2024, 1, 1) + timedelta(days=k)))
    return end.join(lines) + end, [name.format(i) for i, (_, name) in enumerate(forms)], last


GOLDEN_PRICES = Path(__file__).resolve().parent / "data" / "golden_prices.csv"


@pytest.mark.parametrize("tickers", [None, ("A007", "A002", "BAD")], ids=["all", "subset"])
@pytest.mark.parametrize("last", [None, date(2015, 6, 30)], ids=["to_end", "to_last"])
def test_utf8_bom_is_ignored(tmp_path, tickers, last):
    """A UTF-8 byte order mark before the header (Excel's "CSV UTF-8") reads
    as the plain file does, bit for bit, dropped tickers included."""
    lines = GOLDEN_PRICES.read_text(encoding="utf-8").splitlines()
    cells = ["BAD"] + ["1.0"] * (len(lines) - 1)
    cells[50] = ""  # a blank cell drops BAD
    text = "".join(f"{line},{cell}\n" for line, cell in zip(lines, cells)).encode()
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text)
    bom.write_bytes(codecs.BOM_UTF8 + text)
    want, got = load_csv(plain, tickers, last), load_csv(bom, tickers, last)
    assert want.dropped == ("BAD",)
    assert got.dates == want.dates
    assert got.tickers == want.tickers
    assert got.dropped == want.dropped
    assert np.array_equal(got.prices, want.prices)


class TestRowsWiderThanTheReadBuffer:
    """Rows longer than ``load_csv``'s read buffer, so that every line is put
    together from more than one read."""

    N_COLS = _READ_BUFFER // 16  # about 19 bytes a cell

    def lines(self):
        rng = np.random.default_rng(600)
        prices = rng.uniform(1.0, 1000.0, (9, self.N_COLS))
        prices[4, 7] = np.nan  # a blank cell drops T0007
        header = ",".join(["date", *(f"T{c:04d}" for c in range(self.N_COLS))])
        rows = [",".join([f"2024-01-{t + 2:02d}",
                          *("" if math.isnan(p) else repr(p) for p in row)])
                for t, row in enumerate(prices.tolist())]
        return [header, "", *rows]  # a blank line: physical lines run ahead of rows

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_full_and_subset_reads_match_reference(self, tmp_path, end):
        lines = self.lines()
        assert self.N_COLS >= 600 and min(len(line) for line in lines[2:]) > _READ_BUFFER
        path = tmp_path / "prices.csv"
        path.write_bytes(end.join(lines).encode() + end.encode())
        names = [f"T{c:04d}" for c in range(self.N_COLS)]
        picks = [names[::-1], [names[-1], names[0]], [names[0]], names[-3:] + names[:3],
                 names[5:10][::-1]]
        for last in (None, date(2024, 1, 7)):
            ref = reference_load_csv(path, last)
            assert ref.dropped == ("T0007",) and len(ref.dates) == (9 if last is None else 6)
            full = load_csv(path, None, last)
            assert (full.dates, full.tickers, full.dropped) == (ref.dates, ref.tickers,
                                                               ref.dropped)
            assert np.array_equal(full.prices.view(np.uint64), ref.prices.view(np.uint64))
            column = {tk: i for i, tk in enumerate(ref.tickers)}
            for pick in picks:
                part = load_csv(path, pick, last)
                kept = [tk for tk in pick if tk in column]
                cols = [column[tk] for tk in kept]
                assert part.dates == ref.dates
                assert part.tickers == tuple(kept)
                assert part.dropped == tuple(tk for tk in pick if tk in ref.dropped)
                assert np.array_equal(part.prices.view(np.uint64),
                                      ref.prices[:, cols].view(np.uint64))

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("bad,what", [
        (lambda row: row[:row.rindex(",")], "has {} cells, expected {}"),
        (lambda row: "2024-02-30" + row[len("2024-01-05"):], "has a bad date: day is out"),
    ], ids=["cell_count", "date"])
    def test_errors_name_the_physical_line(self, tmp_path, end, bad, what):
        lines = self.lines()
        lines[6] = bad(lines[6])  # the fifth row, on line 7
        path = tmp_path / "prices.csv"
        path.write_bytes(end.join(lines).encode() + end.encode())
        message = "line 7 " + what.format(self.N_COLS, self.N_COLS + 1)
        for tickers in (None, ["T0000", f"T{self.N_COLS - 1:04d}"]):
            with pytest.raises(ValueError, match=rf"prices\.csv: {message}"):
                load_csv(path, tickers)


class TestLoadCsvMatchesReference:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(case=price_csvs(), data=st.data())
    def test_full_and_subset_parse_match_reference(self, case, data):
        text, header, last = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "prices.csv"
            path.write_bytes(text.encode("utf-8"))
            subset = data.draw(st.permutations(header).flatmap(
                lambda p: st.integers(1, len(p)).map(lambda k: p[:k])))
            try:
                ref = reference_load_csv(path, last)
            except ValueError as exc:
                for tickers in (None, subset):
                    with pytest.raises(ValueError) as got:
                        load_csv(path, tickers, last)
                    assert type(got.value) is type(exc)
                return
            full = load_csv(path, None, last)
            assert full.dates == ref.dates
            assert full.tickers == ref.tickers
            assert full.dropped == ref.dropped
            assert np.array_equal(full.prices, ref.prices)

            kept = [tk for tk in subset if tk in ref.tickers]
            if not kept:
                with pytest.raises(ValueError, match="no ticker"):
                    load_csv(path, subset, last)
                return
            part = load_csv(path, subset, last)
            assert part.dates == ref.dates
            assert part.tickers == tuple(kept)
            assert part.dropped == tuple(tk for tk in subset if tk in ref.dropped)
            cols = [ref.tickers.index(tk) for tk in kept]
            assert np.array_equal(part.prices, ref.prices[:, cols])


class TestPanelInvariants:
    def test_non_increasing_dates_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PricePanel(
                (date(2024, 1, 3), date(2024, 1, 2)),
                ("AAA",),
                [[100.0], [101.0]],
            )

    def test_non_positive_price_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            PricePanel(
                (date(2024, 1, 2), date(2024, 1, 3)),
                ("AAA",),
                [[100.0], [-1.0]],
            )

    def test_arrays_are_read_only(self):
        panel = synth_panel(seed=0, T=10, M=2)
        with pytest.raises(ValueError):
            panel.prices[0, 0] = 1.0

    def test_non_positive_gross_return_rejected(self):
        dates = (date(2024, 1, 2), date(2024, 1, 3))
        with pytest.raises(ValueError, match="positive"):
            ReturnPanel(dates, ("AAA",), [[1.01], [0.0]])


class TestDerivedLogReturns:
    """``log_returns`` is derived from ``gross_returns`` on first use."""

    def _panel(self):
        return to_returns(synth_panel(seed=21, T=301, M=37))  # odd sizes: SIMD tails

    def test_one_stored_matrix(self):
        assert [f.name for f in fields(ReturnPanel)] == ["dates", "tickers", "gross_returns"]

    def test_slices_equal_the_parent_slices(self):
        r = self._panel()
        np.testing.assert_array_equal(r.slice_rows(7, 250).log_returns, r.log_returns[7:250])
        cols = [30, 2, 17, 5, 36]
        sub = r.restrict([r.tickers[c] for c in cols])
        np.testing.assert_array_equal(sub.log_returns, r.log_returns[:, cols])
        train, test = split(r, SplitSpec(r.dates[199], r.dates[-1]))
        np.testing.assert_array_equal(train.log_returns, r.log_returns[:200])
        np.testing.assert_array_equal(test.log_returns, r.log_returns[200:])

    def test_read_only_and_kept(self):
        r = self._panel()
        logr = r.log_returns
        assert r.log_returns is logr
        with pytest.raises(ValueError):
            logr[0, 0] = 0.0
        with pytest.raises(FrozenInstanceError):
            r.log_returns = np.zeros_like(logr)


class TestToReturns:
    def test_hand_values(self):
        panel = PricePanel(
            (date(2024, 1, 2), date(2024, 1, 3)), ("AAA",), [[100.0], [101.0]]
        )
        r = to_returns(panel)
        assert r.gross_returns[0, 0] == pytest.approx(1.01, abs=1e-15)
        assert r.log_returns[0, 0] == pytest.approx(math.log(1.01), abs=1e-15)

    def test_constant_prices(self):
        panel = PricePanel(
            (date(2024, 1, 2), date(2024, 1, 3), date(2024, 1, 4)),
            ("AAA",),
            [[100.0], [100.0], [100.0]],
        )
        r = to_returns(panel)
        np.testing.assert_array_equal(r.gross_returns, np.ones((2, 1)))
        np.testing.assert_array_equal(r.log_returns, np.zeros((2, 1)))

    def test_halving(self):
        panel = PricePanel(
            (date(2024, 1, 2), date(2024, 1, 3)), ("AAA",), [[100.0], [50.0]]
        )
        r = to_returns(panel)
        assert r.gross_returns[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert r.log_returns[0, 0] == pytest.approx(math.log(0.5), abs=1e-15)

    def test_roundtrip_rebuilds_prices(self):
        panel = synth_panel(seed=5, T=200, M=7)
        r = to_returns(panel)
        rebuilt = panel.prices[0] * np.vstack(
            [np.ones(len(panel.tickers)), np.cumprod(r.gross_returns, axis=0)]
        )
        np.testing.assert_allclose(rebuilt, panel.prices, rtol=1e-10)


class TestSplit:
    def _panel(self, T=11):
        return to_returns(synth_panel(seed=9, T=T, M=2))

    def test_row_split(self):
        r = self._panel()  # 10 return rows
        spec = SplitSpec(r.dates[6], r.dates[-1])
        train, test = split(r, spec)
        assert train.n_days == 7
        assert test.n_days == 3
        assert train.dates + test.dates == r.dates

    def test_row_count_preserved(self):
        r = self._panel(T=30)
        spec = SplitSpec(r.dates[13], r.dates[-1])
        train, test = split(r, spec)
        assert train.n_days + test.n_days == r.n_days

    def test_empty_test(self):
        r = self._panel()
        with pytest.raises(ValueError, match="empty test"):
            split(r, SplitSpec(r.dates[-1], r.dates[-1].replace(year=2099)))

    def test_empty_train(self):
        r = self._panel()
        early = r.dates[0].replace(year=2000)
        with pytest.raises(ValueError, match="empty train"):
            split(r, SplitSpec(early, early.replace(year=2001)))

    def test_bad_spec(self):
        with pytest.raises(ValueError, match="precede"):
            SplitSpec(date(2024, 1, 5), date(2024, 1, 5))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(offsets=st.lists(st.integers(-5, 26), min_size=2, max_size=2, unique=True).map(sorted))
    def test_split_is_the_row_filter(self, offsets):
        # 15 rows over three weeks: boundaries fall on rows, on weekends,
        # before the first row and after the last
        r = self._panel(T=16)
        train_end, test_end = (r.dates[0] + timedelta(days=o) for o in offsets)
        train_rows = [i for i, d in enumerate(r.dates) if d <= train_end]
        test_rows = [i for i, d in enumerate(r.dates) if train_end < d <= test_end]
        spec = SplitSpec(train_end, test_end)
        if not train_rows:
            with pytest.raises(ValueError, match="empty train"):
                split(r, spec)
        elif not test_rows:
            with pytest.raises(ValueError, match="empty test"):
                split(r, spec)
        else:
            for part, rows in zip(split(r, spec), (train_rows, test_rows)):
                assert part.dates == tuple(r.dates[i] for i in rows)
                assert part.tickers == r.tickers
                assert np.array_equal(part.gross_returns, r.gross_returns[rows])


class TestSynthPanel:
    def test_deterministic(self):
        a = synth_panel(seed=42, T=100, M=3)
        b = synth_panel(seed=42, T=100, M=3)
        np.testing.assert_array_equal(a.prices, b.prices)
        assert a.dates == b.dates

    def test_uncorrelated_sample_correlation(self):
        panel = synth_panel(seed=1, T=50_000, M=2)
        r = to_returns(panel)
        rho = np.corrcoef(r.log_returns.T)[0, 1]
        assert abs(rho) < 0.02

    def test_target_correlation_recovered(self):
        corr = np.array([[1.0, 0.7], [0.7, 1.0]])
        panel = synth_panel(seed=2, T=50_000, M=2, target_corr=corr)
        r = to_returns(panel)
        rho = np.corrcoef(r.log_returns.T)[0, 1]
        assert abs(rho - 0.7) < 0.02

    def test_non_pd_correlation_rejected(self):
        corr = np.array([[1.0, 1.1], [1.1, 1.0]])  # eigenvalue -0.1
        with pytest.raises(ValueError, match="positive-definite"):
            synth_panel(seed=0, T=10, M=2, target_corr=corr)

    def test_asymmetric_correlation_rejected(self):
        corr = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            synth_panel(seed=0, T=10, M=2, target_corr=corr)

    @pytest.mark.parametrize("field,value", [
        ("ann_vol", np.nan), ("ann_vol", np.inf), ("ann_vol", -0.1), ("ann_vol", [0.2, np.nan]),
        ("ann_drift", np.nan), ("ann_drift", np.inf), ("ann_drift", [0.0, -np.inf]),
    ])
    def test_non_finite_vol_or_drift_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            synth_panel(seed=0, T=10, M=2, **{field: value})

    def test_weekday_dates(self):
        # every panel starts on Thursday 2015-01-01
        dates = synth_panel(seed=0, T=30, M=1).dates
        assert dates[0] == date(2015, 1, 1)
        assert all(d.weekday() < 5 for d in dates)
        # consecutive business days: none skipped
        assert all((b - a).days == (3 if a.weekday() == 4 else 1)
                   for a, b in zip(dates, dates[1:]))


_CORR = np.array([[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]])


def _bumped(matrix, by):
    out = matrix.copy()
    out[0, 1] += by
    return out


@pytest.mark.parametrize("call,base,sym_atol,not_square,what", [
    pytest.param(_qubo_matrix, _CORR, None, "Q must be square", "Q", id="_qubo_matrix"),
    pytest.param(lambda m: QuboProblem(m, 1.0, np.array([1, 2, 3]), np.zeros(3), {}),
                 _CORR, 1e-12, "q must be square", "q", id="QuboProblem"),
    pytest.param(lambda m: ShrunkCovariance(("A", "B", "C"), m, 0.1, 1.0),
                 _CORR, 1e-10, "sigma must be square", "sigma", id="ShrunkCovariance"),
    pytest.param(minvar, _CORR, 1e-10, "covariance must be square", "covariance", id="minvar"),
    pytest.param(lambda m: ward_cluster(m, 1), 1.0 - _CORR, 1e-10,
                 "distance matrix must be square", "distance matrix", id="ward_cluster"),
    pytest.param(lambda m: synth_panel(seed=0, T=5, M=3, target_corr=m),
                 _CORR, 1e-12, "target_corr must be 3x3", "target_corr", id="synth_panel"),
])
def test_square_matrix_callers_keep_their_tolerance(call, base, sym_atol, not_square, what):
    """Every caller of ``_square`` accepts an asymmetry below its own tolerance
    (any asymmetry where it checks none), rejects one above it, and rejects a
    non-square matrix, each with its own words."""
    call(base)
    call(_bumped(base, 0.5 * sym_atol if sym_atol else 1.0))
    if sym_atol:
        with pytest.raises(ValueError, match=f"{what} must be symmetric"):
            call(_bumped(base, 2.0 * sym_atol))
    with pytest.raises(ValueError, match=not_square):
        call(base[:2])


def _angular(corr):
    return np.sqrt((1.0 - corr) / 2.0)


@pytest.mark.parametrize("admit,sym_atol,derive", [
    pytest.param(_qubo_matrix, None, lambda s: s, id="_qubo_matrix"),
    pytest.param(lambda m: QuboProblem(m, 1.0, np.array([1, 2, 3]), np.zeros(3), {}).q,
                 1e-12, lambda s: s, id="QuboProblem.q"),
    pytest.param(lambda m: ShrunkCovariance(("A", "B", "C"), m, 0.1, 1.0).sigma,
                 1e-10, lambda s: s, id="ShrunkCovariance.sigma"),
    pytest.param(lambda m: ShrunkCovariance(("A", "B", "C"), m, 0.1, 1.0).corr,
                 1e-10, lambda s: s, id="ShrunkCovariance.corr"),
    pytest.param(lambda m: ShrunkCovariance(("A", "B", "C"), m, 0.1, 1.0).dist,
                 1e-10, _angular, id="ShrunkCovariance.dist"),
])
def test_admitted_matrix_is_its_exact_symmetric_part(admit, sym_atol, derive):
    """A matrix bumped within its caller's tolerance (any bump where it checks
    none) is admitted as its symmetric part ``(m + m.T) / 2``, exactly: one
    owner symmetrises, so no stage sees or re-averages the asymmetry."""
    bumped = _bumped(_CORR, 0.5 * sym_atol if sym_atol else 1.0)
    got = admit(bumped)
    assert np.array_equal(got, got.T)
    assert np.array_equal(got, derive((bumped + bumped.T) / 2))


_GOLDEN_PRICES = str(Path(__file__).resolve().parent / "data" / "golden_prices.csv")
_RUN = RunConfig(_GOLDEN_PRICES, date(2015, 6, 30), date(2015, 12, 31))
_COUNT_PANEL = to_returns(synth_panel(seed=8, T=61, M=3))
_COUNT_QAOA = [QaoaConfig(depth=1, restarts=2, opt_shots=64, eval_shots=64, max_iters=36)]

# every count the package takes, by row: the call that checks it, the least
# value it admits and, where the row is not named after it, the field name
COUNTS = {
    "periodic interval": (Periodic, 1),  # Periodic.every, as a config file names it
    "population": (lambda v: GaConfig(population=v), 2),
    "generations": (lambda v: GaConfig(generations=v), 1),
    **{field: (lambda v, field=field: QaoaConfig(**{"restarts": 72, field: v}), 1)
       for field in ("depth", "restarts", "opt_shots", "eval_shots", "max_iters")},
    "seed": (lambda v: replace(_RUN, seed=v), 0),
    "GaConfig seed": (lambda v: GaConfig(seed=v), 0, "seed"),
    "QaoaConfig seed": (lambda v: QaoaConfig(seed=v), 0, "seed"),
    "n_clusters": (lambda v: replace(_RUN, n_clusters=v), 2),
    "windows": (lambda v: replace(_RUN, windows=v), 1),
    "candidates_per_window": (lambda v: replace(_RUN, candidates_per_window=v), 1),
    "shots": (lambda v: sample(np.array([0.6, 0.8]), v, 0), 1),
    "k_windows": (lambda v: walk_forward(
        _COUNT_PANEL, [equal_weights(_COUNT_PANEL.tickers)], v, 4, _COUNT_QAOA), 1),
    "w_count": (lambda v: walk_forward(
        _COUNT_PANEL, [equal_weights(_COUNT_PANEL.tickers)], 1, v, _COUNT_QAOA), 1),
    "w": (lambda v: candidate_dates(20, v), 1),
    "window_len": (lambda v: candidate_dates(v, 1), 4),
    "days": (lambda v: Periodic(5).due(v), 1),
    "n": (lambda v: ward_cluster(1.0 - _CORR, v), 1),
    "T": (lambda v: synth_panel(seed=0, T=v, M=2), 2),
    "M": (lambda v: synth_panel(seed=0, T=5, M=v), 1),
    "synth_panel seed": (lambda v: synth_panel(seed=v, T=5, M=2), 0, "seed"),
}


@pytest.mark.parametrize("row", COUNTS)
def test_each_count_is_a_whole_number_of_at_least_its_least(row):
    """Every count goes through ``_check_count``: a fraction, a whole float, a
    bool, a string or one below the least raises naming the field, where an
    ``int`` cast would have truncated it or numpy failed on it later."""
    call, least, *named = COUNTS[row]
    field = named[0] if named else row
    for value in (2.5, 2.0, True, np.True_, "5", least - 1):
        with pytest.raises(ValueError, match=f"^{field} must be a whole number >= {least}, not"):
            call(value)
    call(np.int64(least))


_EQUAL_RUN = Strategy(equal_weights(_COUNT_PANEL.tickers), Periodic(5))

# every real setting the package takes, by row: the call that checks it, the
# closed range [least, most] it admits, the ints the call admits and, where
# the row is not named after it, the field name
REALS = {
    **{name: (lambda v, name=name: QuboParams(**{name: v}), -math.inf, math.inf, (2,))
       for name in ("lambda1", "lambda2", "lambda3")},
    "QuboParams cost_c": (lambda v: QuboParams(cost_c=v), 0.0, math.inf, (0,), "cost_c"),
    "run cost_c": (lambda v: run(_COUNT_PANEL, _EQUAL_RUN, v), 0.0, math.inf, (0,), "cost_c"),
    "gene_low": (lambda v: GaConfig(gene_low=v, gene_high=2.0), -math.inf, math.inf, (1,)),
    "gene_high": (lambda v: GaConfig(gene_high=v), -math.inf, math.inf, (2,)),
    "lambda_ent": (lambda v: GaConfig(lambda_ent=v), -math.inf, math.inf, (0,)),
    "mutation_rate": (lambda v: GaConfig(mutation_rate=v), 0.0, 1.0, (0, 1)),
    # the open rule 0 < fraction < 1 admits no int
    "threshold fraction": (Threshold, -math.inf, math.inf, ()),
    "alpha": (lambda v: ShrunkCovariance(("A", "B"), np.eye(2), v, 1.0), 0.0, 1.0, (0, 1)),
    "mu_target": (lambda v: ShrunkCovariance(("A", "B"), np.eye(2), 0.5, v),
                  -math.inf, math.inf, (1,)),
}


@pytest.mark.parametrize("row", REALS)
def test_each_real_is_a_finite_number_in_its_range(row):
    """Every real setting goes through ``_check_real``: a bool, a string,
    ``None``, a non-finite value or one just outside its range raises naming
    the field, where a comparison would have admitted it or raised a bare
    ``TypeError``; a numpy float and an ``int`` in range are admitted."""
    call, least, most, ints, *named = REALS[row]
    field = named[0] if named else row
    outside = [np.nextafter(bound, away)
               for bound, away in ((least, -math.inf), (most, math.inf)) if math.isfinite(bound)]
    for value in (True, np.True_, "0.5", None, math.nan, math.inf, -math.inf, *outside):
        with pytest.raises(ValueError, match=rf"^{field} must be a finite number in "
                                             rf"\[{least:g}, {most:g}\], not"):
            call(value)
    for value in (np.float64(0.05), *ints):
        call(value)


_AB_DATES = (date(2024, 1, 2), date(2024, 1, 3))
_AB_RETURNS = ReturnPanel(_AB_DATES, ("A", "B"), np.ones((2, 2)))
_AB_COV = ShrunkCovariance(("A", "B"), np.diag([1.0, 4.0]), 0.0, 1.0)


def _read_tickers(name: str, blob: dict):
    """A call that writes ``blob`` with the given tickers as the artifact
    ``name`` and reads it back through the artifact schema."""
    def read(tickers):
        with tempfile.TemporaryDirectory() as out:
            Path(out, name).write_text(json.dumps({**blob, "tickers": tickers}))
            return _read_artifact(replace(_RUN, out_dir=out), name)
    return read


def _width(tickers) -> int:
    """The columns a holder is given for ``tickers``: one per name, or 1
    for a value with no length."""
    return len(tickers) if hasattr(tickers, "__len__") else 1


def _uniform(tickers):
    return np.ones(_width(tickers)) / max(_width(tickers), 1)


# ``_ticker_names``' message, with the field it names
_TICKER_RULE = r"^tickers (must be one or more non-blank strings, not|name .+ more than once)"
_TICKER_KEY = r"malformed artifact, tickers: "

# every holder of a ticker list: the call that builds one from a list, and
# what its refusal says
TICKER_HOLDERS = {
    "PricePanel": (lambda v: PricePanel(_AB_DATES, v, np.ones((2, _width(v)))), _TICKER_RULE),
    "ReturnPanel": (lambda v: ReturnPanel(_AB_DATES, v, np.ones((2, _width(v)))), _TICKER_RULE),
    "WeightVector": (lambda v: WeightVector(v, _uniform(v), "Equal"), _TICKER_RULE),
    "ShrunkCovariance": (lambda v: ShrunkCovariance(v, np.eye(_width(v)), 0.0, 1.0),
                         _TICKER_RULE),
    "equal_weights": (equal_weights, _TICKER_RULE),
    "ReturnPanel.restrict": (_AB_RETURNS.restrict, _TICKER_RULE),
    "ShrunkCovariance.restrict": (_AB_COV.restrict, _TICKER_RULE),
    "selection.json": (_read_tickers("selection.json", {
        "per_cluster_sharpe": [], "labels": {}, "shrinkage_alpha": 0.5,
        "shrinkage_mu_target": 1.0, "dropped_tickers": []}), _TICKER_KEY),
    "weights_ga.json": (_read_tickers("weights_ga.json", {
        "method": "GA", "weights": [0.5, 0.5], "train_sharpe": 0.0}), _TICKER_KEY),
}


@pytest.mark.parametrize("bad", ["AB", (), ("",), ("  ",), ("A", "A"), (5,), 5, None], ids=repr)
@pytest.mark.parametrize("holder", TICKER_HOLDERS)
def test_every_ticker_holder_refuses_a_bad_list_by_name(holder, bad):
    """Every ticker list goes through ``_ticker_names``: a lone string (not
    split into its characters), no names, a blank name, a name twice, a
    name that is no string or a value that is no list raises naming the
    field, and ``("A", "B")`` is admitted."""
    call, refusal = TICKER_HOLDERS[holder]
    with pytest.raises(ValueError, match=refusal):
        call(bad)
    call(("A", "B"))


@pytest.mark.parametrize("bad,refusal", [
    ("AB", "^dropped must be one or more"), (("",), "^dropped must be one or more"),
    ((5,), "^dropped must be one or more"), (5, "^dropped must be one or more"),
    (None, "^dropped must be one or more"), (("C", "C"), "^dropped name C more than once"),
    (("C", "A"), "^tickers and dropped name A more than once"),
], ids=repr)
def test_dropped_is_a_ticker_list_apart_from_the_kept_ones(bad, refusal):
    """A panel's ``dropped`` is empty or a ticker list (``_ticker_names``)
    that names no kept ticker; the error names ``dropped``."""
    with pytest.raises(ValueError, match=refusal):
        PricePanel(_AB_DATES, ("A", "B"), np.ones((2, 2)), dropped=bad)
    for ok, held in (((), ()), ([], ()), (np.array([]), ()), (["C"], ("C",)),
                     (np.array(["C"]), ("C",))):
        assert PricePanel(_AB_DATES, ("A", "B"), np.ones((2, 2)), dropped=ok).dropped == held
