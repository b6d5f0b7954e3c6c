"""Price and return panels: CSV ingestion, return math, train/test splits,
and a seeded synthetic panel generator.

All panel types are immutable after construction (their arrays are marked
read-only), so they can be shared freely across threads. A panel stores one
matrix; what derives from it (``ReturnPanel.log_returns``) is computed once,
on first use, and is read-only as well. Every operation in this module is a
pure function of its arguments.

The helpers below own that rule for every value type of the package. Each
stored array is a read-only, row-major copy made by ``_frozen_array``, so no
result depends on the layout of the caller's array or on how a panel was cut
(the last digits of a BLAS product do). ``_frozen_integers`` checks that an
integer array holds whole numbers, and a bit vector (``BitSchedule``,
``Explicit``) only 0 and 1 in 1-D, before its cast. ``_read_only`` is the one
place that marks an array read-only. ``_square`` admits every square matrix
as its exact symmetric part, so no stage symmetrises one again. Every count
(shots, windows, clusters, days) is checked by ``_check_count``.

This module owns the CSV format, and every CSV file is UTF-8 whatever the
locale: ``load_csv`` reads price files, labelled matrices (the price CSV,
``select``'s ``correlation.csv``) have one writer, ``_write_labelled_csv``,
and every other table (``metrics.csv``, ``curves.csv``, the measurement
histograms) has one writer, ``_write_rows``. No other module imports
``csv``.
"""
from __future__ import annotations

import codecs
import csv
import io
import logging
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from datetime import date
from functools import cached_property
from itertools import chain

import numpy as np

log = logging.getLogger(__name__)

TRADING_DAYS_PER_YEAR = 252
ANNUALISATION = math.sqrt(TRADING_DAYS_PER_YEAR)


# a series whose sample std is at most this fraction of its |mean| is flat:
# a constant series of a value that is not a binary fraction (0.002) keeps a
# std of a few ulps of its mean, not 0
_FLAT_RTOL = 1e-9


def _flat(sd, mean):
    """Whether each series with sample standard deviation ``sd`` and mean
    ``mean`` is constant up to rounding. The one flatness test of the
    package."""
    return sd <= _FLAT_RTOL * np.abs(mean)


def _read_only(out: np.ndarray) -> np.ndarray:
    out.flags.writeable = False
    return out


def _frozen_array(values, dtype=float) -> np.ndarray:
    return _read_only(np.array(values, dtype=dtype, order="C"))


def _frozen_integers(values, what: str, bits: bool = False) -> np.ndarray:
    """A read-only ``int`` copy of ``values``, or ``uint8`` of a 1-D 0/1 vector
    for ``bits``, checked before the cast truncates; ``what`` names the field."""
    ints = np.asarray(values)
    if bits and (ints.ndim != 1 or not np.all((ints == 0) | (ints == 1))):
        raise ValueError(f"{what} must be a 0/1 vector")
    if ints.dtype.kind not in "biu" and not np.all(np.isfinite(ints) & (ints == np.round(ints))):
        raise ValueError(f"{what} must be whole numbers")
    return _frozen_array(ints, np.uint8 if bits else int)


def _frozen_bits(values) -> np.ndarray:
    return _frozen_integers(values, "bits", bits=True)


def _square(values, what: str, sym_atol: float | None = None) -> np.ndarray:
    """``values`` as a float matrix m, checked square (and symmetric within
    ``sym_atol``, if given), returned as its symmetric part ``(m + m') / 2``:
    no entry moves by more than ``sym_atol / 2`` and x' m x is unchanged. The
    one such check, and the one average of a matrix with its transpose."""
    mat = np.atleast_2d(np.asarray(values, dtype=float))
    if mat.shape != (len(mat), len(mat)):
        raise ValueError(f"{what} must be square")
    if sym_atol is not None and not np.allclose(mat, mat.T, rtol=0.0, atol=sym_atol):
        raise ValueError(f"{what} must be symmetric")
    return (mat + mat.T) / 2.0


def _check_cost(cost_c) -> None:
    """Raise unless the trade cost ``cost_c`` is finite and >= 0 (a negative
    one credits every trade). The one such check of the package."""
    if not 0.0 <= cost_c < math.inf:
        raise ValueError(f"cost_c must be >= 0 and finite, got {cost_c!r}")


def _check_count(value, what: str, least: int = 1) -> None:
    """Raise, naming ``what``, unless ``value`` is a whole number (an ``int``
    or numpy integer, not a bool) of at least ``least``. The one such check."""
    if type(value) in (bool, np.bool_) or not hasattr(value, "__index__") or value < least:
        raise ValueError(f"{what} must be a whole number >= {least}, not {value!r}")


def _positions(tickers, wanted) -> list[int]:
    """The index in ``tickers`` of each of ``wanted``, in the order given."""
    index = {t: i for i, t in enumerate(tickers)}
    missing = [t for t in wanted if t not in index]
    if missing:
        raise ValueError(f"unknown tickers: {', '.join(missing)}")
    return [index[t] for t in wanted]


def _check_panel(panel, values, what: str) -> np.ndarray:
    """The checks ``PricePanel`` and ``ReturnPanel`` share. Normalises the
    panel's dates and tickers to tuples, then returns ``values`` as a 2-D float
    array (a view if it already is one) whose shape matches them, with distinct
    tickers, strictly increasing dates and every entry finite and positive."""
    object.__setattr__(panel, "dates", tuple(panel.dates))
    object.__setattr__(panel, "tickers", tuple(str(t) for t in panel.tickers))
    values = np.atleast_2d(np.asarray(values, dtype=float))
    t, m = values.shape
    if len(panel.dates) != t:
        raise ValueError(f"{len(panel.dates)} dates for {t} rows of {what}")
    if len(panel.tickers) != m:
        raise ValueError(f"{len(panel.tickers)} tickers for {m} columns of {what}")
    if len(set(panel.tickers)) != m:
        raise ValueError("duplicate tickers in panel")
    if any(b <= a for a, b in zip(panel.dates, panel.dates[1:])):
        raise ValueError("dates must be strictly increasing")
    if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
        raise ValueError(f"{what} must be finite and strictly positive")
    return values


@dataclass(frozen=True, eq=False)
class PricePanel:
    """Daily adjusted close prices for a fixed asset universe.

    ``prices[t, i]`` is the price of ``tickers[i]`` on ``dates[t]``. No gaps:
    ingestion drops incomplete tickers before a panel is built. ``dropped``
    records tickers removed by :func:`load_csv`.
    """

    dates: tuple[date, ...]
    tickers: tuple[str, ...]
    prices: np.ndarray
    dropped: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "dropped", tuple(self.dropped))
        prices = _check_panel(self, self.prices, "prices")
        t, m = prices.shape
        if t < 2:
            raise ValueError("price panel needs at least 2 rows")
        if m < 1:
            raise ValueError("price panel needs at least 1 ticker")
        object.__setattr__(self, "prices", _frozen_array(prices))

    @property
    def n_days(self) -> int:
        return len(self.dates)


@dataclass(frozen=True, eq=False)
class ReturnPanel:
    """Daily gross returns derived from a price panel.

    Row ``t`` holds the return accruing on ``dates[t]`` (one row fewer than
    the source price panel). ``log_returns`` is ``ln(gross_returns)``,
    computed on first use and then kept, read-only like ``gross_returns``.
    """

    dates: tuple[date, ...]
    tickers: tuple[str, ...]
    gross_returns: np.ndarray

    def __post_init__(self) -> None:
        gross = _check_panel(self, self.gross_returns, "gross returns")
        object.__setattr__(self, "gross_returns", _frozen_array(gross))

    @cached_property
    def log_returns(self) -> np.ndarray:
        return _read_only(np.log(self.gross_returns))

    @property
    def n_days(self) -> int:
        return len(self.dates)

    @property
    def n_assets(self) -> int:
        return len(self.tickers)

    def slice_rows(self, start: int, stop: int) -> "ReturnPanel":
        """Contiguous row slice ``[start, stop)`` as a new panel."""
        if not 0 <= start < stop <= self.n_days:
            raise ValueError(f"bad row slice [{start}, {stop}) for {self.n_days} rows")
        return ReturnPanel(self.dates[start:stop], self.tickers, self.gross_returns[start:stop])

    def restrict(self, tickers) -> "ReturnPanel":
        """Column subset, in the order given."""
        cols = _positions(self.tickers, tickers)
        return ReturnPanel(self.dates, tuple(tickers), self.gross_returns[:, cols])


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/test boundary dates (both inclusive ends)."""

    train_end: date
    test_end: date

    def __post_init__(self) -> None:
        if self.train_end >= self.test_end:
            raise ValueError("train_end must precede test_end")


def _cell_float(cell: bytes | str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan  # blank or unparseable cell == gap: the ticker is dropped


# the read buffer of ``load_csv``: it holds several 500-ticker rows (about
# 9 KB each), where the default 8 KB buffer put every such row together from
# two reads; larger buffers read no faster
_READ_BUFFER = 1 << 16

# what ``str.strip`` removes from an ASCII line, plus the delimiter: a line of
# only these bytes holds no non-blank cell
_BLANK = b", \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"


def _lines(fh, path):
    """``(line number, line)`` for each physical line of the binary file
    ``fh``, less a UTF-8 BOM at the start of line 1. A carriage return may
    only end a line: bare ``\\r`` line ends are an error, not one long line."""
    for n, line in enumerate(fh, start=1):
        if n == 1 and line.startswith(codecs.BOM_UTF8):
            line = line[len(codecs.BOM_UTF8):]
        cr = line.find(b"\r")
        if cr >= 0 and line[cr:] not in (b"\r\n", b"\r"):
            raise ValueError(f"{path}: line {n} has a carriage return inside it; "
                             "line ends must be \\n or \\r\\n")
        yield n, line


def _csv_row(line: bytes, lines) -> tuple[list[str], int]:
    """The cells ``csv.reader`` reads from the UTF-8 ``line``, and how many
    more lines it took from ``lines`` (a quoted cell may span lines)."""
    more = (nxt.decode("utf-8") for _, nxt in lines)
    reader = csv.reader(chain([line.decode("utf-8")], more))
    return next(reader, []), reader.line_num - 1


def load_csv(path, tickers=None, last=None) -> PricePanel:
    """Read a wide price CSV: first column ``date`` (ISO-8601, strictly
    increasing down the file), one column per ticker named in the header
    (a blank name is an error), numeric cells or blank. The file is UTF-8
    and its lines end in ``\\n`` or ``\\r\\n``; a carriage return anywhere
    else is an error that names the file and line. Lines whose cells are all
    blank are skipped.

    Tickers with any blank, unparseable, or non-positive cell are dropped and
    reported (warning log plus the panel's ``dropped`` field).

    ``tickers``, if given, names the columns to read, in the order wanted. A
    name the header lacks is an error, as is a header that names one ticker
    twice.

    ``last``, if given, is the last date kept. Later rows decide nothing: not
    the prices, and not which tickers are complete. They are still checked,
    so a file that one stage reads is a file that every stage reads.

    The file is streamed as bytes in one pass, one line at a time, through a
    buffer that holds several 500-ticker rows. Every row's cells are counted
    (its commas) and its date (the bytes before the first comma) is checked,
    and must follow the previous row's, then a row after ``last`` is passed
    over. When ``tickers`` is None, a kept row is split once at every comma.
    Otherwise one numpy scan of each row, with a comma appended, finds where
    each cell ends: that gives the row's cell count and the byte bounds of
    each wanted cell, and a kept row is cut at those bounds alone. ``float``
    reads the cells as bytes. The
    header, and any row holding a ``"`` or a non-ASCII byte, is decoded and
    read by ``csv.reader`` for that row alone, so quoted cells parse as in
    any CSV. Errors name the physical line.
    """
    with open(path, "rb", buffering=_READ_BUFFER) as fh:
        lines = _lines(fh, path)
        for _, line in lines:
            header = [c.strip() for c in _csv_row(line, lines)[0]]
            if any(header):
                break
        else:
            raise ValueError(f"{path}: empty file")
        if header[0].lower() != "date":
            raise ValueError(f"{path}: first column must be 'date'")
        columns = {}
        for col, tk in enumerate(header[1:], start=1):
            if not tk:
                raise ValueError(f"{path}: header column {col + 1} has no ticker name")
            if tk in columns:
                raise ValueError(f"{path}: duplicate ticker column {tk!r}")
            columns[tk] = col
        if not columns:
            raise ValueError(f"{path}: no ticker columns")
        if tickers is None:
            tickers = header[1:]
            pick = None
        else:
            tickers = list(tickers)
            unknown = [tk for tk in tickers if tk not in columns]
            if unknown:
                raise ValueError(f"{path}: unknown tickers: {', '.join(unknown)}")
            pick = [columns[tk] for tk in tickers]
            wanted = np.array(pick, dtype=np.intp)
            before = wanted - 1

        dates: list[date] = []
        values = array("d")
        prev = None  # the previous data row's date, kept or not
        for lineno, line in lines:
            if b'"' in line or not line.isascii():
                row, spanned = _csv_row(line, lines)
                lineno += spanned
                if not any(c.strip() for c in row):
                    continue
                n_cells = len(row)
            elif not line.strip(_BLANK):
                continue
            elif pick is None:
                row = None  # split only if the row is kept
                n_cells = line.count(b",") + 1
            else:
                row = None  # one scan finds where every cell ends; cut only if kept
                ends = (np.frombuffer(line + b",", np.uint8) == ord(",")).nonzero()[0]
                n_cells = ends.size
            if n_cells != len(header):
                raise ValueError(
                    f"{path}: line {lineno} has {n_cells} cells, expected {len(header)}"
                )
            head = line[:line.index(b",")].decode() if row is None else row[0]
            try:
                day = date.fromisoformat(head.strip())
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno} has a bad date: {exc}") from None
            if prev is not None and day <= prev:
                raise ValueError(f"{path}: line {lineno} has date {day}, not after the previous "
                                 f"row's {prev}: dates must be strictly increasing")
            prev = day
            if last is not None and day > last:
                continue
            dates.append(day)
            if row is not None:
                cells = row[1:] if pick is None else [row[c] for c in pick]
            elif pick is None:
                cells = line.split(b",")[1:]
            else:  # cell c is line[ends[c - 1] + 1:ends[c]]
                cells = [line[a + 1:b] for a, b in zip(ends[before].tolist(),
                                                        ends[wanted].tolist())]
            try:
                # the list is built first, so a row that raises appends nothing
                values.extend(list(map(float, cells)))
            except ValueError:
                values.extend(map(_cell_float, cells))
    if len(dates) < 2:
        through = "" if last is None else f" on or before {last}"
        raise ValueError(f"{path}: need at least 2 data rows{through}")

    raw = np.frombuffer(values, dtype=float).reshape(len(dates), len(tickers))
    complete = np.all(np.isfinite(raw) & (raw > 0.0), axis=0)
    dropped = tuple(tk for tk, ok in zip(tickers, complete) if not ok)
    if dropped:
        log.warning(
            "%s: dropped %d ticker(s) with missing or non-positive cells: %s",
            path, len(dropped), ", ".join(dropped),
        )
    if not np.any(complete):
        raise ValueError(f"{path}: no ticker has a complete positive price history")
    keep = tuple(tk for tk, ok in zip(tickers, complete) if ok)
    return PricePanel(tuple(dates), keep, raw[:, complete], dropped=dropped)


def _csv_cell(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one of several cells in a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([text, ""])
    return buf.getvalue()[:-1]


def _cells(values) -> str:
    """The float array ``values`` as comma-separated ``repr(float)`` cells,
    formatted by one ``repr`` of its list. No number ever needs quoting."""
    return repr(values.tolist())[1:-1].replace(", ", ",")


# columns per block of ``_mirrored_rows``, which holds this many split cells
# of every row above the block: on a 500-ticker matrix 32 wrote as fast as 64
# or 128, with half the cells held
_MIRROR_BLOCK = 32


def _mirrored_rows(matrix):
    """``_cells(row)`` for each row of the bitwise symmetric ``matrix``, with
    each number formatted once: row i formats its cells from the diagonal on,
    one ``repr`` per block of columns, and takes each cell left of the
    diagonal from the row above that formatted it. Per block of columns, each
    row's text in the block is split once and ``zip`` turns the cells above
    the block's rows into those rows' left parts."""
    m = len(matrix)
    blocks = [(lo, min(lo + _MIRROR_BLOCK, m)) for lo in range(0, m, _MIRROR_BLOCK)]
    texts = []  # texts[i][b]: row i's cells in block b from column max(lo, i) on, or None
    for b, (lo, hi) in enumerate(blocks):
        for i in range(lo, hi):
            texts.append([_cells(matrix[i, max(start, i):stop]) if stop > i else None
                          for start, stop in blocks])
        cells = [texts[j][b].split(",") for j in range(hi)]
        above = zip(*cells[:lo]) if lo else [()] * (hi - lo)
        for i, left in zip(range(lo, hi), above):
            inside = [cells[j][i - j] for j in range(lo, i)]
            yield ",".join(chain(left, inside, texts[i][b:]))


def _write_labelled_csv(path, corner: str, columns, labels, matrix) -> None:
    """Write, in UTF-8, the bytes ``csv.writer`` gives for the row
    ``[corner, *columns]`` and then one row ``[label, *map(repr, row)]`` per
    label and row of the float ``matrix``. The one writer of labelled
    matrices: a bitwise symmetric matrix (``correlation.csv``) formats only
    its upper triangle (:func:`_mirrored_rows`); any other formats each row
    with ``_cells``. Bitwise, because -0.0 equals 0.0 but prints otherwise."""
    bits = matrix.view(np.uint64)
    rows = _mirrored_rows(matrix) if np.array_equal(bits, bits.T) else map(_cells, matrix)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([corner, *columns])
        for label, cells in zip(labels, rows):
            fh.write(f"{_csv_cell(label)},{cells}\r\n")


def _write_rows(path, header, rows) -> None:
    """Write, in UTF-8, ``header`` and then each of ``rows`` through
    ``csv.writer``: the one writer of every table but a labelled matrix. A
    ``None`` cell is written empty and a float as its ``repr``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_csv(panel: PricePanel, path) -> None:
    """Write a panel in the wide CSV format accepted by :func:`load_csv`."""
    _write_labelled_csv(path, "date", panel.tickers,
                        [d.isoformat() for d in panel.dates], panel.prices)


def to_returns(panel: PricePanel) -> ReturnPanel:
    """Daily gross ratios ``P[t+1]/P[t]``."""
    return ReturnPanel(panel.dates[1:], panel.tickers, panel.prices[1:] / panel.prices[:-1])


def split(panel: ReturnPanel, spec: SplitSpec) -> tuple[ReturnPanel, ReturnPanel]:
    """Chronological split: train rows have date <= train_end, test rows fall
    in (train_end, test_end]."""
    # the dates strictly increase, so each side is one contiguous run of rows
    n_train = bisect_right(panel.dates, spec.train_end)
    n_test_end = bisect_right(panel.dates, spec.test_end)
    if n_train == 0:
        raise ValueError(f"empty train: no rows on or before {spec.train_end}")
    if n_test_end == n_train:
        raise ValueError(f"empty test: no rows in ({spec.train_end}, {spec.test_end}]")
    return panel.slice_rows(0, n_train), panel.slice_rows(n_train, n_test_end)


_SYNTH_START = date(2015, 1, 1)  # a synthetic panel's first day, a weekday
_SYNTH_START_PRICE = 100.0  # every synthetic asset's price on that day


def synth_panel(
    seed: int,
    T: int,
    M: int,
    target_corr=None,
    ann_vol=0.20,
    ann_drift=0.05,
) -> PricePanel:
    """Seeded geometric-Brownian-style price panel with a target return
    correlation, over ``T`` weekdays from 2015-01-01, every price starting at
    100.

    Daily log returns are correlated Gaussians (Cholesky factor of
    ``target_corr``) scaled to the requested annualised vol and drift under a
    252-day year; the sample correlation converges to the target as ``T``
    grows. Pure function of its arguments: the same call is bit-identical.

    ``target_corr`` defaults to the identity; ``ann_vol``/``ann_drift``
    broadcast to per-asset vectors. The tickers are ``A000``, ``A001``, ...
    """
    _check_count(T, "T", least=2)
    _check_count(M, "M")
    corr = np.eye(M) if target_corr is None else np.asarray(target_corr, dtype=float)
    if corr.shape != (M, M):
        raise ValueError(f"target_corr must be {M}x{M}")
    _square(corr, "target_corr", sym_atol=1e-12)
    if not np.allclose(np.diag(corr), 1.0, rtol=0.0, atol=1e-12):
        raise ValueError("target_corr must have a unit diagonal")
    try:
        chol = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        raise ValueError("target_corr must be positive-definite") from None

    vol = np.broadcast_to(np.asarray(ann_vol, dtype=float), (M,)) / ANNUALISATION
    drift = np.broadcast_to(np.asarray(ann_drift, dtype=float), (M,)) / TRADING_DAYS_PER_YEAR
    if np.any(vol < 0):
        raise ValueError("ann_vol must be non-negative")

    rng = np.random.default_rng(seed)
    shocks = rng.standard_normal((T - 1, M))
    log_r = drift + (shocks @ chol.T) * vol
    log_price = np.vstack([np.zeros(M), np.cumsum(log_r, axis=0)])
    prices = _SYNTH_START_PRICE * np.exp(log_price)

    tickers = tuple(f"A{i:03d}" for i in range(M))
    dates = np.busday_offset(_SYNTH_START, np.arange(T), roll="forward").tolist()
    return PricePanel(tuple(dates), tickers, prices)
