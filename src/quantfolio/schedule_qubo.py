"""Rebalancing-schedule QUBO: the candidate dates (one read-only array of row
offsets per window) and the one window-length rule, L >= 2W + 2, that they
need; the cost matrix, whose builder alone computes the marginal Sharpe gains
net of cost; and an exhaustive classical solver.

``_table`` is the one builder of a 2^W energy table, for 0/1 variables
(``enumerate_energies``, x' Q x) and for +-1 spins (the Ising phase table of
``qaoa.simulate_ansatz``) alike.

Bit-order convention used throughout the package: bit ``k`` of a schedule maps
to candidate date ``t_k``; rendered bitstrings list bit 0 leftmost, so a
bitstring's integer value is ``sum(b_k * 2^(W-1-k))`` and enumeration by value
matches enumeration by rendered string.
"""
from __future__ import annotations

from contextlib import suppress
from dataclasses import asdict, dataclass

import numpy as np

from .allocation import _weight_array, portfolio_log_returns
from .clustering import ZeroVolatilityError, annualised_sharpe
from .market_data import (ANNUALISATION, ReturnPanel, _check_count, _check_real, _frozen_array,
                          _frozen_bits, _frozen_integers, _square)

MAX_WIDTH = 24  # largest W of any 2^W energy table or statevector: memory guard


def _check_width(w: int, what: str = "W") -> None:
    """Raise unless a ``2**w`` table fits the memory guard; the one such check."""
    if w > MAX_WIDTH:
        raise ValueError(f"{what} = {w} exceeds the 2^W memory guard ({MAX_WIDTH})")


@dataclass(frozen=True)
class QuboParams:
    """Penalty weights of the schedule objective and the per-unit trade cost."""

    lambda1: float = 1.0
    lambda2: float = 0.5
    lambda3: float = 0.3
    cost_c: float = 0.001

    def __post_init__(self) -> None:
        for name in ("lambda1", "lambda2", "lambda3"):
            _check_real(getattr(self, name), name)
        _check_real(self.cost_c, "cost_c", least=0.0)  # a negative cost credits every trade


@dataclass(frozen=True, eq=False)
class QuboProblem:
    """Normalised symmetric cost matrix with its provenance.

    ``q`` has max |entry| = 1 unless the raw matrix was all zeros;
    ``raw_max_abs`` is the divisor, so ``q * raw_max_abs`` recovers the raw
    matrix. ``params`` records lambda1/2/3, cost_c, n_assets and delta_t.
    """

    q: np.ndarray
    raw_max_abs: float
    candidates: np.ndarray  # row offsets t_k of the candidate dates in the window
    gains: np.ndarray
    params: dict

    def __post_init__(self) -> None:
        q = _square(self.q, "q", sym_atol=1e-12)
        w = len(q)
        candidates = _frozen_integers(self.candidates, "candidates")
        if candidates.shape != (w,):
            raise ValueError(f"{w}x{w} matrix for {candidates.size} candidates")
        if self.raw_max_abs <= 0.0:
            raise ValueError("raw_max_abs must be positive")
        gains = np.asarray(self.gains, dtype=float)
        if gains.shape != (w,):
            raise ValueError("gains must have one entry per candidate")
        object.__setattr__(self, "q", _frozen_array(q))
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "gains", _frozen_array(gains))
        object.__setattr__(self, "params", dict(self.params))


@dataclass(frozen=True, eq=False)
class BitSchedule:
    """A binary schedule with its quadratic-form energy x' Q x."""

    bits: np.ndarray
    energy: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", _frozen_bits(self.bits))

    def __str__(self) -> str:
        return bits_to_str(self.bits)


def _qubo_matrix(q) -> np.ndarray:
    """The symmetric matrix S of a ``QuboProblem``, or of a raw square ``q``
    its symmetric part (``_square``): the S with x' q x = x' S x."""
    return q.q if isinstance(q, QuboProblem) else _square(q, "Q")


def bits_to_str(bits) -> str:
    """Render with bit 0 leftmost."""
    return "".join(str(int(b)) for b in np.asarray(bits).ravel())


def value_to_bits(value: int, w: int) -> np.ndarray:
    """Integer to bit vector under the package convention (bit 0 = MSB)."""
    return np.array([(value >> (w - 1 - k)) & 1 for k in range(w)], dtype=np.uint8)


def _min_window(w: int) -> int:
    return 2 * w + 2  # the fewest days a window of w candidate dates holds: see candidate_dates


def candidate_dates(window_len: int, w: int) -> np.ndarray:
    """The ``w`` equally spaced interior candidate dates of a window of L =
    ``window_len`` days, as a read-only array of row offsets:
    t_k = round(k * L / (W + 1)) for k = 1..W, ties to even. The window must
    hold L >= 2W + 2 days: then the spacing L / (W + 1) is at least 2 and
    rounding moves each date by at most 1/2, so t_1 >= 1 and every forward
    span [t_k, t_{k+1}), the last one ending at L, holds at least 2 days.
    """
    _check_count(w, "w")
    _check_count(window_len, "window_len", least=_min_window(w))
    return _frozen_integers(np.round(np.arange(1, w + 1) * window_len / (w + 1)), "candidate dates")


def build_qubo(
    target, window: ReturnPanel, w_count: int, params: QuboParams = QuboParams()
) -> QuboProblem:
    """Assemble and normalise the schedule QUBO for one return window.

    Gain g_k: on the forward span [t_k, t_{k+1}) (the last span runs to the
    window end), the Sharpe of the target weights minus the Sharpe of the
    weights drifted from the window start to t_k, both held fixed (a flat leg
    scores 0), minus the annualised L1 cost of resetting the drift. A
    non-positive portfolio gross return (short weights only) raises.

    Diagonal: ``-lambda1 * g_k + lambda2 * cost_c * n_assets``. Off-diagonal:
    ``lambda3 * exp(-|t_k - t_l| / delta_t)`` with ``delta_t`` the mean spacing
    of the candidate indices. The matrix is symmetric by construction and is
    divided by its max absolute entry (recorded in ``raw_max_abs``).
    """
    w = _weight_array(target, window.tickers)
    cand = candidate_dates(window.n_days, w_count)
    gross = window.gross_returns
    gains = np.empty(w_count)
    for k, (start, end) in enumerate(zip(cand, [*cand[1:], window.n_days])):
        drift = w * np.prod(gross[:start], axis=0)
        drift /= drift.sum()
        sharpe = [0.0, 0.0]  # a flat leg scores 0
        for i, leg in enumerate((w, drift)):
            with suppress(ZeroVolatilityError):
                sharpe[i] = annualised_sharpe(portfolio_log_returns(leg, gross[start:end]))
        gains[k] = sharpe[0] - sharpe[1] - params.cost_c * np.abs(drift - w).sum() * ANNUALISATION
    idx = cand.astype(float)
    delta_t = float(np.mean(np.diff(idx))) if w_count >= 2 else float(window.n_days)

    gaps = np.abs(idx[:, None] - idx[None, :])
    raw = params.lambda3 * np.exp(-gaps / delta_t)
    np.fill_diagonal(raw, -params.lambda1 * gains + params.lambda2 * params.cost_c * window.n_assets)

    max_abs = float(np.max(np.abs(raw)))
    raw_max_abs = max_abs if max_abs > 0.0 else 1.0
    return QuboProblem(
        q=raw / raw_max_abs,
        raw_max_abs=raw_max_abs,
        candidates=cand,
        gains=gains,
        params={**asdict(params), "n_assets": window.n_assets, "delta_t": delta_t},
    )


def _table(linear, upper, values) -> np.ndarray:
    """``sum_i linear_i v_i + sum_{i<j} upper_ij v_i v_j`` for every
    bitstring, indexed by bitstring value, where bit k = 0 sets ``v_k`` to
    ``values[0]`` and bit k = 1 to ``values[1]``: (0, 1) for a QUBO's x,
    (1, -1) for an Ising model's z = 1 - 2x. ``upper`` is read above its
    diagonal only. Built one variable at a time in O(W 2^W) flops."""
    w = len(linear)
    _check_width(w)
    table, field = np.zeros(1), np.asarray(linear, dtype=float)[None, :]
    for k in range(w):
        # field[s, m] = linear_m + sum_{i<k} upper_im v_i for variables m >= k,
        # over the states s of variables 0..k-1; bit k = 0 comes first
        table = np.stack([table + v * field[:, 0] for v in values], axis=1).ravel()
        rest, coupling = field[:, 1:], upper[k, k + 1 :]
        field = np.stack([rest + v * coupling for v in values], axis=1).reshape(table.size, -1)
    return table


def enumerate_energies(q) -> np.ndarray:
    """x' Q x for every bitstring, indexed by bitstring value: with S the
    symmetric part of Q and x_i^2 = x_i, ``sum_i S_ii x_i + sum_{i<j} 2 S_ij x_i x_j``."""
    sym = _qubo_matrix(q)
    return _table(np.diag(sym), 2.0 * np.triu(sym, 1), (0, 1))


def brute_force(q) -> BitSchedule:
    """Exact global minimiser of x' Q x over all 2^W bitstrings.

    Ties break toward the smallest bitstring value under the package bit-order
    convention (all-zeros wins a tie with anything).
    """
    energies = enumerate_energies(q)
    best = int(np.argmin(energies))  # first hit == smallest bitstring value
    return BitSchedule(value_to_bits(best, energies.size.bit_length() - 1), float(energies[best]))
