"""Rebalancing-schedule QUBO: the candidate dates (one read-only array of row
offsets per window), weight drift, marginal Sharpe gains, the cost matrix
itself, and an exhaustive classical solver.

``_table`` is the one builder of a 2^W energy table, for 0/1 variables
(``enumerate_energies``, x' Q x) and for +-1 spins (the Ising phase table of
``qaoa.simulate_ansatz``) alike.

Bit-order convention used throughout the package: bit ``k`` of a schedule maps
to candidate date ``t_k``; rendered bitstrings list bit 0 leftmost, so a
bitstring's integer value is ``sum(b_k * 2^(W-1-k))`` and enumeration by value
matches enumeration by rendered string.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .allocation import _weight_array, portfolio_log_returns
from .clustering import ZeroVolatilityError, annualised_sharpe
from .market_data import (ANNUALISATION, ReturnPanel, _check_cost, _frozen_array, _frozen_bits,
                          _frozen_integers, _square)

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
        _check_cost(self.cost_c)


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

    @property
    def w(self) -> int:
        return int(self.q.shape[0])


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


def candidate_dates(window_len: int, w: int) -> np.ndarray:
    """The ``w`` equally spaced interior candidate dates of a window, as a
    read-only array of row offsets. With L = ``window_len`` and k = 1..W:

        t_k = min(round(k * L / (W + 1)), L - 2 - (W - k))

    ``round`` takes ties to even. The spacing L / (W + 1) exceeds 1, so the
    rounded dates strictly increase from t_1 >= 1; the cap, which rises by
    one per k, keeps them strictly increasing and leaves room for the W - k
    later dates below the final day. Any window with L >= W + 2 hosts them.
    """
    if w < 1:
        raise ValueError("need at least one candidate date")
    if window_len < w + 2:
        raise ValueError(
            f"window too short: {window_len} days cannot host {w} distinct interior dates"
        )
    k = np.arange(1, w + 1)
    dates = np.minimum(np.round(k * window_len / (w + 1)), window_len - 2 - (w - k))
    return _frozen_integers(dates, "candidate dates")


def drift_weights(target, window: ReturnPanel, upto: int) -> np.ndarray:
    """Weights after ``upto`` days of pure drift from the window start.

    ``w_drift = (w * pi) / sum(w * pi)`` with ``pi`` the cumulative gross
    return of each asset over rows ``[0, upto)``; no intermediate rebalances.
    """
    w = _weight_array(target, window.tickers)
    if not 0 <= upto <= window.n_days:
        raise ValueError(f"upto must be in [0, {window.n_days}]")
    pi = np.prod(window.gross_returns[:upto], axis=0)  # empty product -> ones
    v = w * pi
    return v / v.sum()


def _sharpe_or_zero(log_returns: np.ndarray) -> float:
    try:
        return annualised_sharpe(log_returns)
    except ZeroVolatilityError:
        return 0.0  # degenerate forward window: no Sharpe contribution


def marginal_gain(target, window: ReturnPanel, candidates, k: int, cost_c: float) -> float:
    """Net benefit of rebalancing at candidate ``k``.

    Sharpe of the target weights minus Sharpe of the drifted weights, both on
    the forward window [t_k, t_{k+1}) (the last candidate's window runs to the
    segment end), minus the annualised L1 trading cost of resetting the drift.
    Weights are held fixed within the forward window for both legs; a
    non-positive portfolio gross return (short weights only) raises.
    ``candidates`` are the row offsets t_k: strictly increasing and inside
    ``[1, window.n_days - 2]``.
    """
    idx = _frozen_integers(candidates, "candidates")
    if idx.ndim != 1 or idx.size < 1:
        raise ValueError("need at least one candidate index")
    if np.any(np.diff(idx) <= 0):
        raise ValueError("candidate indices must be strictly increasing")
    if idx[0] < 1 or idx[-1] > window.n_days - 2:
        raise ValueError("candidate indices must be interior to the window")
    if not 0 <= k < idx.size:
        raise ValueError(f"candidate index {k} out of range")
    w = _weight_array(target, window.tickers)
    start = int(idx[k])
    end = int(idx[k + 1]) if k + 1 < idx.size else window.n_days
    if end - start < 2:
        raise ValueError(f"forward window [{start}, {end}) shorter than 2 days")
    fwd = window.gross_returns[start:end]
    w_drift = drift_weights(w, window, start)
    sr_target = _sharpe_or_zero(portfolio_log_returns(w, fwd))
    sr_drift = _sharpe_or_zero(portfolio_log_returns(w_drift, fwd))
    l1 = float(np.abs(w_drift - w).sum())
    return sr_target - sr_drift - cost_c * l1 * ANNUALISATION


def build_qubo(
    target, window: ReturnPanel, w_count: int, params: QuboParams = QuboParams()
) -> QuboProblem:
    """Assemble and normalise the schedule QUBO for one return window.

    Diagonal: ``-lambda1 * g_k + lambda2 * cost_c * n_assets``. Off-diagonal:
    ``lambda3 * exp(-|t_k - t_l| / delta_t)`` with ``delta_t`` the mean spacing
    of the candidate indices. The matrix is symmetric by construction and is
    divided by its max absolute entry (recorded in ``raw_max_abs``).
    """
    cand = candidate_dates(window.n_days, w_count)
    gains = np.array(
        [marginal_gain(target, window, cand, k, params.cost_c) for k in range(w_count)]
    )
    n = window.n_assets
    idx = cand.astype(float)
    delta_t = float(np.mean(np.diff(idx))) if w_count >= 2 else float(window.n_days)

    gaps = np.abs(idx[:, None] - idx[None, :])
    raw = params.lambda3 * np.exp(-gaps / delta_t)
    np.fill_diagonal(raw, -params.lambda1 * gains + params.lambda2 * params.cost_c * n)

    max_abs = float(np.max(np.abs(raw)))
    raw_max_abs = max_abs if max_abs > 0.0 else 1.0
    return QuboProblem(
        q=raw / raw_max_abs,
        raw_max_abs=raw_max_abs,
        candidates=cand,
        gains=gains,
        params={**asdict(params), "n_assets": n, "delta_t": delta_t},
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
    mat = _qubo_matrix(q)
    w = mat.shape[0]
    energies = enumerate_energies(mat)
    best = int(np.argmin(energies))  # first hit == smallest bitstring value
    return BitSchedule(value_to_bits(best, w), float(energies[best]))
