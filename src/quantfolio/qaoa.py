"""Statevector QAOA for schedule QUBOs: Ising mapping, depth-p ansatz
simulation, shot sampling, multi-restart angle optimisation, and the
walk-forward scheduling driver.

The cost layer is applied as diagonal phases per basis state (mathematically
identical to the gate decomposition into Rz/CNOT, and far faster); the table
of 2^W phases is built once per model (``IsingModel.phases``) and reused by
every ansatz evaluation. The mixer is a product of single-qubit Rx(2*beta)
rotations. ``simulate_ansatz`` takes one angle vector or a batch of them, so
every point the optimiser scores in one step is simulated in one pass.

The angle search is numpy only (no scipy): a p = 1 grid scored by the shot
loss, its best point repeated over the p layers (INTERP; Zhou et al., PRX 10,
021067, 2020), then SPSA (Spall, IEEE TAC 37, 1992) on all restarts at once,
all within ``restarts * max_iters`` loss evaluations per window. All
randomness flows from one master seed through per-window, per-restart and
grid streams, so results never depend on evaluation order, and restart r's
result does not depend on how many restarts follow it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .allocation import WeightVector
from .market_data import ReturnPanel
from .schedule_qubo import (
    BitSchedule,
    QuboParams,
    QuboProblem,
    bits_to_str,
    brute_force,
    build_qubo,
    enumerate_energies,
    value_to_bits,
)

STATEVECTOR_LIMIT = 24  # 2^W amplitudes; memory guard
_BRUTE_DIAGNOSTIC_LIMIT = 16  # report the exact optimum alongside QAOA up to here
OPTIMISER = "grid-INTERP-SPSA"
_BATCH_AMPLITUDES = 2 ** 18  # most amplitudes one simulate_ansatz call holds
# p = 1 grid (gamma points x beta points): the fine one when the window's
# budget is at least twice its size, else the coarse one
_FINE_GRID, _COARSE_GRID = (12, 6), (8, 4)
_JITTER = 0.3  # standard deviation of each restart's offset from the grid start
_SPSA_GAINS = (0.3, 0.2, 0.602, 0.101)  # a, c, alpha, gamma of ``minimize``


@dataclass(frozen=True, eq=False)
class SpsaResult:
    """What ``minimize`` returns: the final iterates and the evaluation count."""

    x: np.ndarray  # (R, n) final iterates
    nfev: int  # loss evaluations (points), all restarts together


def minimize(fun, x0, rngs, steps) -> SpsaResult:
    """SPSA (Spall 1992) from each row of ``x0`` at once.

    Row r takes ``steps[r]`` steps with gains ``a_k = a / (k + 1 + A_r)^alpha``,
    ``A_r = 0.1 * steps[r]``, and ``c_k = c / (k + 1)^gamma``. Each step draws
    a +-1 direction d per row from ``rngs[r]`` and scores every row still
    stepping at x + c_k d and x - c_k d in one call ``fun(points, point_rngs)``:
    the '+' points first, then the '-' points, each with its row's generator.
    So every generator sees the same draws, in the same order, whatever the
    other rows do. ``a``, ``c``, ``alpha``, ``gamma`` are ``_SPSA_GAINS``.
    """
    a, c, alpha, gamma = _SPSA_GAINS
    x = np.array(x0, dtype=float)
    steps = np.asarray(steps)
    if x.ndim != 2 or steps.shape != (x.shape[0],) or len(rngs) != x.shape[0]:
        raise ValueError("need one step count and one generator per row of x0")
    nfev = 0
    for k in range(int(steps.max(initial=0))):
        rows = np.flatnonzero(steps > k)
        delta = np.array([2.0 * rngs[r].integers(0, 2, size=x.shape[1]) - 1.0 for r in rows])
        ck = c / (k + 1) ** gamma
        losses = fun(np.concatenate([x[rows] + ck * delta, x[rows] - ck * delta]),
                     [rngs[r] for r in rows] * 2)
        slope = (losses[: rows.size] - losses[rows.size :]) / (2.0 * ck)
        ak = a / (k + 1 + 0.1 * steps[rows]) ** alpha
        x[rows] -= (ak * slope)[:, None] * delta
        nfev += 2 * rows.size
    return SpsaResult(x, nfev)


@dataclass(frozen=True, eq=False)
class IsingModel:
    """Field/coupling coefficients equivalent to a QUBO under z = 1 - 2x.

    For every bitstring x: ``x' Q x == h . z + sum_{i<j} J_ij z_i z_j + offset``.
    ``j`` is stored as a strictly upper-triangular matrix.
    """

    h: np.ndarray
    j: np.ndarray
    offset: float

    def __post_init__(self) -> None:
        h = np.asarray(self.h, dtype=float).ravel()
        j = np.atleast_2d(np.asarray(self.j, dtype=float))
        w = h.size
        if j.shape != (w, w):
            raise ValueError("J must be W x W")
        if np.any(np.tril(j) != 0.0):
            raise ValueError("J must be strictly upper-triangular")
        h = h.copy()
        j = j.copy()
        h.flags.writeable = False
        j.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "j", j)

    @property
    def w(self) -> int:
        return int(self.h.size)

    @cached_property
    def phases(self) -> np.ndarray:
        """Cost-Hamiltonian eigenvalues (no offset) for all 2^W basis states,
        indexed by bitstring value; built on first use, then read-only."""
        w = self.w
        z_axis = np.array([1.0, -1.0])  # basis index 0 -> z=+1, index 1 -> z=-1

        def axis_view(i: int) -> np.ndarray:
            shape = [1] * w
            shape[i] = 2
            return z_axis.reshape(shape)

        energies = np.zeros((2,) * w)
        for i in range(w):
            if self.h[i] != 0.0:
                energies += self.h[i] * axis_view(i)
            for jj in range(i + 1, w):
                if self.j[i, jj] != 0.0:
                    energies += self.j[i, jj] * (axis_view(i) * axis_view(jj))
        energies = energies.reshape(-1)
        energies.flags.writeable = False
        return energies


@dataclass(frozen=True)
class QaoaConfig:
    depth: int = 2
    restarts: int = 5
    opt_shots: int = 2048
    eval_shots: int = 4096
    max_iters: int = 150  # loss evaluations per restart; a window's budget is restarts x this
    seed: int = 0
    exact_expectation: bool = False  # debug mode: noiseless loss instead of shots

    def __post_init__(self) -> None:
        for name in ("depth", "restarts", "opt_shots", "eval_shots", "max_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        grid = _COARSE_GRID[0] * _COARSE_GRID[1]
        if self.restarts * self.max_iters < grid:
            raise ValueError(f"restarts x max_iters must be >= {grid} (the p = 1 grid)")


@dataclass(frozen=True, eq=False)
class QaoaOutcome:
    """Result of a multi-restart run on one QUBO.

    ``best_bits`` is the highest-count bitstring of the winning restart's
    evaluation histogram (count ties -> lower bitstring value) and
    ``best_energy`` is that bitstring's energy x' Q x. ``histogram`` holds the
    winner's evaluation counts indexed by bitstring value;
    ``restart_energies`` the per-restart final expected energies and
    ``restart_angles`` the per-restart final angles, one row each.
    """

    best_bits: BitSchedule
    histogram: np.ndarray
    best_energy: float
    angles: np.ndarray  # gamma_1..gamma_p, beta_1..beta_p of the winner
    restart_energies: np.ndarray
    eval_shots: int
    restart_angles: np.ndarray

    def histogram_top(self, top: int = 20) -> list[tuple[str, int]]:
        """Most frequent bitstrings, count desc, ties by bitstring value asc."""
        counts = self.histogram
        order = np.lexsort((np.arange(counts.size), -counts))
        w = int(np.log2(counts.size).round())
        out = []
        for v in order[:top]:
            if counts[v] == 0:
                break
            out.append((bits_to_str(value_to_bits(int(v), w)), int(counts[v])))
        return out

    def histogram_nonzero(self) -> list[tuple[str, int]]:
        return self.histogram_top(top=self.histogram.size)


def to_ising(q) -> IsingModel:
    """Exact Ising form of a QUBO (offset included).

    With z = 1 - 2x and symmetrised Q:
    ``h_i = -Q_ii/2 - sum_{j!=i} Q_ij / 2``, ``J_ij = Q_ij / 2`` for i < j,
    ``offset = sum_i Q_ii / 2 + sum_{i<j} Q_ij / 2``.
    """
    mat = q.q if isinstance(q, QuboProblem) else np.atleast_2d(np.asarray(q, float))
    w = mat.shape[0]
    if mat.shape != (w, w):
        raise ValueError("Q must be square")
    sym = (mat + mat.T) / 2.0
    diag = np.diag(sym)
    off_row = sym.sum(axis=1) - diag
    h = -diag / 2.0 - off_row / 2.0
    j = np.triu(sym, 1) / 2.0
    offset = float(diag.sum() / 2.0 + np.triu(sym, 1).sum() / 2.0)
    return IsingModel(h, j, offset)


def ising_energy(model: IsingModel, bits) -> float:
    """Energy of one bitstring under the model, offset included."""
    z = 1.0 - 2.0 * np.asarray(bits, dtype=float).ravel()
    return float(model.h @ z + z @ model.j @ z + model.offset)


def simulate_ansatz(model: IsingModel, gammas, betas) -> np.ndarray:
    """Statevector after p alternating cost-phase and mixer layers on the
    uniform superposition.

    Basis index v encodes the bitstring MSB-first (qubit k <-> axis k), so
    ``abs(state[v])**2`` is the probability of the bitstring with value v.
    With ``(B, p)`` angle arrays the result is the ``(B, 2**W)`` batch of
    states, row b bit-identical to the call on row b's angles alone.
    """
    w = model.w
    if w > STATEVECTOR_LIMIT:
        raise ValueError(f"W = {w} exceeds the statevector guard ({STATEVECTOR_LIMIT})")
    gammas = np.asarray(gammas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    batched = gammas.ndim == 2
    if gammas.shape != betas.shape or gammas.ndim > 2:
        raise ValueError("need one beta per gamma: (p,) or (B, p) arrays of one shape")
    if not batched:
        gammas, betas = gammas.reshape(1, -1), betas.reshape(1, -1)

    phase = model.phases
    n = gammas.shape[0]
    axes = list(range(1, w + 1))
    psi = np.full((n, 2 ** w), 2.0 ** (-w / 2.0), dtype=complex)
    rx = np.empty((n, 2, 2), dtype=complex)
    for gamma, beta in zip(gammas.T, betas.T):
        # a named factor: numpy would otherwise reuse a large temporary as the
        # output, whose loop rounds differently from the plain product
        factor = np.exp(-1j * gamma[:, None] * phase)
        psi = psi * factor
        rx[:, 0, 0] = rx[:, 1, 1] = np.cos(beta)
        rx[:, 0, 1] = rx[:, 1, 0] = -1j * np.sin(beta)
        psi = psi.reshape((n,) + (2,) * w)
        for k in range(1, w + 1):
            # per row, the single product np.tensordot(rx, psi, axes=([1], [k]))
            # forms, without its bookkeeping: same operands, same bits
            front = psi.transpose([0, k, *axes[: k - 1], *axes[k:]]).reshape(n, 2, -1)
            psi = np.moveaxis(np.matmul(rx, front).reshape((n,) + (2,) * w), 1, k)
        psi = psi.reshape(n, -1)
    return psi if batched else psi[0]


def _probabilities(model: IsingModel, points: np.ndarray):
    """|amplitude|^2 of the ansatz state of each row of ``points`` (gammas,
    then betas), simulated in batches of at most ``_BATCH_AMPLITUDES``
    amplitudes; one row at a time."""
    p = points.shape[1] // 2
    rows = max(1, _BATCH_AMPLITUDES >> model.w)
    for lo in range(0, len(points), rows):
        chunk = points[lo : lo + rows]
        yield from np.abs(simulate_ansatz(model, chunk[:, :p], chunk[:, p:])) ** 2


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample(state: np.ndarray, shots: int, seed) -> np.ndarray:
    """Multinomial measurement counts over |amplitude|^2, indexed by bitstring
    value. Deterministic per seed (or consumes a passed Generator)."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = np.abs(np.asarray(state)) ** 2
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"state is not normalised (sum p = {total!r})")
    rng = _as_generator(seed)
    return rng.multinomial(shots, probs / total)


def _as_counts(histogram, w: int) -> np.ndarray:
    if isinstance(histogram, dict):
        counts = np.zeros(2 ** w, dtype=float)
        for key, c in histogram.items():
            value = int(key, 2) if isinstance(key, str) else int(key)
            counts[value] += c
        return counts
    return np.asarray(histogram, dtype=float)


def expected_energy(histogram, q) -> float:
    """Shot-weighted mean of x' Q x over a measurement histogram."""
    mat = q.q if isinstance(q, QuboProblem) else np.atleast_2d(np.asarray(q, float))
    counts = _as_counts(histogram, mat.shape[0])
    total = counts.sum()
    if total <= 0:
        raise ValueError("empty histogram")
    return float(counts @ enumerate_energies(mat) / total)


def optimise_angles(model: IsingModel, q, cfg: QaoaConfig = QaoaConfig()) -> QaoaOutcome:
    """Multi-restart angle search minimising the sampled expected energy,
    within ``restarts * max_iters`` loss evaluations.

    1. Score a p = 1 grid of gamma in [0, 2pi), beta in [0, pi) (12 x 6
       points, 8 x 4 if the budget is under 144) on shots from the grid's own
       stream.
    2. Repeat the best grid point over the p layers (INTERP from p = 1).
    3. Restart r starts there plus N(0, 0.3^2) jitter from its own stream
       and runs SPSA (``minimize``) on the shot loss, all restarts batched.
       The grid's cost is charged to the first restarts' evaluations:
       restart r gets ``clip((r + 1) * max_iters - grid, 0, max_iters)``, two
       per step, so no restart's result depends on how many follow it.
    4. The winner is the restart with the lowest expected energy over its
       ``eval_shots`` evaluation histogram (tie -> earlier restart).
    """
    mat = q.q if isinstance(q, QuboProblem) else np.atleast_2d(np.asarray(q, float))
    if mat.shape[0] != model.w:
        raise ValueError("model and QUBO sizes differ")
    energies = enumerate_energies(mat)
    p, restarts = cfg.depth, cfg.restarts

    def loss(points: np.ndarray, rngs) -> np.ndarray:
        out = np.empty(len(points))
        for i, (probs, rng) in enumerate(zip(_probabilities(model, points), rngs)):
            if cfg.exact_expectation:
                out[i] = probs @ energies
            else:
                out[i] = rng.multinomial(cfg.opt_shots, probs / probs.sum()) @ energies / cfg.opt_shots
        return out

    grid_stream, *streams = np.random.SeedSequence(cfg.seed).spawn(restarts + 1)
    budget = restarts * cfg.max_iters
    n_gamma, n_beta = _FINE_GRID if budget >= 2 * _FINE_GRID[0] * _FINE_GRID[1] else _COARSE_GRID
    grid = np.stack(np.meshgrid(
        np.arange(n_gamma) * (2.0 * np.pi / n_gamma),
        np.arange(n_beta) * (np.pi / n_beta),
        indexing="ij",
    ), axis=-1).reshape(-1, 2)
    grid_rng = np.random.default_rng(grid_stream)
    gamma0, beta0 = grid[int(np.argmin(loss(grid, [grid_rng] * len(grid))))]
    start = np.concatenate([np.full(p, gamma0), np.full(p, beta0)])

    rngs = [np.random.default_rng(stream) for stream in streams]
    x0 = np.array([start + rng.normal(0.0, _JITTER, size=2 * p) for rng in rngs])
    share = np.clip(np.arange(1, restarts + 1) * cfg.max_iters - len(grid), 0, cfg.max_iters)
    res = minimize(loss, x0, rngs, share // 2)

    histograms = [
        rng.multinomial(cfg.eval_shots, probs / probs.sum())
        for probs, rng in zip(_probabilities(model, res.x), rngs)
    ]
    restart_energies = np.array([counts @ energies / cfg.eval_shots for counts in histograms])
    winner = int(np.argmin(restart_energies))  # tie -> earlier restart
    counts = histograms[winner]
    best_value = int(np.argmax(counts))  # tie -> lower bitstring value
    best_bits = BitSchedule(value_to_bits(best_value, model.w), float(energies[best_value]))
    return QaoaOutcome(
        best_bits=best_bits,
        histogram=counts,
        best_energy=float(energies[best_value]),
        angles=res.x[winner].copy(),
        restart_energies=restart_energies,
        eval_shots=cfg.eval_shots,
        restart_angles=res.x,
    )


@dataclass(frozen=True, eq=False)
class WindowDiagnostics:
    """Everything the scheduler decided for one walk-forward window."""

    start: int
    end: int
    qubo: QuboProblem
    outcome: QaoaOutcome
    brute_energy: float | None
    gap: float | None

    @property
    def candidates_global(self) -> np.ndarray:
        return self.qubo.candidates.indices + self.start


@dataclass(frozen=True, eq=False)
class ScheduleResult:
    """Global binary rebalancing schedule with per-window diagnostics."""

    bits: np.ndarray
    windows: tuple[WindowDiagnostics, ...]

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits).astype(np.uint8)
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "windows", tuple(self.windows))

    @property
    def total_rebalances(self) -> int:
        return int(self.bits.sum())

    def to_json_dict(self, top: int = 20) -> dict:
        return {
            "schedule": [int(b) for b in self.bits],
            "total_rebalances": self.total_rebalances,
            "optimiser": OPTIMISER,
            "windows": [
                {
                    "start": win.start,
                    "end": win.end,
                    "candidates": [int(i) for i in win.candidates_global],
                    "best_bits": bits_to_str(win.outcome.best_bits.bits),
                    "best_energy": float(win.outcome.best_energy),
                    "expected_energy": float(np.min(win.outcome.restart_energies)),
                    "brute_force_energy": win.brute_energy,
                    "gap": win.gap,
                    "angles": {
                        "gamma": [float(a) for a in win.outcome.angles[: len(win.outcome.angles) // 2]],
                        "beta": [float(a) for a in win.outcome.angles[len(win.outcome.angles) // 2 :]],
                    },
                    "restart_energies": [float(e) for e in win.outcome.restart_energies],
                    "histogram_top20": win.outcome.histogram_top(top),
                    "qubo": win.qubo.to_json_dict(),
                }
                for win in self.windows
            ],
        }


def walk_forward(
    test: ReturnPanel,
    target: WeightVector,
    k_windows: int,
    w_count: int,
    cfg: QaoaConfig = QaoaConfig(),
    qubo_params: QuboParams = QuboParams(),
) -> ScheduleResult:
    """Chunk the test panel into ``k_windows`` equal windows (the last absorbs
    the remainder), build each window's QUBO from that window's returns only,
    solve it with multi-restart QAOA, and splice the winning local bits into a
    global schedule.

    Window k's RNG stream is derived from the master seed and k alone, so
    perturbing a later window can never change an earlier window's schedule.
    """
    if target.tickers != test.tickers:
        raise ValueError("target weight tickers do not match test panel tickers")
    t_total = test.n_days
    if k_windows < 1:
        raise ValueError("need at least one window")
    if t_total < k_windows * (w_count + 2):
        raise ValueError(
            f"test panel of {t_total} days is too short for {k_windows} windows "
            f"of {w_count} candidates"
        )
    chunk = t_total // k_windows
    window_seeds = np.random.SeedSequence(cfg.seed).generate_state(
        k_windows, dtype=np.uint64
    )

    bits = np.zeros(t_total, dtype=np.uint8)
    windows: list[WindowDiagnostics] = []
    for k in range(k_windows):
        start = k * chunk
        end = (k + 1) * chunk if k < k_windows - 1 else t_total
        segment = test.slice_rows(start, end)
        qp = build_qubo(target, segment, w_count, qubo_params)
        model = to_ising(qp)
        outcome = optimise_angles(model, qp, replace(cfg, seed=int(window_seeds[k])))

        brute_energy = gap = None
        if w_count <= _BRUTE_DIAGNOSTIC_LIMIT:
            brute_energy = brute_force(qp).energy
            gap = outcome.best_energy - brute_energy  # >= 0: brute force is exact

        bits[start + qp.candidates.indices] = outcome.best_bits.bits
        windows.append(
            WindowDiagnostics(
                start=start,
                end=end,
                qubo=qp,
                outcome=outcome,
                brute_energy=brute_energy,
                gap=gap,
            )
        )
    return ScheduleResult(bits=bits, windows=tuple(windows))
