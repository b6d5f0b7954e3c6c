"""Statevector QAOA for schedule QUBOs: Ising mapping, depth-p ansatz
simulation, shot sampling, multi-restart angle optimisation, and the
walk-forward scheduling driver.

The cost layer is applied as diagonal phases per basis state (mathematically
identical to the gate decomposition into Rz/CNOT, and far faster). The phase
table is the QUBO's own energy table, ``enumerate_energies(q)``: it differs
from the Ising Hamiltonian only by the constant ``offset``, a global phase, and
the search needs it anyway to score shots. An ``IsingModel``'s table comes
from the same builder, ``schedule_qubo._table``, with z = +-1 in place of
x = 0/1. The mixer is a product of single-qubit Rx(2*beta) rotations, each
applied as ``psi <- cos(beta) psi - i sin(beta) X_k psi``, where ``X_k psi``
is the view of ``psi`` with qubit k's two halves swapped: no transpose, no
matmul, and one preallocated buffer.

The angle search (``optimise_angles``) is numpy only (no scipy): a p = 1 grid
scored by the shot loss, its best point repeated over the p layers (INTERP;
Zhou et al., PRX 10, 021067, 2020), then SPSA (Spall, IEEE TAC 37, 1992) on
all restarts at once. ``walk_forward`` runs it over every window of every
target in lockstep (``_search``), each window bit-identical to solving it
alone. The result types store only what they cannot derive: ``minimize``
returns its final iterates alone, and a search's loss point count follows from
its step counts, ``len(grid) + 2 * sum(steps)`` per problem.

Each ``simulate_ansatz`` call holds at most ``_BATCH_AMPLITUDES`` = 2^14
amplitudes, because the batch would otherwise set the stage's peak memory
while buying no speed: on a 2-vCPU Xeon VM the golden ``schedule`` stage
peaks at 38.2 MB of RSS with 2^14, 42.6 MB with 2^16 and 48.5 MB with 2^18
(W = 14 windows: 41.1, 46.0 and 60.8 MB), in the same time. One search holds
at most ``_BATCH_ENERGIES`` energy-table entries, so wide windows never stack
many 2^W tables at once.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .market_data import ReturnPanel, _check_count, _frozen_array, _frozen_integers, _read_only
from .schedule_qubo import (
    BitSchedule, QuboParams, QuboProblem, _check_width, _min_window, _qubo_matrix, _table,
    build_qubo, enumerate_energies, value_to_bits,
)

OPTIMISER = "grid-INTERP-SPSA"
_BATCH_AMPLITUDES = 2 ** 14  # most amplitudes one simulate_ansatz call holds
_BATCH_ENERGIES = 2 ** 20  # most energy-table entries one batched search holds
# p = 1 grid (gamma points x beta points): the fine one when the window's
# budget is at least twice its size, else the coarse one
_FINE_GRID, _COARSE_GRID = (12, 6), (8, 4)
_JITTER = 0.3  # standard deviation of each restart's offset from the grid start
_SPSA_GAINS = (0.3, 0.2, 0.602, 0.101)  # a, c, alpha, gamma of ``minimize``


def minimize(fun, x0, rngs, steps) -> np.ndarray:
    """SPSA (Spall 1992) from each row of ``x0`` at once.

    Row r takes ``steps[r]`` steps with gains ``a_k = a / (k + 1 + A_r)^alpha``,
    ``A_r = 0.1 * steps[r]``, and ``c_k = c / (k + 1)^gamma``. Each step draws
    a +-1 direction d per row from ``rngs[r]`` and scores every row still
    stepping at x + c_k d and x - c_k d in one call ``fun(points, rows)``:
    the '+' points first, then the '-' points, ``rows[i]`` the row of point
    i. So when ``fun`` draws each point's shots from its row's generator,
    every generator sees the same draws, in the same order, whatever the
    other rows do. ``a``, ``c``, ``alpha``, ``gamma`` are ``_SPSA_GAINS``.
    Returns the final iterates, one read-only row per row of ``x0``. ``fun``
    receives ``2 * sum(steps)`` points in all.
    """
    a, c, alpha, gamma = _SPSA_GAINS
    x = np.array(x0, dtype=float)
    steps = np.asarray(steps)
    if x.ndim != 2 or steps.shape != (x.shape[0],) or len(rngs) != x.shape[0]:
        raise ValueError("need one step count and one generator per row of x0")
    for k in range(int(steps.max(initial=0))):
        rows = np.flatnonzero(steps > k)
        delta = np.array([2.0 * rngs[r].integers(0, 2, size=x.shape[1]) - 1.0 for r in rows])
        ck = c / (k + 1) ** gamma
        losses = fun(np.concatenate([x[rows] + ck * delta, x[rows] - ck * delta]),
                     np.concatenate([rows, rows]))
        slope = (losses[: rows.size] - losses[rows.size :]) / (2.0 * ck)
        ak = a / (k + 1 + 0.1 * steps[rows]) ** alpha
        x[rows] -= (ak * slope)[:, None] * delta
    return _read_only(x)


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
        object.__setattr__(self, "h", _frozen_array(h))
        object.__setattr__(self, "j", _frozen_array(j))


@dataclass(frozen=True)
class QaoaConfig:
    depth: int = 2
    restarts: int = 5
    opt_shots: int = 2048
    eval_shots: int = 4096
    max_iters: int = 150  # loss evaluations per restart; a window's budget is restarts x this
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("depth", "restarts", "opt_shots", "eval_shots", "max_iters"):
            _check_count(getattr(self, name), name)
        grid = _COARSE_GRID[0] * _COARSE_GRID[1]
        if self.restarts * self.max_iters < grid:
            raise ValueError(f"restarts x max_iters must be >= {grid} (the p = 1 grid)")


@dataclass(frozen=True, eq=False)
class QaoaOutcome:
    """Result of a multi-restart run on one QUBO.

    ``best_bits`` is the highest-count bitstring of the winning restart's
    evaluation histogram (count ties -> lower bitstring value), with its
    energy x' Q x. ``histogram`` holds the winner's evaluation counts indexed
    by bitstring value, 2**W of them for the W bits of ``best_bits``;
    ``restart_energies`` the per-restart final expected energies and
    ``restart_angles`` the per-restart final angles (gamma_1..gamma_p,
    beta_1..beta_p), one row per energy; both shapes are checked. The winner
    is the restart with the lowest expected energy (tie -> earlier restart).
    """

    best_bits: BitSchedule
    histogram: np.ndarray
    restart_energies: np.ndarray
    restart_angles: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "histogram", _frozen_integers(self.histogram, "histogram"))
        object.__setattr__(self, "restart_energies", _frozen_array(self.restart_energies))
        object.__setattr__(self, "restart_angles", _frozen_array(self.restart_angles))
        w = len(self.best_bits.bits)
        if self.histogram.shape != (2 ** w,):
            raise ValueError(f"histogram must hold one count per {w}-bit string, 2**{w} in all")
        angles = self.restart_angles
        if angles.ndim != 2 or angles.shape[:1] != self.restart_energies.shape:
            raise ValueError("need one row of restart_angles per entry of restart_energies")

    @property
    def best_energy(self) -> float:
        return self.best_bits.energy

    @property
    def angles(self) -> np.ndarray:
        """The winning restart's angles."""
        return self.restart_angles[int(np.argmin(self.restart_energies))]

    @property
    def eval_shots(self) -> int:
        return int(self.histogram.sum())

    def histogram_rows(self) -> list[tuple[str, int]]:
        """Every sampled bitstring with its count, count desc, ties by
        bitstring value asc."""
        counts = self.histogram
        order = np.argsort(-counts, kind="stable")
        w = len(self.best_bits.bits)
        return [(np.binary_repr(v, w), int(counts[v])) for v in order[counts[order] > 0]]


def to_ising(q) -> IsingModel:
    """Exact Ising form of a QUBO (offset included).

    With z = 1 - 2x and Q's symmetric part (``_qubo_matrix``):
    ``h_i = -Q_ii/2 - sum_{j!=i} Q_ij / 2``, ``J_ij = Q_ij / 2`` for i < j,
    ``offset = sum_i Q_ii / 2 + sum_{i<j} Q_ij / 2``.
    """
    sym = _qubo_matrix(q)
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


def simulate_ansatz(cost, gammas, betas) -> np.ndarray:
    """Statevector after p alternating cost-phase and mixer layers on the
    uniform superposition.

    ``cost`` is an ``IsingModel`` (its phase table is
    ``h . z + sum_{i<j} J_ij z_i z_j``, the energy less ``offset``) or a
    table of basis-state energies: one ``(2**W,)`` table for every row, or a
    ``(B, 2**W)`` table per row (any table that differs from the model's
    energies by a constant gives the same state up to a global phase). Basis
    index v encodes the bitstring MSB-first (qubit k <-> axis k), so
    ``abs(state[v])**2`` is the probability of the bitstring with value v.
    With ``(B, p)`` angle arrays the result is the ``(B, 2**W)`` batch of
    states, row b bit-identical to the call on row b's angles and table alone.
    """
    if isinstance(cost, IsingModel):
        cost = _table(cost.h, cost.j, (1, -1))
    table = np.asarray(cost, dtype=float)
    if table.ndim not in (1, 2):
        raise ValueError("need 2**W energies per table")
    w = table.shape[-1].bit_length() - 1
    if table.shape[-1] != 2 ** w:
        raise ValueError("need 2**W energies per table")
    _check_width(w)
    gammas = np.asarray(gammas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    batched = gammas.ndim == 2
    if gammas.shape != betas.shape or gammas.ndim > 2:
        raise ValueError("need one beta per gamma: (p,) or (B, p) arrays of one shape")
    if not batched:
        gammas, betas = gammas.reshape(1, -1), betas.reshape(1, -1)
    n = gammas.shape[0]
    if table.ndim == 2 and table.shape[0] != n:
        raise ValueError("need one energy table, or one per row of angles")

    psi = np.full((n, 2 ** w), 2.0 ** (-w / 2.0), dtype=complex)
    swapped = np.empty_like(psi)
    for gamma, beta in zip(gammas.T, betas.T):
        # a named factor: numpy would otherwise reuse a large temporary as the
        # output, whose loop rounds differently from the plain product
        factor = np.exp(-1j * gamma[:, None] * table)
        psi = psi * factor
        cos = np.cos(beta).reshape(n, 1, 1, 1)
        sin = (-1j * np.sin(beta)).reshape(n, 1, 1, 1)
        for k in range(w):
            # qubit k is axis 2 of this view; [:, :, ::-1] swaps its halves
            halves = psi.reshape(n, 2 ** k, 2, -1)
            flip = swapped.reshape(halves.shape)
            np.multiply(halves[:, :, ::-1], sin, out=flip)
            np.multiply(halves, cos, out=halves)
            np.add(halves, flip, out=halves)
    return psi if batched else psi[0]


def _states(tables: np.ndarray, owner: np.ndarray, points: np.ndarray):
    """The ansatz state of each row i of ``points`` (gammas, then betas) under
    the energy table ``tables[owner[i]]``, simulated in batches of at most
    ``_BATCH_AMPLITUDES`` amplitudes; one row at a time."""
    p = points.shape[1] // 2
    rows = max(1, _BATCH_AMPLITUDES // tables.shape[1])
    for lo in range(0, len(points), rows):
        chunk = points[lo : lo + rows]
        yield from simulate_ansatz(tables[owner[lo : lo + rows]], chunk[:, :p], chunk[:, p:])


def sample(state: np.ndarray, shots: int, seed) -> np.ndarray:
    """Multinomial measurement counts over |amplitude|^2, indexed by bitstring
    value. Deterministic per seed (or consumes a passed Generator)."""
    _check_count(shots, "shots")
    probs = np.abs(np.asarray(state)) ** 2
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"state is not normalised (sum p = {total!r})")
    return np.random.default_rng(seed).multinomial(shots, probs / total)


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
       per step, so no restart's result depends on how many follow it. The
       search scores ``len(grid) + 2 * sum(steps)`` loss points in all.
    4. The winner is the restart with the lowest expected energy over its
       ``eval_shots`` evaluation histogram (tie -> earlier restart).

    Every loss and every evaluation histogram is a ``sample`` of the state
    (``opt_shots`` and ``eval_shots`` shots) from the stream named above.
    This is ``_search`` on one problem, with ``cfg.seed`` as its seed.
    ``model`` must equal ``to_ising(q)`` (its ``h``, ``j`` and ``offset``).
    """
    ref = to_ising(q)
    if not (np.array_equal(model.h, ref.h) and np.array_equal(model.j, ref.j)
            and model.offset == ref.offset):
        raise ValueError("model is not to_ising(q) of this QUBO")
    return _search(enumerate_energies(q)[None, :], cfg, [cfg.seed])[0]


def _grid(cfg: QaoaConfig) -> np.ndarray:
    """The p = 1 (gamma, beta) grid of a window with this config."""
    budget = cfg.restarts * cfg.max_iters
    n_gamma, n_beta = _FINE_GRID if budget >= 2 * _FINE_GRID[0] * _FINE_GRID[1] else _COARSE_GRID
    return np.stack(np.meshgrid(
        np.arange(n_gamma) * (2.0 * np.pi / n_gamma),
        np.arange(n_beta) * (np.pi / n_beta),
        indexing="ij",
    ), axis=-1).reshape(-1, 2)


def _search(tables: np.ndarray, cfg: QaoaConfig, seeds) -> list[QaoaOutcome]:
    """``optimise_angles`` for every row of ``tables`` (a QUBO's
    ``enumerate_energies``) under ``cfg`` with the seed of the same index, all
    at once.

    Each step of the search is one pass over every problem: one loss call
    scores all grid points, one ``minimize`` call steps every (problem,
    restart) row, one pass draws the evaluation histograms. A problem's points
    use only its own table and generators, so its outcome is bit-identical to
    searching it alone.
    """
    n, p = len(tables), cfg.depth

    def loss(points: np.ndarray, owner: np.ndarray, rngs) -> np.ndarray:
        out = np.empty(len(points))
        for i, state in enumerate(_states(tables, owner, points)):
            out[i] = sample(state, cfg.opt_shots, rngs[i]) @ tables[owner[i]] / cfg.opt_shots
        return out

    streams = [np.random.SeedSequence(seed).spawn(cfg.restarts + 1) for seed in seeds]
    grid = _grid(cfg)
    grid_owner = np.repeat(np.arange(n), len(grid))
    grid_rngs = [np.random.default_rng(stream[0]) for stream in streams]
    grid_losses = loss(np.tile(grid, (n, 1)), grid_owner, [grid_rngs[i] for i in grid_owner])
    # each problem's best grid point, repeated over the p layers
    starts = np.repeat(grid[np.argmin(grid_losses.reshape(n, len(grid)), axis=1)], p, axis=1)

    owner = np.repeat(np.arange(n), cfg.restarts)
    rngs = [np.random.default_rng(s) for stream in streams for s in stream[1:]]
    x0 = np.array([starts[i] + rng.normal(0.0, _JITTER, size=2 * p) for i, rng in zip(owner, rngs)])
    steps = np.clip(np.arange(1, cfg.restarts + 1) * cfg.max_iters - len(grid), 0, cfg.max_iters) // 2
    x = minimize(lambda points, rows: loss(points, owner[rows], [rngs[r] for r in rows]),
                 x0, rngs, np.tile(steps, n))

    histograms = [sample(state, cfg.eval_shots, rng)
                  for state, rng in zip(_states(tables, owner, x), rngs)]
    w = tables.shape[1].bit_length() - 1
    outcomes = []
    for i, energies in enumerate(tables):
        rows = np.flatnonzero(owner == i)
        restart_energies = np.array([histograms[r] @ energies / cfg.eval_shots for r in rows])
        winner = int(np.argmin(restart_energies))  # tie -> earlier restart
        counts = histograms[rows[winner]]
        best_value = int(np.argmax(counts))  # tie -> lower bitstring value
        best_bits = BitSchedule(value_to_bits(best_value, w), float(energies[best_value]))
        outcomes.append(QaoaOutcome(best_bits, counts, restart_energies, x[rows]))
    return outcomes


@dataclass(frozen=True, eq=False)
class WindowDiagnostics:
    """Everything the scheduler decided for one walk-forward window, and
    ``brute_energy``, the exact optimum's energy: the least entry of the
    ``enumerate_energies`` table the window's search built, the float
    ``brute_force(qubo).energy`` returns."""

    start: int
    end: int
    qubo: QuboProblem
    outcome: QaoaOutcome
    brute_energy: float

    @property
    def gap(self) -> float:
        """QAOA energy minus the exact optimum, >= 0."""
        return self.outcome.best_energy - self.brute_energy


@dataclass(frozen=True, eq=False)
class ScheduleResult:
    """Global binary rebalancing schedule of one or more consecutive windows."""

    windows: tuple[WindowDiagnostics, ...]  # at least one, in day order

    @cached_property
    def bits(self) -> np.ndarray:
        """Each window's ``best_bits`` on its candidate days, 0 elsewhere, over
        ``windows[-1].end`` days; read-only."""
        bits = np.zeros(self.windows[-1].end, dtype=np.uint8)
        for win in self.windows:
            bits[win.qubo.candidates + win.start] = win.outcome.best_bits.bits
        return _read_only(bits)

    @property
    def total_rebalances(self) -> int:
        return int(self.bits.sum())


def walk_forward(
    test: ReturnPanel,
    targets,
    k_windows: int,
    w_count: int,
    cfgs,
    qubo_params: QuboParams = QuboParams(),
) -> tuple[ScheduleResult, ...]:
    """Chunk the test panel into ``k_windows`` equal windows (the last absorbs
    the remainder; each needs 2W + 2 days), build each window's QUBO from that
    window's returns only, solve it with multi-restart QAOA, and splice the
    winning local bits into a global schedule.

    ``targets`` is a sequence of weight vectors and ``cfgs`` one config per
    target; the configs may differ only in seed. A tuple of one
    ``ScheduleResult`` per target comes back, and every window of every
    target is solved in one batched search (``_search``).

    Window k's RNG stream is derived from its target's master seed and k
    alone, so perturbing a later window can never change an earlier window's
    schedule, and a window's outcome does not depend on the other windows or
    targets it is batched with.
    """
    if not (hasattr(targets, "__len__") and hasattr(cfgs, "__len__")) or len(cfgs) != len(targets):
        raise ValueError("need one QaoaConfig per target")
    if len({replace(cfg, seed=0) for cfg in cfgs}) > 1:
        raise ValueError("the configs of one walk_forward call may differ only in seed")
    t_total = test.n_days
    _check_count(k_windows, "k_windows")
    _check_count(w_count, "w_count")
    chunk = t_total // k_windows  # the shortest window
    if chunk < _min_window(w_count):
        raise ValueError(f"test panel of {t_total} days is too short for {k_windows} windows: "
                         f"need at least {k_windows * _min_window(w_count)} test days")
    spans = [(k * chunk, (k + 1) * chunk if k < k_windows - 1 else t_total)
             for k in range(k_windows)]
    segments = [test.slice_rows(start, end) for start, end in spans]
    qubos = [build_qubo(target, segment, w_count, qubo_params)
             for target in targets for segment in segments]
    seeds = [
        int(seed)
        for cfg in cfgs
        for seed in np.random.SeedSequence(cfg.seed).generate_state(k_windows, dtype=np.uint64)
    ]
    solved = []  # each window's QUBO, outcome and exact optimum, its table's least entry
    per_search = max(1, _BATCH_ENERGIES >> w_count)
    for lo in range(0, len(qubos), per_search):
        tables = np.array([enumerate_energies(qp) for qp in qubos[lo : lo + per_search]])
        outcomes = _search(tables, cfgs[0], seeds[lo : lo + per_search])
        solved += zip(qubos[lo : lo + per_search], outcomes, tables.min(axis=1).tolist())

    return tuple(
        ScheduleResult(tuple(
            WindowDiagnostics(start, end, *solved[t * k_windows + k])
            for k, (start, end) in enumerate(spans)
        ))
        for t in range(len(targets))
    )
