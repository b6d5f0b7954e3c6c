"""Statevector QAOA for schedule QUBOs: Ising mapping, depth-p ansatz
simulation, shot sampling, multi-restart angle optimisation, and the
walk-forward scheduling driver.

The cost layer is applied as diagonal phases per basis state (mathematically
identical to the gate decomposition into Rz/CNOT, and far faster); the table
of 2^W phases is built once per model (``IsingModel.phases``) and reused by
every ansatz evaluation. The mixer is a product of single-qubit Rx(2*beta)
rotations. All randomness flows from one master seed through per-restart (and
per-window) derived streams, so serial and parallel execution order cannot
change results.

scipy is imported only when the angle optimiser first runs (``minimize``), so
importing this module, or any CLI stage other than ``schedule``, does not
load it.
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
OPTIMISER = "scipy-COBYLA"


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``, imported on first use."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


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
    max_iters: int = 150
    seed: int = 0
    exact_expectation: bool = False  # debug mode: noiseless loss instead of shots

    def __post_init__(self) -> None:
        for name in ("depth", "restarts", "opt_shots", "eval_shots", "max_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True, eq=False)
class QaoaOutcome:
    """Result of a multi-restart run on one QUBO.

    ``best_bits`` is the highest-count bitstring of the winning restart's
    evaluation histogram (count ties -> lower bitstring value) and
    ``best_energy`` is that bitstring's energy x' Q x. ``histogram`` holds the
    winner's evaluation counts indexed by bitstring value;
    ``restart_energies`` the per-restart final expected energies.
    """

    best_bits: BitSchedule
    histogram: np.ndarray
    best_energy: float
    angles: np.ndarray  # gamma_1..gamma_p, beta_1..beta_p of the winner
    restart_energies: np.ndarray
    eval_shots: int

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
    """
    w = model.w
    if w > STATEVECTOR_LIMIT:
        raise ValueError(f"W = {w} exceeds the statevector guard ({STATEVECTOR_LIMIT})")
    gammas = np.asarray(gammas, dtype=float).ravel()
    betas = np.asarray(betas, dtype=float).ravel()
    if gammas.size != betas.size:
        raise ValueError("need one beta per gamma")

    phase = model.phases
    axes = list(range(w))
    psi = np.full(2 ** w, 2.0 ** (-w / 2.0), dtype=complex)
    for gamma, beta in zip(gammas, betas):
        psi = psi * np.exp(-1j * gamma * phase)
        c, s = np.cos(beta), np.sin(beta)
        rx = np.array([[c, -1j * s], [-1j * s, c]])
        psi = psi.reshape((2,) * w)
        for k in range(w):
            # the single product np.tensordot(rx, psi, axes=([1], [k])) forms,
            # without its bookkeeping: same operands, same bits
            front = psi.transpose([k, *axes[:k], *axes[k + 1:]]).reshape(2, -1)
            psi = np.moveaxis(np.dot(rx, front).reshape((2,) * w), 0, k)
        psi = psi.reshape(-1)
    return psi


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
    """Multi-restart derivative-free angle search minimising the sampled
    expected energy.

    Each restart draws initial angles uniformly from [0, 2pi]^p x [0, pi]^p
    and runs COBYLA (bounded iterations, angles unbounded; the landscape is
    periodic) on the shot-estimated loss. The winner is the restart with the
    lowest expected energy over its ``eval_shots`` evaluation histogram;
    restarts own independent RNG streams, so they can run in any order.
    """
    mat = q.q if isinstance(q, QuboProblem) else np.atleast_2d(np.asarray(q, float))
    if mat.shape[0] != model.w:
        raise ValueError("model and QUBO sizes differ")
    energies = enumerate_energies(mat)
    p = cfg.depth

    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    per_restart: list[tuple[float, np.ndarray, np.ndarray]] = []
    for stream in streams:
        rng = np.random.default_rng(stream)
        x0 = np.concatenate([
            rng.uniform(0.0, 2.0 * np.pi, size=p),
            rng.uniform(0.0, np.pi, size=p),
        ])

        def loss(angles: np.ndarray) -> float:
            psi = simulate_ansatz(model, angles[:p], angles[p:])
            probs = np.abs(psi) ** 2
            if cfg.exact_expectation:
                return float(probs @ energies)
            counts = rng.multinomial(cfg.opt_shots, probs / probs.sum())
            return float(counts @ energies / cfg.opt_shots)

        res = minimize(loss, x0, method="COBYLA", options={"maxiter": cfg.max_iters})
        psi = simulate_ansatz(model, res.x[:p], res.x[p:])
        probs = np.abs(psi) ** 2
        counts = rng.multinomial(cfg.eval_shots, probs / probs.sum())
        per_restart.append((float(counts @ energies / cfg.eval_shots), res.x, counts))

    restart_energies = np.array([e for e, _, _ in per_restart])
    winner = int(np.argmin(restart_energies))  # tie -> earlier restart
    _, angles, counts = per_restart[winner]
    best_value = int(np.argmax(counts))  # tie -> lower bitstring value
    best_bits = BitSchedule(value_to_bits(best_value, model.w), float(energies[best_value]))
    return QaoaOutcome(
        best_bits=best_bits,
        histogram=counts,
        best_energy=float(energies[best_value]),
        angles=np.asarray(angles, dtype=float),
        restart_energies=restart_energies,
        eval_shots=cfg.eval_shots,
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
