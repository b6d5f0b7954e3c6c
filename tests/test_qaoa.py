import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from quantfolio import (
    QaoaConfig,
    WeightVector,
    brute_force,
    ising_energy,
    optimise_angles,
    sample,
    simulate_ansatz,
    synth_panel,
    to_ising,
    to_returns,
    walk_forward,
)
from quantfolio import qaoa, schedule_qubo
from quantfolio.allocation import METHODS
from quantfolio.cli import _schedule_record
from quantfolio.qaoa import IsingModel, QaoaOutcome, ScheduleResult, WindowDiagnostics
from quantfolio.schedule_qubo import (
    BitSchedule, QuboProblem, _table, bits_to_str, enumerate_energies, value_to_bits,
)


def random_symmetric(rng, w, scale=1.0):
    a = rng.uniform(-scale, scale, size=(w, w))
    return (a + a.T) / 2


class TestToIsing:
    def test_separable_diagonal(self):
        model = to_ising(np.diag([-1.0, -1.0]))
        # x = (1,1) i.e. z = (-1,-1) is the ground state at energy -2
        assert ising_energy(model, [1, 1]) == pytest.approx(-2.0, abs=1e-15)
        energies = {bits: ising_energy(model, bits) for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]}
        assert min(energies, key=energies.get) == (1, 1)

    def test_zero_qubo(self):
        model = to_ising(np.zeros((3, 3)))
        np.testing.assert_array_equal(model.h, np.zeros(3))
        np.testing.assert_array_equal(model.j, np.zeros((3, 3)))
        assert model.offset == 0.0

    def test_energy_identity_exhaustive(self):
        rng = np.random.default_rng(1)
        q = random_symmetric(rng, 6)
        model = to_ising(q)
        for bits in itertools.product((0, 1), repeat=6):
            x = np.array(bits, dtype=float)
            assert x @ q @ x == pytest.approx(ising_energy(model, bits), abs=1e-12)

    def test_accepts_asymmetric_by_symmetrising(self):
        q = np.array([[1.0, 2.0], [0.0, -1.0]])
        model = to_ising(q)
        sym = (q + q.T) / 2
        for bits in itertools.product((0, 1), repeat=2):
            x = np.array(bits, dtype=float)
            assert x @ sym @ x == pytest.approx(ising_energy(model, bits), abs=1e-14)

    @pytest.mark.parametrize("w", [1, 2, 5, 9])
    def test_upper_triangular_equals_its_symmetric_part(self, w):
        """An upper-triangular Q holds the same quadratic form as its symmetric
        part, and both paths read that one symmetric matrix, bit for bit."""
        rng = np.random.default_rng(40 + w)
        upper = np.triu(rng.uniform(-1, 1, size=(w, w)))
        sym = (upper + upper.T) / 2
        got, ref = to_ising(upper), to_ising(sym)
        assert np.array_equal(got.h, ref.h)
        assert np.array_equal(got.j, ref.j)
        assert got.offset == ref.offset
        assert np.array_equal(enumerate_energies(upper), enumerate_energies(sym))


def kron_oracle_state(model, gammas, betas):
    """Dense-matrix circuit simulation via scipy expm: an independent path.

    Qubit 0 is the leading kron factor, matching the package's MSB-first
    basis indexing.
    """
    w = model.h.size
    eye = np.eye(2)
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])

    def on(qubit, op):
        mats = [eye] * w
        mats[qubit] = op
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    h_cost = sum(model.h[i] * on(i, z) for i in range(w))
    for i in range(w):
        for j in range(i + 1, w):
            if model.j[i, j] != 0.0:
                h_cost = h_cost + model.j[i, j] * (on(i, z) @ on(j, z))
    h_mix = sum(on(i, x) for i in range(w))

    psi = np.full(2**w, 2.0 ** (-w / 2.0), dtype=complex)
    for gamma, beta in zip(gammas, betas):
        psi = expm(-1j * gamma * h_cost) @ psi
        psi = expm(-1j * beta * h_mix) @ psi
    return psi


class TestSimulateAnsatz:
    def test_zero_angles_is_uniform(self):
        model = to_ising(np.diag([0.3, -0.7, 0.1]))
        psi = simulate_ansatz(model, [0.0], [0.0])
        np.testing.assert_allclose(np.abs(psi) ** 2, np.full(8, 1 / 8), atol=1e-14)

    def test_single_qubit_closed_form(self):
        model = IsingModel(h=np.array([1.0]), j=np.zeros((1, 1)), offset=0.0)
        psi = simulate_ansatz(model, [np.pi / 2], [np.pi / 4])
        ref = kron_oracle_state(model, [np.pi / 2], [np.pi / 4])
        np.testing.assert_allclose(psi, ref, atol=1e-12)

    def test_matches_dense_oracle_with_couplings(self):
        rng = np.random.default_rng(2)
        q = random_symmetric(rng, 3)
        model = to_ising(q)
        gammas = rng.uniform(0, 2 * np.pi, size=2)
        betas = rng.uniform(0, np.pi, size=2)
        psi = simulate_ansatz(model, gammas, betas)
        # both paths apply H_C without its constant offset, so amplitudes match exactly
        ref = kron_oracle_state(model, gammas, betas)
        np.testing.assert_allclose(psi, ref, atol=1e-11)

    def test_matches_dense_oracle_six_qubits(self):
        rng = np.random.default_rng(12)
        q = random_symmetric(rng, 6)
        model = to_ising(q)
        gammas = rng.uniform(0, 2 * np.pi, size=2)
        betas = rng.uniform(0, np.pi, size=2)
        psi = simulate_ansatz(model, gammas, betas)
        ref = kron_oracle_state(model, gammas, betas)
        np.testing.assert_allclose(psi, ref, atol=1e-11)

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        q = random_symmetric(rng, 5)
        model = to_ising(q)
        psi = simulate_ansatz(model, rng.uniform(0, 6, 3), rng.uniform(0, 3, 3))
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_guard(self):
        model = IsingModel(h=np.zeros(25), j=np.zeros((25, 25)), offset=0.0)
        with pytest.raises(ValueError, match="guard"):
            simulate_ansatz(model, [0.1], [0.1])


def reference_phase_energies(model):
    """The cost-phase table as the simulator once rebuilt it on every call."""
    w = model.h.size
    z_axis = np.array([1.0, -1.0])

    def axis_view(i):
        shape = [1] * w
        shape[i] = 2
        return z_axis.reshape(shape)

    energies = np.zeros((2,) * w)
    for i in range(w):
        if model.h[i] != 0.0:
            energies += model.h[i] * axis_view(i)
        for jj in range(i + 1, w):
            if model.j[i, jj] != 0.0:
                energies += model.j[i, jj] * (axis_view(i) * axis_view(jj))
    return energies.reshape(-1)


def reference_ansatz(model, gammas, betas):
    """The tensordot + moveaxis simulator with a per-call phase table, an
    earlier kernel of the package: the reference where the dense oracle is
    too large."""
    w = model.h.size
    phase = reference_phase_energies(model)
    psi = np.full(2**w, 2.0 ** (-w / 2.0), dtype=complex)
    for gamma, beta in zip(gammas, betas):
        psi = psi * np.exp(-1j * gamma * phase)
        c, s = np.cos(beta), np.sin(beta)
        rx = np.array([[c, -1j * s], [-1j * s, c]])
        psi = psi.reshape((2,) * w)
        for k in range(w):
            psi = np.moveaxis(np.tensordot(rx, psi, axes=([1], [k])), 0, k)
        psi = psi.reshape(-1)
    return psi


class TestKernelBitIdentity:
    @pytest.mark.parametrize("w", [1, 2, 5, 8, 12])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_simulate_ansatz_matches_reference_bits(self, w, depth):
        # the swapped-halves mixer and the energy-table phases round
        # differently from the old tensordot kernel in the last bits (at
        # W = 2, say), so the contract is the dense expm oracle at 1e-12; at
        # W = 12 that oracle is a 4096 x 4096 expm, so the old kernel stands in
        rng = np.random.default_rng(100 * w + depth)
        model = to_ising(random_symmetric(rng, w))
        gammas = rng.uniform(0, 2 * np.pi, size=depth)
        betas = rng.uniform(0, np.pi, size=depth)
        ref = kron_oracle_state(model, gammas, betas) if w <= 8 else reference_ansatz(model, gammas, betas)
        np.testing.assert_allclose(simulate_ansatz(model, gammas, betas), ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("w", [1, 3, 6, 13])
    def test_batch_rows_equal_single_calls(self, w):
        rng = np.random.default_rng(200 + w)
        model = to_ising(random_symmetric(rng, w))
        gammas = rng.uniform(0, 2 * np.pi, size=(5, 2))
        betas = rng.uniform(0, np.pi, size=(5, 2))
        batch = simulate_ansatz(model, gammas, betas)
        assert batch.shape == (5, 2**w)
        for row, g, b in zip(batch, gammas, betas):
            assert np.array_equal(row, simulate_ansatz(model, g, b))
            if w <= 6:
                np.testing.assert_allclose(row, kron_oracle_state(model, g, b), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("w", [1, 2, 4, 8, 12])
    @pytest.mark.parametrize("rows", [2, 7, 64])
    def test_rows_with_their_own_tables_equal_single_calls(self, w, rows):
        # the lockstep search mixes rows of different QUBOs in one call
        rng = np.random.default_rng(300 + 10 * w + rows)
        tables = np.array([enumerate_energies(random_symmetric(rng, w)) for _ in range(rows)])
        gammas = rng.uniform(0, 2 * np.pi, size=(rows, 2))
        betas = rng.uniform(0, np.pi, size=(rows, 2))
        batch = simulate_ansatz(tables, gammas, betas)
        for row, table, g, b in zip(batch, tables, gammas, betas):
            assert np.array_equal(row, simulate_ansatz(table, g, b))

    def test_energy_table_gives_the_model_state_up_to_global_phase(self):
        rng = np.random.default_rng(5)
        q = random_symmetric(rng, 6)
        model = to_ising(q)
        gammas, betas = rng.uniform(0, np.pi, size=(2, 3))
        from_model = simulate_ansatz(model, gammas, betas)
        from_table = simulate_ansatz(enumerate_energies(q), gammas, betas)
        # the QUBO energies are the Ising energies plus the offset
        np.testing.assert_allclose(
            from_table, from_model * np.exp(-1j * gammas.sum() * model.offset), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("shapes", [((3, 2), (3, 1)), ((3, 2), (2, 2)), ((3, 2), (6,)),
                                        ((2,), (3,)), ((1, 2, 2), (1, 2, 2))])
    def test_mismatched_angle_shapes_raise(self, shapes):
        model = to_ising(random_symmetric(np.random.default_rng(9), 3))
        with pytest.raises(ValueError, match="one beta per gamma"):
            simulate_ansatz(model, np.zeros(shapes[0]), np.zeros(shapes[1]))

    @pytest.mark.parametrize("table_shape", [(6,), (2, 3, 4), (3, 8), ()])
    def test_bad_energy_tables_raise(self, table_shape):
        with pytest.raises(ValueError, match="energ"):
            simulate_ansatz(np.zeros(table_shape), np.zeros((2, 1)), np.zeros((2, 1)))


@st.composite
def symmetric_qubos(draw):
    w = draw(st.integers(min_value=1, max_value=10))
    a = draw(arrays(np.float64, (w, w), elements=st.floats(-10.0, 10.0)))
    return (a + a.T) / 2


class TestQuboIsingProperties:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(q=symmetric_qubos(), data=st.data())
    def test_ising_energy_equals_qubo_energy(self, q, data):
        w = q.shape[0]
        bits = data.draw(arrays(np.int8, w, elements=st.integers(0, 1)))
        x = bits.astype(float)
        tol = 1e-12 * max(1.0, np.abs(q).sum())
        assert ising_energy(to_ising(q), bits) == pytest.approx(x @ q @ x, abs=tol)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(q=symmetric_qubos())
    def test_cost_table_plus_offset_equal_enumerated_energies(self, q):
        # the cost-phase table of simulate_ansatz(model, ...): the one builder on +-1 spins
        model = to_ising(q)
        spins = _table(model.h, model.j, (1, -1))
        tol = 1e-12 * max(1.0, np.abs(q).sum())
        np.testing.assert_allclose(spins + model.offset, enumerate_energies(q), rtol=0, atol=tol)
        np.testing.assert_allclose(spins, reference_phase_energies(model), rtol=0, atol=tol)


class TestSample:
    def test_basis_state_all_shots(self):
        state = np.zeros(8, dtype=complex)
        state[5] = 1.0
        counts = sample(state, 1000, seed=0)
        assert counts[5] == 1000
        assert counts.sum() == 1000

    def test_deterministic_per_seed(self):
        state = np.full(4, 0.5, dtype=complex)
        a = sample(state, 2048, seed=7)
        b = sample(state, 2048, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_uniform_frequencies_within_binomial_bound(self):
        w = 8
        state = np.full(2**w, 2.0 ** (-w / 2), dtype=complex)
        shots = 4096
        counts = sample(state, shots, seed=11)
        p = 1 / 2**w
        sigma = np.sqrt(shots * p * (1 - p))
        assert np.all(np.abs(counts - shots * p) <= 5 * sigma)

    def test_draws_as_multinomial_on_a_passed_generator(self):
        # the search's bit-identity rests on this: sample(state, n, gen)
        # advances gen exactly as gen.multinomial(n, p) does
        w = 6
        gammas, betas = np.array([0.4, 1.1]), np.array([0.7, 0.2])
        state = simulate_ansatz(to_ising(random_symmetric(np.random.default_rng(12), w)), gammas, betas)
        probs = np.abs(state) ** 2
        mine, ref = np.random.default_rng(13), np.random.default_rng(13)
        for shots in (1, 64, 4096):
            np.testing.assert_array_equal(sample(state, shots, mine),
                                          ref.multinomial(shots, probs / probs.sum()))
        assert mine.bit_generator.state == ref.bit_generator.state

    def test_rejects_unnormalised(self):
        with pytest.raises(ValueError, match="normalised"):
            sample(np.array([1.0, 1.0], dtype=complex), 10, seed=0)


FAST = QaoaConfig(depth=2, restarts=3, opt_shots=512, eval_shots=1024, max_iters=60, seed=5)


class TestOptimiseAngles:
    def test_strong_negative_diagonal_found(self):
        q = np.diag([0.2, 0.2, -1.0, 0.2])
        out = optimise_angles(to_ising(q), q, FAST)
        ref = brute_force(q)
        np.testing.assert_array_equal(out.best_bits.bits, ref.bits)
        assert out.best_energy == pytest.approx(ref.energy, abs=1e-12)

    def test_zero_qubo(self):
        q = np.zeros((3, 3))
        out = optimise_angles(to_ising(q), q, FAST)
        assert out.best_energy == 0.0
        np.testing.assert_array_equal(out.restart_energies, np.zeros(3))

    def test_histogram_sums_to_eval_shots(self):
        rng = np.random.default_rng(4)
        q = random_symmetric(rng, 4)
        out = optimise_angles(to_ising(q), q, FAST)
        assert out.histogram.sum() == FAST.eval_shots

    def test_best_bits_is_histogram_mode(self):
        rng = np.random.default_rng(5)
        q = random_symmetric(rng, 4)
        out = optimise_angles(to_ising(q), q, FAST)
        assert out.histogram[int("".join(map(str, out.best_bits.bits)), 2)] == out.histogram.max()

    def test_histogram_rows_equal_the_lexsort_form(self):
        """``histogram_rows`` equals its ``np.lexsort``/``bits_to_str`` form on
        histograms with ties and zeros, W = 1..14."""

        def lexsort_rows(counts):
            order = np.lexsort((np.arange(counts.size), -counts))
            w = int(np.log2(counts.size).round())
            return [(bits_to_str(value_to_bits(int(v), w)), int(counts[v]))
                    for v in order[counts[order] > 0]]

        rng = np.random.default_rng(170)
        for w in range(1, 15):
            size = 2 ** w
            for counts in (rng.integers(0, 4, size), np.bincount(rng.integers(0, size, 64),
                                                                  minlength=size)):
                outcome = QaoaOutcome(BitSchedule(np.zeros(w), 0.0), counts,
                                      np.zeros(1), np.zeros((1, 2)))
                assert outcome.histogram_rows() == lexsort_rows(outcome.histogram)

    def test_returned_energy_bounded_by_worst_sample(self):
        rng = np.random.default_rng(6)
        for i in range(5):
            q = random_symmetric(rng, 5)
            out = optimise_angles(to_ising(q), q, QaoaConfig(
                depth=1, restarts=2, opt_shots=256, eval_shots=512, max_iters=40, seed=i,
            ))
            energies = enumerate_energies(q)
            worst_sampled = energies[out.histogram > 0].max()
            assert out.best_energy <= worst_sampled + 1e-12

    def test_rejects_a_model_of_another_qubo(self):
        rng = np.random.default_rng(9)
        a, b = random_symmetric(rng, 4), random_symmetric(rng, 4)
        for model in (to_ising(a), to_ising(b[:3, :3]),
                      IsingModel(to_ising(b).h, to_ising(b).j, to_ising(b).offset + 1.0)):
            with pytest.raises(ValueError, match="model is not to_ising"):
                optimise_angles(model, b, FAST)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        q = random_symmetric(rng, 4)
        model = to_ising(q)
        a = optimise_angles(model, q, FAST)
        b = optimise_angles(model, q, FAST)
        np.testing.assert_array_equal(a.histogram, b.histogram)
        np.testing.assert_array_equal(a.best_bits.bits, b.best_bits.bits)
        np.testing.assert_array_equal(a.angles, b.angles)


class TestAngleSearch:
    def test_restart_prefix_does_not_depend_on_restart_count(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            q = random_symmetric(rng, 5)
            model = to_ising(q)
            # few shots, so the grid's pick hangs on the grid stream
            cfg = replace(FAST, opt_shots=8, seed=seed)
            three = optimise_angles(model, q, cfg)
            five = optimise_angles(model, q, replace(cfg, restarts=5))
            assert np.array_equal(five.restart_angles[:3], three.restart_angles)
            assert np.array_equal(five.restart_energies[:3], three.restart_energies)
            assert five.restart_energies.min() <= three.restart_energies.min()

    @pytest.mark.parametrize("restarts,max_iters", [(1, 32), (2, 30), (3, 60), (5, 150), (4, 19)])
    def test_loss_evaluations_within_budget(self, monkeypatch, restarts, max_iters):
        rows = []

        def counting(model, gammas, betas):
            rows.append(np.shape(gammas)[0] if np.ndim(gammas) == 2 else 1)
            return simulate_ansatz(model, gammas, betas)

        monkeypatch.setattr(qaoa, "simulate_ansatz", counting)
        q = random_symmetric(np.random.default_rng(10), 4)
        cfg = replace(FAST, restarts=restarts, max_iters=max_iters)
        optimise_angles(to_ising(q), q, cfg)
        # every simulated row is one loss evaluation, except each restart's
        # final evaluation histogram
        loss_evals = sum(rows) - restarts
        budget = restarts * max_iters
        assert budget - 2 * restarts <= loss_evals <= budget

    def test_budget_below_the_grid_rejected(self):
        with pytest.raises(ValueError, match="restarts x max_iters"):
            QaoaConfig(restarts=1, max_iters=31)

    def test_batches_chunked_at_2_to_14_amplitudes(self, monkeypatch):
        sizes = []

        def recording(model, gammas, betas):
            state = simulate_ansatz(model, gammas, betas)
            sizes.append(state.size)
            return state

        monkeypatch.setattr(qaoa, "simulate_ansatz", recording)
        q = random_symmetric(np.random.default_rng(11), 12)
        cfg = QaoaConfig(depth=1, restarts=3, opt_shots=64, eval_shots=64, max_iters=16, seed=2)
        optimise_angles(to_ising(q), q, cfg)
        # the 32-point grid runs as 8 batches of 4 states; the grid uses up
        # restarts 0 and 1, so restart 2's 8 SPSA steps are batches of 2
        # states, and the final evaluation is one batch of 3
        assert max(sizes) == 2**14
        assert sizes == [2**14] * 8 + [2**13] * 8 + [3 * 2**12]

    def test_spsa_steps_down_a_quadratic(self):
        rngs = [np.random.default_rng(s) for s in (1, 2)]
        x0 = np.array([[1.0, -1.0, 0.5], [2.0, 0.0, -2.0]])
        points = []

        def fun(pts, _):
            points.append(len(pts))
            return (pts**2).sum(axis=1)

        x = qaoa.minimize(fun, x0, rngs, np.array([200, 100]))
        assert sum(points) == 2 * (200 + 100)
        assert np.all(np.abs(x) < 0.05)
        assert not x.flags.writeable

    # (max_iters, grid points, steps of the 3 restarts): a budget of 180 >= 144
    # takes the 12 x 6 grid; 75 < 144 the 8 x 4 one, and odd shares round down
    @pytest.mark.parametrize("max_iters, grid, steps", [
        (60, 72, [0, 24, 30]),
        (25, 32, [0, 9, 12]),
    ], ids=["fine-grid", "coarse-grid"])
    def test_search_samples_grid_plus_two_points_per_step(self, monkeypatch, max_iters, grid,
                                                          steps):
        shots = []

        def counting(state, n, seed):
            shots.append(n)
            return sample(state, n, seed)

        monkeypatch.setattr(qaoa, "sample", counting)
        rng = np.random.default_rng(12)
        tables = np.array([enumerate_energies(random_symmetric(rng, 4)) for _ in range(2)])
        cfg = QaoaConfig(depth=2, restarts=3, opt_shots=64, eval_shots=128,
                         max_iters=max_iters, seed=3)
        qaoa._search(tables, cfg, [1, 2])
        assert len(qaoa._grid(cfg)) == grid
        # per problem: every grid point, two points per SPSA step, and one
        # evaluation histogram per restart
        assert shots.count(cfg.opt_shots) == 2 * (grid + 2 * sum(steps))
        assert shots.count(cfg.eval_shots) == 2 * cfg.restarts


class TestBatchedSearch:
    """Every window of every target is searched in one lockstep batch; each
    window's outcome must equal the one it gets when solved alone."""

    @staticmethod
    def targets(panel, rng):
        raw = rng.uniform(0.05, 1.0, size=(len(METHODS), panel.n_assets))
        return [WeightVector(panel.tickers, r / r.sum(), m) for m, r in zip(METHODS, raw)]

    @pytest.mark.parametrize("w", [4, 8])
    @pytest.mark.parametrize("k_windows", [1, 3])
    def test_window_outcome_same_alone_and_in_all_methods_batch(self, w, k_windows):
        for seed in range(3):
            rng = np.random.default_rng(1000 * w + 10 * k_windows + seed)
            panel = to_returns(synth_panel(seed=50 + seed, T=k_windows * (4 * w) + 1, M=3))
            targets = self.targets(panel, rng)
            cfgs = [QaoaConfig(depth=2, restarts=3, opt_shots=64, eval_shots=256,
                               max_iters=40, seed=int(s)) for s in rng.integers(0, 2**31, 4)]
            batch = walk_forward(panel, targets, k_windows, w, cfgs)
            assert len(batch) == len(targets)
            for target, cfg, result in zip(targets, cfgs, batch):
                single = walk_forward(panel, [target], k_windows, w, [cfg])[0]
                seeds = np.random.SeedSequence(cfg.seed).generate_state(k_windows, dtype=np.uint64)
                np.testing.assert_array_equal(single.bits, result.bits)
                for win, one, window_seed in zip(result.windows, single.windows, seeds):
                    alone = optimise_angles(to_ising(win.qubo), win.qubo,
                                            replace(cfg, seed=int(window_seed)))
                    for other in (alone, one.outcome):
                        assert np.array_equal(win.outcome.histogram, other.histogram)
                        assert np.array_equal(win.outcome.restart_angles, other.restart_angles)
                        assert np.array_equal(win.outcome.restart_energies, other.restart_energies)
                        assert np.array_equal(win.outcome.best_bits.bits, other.best_bits.bits)

    def test_one_config_per_target(self):
        panel = to_returns(synth_panel(seed=62, T=60, M=2))
        targets = self.targets(panel, np.random.default_rng(0))
        # a sequence of targets and a list of configs is the one convention:
        # a lone config, with one target or several, is no list of configs,
        # and a lone target is no sequence of targets
        for args in ((targets, [wf_config()]), (targets, wf_config()),
                     (targets[0], wf_config()), (targets[0], [wf_config()])):
            with pytest.raises(ValueError, match="one QaoaConfig per target"):
                walk_forward(panel, args[0], 1, 4, args[1])

    @pytest.mark.parametrize("field,value", [("depth", 2), ("restarts", 3), ("max_iters", 40),
                                             ("opt_shots", 128), ("eval_shots", 100)])
    def test_configs_may_differ_only_in_seed(self, field, value):
        panel = to_returns(synth_panel(seed=63, T=60, M=2))
        targets = self.targets(panel, np.random.default_rng(0))[:2]
        other = replace(wf_config(seed=4), **{field: value})
        with pytest.raises(ValueError, match="differ only in seed"):
            walk_forward(panel, targets, 1, 4, [wf_config(), other])

    def test_wide_windows_split_into_several_searches(self, monkeypatch):
        panel = to_returns(synth_panel(seed=64, T=3 * 32 + 1, M=2))
        targets = self.targets(panel, np.random.default_rng(1))[:2]
        one_search = walk_forward(panel, targets[:1], 3, 8, [wf_config()])[0]
        calls = []
        search = qaoa._search

        def recording(tables, cfg, seeds):
            calls.append(len(seeds))
            return search(tables, cfg, seeds)

        monkeypatch.setattr(qaoa, "_search", recording)
        monkeypatch.setattr(qaoa, "_BATCH_ENERGIES", 2**10)
        results = walk_forward(panel, targets, 3, 8, [wf_config(), wf_config(seed=9)])
        # 2^10 table entries hold four 2^8 tables: 6 windows in searches of 4 and 2
        assert calls == [4, 2]
        for win, one in zip(results[0].windows, one_search.windows):
            assert np.array_equal(win.outcome.histogram, one.outcome.histogram)


def wf_config(**kw):
    defaults = dict(depth=1, restarts=2, opt_shots=256, eval_shots=512, max_iters=30, seed=3)
    defaults.update(kw)
    return QaoaConfig(**defaults)


def wf_target(panel):
    n = panel.n_assets
    return WeightVector(panel.tickers, np.full(n, 1.0 / n), "Equal")


class TestWalkForward:
    def test_249_days_gives_three_83_day_windows(self):
        panel = to_returns(synth_panel(seed=30, T=250, M=3))
        assert panel.n_days == 249
        result = walk_forward(panel, [wf_target(panel)], 3, 8, [wf_config()])[0]
        spans = [(w.start, w.end) for w in result.windows]
        assert spans == [(0, 83), (83, 166), (166, 249)]
        assert result.bits.size == 249

    def test_single_window(self):
        panel = to_returns(synth_panel(seed=31, T=60, M=2))
        result = walk_forward(panel, [wf_target(panel)], 1, 4, [wf_config()])[0]
        assert len(result.windows) == 1
        assert result.windows[0].end == panel.n_days

    def test_last_window_absorbs_remainder(self):
        panel = to_returns(synth_panel(seed=32, T=101, M=2))  # 100 rows, K=3
        result = walk_forward(panel, [wf_target(panel)], 3, 4, [wf_config()])[0]
        assert [(w.start, w.end) for w in result.windows] == [(0, 33), (33, 66), (66, 100)]

    def test_schedule_bits_match_window_outcomes(self):
        panel = to_returns(synth_panel(seed=33, T=130, M=3))
        result = walk_forward(panel, [wf_target(panel)], 3, 4, [wf_config()])[0]
        rebuilt = np.zeros(panel.n_days, dtype=np.uint8)
        for win in result.windows:
            rebuilt[win.qubo.candidates + win.start] = win.outcome.best_bits.bits
        np.testing.assert_array_equal(result.bits, rebuilt)
        assert result.total_rebalances == int(result.bits.sum())

    def test_no_lookahead(self):
        base = to_returns(synth_panel(seed=34, T=121, M=3))  # 120 rows
        gross = base.gross_returns.copy()
        rng = np.random.default_rng(99)
        gross[80:] *= np.exp(rng.normal(0, 0.02, size=gross[80:].shape))  # chunk 2 only
        from quantfolio import ReturnPanel

        perturbed = ReturnPanel(base.dates, base.tickers, gross)
        target = wf_target(base)
        cfg = wf_config()
        a = walk_forward(base, [target], 3, 4, [cfg])[0]
        b = walk_forward(perturbed, [target], 3, 4, [cfg])[0]
        np.testing.assert_array_equal(a.bits[:80], b.bits[:80])
        for k in (0, 1):
            np.testing.assert_array_equal(
                a.windows[k].outcome.best_bits.bits, b.windows[k].outcome.best_bits.bits
            )

    def test_gap_non_negative(self):
        panel = to_returns(synth_panel(seed=35, T=130, M=3))
        result = walk_forward(panel, [wf_target(panel)], 2, 5, [wf_config()])[0]
        for win in result.windows:
            assert win.gap is not None
            assert win.gap >= 0.0
            assert win.brute_energy == brute_force(win.qubo).energy

    def test_one_energy_table_per_window(self, monkeypatch):
        # the search's table gives the exact optimum too: neither walk_forward
        # nor the window record builds a second one, under either module's name
        panel = to_returns(synth_panel(seed=35, T=130, M=3))
        calls = []
        for module in (qaoa, schedule_qubo):
            monkeypatch.setattr(module, "enumerate_energies",
                                lambda q: calls.append(q) or enumerate_energies(q))
        result = walk_forward(panel, [wf_target(panel)], 2, 5, [wf_config()])[0]
        _schedule_record("GA", result)
        assert calls == [win.qubo for win in result.windows]

    def test_exact_optimum_above_sixteen_candidates(self):
        # every window reports its exact optimum and gap, W = 17 included
        w = 17
        raw = np.random.default_rng(17).normal(size=(w, w))
        qubo = QuboProblem((raw + raw.T) / 2.0, 1.0, np.arange(1, w + 1), np.zeros(w), {})
        histogram = np.zeros(2 ** w, dtype=int)
        histogram[0] = 8
        outcome = QaoaOutcome(BitSchedule(np.zeros(w), 0.0), histogram,
                              np.zeros(1), np.zeros((1, 2)))
        win = WindowDiagnostics(0, w + 2, qubo, outcome, brute_force(qubo).energy)
        assert isinstance(win.gap, float)
        assert win.gap == -win.brute_energy > 0.0
        blob = _schedule_record("GA", ScheduleResult((win,)))["windows"][0]
        assert blob["brute_force_energy"] == win.brute_energy
        assert blob["gap"] == win.gap

    def test_too_short_panel_rejected(self):
        panel = to_returns(synth_panel(seed=36, T=18, M=2))  # 17 rows < 3 * (2 * 4 + 2)
        with pytest.raises(ValueError, match="too short"):
            walk_forward(panel, [wf_target(panel)], 3, 4, [wf_config()])

    def test_packed_candidates_error_propagates(self):
        # chunks of 6 days would pack the 4 candidates into 1-day forward spans;
        # the window rule names the test days, the windows and the minimum
        panel = to_returns(synth_panel(seed=36, T=20, M=2))
        with pytest.raises(ValueError, match="test panel of 19 days is too short for 3 windows: "
                                             "need at least 30 test days"):
            walk_forward(panel, [wf_target(panel)], 3, 4, [wf_config()])

    def test_raises_before_any_qubo_iff_the_shortest_window_is_under_2w_plus_2(
            self, monkeypatch):
        panel = to_returns(synth_panel(seed=39, T=60, M=2))
        built, searched, build = [], [], qaoa.build_qubo

        class Searched(Exception):
            pass

        def search(tables, cfg, seeds):
            searched.append(len(seeds))
            raise Searched

        monkeypatch.setattr(qaoa, "build_qubo", lambda *args: built.append(args) or build(*args))
        monkeypatch.setattr(qaoa, "_search", search)
        for k in (1, 2, 3):
            for w in (1, 2, 4, 6):
                minimum = k * (2 * w + 2)
                for days in range(minimum - k - 1, min(minimum + k + 1, panel.n_days + 1)):
                    built.clear(), searched.clear()
                    test = panel.slice_rows(0, days)
                    if days // k < 2 * w + 2:
                        with pytest.raises(ValueError, match=f"need at least {minimum} test"):
                            walk_forward(test, [wf_target(test)], k, w, [wf_config()])
                        assert built == searched == []
                    else:
                        with pytest.raises(Searched):
                            walk_forward(test, [wf_target(test)], k, w, [wf_config()])
                        assert (len(built), searched) == (k, [k])

    def test_ticker_mismatch_rejected(self):
        panel = to_returns(synth_panel(seed=37, T=60, M=2))
        bad = WeightVector(("X", "Y"), np.array([0.5, 0.5]), "Equal")
        with pytest.raises(ValueError, match="tickers"):
            walk_forward(panel, [bad], 1, 4, [wf_config()])

    def test_json_surface(self):
        panel = to_returns(synth_panel(seed=38, T=70, M=2))
        result = walk_forward(panel, [wf_target(panel)], 2, 4, [wf_config()])[0]
        blob = _schedule_record("GA", result)
        assert len(blob["schedule"]) == panel.n_days
        assert blob["optimiser"] == "grid-INTERP-SPSA"
        win = blob["windows"][0]
        # one record per fact: the candidates' days, the expected energy, the
        # top-20 histogram, the QUBO's size and window length all derive
        assert set(win) == {
            "start", "end", "best_bits", "best_energy", "brute_force_energy", "gap",
            "angles", "restart_energies", "qubo",
        }
        assert set(win["qubo"]) == {"q", "raw_max_abs", "candidates", "gains", "params"}
        assert len(win["best_bits"]) == 4
        assert win["gap"] >= 0.0
