"""The array rule every value type shares: each stored array is a read-only,
row-major copy of its input, and each bit vector holds only 0 and 1."""
import dataclasses
import importlib
import inspect
import pkgutil
from datetime import date, timedelta

import numpy as np
import pytest

import quantfolio
from quantfolio.allocation import WeightVector
from quantfolio.backtest import BacktestReport, Explicit
from quantfolio.clustering import ClusterAssignment
from quantfolio.market_data import PricePanel, ReturnPanel
from quantfolio.qaoa import (
    IsingModel, QaoaOutcome, ScheduleResult, SpsaResult, WindowDiagnostics,
)
from quantfolio.schedule_qubo import BitSchedule, QuboProblem
from quantfolio.shrinkage import ShrunkCovariance

DATES = tuple(date(2020, 1, 1) + timedelta(days=i) for i in range(3))
TICKERS = ("A", "B")


# each builder takes the memory order of its 2-D inputs
def price_panel(order="C"):
    prices = np.array([[1.0, 2.0], [1.1, 2.1], [1.2, 2.2]], order=order)
    return PricePanel(DATES, TICKERS, prices), {"prices": prices}


def return_panel(order="C"):
    gross = np.array([[1.01, 0.99], [0.98, 1.02], [1.0, 1.03]], order=order)
    return ReturnPanel(DATES, TICKERS, gross), {"gross_returns": gross}


def shrunk_covariance(order="C"):
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]], order=order)
    return ShrunkCovariance(TICKERS, sigma, 0.1, 1.5), {"sigma": sigma}


def weight_vector(order="C"):
    weights = np.array([0.25, 0.75])
    return WeightVector(TICKERS, weights, "GA"), {"weights": weights}


def cluster_assignment(order="C"):
    labels = np.array([0, 1, 0])
    return ClusterAssignment(labels), {"labels": labels}


def qubo_problem(order="C"):
    q = np.array([[-1.0, 0.5], [0.5, 0.25]], order=order)
    candidates = np.array([1, 3])
    gains = np.array([0.3, -0.1])
    qubo = QuboProblem(q, 2.0, candidates, gains, {})
    return qubo, {"q": q, "candidates": candidates, "gains": gains}


def bit_schedule(order="C"):
    bits = np.array([1, 0, 1], dtype=np.uint8)
    return BitSchedule(bits, -1.0), {"bits": bits}


def ising_model(order="C"):
    h = np.array([0.5, -0.25])
    j = np.array([[0.0, 0.125], [0.0, 0.0]], order=order)
    return IsingModel(h, j, 0.75), {"h": h, "j": j}


def spsa_result(order="C"):
    x = np.array([[0.1, 0.2], [0.3, 0.4]], order=order)
    return SpsaResult(x, 8), {"x": x}


def qaoa_outcome(order="C"):
    histogram = np.array([0, 3, 1, 0])
    restart_energies = np.array([-0.5, -0.25])
    restart_angles = np.array([[0.1, 0.2], [0.3, 0.4]], order=order)
    outcome = QaoaOutcome(BitSchedule([0, 1], -1.0), histogram, restart_energies, restart_angles)
    return outcome, {"histogram": histogram, "restart_energies": restart_energies,
                     "restart_angles": restart_angles}


def schedule_result(order="C"):
    """One window whose best bits land on days 1 and 3 of 6; the given array
    is the one its ``BitSchedule`` was built from."""
    bits = np.array([1, 1], dtype=np.uint8)
    qubo, _ = qubo_problem(order)
    outcome = QaoaOutcome(BitSchedule(bits, -0.75), np.array([0, 0, 0, 4]),
                          np.array([-0.75]), np.array([[0.1, 0.2]]))
    return ScheduleResult((WindowDiagnostics(0, 6, qubo, outcome),)), {"bits": bits}


def explicit(order="C"):
    bits = np.array([0, 1, 0], dtype=np.uint8)
    return Explicit(bits), {"bits": bits}


def backtest_report(order="C"):
    curve = np.array([1.0, 1.01, 0.99])
    report = BacktestReport("GA Buy&Hold", curve, 0.0, ())
    return report, {"equity_curve": curve}


VALUE_TYPES = [
    price_panel, return_panel, shrunk_covariance, weight_vector, cluster_assignment,
    qubo_problem, bit_schedule, ising_model, spsa_result, qaoa_outcome, schedule_result,
    explicit, backtest_report,
]


def array_holding_dataclasses() -> set[type]:
    """Every dataclass of the package with a field annotated ``np.ndarray``."""
    found = set()
    for info in pkgutil.iter_modules(quantfolio.__path__):
        module = importlib.import_module(f"quantfolio.{info.name}")
        for _, cls in inspect.getmembers(module, dataclasses.is_dataclass):
            if cls.__module__ == module.__name__ and any(
                "np.ndarray" in str(field.type) for field in dataclasses.fields(cls)
            ):
                found.add(cls)
    return found


def test_every_array_holding_dataclass_has_a_builder():
    covered = {type(build()[0]) for build in VALUE_TYPES}
    missing = sorted(cls.__qualname__ for cls in array_holding_dataclasses() - covered)
    assert not missing, f"add a VALUE_TYPES builder for {missing}"


@pytest.mark.parametrize("build", VALUE_TYPES, ids=lambda build: build.__name__)
def test_stored_arrays_are_read_only_copies(build):
    for order in "CF":
        value, inputs = build(order)
        for field, given in inputs.items():
            stored = getattr(value, field)
            assert not stored.flags.writeable, field
            assert not np.shares_memory(stored, given), field
            assert given.flags.writeable, f"{field}: the caller's array was frozen"
            assert stored.flags.c_contiguous, f"{field}: stored {order}-order input as given"


def test_backtest_report_leaves_callers_curve_writeable():
    report, inputs = backtest_report()
    curve = inputs["equity_curve"]
    curve[1] = 2.0
    assert report.equity_curve[1] == 1.01


def test_qaoa_outcome_histogram_keeps_integer_counts():
    outcome, _ = qaoa_outcome()
    assert outcome.histogram.dtype.kind == "i"
    assert outcome.eval_shots == 4


def test_schedule_result_splices_window_bits():
    result, _ = schedule_result()
    assert result.bits.tolist() == [0, 1, 0, 1, 0, 0]
    assert result.bits.dtype == np.uint8
    assert result.total_rebalances == 2


BIT_VECTORS = {
    "Explicit": Explicit,
    "BitSchedule": lambda bits: BitSchedule(bits, 0.0),
}
NOT_BITS = {
    "half": [0, 0.5, 1],
    "two": [0, 2, 1],
    "256": [0, 256, 1],  # 0 after a uint8 cast
    "minus_one": [0, -1, 1],
    "2d": [[0, 1], [1, 0]],
}


@pytest.mark.parametrize("make", BIT_VECTORS.values(), ids=BIT_VECTORS.keys())
@pytest.mark.parametrize("bits", NOT_BITS.values(), ids=NOT_BITS.keys())
def test_bit_vectors_reject_anything_but_0_and_1(make, bits):
    with pytest.raises(ValueError, match="bits must be a 0/1 vector"):
        make(bits)


@pytest.mark.parametrize("make", BIT_VECTORS.values(), ids=BIT_VECTORS.keys())
def test_bit_vectors_store_uint8(make):
    for bits in ([1, 0, 1], [1.0, 0.0, 1.0], [True, False, True]):
        stored = make(bits).bits
        assert stored.dtype == np.uint8
        assert stored.tolist() == [1, 0, 1]
