"""Command-line front end: four staged commands with file handoffs.

    quantfolio select   --config run.cfg     asset selection artifacts
    quantfolio weights  --config run.cfg     four weight-vector JSONs
    quantfolio schedule --config run.cfg     walk-forward QAOA schedules
    quantfolio backtest --config run.cfg     metrics/curves CSV + manifest

The config file is plain ``key = value`` UTF-8 text (``#`` comments), and
every file the CLI reads or writes is UTF-8 whatever the locale; every run is
fully determined by the config and the master seed -- no hidden environment
dependence. Exit codes: 0 success, 1 validation error, 2 runtime error.

A process enters through :func:`entry`, which freezes the import-time heap;
:func:`main` is the same command line for callers inside Python.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import logging
import math
import os
import reprlib
import sys
from dataclasses import dataclass
from datetime import date

import numpy as np

from . import __version__
from .allocation import (
    METHODS, GaConfig, WeightVector, _weight_array, ensemble, equal_weights, ga_optimise, minvar,
    train_sharpe,
)
from .backtest import (
    GRID_PERIODIC, GRID_THRESHOLD, Explicit, Threshold, _periodic_schedulers, run_grid,
)
from .clustering import annualised_sharpe, select_representatives, ward_cluster
from .market_data import (
    ReturnPanel, SplitSpec, _check_count, _frozen_bits, _positions, _write_labelled_csv, _write_rows,
    load_csv, split, to_returns,
)
from .qaoa import OPTIMISER, QaoaConfig, ScheduleResult, WindowDiagnostics, walk_forward
from .schedule_qubo import QuboParams, QuboProblem, _check_width, bits_to_str
from .shrinkage import _shrunk, ledoit_wolf

log = logging.getLogger(__name__)


@dataclass
class RunConfig:
    """Resolved run parameters; a stage's parameter defaults to the stage's own default.
    Every construction (``dataclasses.replace`` too) checks every value and path rule."""

    prices_csv: str
    train_end: date
    test_end: date
    out_dir: str = "runs"
    n_clusters: int = 10
    ga_population: int = GaConfig.population
    ga_generations: int = GaConfig.generations
    ga_mutation_rate: float = GaConfig.mutation_rate
    ga_gene_low: float = GaConfig.gene_low
    ga_gene_high: float = GaConfig.gene_high
    lambda_ent: float = GaConfig.lambda_ent
    depth: int = QaoaConfig.depth
    candidates_per_window: int = 8
    windows: int = 3
    restarts: int = QaoaConfig.restarts
    opt_shots: int = QaoaConfig.opt_shots
    eval_shots: int = QaoaConfig.eval_shots
    max_iters: int = QaoaConfig.max_iters
    lambda1: float = QuboParams.lambda1
    lambda2: float = QuboParams.lambda2
    lambda3: float = QuboParams.lambda3
    cost_c: float = QuboParams.cost_c
    threshold: float = GRID_THRESHOLD
    periodic: tuple[int, ...] = GRID_PERIODIC
    seed: int = 0

    def __post_init__(self) -> None:
        _check_count(self.seed, "seed", least=0)
        SplitSpec(self.train_end, self.test_end)  # raises unless train_end < test_end
        # the GA weighs at least 2 assets, so at least 2 clusters
        for name, least in (("n_clusters", 2), ("windows", 1), ("candidates_per_window", 1)):
            _check_count(getattr(self, name), name, least)
        _check_width(self.candidates_per_window, "candidates_per_window")
        # build what the stages build, so a bad value fails before any stage runs
        self.ga_config()
        self.qaoa_configs()
        self.qubo_params()
        Threshold(self.threshold)
        _periodic_schedulers(self.periodic)
        try:
            os.fsencode(self.prices_csv)  # os.path.exists reads "cannot encode" as "missing"
        except UnicodeEncodeError:
            raise ValueError(f"prices CSV path {self.prices_csv!r} cannot be encoded in the "
                             f"file-system encoding {sys.getfilesystemencoding()!r}") from None
        if not os.path.exists(self.prices_csv):
            raise FileNotFoundError(f"prices CSV not found: {self.prices_csv}")
        if not os.path.isfile(self.prices_csv):
            raise ValueError(f"prices CSV is not a regular file: {self.prices_csv}")
        if not self.out_dir:
            raise ValueError("out_dir must not be empty")
        if os.path.lexists(self.out_dir) and not os.path.isdir(self.out_dir):
            raise ValueError(f"out_dir is not a directory: {self.out_dir}")

    def ga_config(self) -> GaConfig:
        return GaConfig(population=self.ga_population, generations=self.ga_generations,
                        mutation_rate=self.ga_mutation_rate, gene_low=self.ga_gene_low,
                        gene_high=self.ga_gene_high, lambda_ent=self.lambda_ent,
                        seed=_child_seed(self.seed, 1))

    def qaoa_configs(self) -> list[QaoaConfig]:
        """One search config per weight method, in ``METHODS`` order."""
        return [QaoaConfig(depth=self.depth, restarts=self.restarts, opt_shots=self.opt_shots,
                           eval_shots=self.eval_shots, max_iters=self.max_iters,
                           seed=_child_seed(self.seed, 10 + i))
                for i in range(len(METHODS))]

    def qubo_params(self) -> QuboParams:
        return QuboParams(lambda1=self.lambda1, lambda2=self.lambda2, lambda3=self.lambda3,
                          cost_c=self.cost_c)

    def as_dict(self) -> dict:
        return {**dataclasses.asdict(self), "train_end": self.train_end.isoformat(),
                "test_end": self.test_end.isoformat(), "periodic": list(self.periodic)}


def _finite_float(text: str) -> float:
    """A float config value; ``nan`` and ``+-inf`` are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


# value parser per RunConfig annotation (a string under postponed annotations)
_TYPE_PARSERS = {
    "str": str,
    "int": int,
    "float": _finite_float,
    "date": date.fromisoformat,
    "tuple[int, ...]": lambda s: tuple(int(x) for x in s.split(",")) if s else (),
}
_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in dataclasses.fields(RunConfig)}
_REQUIRED = tuple(f.name for f in dataclasses.fields(RunConfig) if f.default is dataclasses.MISSING)


def parse_config(path, **overrides) -> RunConfig:
    """Parse a ``key = value`` UTF-8 config file into a validated RunConfig;
    a key may be given once, and ``overrides`` replace the file's values."""
    values: dict = {}
    first_line: dict = {}
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in first_line:
                raise ValueError(f"{path}:{lineno}: {key} is given again "
                                 f"(first on line {first_line[key]})")
            first_line[key] = lineno
            try:
                values[key] = _PARSERS[key](val)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise ValueError(f"{path}: missing required key(s): {', '.join(missing)}")
    return RunConfig(**values | overrides)


def _child_seed(master: int, tag: int) -> int:
    """Deterministic per-stage stream derived from the master seed."""
    return int(np.random.SeedSequence([master, tag]).generate_state(1, np.uint64)[0])


def _config_sha256(cfg: RunConfig) -> str:
    canon = "\n".join(f"{k} = {v}" for k, v in sorted(cfg.as_dict().items()))
    return hashlib.sha256(canon.encode()).hexdigest()


def _file_sha256(path) -> str:
    """The sha256 of a file's bytes."""
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True))
        fh.write("\n")


def _load_panels(cfg: RunConfig, last: date, tickers=None):
    """The tickers the loader dropped and the returns through ``last``;
    ``tickers`` limits the parse to those columns (see :func:`load_csv`), and
    each of them must have a complete price history through ``last``. The
    price panel is not returned, so no stage holds it beside its returns."""
    panel = load_csv(cfg.prices_csv, tickers, last)
    if tickers is not None and panel.dropped:
        raise ValueError(f"selected ticker(s) with a missing or non-positive price on or "
                         f"before {last}: {', '.join(panel.dropped)}")
    return panel.dropped, to_returns(panel)


def _test_returns(cfg: RunConfig, tickers):
    """The test-period returns of ``tickers``."""
    _, returns = _load_panels(cfg, cfg.test_end, tickers)
    return split(returns, SplitSpec(cfg.train_end, cfg.test_end))[1]


def _kind(admits, what: str):
    """An artifact key's kind: the value if ``admits`` it, else ValueError naming it."""
    def kind(value):
        if not admits(value):
            raise ValueError(f"{reprlib.repr(value)} is not {what}")
        return value
    return kind


def _list_of(item):
    return lambda value: [item(x) for x in _list(value)]


_string = _kind(lambda v: isinstance(v, str), "a string")
_int = _kind(lambda v: type(v) is int, "an integer")
_float = _kind(lambda v: isinstance(v, float) and math.isfinite(v), "a finite float")
# ``_list`` and ``_object`` alone are shallow checks, for records no stage reads back
_list = _kind(lambda v: isinstance(v, list), "a JSON list")
_object = _kind(lambda v: isinstance(v, dict), "a JSON object")
_strings, _floats = _list_of(_string), _list_of(_float)
_distinct = _kind(lambda v: len(v) > 0 and len(set(v)) == len(v),
                  "a non-empty list of distinct strings")


def _tickers(value):
    return _distinct(_strings(value))


def _method(method: str):
    return _kind(lambda v: v == method, repr(method))


# each JSON file a stage reads: the stage that writes it, and every key's kind
_ARTIFACTS = {
    "selection.json": ("select", {
        "tickers": _tickers, "per_cluster_sharpe": _floats, "labels": _object,
        "shrinkage_alpha": _float, "shrinkage_mu_target": _float, "dropped_tickers": _strings}),
    **{f"weights_{m.lower()}.json": ("weights", {
        "method": _method(m), "tickers": _tickers, "weights": _floats, "train_sharpe": _float})
       for m in METHODS},
    **{f"schedule_{m.lower()}.json": ("schedule", {
        "method": _method(m), "schedule": lambda v: _frozen_bits(_list_of(_int)(v)),
        "total_rebalances": _int, "optimiser": _string, "windows": _list}) for m in METHODS},
}


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; a key repeated in it raises ValueError."""
    obj, keys = dict(pairs), [key for key, _ in pairs]
    if len(obj) < len(keys):
        raise ValueError(f"{next(k for k in keys if keys.count(k) > 1)}: repeated key")
    return obj


def _read_artifact(cfg: RunConfig, name: str) -> dict:
    """The values of the JSON artifact ``name``, each admitted by its kind in
    ``_ARTIFACTS``; a key repeated at any depth, a missing key, an unknown key
    or a value of the wrong kind raises ValueError naming the file and the key."""
    stage, kinds = _ARTIFACTS[name]
    path = os.path.join(cfg.out_dir, name)
    if not os.path.exists(path):
        raise FileNotFoundError(f"{path} not found: run the '{stage}' command first")
    if not os.path.isfile(path):
        raise ValueError(f"{path}: malformed artifact: not a regular file")
    with open(path, encoding="utf-8") as fh:
        try:
            blob = json.load(fh, object_pairs_hook=_unique_keys)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: malformed artifact: {exc}") from None
        except ValueError as exc:  # a repeated key, from _unique_keys
            raise ValueError(f"{path}: malformed artifact, {exc}") from None
    if not isinstance(blob, dict):
        raise ValueError(f"{path}: malformed artifact: not a JSON object")
    values = {}
    for key in sorted(kinds.keys() | blob.keys()):
        try:
            if key not in blob or key not in kinds:
                raise ValueError("missing key" if key in kinds else "unknown key")
            values[key] = kinds[key](blob[key])
        except ValueError as exc:
            raise ValueError(f"{path}: malformed artifact, {key}: {exc}") from None
    return values


def _weights_record(wv: WeightVector, train: ReturnPanel) -> dict:
    return {"method": wv.method, "tickers": list(wv.tickers), "weights": wv.weights.tolist(),
            "train_sharpe": train_sharpe(wv, train)}


def _window_record(win: WindowDiagnostics) -> dict:
    """One window's record, without what its fields and the histogram CSV determine
    (global candidate days, ``end - start``, least restart energy, histogram top)."""
    out = win.outcome
    gamma, beta = np.split(out.angles, 2)
    return {"start": win.start, "end": win.end, "best_bits": bits_to_str(out.best_bits.bits),
            "best_energy": out.best_energy, "brute_force_energy": win.brute_energy,
            "gap": win.gap, "angles": {"gamma": gamma.tolist(), "beta": beta.tolist()},
            "restart_energies": out.restart_energies.tolist(), "qubo": _qubo_record(win.qubo)}


def _qubo_record(qubo: QuboProblem) -> dict:
    return {"q": qubo.q.ravel().tolist(),  # row-major
            "raw_max_abs": float(qubo.raw_max_abs), "candidates": qubo.candidates.tolist(),
            "gains": qubo.gains.tolist(),
            "params": qubo.params}


def _schedule_record(method: str, result: ScheduleResult) -> dict:
    return {"method": method, "schedule": result.bits.tolist(),
            "total_rebalances": result.total_rebalances, "optimiser": OPTIMISER,
            "windows": [_window_record(win) for win in result.windows]}


def _read_weights(cfg: RunConfig) -> dict[str, WeightVector]:
    """Each method's weights, from the file named after that method and on
    the GA file's tickers; the ``train_sharpe`` beside them is not used."""
    weights = {}
    for method in METHODS:
        name = f"weights_{method.lower()}.json"
        blob = _read_artifact(cfg, name)
        try:
            weights[method] = WeightVector(blob["tickers"], blob["weights"], method)
            _weight_array(weights[method], weights["GA"].tickers)  # GA is read first
        except ValueError as exc:
            raise ValueError(f"{os.path.join(cfg.out_dir, name)}: {exc}") from None
    return weights


def _read_schedules(cfg: RunConfig, days: int) -> dict[str, np.ndarray]:
    """Each method's schedule bits, which must be one per test day (``days``),
    as ``Explicit.due`` checks, and sum to the file's ``total_rebalances``."""
    schedules = {}
    for method in METHODS:
        name = f"schedule_{method.lower()}.json"
        path, blob = os.path.join(cfg.out_dir, name), _read_artifact(cfg, name)
        bits = schedules[method] = blob["schedule"]
        try:
            Explicit(bits).due(days)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed artifact, schedule: {exc}") from None
        if blob["total_rebalances"] != bits.sum():
            raise ValueError(f"{path}: malformed artifact, total_rebalances: "
                             f"{blob['total_rebalances']} is not the sum of the schedule's "
                             f"bits, {bits.sum()}")
    return schedules


def cmd_select(cfg: RunConfig) -> dict:
    """Cluster the training universe and pick one representative per cluster.

    Writes selection.json, which holds the universe's shrinkage intensity and
    target for ``weights``, and the full shrinkage correlation matrix as CSV,
    whose ``angular_distance`` is what Ward clusters on, bit for bit. Only rows
    through ``train_end`` are read, so the universe (the tickers with a
    complete price history) is decided on training rows alone.
    """
    dropped, train = _load_panels(cfg, cfg.train_end)
    cov = ledoit_wolf(train)
    assign = ward_cluster(cov.dist, cfg.n_clusters)
    selected = select_representatives(assign, train)

    os.makedirs(cfg.out_dir, exist_ok=True)
    sel_path = os.path.join(cfg.out_dir, "selection.json")
    _write_json(sel_path, {
        "tickers": list(selected),
        "per_cluster_sharpe": [annualised_sharpe(train.log_returns[:, i])
                               for i in _positions(train.tickers, selected)],
        "labels": {t: int(lbl) for t, lbl in zip(train.tickers, assign.labels)},
        "shrinkage_alpha": cov.alpha,
        "shrinkage_mu_target": cov.mu_target,
        "dropped_tickers": list(dropped),
    })
    corr_path = os.path.join(cfg.out_dir, "correlation.csv")
    _write_labelled_csv(corr_path, "ticker", train.tickers, train.tickers, cov.corr)
    log.info("selected %s", ", ".join(selected))
    return {"selection": sel_path, "correlation": corr_path}


def cmd_weights(cfg: RunConfig) -> dict:
    """Compute the four weight vectors for the selected assets.

    Only the selected columns of the prices are parsed. MinVar's covariance
    is their sample covariance shrunk with the universe's intensity and
    target from selection.json, which is the selected block of the universe
    estimate ``select`` made.
    """
    sel = _read_artifact(cfg, "selection.json")
    selected = sel["tickers"]
    _, train = _load_panels(cfg, cfg.train_end, selected)

    ga = ga_optimise(train, cfg.ga_config())
    cov = _shrunk(train, sel["shrinkage_alpha"], sel["shrinkage_mu_target"])
    mv = minvar(cov)
    eq = equal_weights(selected)

    paths = {}
    for wv in (ga, mv, eq, ensemble(ga, mv, eq)):
        path = os.path.join(cfg.out_dir, f"weights_{wv.method.lower()}.json")
        _write_json(path, _weights_record(wv, train))
        paths[wv.method] = path
    return paths


def cmd_schedule(cfg: RunConfig) -> dict:
    """Run the walk-forward QAOA scheduler for every weight method.

    Every window of every method is solved in one ``walk_forward`` call on
    the weights files' tickers, so the angle search runs over all of them
    in lockstep.
    """
    weights = _read_weights(cfg)
    results = walk_forward(
        _test_returns(cfg, weights["GA"].tickers), [weights[method] for method in METHODS],
        cfg.windows, cfg.candidates_per_window, cfg.qaoa_configs(), cfg.qubo_params(),
    )
    paths = {}
    for method, result in zip(METHODS, results):
        sched_path = os.path.join(cfg.out_dir, f"schedule_{method.lower()}.json")
        _write_json(sched_path, _schedule_record(method, result))
        # the full per-window measurement histogram, count desc (ties by bitstring
        # value asc), which the schedule JSON therefore does not repeat
        _write_rows(os.path.join(cfg.out_dir, f"histogram_{method.lower()}.csv"),
                    ["window", "bitstring", "count"],
                    ([k, *row] for k, win in enumerate(result.windows)
                     for row in win.outcome.histogram_rows()))
        paths[method] = sched_path
        log.info("%s: %d rebalances scheduled", method, result.total_rebalances)
    return paths


def cmd_backtest(cfg: RunConfig) -> dict:
    """Run the full strategy grid and write the report artifacts.

    The grid trades the weights files' tickers."""
    weights = _read_weights(cfg)
    test = _test_returns(cfg, weights["GA"].tickers)
    schedules = _read_schedules(cfg, test.n_days)

    reports = run_grid(
        test, weights, schedules, cfg.cost_c,
        periodic=cfg.periodic, threshold=cfg.threshold,
    )

    metrics_path = os.path.join(cfg.out_dir, "metrics.csv")
    _write_rows(metrics_path, ["strategy", "return_pct", "sharpe", "sortino", "mdd_pct", "calmar",
                               "rebalances", "cost_bp"],
                ([rep.label, 100.0 * rep.metrics.total_return, rep.metrics.sharpe,
                  rep.metrics.sortino, 100.0 * rep.metrics.mdd, rep.metrics.calmar,
                  rep.rebalance_count, rep.total_cost_bp] for rep in reports))

    curves_path = os.path.join(cfg.out_dir, "curves.csv")
    dates = ["start"] + [d.isoformat() for d in test.dates]
    _write_rows(curves_path, ["strategy", "day", "date", "value"],
                ([rep.label, day, d, v] for rep in reports
                 for day, (d, v) in enumerate(zip(dates, rep.equity_curve.tolist()))))

    manifest_path = os.path.join(cfg.out_dir, "manifest.json")
    _write_json(manifest_path, {
        "version": __version__,
        "config": cfg.as_dict(),
        "config_sha256": _config_sha256(cfg),
        "inputs": {"prices_sha256": _file_sha256(cfg.prices_csv)},
        "optimiser": OPTIMISER,
        "curve_returns": "log",
    })
    return {"metrics": metrics_path, "curves": curves_path, "manifest": manifest_path}


_COMMANDS = {
    "select": cmd_select,
    "weights": cmd_weights,
    "schedule": cmd_schedule,
    "backtest": cmd_backtest,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quantfolio",
        description="Clustered asset selection, weight optimisation, "
                    "QUBO/QAOA rebalancing schedules, and a net-of-cost backtest.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0].lower())
        p.add_argument("--config", required=True, help="path to the key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default=None, help="override the output directory")

    args = parser.parse_args(argv)
    try:
        given = {"seed": args.seed, "out_dir": args.out}
        cfg = parse_config(args.config, **{k: v for k, v in given.items() if v is not None})
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        artifacts = _COMMANDS[args.command](cfg)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary: report and signal runtime failure
        print(f"runtime error [{args.command}]: {exc}", file=sys.stderr)
        return 2
    for name, path in artifacts.items():
        print(f"{name}: {path}")
    return 0


def entry() -> int:
    """The process entry point (``python -m quantfolio.cli``, the installed
    ``quantfolio`` script): :func:`main` on ``sys.argv`` after ``gc.freeze``.

    The freeze moves the ~23k container objects that numpy and the package
    create at import into the permanent generation, which neither the stage's
    collections nor the interpreter's last ones at exit walk: each golden
    stage's exit fell from about 30 to 8 ms on a 2-vCPU Linux VM. ``main``
    leaves the collector alone, since a library must not change its importer's.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
