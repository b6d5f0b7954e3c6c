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
import csv
import dataclasses
import gc
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from datetime import date

import numpy as np

from . import __version__
from .allocation import (
    METHODS,
    GaConfig,
    WeightVector,
    ensemble,
    equal_weights,
    ga_optimise,
    minvar,
    train_sharpe,
)
from .backtest import GRID_PERIODIC, GRID_THRESHOLD, Threshold, _periodic_schedulers, run_grid
from .clustering import annualised_sharpe, select_representatives, ward_cluster
from .market_data import (
    ReturnPanel, SplitSpec, _positions, _write_labelled_csv, load_csv, split, to_returns,
)
from .qaoa import OPTIMISER, QaoaConfig, ScheduleResult, WindowDiagnostics, walk_forward
from .schedule_qubo import QuboParams, QuboProblem, _check_width, bits_to_str
from .shrinkage import _shrunk, ledoit_wolf

log = logging.getLogger(__name__)


@dataclass
class RunConfig:
    """Resolved run parameters; a stage's parameter defaults to the stage's own default."""

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
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        SplitSpec(self.train_end, self.test_end)  # raises unless train_end < test_end
        for name in ("n_clusters", "windows", "candidates_per_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        _check_width(self.candidates_per_window, "candidates_per_window")
        # build what the stages build, so a bad value fails before any stage runs
        self.ga_config()
        self.qaoa_configs()
        self.qubo_params()
        Threshold(self.threshold)
        _periodic_schedulers(self.periodic)

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
    "tuple[int, ...]": lambda s: tuple(int(x) for x in s.split(",") if x.strip()),
}
_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in dataclasses.fields(RunConfig)}
_REQUIRED = tuple(f.name for f in dataclasses.fields(RunConfig) if f.default is dataclasses.MISSING)


def parse_config(path) -> RunConfig:
    """Parse a ``key = value`` config file into a validated RunConfig; a key
    may be given once."""
    values: dict = {}
    first_line: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
    cfg = RunConfig(**values)
    try:
        os.fsencode(cfg.prices_csv)  # os.path.exists reads "cannot encode" as "missing"
    except UnicodeEncodeError:
        raise ValueError(f"prices CSV path {cfg.prices_csv!r} cannot be encoded in the "
                         f"file-system encoding {sys.getfilesystemencoding()!r}") from None
    if not os.path.exists(cfg.prices_csv):
        raise FileNotFoundError(f"prices CSV not found: {cfg.prices_csv}")
    return cfg


def _child_seed(master: int, tag: int) -> int:
    """Deterministic per-stage stream derived from the master seed."""
    return int(np.random.SeedSequence([master, tag]).generate_state(1, np.uint64)[0])


def _config_sha256(cfg: RunConfig) -> str:
    canon = "\n".join(f"{k} = {v}" for k, v in sorted(cfg.as_dict().items()))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True))
        fh.write("\n")


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def _load_panels(cfg: RunConfig, last: date, tickers=None):
    """The price panel through ``last`` and its returns; ``tickers`` limits
    the parse to those columns (see :func:`load_csv`), and each of them must
    have a complete price history through ``last``."""
    panel = load_csv(cfg.prices_csv, tickers, last)
    if tickers is not None and panel.dropped:
        raise ValueError(f"selected ticker(s) with a missing or non-positive price on or "
                         f"before {last}: {', '.join(panel.dropped)}")
    return panel, to_returns(panel)


def _test_returns(cfg: RunConfig, tickers):
    """The test-period returns of ``tickers``."""
    _, returns = _load_panels(cfg, cfg.test_end, tickers)
    return split(returns, SplitSpec(cfg.train_end, cfg.test_end))[1]


def _read_artifact(cfg: RunConfig, name: str, stage: str, *keys: str, allowed=None) -> dict:
    """The JSON artifact ``name`` that the ``stage`` command wrote, which must
    hold every one of ``keys`` and, given ``allowed``, no other key."""
    path = os.path.join(cfg.out_dir, name)
    if not os.path.exists(path):
        raise FileNotFoundError(f"{path} not found: run the '{stage}' command first")
    with open(path, encoding="utf-8") as fh:
        try:
            blob = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed artifact: {exc}") from None
    if not isinstance(blob, dict):
        raise ValueError(f"{path}: malformed artifact: not a JSON object")
    missing = [key for key in keys if key not in blob]
    if missing:
        raise ValueError(f"{path}: malformed artifact, missing key(s): {', '.join(missing)}")
    unknown = [] if allowed is None else [key for key in blob if key not in allowed]
    if unknown:
        raise ValueError(f"{path}: malformed artifact, unknown key(s): {', '.join(unknown)}")
    return blob


def _read_selection(cfg: RunConfig) -> list[str]:
    return list(_read_artifact(cfg, "selection.json", "select", "tickers")["tickers"])


def _weights_record(wv: WeightVector, train: ReturnPanel) -> dict:
    return {"method": wv.method, "tickers": list(wv.tickers), "weights": wv.weights.tolist(),
            "train_sharpe": train_sharpe(wv, train)}


def _window_record(win: WindowDiagnostics) -> dict:
    """One window's record, without what its fields and the histogram CSV determine
    (global candidate days, ``end - start``, least restart energy, histogram top)."""
    out = win.outcome
    gamma, beta = np.split(out.angles, 2)
    return {
        "start": win.start,
        "end": win.end,
        "best_bits": bits_to_str(out.best_bits.bits),
        "best_energy": out.best_energy,
        "brute_force_energy": win.brute_energy,
        "gap": win.gap,
        "angles": {"gamma": gamma.tolist(), "beta": beta.tolist()},
        "restart_energies": out.restart_energies.tolist(),
        "qubo": _qubo_record(win.qubo),
    }


def _qubo_record(qubo: QuboProblem) -> dict:
    return {
        "q": qubo.q.ravel().tolist(),  # row-major
        "raw_max_abs": float(qubo.raw_max_abs),
        "candidates": qubo.candidates.tolist(),
        "gains": qubo.gains.tolist(),
        "params": {k: (float(v) if isinstance(v, float) else v) for k, v in qubo.params.items()},
    }


def _schedule_record(method: str, result: ScheduleResult) -> dict:
    return {
        "method": method,
        "schedule": result.bits.tolist(),
        "total_rebalances": result.total_rebalances,
        "optimiser": OPTIMISER,
        "windows": [_window_record(win) for win in result.windows],
    }


def _read_weights(cfg: RunConfig) -> dict[str, WeightVector]:
    """Each method's weights, from the file named after that method; the
    ``train_sharpe`` written beside them is allowed, and not read."""
    keys = ("tickers", "weights", "method")
    weights = {}
    for method in METHODS:
        name = f"weights_{method.lower()}.json"
        blob = _read_artifact(cfg, name, "weights", *keys, allowed=(*keys, "train_sharpe"))
        if blob["method"] != method:
            raise ValueError(f"{os.path.join(cfg.out_dir, name)}: malformed artifact, "
                             f"method {blob['method']!r} in the {method} weights file")
        weights[method] = WeightVector(*(blob[key] for key in keys))
    return weights


def _read_schedules(cfg: RunConfig) -> dict[str, list]:
    """Each method's schedule bits as written, so ``Explicit`` checks them
    uncast."""
    return {
        method: _read_artifact(cfg, f"schedule_{method.lower()}.json", "schedule",
                               "schedule")["schedule"]
        for method in METHODS
    }


def cmd_select(cfg: RunConfig) -> dict:
    """Cluster the training universe and pick one representative per cluster.

    Writes selection.json, which holds the universe's shrinkage intensity and
    target for ``weights``, and the full shrinkage correlation matrix as CSV.
    The angular distances that Ward clusters on are not written: they are
    ``angular_distance`` of correlation.csv, bit for bit. Only rows through
    ``train_end`` are read, so the universe (the tickers with a complete
    price history) is decided on training rows alone.
    """
    panel, train = _load_panels(cfg, cfg.train_end)
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
        "dropped_tickers": list(panel.dropped),
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
    sel = _read_artifact(cfg, "selection.json", "select",
                         "tickers", "shrinkage_alpha", "shrinkage_mu_target")
    selected = list(sel["tickers"])
    _, train = _load_panels(cfg, cfg.train_end, selected)

    ga = ga_optimise(train, cfg.ga_config())
    cov = _shrunk(train, float(sel["shrinkage_alpha"]), float(sel["shrinkage_mu_target"]))
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

    Every window of every method is solved in one ``walk_forward`` call, so
    the angle search runs over all of them in lockstep.
    """
    selected = _read_selection(cfg)
    weights = _read_weights(cfg)
    results = walk_forward(
        _test_returns(cfg, selected), [weights[method] for method in METHODS], cfg.windows,
        cfg.candidates_per_window, cfg.qaoa_configs(), cfg.qubo_params(),
    )
    paths = {}
    for method, result in zip(METHODS, results):
        sched_path = os.path.join(cfg.out_dir, f"schedule_{method.lower()}.json")
        _write_json(sched_path, _schedule_record(method, result))
        hist_path = os.path.join(cfg.out_dir, f"histogram_{method.lower()}.csv")
        _write_histogram_csv(hist_path, result)
        paths[method] = sched_path
        log.info("%s: %d rebalances scheduled", method, result.total_rebalances)
    return paths


def _write_histogram_csv(path, result: ScheduleResult) -> None:
    """Full per-window measurement histogram, count desc (ties by bitstring
    value asc): a window's first N rows are its ``histogram_top(N)``, which
    the schedule JSON therefore does not repeat."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", "bitstring", "count"])
        for k, win in enumerate(result.windows):
            for bitstring, count in win.outcome.histogram_top(win.outcome.histogram.size):
                writer.writerow([k, bitstring, count])


def cmd_backtest(cfg: RunConfig) -> dict:
    """Run the full strategy grid and write the report artifacts."""
    selected = _read_selection(cfg)
    weights = _read_weights(cfg)
    schedules = _read_schedules(cfg)
    test = _test_returns(cfg, selected)

    reports = run_grid(
        test, weights, schedules, cfg.cost_c,
        periodic=cfg.periodic, threshold=cfg.threshold,
    )

    metrics_path = os.path.join(cfg.out_dir, "metrics.csv")
    with open(metrics_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "strategy", "return_pct", "sharpe", "sortino",
            "mdd_pct", "calmar", "rebalances", "cost_bp",
        ])
        for rep in reports:
            m = rep.metrics
            writer.writerow([
                rep.label,
                _fmt(100.0 * m.total_return),
                _fmt(m.sharpe),
                _fmt(m.sortino),
                _fmt(100.0 * m.mdd),
                _fmt(m.calmar),
                rep.rebalance_count,
                _fmt(rep.total_cost_bp),
            ])

    curves_path = os.path.join(cfg.out_dir, "curves.csv")
    with open(curves_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "day", "date", "value"])
        dates = ["start"] + [d.isoformat() for d in test.dates]
        for rep in reports:
            for day, (d, v) in enumerate(zip(dates, rep.equity_curve)):
                writer.writerow([rep.label, day, d, repr(float(v))])

    manifest_path = os.path.join(cfg.out_dir, "manifest.json")
    _write_json(manifest_path, {
        "version": __version__,
        "config": cfg.as_dict(),
        "config_sha256": _config_sha256(cfg),
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
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, out_dir=args.out)
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
