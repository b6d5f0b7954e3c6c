"""Run one quantfolio CLI stage with spans recorded around its layer calls.

    python perfbench/tracer.py SPANS_JSON STAGE --config run.cfg

The stage runs through ``quantfolio.cli.main`` exactly as ``python -m
quantfolio.cli`` would. Before it starts, public functions are wrapped at the
module attributes where their callers look them up (``quantfolio.cli.
ward_cluster``, ``quantfolio.qaoa.minimize``, ...), so nothing in the package
changes. Spans stay in memory, each with its parent's id, and are written to
SPANS_JSON when the stage ends. A target that no longer exists is listed under
``missing`` instead of failing the stage.

``summarise`` turns the span files of one pipeline into per-layer metrics.
"""
from __future__ import annotations

import importlib
import json
import sys
import time

STAGES = ("select", "weights", "schedule", "backtest")

# (module, attribute, span name). The span name's prefix is the layer.
TARGETS = (
    ("quantfolio.cli", "load_csv", "market_data.load_csv"),
    ("quantfolio.cli", "ledoit_wolf", "shrinkage.ledoit_wolf"),
    ("quantfolio.cli", "ward_cluster", "clustering.ward_cluster"),
    ("quantfolio.cli", "select_representatives", "clustering.select_representatives"),
    ("quantfolio.cli", "ga_optimise", "allocation.ga_optimise"),
    ("quantfolio.cli", "minvar", "allocation.minvar"),
    ("quantfolio.cli", "walk_forward", "qaoa.walk_forward"),
    ("quantfolio.cli", "run_grid", "backtest.run_grid"),
    ("quantfolio.qaoa", "build_qubo", "schedule_qubo.build_qubo"),
    ("quantfolio.qaoa", "enumerate_energies", "schedule_qubo.enumerate_energies"),
    # brute_force looks enumerate_energies up in its own module
    ("quantfolio.schedule_qubo", "enumerate_energies", "schedule_qubo.enumerate_energies"),
    ("quantfolio.qaoa", "brute_force", "schedule_qubo.brute_force"),
    ("quantfolio.qaoa", "simulate_ansatz", "qaoa.simulate_ansatz"),
    ("quantfolio.qaoa", "minimize", "qaoa.optimiser"),
)


class Recorder:
    """In-memory span list; ``stack`` holds the ids of the open spans."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self.stack[-1] if self.stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self.stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        annotate = _ANNOTATORS.get(name)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                if name == "qaoa.optimiser":
                    args = (_count_calls(span, args[0]), *args[1:])
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if annotate is not None:
                try:
                    span.update(annotate(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # the call's signature changed: keep the span, drop its counts
            return result

        return traced


def _count_calls(span: dict, fun):
    span["evals"] = 0

    def counted(*args, **kwargs):
        span["evals"] += 1
        return fun(*args, **kwargs)

    return counted


def _optimiser_note(args, kwargs, result) -> dict:
    maxiter = (kwargs.get("options") or {}).get("maxiter")
    return {"nfev": int(result.nfev), "maxiter": maxiter}


def _ga_note(args, kwargs, result) -> dict:
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return {"individuals": cfg.population * (cfg.generations + 1)}


def _grid_note(args, kwargs, result) -> dict:
    return {"strategy_days": len(result) * args[0].n_days}


def _ansatz_note(args, kwargs, result) -> dict:
    return {"state_bytes": int(result.nbytes)}


_ANNOTATORS = {
    "qaoa.optimiser": _optimiser_note,
    "allocation.ga_optimise": _ga_note,
    "backtest.run_grid": _grid_note,
    "qaoa.simulate_ansatz": _ansatz_note,
}


def install(recorder: Recorder) -> list[str]:
    """Wrap every target that exists; return the ones that do not."""
    missing = []
    for module_name, attr, span_name in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}.{attr}")
            continue
        fn = getattr(module, attr, None)
        if not callable(fn):
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, recorder.wrap(span_name, fn))
    return missing


def _self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the durations of its direct children (one thread,
    so children never overlap)."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def summarise(stage_traces: dict[str, dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline (stage name -> trace dict)."""
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    notes: dict[str, list[dict]] = {}
    metrics: dict[str, float] = {}
    for stage in STAGES:
        spans = stage_traces[stage]["spans"]
        for span, self_s in zip(spans, _self_times(spans)):
            name = span["name"]
            if name == "cli":
                metrics[f"cli.{stage}.self_s"] = self_s
                continue
            total[name] = total.get(name, 0.0) + span["end"] - span["start"]
            own[name] = own.get(name, 0.0) + self_s
            calls[name] = calls.get(name, 0) + 1
            notes.setdefault(name, []).append(span)

    def t(name):
        return total.get(name, 0.0)

    def rate(name, key):
        work = sum(s.get(key, 0) for s in notes.get(name, ()))
        return work / t(name) if t(name) > 0 else 0.0

    restarts = notes.get("qaoa.optimiser", [])
    hit = sum(1 for s in restarts if s.get("nfev", 0) >= (s.get("maxiter") or float("inf")))
    metrics.update({
        "market_data.load_csv_s": t("market_data.load_csv"),
        "market_data.load_csv_calls": calls.get("market_data.load_csv", 0),
        "shrinkage.ledoit_wolf_s": t("shrinkage.ledoit_wolf"),
        "shrinkage.ledoit_wolf_calls": calls.get("shrinkage.ledoit_wolf", 0),
        "clustering.ward_cluster_s": t("clustering.ward_cluster"),
        "clustering.select_representatives_s": t("clustering.select_representatives"),
        "allocation.ga_optimise_s": t("allocation.ga_optimise"),
        "allocation.ga_individuals_per_s": rate("allocation.ga_optimise", "individuals"),
        "schedule_qubo.build_qubo_s": t("schedule_qubo.build_qubo"),
        "schedule_qubo.enumerate_energies_s": t("schedule_qubo.enumerate_energies"),
        "schedule_qubo.enumerate_energies_calls": calls.get("schedule_qubo.enumerate_energies", 0),
        "schedule_qubo.brute_force_s": t("schedule_qubo.brute_force"),
        "qaoa.walk_forward_s": t("qaoa.walk_forward"),
        "qaoa.simulate_ansatz_s": t("qaoa.simulate_ansatz"),
        "qaoa.simulate_ansatz_calls": calls.get("qaoa.simulate_ansatz", 0),
        "qaoa.optimiser_self_s": own.get("qaoa.optimiser", 0.0),
        "qaoa.objective_evals": sum(s.get("evals", 0) for s in restarts),
        "qaoa.maxiter_hit_frac": hit / len(restarts) if restarts else 0.0,
        "qaoa.statevector_bytes": max(
            (s.get("state_bytes", 0) for s in notes.get("qaoa.simulate_ansatz", ())), default=0
        ),
        "backtest.run_grid_s": t("backtest.run_grid"),
        "backtest.strategy_days_per_s": rate("backtest.run_grid", "strategy_days"),
    })
    missing = {m for trace in stage_traces.values() for m in trace["missing"]}
    metrics["trace.missing_targets"] = len(missing)
    return metrics


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    missing = install(recorder)
    cli = importlib.import_module("quantfolio.cli")
    root = recorder.open("cli")
    try:
        code = cli.main(cli_args)
    finally:
        recorder.close(root)
        with open(spans_path, "w") as fh:
            json.dump({"missing": missing, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
