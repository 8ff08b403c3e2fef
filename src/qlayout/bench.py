"""Dataset ingestion, end-to-end evaluation, and comparison reporting.

A dataset is a directory of ``.qasm`` files. One ``decode`` call gives an
instance's layouts under every strategy and seed; the harness optionally
refines each with local search and records costs and per-stage wall time.
Summaries aggregate mean/std across seeds, overall and grouped by circuit
family (filename prefix) and by two-qubit-gate-count bucket. Externally
produced baseline costs can be joined from a CSV.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import time
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .circuit import ProgramGraph, onehot_features, read_qasm
from .errors import ConfigError, ParseError, QLayoutError, read_input, shown
from .objective import CostModel, fast_cost_fn
from .policy import CONTEXT_KINDS, PolicyNetwork
from .postprocess import SearchConfig, SearchStats, local_search
from .topology import CouplingGraph
from .training import STRATEGY_KINDS, DecodeStrategy, decode, train_new

log = logging.getLogger(__name__)

GATE_BUCKETS = [(0, 10), (10, 25), (25, 50), (50, 100), (100, None)]


@dataclass
class BenchRun:
    dataset: Path
    device: CouplingGraph
    policy: PolicyNetwork
    strategies: list
    postprocess: bool = True
    cost_mode: str = "adjacent-free"
    seeds: list = field(default_factory=lambda: [0])
    search: SearchConfig = None
    multistart_k: int = 10

    def __post_init__(self):
        """Reject a device other than the policy's, and strategies or seeds
        that are empty, repeated or that ``DecodeStrategy`` rejects, before
        any circuit is read; ``runs`` is every (strategy, seed) pair's."""
        self.policy.check_device(self.device)
        for name, values in (("strategies", self.strategies),
                             ("seeds", self.seeds)):
            if not values:
                raise ConfigError(f"bench needs at least one of its {name}")
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ConfigError(f"bench {name} repeat {repeated[0]!r}")
        self.runs = [DecodeStrategy.make(kind, k=self.multistart_k, seed=seed)
                     for kind in self.strategies for seed in self.seeds]


@dataclass
class ReportRow:
    instance: str
    family: str
    n: int
    two_qubit_gates: int
    strategy: str
    seed: int
    rl_cost: float
    pp_cost: float
    wall_ms_rl: float
    wall_ms_pp: float
    pp_iters: int  # the local search's SearchStats, or 0, 0, "none"
    pp_accepted: int
    pp_stop: str


def family_from_name(stem):
    return stem.split("_")[0] if "_" in stem else "unknown"


def _gate_bucket(count):
    """The label of the first bucket whose upper bound is above ``count``;
    the buckets cover every count from 0 up."""
    for lo, hi in GATE_BUCKETS:
        if hi is None or count < hi:
            return f"[{lo},{hi if hi is not None else 'inf'})"


def load_dataset(path, policy):
    """Parse every .qasm file of the directory ``path``; files that cannot
    be read, fail to parse or do not fit the policy are skipped with a
    warning."""
    if not Path(path).is_dir():
        raise ConfigError(f"dataset {path} is not a directory")
    instances = []
    skipped = 0
    for f in sorted(Path(path).glob("*.qasm")):
        try:
            pg = policy.program_graph(read_qasm(f))
            instances.append((f.stem, pg))
        except QLayoutError as exc:
            log.warning("skipping %s: %s", f.name, exc)
            skipped += 1
    return instances, skipped


def run_bench(cfg: BenchRun):
    """Returns (rows, summary). A circuit's rows share one ``decode`` call,
    whose time they split evenly as their ``wall_ms_rl``."""
    cost_model = CostModel.for_graph(cfg.device, cfg.cost_mode)
    instances, skipped = load_dataset(cfg.dataset, cfg.policy)
    rows = []
    for name, pg in instances:
        t0 = time.perf_counter()
        decoded = decode(pg, cfg.device, cfg.policy, cfg.runs, cost_model)
        wall_rl = (time.perf_counter() - t0) * 1e3 / len(cfg.runs)
        cost_fn = fast_cost_fn(pg, cost_model)
        for strategy, (layout, rl_cost) in zip(cfg.runs, decoded):
            pp_cost, wall_pp = rl_cost, 0.0
            stats = SearchStats(stop_reason="none")
            if cfg.postprocess:
                search = cfg.search or SearchConfig(
                    cost_mode=cfg.cost_mode, seed=strategy.seed)
                t1 = time.perf_counter()
                refined = local_search(layout, pg, cfg.device, search,
                                       stats)
                wall_pp = (time.perf_counter() - t1) * 1e3
                pp_cost = cost_fn(refined.assign)
            rows.append(ReportRow(
                instance=name, family=family_from_name(name),
                n=pg.num_logical, two_qubit_gates=pg.num_edges,
                strategy=strategy.kind, seed=strategy.seed, rl_cost=rl_cost,
                pp_cost=pp_cost, wall_ms_rl=wall_rl, wall_ms_pp=wall_pp,
                pp_iters=stats.iterations, pp_accepted=stats.accepted,
                pp_stop=stats.stop_reason,
            ))
    rows.sort(key=lambda r: (r.instance, r.strategy, r.seed))
    return rows, summarize(rows, skipped=skipped)


def _stats(values):
    arr = np.asarray(values, dtype=float)
    return {"mean": float(arr.mean()), "std": float(arr.std()),
            "count": len(arr)}


def _group_summary(rows, key_fn):
    groups = {}
    for r in rows:
        groups.setdefault(key_fn(r), []).append(r)
    return {
        k: {
            "rl_cost": _stats([r.rl_cost for r in g]),
            "pp_cost": _stats([r.pp_cost for r in g]),
        }
        for k, g in sorted(groups.items())
    }


def summarize(rows, skipped=0):
    summary = {
        "instances": len({r.instance for r in rows}),
        "skipped": skipped,
        "by_strategy": _group_summary(rows, lambda r: r.strategy),
        "by_family": _group_summary(rows, lambda r: r.family),
        "by_gate_bucket": _group_summary(
            rows, lambda r: _gate_bucket(r.two_qubit_gates)),
    }
    if rows:
        summary["overall"] = {
            "rl_cost": _stats([r.rl_cost for r in rows]),
            "pp_cost": _stats([r.pp_cost for r in rows]),
        }
    return summary


def baseline_summary(rows, baseline):
    """The summary's ``baseline`` block: ``rows`` joined with the baseline
    costs of ``import_baseline`` by instance."""
    joined = [r for r in rows if r.instance in baseline]
    missing_in_dataset = sorted(
        set(baseline) - {r.instance for r in rows})
    for name in missing_in_dataset:
        log.warning("baseline instance '%s' not in dataset, ignored", name)
    out = {"joined_rows": len(joined),
           "ignored_baseline_instances": missing_in_dataset}
    if joined:
        base_mean = float(np.mean([baseline[r.instance] for r in joined]))
        ours_rl = float(np.mean([r.rl_cost for r in joined]))
        ours_pp = float(np.mean([r.pp_cost for r in joined]))
        out["baseline_mean"] = base_mean
        if base_mean != 0:
            out["improvement_rl"] = (base_mean - ours_rl) / base_mean
            out["improvement_pp"] = (base_mean - ours_pp) / base_mean
    return out


def import_baseline(path):
    """CSV with columns instance,cost -> dict. A file that cannot be read as
    UTF-8 CSV, and a cost that is not a finite number, are a ParseError."""
    return read_input(path, ParseError, f"cannot read baseline {path}",
                      _baseline_costs)


def _baseline_costs(fh):
    reader = csv.DictReader(fh)
    if reader.fieldnames is None or not {
        "instance", "cost"
    }.issubset(reader.fieldnames):
        raise ParseError(
            f"baseline CSV needs 'instance,cost' columns, "
            f"got {reader.fieldnames}"
        )
    out = {}
    for lineno, record in enumerate(reader, start=2):
        try:
            cost = float(record["cost"])
        except (TypeError, ValueError):
            raise ParseError(f"bad cost value {shown(record['cost'])}",
                             line=lineno) from None
        if not math.isfinite(cost):
            raise ParseError(f"cost {shown(record['cost'])} is not finite",
                             line=lineno)
        out[record["instance"]] = cost
    return out


def write_report(rows, path, baseline=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [f.name for f in fields(ReportRow)]
        if baseline is not None:
            header.append("baseline_cost")
        writer.writerow(header)
        for r in rows:
            row = list(astuple(r))
            if baseline is not None:
                row.append(baseline.get(r.instance, ""))
            writer.writerow(row)


def write_summary(summary, path):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)


# --- synthetic embeddable instances ---------------------------------

def gen_embeddable_instance(cg: CouplingGraph, n, rng, n_max=None
                            ) -> ProgramGraph:
    """Program graph sampled as a random connected n-node subgraph of the
    device, so a zero-cost layout exists by construction (adjacent-free
    mode)."""
    adj = cg.adjacency_matrix()
    start = int(rng.integers(cg.num_physical))
    chosen = [start]
    chosen_set = {start}
    while len(chosen) < n:
        frontier = sorted(
            {int(v) for u in chosen for v in np.nonzero(adj[u])[0]
             if int(v) not in chosen_set}
        )
        if not frontier:
            raise ConfigError(f"device too small for an {n}-node subgraph")
        pick = int(frontier[rng.integers(len(frontier))])
        chosen.append(pick)
        chosen_set.add(pick)
    relabel = {p: i for i, p in enumerate(chosen)}
    edges = []
    for a, b in cg.edges:
        if a in chosen_set and b in chosen_set:
            i, j = relabel[a], relabel[b]
            edges.append((i, j) if rng.random() < 0.5 else (j, i))
    return ProgramGraph(n, tuple(edges), onehot_features(n, n_max))


# --- context-encoding ablation --------------------------------------

def run_context_ablation(cg, train_cfg, enc_cfg, dec_cfg, test_instances,
                         out_path=None, multistart_k=10, log_fn=None):
    """Train one policy per context encoding and report the mean decoded
    cost under all four strategies as a CSV grid."""
    if not test_instances:
        raise ConfigError("the context ablation needs at least one test "
                          "instance")
    cost_model = CostModel.for_graph(cg, train_cfg.cost_mode)
    results = []
    for kind in CONTEXT_KINDS:
        dcfg = replace(dec_cfg, context_kind=kind)
        if kind == "stack_project":
            dcfg = replace(dcfg, context_dim=enc_cfg.embed_dim)
        policy, _ = train_new(train_cfg, enc_cfg, dcfg, cg, log_fn=log_fn)
        strategies = [DecodeStrategy.make(strat, k=multistart_k,
                                          seed=train_cfg.seed)
                      for strat in STRATEGY_KINDS]
        costs = [[cost for _, cost in decode(pg, cg, policy, strategies,
                                             cost_model)]
                 for pg in test_instances]
        row = {"context_encoding": kind}
        for strat, column in zip(STRATEGY_KINDS, zip(*costs)):
            row[strat] = float(np.mean(column))
        results.append(row)
    if out_path is not None:
        with open(out_path, "w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["context_encoding", *STRATEGY_KINDS])
            writer.writeheader()
            writer.writerows(results)
    return results
