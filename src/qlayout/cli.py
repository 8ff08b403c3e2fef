"""Command-line entry points: features, train, map, postprocess, bench,
and the context-encoding ablation."""

from __future__ import annotations

import json
import logging
import os
import re
import sys
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from .bench import (
    BenchRun,
    baseline_summary,
    import_baseline,
    run_bench,
    run_context_ablation,
    write_report,
    write_summary,
)
from .circuit import (
    build_program_graph,
    check_qubit_count,
    extract_features,
    read_qasm,
)
from .errors import ConfigError, QLayoutError, TopologyError
from .objective import COST_MODES, CostModel, Layout
from .policy import (
    CONTEXT_KINDS,
    NORM_KINDS,
    DecoderConfig,
    EncoderConfig,
    PolicyNetwork,
)
from .postprocess import (NEIGHBORHOODS, SearchConfig, SearchStats,
                          local_search)
from .topology import build_grid, build_heavy_hex, load_coupling_graph
from .training import (
    STRATEGY_KINDS,
    DecodeStrategy,
    TrainConfig,
    check_training_sizes,
    decode,
    gen_random_instance,
    train_new,
    write_metrics_csv,
)


def check_outputs(*paths):
    """Reject, before any work, an output path that is a directory or
    whose directory is missing or not writable; None is no output. A
    write that fails later anyway is an OSError, which ``entry`` prints
    as one line."""
    for path in map(Path, filter(None, paths)):
        if path.is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
        if not path.parent.is_dir():
            raise ConfigError(f"cannot write {path}: no directory "
                              f"{path.parent}")
        if not os.access(path.parent, os.W_OK):
            raise ConfigError(f"cannot write {path}: {path.parent} is not "
                              "writable")


def resolve_device(name):
    """grid<R>x<C> with positive R and C, heavyhex65, or a path to an
    edge-list JSON file."""
    if name.startswith("grid"):
        m = re.fullmatch(r"grid0*([1-9]\d*)x0*([1-9]\d*)", name)
        if m is None:
            raise TopologyError(
                f"device '{name}' is not grid<R>x<C> with positive integers"
            )
        return build_grid(int(m[1]), int(m[2]))
    if name in ("heavyhex65", "heavyhex"):
        return build_heavy_hex()
    return load_coupling_graph(name)


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose):
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )


@main.command()
@click.argument("qasm_file", type=click.Path(exists=True))
@click.option("--walk-radius", default=4, show_default=True)
def features(qasm_file, walk_radius):
    """Emit engineered per-qubit features for a circuit as JSON."""
    circ = read_qasm(qasm_file)
    feats = extract_features(circ, walk_radius)
    click.echo(json.dumps(
        {str(q): list(f.as_array()) for q, f in enumerate(feats)}
    ))


@main.command()
@click.option("--device", default="grid4x4", show_default=True)
@click.option("--n-min", default=6, show_default=True)
@click.option("--n-max", default=12, show_default=True)
@click.option("--epochs", default=50, show_default=True)
@click.option("--batches", default=20, show_default=True)
@click.option("--batch-size", default=64, show_default=True)
@click.option("--lr", default=3e-4, show_default=True)
@click.option("--edge-prob", default=0.3, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--cost-mode", default="adjacent-free", show_default=True,
              type=click.Choice(COST_MODES))
@click.option("--val-size", default=256, show_default=True)
@click.option("--d-e", default=128, show_default=True)
@click.option("--d-c", default=128, show_default=True)
@click.option("--layers", default=4, show_default=True)
@click.option("--heads", default=8, show_default=True)
@click.option("--m-heads", default=16, show_default=True)
@click.option("--norm", default="batch", show_default=True,
              type=click.Choice(NORM_KINDS))
@click.option("--context", default="concat_project", show_default=True,
              type=click.Choice(CONTEXT_KINDS))
@click.option("--shared-encoder", is_flag=True)
@click.option("--out", required=True, type=click.Path(),
              help="Checkpoint output path.")
@click.option("--metrics", type=click.Path(), help="Metrics CSV path.")
def train(device, n_min, n_max, epochs, batches, batch_size, lr, edge_prob,
          seed, cost_mode, val_size, d_e, d_c, layers, heads, m_heads, norm,
          context, shared_encoder, out, metrics):
    """Train a layout policy on random instances for a fixed device."""
    check_outputs(out, metrics)
    cg = resolve_device(device)
    cfg = TrainConfig(epochs=epochs, batches_per_epoch=batches,
                      batch_size=batch_size, lr=lr, n_min=n_min, n_max=n_max,
                      edge_prob=edge_prob, seed=seed, cost_mode=cost_mode,
                      val_size=val_size)
    enc = EncoderConfig(layers=layers, heads=heads, embed_dim=d_e,
                        norm_kind=norm)
    dec = DecoderConfig(heads=m_heads, context_kind=context, context_dim=d_c)
    policy, rows = train_new(
        cfg, enc, dec, cg, shared_encoder=shared_encoder,
        log_fn=lambda r: click.echo(
            f"epoch {r.epoch}: reward {r.mean_reward:.3f} "
            f"baseline {r.baseline:.3f} grad {r.grad_norm:.4f} "
            f"adv std {r.adv_std:.3f}"
        ),
    )
    policy.save(out)
    if metrics:
        write_metrics_csv(rows, metrics)
    click.echo(f"saved checkpoint to {out}")


@main.command(name="map")
@click.option("--circuit", "circuit_path", required=True,
              type=click.Path(exists=True))
@click.option("--ckpt", required=True, type=click.Path(exists=True))
@click.option("--strategy", default="greedy", show_default=True,
              type=click.Choice(STRATEGY_KINDS))
@click.option("--k", default=10, show_default=True,
              help="Starts for multistart strategies.")
@click.option("--seed", default=0, show_default=True)
@click.option("--cost-mode", default="adjacent-free", show_default=True,
              type=click.Choice(COST_MODES))
@click.option("--out", type=click.Path(), help="Layout JSON output path.")
def map_cmd(circuit_path, ckpt, strategy, k, seed, cost_mode, out):
    """Map a circuit onto the checkpoint's device."""
    policy = PolicyNetwork.load(ckpt)
    pg = policy.program_graph(read_qasm(circuit_path))
    strat = DecodeStrategy.make(strategy, k=k, seed=seed)
    cm = CostModel.for_graph(policy.cg, cost_mode)
    layout, cost = decode(pg, policy.cg, policy, strat, cm)
    doc = layout.to_dict(policy.cg.num_physical)
    doc["cost"] = cost
    if out:
        Path(out).write_text(json.dumps(doc))
    click.echo(json.dumps(doc))


@main.command()
@click.option("--layout", "layout_path", required=True,
              type=click.Path(exists=True))
@click.option("--circuit", "circuit_path", required=True,
              type=click.Path(exists=True))
@click.option("--device", required=True)
@click.option("--op", default="random_assignment", show_default=True,
              type=click.Choice(NEIGHBORHOODS))
@click.option("--iters", default=10000, show_default=True)
@click.option("--patience", default=500, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--cost-mode", default="adjacent-free", show_default=True,
              type=click.Choice(COST_MODES))
@click.option("--reset-patience", is_flag=True)
@click.option("--out", type=click.Path())
def postprocess(layout_path, circuit_path, device, op, iters, patience, seed,
                cost_mode, reset_patience, out):
    """Refine a layout with hill-climbing local search."""
    cg = resolve_device(device)
    circ = read_qasm(circuit_path)
    check_qubit_count(circ.num_qubits, cg.num_physical, "the device's N")
    pg = build_program_graph(circ)
    layout = Layout.load(layout_path, cg.num_physical)
    cfg = SearchConfig(neighborhood=op, n_iters=iters, patience=patience,
                       seed=seed, cost_mode=cost_mode,
                       reset_patience=reset_patience)
    stats = SearchStats()
    refined = local_search(layout, pg, cg, cfg, stats)
    doc = refined.to_dict(cg.num_physical)
    doc.update({"cost_before": stats.start_cost,
                "cost_after": stats.final_cost, "search": asdict(stats)})
    if out:
        Path(out).write_text(json.dumps(doc))
    click.echo(json.dumps(doc))


@main.command()
@click.option("--dataset", required=True, type=click.Path(exists=True))
@click.option("--ckpt", required=True, type=click.Path(exists=True))
@click.option("--strategies", default="greedy", show_default=True,
              help="Comma-separated strategy kinds.")
@click.option("--pp/--no-pp", default=True, show_default=True)
@click.option("--k", default=10, show_default=True)
@click.option("--seeds", default="0", show_default=True,
              help="Comma-separated seeds.")
@click.option("--cost-mode", default="adjacent-free", show_default=True,
              type=click.Choice(COST_MODES))
@click.option("--baseline", "baseline_path", type=click.Path(exists=True),
              help="CSV of externally produced per-instance costs.")
@click.option("--out", required=True, type=click.Path(),
              help="Report CSV path.")
@click.option("--summary", "summary_path", type=click.Path(),
              help="Summary JSON path.")
def bench(dataset, ckpt, strategies, pp, k, seeds, cost_mode, baseline_path,
          out, summary_path):
    """Evaluate a checkpoint over a dataset of .qasm files on the
    checkpoint's device."""
    check_outputs(out, summary_path)
    try:
        seed_list = [int(s) for s in seeds.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--seeds {seeds!r}: {exc}") from None
    policy = PolicyNetwork.load(ckpt)
    cfg = BenchRun(
        dataset=Path(dataset), device=policy.cg, policy=policy,
        strategies=[s.strip() for s in strategies.split(",") if s.strip()],
        postprocess=pp, cost_mode=cost_mode,
        seeds=seed_list, multistart_k=k,
    )
    baseline = import_baseline(baseline_path) if baseline_path else None
    rows, summary = run_bench(cfg)
    if baseline is not None:
        summary["baseline"] = baseline_summary(rows, baseline)
    write_report(rows, out, baseline=baseline)
    if summary_path:
        write_summary(summary, summary_path)
    click.echo(f"wrote {len(rows)} rows to {out}")


@main.command(name="ablate-context")
@click.option("--device", default="grid4x4", show_default=True)
@click.option("--n-min", default=4, show_default=True)
@click.option("--n-max", default=8, show_default=True)
@click.option("--epochs", default=5, show_default=True)
@click.option("--batches", default=4, show_default=True)
@click.option("--batch-size", default=16, show_default=True)
@click.option("--val-size", default=32, show_default=True)
@click.option("--test-size", default=16, show_default=True)
@click.option("--d-e", default=32, show_default=True)
@click.option("--layers", default=2, show_default=True)
@click.option("--heads", default=4, show_default=True)
@click.option("--m-heads", default=4, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", required=True, type=click.Path())
def ablate_context(device, n_min, n_max, epochs, batches, batch_size,
                   val_size, test_size, d_e, layers, heads, m_heads, seed,
                   out):
    """Train all three context encodings and emit a comparison CSV."""
    check_outputs(out)
    cg = resolve_device(device)
    cfg = TrainConfig(epochs=epochs, batches_per_epoch=batches,
                      batch_size=batch_size, n_min=n_min, n_max=n_max,
                      seed=seed, val_size=val_size)
    # here, before the test set is drawn; ``train`` checks only after it
    check_training_sizes(cfg, cg.num_physical, test_size=test_size)
    enc = EncoderConfig(layers=layers, heads=heads, embed_dim=d_e)
    dec = DecoderConfig(heads=m_heads, context_dim=d_e)
    rng = np.random.default_rng([seed, 99])
    test = [gen_random_instance(int(rng.integers(n_min, n_max + 1)), 0.3,
                                rng, n_max=n_max) for _ in range(test_size)]
    run_context_ablation(cg, cfg, enc, dec, test, out_path=out)
    click.echo(f"wrote ablation table to {out}")


def entry():
    try:
        main()
    except (QLayoutError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    entry()
