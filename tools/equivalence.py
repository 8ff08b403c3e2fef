"""Record what qlayout computes on fixed inputs, and compare two records.

Run ``record`` in two checkouts and ``compare`` the files to see whether a
change alters any output:

    PYTHONPATH=src python3 tools/equivalence.py record parent.json
    PYTHONPATH=src python3 tools/equivalence.py compare parent.json change.json

A record holds, as exact JSON floats:

- ``decode``: the layout and cost of every decoding strategy on the
  untrained default policy for heavyhex65 (the policy ``qlayout map``
  uses, on 20-40 qubit circuits, both cost modes) and on a desk-scale
  4x4-grid policy for each of the 18 norm x context x sharing settings;
- ``rollout``: sampled batched rollouts of those 18 policies in eval and
  in training mode, each episode's layout and cost, and in training mode
  the batch's ``log_probs`` vector;
- ``bench``: ``rl_cost`` and ``pp_cost`` of every ``run_bench`` row over
  8 circuits of the map benchmark's generator on the untrained default
  heavyhex65 policy, all four strategies x seeds 0-2, keyed
  ``<instance>/<strategy>/seed=<seed>``;
- ``ablation``: the ``run_context_ablation`` grid (mean cost per context
  encoding and strategy) at the scale of acceptance criterion 10;
- ``local_search``: refined layouts and costs on heavyhex65 for both
  neighbourhoods, both cost modes and both patience rules, keyed
  ``<case>/<neighbourhood>/<cost mode>/reset=<rule>``. The cases are
  ``c0``-``c3`` (20-40 qubit circuits, the default budget), ``full`` (a
  65-qubit circuit on every seat, so each move swaps an occupied pair),
  ``one-qubit`` (a 1-qubit program, so every move is a no-op or a move to
  a free seat, whose qubit draw has one value and still takes a word),
  ``refine0``-``refine7`` (30-60 qubit circuits with up to 10 gates per
  qubit, ``n_iters == patience == 2000`` as in the refine benchmark
  workload, ``reset=False`` only) and ``two-qubit`` (a 2-qubit program:
  a swap's second draw and an occupied seat's partner draw have one
  value each, and each still takes a raw word);
- ``brute_force``: the exact optimum (layout and cost) of 40 random
  2-5 qubit circuits on 1x3, 2x2, 2x3 and 3x3 grids in both cost modes,
  keyed ``b<i>/<device>/<cost mode>``;
- ``train``: four desk-scale epochs (mean reward, baseline, gradient norm)
  and every final parameter;
- ``batch_gradient``: the rewards and every parameter's gradient of one
  ``_batch_gradient`` call on a fixed 32-instance batch for each of the 18
  desk policies, keyed ``grid4x4/<norm>/<context>/shared=<flag>``; and
  ``instances``, the edges of 200 ``gen_random_instance`` draws (2-15
  qubits, edge probabilities 0.3, 0.5 and 1) and ``next_draw``, the
  generator's next ``random()`` after them;
- ``batch_norm``: two short epochs of a desk-scale batch-norm policy with
  separate and with shared encoders, keyed ``shared=<flag>``: each epoch's
  mean reward, baseline and gradient norm, and every final running mean
  and variance;
- ``checkpoint``: every parameter and norm buffer after a ``save`` and
  ``load``, and the loaded policy's greedy decode of one circuit, for the
  default heavyhex65 policy and for each of the 18 desk policies after
  one training-mode encode of 8 circuits (which moves the batch-norm
  running statistics), keyed like ``decode``'s policies;
- ``parse``: ``num_qubits`` and the gate list (``"<kind> <qubit>..."``
  per gate) of ``parse_qasm`` on fixed sources: circuits of the benchmark
  generator for the refine and map workloads; one of them comment-headed,
  with CR LF, CR, U+2028 or form-feed line breaks, and all on one line;
  statements over several lines with comments inside, a CR followed by a
  comment line, whole-register operands and parameterised gates.

Each decode also stores its smallest decision margin: over every step of
every start, the gap between the two most probable free seats where the
step takes the argmax, and the distance of the uniform draw from the
nearest edge of the cumulative distribution where it samples. A layout
that differs between two records is a near-tie when that margin is below
1e-9 in either record: rounding alone can then move the choice.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

# the benchmark's circuit generator, read from this checkout's perfbench/
sys.path.append(str(Path(__file__).resolve().parents[1]))

STRATEGIES = ("greedy", "sampling", "multistart_greedy", "multistart_sampling")
COST_MODES = ("adjacent-free", "literal")
NEAR_TIE = 1e-9


def random_qasm(rng, n, gates):
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    for _ in range(gates):
        a, b = rng.sample(range(n), 2)
        lines.append(f"cx q[{a}],q[{b}];")
    return "\n".join(lines) + "\n"


def parse_sources():
    """Name -> QASM source of the ``parse`` section."""
    from perfbench import gen
    from perfbench.workloads import MapWorkload, RefineWorkload

    sources = {}
    for work in (RefineWorkload, MapWorkload):
        circuits = gen.circuit_set(work.name, 1, 10, work.qubits,
                                   work.gate_factor)
        for i, circuit in enumerate(circuits):
            sources[f"{work.name}/{i}"] = circuit.qasm
    sample = sources[f"{RefineWorkload.name}/0"]
    sources["comment-headed"] = (
        "// Benchmark was created by a generator\n// see https://example.org"
        "\n\n" + sample)
    sources["crlf"] = sample.replace("\n", "\r\n")
    sources["one-line"] = " ".join(sample.splitlines())
    sources["cr"] = sample.replace("\n", "\r")
    sources["line-separator"] = sample.replace("\n", "\u2028")
    sources["form-feed"] = sample.replace("\n", "\f")
    sources["multi-line-statements"] = (
        "OPENQASM 2.0;\nqreg q[3];\ncx q[0], // control\n  q[2];\n"
        "rz(pi/2)\n\nq[1]; h\nq[0]\n;\nswap q[1],\n// q[0]\nq[2];\n")
    sources["cr-comment"] = (
        "qreg q[2];\r// c\nh q[1];\r// d; x q[0];\ncx q[1],q[0];\r\n")
    sources["broadcast"] = (
        "OPENQASM 2.0;\nqreg q[3];\nqreg r[2];\ncreg c[2];\nh q;\nx r;\n"
        "cx q[2],r[0];\nbarrier q,r;\nmeasure r -> c;\n")
    sources["parameterised"] = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
        "rz(pi/2) q[0];\nu3(0.1, -pi/4, 2) q[1];\nu2(0,-pi) q[2];\n"
        "p( pi / 8 ) q[0]; // phase\nrx(-1.5)q[2];\ncz q[0], q[2];\n")
    return sources


def map_graphs(policy, count=10):
    import qlayout as ql

    rng = random.Random("equivalence:map")
    graphs = []
    for i in range(count):
        n = 20 + (20 * i) // (count - 1)
        circ = ql.parse_qasm(random_qasm(rng, n, rng.randint(n, 6 * n)))
        graphs.append(ql.build_program_graph(circ,
                                             n_max=policy.prog_feature_dim))
    return graphs


def bench_record(policy, directory):
    """The costs of every ``run_bench`` row over map-generator circuits
    written to ``directory``."""
    from perfbench import gen
    from perfbench.workloads import MapWorkload
    from qlayout.bench import BenchRun, run_bench

    for i, circuit in enumerate(gen.circuit_set(
            "equivalence:bench", 0, 8, MapWorkload.qubits,
            MapWorkload.gate_factor)):
        (Path(directory) / f"map_{i}.qasm").write_text(circuit.qasm)
    rows, _ = run_bench(BenchRun(dataset=Path(directory), device=policy.cg,
                                 policy=policy, strategies=list(STRATEGIES),
                                 seeds=[0, 1, 2]))
    return {f"{r.instance}/{r.strategy}/seed={r.seed}":
            {"rl_cost": float(r.rl_cost), "pp_cost": float(r.pp_cost)}
            for r in rows}


def ablation_record():
    """The context-ablation grid at the scale of acceptance criterion 10."""
    import qlayout as ql
    from qlayout.bench import run_context_ablation

    train_cfg = ql.TrainConfig(epochs=1, batches_per_epoch=1, batch_size=2,
                               n_min=2, n_max=3, edge_prob=0.8, val_size=2,
                               seed=0)
    enc = ql.EncoderConfig(layers=1, heads=2, embed_dim=8, norm_kind="graph")
    dec = ql.DecoderConfig(heads=2, context_dim=8)
    rng = np.random.default_rng(10)
    tests = [ql.gen_random_instance(3, 0.6, rng, n_max=3) for _ in range(3)]
    rows = run_context_ablation(ql.build_grid(2, 2), train_cfg, enc, dec,
                                tests, multistart_k=3)
    return {row.pop("context_encoding"): row for row in rows}


def desk_policy(norm="graph", context="concat_project", shared=False):
    import qlayout as ql

    enc = ql.EncoderConfig(layers=2, heads=4, embed_dim=16, norm_kind=norm)
    dec = ql.DecoderConfig(heads=4, context_dim=16, context_kind=context)
    return ql.PolicyNetwork(ql.build_grid(4, 4), enc, dec, prog_feature_dim=12,
                            shared_encoder=shared, seed=0)


def desk_graphs(count, seed):
    import qlayout as ql

    rng = np.random.default_rng(seed)
    return [ql.gen_random_instance(int(rng.integers(6, 13)), 0.3, rng,
                                   n_max=12) for _ in range(count)]


def decision_margin(policy, pg, strategy):
    """The smallest decision margin of ``decode`` under ``strategy``, and
    the seats of each start, from the episode's logit table.

    Start s draws from ``default_rng([seed, s])``; the greedy kinds sample
    only the first step of starts after the first, the sampling kinds
    sample every step."""
    from qlayout.diffcore import softmax_array
    from qlayout.training import _episodes

    n = pg.num_logical
    # the table decode walks, built as both sides of a comparison build it
    table = _episodes([pg], policy.cg, policy, None, False)[0].data
    margin = np.inf
    seats = []
    for start in range(strategy.k):
        rng = np.random.default_rng([strategy.seed, start])
        if "greedy" in strategy.kind:
            sampled = 0 if start == 0 else 1
        else:
            sampled = n
        free = np.ones(table.shape[1], dtype=bool)
        chosen = []
        for t in range(n):
            probs = softmax_array(np.where(free, table[t], -np.inf), 0)
            if t < sampled:
                cdf = np.cumsum(probs / probs.sum())
                cdf /= cdf[-1]
                u = rng.random()
                seat = int(np.searchsorted(cdf, u, side="right"))
                margin = min(margin, float(np.abs(cdf[:-1] - u).min(
                    initial=np.inf)))
            else:
                seat = int(np.argmax(probs))
                top = np.sort(probs[free])[::-1]
                if len(top) > 1:
                    margin = min(margin, float(top[0] - top[1]))
            chosen.append(seat)
            free[seat] = False
        seats.append(chosen)
    return margin, seats


def decode_record(policy, pg, kind, cost_mode):
    import qlayout as ql

    strategy = ql.DecodeStrategy.make(kind, k=4 if "multistart" in kind
                                      else 1, seed=0)
    cm = ql.CostModel(cost_mode, policy.cg.distances)
    layout, cost = ql.decode(pg, policy.cg, policy, strategy, cm)
    margin, seats = decision_margin(policy, pg, strategy)
    if layout.assign.tolist() not in seats:
        raise SystemExit("the margin replay does not reproduce decode; "
                         "update decision_margin to the decode loop")
    return {"layout": layout.assign.tolist(), "cost": float(cost),
            "margin": margin}


def checkpoint_record(policy, pg):
    """Every array of ``policy`` after a save and a load, and the loaded
    policy's greedy decode of ``pg``."""
    import qlayout as ql

    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "policy.json"
        policy.save(path)
        back = ql.PolicyNetwork.load(path)
    layout, cost = ql.decode(pg, back.cg, back,
                             ql.DecodeStrategy.make("greedy"))
    return {
        "params": {k: t.data.ravel().tolist()
                   for k, t in sorted(back.store.params.items())},
        "buffers": {k: v.ravel().tolist()
                    for k, v in sorted(back.store.buffers.items())},
        "greedy": {"layout": layout.assign.tolist(), "cost": float(cost)}}


def search_records(out, name, pg, cg, initial, seed, resets=(False, True),
                   **budget):
    """Refine ``initial`` under both neighbourhoods, both cost modes and
    each patience rule in ``resets``; store each layout and cost."""
    import qlayout as ql

    for hood, mode, reset in itertools.product(
            ("random_assignment", "random_swap"), COST_MODES, resets):
        cfg = ql.SearchConfig(neighborhood=hood, seed=seed, cost_mode=mode,
                              reset_patience=reset, **budget)
        refined = ql.local_search(initial, pg, cg, cfg)
        out[f"{name}/{hood}/{mode}/reset={reset}"] = {
            "layout": refined.assign.tolist(),
            "cost": float(ql.swap_cost(refined, pg,
                                       ql.CostModel(mode, cg.distances)))}


def record():
    import qlayout as ql
    from qlayout.policy import CONTEXT_KINDS, NORM_KINDS
    from qlayout.training import _batch_gradient

    out = {"decode": {}, "rollout": {}, "local_search": {},
           "brute_force": {}, "train": {}, "batch_gradient": {},
           "batch_norm": {}, "parse": {}, "bench": {}, "ablation": {},
           "checkpoint": {}}

    for name, source in parse_sources().items():
        circ = ql.parse_qasm(source)
        out["parse"][name] = {
            "num_qubits": circ.num_qubits,
            "gates": [" ".join([g.kind, *map(str, g.qubits)])
                      for g in circ.gates]}

    hh = ql.PolicyNetwork(ql.build_heavy_hex(), ql.EncoderConfig(),
                          ql.DecoderConfig(), prog_feature_dim=40, seed=0)
    hh_graphs = map_graphs(hh)
    out["checkpoint"]["heavyhex65"] = checkpoint_record(hh, hh_graphs[0])
    with tempfile.TemporaryDirectory() as directory:
        out["bench"] = bench_record(hh, directory)
    out["ablation"] = ablation_record()
    for i, pg in enumerate(hh_graphs):
        for kind, mode in itertools.product(STRATEGIES, COST_MODES):
            out["decode"][f"heavyhex65/c{i}/{kind}/{mode}"] = decode_record(
                hh, pg, kind, mode)

    for norm, context, shared in itertools.product(NORM_KINDS, CONTEXT_KINDS,
                                                   (False, True)):
        name = f"grid4x4/{norm}/{context}/shared={shared}"
        policy = desk_policy(norm, context, shared)
        moved = desk_policy(norm, context, shared)
        moved.encode(desk_graphs(8, 15), train=True)
        out["checkpoint"][name] = checkpoint_record(moved,
                                                    desk_graphs(1, 16)[0])
        for i, pg in enumerate(desk_graphs(25, 11)):
            for kind in STRATEGIES:
                out["decode"][f"{name}/g{i}/{kind}"] = decode_record(
                    policy, pg, kind, "adjacent-free")
        batch = desk_graphs(8, 12)
        for train in (False, True):
            results = ql.rollout(batch, policy.cg, policy, mode="sample",
                                 rng=np.random.default_rng(5), train=train)
            case = out["rollout"][f"{name}/train={train}"] = {
                "episodes": [{"layout": r.layout.assign.tolist(),
                              "cost": float(r.cost)} for r in results]}
            if train:
                case["log_probs"] = results.log_probs.data.tolist()
        rewards, grads = _batch_gradient(
            desk_graphs(32, 13), policy.cg, policy,
            ql.CostModel("adjacent-free", policy.cg.distances),
            np.random.default_rng(6), -30.0)
        out["batch_gradient"][name] = {
            "rewards": rewards,
            "grads": {k: v.ravel().tolist() for k, v in sorted(grads.items())}}
    rng = np.random.default_rng(14)
    out["batch_gradient"]["instances"] = [
        {"edges": [list(e) for e in ql.gen_random_instance(
            int(rng.integers(2, 16)), (0.3, 0.5, 1.0)[i % 3], rng).edges]}
        for i in range(200)]
    out["batch_gradient"]["next_draw"] = rng.random()

    searches = out["local_search"]
    rng = np.random.default_rng(3)
    n_phys = hh.cg.num_physical
    for i, pg in enumerate(hh_graphs[:4]):
        initial = ql.Layout(rng.permutation(n_phys)[:pg.num_logical])
        search_records(searches, f"c{i}", pg, hh.cg, initial, seed=i)
    qrng = random.Random("equivalence:search")
    full = ql.build_program_graph(ql.parse_qasm(random_qasm(qrng, n_phys,
                                                            3 * n_phys)))
    search_records(searches, "full", full, hh.cg,
                   ql.Layout(rng.permutation(n_phys)), seed=4)
    one = ql.build_program_graph(ql.parse_qasm(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];\n'))
    search_records(searches, "one-qubit", one, hh.cg,
                   ql.Layout(rng.permutation(n_phys)[:1]), seed=5)
    for i in range(8):
        n = 30 + (30 * i) // 7
        pg = ql.build_program_graph(ql.parse_qasm(
            random_qasm(qrng, n, qrng.randint(n, 10 * n))))
        initial = ql.Layout(rng.permutation(n_phys)[:n])
        search_records(searches, f"refine{i}", pg, hh.cg, initial, seed=i,
                       resets=(False,), n_iters=2000, patience=2000)
    two = ql.build_program_graph(ql.parse_qasm(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
        'cx q[0],q[1];\ncx q[1],q[0];\n'))
    search_records(searches, "two-qubit", two, hh.cg,
                   ql.Layout(rng.permutation(n_phys)[:2]), seed=6)

    brng = random.Random("equivalence:brute_force")
    grids = [(1, 3), (2, 2), (2, 3), (3, 3)]
    for i in range(40):
        rows, cols = grids[i % len(grids)]
        cg = ql.build_grid(rows, cols)
        n = brng.randint(2, min(5, cg.num_physical))
        pg = ql.build_program_graph(ql.parse_qasm(
            random_qasm(brng, n, brng.randint(1, 3 * n))))
        for mode in COST_MODES:
            layout, cost = ql.brute_force_optimal(
                pg, cg, ql.CostModel(mode, cg.distances))
            out["brute_force"][f"b{i}/grid{rows}x{cols}/{mode}"] = {
                "layout": layout.assign.tolist(), "cost": float(cost)}

    policy = desk_policy()
    cfg = ql.TrainConfig(epochs=4, batches_per_epoch=8, batch_size=32,
                         n_min=6, n_max=12, edge_prob=0.3, seed=0,
                         val_size=32, lr=3e-3)
    metrics = ql.train(cfg, policy, policy.cg)
    out["train"]["epochs"] = [
        {"mean_reward": m.mean_reward, "baseline": m.baseline,
         "grad_norm": m.grad_norm} for m in metrics]
    out["train"]["params"] = {k: v.ravel().tolist()
                              for k, v in sorted(policy.store.data().items())}

    cfg = ql.TrainConfig(epochs=2, batches_per_epoch=4, batch_size=16,
                         n_min=6, n_max=12, edge_prob=0.3, seed=1,
                         val_size=16, lr=3e-3)
    for shared in (False, True):
        policy = desk_policy("batch", shared=shared)
        metrics = ql.train(cfg, policy, policy.cg)
        out["batch_norm"][f"shared={shared}"] = {
            "epochs": [{"mean_reward": m.mean_reward, "baseline": m.baseline,
                        "grad_norm": m.grad_norm} for m in metrics],
            "buffers": {k: v.tolist()
                        for k, v in sorted(policy.store.buffers.items())}}
    return out


def leaves(doc, prefix=""):
    """(path, value) for every list of numbers or number in ``doc``."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, f"{prefix}/{key}" if prefix else key)
    elif isinstance(doc, list) and doc and isinstance(doc[0], dict):
        for i, value in enumerate(doc):
            yield from leaves(value, f"{prefix}[{i}]")
    else:
        yield prefix, doc


def compare(path_a, path_b):
    """Print, per section, how many outputs are equal bit for bit; every
    decode layout that differs with its margins; and the largest relative
    difference of the numbers that differ. Returns 1 if a layout differs
    without a near-tie, or a text output or the length of a list does."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    status = 0
    for section in a:
        va, vb = dict(leaves(a[section])), dict(leaves(b[section]))
        if va.keys() != vb.keys():
            print(f"{section}: the records hold different cases")
            status = 1
            continue
        keys = [k for k in va if not k.endswith("/margin")]
        same = [k for k in keys if va[k] == vb[k]]
        print(f"{section}: {len(same)} of {len(keys)} outputs identical")
        moved = set()
        for key in keys:
            if key.endswith("/layout") and va[key] != vb[key]:
                base = key[: -len("layout")]
                moved.add(base)
                margins = [va.get(base + "margin"), vb.get(base + "margin")]
                tie = any(m is not None and m < NEAR_TIE for m in margins)
                status |= not tie
                print(f"  layout differs: {key} margins {margins}"
                      f"{'' if tie else '  NOT A NEAR-TIE'}")
        worst = 0.0
        for key in keys:
            if (va[key] == vb[key] or key.endswith("/layout")
                    or key.rsplit("/", 1)[0] + "/" in moved):
                continue
            try:
                x, y = np.asarray(va[key], float), np.asarray(vb[key], float)
                rel = np.abs(x - y) / np.maximum(
                    np.maximum(np.abs(x), np.abs(y)), 1e-300)
            except ValueError:  # text, or lists of two lengths
                print(f"  differs: {key}")
                status = 1
                continue
            worst = max(worst, float(rel.max(initial=0.0)))
        print(f"  {len(moved)} layouts differ; largest relative difference "
              f"of the other numbers: {worst:.3g}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="write the record of this checkout")
    rec.add_argument("out")
    cmp_ = sub.add_parser("compare", help="compare two records")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "record":
        with open(args.out, "w") as fh:
            json.dump(record(), fh)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
