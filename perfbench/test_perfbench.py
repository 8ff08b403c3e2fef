"""Tests of the benchmark's own parts: generator, oracle, tracer, entry point."""

import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import qlayout as ql
from qlayout import diffcore, objective, policy, postprocess, training
from qlayout.errors import QLayoutError

from perfbench import calib, gen
from perfbench.metrics import (PER_LAYER, WALL, per_layer, percentile,
                               timings)
from perfbench.oracle import Oracle, layout_problems
from perfbench.tracer import Tracer, _qlayout_modules
from perfbench.workloads import grid_edges

ROOT = Path(__file__).resolve().parent.parent


def qasm_of(circuits):
    return [c.qasm for c in circuits]


def test_same_seed_gives_identical_qasm_and_another_seed_differs():
    a = gen.circuit_set("map-heavyhex65", 3, 20, (20, 40), (1, 6))
    b = gen.circuit_set("map-heavyhex65", 3, 20, (20, 40), (1, 6))
    c = gen.circuit_set("map-heavyhex65", 4, 20, (20, 40), (1, 6))
    assert "".join(qasm_of(a)).encode() == "".join(qasm_of(b)).encode()
    assert qasm_of(a) != qasm_of(c)
    h1 = gen.er_set("train-grid4x4", 3, 20, (6, 12), 0.3)
    h2 = gen.er_set("train-grid4x4", 3, 20, (6, 12), 0.3)
    h3 = gen.er_set("train-grid4x4", 4, 20, (6, 12), 0.3)
    assert qasm_of(h1) == qasm_of(h2) != qasm_of(h3)


def test_generated_circuits_match_their_pair_lists():
    for circuit in gen.circuit_set("refine-heavyhex65", 1, 10, (30, 60),
                                   (1, 10)):
        parsed = ql.parse_qasm(circuit.qasm)
        assert parsed.num_qubits == circuit.num_qubits
        assert tuple(g.qubits for g in parsed.gates
                     if g.is_two_qubit) == circuit.pairs
        assert len(circuit.pairs) % circuit.num_qubits == 0


def test_stratified_sizes_cover_the_range():
    values = gen.stratified(gen.make_rng("w", 0, "s"), 21, 20, 40)
    assert sorted(values) == list(range(20, 41))


def test_every_seed_gets_the_same_size_mix():
    def mix(seed):
        return sorted((c.num_qubits, len(c.pairs)) for c in
                      gen.circuit_set("map-heavyhex65", seed, 100, (20, 40),
                                      (1, 6)))
    assert mix(1) == mix(2) == mix(3)
    assert len(set(mix(1))) > 50  # pairs, not one size per qubit count


def test_oracle_flags_a_duplicated_seat():
    assert layout_problems([0, 1, 2], 3, 16) == []
    assert any("twice" in p for p in layout_problems([0, 5, 5], 3, 16))
    assert layout_problems([0, 1], 3, 16)  # not total
    assert layout_problems([0, 1, 16], 3, 16)  # out of range
    oracle = Oracle(16, grid_edges(4, 4))
    circuit = gen.GenCircuit(3, "", ((0, 1), (1, 2)))
    assert oracle.check_layout([0, 5, 5], circuit, "literal", 4.0)


def test_oracle_cost_matches_the_program_and_rejects_a_wrong_claim():
    cg = ql.build_heavy_hex()
    oracle = Oracle(cg.num_physical, cg.edge_list)
    assert oracle.dist == cg.distances.entries.tolist()
    rng = gen.make_rng("t", 0, "layouts")
    for circuit in gen.circuit_set("t", 0, 6, (30, 60), (1, 10)):
        assign = rng.sample(range(65), circuit.num_qubits)
        pg = ql.build_program_graph(ql.parse_qasm(circuit.qasm))
        for mode in ("literal", "adjacent-free"):
            cost = objective.fast_cost_fn(
                pg, ql.CostModel(mode, cg.distances))(np.array(assign))
            assert oracle.check_layout(assign, circuit, mode, cost) == []
            assert oracle.check_layout(assign, circuit, mode, cost + 2)


def test_oracle_flags_a_refinement_that_raises_the_cost():
    oracle = Oracle(16, grid_edges(4, 4))
    circuit = gen.GenCircuit(2, "", ((0, 1),))
    assert oracle.check_refinement([0, 1], [0, 15], circuit, "literal")
    assert oracle.check_refinement([0, 15], [0, 1], circuit, "literal") == []


def _bindings():
    """Every qlayout module binding and class attribute the tracer touches."""
    seen = {}
    for mod in _qlayout_modules():
        for name, value in vars(mod).items():
            if callable(value):
                seen[(mod.__name__, name)] = value
    for cls in (policy.PolicyNetwork, diffcore.Tensor, diffcore.Tape,
                objective.Layout):
        for name, value in vars(cls).items():
            seen[(cls.__name__, name)] = value
    return seen


def _tiny_run():
    """A small map + postprocess and one training epoch; returns outputs."""
    cg = ql.build_grid(3, 3)
    net = ql.PolicyNetwork(cg, ql.EncoderConfig(layers=1, heads=2,
                                                embed_dim=8,
                                                norm_kind="graph"),
                           ql.DecoderConfig(heads=2, context_dim=8),
                           prog_feature_dim=5, seed=1)
    rows = ql.train(ql.TrainConfig(epochs=1, batches_per_epoch=1,
                                   batch_size=4, n_min=3, n_max=5, seed=2,
                                   val_size=2, lr=1e-2), net, cg)
    circuit = gen.circuit_set("t", 5, 1, (5, 5), (2, 2))[0]
    pg = ql.build_program_graph(ql.parse_qasm(circuit.qasm), n_max=5)
    layout, cost = ql.decode(pg, cg, net,
                             ql.DecodeStrategy.make("multistart_greedy", k=3))
    refined = ql.local_search(layout, pg, cg,
                              ql.SearchConfig(n_iters=200, patience=20))
    return (rows[0].mean_reward, rows[0].grad_norm, layout.assign.tolist(),
            cost, refined.assign.tolist())


def test_tracing_changes_no_output_and_is_removed_afterwards():
    before = _bindings()
    plain = _tiny_run()
    with Tracer() as tracer:
        traced = _tiny_run()
        assert training.rollout is not before[("qlayout.training", "rollout")]
        assert (postprocess.fast_cost_fn
                is not before[("qlayout.postprocess", "fast_cost_fn")])
    assert traced == plain
    assert _bindings() == before

    stats = tracer.take()
    for span in ("training.rollout_sample", "training.rollout_greedy",
                 "training.decode", "policy.encode", "policy.pointer_logits",
                 "diffcore.backward", "diffcore.adam_step",
                 "objective.cost_eval", "postprocess.local_search",
                 "circuit.parse_qasm", "topology.build"):
        assert stats.calls[span] > 0, span
    for counter in ("diffcore.ops", "diffcore.tape_nodes",
                    "objective.layout_copies", "postprocess.iterations"):
        assert stats.counts[counter] > 0, counter
    assert stats.counts["postprocess.stopped_early"] == 1
    assert stats.counts["postprocess.iterations"] < 200
    for name, calls in stats.calls.items():
        assert 0 <= stats.self_s[name] <= stats.incl_s[name] + 1e-9


def test_tracer_restores_bindings_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(QLayoutError):
        with Tracer():
            ql.parse_qasm("qreg q[2]; bogus q[0];")
    assert _bindings() == before


def test_per_layer_reports_every_metric_and_zero_for_absent_layers():
    empty = {"calls": {}, "incl_s": {}, "self_s": {}, "counts": {}}
    record = {"ops": 3, "layers": {"setup": empty, "ops": dict(
        empty, calls={"objective.cost_eval": 30},
        incl_s={"postprocess.local_search": 0.003},
        counts={"postprocess.iterations": 30, "postprocess.accepted": 3})}}
    metrics = per_layer(record, 5.0)
    assert set(metrics) == set(PER_LAYER)
    assert metrics["policy.encode.ms"]["value"] == 0.0
    assert metrics["diffcore.ops"]["value"] == 0.0
    assert metrics["objective.cost_evals"]["value"] == 10.0
    assert metrics["postprocess.us_per_iter"]["value"] == pytest.approx(100.0)
    assert metrics["postprocess.accept_ratio"]["value"] == pytest.approx(0.1)


def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    for q in (0, 50, 90, 100):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_timings_aggregate_repeated_inputs_and_use_scaled_time():
    # [input, work units, wall s, scaled s]; input 0 ran twice
    samples = [[0, 10, 0.5, 0.1], [1, 30, 0.5, 0.3], [0, 10, 0.5, 0.3]]
    scaled = timings(samples)
    assert scaled["latency_ms_p50"] == pytest.approx(250.0)
    assert scaled["throughput_per_s"] == pytest.approx(40 / 0.5)
    assert timings(samples, WALL)["throughput_per_s"] == pytest.approx(40.0)


def test_scaling_cancels_a_uniformly_slower_host():
    assert calib.to_reference(0.2, 0.004) == pytest.approx(
        calib.to_reference(0.4, 0.008))
    assert calib.to_reference(0.2, calib.REF_MS / 1000.0) == pytest.approx(0.2)
    sampler = calib.Sampler()
    for at, kernel_s in ((0.0, 0.002), (1.0, 0.004), (1.1, 0.006),
                         (5.0, 0.008)):
        sampler.samples.append((at, kernel_s))
        sampler._times.append(at)
    # an operation sees only the samples within WINDOW_S of it
    assert sampler.scale(1.0, 1.5) == pytest.approx(
        calib.to_reference(0.5, 0.005))
    assert sampler.scale(3.0, 3.1) == pytest.approx(  # none near: median
        calib.to_reference(0.1, 0.005))


def test_sampler_samples_during_work_and_is_kept_off_the_clock():
    import signal
    before = signal.getsignal(signal.SIGALRM)
    with calib.Sampler() as sampler:
        w0, c0 = time.perf_counter(), calib.clock()
        while time.perf_counter() - w0 < 0.45:
            pass
        wall, clocked = time.perf_counter() - w0, calib.clock() - c0
    assert len(sampler.samples) >= 4
    # the kernel takes milliseconds; its runs are not on the clock
    assert wall - clocked > 0.001 * (len(sampler.samples) - 2)
    assert signal.getsignal(signal.SIGALRM) is before


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "map-heavyhex65",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
