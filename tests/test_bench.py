import csv
from dataclasses import astuple

import numpy as np
import pytest

from qlayout.bench import (
    GATE_BUCKETS,
    BenchRun,
    _gate_bucket,
    baseline_summary,
    family_from_name,
    gen_embeddable_instance,
    import_baseline,
    load_dataset,
    run_bench,
    run_context_ablation,
    summarize,
    write_report,
    write_summary,
)
from qlayout.errors import ConfigError, ParseError
from qlayout.objective import CostModel, brute_force_optimal, fast_cost_fn
from qlayout.policy import DecoderConfig, EncoderConfig
from qlayout.postprocess import SearchConfig, SearchStats, local_search
from qlayout.topology import build_grid, build_heavy_hex
from qlayout.training import (STRATEGY_KINDS, DecodeStrategy, TrainConfig,
                              decode)

from conftest import tiny_policy

GHZ = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[{n}];
h q[0];
{body}
"""


def write_qasm(path, name, n):
    body = "\n".join(f"cx q[{i}], q[{i + 1}];" for i in range(n - 1))
    (path / f"{name}.qasm").write_text(GHZ.format(n=n, body=body))


@pytest.fixture
def dataset(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    write_qasm(d, "ghz_3", 3)
    write_qasm(d, "ghz_4", 4)
    write_qasm(d, "chain_2", 2)
    return d


class TestDataset:
    def test_empty_directory(self, tmp_path):
        instances, skipped = load_dataset(tmp_path, tiny_policy())
        assert instances == [] and skipped == 0

    def test_loads_sorted_by_name(self, dataset):
        pol = tiny_policy(cg=build_grid(2, 3), n_max=5)
        instances, skipped = load_dataset(dataset, pol)
        assert [name for name, _ in instances] == ["chain_2", "ghz_3", "ghz_4"]
        assert skipped == 0

    def test_skips_unparseable_and_oversized(self, dataset, caplog):
        (dataset / "broken.qasm").write_text("OPENQASM 2.0;\nbogus q[0];\n")
        write_qasm(dataset, "huge_9", 9)
        pol = tiny_policy(cg=build_grid(2, 3), n_max=5)
        with caplog.at_level("WARNING"):
            instances, skipped = load_dataset(dataset, pol)
        assert skipped == 2
        assert len(instances) == 3
        assert "broken.qasm" in caplog.text and "huge_9.qasm" in caplog.text

    def test_skips_circuits_wider_than_the_device(self, dataset, caplog):
        write_qasm(dataset, "wide_6", 6)
        pol = tiny_policy(cg=build_grid(2, 2), n_max=8)
        with caplog.at_level("WARNING"):
            instances, skipped = load_dataset(dataset, pol)
        assert skipped == 1
        assert [name for name, _ in instances] == ["chain_2", "ghz_3",
                                                    "ghz_4"]
        assert "6 qubits, more than the device's N = 4" in caplog.text

    def test_skips_a_circuit_without_qubits(self, dataset, caplog):
        (dataset / "empty_0.qasm").write_text("OPENQASM 2.0;\nqreg q[0];\n")
        pol = tiny_policy(cg=build_grid(2, 3), n_max=5)
        with caplog.at_level("WARNING"):
            instances, skipped = load_dataset(dataset, pol)
        assert skipped == 1
        assert [name for name, _ in instances] == ["chain_2", "ghz_3",
                                                    "ghz_4"]
        assert "empty_0.qasm: circuit has no qubits" in caplog.text

    def test_skips_a_file_that_is_not_utf8(self, dataset, caplog):
        (dataset / "latin_2.qasm").write_bytes(
            b"OPENQASM 2.0;\nqreg q[2];\n// caf\xe9\ncx q[0], q[1];\n")
        pol = tiny_policy(cg=build_grid(2, 3), n_max=5)
        with caplog.at_level("WARNING"):
            instances, skipped = load_dataset(dataset, pol)
        assert skipped == 1
        assert [name for name, _ in instances] == ["chain_2", "ghz_3",
                                                    "ghz_4"]
        assert "skipping latin_2.qasm: cannot read" in caplog.text

    def test_skips_a_directory_named_like_a_circuit(self, dataset, caplog):
        (dataset / "dir_1.qasm").mkdir()
        pol = tiny_policy(cg=build_grid(2, 3), n_max=5)
        with caplog.at_level("WARNING"):
            instances, skipped = load_dataset(dataset, pol)
        assert skipped == 1 and len(instances) == 3
        assert "skipping dir_1.qasm: cannot read" in caplog.text

    @pytest.mark.parametrize("kind", ["file", "missing"])
    def test_a_dataset_that_is_not_a_directory(self, dataset, kind):
        path = dataset / "ghz_3.qasm" if kind == "file" else dataset / "no"
        with pytest.raises(ConfigError, match="is not a directory"):
            load_dataset(path, tiny_policy(cg=build_grid(2, 3), n_max=5))

    def test_family_parsing(self):
        assert family_from_name("ghz_12") == "ghz"
        assert family_from_name("qft_big_5") == "qft"
        assert family_from_name("noname") == "unknown"


class TestRunBench:
    def make_run(self, dataset, **kw):
        cg = build_grid(2, 3)
        pol = tiny_policy(cg=cg, n_max=5)
        base = dict(dataset=dataset, device=cg, policy=pol,
                    strategies=["greedy", "multistart_sampling"],
                    seeds=[0, 1], multistart_k=4,
                    search=SearchConfig(n_iters=200, patience=50))
        base.update(kw)
        return BenchRun(**base)

    def test_device_mismatch_rejected(self, dataset):
        pol = tiny_policy(cg=build_grid(2, 3), n_max=5)
        with pytest.raises(ConfigError):
            BenchRun(dataset=dataset, device=build_grid(3, 2), policy=pol,
                     strategies=["greedy"])

    @pytest.mark.parametrize("name,value,fragment", [
        ("strategies", [], "at least one of its strategies"),
        ("strategies", ["greedy", "sampling", "greedy"], "repeat 'greedy'"),
        ("strategies", ["greedy", "beam"], "unknown decoding strategy 'beam'"),
        ("strategies", [None], "unknown decoding strategy 'None'"),
        ("seeds", [], "at least one of its seeds"),
        ("seeds", [1, 0, 1], "repeat 1"),
    ])
    def test_empty_repeated_or_unknown_runs_rejected(self, dataset, name,
                                                     value, fragment):
        with pytest.raises(ConfigError, match=fragment):
            self.make_run(dataset, **{name: value})

    def test_row_shape_and_postprocess_never_hurts(self, dataset):
        rows, summary = run_bench(self.make_run(dataset))
        # 3 instances x 2 strategies x 2 seeds
        assert len(rows) == 12
        assert summary["instances"] == 3
        for r in rows:
            assert r.pp_cost <= r.rl_cost
            assert r.wall_ms_rl >= 0 and r.wall_ms_pp >= 0

    def test_no_postprocess_copies_cost(self, dataset):
        rows, _ = run_bench(self.make_run(dataset, postprocess=False))
        for r in rows:
            assert r.pp_cost == r.rl_cost and r.wall_ms_pp == 0.0
            assert (r.pp_iters, r.pp_accepted, r.pp_stop) == (0, 0, "none")

    def test_rows_deterministic_modulo_wall(self, dataset):
        cfg = self.make_run(dataset)
        a, _ = run_bench(cfg)
        b, _ = run_bench(cfg)
        strip = lambda rows: [(r.instance, r.strategy, r.seed, r.rl_cost,
                               r.pp_cost) for r in rows]
        assert strip(a) == strip(b)

    @pytest.mark.parametrize("search", [
        None, SearchConfig(n_iters=200, patience=50)])
    def test_rows_equal_a_decode_per_strategy_and_seed(self, dataset,
                                                       search):
        """Each row holds what decoding its strategy and seed alone, then
        searching from that layout, gives; timing columns aside."""
        cfg = self.make_run(dataset, strategies=list(STRATEGY_KINDS)[::-1],
                            seeds=[2, 0, 1], search=search)
        cm = CostModel(cfg.cost_mode, cfg.device.distances)
        want = []
        for name, pg in load_dataset(dataset, cfg.policy)[0]:
            cost_fn = fast_cost_fn(pg, cm)
            for kind in cfg.strategies:
                for seed in cfg.seeds:
                    strategy = DecodeStrategy.make(kind, k=cfg.multistart_k,
                                                   seed=seed)
                    layout, rl_cost = decode(pg, cfg.device, cfg.policy,
                                             strategy, cm)
                    stats = SearchStats()
                    refined = local_search(
                        layout, pg, cfg.device, search or SearchConfig(
                            cost_mode=cfg.cost_mode, seed=seed), stats)
                    want.append((name, family_from_name(name),
                                 pg.num_logical, pg.num_edges, kind, seed,
                                 rl_cost, cost_fn(refined.assign),
                                 stats.iterations, stats.accepted,
                                 stats.stop_reason))
        rows, _ = run_bench(cfg)
        # every column but the two timings
        got = [astuple(r)[:8] + astuple(r)[10:] for r in rows]
        assert got == sorted(want, key=lambda row: (row[0], row[4], row[5]))
        # one decode per circuit, its time split evenly over its rows
        for name, _ in load_dataset(dataset, cfg.policy)[0]:
            assert len({r.wall_ms_rl for r in rows if r.instance == name}) == 1


class TestSummaries:
    def test_group_means_weighted_consistent(self, dataset):
        cg = build_grid(2, 3)
        pol = tiny_policy(cg=cg, n_max=5)
        rows, summary = run_bench(BenchRun(
            dataset=dataset, device=cg, policy=pol, strategies=["greedy"],
            search=SearchConfig(n_iters=100, patience=30)))
        overall = summary["overall"]["rl_cost"]
        groups = summary["by_family"].values()
        weighted = sum(g["rl_cost"]["mean"] * g["rl_cost"]["count"]
                       for g in groups)
        total = sum(g["rl_cost"]["count"] for g in groups)
        assert overall["count"] == total == len(rows)
        assert overall["mean"] == pytest.approx(weighted / total)

    def test_gate_buckets_partition_rows(self, dataset):
        cg = build_grid(2, 3)
        pol = tiny_policy(cg=cg, n_max=5)
        _, summary = run_bench(BenchRun(
            dataset=dataset, device=cg, policy=pol, strategies=["greedy"],
            postprocess=False))
        counts = sum(g["rl_cost"]["count"]
                     for g in summary["by_gate_bucket"].values())
        assert counts == summary["overall"]["rl_cost"]["count"]

    def test_every_gate_count_has_exactly_one_bucket(self):
        labels = {f"[{lo},{'inf' if hi is None else hi})": (lo, hi)
                  for lo, hi in GATE_BUCKETS}
        for count in range(201):
            holding = [label for label, (lo, hi) in labels.items()
                       if lo <= count and (hi is None or count < hi)]
            assert holding == [_gate_bucket(count)], count

    def test_empty_rows_summary(self):
        summary = summarize([], skipped=2)
        assert summary["instances"] == 0 and summary["skipped"] == 2
        assert "overall" not in summary


class TestBaseline:
    def test_import_round_trip(self, tmp_path):
        p = tmp_path / "base.csv"
        p.write_text("instance,cost\nghz_3,4\nghz_4,6.5\n")
        base = import_baseline(p)
        assert base == {"ghz_3": 4.0, "ghz_4": 6.5}

    def test_import_rejects_missing_columns(self, tmp_path):
        p = tmp_path / "base.csv"
        p.write_text("name,value\na,1\n")
        with pytest.raises(ParseError):
            import_baseline(p)

    def test_import_rejects_bad_value(self, tmp_path):
        p = tmp_path / "base.csv"
        p.write_text("instance,cost\nghz_3,not-a-number\n")
        with pytest.raises(ParseError) as exc:
            import_baseline(p)
        assert exc.value.line == 2
        assert str(exc.value) == "line 2: bad cost value 'not-a-number'"

    def test_a_long_bad_value_is_echoed_shortened(self, tmp_path):
        p = tmp_path / "base.csv"
        p.write_text("instance,cost\nghz_3," + "x" * 3000 + "\n")
        with pytest.raises(ParseError, match="line 2: bad cost value") as exc:
            import_baseline(p)
        assert len(str(exc.value)) < 100

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_import_rejects_a_cost_that_is_not_finite(self, tmp_path, value):
        p = tmp_path / "base.csv"
        p.write_text(f"instance,cost\nghz_3,4\nghz_4,{value}\n")
        with pytest.raises(ParseError, match="not finite") as exc:
            import_baseline(p)
        assert exc.value.line == 3

    @pytest.mark.parametrize("kind", ["directory", "not utf-8",
                                      "field over the csv limit"])
    def test_import_rejects_an_unreadable_file(self, tmp_path, kind):
        p = tmp_path / "base.csv"
        if kind == "directory":
            p.mkdir()
        elif kind == "not utf-8":
            p.write_bytes(b"instance,cost\ncaf\xe9_1,4\n")
        else:
            p.write_text("instance,cost\n" + "a" * 200_000 + ",4\n")
        with pytest.raises(ParseError, match="cannot read baseline"):
            import_baseline(p)

    def test_join_and_ignore_extra(self, dataset, caplog):
        cg = build_grid(2, 3)
        pol = tiny_policy(cg=cg, n_max=5)
        rows, _ = run_bench(BenchRun(
            dataset=dataset, device=cg, policy=pol, strategies=["greedy"],
            postprocess=False))
        baseline = {"ghz_3": 10.0, "ghz_4": 10.0, "phantom_1": 3.0}
        with caplog.at_level("WARNING"):
            b = baseline_summary(rows, baseline)
        assert b["joined_rows"] == 2
        assert b["ignored_baseline_instances"] == ["phantom_1"]
        assert "phantom_1" in caplog.text
        rl = np.mean([r.rl_cost for r in rows if r.instance in baseline])
        assert b["improvement_rl"] == pytest.approx((10.0 - rl) / 10.0)

    def test_report_file_includes_baseline_column(self, dataset, tmp_path):
        cg = build_grid(2, 3)
        pol = tiny_policy(cg=cg, n_max=5)
        rows, summary = run_bench(BenchRun(
            dataset=dataset, device=cg, policy=pol, strategies=["greedy"],
            postprocess=False))
        report = tmp_path / "report.csv"
        write_report(rows, report, baseline={"ghz_3": 4.0})
        with open(report, newline="") as fh:
            header = next(csv.reader(fh))
            fh.seek(0)
            records = list(csv.DictReader(fh))
        # the search's counters follow wall_ms_pp; the baseline stays last
        assert header[-5:] == ["wall_ms_pp", "pp_iters", "pp_accepted",
                               "pp_stop", "baseline_cost"]
        assert len(records) == len(rows)
        assert {(r["pp_iters"], r["pp_accepted"], r["pp_stop"])
                for r in records} == {("0", "0", "none")}
        by_name = {r["instance"]: r for r in records}
        assert by_name["ghz_3"]["baseline_cost"] == "4.0"
        assert by_name["ghz_4"]["baseline_cost"] == ""
        write_summary(summary, tmp_path / "summary.json")
        assert (tmp_path / "summary.json").stat().st_size > 0


class TestEmbeddableInstances:
    def test_zero_cost_layout_exists(self, rng):
        cg = build_grid(3, 3)
        cm = CostModel("adjacent-free", cg.distances)
        for _ in range(20):
            pg = gen_embeddable_instance(cg, 4, rng)
            _, opt = brute_force_optimal(pg, cg, cm)
            assert opt == 0

    def test_connected_and_sized(self, rng):
        cg = build_heavy_hex()
        pg = gen_embeddable_instance(cg, 6, rng, n_max=8)
        assert pg.num_logical == 6
        assert pg.node_features.shape == (6, 8)
        nbrs = {q: set() for q in range(pg.num_logical)}
        for i, j in pg.edges:
            nbrs[i].add(j)
            nbrs[j].add(i)
        seen = {0}
        frontier = {0}
        while frontier:
            frontier = {v for u in frontier for v in nbrs[u]} - seen
            seen |= frontier
        assert seen == set(range(6))

    def test_too_large_rejected(self, rng):
        with pytest.raises(ConfigError):
            gen_embeddable_instance(build_grid(1, 2), 3, rng)

    def test_dataset_deterministic(self):
        cg = build_grid(3, 3)
        a, b = ([gen_embeddable_instance(cg, 4, rng) for _ in range(5)]
                for rng in (np.random.default_rng(3),
                            np.random.default_rng(3)))
        assert [p.edges for p in a] == [p.edges for p in b]


class TestContextAblation:
    def test_csv_grid(self, tmp_path, rng):
        cg = build_grid(2, 2)
        train_cfg = TrainConfig(epochs=1, batches_per_epoch=1, batch_size=2,
                                n_min=2, n_max=3, edge_prob=0.8, val_size=2,
                                seed=0)
        enc = EncoderConfig(layers=1, heads=2, embed_dim=8, norm_kind="graph")
        dec = DecoderConfig(heads=2, context_dim=8)
        tests = [gen_embeddable_instance(cg, 3, rng, n_max=3)
                 for _ in range(2)]
        out = tmp_path / "ablation.csv"
        results = run_context_ablation(cg, train_cfg, enc, dec, tests,
                                       out_path=out, multistart_k=3)
        kinds = [r["context_encoding"] for r in results]
        assert kinds == ["project_concat", "concat_project", "stack_project"]
        with open(out, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == 3
        for rec in records:
            for strat in ("greedy", "sampling", "multistart_greedy",
                          "multistart_sampling"):
                assert float(rec[strat]) >= 0

    def test_empty_test_set_rejected_before_training(self, tmp_path):
        train_cfg = TrainConfig(epochs=1, batches_per_epoch=1, batch_size=2,
                                n_min=2, n_max=3, val_size=2)
        enc = EncoderConfig(layers=1, heads=2, embed_dim=8)
        dec = DecoderConfig(heads=2, context_dim=8)
        out = tmp_path / "ablation.csv"
        with pytest.raises(ConfigError, match="test instance"):
            run_context_ablation(build_grid(2, 2), train_cfg, enc, dec, [],
                                 out_path=out)
        assert not out.exists()
