import csv
import json
import os
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from qlayout.circuit import FEATURE_QUBIT_LIMIT
from qlayout.cli import entry, main, resolve_device

from conftest import tiny_policy

QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
cx q[0], q[1];
cx q[1], q[2];
"""


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def qasm_file(tmp_path):
    f = tmp_path / "ghz_3.qasm"
    f.write_text(QASM)
    return f


class TestResolveDevice:
    def test_grid(self):
        cg = resolve_device("grid3x4")
        assert cg.num_physical == 12

    def test_heavy_hex(self):
        assert resolve_device("heavyhex65").num_physical == 65

    def test_json_path(self, tmp_path):
        p = tmp_path / "dev.json"
        p.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
        assert resolve_device(str(p)).num_physical == 3


class TestFeatures:
    def test_json_output(self, runner, qasm_file):
        res = runner.invoke(main, ["features", str(qasm_file)])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert set(doc) == {"0", "1", "2"}
        assert all(len(v) == 6 for v in doc.values())


class TestPipeline:
    def test_train_map_postprocess_bench(self, runner, qasm_file, tmp_path):
        ckpt = tmp_path / "policy.json"
        metrics = tmp_path / "metrics.csv"
        res = runner.invoke(main, [
            "train", "--device", "grid2x2", "--n-min", "2", "--n-max", "3",
            "--epochs", "1", "--batches", "1", "--batch-size", "2",
            "--edge-prob", "0.8", "--val-size", "2", "--d-e", "8", "--d-c",
            "8", "--layers", "1", "--heads", "2", "--m-heads", "2",
            "--norm", "graph", "--out", str(ckpt), "--metrics", str(metrics),
        ])
        assert res.exit_code == 0, res.output
        assert "adv std" in res.output
        assert ckpt.exists()
        with open(metrics, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and "mean_reward" in rows[0]
        assert list(rows[0])[-1] == "adv_std"

        layout_path = tmp_path / "layout.json"
        res = runner.invoke(main, [
            "map", "--circuit", str(qasm_file), "--ckpt", str(ckpt),
            "--strategy", "multistart_greedy", "--k", "4",
            "--out", str(layout_path),
        ])
        assert res.exit_code == 0, res.output
        doc = json.loads(layout_path.read_text())
        assert doc["cost"] >= 0
        assert len(doc["assign"]) == 3

        res = runner.invoke(main, [
            "postprocess", "--layout", str(layout_path), "--circuit",
            str(qasm_file), "--device", "grid2x2", "--iters", "200",
            "--patience", "50",
        ])
        assert res.exit_code == 0, res.output
        out = json.loads(res.output)
        assert out["cost_after"] <= out["cost_before"]

        dataset = tmp_path / "data"
        dataset.mkdir()
        (dataset / "ghz_3.qasm").write_text(QASM)
        report = tmp_path / "report.csv"
        summary = tmp_path / "summary.json"
        res = runner.invoke(main, [
            "bench", "--dataset", str(dataset), "--ckpt", str(ckpt),
            "--strategies", "greedy,sampling", "--k", "3", "--seeds", "0,1",
            "--out", str(report), "--summary", str(summary),
        ])
        assert res.exit_code == 0, res.output
        with open(report, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 1 instance x 2 strategies x 2 seeds
        doc = json.loads(summary.read_text())
        assert doc["instances"] == 1

    def test_bench_with_baseline(self, runner, qasm_file, tmp_path):
        ckpt = tmp_path / "policy.json"
        runner.invoke(main, [
            "train", "--device", "grid2x2", "--n-min", "2", "--n-max", "3",
            "--epochs", "1", "--batches", "1", "--batch-size", "2",
            "--edge-prob", "0.8", "--val-size", "2", "--d-e", "8", "--d-c",
            "8", "--layers", "1", "--heads", "2", "--m-heads", "2",
            "--norm", "graph", "--out", str(ckpt),
        ])
        dataset = tmp_path / "data"
        dataset.mkdir()
        (dataset / "ghz_3.qasm").write_text(QASM)
        base = tmp_path / "base.csv"
        base.write_text("instance,cost\nghz_3,12\n")
        report = tmp_path / "report.csv"
        summary = tmp_path / "summary.json"
        res = runner.invoke(main, [
            "bench", "--dataset", str(dataset), "--ckpt", str(ckpt),
            "--no-pp", "--baseline", str(base), "--out", str(report),
            "--summary", str(summary),
        ])
        assert res.exit_code == 0, res.output
        doc = json.loads(summary.read_text())
        assert doc["baseline"]["joined_rows"] == 1
        with open(report, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["baseline_cost"] == "12.0"


class TestPostprocess:
    def test_reports_the_search(self, runner, qasm_file, tmp_path):
        # a chain 0-1-2 on the corners 0, 8 and 2 of a 3x3 grid: distance
        # 4 and then 2, so the adjacent-free cost is 6 + 2
        layout = tmp_path / "layout.json"
        layout.write_text(json.dumps({"assign": [0, 8, 2]}))
        res = runner.invoke(main, [
            "postprocess", "--layout", str(layout), "--circuit",
            str(qasm_file), "--device", "grid3x3", "--iters", "300",
            "--patience", "300"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        search = doc["search"]
        assert set(search) == {"iterations", "accepted", "stop_reason",
                               "start_cost", "final_cost"}
        assert (doc["cost_before"], doc["cost_after"]) == (
            search["start_cost"], search["final_cost"]) == (8.0, 0.0)
        assert 0 < search["accepted"] < search["iterations"] == 300
        assert search["stop_reason"] == "budget"

    def test_one_qubit_swap_search_has_no_move(self, runner, tmp_path):
        circuit = tmp_path / "one.qasm"
        circuit.write_text("OPENQASM 2.0;\nqreg q[1];\nh q[0];\n")
        layout = tmp_path / "layout.json"
        layout.write_text(json.dumps({"assign": [3]}))
        res = runner.invoke(main, [
            "postprocess", "--layout", str(layout), "--circuit",
            str(circuit), "--device", "grid2x2", "--op", "random_swap"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["assign"] == [3]
        assert doc["search"] == {"iterations": 0, "accepted": 0,
                                 "stop_reason": "no_move", "start_cost": 0.0,
                                 "final_cost": 0.0}


class TestAblation:
    def test_ablate_context_csv(self, runner, tmp_path):
        out = tmp_path / "ablation.csv"
        res = runner.invoke(main, [
            "ablate-context", "--device", "grid2x2", "--n-min", "2",
            "--n-max", "3", "--epochs", "1", "--batches", "1",
            "--batch-size", "2", "--val-size", "2", "--test-size", "2",
            "--d-e", "8", "--layers", "1", "--heads", "2", "--m-heads", "2",
            "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["context_encoding"] for r in rows] == [
            "project_concat", "concat_project", "stack_project"]


def run_entry(monkeypatch, capsys, *args):
    """Run the installed ``qlayout`` entry point; returns (exit code,
    stderr)."""
    monkeypatch.setattr(sys, "argv", ["qlayout", *map(str, args)])
    with pytest.raises(SystemExit) as exc:
        entry()
    return exc.value.code, capsys.readouterr().err


class TestInputBoundaries:
    HUGE = "OPENQASM 2.0;\nqreg q[99999999999];\ncx q[0], q[1];\n"

    @pytest.fixture
    def huge_circuit(self, tmp_path):
        f = tmp_path / "huge.qasm"
        f.write_text(self.HUGE)
        return f

    @pytest.fixture
    def layout_file(self, tmp_path):
        f = tmp_path / "layout.json"
        f.write_text(json.dumps({"n": 3, "assign": [0, 1, 2]}))
        return f

    def assert_one_line_error(self, code, err, *fragments):
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        for fragment in fragments:
            assert fragment in err

    def test_map_rejects_more_qubits_than_the_device(
            self, monkeypatch, capsys, tmp_path, huge_circuit):
        ckpt = tmp_path / "policy.json"
        tiny_policy().save(ckpt)
        code, err = run_entry(monkeypatch, capsys, "map", "--circuit",
                              huge_circuit, "--ckpt", ckpt)
        self.assert_one_line_error(code, err, "99999999999", "N = 4")

    def test_map_rejects_more_qubits_than_n_max(
            self, monkeypatch, capsys, tmp_path, qasm_file):
        ckpt = tmp_path / "policy.json"
        tiny_policy(n_max=2).save(ckpt)
        code, err = run_entry(monkeypatch, capsys, "map", "--circuit",
                              qasm_file, "--ckpt", ckpt)
        self.assert_one_line_error(code, err, "3 qubits", "n_max = 2")

    def test_postprocess_rejects_more_qubits_than_the_device(
            self, monkeypatch, capsys, huge_circuit, layout_file):
        code, err = run_entry(monkeypatch, capsys, "postprocess", "--layout",
                              layout_file, "--circuit", huge_circuit,
                              "--device", "grid2x2")
        self.assert_one_line_error(code, err, "99999999999", "N = 4")

    def test_postprocess_rejects_a_layout_without_assign(
            self, monkeypatch, capsys, qasm_file, layout_file):
        layout_file.write_text(json.dumps({"n": 2}))
        code, err = run_entry(monkeypatch, capsys, "postprocess", "--layout",
                              layout_file, "--circuit", qasm_file,
                              "--device", "grid2x2")
        self.assert_one_line_error(code, err, '"assign"')

    def test_postprocess_rejects_a_malformed_device(
            self, monkeypatch, capsys, tmp_path, qasm_file, layout_file):
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        infinite = tmp_path / "infinite.json"
        infinite.write_text('{"n": 1e400, "edges": []}')
        fractional = tmp_path / "fractional.json"
        fractional.write_text('{"n": 3, "edges": [[0, 1.7], [1, 2]]}')
        none = tmp_path / "none.json"
        for device, fragment in (("gridx", "gridx"), ("grid2x", "grid2x"),
                                 ("grid0x4", "grid0x4"), (none, str(none)),
                                 (bad_json, str(bad_json)),
                                 (infinite, "malformed edge-list"),
                                 (fractional, "not 1.7")):
            code, err = run_entry(monkeypatch, capsys, "postprocess",
                                  "--layout", layout_file, "--circuit",
                                  qasm_file, "--device", device)
            self.assert_one_line_error(code, err, fragment)

    def test_postprocess_rejects_an_oversized_device(
            self, monkeypatch, capsys, tmp_path, qasm_file, layout_file):
        big = tmp_path / "big.json"
        big.write_text('{"n": 200000, "edges": [[0, 1]]}')
        for device, fragment in ((big, "200000 physical qubits"),
                                 ("grid100000x100000",
                                  "10000000000 physical qubits")):
            code, err = run_entry(monkeypatch, capsys, "postprocess",
                                  "--layout", layout_file, "--circuit",
                                  qasm_file, "--device", device)
            self.assert_one_line_error(code, err, fragment)

    def test_features_rejects_a_negative_walk_radius(
            self, monkeypatch, capsys, qasm_file):
        code, err = run_entry(monkeypatch, capsys, "features", qasm_file,
                              "--walk-radius", "-1")
        self.assert_one_line_error(code, err, "walk_radius", "-1")

    @pytest.mark.parametrize("size", [
        "999999999999999999999999999999", "99999999999",
        str(FEATURE_QUBIT_LIMIT + 1)])
    def test_features_rejects_a_register_over_the_bound(
            self, monkeypatch, capsys, tmp_path, size):
        f = tmp_path / "wide.qasm"
        f.write_text(f"qreg q[{size}]; cx q[0], q[1];\n")
        code, err = run_entry(monkeypatch, capsys, "features", f)
        self.assert_one_line_error(
            code, err, f"{size} qubits, more than the feature bound = "
            f"{FEATURE_QUBIT_LIMIT}")

    @pytest.mark.parametrize("source,fragment", [
        ("qreg q[2];\nh q[{}];\n",
         "line 2: index into 'q[2]' has 5000 digits"),
        ("OPENQASM 2.0;\nqreg q[{}];\nh q[0];\n",
         "line 2: size of qreg 'q' has 5000 digits"),
    ])
    def test_features_rejects_a_number_too_long_for_int(
            self, monkeypatch, capsys, tmp_path, source, fragment):
        f = tmp_path / "long.qasm"
        f.write_text(source.format("9" * 5000))
        code, err = run_entry(monkeypatch, capsys, "features", f)
        self.assert_one_line_error(code, err, fragment)

    @pytest.mark.parametrize("option,value,fragment", [
        ("--strategies", ",", "at least one of its strategies"),
        ("--strategies", "greedy,greedy", "repeat 'greedy'"),
        ("--strategies", "greedy,beam", "'beam'"),
        ("--seeds", "0,0", "repeat 0"),
    ])
    def test_bench_rejects_empty_repeated_or_unknown_runs(
            self, monkeypatch, capsys, tmp_path, qasm_file, option, value,
            fragment):
        ckpt = tmp_path / "policy.json"
        tiny_policy().save(ckpt)
        report = tmp_path / "report.csv"
        code, err = run_entry(monkeypatch, capsys, "bench", "--dataset",
                              qasm_file.parent, "--ckpt", ckpt, option, value,
                              "--out", report)
        self.assert_one_line_error(code, err, fragment)
        assert not report.exists()

    @pytest.mark.parametrize("option,value,fragment", [
        ("--val-size", "0", "val_size"), ("--batches", "0", "batches"),
        ("--epochs", "0", "epochs"), ("--epochs", "-1", "epochs"),
        ("--lr", "-1", "lr"), ("--lr", "nan", "lr"),
        ("--heads", "0", "encoder heads"), ("--heads", "-2", "encoder heads"),
        ("--d-e", "0", "embed_dim"), ("--d-c", "0", "context_dim"),
        ("--layers", "-1", "layers"), ("--m-heads", "0", "decoder heads"),
    ])
    def test_train_rejects_values_that_cannot_train(
            self, monkeypatch, capsys, tmp_path, option, value, fragment):
        ckpt = tmp_path / "policy.json"
        code, err = run_entry(monkeypatch, capsys, "train", "--device",
                              "grid2x3", "--n-min", "2", "--n-max", "3",
                              "--epochs", "1", "--batches", "1",
                              "--batch-size", "2", "--val-size", "2",
                              "--d-e", "8", "--d-c", "8", "--layers", "1",
                              "--heads", "2", "--m-heads", "2", option, value,
                              "--out", ckpt)
        self.assert_one_line_error(code, err, fragment)
        assert not ckpt.exists()

    def test_map_rejects_a_checkpoint_with_zero_heads(
            self, monkeypatch, capsys, tmp_path, qasm_file):
        ckpt = tmp_path / "policy.json"
        tiny_policy().save(ckpt)
        doc = json.loads(ckpt.read_text())
        doc["header"]["heads"] = 0
        ckpt.write_text(json.dumps(doc))
        code, err = run_entry(monkeypatch, capsys, "map", "--circuit",
                              qasm_file, "--ckpt", ckpt)
        self.assert_one_line_error(code, err, "checkpoint", "heads")

    @pytest.mark.parametrize("seeds,bad", [("a", "'a'"), ("0,,1", "''"),
                                           ("1,2.5", "'2.5'")])
    def test_bench_rejects_a_seed_that_is_not_an_integer(
            self, monkeypatch, capsys, tmp_path, qasm_file, seeds, bad):
        ckpt = tmp_path / "policy.json"
        tiny_policy().save(ckpt)
        report = tmp_path / "report.csv"
        code, err = run_entry(monkeypatch, capsys, "bench", "--dataset",
                              qasm_file.parent, "--ckpt", ckpt, "--seeds",
                              seeds, "--out", report)
        self.assert_one_line_error(code, err, bad, seeds)
        assert not report.exists()

    @pytest.mark.parametrize("command", ["map", "bench"])
    def test_a_multistart_k_over_the_walk_budget_is_rejected(
            self, monkeypatch, capsys, tmp_path, qasm_file, command):
        ckpt = tmp_path / "policy.json"
        tiny_policy().save(ckpt)
        out = tmp_path / "out"
        k = "100000000000000000000"
        args = {
            "map": ["--circuit", qasm_file, "--strategy", "multistart_greedy",
                    "--out", out],
            "bench": ["--dataset", qasm_file.parent, "--strategies",
                      "multistart_sampling", "--out", out],
        }[command]
        code, err = run_entry(monkeypatch, capsys, command, "--ckpt", ckpt,
                              "--k", k, *args)
        self.assert_one_line_error(code, err, f"k: {k} starts", "budget")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["postprocess", "map", "train",
                                         "bench", "ablate-context"])
    def test_negative_seed_rejected(self, monkeypatch, capsys, tmp_path,
                                    qasm_file, layout_file, command):
        ckpt = tmp_path / "policy.json"
        tiny_policy().save(ckpt)
        out = tmp_path / "out"
        args = {
            "postprocess": ["--layout", layout_file, "--circuit", qasm_file,
                            "--device", "grid2x2", "--seed", "-1"],
            "map": ["--circuit", qasm_file, "--ckpt", ckpt, "--strategy",
                    "sampling", "--seed", "-1"],
            "train": ["--device", "grid2x2", "--n-min", "2", "--n-max", "3",
                      "--seed", "-1", "--out", out],
            "bench": ["--dataset", qasm_file.parent, "--ckpt", ckpt,
                      "--seeds", "0,-1", "--out", out],
            "ablate-context": ["--device", "grid2x2", "--n-min", "2",
                               "--n-max", "3", "--seed", "-1", "--out", out],
        }[command]
        code, err = run_entry(monkeypatch, capsys, command, *args)
        self.assert_one_line_error(code, err, "seed must be at least 0")
        assert not out.exists()

    @pytest.mark.parametrize("option,value,fragment", [
        ("--d-e", "1000000000", "embed_dim must be at most 4096"),
        ("--layers", "65", "layers must be at most 64"),
        ("--d-c", "1000000000", "context_dim must be at most 4096"),
    ])
    def test_train_bounds_model_sizes_before_allocation(
            self, monkeypatch, capsys, tmp_path, option, value, fragment):
        out = tmp_path / "policy.json"
        code, err = run_entry(monkeypatch, capsys, "train", "--device",
                              "grid2x2", "--n-min", "2", "--n-max", "3",
                              "--heads", "1", "--m-heads", "1", option,
                              value, "--out", out)
        self.assert_one_line_error(code, err, fragment)
        assert not out.exists()

    def test_ablate_context_rejects_an_empty_test_set(
            self, monkeypatch, capsys, tmp_path):
        out = tmp_path / "ablation.csv"
        code, err = run_entry(monkeypatch, capsys, "ablate-context",
                              "--device", "grid2x2", "--n-min", "2",
                              "--n-max", "3", "--test-size", "0",
                              "--out", out)
        self.assert_one_line_error(code, err, "test instance")
        assert not out.exists()

    @pytest.fixture
    def no_qubits(self, tmp_path):
        f = tmp_path / "empty.qasm"
        f.write_text("OPENQASM 2.0;\nqreg q[0];\n")
        return f

    def test_map_rejects_a_circuit_without_qubits(
            self, monkeypatch, capsys, tmp_path, no_qubits):
        ckpt = tmp_path / "policy.json"
        tiny_policy().save(ckpt)
        code, err = run_entry(monkeypatch, capsys, "map", "--circuit",
                              no_qubits, "--ckpt", ckpt)
        self.assert_one_line_error(code, err, "no qubits")

    def test_postprocess_rejects_a_circuit_without_qubits(
            self, monkeypatch, capsys, no_qubits, layout_file):
        code, err = run_entry(monkeypatch, capsys, "postprocess", "--layout",
                              layout_file, "--circuit", no_qubits,
                              "--device", "grid2x2")
        self.assert_one_line_error(code, err, "no qubits")

    @pytest.fixture(params=["directory", "not utf-8"])
    def unreadable_circuit(self, request, tmp_path):
        f = tmp_path / "unreadable.qasm"
        if request.param == "directory":
            f.mkdir()
        else:
            f.write_bytes(b"OPENQASM 2.0;\nqreg q[2];\n// \xff\n")
        return f

    @pytest.mark.parametrize("command", ["map", "postprocess", "features"])
    def test_an_unreadable_circuit_is_one_error_line(
            self, monkeypatch, capsys, tmp_path, layout_file,
            unreadable_circuit, command):
        ckpt = tmp_path / "policy.json"
        tiny_policy().save(ckpt)
        args = {
            "map": ["--circuit", unreadable_circuit, "--ckpt", ckpt],
            "postprocess": ["--layout", layout_file, "--circuit",
                            unreadable_circuit, "--device", "grid2x2"],
            "features": [unreadable_circuit],
        }[command]
        code, err = run_entry(monkeypatch, capsys, command, *args)
        self.assert_one_line_error(code, err,
                                   f"cannot read {unreadable_circuit}")

    @pytest.fixture
    def bench_args(self, tmp_path, qasm_file):
        """A dataset of one valid circuit and a checkpoint that fits it."""
        ckpt = tmp_path / "policy.json"
        tiny_policy(cg=resolve_device("grid2x2")).save(ckpt)
        dataset = tmp_path / "data"
        dataset.mkdir()
        (dataset / qasm_file.name).write_text(QASM)
        return dataset, ckpt

    @pytest.mark.parametrize("baseline,fragment", [
        ("instance,cost\nghz_3,nan\n", "line 2: cost 'nan' is not finite"),
        ("instance,cost\nghz_3,-inf\n", "line 2: cost '-inf' is not finite"),
        (None, "cannot read baseline"),
    ], ids=["nan", "-inf", "directory"])
    def test_bench_checks_the_baseline_before_decoding(
            self, monkeypatch, capsys, tmp_path, bench_args, baseline,
            fragment):
        dataset, ckpt = bench_args
        base = tmp_path / "base.csv"
        if baseline is None:
            base.mkdir()
        else:
            base.write_text(baseline)

        def no_decode(*args, **kwargs):
            raise AssertionError("a circuit was decoded")
        monkeypatch.setattr("qlayout.bench.decode", no_decode)
        report = tmp_path / "report.csv"
        code, err = run_entry(monkeypatch, capsys, "bench", "--dataset",
                              dataset, "--ckpt", ckpt, "--baseline", base,
                              "--out", report)
        self.assert_one_line_error(code, err, fragment)
        assert not report.exists()

    def test_bench_rejects_a_dataset_that_is_a_file(
            self, monkeypatch, capsys, tmp_path, bench_args, qasm_file):
        _, ckpt = bench_args
        report = tmp_path / "report.csv"
        code, err = run_entry(monkeypatch, capsys, "bench", "--dataset",
                              qasm_file, "--ckpt", ckpt, "--out", report)
        self.assert_one_line_error(code, err, "is not a directory")
        assert not report.exists()

    def test_bench_skips_a_circuit_that_is_not_utf8(
            self, monkeypatch, capsys, tmp_path, bench_args):
        dataset, ckpt = bench_args
        (dataset / "latin_2.qasm").write_bytes(
            b"OPENQASM 2.0;\nqreg q[2];\n// caf\xe9\ncx q[0], q[1];\n")
        base = tmp_path / "base.csv"
        base.write_text("instance,cost\nghz_3,12\n")
        report, summary = tmp_path / "report.csv", tmp_path / "summary.json"
        monkeypatch.setattr(sys, "argv", [
            "qlayout", "bench", "--dataset", str(dataset), "--ckpt",
            str(ckpt), "--no-pp", "--baseline", str(base), "--out",
            str(report), "--summary", str(summary)])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 0
        doc = json.loads(summary.read_text())
        assert doc["instances"] == 1 and doc["skipped"] == 1
        assert doc["baseline"]["joined_rows"] == 1
        with open(report, newline="") as fh:
            assert [r["instance"] for r in csv.DictReader(fh)] == ["ghz_3"]

    DEEP = "[" * 10000 + "]" * 10000

    @pytest.mark.parametrize("kind", ["layout", "device file", "checkpoint"])
    def test_a_deeply_nested_json_file_is_one_error_line(
            self, monkeypatch, capsys, tmp_path, qasm_file, layout_file,
            kind):
        deep = tmp_path / "deep.json"
        deep.write_text(self.DEEP)
        args = {
            "layout": ["postprocess", "--layout", deep, "--circuit",
                       qasm_file, "--device", "grid2x2"],
            "device file": ["postprocess", "--layout", layout_file,
                            "--circuit", qasm_file, "--device", deep],
            "checkpoint": ["map", "--circuit", qasm_file, "--ckpt", deep],
        }[kind]
        code, err = run_entry(monkeypatch, capsys, *args)
        self.assert_one_line_error(code, err, f"cannot read {kind} {deep}")

    @pytest.mark.parametrize("command", ["map", "postprocess"])
    def test_an_output_in_a_missing_directory_is_one_error_line(
            self, monkeypatch, capsys, tmp_path, qasm_file, layout_file,
            command):
        ckpt = tmp_path / "policy.json"
        tiny_policy().save(ckpt)
        out = tmp_path / "missing" / "layout.json"
        args = {
            "map": ["--circuit", qasm_file, "--ckpt", ckpt],
            "postprocess": ["--layout", layout_file, "--circuit", qasm_file,
                            "--device", "grid2x2"],
        }[command]
        code, err = run_entry(monkeypatch, capsys, command, *args, "--out",
                              out)
        self.assert_one_line_error(code, err, str(out))

    @pytest.fixture
    def no_work(self, monkeypatch):
        """Fail the test if a command gets as far as training, drawing a
        test instance or decoding."""
        def refuse(*args, **kwargs):
            raise AssertionError("the command started its work")
        for name in ("train_new", "run_bench", "run_context_ablation",
                     "gen_random_instance"):
            monkeypatch.setattr(f"qlayout.cli.{name}", refuse)

    def output_args(self, tmp_path, qasm_file, command, option, target):
        """The arguments of a tiny run of ``command`` whose ``option``
        output is ``target``, every other output a writable file."""
        ckpt = tmp_path / "policy.json"
        tiny_policy().save(ckpt)
        outputs = {
            "train": {"--out": "policy.json", "--metrics": "metrics.csv"},
            "bench": {"--out": "report.csv", "--summary": "summary.json"},
            "ablate-context": {"--out": "ablation.csv"},
        }[command]
        args = {
            "train": ["--device", "grid2x2", "--n-min", "2", "--n-max",
                      "3"],
            "bench": ["--dataset", qasm_file.parent, "--ckpt", ckpt],
            "ablate-context": ["--device", "grid2x2", "--n-min", "2",
                               "--n-max", "3"],
        }[command]
        for name, file in outputs.items():
            args += [name, target if name == option else tmp_path / file]
        return args

    RUN_OUTPUTS = [("train", "--out"), ("train", "--metrics"),
                   ("bench", "--out"), ("bench", "--summary"),
                   ("ablate-context", "--out")]

    @pytest.mark.parametrize("command,option", RUN_OUTPUTS)
    def test_outputs_are_checked_before_the_work(
            self, monkeypatch, capsys, tmp_path, qasm_file, no_work,
            command, option):
        missing = tmp_path / "missing" / "out"
        folder = tmp_path / "folder"
        folder.mkdir()
        for target, fragment in ((missing, f"no directory {missing.parent}"),
                                 (folder, "it is a directory")):
            code, err = run_entry(monkeypatch, capsys, command,
                                  *self.output_args(tmp_path, qasm_file,
                                                    command, option, target))
            self.assert_one_line_error(code, err, f"cannot write {target}",
                                       fragment)

    @pytest.mark.parametrize("command,option", RUN_OUTPUTS)
    def test_an_output_directory_that_is_not_writable(
            self, monkeypatch, capsys, tmp_path, qasm_file, no_work,
            command, option):
        target = tmp_path / "locked" / "out"
        target.parent.mkdir()
        args = self.output_args(tmp_path, qasm_file, command, option, target)
        real_access = os.access
        monkeypatch.setattr(
            "qlayout.cli.os.access",
            lambda path, mode: (Path(path) != target.parent
                                and real_access(path, mode)))
        code, err = run_entry(monkeypatch, capsys, command, *args)
        self.assert_one_line_error(code, err, f"cannot write {target}",
                                   "is not writable")

    @pytest.mark.parametrize("command,option,value,fragment", [
        ("train", "--n-max", "1000000000", "n_max must be at most 2048"),
        ("train", "--batch-size", "1000000000", "batch_size: 1000000000 "
         "episodes of 3 qubits on 4 qubits exceed the walk's budget"),
        ("train", "--val-size", str(2**64), f"val_size: {2**64} episodes"),
        ("ablate-context", "--n-max", "1000000000",
         "n_max must be at most 2048"),
        ("ablate-context", "--batch-size", "1000000000", "batch_size: "),
        ("ablate-context", "--val-size", "1000000000", "val_size: "),
        ("ablate-context", "--test-size", "1000000000", "test_size: "),
    ])
    def test_sizes_are_bounded_before_any_instance_is_drawn(
            self, monkeypatch, capsys, tmp_path, command, option, value,
            fragment):
        import qlayout.training as training

        def no_draw(*args, **kwargs):
            raise AssertionError("an instance was drawn")
        monkeypatch.setattr(training, "gen_random_instance", no_draw)
        monkeypatch.setattr("qlayout.cli.gen_random_instance", no_draw)
        out = tmp_path / "out"
        args = ["--device", "grid2x2", "--n-min", "2", "--n-max", "3",
                "--epochs", "1", "--batches", "1", "--d-e", "8",
                "--layers", "1", "--heads", "2", "--m-heads", "2"]
        code, err = run_entry(monkeypatch, capsys, command, *args, option,
                              value, "--out", out)
        self.assert_one_line_error(code, err, fragment)
        assert not out.exists()

    def test_a_broadcast_over_a_register_wider_than_any_device(
            self, monkeypatch, capsys, tmp_path):
        f = tmp_path / "broadcast.qasm"
        f.write_text("OPENQASM 2.0;\nqreg q[3000000]; h q;\n")
        code, err = run_entry(monkeypatch, capsys, "features", f)
        self.assert_one_line_error(code, err, "line 2: operand 'q' names all "
                                   "3000000 qubits")
