import csv
import json
import sys

import pytest
from click.testing import CliRunner

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
        assert ckpt.exists()
        with open(metrics, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and "mean_reward" in rows[0]

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
        none = tmp_path / "none.json"
        for device, fragment in (("gridx", "gridx"), ("grid2x", "grid2x"),
                                 ("grid0x4", "grid0x4"), (none, str(none)),
                                 (bad_json, str(bad_json)),
                                 (infinite, "malformed edge-list")):
            code, err = run_entry(monkeypatch, capsys, "postprocess",
                                  "--layout", layout_file, "--circuit",
                                  qasm_file, "--device", device)
            self.assert_one_line_error(code, err, fragment)

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
