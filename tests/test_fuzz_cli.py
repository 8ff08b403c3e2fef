"""Property-based fuzzing of every command's inputs, run in-process
through ``cli.entry``.

Each example hands one command one mutated input:

- a layout, device or checkpoint JSON file with a field of the wrong type
  (``NaN``, ``Infinity`` and integers beyond 2**63 among the values), a
  document that is not an object, nesting at least 10 000 deep, bytes
  that are not UTF-8, or the file cut short;
- a baseline CSV with odd headers, costs, quotes and bytes;
- a QASM file whose gates, barriers and measures name whole registers,
  some wider than any device;
- a count option: 0, negative or beyond 2**63 for the counts that size
  memory, and only its sign or its type for the counts that cost time
  alone (``--epochs``, ``--batches``, ``--iters``, ``--patience``).

The property: the command exits 0 with a self-consistent result (a total,
injective, in-range layout whose cost equals a recompute from the device's
edges, or output files that read back), or exits 1 with exactly one
``error:`` line on stderr and nothing on stdout. A value that is not an
integer at all never reaches qlayout: click refuses it with its own usage
error (exit 2), which is checked as such.
"""

import contextlib
import csv
import io
import json
import sys
from collections import deque
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qlayout.circuit import read_qasm
from qlayout.cli import entry
from qlayout.policy import PolicyNetwork
from qlayout.topology import load_coupling_graph

from conftest import tiny_policy

SETTINGS = settings(max_examples=50, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])
# every run that gets past its checks trains or searches at this size
TINY_TRAIN = ["--device", "grid2x2", "--n-min", "2", "--n-max", "3",
              "--epochs", "1", "--batches", "1", "--batch-size", "2",
              "--val-size", "2", "--d-e", "4", "--layers", "1", "--heads",
              "2", "--m-heads", "2"]
SEARCH = ["--iters", "40", "--patience", "10"]
GHZ3 = "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0], q[1];\ncx q[1], q[2];\n"
LAYOUT = {"n": 3, "assign": [0, 1, 3]}
DEVICE = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "name": "line4"}


def run(*args):
    """(exit code, stdout, stderr) of ``qlayout *args``."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "argv", ["qlayout", *map(str, args)]), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            entry()
    return exc.value.code, out.getvalue(), err.getvalue()


def check(result, verify):
    """The property: exit 0 and ``verify(stdout)`` holds, or exit 1 with
    one ``error:`` line and nothing else."""
    code, out, err = result
    if code == 0:
        verify(out)
    else:
        assert code == 1, err
        assert out == "", out
        assert err.startswith("error: ") and err.count("\n") == 1, err


def distances(cg):
    """Hop counts between all seats, by breadth-first search over the
    device's edge list."""
    adj = {p: [] for p in range(cg.num_physical)}
    for a, b in cg.edge_list:
        adj[a].append(b)
        adj[b].append(a)
    table = {}
    for src in adj:
        seen = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen[v] = seen[u] + 1
                    queue.append(v)
        table[src] = seen
    return table


def check_layout(doc, circuit, cg, cost):
    """A total, injective, in-range layout of ``circuit`` whose
    adjacent-free cost, recomputed from ``cg``'s edges, is ``cost``."""
    assign = doc["assign"]
    assert doc["n"] == len(assign) == circuit.num_qubits
    assert doc["N"] == cg.num_physical
    assert len(set(assign)) == len(assign)
    assert all(0 <= p < cg.num_physical for p in assign)
    dist = distances(cg)
    want = sum(2.0 * (dist[assign[a]][assign[b]] - 1)
               for g in circuit.gates if g.is_two_qubit
               for a, b in [g.qubits])
    assert cost == want


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A folder with a valid input of every kind."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "data").mkdir()
    (root / "data" / "ghz_3.qasm").write_text(GHZ3)
    tiny_policy(n_max=4, d=4).save(root / "policy.json")
    (root / "layout.json").write_text(json.dumps(LAYOUT))
    (root / "device.json").write_text(json.dumps(DEVICE))
    return root


# --- JSON documents ---------------------------------------------------

NUMBERS = st.one_of(
    st.integers(-3, 5), st.integers(-2**70, 2**70),
    st.sampled_from([2**63, -2**63 - 1, 2**64 + 1, 10**400]),
    st.floats(allow_nan=True, allow_infinity=True))
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=4))
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=5)
DEEP = "\0deep\0"  # a string no document holds, swapped for deep nesting


def children(node):
    if isinstance(node, dict):
        return list(node)
    if isinstance(node, list):
        return list(range(len(node)))
    return []


@st.composite
def mutated_json(draw, doc):
    """The bytes of ``doc`` after one mutation."""
    doc = json.loads(json.dumps(doc))
    kind = draw(st.sampled_from(["field", "field", "document", "deep",
                                 "bytes", "truncated"]))
    if kind in ("field", "deep"):
        # walk from the root to a node, and replace one of its entries
        node = doc
        while True:
            keys = children(node)
            key = draw(st.sampled_from(keys))
            if not children(node[key]) or draw(st.booleans()):
                break
            node = node[key]
        node[key] = draw(VALUES) if kind == "field" else DEEP
    elif kind == "document":
        doc = draw(VALUES.filter(lambda v: not isinstance(v, dict)))
    text = json.dumps(doc)
    if kind == "deep":
        depth = draw(st.integers(10_000, 40_000))
        opener = draw(st.sampled_from(["[", '{"a": ']))
        closer = "]" if opener == "[" else "}"
        text = text.replace(json.dumps(DEEP), opener * depth + closer * depth)
    data = text.encode()
    if kind == "bytes":
        at = draw(st.integers(0, len(data)))
        junk = draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80",
                                     b"\xe9t\xe9"]))
        data = data[:at] + junk + data[at:]
    elif kind == "truncated":
        data = data[:draw(st.integers(0, len(data) - 1))]
    return data


def postprocess_check(circuit_path, cg_of):
    def verify(out):
        doc = json.loads(out)
        check_layout(doc, read_qasm(circuit_path), cg_of(),
                     doc["cost_after"])
    return verify


@SETTINGS
@given(data=st.data())
def test_layout_files(base, data):
    layout = base / "fuzzed_layout.json"
    layout.write_bytes(data.draw(mutated_json(LAYOUT)))
    circuit = base / "data" / "ghz_3.qasm"
    check(run("postprocess", "--layout", layout, "--circuit", circuit,
              "--device", base / "device.json", *SEARCH),
          postprocess_check(circuit,
                            lambda: load_coupling_graph(base / "device.json")))


@SETTINGS
@given(data=st.data())
def test_device_files(base, data):
    device = base / "fuzzed_device.json"
    device.write_bytes(data.draw(mutated_json(DEVICE)))
    circuit = base / "data" / "ghz_3.qasm"
    check(run("postprocess", "--layout", base / "layout.json", "--circuit",
              circuit, "--device", device, *SEARCH),
          postprocess_check(circuit, lambda: load_coupling_graph(device)))


@settings(SETTINGS, max_examples=100)
@given(data=st.data())
def test_checkpoint_files(base, data):
    saved = json.loads((base / "policy.json").read_text())
    ckpt = base / "fuzzed_policy.json"
    ckpt.write_bytes(data.draw(mutated_json(saved)))
    circuit = base / "data" / "ghz_3.qasm"

    def verify(out):
        doc = json.loads(out)
        check_layout(doc, read_qasm(circuit), PolicyNetwork.load(ckpt).cg,
                     doc["cost"])
    check(run("map", "--circuit", circuit, "--ckpt", ckpt), verify)


# --- baseline CSV -----------------------------------------------------

CELLS = st.one_of(st.sampled_from(["ghz_3", "other", "", "1.5", "nan",
                                   "-inf", "1e999", "2", '"', 'a"b', "x,y"]),
                  st.text(max_size=4))


@st.composite
def baseline_csv(draw):
    header = draw(st.sampled_from([["instance", "cost"],
                                   ["cost", "instance", "extra"],
                                   ["instance"], []]))
    rows = draw(st.lists(st.lists(CELLS, min_size=0, max_size=4),
                         max_size=4))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    data = buf.getvalue().encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        junk = draw(st.sampled_from([b"\xff", b"\0", b'"', b"\r",
                                     b"x" * 140_000]))
        data = data[:at] + junk + data[at:]
    return data


@SETTINGS
@given(data=baseline_csv())
def test_baseline_files(base, data):
    baseline = base / "baseline.csv"
    baseline.write_bytes(data)
    report = base / "report.csv"

    def verify(out):
        with open(report, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["instance"] for r in rows] == ["ghz_3"]
        assert "baseline_cost" in rows[0]
    check(run("bench", "--dataset", base / "data", "--ckpt",
              base / "policy.json", "--no-pp", "--baseline", baseline,
              "--out", report), verify)


# --- QASM with whole-register operands --------------------------------

WIDTHS = st.sampled_from([1, 2, 3, 5, 2049, 3_000_000, 10**9, 10**30])


@st.composite
def register_circuit(draw):
    regs = {"q": draw(WIDTHS), "r": draw(WIDTHS)}
    bits = {"c": draw(WIDTHS)}
    lines = ["OPENQASM 2.0;"]
    lines += [f"qreg {name}[{size}];" for name, size in regs.items()]
    lines += [f"creg {name}[{size}];" for name, size in bits.items()]
    statements = st.sampled_from([
        "h q;", "x r;", "barrier q;", "barrier q, r;", "measure q -> c;",
        "measure r -> c;", "measure q[0] -> c[0];", "cx q[0], r[0];",
        "cx q, r;", "h q[1];", "cz r[0], q[2];"])
    lines += draw(st.lists(statements, min_size=1, max_size=5))
    return "\n".join(lines) + "\n"


@SETTINGS
@given(source=register_circuit(),
       command=st.sampled_from(["features", "map", "postprocess"]))
def test_whole_register_circuits(base, source, command):
    circuit = base / "registers.qasm"
    circuit.write_text(source)
    if command == "features":
        def verify(out):
            assert len(json.loads(out)) == read_qasm(circuit).num_qubits
        args = ["features", circuit]
    elif command == "map":
        def verify(out):
            doc = json.loads(out)
            check_layout(doc, read_qasm(circuit),
                         PolicyNetwork.load(base / "policy.json").cg,
                         doc["cost"])
        args = ["map", "--circuit", circuit, "--ckpt", base / "policy.json"]
    else:
        verify = postprocess_check(
            circuit, lambda: load_coupling_graph(base / "device.json"))
        args = ["postprocess", "--layout", base / "layout.json", "--circuit",
                circuit, "--device", base / "device.json", *SEARCH]
    check(run(*args), verify)


# --- count options ----------------------------------------------------

MEMORY_COUNTS = st.sampled_from(["0", "-1", "-7", str(-2**63), str(2**63),
                                 str(2**64 + 5), str(10**30)])
TIME_COUNTS = st.sampled_from(["0", "-1", "1", "2", str(-2**63)])
NOT_INTEGERS = st.sampled_from(["1.5", "", "x", "true", "2e3", "0x10"])
# each command's options: the counts that size memory, and those that
# only cost time
COUNTS = {
    "train": (["--n-max", "--n-min", "--batch-size", "--val-size", "--d-e",
               "--d-c", "--layers", "--heads", "--m-heads"],
              ["--epochs", "--batches"]),
    "ablate-context": (["--n-max", "--batch-size", "--val-size",
                        "--test-size", "--d-e", "--layers", "--heads",
                        "--m-heads"], ["--epochs", "--batches"]),
    "map": (["--k"], []),
    "bench": (["--k"], []),
    "postprocess": ([], ["--iters", "--patience"]),
    "features": ([], ["--walk-radius"]),
}


@st.composite
def count_case(draw):
    command = draw(st.sampled_from(sorted(COUNTS)))
    memory, time = COUNTS[command]
    kind = draw(st.sampled_from(["memory"] * bool(memory)
                                + ["time", "type"] * bool(time)))
    option = draw(st.sampled_from(memory if kind == "memory" else time))
    value = draw({"memory": MEMORY_COUNTS, "time": TIME_COUNTS,
                  "type": NOT_INTEGERS}[kind])
    return command, option, value, kind == "type"


@settings(SETTINGS, max_examples=80)
@given(case=count_case())
def test_count_options(base, case):
    command, option, value, not_an_integer = case
    out = base / "out"
    circuit = base / "data" / "ghz_3.qasm"
    ckpt = base / "policy.json"
    args = {
        "train": [*TINY_TRAIN, "--d-c", "4", "--out", out],
        "ablate-context": [*TINY_TRAIN, "--test-size", "2", "--out", out],
        "map": ["--circuit", circuit, "--ckpt", ckpt, "--strategy",
                "multistart_sampling"],
        "bench": ["--dataset", base / "data", "--ckpt", ckpt, "--no-pp",
                  "--strategies", "multistart_greedy", "--out", out],
        "postprocess": ["--layout", base / "layout.json", "--circuit",
                        circuit, "--device", base / "device.json", *SEARCH],
        "features": [circuit],
    }[command]
    args = [command, *args, option, value]

    def verify(stdout):
        if command == "train":
            assert PolicyNetwork.load(out).prog_feature_dim == 3
        elif command == "ablate-context":
            with open(out, newline="") as fh:
                assert len(list(csv.DictReader(fh))) == 3
        elif command == "bench":
            with open(out, newline="") as fh:
                assert len(list(csv.DictReader(fh))) == 1
        elif command == "features":
            assert len(json.loads(stdout)) == 3
        else:
            doc = json.loads(stdout)
            cg = (PolicyNetwork.load(ckpt).cg if command == "map"
                  else load_coupling_graph(base / "device.json"))
            cost = doc["cost"] if command == "map" else doc["cost_after"]
            check_layout(doc, read_qasm(circuit), cg, cost)

    result = run(*args)
    if not_an_integer:
        code, stdout, err = result
        assert code == 2 and stdout == "", err
        assert err.splitlines()[-1].startswith(
            f"Error: Invalid value for '{option}'"), err
    else:
        check(result, verify)
