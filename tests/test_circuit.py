import re
import time

import numpy as np
import pytest

from qlayout.circuit import (
    ProgramGraph,
    build_program_graph,
    check_qubit_count,
    extract_features,
    onehot_features,
    parse_qasm,
    read_qasm,
)
from qlayout.errors import (
    ConfigError,
    ConstraintViolationError,
    EmptyCircuitError,
    ParseError,
    QLayoutError,
    ShapeError,
    TooManyQubitsError,
    UnsupportedGateError,
)
from qlayout.topology import MAX_QUBITS

GHZ3 = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
"""


class TestParser:
    def test_single_cx(self):
        c = parse_qasm("qreg q[2]; cx q[0],q[1];")
        assert c.num_qubits == 2
        assert len(c.gates) == 1
        g = c.gates[0]
        assert g.is_two_qubit and g.control == 0 and g.target == 1

    def test_single_qubit_gate(self):
        c = parse_qasm("qreg q[1]; h q[0];")
        assert c.num_qubits == 1
        assert len(c.gates) == 1
        assert not c.gates[0].is_two_qubit

    def test_ghz(self):
        c = parse_qasm(GHZ3)
        assert c.num_qubits == 3
        assert len(c.gates) == 3
        pg = build_program_graph(c)
        assert sorted(pg.edges) == [(0, 1), (1, 2)]

    def test_parameterized_gates_discarded(self):
        c = parse_qasm("qreg q[1]; rz(0.5) q[0]; u3(1,2,3) q[0];")
        assert [g.kind for g in c.gates] == ["rz", "u3"]

    def test_measure_and_barrier_ignored(self):
        c = parse_qasm(
            "qreg q[2]; creg c[2]; h q[0]; barrier q; measure q[0] -> c[0];"
        )
        assert len(c.gates) == 1

    def test_register_broadcast(self):
        c = parse_qasm("qreg q[3]; h q;")
        assert len(c.gates) == 3

    def test_multiple_qregs(self):
        c = parse_qasm("qreg a[2]; qreg b[3]; cx a[1],b[0];")
        assert c.num_qubits == 5
        assert c.gates[0].qubits == (1, 2)

    def test_builtin_cx_and_u_kept_as_written(self):
        c = parse_qasm("qreg q[2];\nU(0,pi/2,0) q[1];\nCX q[0],q[1];\n"
                       "U(0,0,0) q;\n")
        assert [(g.kind, g.qubits) for g in c.gates] == [
            ("U", (1,)), ("CX", (0, 1)), ("U", (0,)), ("U", (1,))]
        assert build_program_graph(c).edges == ((0, 1),)

    def test_builtin_cx_needs_distinct_qubits(self):
        with pytest.raises(ParseError, match="two-qubit gate 'CX' needs "
                           "distinct qubits") as exc:
            parse_qasm("qreg q[2];\nCX q[0],q[0];\n")
        assert exc.value.line == 2

    def test_builtin_u_takes_one_operand(self):
        with pytest.raises(ParseError, match="gate 'U' expects one operand, "
                           "got 2") as exc:
            parse_qasm("qreg q[2];\nh q[0];\nU(0,0,0) q[0],q[1];\n")
        assert exc.value.line == 3

    def test_unsupported_gate_named(self):
        with pytest.raises(UnsupportedGateError) as exc:
            parse_qasm("qreg q[3]; ccx q[0],q[1],q[2];")
        assert "ccx" in str(exc.value)

    def test_syntax_error_carries_line(self):
        with pytest.raises(ParseError) as exc:
            parse_qasm("qreg q[2];\ncx q[0];\n")
        assert exc.value.line == 2

    def test_out_of_range_index(self):
        with pytest.raises(ParseError):
            parse_qasm("qreg q[2]; h q[5];")

    def test_identical_operands_rejected(self):
        with pytest.raises(ParseError):
            parse_qasm("qreg q[2]; cx q[0],q[0];")

    @pytest.mark.parametrize("gate", ["cx q[0], c[0], q[1];",
                                      "h q[0], c[1];", "cx q[0], c[1];",
                                      "h c;"])
    def test_classical_operand_rejected(self, gate):
        with pytest.raises(ParseError, match="classical register 'c'") as exc:
            parse_qasm(f"qreg q[2];\ncreg c[2];\n{gate}\nh q[1];")
        assert exc.value.line == 3

    @pytest.mark.parametrize("first,second", [("qreg", "creg"),
                                              ("creg", "qreg"),
                                              ("qreg", "qreg"),
                                              ("creg", "creg")])
    def test_register_name_declared_twice_rejected(self, first, second):
        with pytest.raises(ParseError, match="duplicate register 'r'") as exc:
            parse_qasm(f"{first} r[2];\n{second} r[1];\nqreg q[1];\n"
                       "h q[0];")
        assert exc.value.line == 2

    @pytest.mark.parametrize("stmt,fragment", [
        ("measure q[5] -> c[0];", "index 5 out of range for register 'q[2]'"),
        ("measure q[0] -> c[9];", "index 9 out of range for register 'c[1]'"),
        ("measure zz[0] -> c[0];", "unknown register 'zz'"),
        ("measure c[0] -> c[0];", "classical register 'c' is not a gate"),
        ("measure q[0] -> q[1];", "measure target 'q' is not a classical"),
        ("measure q[0] -> zz[0];", "measure target 'zz' is not a classical"),
        ("measure q -> c;", "measure of 2 qubits into 1 bits"),
        ("measure q[0] c[0];", "malformed measure 'q[0] c[0]'"),
        ("measure q[0] -> c[0] -> c[0];", "malformed measure"),
        ("measure q[0] -> c[x];", "cannot parse operand"),
        ("barrier zz;", "unknown register 'zz'"),
        ("barrier q[0], q[2];", "index 2 out of range for register 'q[2]'"),
        ("barrier c;", "classical register 'c' is not a gate"),
        ("barrier;", "barrier needs at least one operand"),
    ])
    @pytest.mark.parametrize("one_per_line", [True, False])
    def test_barrier_and_measure_operands_resolved(self, stmt, fragment,
                                                   one_per_line):
        # one statement per line, and all on one line
        sep = "\n" if one_per_line else " "
        source = sep.join(["qreg q[2];", "creg c[1];", "h q[0];", stmt,
                           "h q[1];"])
        with pytest.raises(ParseError, match=re.escape(fragment)) as exc:
            parse_qasm(source)
        assert exc.value.line == (4 if one_per_line else 1)

    @pytest.mark.parametrize("stmts", [
        "barrier q; measure q -> c;",
        "barrier q[1], r; measure q[1] -> c[0]; measure r -> c;",
        "measure r[1] -> c[1]; measure q[0] -> d;",
    ])
    def test_resolvable_barrier_and_measure_accepted(self, stmts):
        c = parse_qasm("qreg q[2]; qreg r[2]; creg c[2]; creg d[1]; "
                       f"h q[0]; {stmts}")
        assert c.num_qubits == 4 and len(c.gates) == 1

    def test_unterminated_statement(self):
        with pytest.raises(ParseError):
            parse_qasm("qreg q[2]; h q[0]")

    NINES = "9" * 5000  # longer than int() converts by default

    @pytest.mark.parametrize("stmt,fragment", [
        (f"h q[{NINES}];", "index into 'q[2]' has 5000 digits"),
        (f"cx q[0], q[{NINES}];", "index into 'q[2]' has 5000 digits"),
        (f"cx q[{NINES}], q[0];", "index into 'q[2]' has 5000 digits"),
        (f"barrier q[{NINES}];", "index into 'q[2]' has 5000 digits"),
        (f"measure q[{NINES}] -> c[0];", "index into 'q[2]' has 5000 digits"),
        (f"measure q[0] -> c[{NINES}];", "index into 'c[1]' has 5000 digits"),
        (f"qreg r[{NINES}];", "size of qreg 'r' has 5000 digits"),
        (f"creg d[{NINES}];", "size of creg 'd' has 5000 digits"),
    ])
    def test_a_number_too_long_for_int_is_a_parse_error(self, stmt,
                                                         fragment):
        with pytest.raises(ParseError, match=re.escape(fragment)) as exc:
            parse_qasm(f"qreg q[2];\ncreg c[1];\n{stmt}\nh q[0];\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize("index", ["0000000001", "0" * 40 + "1"])
    def test_a_long_in_range_index_is_read(self, index):
        # ten or more digits take the general path, with the same result
        c = parse_qasm(f"qreg q[2]; h q[{index}]; cx q[0], q[{index}];")
        assert [(g.kind, g.qubits) for g in c.gates] == [("h", (1,)),
                                                          ("cx", (0, 1))]


class TestWholeRegisterBound:
    """A whole-register operand lists one qubit per register entry, so a
    register wider than any device is refused before the list is built."""

    @pytest.mark.parametrize("statement", ["h q;", "barrier q;",
                                           "measure q -> c;"])
    @pytest.mark.parametrize("width", [MAX_QUBITS + 1, 3000000, 10**9])
    def test_a_register_wider_than_any_device_is_refused(self, statement,
                                                         width):
        source = f"qreg q[{width}];\ncreg c[{width}];\n{statement}\n"
        with pytest.raises(ParseError,
                           match=f"line 3: operand 'q' names all {width} "
                                 f"qubits of its register; no device has "
                                 f"more than {MAX_QUBITS}"):
            parse_qasm(source)

    def test_a_register_as_wide_as_the_bound_is_read(self):
        c = parse_qasm(f"qreg q[{MAX_QUBITS}]; creg c[{MAX_QUBITS}]; h q; "
                       "barrier q; measure q -> c;")
        assert c.num_qubits == MAX_QUBITS
        assert [g.qubits for g in c.gates] == [(q,) for q in range(MAX_QUBITS)]

    def test_the_36_byte_broadcast_is_refused_at_once(self):
        source = "OPENQASM 2.0;\nqreg q[3000000]; h q;\n"
        assert len(source.encode()) == 36
        t0 = time.perf_counter()
        with pytest.raises(ParseError, match="line 2: operand 'q'"):
            parse_qasm(source)
        assert time.perf_counter() - t0 < 0.1

    def test_an_indexed_operand_of_a_wide_register_is_unchanged(self):
        c = parse_qasm("qreg q[3000000]; h q[2999999]; cx q[0], q[1];")
        assert c.num_qubits == 3000000 and len(c.gates) == 2


class TestReadQasm:
    def test_reads_the_file(self, tmp_path):
        f = tmp_path / "ghz_3.qasm"
        f.write_text(GHZ3)
        assert read_qasm(f) == parse_qasm(GHZ3)
        assert read_qasm(str(f)) == parse_qasm(GHZ3)

    @pytest.mark.parametrize("kind", ["directory", "missing", "not utf-8"])
    def test_an_unreadable_file_is_a_parse_error_naming_it(self, tmp_path,
                                                           kind):
        f = tmp_path / "bad.qasm"
        if kind == "directory":
            f.mkdir()
        elif kind == "not utf-8":
            f.write_bytes(b"OPENQASM 2.0;\nqreg q[2];\n// \xff\xfe\n")
        with pytest.raises(ParseError, match=re.escape(f"cannot read {f}")):
            read_qasm(f)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_line_ends_are_read_as_written(self, tmp_path, newline):
        f = tmp_path / "ghz_3.qasm"
        f.write_bytes(GHZ3.replace("\n", newline).encode())
        assert read_qasm(f) == parse_qasm(GHZ3)
        f.write_bytes(b"qreg q[2];" + newline.encode() + b"cz q[0], q[2];")
        with pytest.raises(ParseError, match="line 2: index 2"):
            read_qasm(f)


class TestProgramGraph:
    def test_edge_multiplicity(self):
        c = parse_qasm("qreg q[2]; cx q[0],q[1]; cx q[0],q[1];")
        pg = build_program_graph(c)
        assert pg.edges.count((0, 1)) == 2
        assert pg.gate_pairs.tolist() == [[0, 0], [1, 1]]

    def test_no_two_qubit_gates(self):
        c = parse_qasm("qreg q[2]; h q[0]; x q[1];")
        pg = build_program_graph(c)
        assert pg.num_edges == 0
        assert pg.num_logical == 2

    def test_no_qubits_rejected(self):
        c = parse_qasm("OPENQASM 2.0;\nqreg q[0];\n")
        with pytest.raises(EmptyCircuitError, match="no qubits"):
            build_program_graph(c, n_max=4)

    @pytest.mark.parametrize("edge", [
        (0, -1), (0, 5), (3, 0), (0,), (0, 1, 2), 7, "01", (0, 1.0),
        (True, 0), (None, 1),
    ])
    def test_bad_edge_named(self, edge):
        with pytest.raises(ConstraintViolationError, match="edge") as info:
            ProgramGraph(3, ((0, 1), edge), onehot_features(3))
        assert repr(edge) in str(info.value)

    def test_edges_are_python_int_pairs(self):
        pg = ProgramGraph(3, [np.array([2, 0]), (np.int64(1), 2)],
                          onehot_features(3))
        assert pg.edges == ((2, 0), (1, 2))
        assert all(type(q) is int for e in pg.edges for q in e)

    def test_gate_on_one_qubit_twice_accepted(self):
        pg = ProgramGraph(2, ((1, 1), (0, 1)), onehot_features(2))
        assert pg.edges == ((1, 1), (0, 1))

    @pytest.mark.parametrize("feats", [np.zeros((2, 3)), np.zeros((4, 3)),
                                       np.zeros(3), np.zeros((3, 1, 1))])
    def test_feature_rows_must_match_nodes(self, feats):
        with pytest.raises(ShapeError, match="one feature row per node"):
            ProgramGraph(3, ((0, 1),), feats)
        assert issubclass(ShapeError, QLayoutError)

    def test_onehot_padding(self):
        feats = onehot_features(3, n_max=5)
        assert feats.shape == (3, 5)
        assert (feats[:, :3] == np.eye(3)).all()
        assert (feats[:, 3:] == 0).all()

    def test_onehot_wider_than_n_max(self):
        with pytest.raises(TooManyQubitsError, match="6 qubits.*n_max = 4"):
            onehot_features(6, n_max=4)

    def test_huge_register_rejected_before_allocation(self):
        circ = parse_qasm("OPENQASM 2.0;\nqreg q[99999999999];\n")
        assert circ.num_qubits == 99999999999
        with pytest.raises(TooManyQubitsError, match="99999999999.*65"):
            check_qubit_count(circ.num_qubits, 65, "the device's N")
        check_qubit_count(65, 65, "the device's N")


class TestFeatures:
    def test_single_op_density(self):
        c = parse_qasm("qreg q[2]; h q[0]; x q[1]; cx q[0],q[1]; z q[1];")
        f = extract_features(c)
        assert f[0].mu_s == pytest.approx(0.25)
        assert f[1].mu_s == pytest.approx(0.5)
        assert f[0].mu_c == pytest.approx(0.25)
        assert f[1].mu_t == pytest.approx(0.25)

    def test_isolated_qubit(self):
        c = parse_qasm("qreg q[3]; h q[2]; cx q[0],q[1];")
        f = extract_features(c)
        assert f[2].influence == 0.0
        assert f[2].causal_cone == pytest.approx(1 / 3)

    def test_ghz_causal_cone(self):
        f = extract_features(parse_qasm(GHZ3))
        assert f[0].causal_cone == pytest.approx(1.0)
        assert f[2].causal_cone == pytest.approx(2 / 3)

    def test_influence_radius(self):
        # chain of interactions 0-1, 1-2, 2-3: radius 1 sees one neighbour
        src = "qreg q[4]; cx q[0],q[1]; cx q[1],q[2]; cx q[2],q[3];"
        f1 = extract_features(parse_qasm(src), walk_radius=1)
        assert f1[0].influence == pytest.approx(1 / 3)
        f3 = extract_features(parse_qasm(src), walk_radius=3)
        assert f3[0].influence == pytest.approx(1.0)

    @pytest.mark.parametrize("radius", [-1, 1.5, True, None])
    def test_walk_radius_must_be_a_non_negative_integer(self, radius):
        with pytest.raises(ConfigError, match="walk_radius"):
            extract_features(parse_qasm(GHZ3), walk_radius=radius)

    def test_walk_radius_zero_sees_no_neighbour(self):
        f = extract_features(parse_qasm(GHZ3), walk_radius=0)
        assert all(v.influence == 0.0 for v in f)

    def test_pagerank_sums_to_one(self):
        f = extract_features(parse_qasm(GHZ3))
        pr = [v.pagerank for v in f]
        assert all(p >= 0 for p in pr)
        assert sum(pr) == pytest.approx(1.0, abs=1e-9)

    def test_pagerank_fixed_point(self):
        # verify the result satisfies the damped equation directly
        c = parse_qasm(
            "qreg q[4]; cx q[0],q[1]; cx q[1],q[2]; cx q[2],q[0]; cx q[3],q[0];"
        )
        pr = np.array([v.pagerank for v in extract_features(c)])
        n = 4
        a = np.zeros((n, n))
        for g in c.gates:
            a[g.control, g.target] += 1
        out = a.sum(axis=1)
        trans = np.where(out[:, None] > 0, a / np.where(out[:, None] == 0, 1, out[:, None]), 0)
        dangling = pr[out == 0].sum()
        expect = 0.15 / n + 0.85 * (trans.T @ pr + dangling / n)
        assert np.abs(pr - expect).max() < 1e-8

    def test_feature_values_in_range(self):
        f = extract_features(parse_qasm(GHZ3))
        for v in f:
            arr = v.as_array()
            assert np.isfinite(arr).all()
            assert 0.0 <= v.influence <= 1.0
            assert 0.0 <= v.causal_cone <= 1.0

    def test_deterministic(self):
        a, b = (np.stack([v.as_array()
                          for v in extract_features(parse_qasm(GHZ3))])
                for _ in range(2))
        assert (a == b).all()

    def test_empty_circuit_rejected(self):
        with pytest.raises(EmptyCircuitError):
            extract_features(parse_qasm("qreg q[2];"))

    def test_operand_incidence_conservation(self):
        c = parse_qasm(GHZ3)
        f = extract_features(c)
        eta = len(c.gates)
        singles = sum(v.mu_s for v in f) * eta
        twoq = sum(1 for g in c.gates if g.is_two_qubit)
        assert singles + 2 * twoq == sum(len(g.qubits) for g in c.gates)
