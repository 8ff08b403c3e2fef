"""Differential test of ``parse_qasm`` against a frozen copy of the parser
it replaced (``reference_parser``), on drawn documents and on fixed ones.

The documents are drawn from a small OpenQASM 2.0 grammar (Cross et al.
2017, arXiv:1707.03429) and then mutated: operands, indices, register
names, parameters, whitespace, ``//`` comments, ``;`` placement,
statements split over lines and every line break ``str.splitlines``
knows. The new parser resolves the operands of ``barrier`` and
``measure`` where the old one ignored them, so those two statements are
drawn only with valid operands, and no mutation can change what they
read; their new errors are tested in ``test_circuit.py``. The built-in
``CX`` and ``U``, which the old parser rejects, are not drawn either; they
are tested there too.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_parser
from qlayout.circuit import parse_qasm
from qlayout.errors import ParseError

# the benchmark's circuit generator, read from this checkout's perfbench/
sys.path.append(str(Path(__file__).resolve().parents[1]))
from perfbench import gen  # noqa: E402
from perfbench.workloads import RefineWorkload  # noqa: E402

BREAKS = ["\n", "\n", "\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d",
          "\x1e", "\x85", "\u2028", "\u2029"]
# whitespace that is not a line break, for str.strip and for \s
SPACES = [" ", "", " ", "  ", "\t", "\xa0", "\u3000", "\x1f"]
COMMENTS = ["//", "// note", "//; h q[0];", "/// x // y", "// pi/2 -> c"]
GATE_NAMES = ["h", "x", "sx", "tdg", "rz", "u3", "id", "cx", "cx", "cz",
              "swap", "ccx", "bogus", "gate", "opaque", "qreg",
              "creg", "OPENQASM", "include", "hq", "h1"]
PARAMS = ["", "()", "(0.5)", "(-1.234567)", "(pi/2)", "(0,-pi)",
          "( pi / 4 )", "(1,2,3)", "(pi//2)", "((1))", "(1;2)", "(a)b)"]
REG_NAMES = ["q", "r", "c", "m", "anc", "é"]
DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def separator(draw):
    """Whitespace between two tokens: spaces, a line break, or a comment
    that runs to a line break. A comment never swallows a ';', because
    the ';' is never inside a separator."""
    kind = draw(st.integers(0, 9))
    if kind < 7:
        return draw(st.sampled_from(SPACES))
    if kind < 9:
        return draw(st.sampled_from(SPACES)) + draw(st.sampled_from(BREAKS))
    return draw(st.sampled_from(COMMENTS)) + draw(st.sampled_from(BREAKS))


def index_text(draw, size, valid):
    """An index into a register of ``size``; out of range or not a number
    in three draws of four when not ``valid``."""
    kind = 0 if valid else draw(st.integers(0, 3))
    if kind == 3:
        return draw(st.sampled_from(["", "-1", "x", "1.5", "1 2", "[0]"]))
    idx = draw(st.integers(0, max(size - 1, 0)))
    if kind:
        idx = size + draw(st.integers(0, 2))
    text = str(idx)
    if draw(st.integers(0, 9)) == 9:
        text = text.translate(DIGITS)
    elif draw(st.integers(0, 9)) == 9:
        text = "0" + text
    return text


def operand(draw, regs, valid):
    """``reg`` or ``reg[i]`` on a register of ``regs``; a mutated one
    when not ``valid``."""
    if not regs or (not valid and draw(st.integers(0, 4)) == 4):
        name, size = draw(st.sampled_from(REG_NAMES)), 2
    else:
        name, size = draw(st.sampled_from(regs))
    if valid and not size or not valid and draw(st.integers(0, 3)) == 3:
        text = name
    else:
        pad = [draw(st.sampled_from(["", " ", "\t"])) for _ in range(3)]
        text = (f"{name}{pad[0]}[{pad[1]}"
                f"{index_text(draw, size, valid)}{pad[2]}]")
    if not valid and draw(st.integers(0, 9)) == 9:
        text = draw(st.sampled_from([text[:-1], "[" + text, text + "]",
                                     text + " junk", "2"]))
    return text


def gate_statement(draw, qregs, cregs):
    """A gate's tokens: its name (with any parameters), then operands and
    commas. Most draws are well formed; the rest break one part."""
    valid = draw(st.integers(0, 3)) < 3
    name = draw(st.sampled_from(GATE_NAMES[:11] if valid else GATE_NAMES))
    params = draw(st.sampled_from(PARAMS[:7] if valid else PARAMS))
    arity = 2 if name in ("cx", "cz", "swap") else 1
    if not valid and draw(st.booleans()):
        arity = draw(st.integers(0, 3))
    regs = qregs + cregs if not valid and draw(st.booleans()) else qregs
    tokens = [name + params] if draw(st.booleans()) else [name, params]
    for k in range(arity):
        if k:
            tokens.append(",")
        tokens.append(operand(draw, regs, valid))
    return [t for t in tokens if t]


def protected_statement(draw, qregs, cregs):
    """``barrier`` or ``measure`` with operands that resolve."""
    if draw(st.booleans()) or not cregs:
        ops = [operand(draw, qregs, True)
               for _ in range(draw(st.integers(1, 3)))]
        tokens = ["barrier", ops[0]]
        for op in ops[1:]:
            tokens += [",", op]
        return tokens
    (qname, qsize), (cname, csize) = (draw(st.sampled_from(qregs)),
                                      draw(st.sampled_from(cregs)))
    if qsize == csize and draw(st.booleans()):
        return ["measure", qname, "->", cname]
    if not qsize or not csize:
        return ["barrier", qname]
    return ["measure", f"{qname}[{draw(st.integers(0, qsize - 1))}]", "->",
            f"{cname}[{draw(st.integers(0, csize - 1))}]"]


@st.composite
def documents(draw):
    """A QASM source. A tidy one has one statement per line, with no
    ';', '//' or line break inside a statement, and ends most lines with
    LF or CR LF."""
    tidy = draw(st.integers(0, 2)) > 0
    qregs, cregs, statements = [], [], []
    if draw(st.booleans()):
        # protected too: a header that swallows the next statement would
        # hide a register declaration from both parsers
        statements.append((["OPENQASM", "2.0"], True))
        statements.append((["include", '"qelib1.inc"'], True))
    names = draw(st.lists(st.sampled_from(REG_NAMES[:5]), min_size=1,
                          max_size=4, unique=True))
    if draw(st.integers(0, 9)) == 9:
        names.append(draw(st.sampled_from(names)))
    for i, name in enumerate(names):
        kind = "qreg" if i == 0 or draw(st.booleans()) else "creg"
        size = draw(st.integers(0, 4))
        if any(name == n for n, _ in qregs + cregs):
            # a duplicate raises at once, before anything reads it
            statements.append(([kind, f"{name}[{size}]"], False))
            continue
        (qregs if kind == "qreg" else cregs).append((name, size))
        size_text = str(size)
        if draw(st.integers(0, 9)) == 9:
            size_text = size_text.translate(DIGITS)
        statements.append(([kind, name, "[", size_text, "]"], False))
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 3)) == 0:
            statements.append((protected_statement(draw, qregs, cregs), True))
        else:
            statements.append((gate_statement(draw, qregs, cregs), False))

    parts = []
    if draw(st.booleans()):
        parts.append("// Benchmark header\n// more: https://example.org\n\n")
    end = "\r\n" if draw(st.integers(0, 3)) == 0 else "\n"
    for tokens, protected in statements:
        if tidy:
            text = tokens[0]
            for tok in tokens[1:]:
                text += ("" if tok == "," else
                         draw(st.sampled_from([" ", "\t", "\xa0"]))) + tok
            comment = draw(st.sampled_from(["", "", " // done", "\t//x"]))
            line_end = end
            if draw(st.integers(0, 9)) == 9:
                line_end = draw(st.sampled_from(BREAKS))
            parts.append(draw(st.sampled_from(SPACES)) + text + ";"
                         + comment + line_end)
            continue
        text = tokens[0]
        for tok in tokens[1:]:
            text += separator(draw) + tok
        term = ";"
        if not protected:
            # ';' placement: drop it, let a comment eat it, or add one
            # between two tokens. What the parsers then read keeps this
            # statement's head, never barrier's or measure's.
            cut = draw(st.integers(0, 19))
            if cut == 19:
                term = ""
            elif cut == 18:
                term = "// ;"
            elif cut == 17 and len(tokens) > 1:
                k = draw(st.integers(1, len(tokens) - 1))
                text = (" ".join(tokens[:k]) + ";" + " ".join(tokens[k:]))
        parts.append(text + term + separator(draw))
    if draw(st.booleans()) and parts:
        parts[-1] = parts[-1].rstrip("\n")
    return "".join(parts)


def outcome(parse, source):
    try:
        return "ok", parse(source)
    except ParseError as exc:
        return type(exc), str(exc), exc.line


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_parser_agrees_with_the_frozen_reference(source):
    assert outcome(parse_qasm, source) == \
        outcome(reference_parser.parse_qasm, source)


PERFBENCH_STYLE = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[5];
creg c[5];
h q[0];
rz(-1.234567) q[3];
cx q[1],q[2];
sx q[4];
swap q[4],q[0];
cz q[3],q[2];
barrier q;
measure q -> c;
"""

MQTBENCH_STYLE = """// Benchmark was created by MQT Bench on 2024-03-19
// For more information about MQT Bench, please visit https://www.cda.cit.tum.de/mqtbench/
// MQT Bench version: 1.1.0
// Qiskit version: 1.0.2

OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
creg meas[4];
u2(0,-pi) q[3];
h q[2];
cx q[1],q[0];
rz(pi/4) q[0];
u3(pi/2, 0, -pi/4) q[1];
barrier q[0],q[1],q[2],q[3];
measure q[0] -> meas[0];
measure q[1] -> meas[1];
measure q[2] -> meas[2];
measure q[3] -> meas[3];
"""

QUEKO_STYLE = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[16];
cx q[5], q[8];
x q[11];
cx q[8], q[13];
"""

REFINE = gen.circuit_set(RefineWorkload.name, 1, 1, RefineWorkload.qubits,
                         RefineWorkload.gate_factor)[0].qasm


@pytest.mark.parametrize("source", [
    PERFBENCH_STYLE, MQTBENCH_STYLE, QUEKO_STYLE,
    MQTBENCH_STYLE.replace("\n", "\r\n"), PERFBENCH_STYLE.rstrip("\n"),
    "\n".join("  " + line + "  // gate" for line in
              QUEKO_STYLE.splitlines()),
    pytest.param(" ".join(REFINE.splitlines()), id="refine-one-line"),
    pytest.param(REFINE.replace("\n", "\r"), id="refine-cr"),
    "qreg q[2]; h q[0];",                 # two statements on one line
    "qreg q[2];\ncx q[0],\n  q[1];\n",    # a statement over two lines
    "qreg q[2];\rh q[0];\r",              # a line break other than \n
    "qreg q[2];\nrz(pi//2) q[0];\n",      # '//' inside a statement
    "qreg q[2];\n// c\x85h q[0];\n",      # a break ends a comment
    "qreg q[2];\nh q[0];\u2028h q[1];\n",
    "qreg q[2];\n;\n",                     # an empty statement
    # failing statements: each error with its class, message and line
    "qreg q[2];\nh q[0];\ncx q[0],q[2];\n",
    "qreg q[2];\nh q[2];\n",
    "qreg q[2];\n\xa0h q[7];\n",
    "qreg q[2];\ncreg c[2];\ncx q[0],c[1];\n",
    "qreg q[2];\nhq[0];\n",
    "qreg q[2];\ncx q[1],q[1];\n",
    "qreg q[2];\nh q[0],q[1];\n",
    "qreg q[2];\nccx q[0],q[1];\n",
    "qreg q[2];\ncx r[0],q[1];\n",
    "qreg q[2];\r// c\nh q[5];",          # CR then a comment: two breaks
    "qreg q[2];\nh q[0];\n\n  cx q[0], // control\n q[1]\n , q[0];\n",
    "qreg q[2];\nh q[0];\n\n  cx q[0],\n // c\n q[1]\n",  # unterminated
])
def test_fixed_source_agrees_with_the_frozen_reference(source):
    assert outcome(parse_qasm, source) == \
        outcome(reference_parser.parse_qasm, source)
