"""A frozen copy of ``qlayout.circuit.parse_qasm`` as it was before the
one-pass fast path (commit 545e9f2), kept as the oracle of the parser's
differential test.

It walks every statement through ``_statements`` and ignores the operands
of ``barrier`` and ``measure``. Do not edit it to follow the parser: its
value is that it does not change. It builds the package's own ``Gate``,
``Circuit`` and error classes so results and errors compare directly.
"""

from __future__ import annotations

import re

from qlayout.circuit import Circuit, Gate
from qlayout.errors import ParseError, UnsupportedGateError

SINGLE_QUBIT_GATES = frozenset(
    "id x y z h s sdg t tdg sx sxdg rx ry rz p u u1 u2 u3".split()
)
TWO_QUBIT_GATES = frozenset(["cx", "cz", "swap"])
_IGNORED = frozenset(["barrier", "measure"])

_STMT_RE = re.compile(r"^(\w+)\s*(?:\(([^)]*)\))?\s*(.*)$", re.S)
_OPERAND_RE = re.compile(r"^(\w+)\s*(?:\[\s*(\d+)\s*\])?$")


def _statements(source):
    """Yield (statement_text, line_number) pairs, comments stripped."""
    buf = []
    start_line = None
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("//", 1)[0]
        for ch in line:
            if ch == ";":
                stmt = "".join(buf).strip()
                if stmt:
                    yield stmt, start_line if start_line is not None else lineno
                buf = []
                start_line = None
            else:
                if ch.strip() and start_line is None:
                    start_line = lineno
                buf.append(ch)
        buf.append(" ")
    tail = "".join(buf).strip()
    if tail:
        raise ParseError(f"unterminated statement '{tail[:40]}'", line=start_line)


def parse_qasm(source: str) -> Circuit:
    qregs = {}  # name -> (offset, size)
    cregs = set()
    num_qubits = 0
    gates = []

    def resolve(operand, line):
        m = _OPERAND_RE.match(operand.strip())
        if not m:
            raise ParseError(f"cannot parse operand '{operand}'", line=line)
        name, idx = m.group(1), m.group(2)
        if name in cregs:
            raise ParseError(f"classical register '{name}' is not a gate "
                             "operand", line=line)
        if name not in qregs:
            raise ParseError(f"unknown register '{name}'", line=line)
        offset, size = qregs[name]
        if idx is None:
            return [offset + k for k in range(size)]
        idx = int(idx)
        if idx >= size:
            raise ParseError(
                f"index {idx} out of range for register '{name}[{size}]'", line=line
            )
        return [offset + idx]

    for stmt, line in _statements(source):
        m = _STMT_RE.match(stmt)
        if not m:
            raise ParseError(f"cannot parse statement '{stmt[:40]}'", line=line)
        head, _params, rest = m.group(1), m.group(2), m.group(3).strip()

        if head == "OPENQASM" or head == "include":
            continue
        if head in ("qreg", "creg"):
            dm = re.match(r"^(\w+)\s*\[\s*(\d+)\s*\]$", rest)
            if not dm:
                raise ParseError(f"malformed {head} declaration '{rest}'", line=line)
            name, size = dm.group(1), int(dm.group(2))
            if name in qregs or name in cregs:
                raise ParseError(f"duplicate register '{name}'", line=line)
            if head == "qreg":
                qregs[name] = (num_qubits, size)
                num_qubits += size
            else:
                cregs.add(name)
            continue
        if head in _IGNORED:
            continue
        if head == "gate" or head == "opaque":
            raise ParseError("gate definitions are not supported", line=line)

        if head not in SINGLE_QUBIT_GATES and head not in TWO_QUBIT_GATES:
            raise UnsupportedGateError(head, line=line)

        operands = [resolve(op, line) for op in rest.split(",")] if rest else []
        if head in SINGLE_QUBIT_GATES:
            if len(operands) != 1:
                raise ParseError(
                    f"gate '{head}' expects one operand, got {len(operands)}",
                    line=line,
                )
            for q in operands[0]:
                gates.append(Gate(head, (q,)))
        else:
            if len(operands) != 2:
                raise ParseError(
                    f"gate '{head}' expects two operands, got {len(operands)}",
                    line=line,
                )
            if len(operands[0]) != 1 or len(operands[1]) != 1:
                raise ParseError(
                    f"two-qubit gate '{head}' requires indexed operands", line=line
                )
            a, b = operands[0][0], operands[1][0]
            if a == b:
                raise ParseError(
                    f"two-qubit gate '{head}' needs distinct qubits", line=line
                )
            gates.append(Gate(head, (a, b)))

    return Circuit(num_qubits, tuple(gates))
