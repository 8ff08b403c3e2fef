"""OpenQASM 2.0 parsing, program graphs, and per-qubit node features.

The parser covers the restricted subset the layout stage needs: register
declarations, the standard single-qubit gates, cx/cz/swap, the built-in U
and CX (kept as written), and barrier/measure (which add no gates). Gate
parameters are parsed and discarded. A gate's operands are quantum
registers only: a classical one there, or a register name declared twice,
is a ParseError. The operands of barrier and measure are checked as well:
a barrier's must be declared quantum registers in range, and
``measure a -> b`` needs a quantum ``a`` and a classical ``b`` of the
same width. A register size or index too long for ``int`` is a ParseError
too, and so is a whole-register operand wider than ``MAX_QUBITS``, before
a qubit of it is listed, and so are whole-register statements that produce
more than ``MAX_REGISTER_GATES`` gates in all.

Every document is read by one statement loop. Each line break (any that
``str.splitlines`` knows) becomes one LF, ``//`` comments are cut, and
the text is split at ``;``: each piece, trimmed, is one statement, and
the piece after the last ``;`` must be blank. A simple gate on declared,
in-range, distinct qubits is appended by one regex match; every other
statement goes to ``_Document.statement``, which raises each error with
the line the statement starts on. Lines are counted only for those
statements, so a document of simple gates is never scanned for them.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    ConstraintViolationError,
    EmptyCircuitError,
    ParseError,
    ShapeError,
    TooManyQubitsError,
    UnsupportedGateError,
    check_integer,
    read_input,
)
from .topology import MAX_QUBITS

SINGLE_QUBIT_GATES = frozenset(
    "id x y z h s sdg t tdg sx sxdg rx ry rz p u u1 u2 u3 U".split()
)
TWO_QUBIT_GATES = frozenset(["cx", "cz", "swap", "CX"])
# extract_features holds (n, n) float arrays: 2048 qubits, more than any
# device built has, keeps each at 32 MiB; wider circuits are refused first
FEATURE_QUBIT_LIMIT = 2048
# The most gates a document's whole-register statements may produce: 32
# broadcasts over the widest register. Without a bound, `h q;` on 2048
# qubits buys 2048 gates for 4 bytes.
MAX_REGISTER_GATES = 32 * MAX_QUBITS

_STMT_RE = re.compile(r"^(\w+)\s*(?:\(([^)]*)\))?\s*(.*)$", re.S)
_OPERAND_RE = re.compile(r"^(\w+)\s*(?:\[\s*(\d+)\s*\])?$")
_COMMENT_RE = re.compile(r"//[^\n]*")
# A simple gate: a name, then its parameters or a blank (so the name is as
# long as the handler reads it), then one or two indexed operands. Groups:
# the name and each operand's register and index. An index of ten or more
# digits takes the general path, so ``int`` here never meets a long one.
_GATE_RE = re.compile(r"\s*(\w+)(?:\s*\([^)]*\)\s*|\s+)"
                      r"(\w+)\s*\[\s*(\d{1,9})\s*\]"
                      r"(?:\s*,\s*(\w+)\s*\[\s*(\d{1,9})\s*\])?\s*")


class Gate(NamedTuple):
    """An immutable gate, equal to the tuple ``(kind, qubits)``."""

    kind: str
    qubits: tuple

    @property
    def is_two_qubit(self):
        return len(self.qubits) == 2

    @property
    def control(self):
        return self.qubits[0] if self.is_two_qubit else None

    @property
    def target(self):
        return self.qubits[-1]


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple


def parse_qasm(source: str) -> Circuit:
    text = _COMMENT_RE.sub("", "\n".join(source.splitlines()))
    *pieces, tail = text.split(";")
    doc = _Document()
    qreg, gates, new = doc.qregs.get, doc.gates, tuple.__new__
    line, counted, pos = 1, 0, 0  # line holds at offset counted
    for piece in pieces:
        start, pos = pos, pos + len(piece) + 1
        m = _GATE_RE.fullmatch(piece)
        if m:
            kind, ra, ia, rb, ib = m.groups()
            a, i = qreg(ra), int(ia)
            if a and i < a[1]:
                if not rb:
                    if kind in SINGLE_QUBIT_GATES:
                        gates.append(new(Gate, (kind, (a[0] + i,))))
                        continue
                elif kind in TWO_QUBIT_GATES:
                    b, j = qreg(rb), int(ib)
                    if b and j < b[1] and a[0] + i != b[0] + j:
                        gates.append(new(Gate, (kind, (a[0] + i, b[0] + j))))
                        continue
        stmt = piece.strip()
        if stmt:
            first = start + piece.index(stmt[0])
            line += text.count("\n", counted, first)
            counted = first
            doc.statement(stmt.replace("\n", " "), line)
    stmt = tail.strip().replace("\n", " ")
    if stmt:
        line = text.count("\n", 0, pos + tail.index(stmt[0])) + 1
        raise ParseError(f"unterminated statement '{stmt[:40]}'", line=line)
    return Circuit(doc.num_qubits, tuple(gates))


def read_qasm(path) -> Circuit:
    """Parse the UTF-8 QASM file at ``path``; a file that cannot be read as
    UTF-8 text (a directory, a missing file, other bytes) is a ParseError
    that names the path."""
    return parse_qasm(read_input(path, ParseError, f"cannot read {path}"))


class _Document:
    """The registers and gates of one document. ``parse_qasm`` appends a
    simple gate itself and hands every other statement, with its line, to
    ``statement``, so each error is raised in one place."""

    def __init__(self):
        self.qregs = {}  # name -> (offset, size)
        self.cregs = {}  # name -> size
        self.num_qubits = 0
        self.gates = []
        self.register_gates = 0  # gates of whole-register statements

    def resolve(self, operand, line):
        """The qubits a quantum operand names: all of a bare register, which
        may be no wider than any device (``MAX_QUBITS``)."""
        name, idx = _operand(operand, line)
        if name in self.cregs:
            raise ParseError(f"classical register '{name}' is not a gate "
                             "operand", line=line)
        if name not in self.qregs:
            raise ParseError(f"unknown register '{name}'", line=line)
        offset, size = self.qregs[name]
        if idx is None and size > MAX_QUBITS:
            raise ParseError(f"operand '{name}' names all {size} qubits of "
                             f"its register; no device has more than "
                             f"{MAX_QUBITS}", line=line)
        return [offset + k for k in _indices(name, idx, size, line)]

    def measure(self, rest, line):
        """Check ``qubits -> bits``: a quantum operand, a classical one, of
        the same width."""
        sides = rest.split("->")
        if len(sides) != 2:
            raise ParseError(f"malformed measure '{rest}'", line=line)
        qubits = self.resolve(sides[0], line)
        name, idx = _operand(sides[1], line)
        if name not in self.cregs:
            raise ParseError(f"measure target '{name}' is not a classical "
                             "register", line=line)
        bits = _indices(name, idx, self.cregs[name], line)
        # len() of a range wider than sys.maxsize overflows; this does not
        width = bits.stop - bits.start
        if width != len(qubits):
            raise ParseError(f"measure of {len(qubits)} qubits into "
                             f"{width} bits", line=line)

    def statement(self, stmt, line):
        """Read one statement, trimmed and without its ';' or comments,
        that starts on ``line``."""
        m = _STMT_RE.match(stmt)
        if not m:
            raise ParseError(f"cannot parse statement '{stmt[:40]}'", line=line)
        head, rest = m.group(1), m.group(3).strip()

        if head == "OPENQASM" or head == "include":
            return
        if head in ("qreg", "creg"):
            dm = re.match(r"^(\w+)\s*\[\s*(\d+)\s*\]$", rest)
            if not dm:
                raise ParseError(f"malformed {head} declaration '{rest}'", line=line)
            name = dm.group(1)
            size = _number(dm.group(2), f"size of {head} '{name}'", line)
            if name in self.qregs or name in self.cregs:
                raise ParseError(f"duplicate register '{name}'", line=line)
            if head == "qreg":
                self.qregs[name] = (self.num_qubits, size)
                self.num_qubits += size
            else:
                self.cregs[name] = size
            return
        if head == "measure":
            self.measure(rest, line)
            return
        if head == "gate" or head == "opaque":
            raise ParseError("gate definitions are not supported", line=line)
        if (head != "barrier" and head not in SINGLE_QUBIT_GATES
                and head not in TWO_QUBIT_GATES):
            raise UnsupportedGateError(head, line=line)

        operands = ([self.resolve(op, line) for op in rest.split(",")]
                    if rest else [])
        if head == "barrier":
            if not operands:
                raise ParseError("barrier needs at least one operand",
                                 line=line)
        elif head in SINGLE_QUBIT_GATES:
            if len(operands) != 1:
                raise ParseError(
                    f"gate '{head}' expects one operand, got {len(operands)}",
                    line=line,
                )
            if _operand(rest, line)[1] is None:
                self.register_gates += len(operands[0])
                if self.register_gates > MAX_REGISTER_GATES:
                    raise ParseError(
                        f"whole-register statements produce more than "
                        f"{MAX_REGISTER_GATES} gates", line=line)
            for q in operands[0]:
                self.gates.append(Gate(head, (q,)))
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
            self.gates.append(Gate(head, (a, b)))


def _operand(operand, line):
    """(name, index or None) of ``reg`` or ``reg[i]``."""
    m = _OPERAND_RE.match(operand.strip())
    if not m:
        raise ParseError(f"cannot parse operand '{operand}'", line=line)
    return m.group(1), m.group(2)


def _indices(name, idx, size, line):
    """The range of indices ``name[idx]`` selects in a register of
    ``size``; every index when ``idx`` is None."""
    if idx is None:
        return range(size)
    idx = _number(idx, f"index into '{name}[{size}]'", line)
    if idx >= size:
        raise ParseError(
            f"index {idx} out of range for register '{name}[{size}]'", line=line
        )
    return range(idx, idx + 1)


def _number(digits, what, line):
    """The int a run of digits spells. One longer than ``int`` converts
    (``sys.get_int_max_str_digits``) is a ParseError that names ``what``:
    no register can be that large, so neither can an index into one."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"{what} has {len(digits)} digits; no register is "
                         "that large", line=line) from None


def check_qubit_count(num_qubits, limit, what):
    """Reject a circuit with more qubits than ``limit`` before anything
    n x n is allocated for it."""
    if num_qubits > limit:
        raise TooManyQubitsError(
            f"circuit has {num_qubits} qubits, more than {what} = {limit}"
        )


@dataclass(frozen=True)
class ProgramGraph:
    """Directed multigraph of logical-qubit interactions with node features.

    ``edges`` keeps one entry per two-qubit gate occurrence; multiplicity is
    implicit in the repetition. Every edge is a pair of qubits in
    0..n-1; a pair on one qubit twice (a self-pair) is accepted and costs
    nothing in either cost mode.
    """

    num_logical: int
    edges: tuple
    node_features: np.ndarray = field(compare=False)

    def __post_init__(self):
        n = self.num_logical
        if n < 1:
            raise EmptyCircuitError("circuit has no qubits")
        feats = np.asarray(self.node_features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != n:
            raise ShapeError(
                f"need one feature row per node for {n} nodes", feats.shape)
        object.__setattr__(self, "node_features", feats)
        object.__setattr__(self, "edges",
                           tuple([_checked_edge(e, n) for e in self.edges]))

    @property
    def num_edges(self):
        return len(self.edges)

    @cached_property
    def gate_pairs(self):
        """Read-only (2, m) int64 array of the qubits of the m gates on two
        distinct qubits, in gate order, which every SWAP cost and the
        encoder's adjacency read; a self-pair needs no SWAP on any seat."""
        pairs = np.array([[a for a, b in self.edges if a != b],
                          [b for a, b in self.edges if a != b]], np.int64)
        pairs.flags.writeable = False
        return pairs


def _checked_edge(edge, n):
    """``edge`` as a pair of Python ints in 0..n-1."""
    try:
        a, b = edge
    except (TypeError, ValueError):
        a = b = None
    if type(a) is int and type(b) is int and 0 <= a < n and 0 <= b < n:
        return a, b
    if not all(isinstance(q, numbers.Integral) and not isinstance(q, bool)
               and 0 <= q < n for q in (a, b)):
        raise ConstraintViolationError(
            f"edge {edge!r} is not a pair of qubits in 0..{n - 1}")
    return int(a), int(b)


def onehot_features(n, n_max=None):
    n_max = n if n_max is None else n_max
    check_qubit_count(n, n_max, "the feature width n_max")
    return np.eye(n, n_max)


def build_program_graph(c: Circuit, n_max=None):
    """One directed edge (control -> target) per two-qubit gate occurrence;
    one-hot node features padded to ``n_max``."""
    edges = tuple(q for _, q in c.gates if len(q) == 2)
    feats = onehot_features(c.num_qubits, n_max)
    return ProgramGraph(c.num_qubits, edges, feats)


@dataclass(frozen=True)
class FeatureVector:
    mu_s: float
    mu_c: float
    mu_t: float
    influence: float
    pagerank: float
    causal_cone: float

    def as_array(self):
        return np.array(
            [self.mu_s, self.mu_c, self.mu_t, self.influence, self.pagerank,
             self.causal_cone]
        )


def _pagerank(adj_counts, damping=0.85, tol=1e-9, max_iter=200):
    """Power iteration on the row-normalized adjacency; dangling rows
    redistribute uniformly."""
    n = adj_counts.shape[0]
    out_deg = adj_counts.sum(axis=1)
    dangling = out_deg == 0
    trans = np.zeros_like(adj_counts, dtype=np.float64)
    nz = ~dangling
    trans[nz] = adj_counts[nz] / out_deg[nz, None]
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        x, last = (1 - damping) / n + damping * (
            trans.T @ x + x[dangling].sum() / n), x
        if np.abs(x - last).sum() < tol:
            break
    return x


def extract_features(c: Circuit, walk_radius: int = 4):
    """Engineered structural node features for every qubit."""
    check_integer("walk_radius", walk_radius, 0)
    n = c.num_qubits
    if n < 1:
        raise EmptyCircuitError("circuit has no qubits")
    check_qubit_count(n, FEATURE_QUBIT_LIMIT, "the feature bound")
    eta = len(c.gates)
    if eta == 0:
        raise EmptyCircuitError("circuit has no gates")

    two_qubit_gates = [g.qubits for g in c.gates if g.is_two_qubit]
    singles = np.bincount([g.qubits[0] for g in c.gates
                           if not g.is_two_qubit], minlength=n)
    adj_counts = np.zeros((n, n))
    for control, target in two_qubit_gates:
        adj_counts[control, target] += 1
    controls, targets = adj_counts.sum(axis=1), adj_counts.sum(axis=0)

    pr = _pagerank(adj_counts)

    # undirected interaction adjacency for the bounded-radius reachability score
    und = adj_counts + adj_counts.T > 0

    def influence(j):
        reached = frontier = {j}
        for _ in range(walk_radius):
            frontier = {int(v) for u in frontier
                        for v in np.nonzero(und[u])[0]} - reached
            if not frontier:
                break
            reached = reached | frontier
        return (len(reached) - 1) / (n - 1) if n > 1 else 0.0

    def causal_cone(j):
        cone = {j}
        for a, b in two_qubit_gates:
            if a in cone or b in cone:
                cone.update((a, b))
        return len(cone) / n

    return [
        FeatureVector(
            mu_s=singles[j] / eta,
            mu_c=controls[j] / eta,
            mu_t=targets[j] / eta,
            influence=influence(j),
            pagerank=float(pr[j]),
            causal_cone=causal_cone(j),
        )
        for j in range(n)
    ]
