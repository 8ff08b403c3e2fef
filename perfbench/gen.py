"""Seeded OpenQASM 2.0 circuit generator.

Everything here is plain Python (``random.Random`` seeded from a string),
so the same seed gives byte-identical QASM on every machine and the
generator does not depend on the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ONE_QUBIT = ("h", "x", "sx", "t", "s")
ONE_QUBIT_PARAM = ("rz", "ry")
TWO_QUBIT = ("cx", "cx", "cx", "cz", "swap")


@dataclass(frozen=True)
class GenCircuit:
    """QASM text plus the two-qubit gate list the oracle scores against."""

    num_qubits: int
    qasm: str
    pairs: tuple  # (control, target) per two-qubit gate, in program order


def make_rng(workload, seed, stream):
    return random.Random(f"{workload}:{seed}:{stream}")


PAIRING_STRIDE = 37  # prime, so coprime to every set size used


def spread(count, lo, hi):
    """``count`` integers spread evenly over [lo, hi], in ascending order."""
    span = hi - lo + 1
    return [lo + (i * span) // count for i in range(count)]


def stratified(rng, count, lo, hi):
    """``count`` integers spread evenly over [lo, hi], in shuffled order.

    Stratifying the sizes keeps per-run size mixes alike across seeds, so
    the seed changes the circuits without moving the latency percentiles.
    """
    values = spread(count, lo, hi)
    rng.shuffle(values)
    return values


def random_circuit(rng, n, two_qubit_gates, locality=0.6):
    """A circuit on ``n`` qubits with exactly ``two_qubit_gates`` two-qubit
    gates, interleaved with single-qubit gates.

    With probability ``locality`` a gate's partner is within three indices
    of its first qubit, so circuits have the banded structure of real
    programs as well as long-range interactions.
    """
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";',
             f"qreg q[{n}];", f"creg c[{n}];"]
    pairs = []
    for _ in range(two_qubit_gates):
        if rng.random() < 0.5:
            q = rng.randrange(n)
            if rng.random() < 0.5:
                lines.append(f"{rng.choice(ONE_QUBIT)} q[{q}];")
            else:
                theta = rng.uniform(-3.14159, 3.14159)
                lines.append(f"{rng.choice(ONE_QUBIT_PARAM)}({theta:.6f}) q[{q}];")
        a = rng.randrange(n)
        if rng.random() < locality:
            b = min(n - 1, max(0, a + rng.choice((-3, -2, -1, 1, 2, 3))))
            if b == a:
                b = a + 1 if a + 1 < n else a - 1
        else:
            b = rng.randrange(n - 1)
            if b >= a:
                b += 1
        lines.append(f"{rng.choice(TWO_QUBIT)} q[{a}],q[{b}];")
        pairs.append((a, b))
    lines.append("barrier q;")
    lines.append("measure q -> c;")
    return GenCircuit(n, "\n".join(lines) + "\n", tuple(pairs))


def erdos_renyi_circuit(rng, n, edge_prob):
    """A circuit whose interaction graph follows the training distribution
    of ``qlayout.training.gen_random_instance``: each unordered pair
    interacts once with probability ``edge_prob``, in a random direction."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                a, b = (i, j) if rng.random() < 0.5 else (j, i)
                lines.append(f"cx q[{a}],q[{b}];")
                pairs.append((a, b))
    return GenCircuit(n, "\n".join(lines) + "\n", tuple(pairs))


def circuit_set(workload, seed, count, qubits, factor):
    """``count`` circuits with qubit counts stratified over ``qubits`` and
    two-qubit gate counts of ``n * f`` with f stratified over ``factor``.

    Qubit counts and factors are paired by a fixed stride rather than at
    random, so every seed gets the same (n, f) pairs, in its own order:
    the seed moves the gates, not the size mix the percentiles rest on.
    """
    rng = make_rng(workload, seed, "circuits")
    ns = spread(count, *qubits)
    fs = spread(count, *factor)
    sizes = [(ns[i], fs[(i * PAIRING_STRIDE) % count]) for i in range(count)]
    rng.shuffle(sizes)
    return [random_circuit(rng, n, n * f) for n, f in sizes]


def er_set(workload, seed, count, qubits, edge_prob):
    rng = make_rng(workload, seed, "heldout")
    ns = stratified(rng, count, *qubits)
    return [erdos_renyi_circuit(rng, n, edge_prob) for n in ns]
