"""A fixed job that ``run.py`` times next to every CLI process.

Usage: python3 bench/reference_job.py

It uses no code of the package: it starts the interpreter, imports numpy and
does a fixed mix of the kinds of work a CLI run does (strided passes over a
complex state vector, a few small dense ``eigh``, a pure-Python loop), then
exits.  Its wall and CPU time follow the speed the shared host gives the
benchmark at that moment, and nothing a change to the package does can move
them, so a CLI time divided by the reference time around it cancels most of
the host's drift.
"""

from __future__ import annotations

import numpy as np

QUBITS = 14
GATE_PASSES = 500
EIGH_SIZE = 256
EIGH_REPEATS = 5
LOOP_STEPS = 600_000


def main() -> float:
    rng = np.random.default_rng(20240601)
    state = rng.standard_normal(1 << QUBITS) + 1j * rng.standard_normal(1 << QUBITS)
    state /= np.linalg.norm(state)
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    for step in range(GATE_PASSES):
        qubit = step % QUBITS
        view = state.reshape(1 << (QUBITS - 1 - qubit), 2, 1 << qubit)
        state = np.einsum("ab,ibj->iaj", hadamard, view).reshape(-1)
    values = np.zeros(EIGH_SIZE)
    for _ in range(EIGH_REPEATS):
        matrix = rng.standard_normal((EIGH_SIZE, EIGH_SIZE))
        values += np.linalg.eigh(matrix + matrix.T)[0]
    total = 0
    for i in range(LOOP_STEPS):
        total += (i * i) % 7
    return float(abs(state[0]) + values[0] + total)


if __name__ == "__main__":
    main()
