"""Local Hamiltonians and their time evolution.

A Hamiltonian is an ordered sum of few-qubit Hermitian terms.  Evolution
under ``e^{-iHt}`` is realized two ways: exactly (dense eigendecomposition,
for verification at small sizes) and by the first-order product formula

    U(t) ~ (prod_i e^{-i H_i t/r})^r,

whose leading error is governed by the pairwise term commutators and falls
off as 1/r.  Term application order is the list order, fixed at construction.
"""

from __future__ import annotations

import numpy as np

from . import oracle
from . import statevector as sv

#: Largest support a single term may have (dense term exponentials stay 64x64).
MAX_TERM_QUBITS = 6


class LocalTerm:
    """A Hermitian operator on at most 6 qubits.

    ``support[0]`` is the least significant bit of the term matrix's index,
    consistent with gate application.
    """

    __slots__ = ("support", "matrix")

    def __init__(self, support, matrix) -> None:
        support = tuple(support)
        if not 1 <= len(support) <= MAX_TERM_QUBITS:
            raise ValueError(
                f"term support must have 1..{MAX_TERM_QUBITS} qubits, got {len(support)}"
            )
        if len(set(support)) != len(support):
            raise ValueError(f"duplicate qubits in term support: {list(support)}")
        mat = np.array(matrix, dtype=np.complex128)
        k = len(support)
        if mat.shape != (2**k, 2**k):
            raise ValueError(
                f"term matrix shape {mat.shape} does not match support size {k}"
            )
        oracle.check_hermitian(mat, "term", "H")
        mat.setflags(write=False)
        self.support = support
        self.matrix = mat

    def __repr__(self) -> str:
        return f"LocalTerm(support={list(self.support)})"


class HamiltonianSum:
    """Ordered sum of local terms over ``num_qubits`` qubits.

    Besides its terms it is an evolution source, with the interface that
    :class:`~spectral_qpe.problems.GridRecipe` shares: ``num_qubits``,
    ``norm_bound()``, ``dense_hamiltonian()``, ``step_matrix(dt)``,
    ``apply_step(state, dt, system_qubits, controls)`` (one step, optionally
    controlled) and ``system_step(dt, slices)`` (``slices`` steps as a map on
    2^l system vectors and on (2^l, K) blocks of system columns).  Its map is
    the one slice loop; called with no block, a form of its own that
    ``GridRecipe``'s map lacks, it runs on the identity and returns the dense
    matrix, which is how ``step_matrix`` builds one slice.  One step is the
    Trotter slice prod_i e^{-i H_i dt} in term order; its gates are built
    once per ``dt`` and kept for the latest ``dt`` alone: a run steps at one
    ``dt``, and a slice sweep takes each of its ``dt`` once.
    """

    __slots__ = ("terms", "num_qubits", "_gate_cache")

    def __init__(self, terms, num_qubits: int) -> None:
        terms = tuple(terms)
        if num_qubits < 1:
            raise ValueError(f"system needs at least 1 qubit, got {num_qubits}")
        if not terms:
            raise ValueError("Hamiltonian needs at least one term")
        for term in terms:
            bad = [q for q in term.support if not 0 <= q < num_qubits]
            if bad:
                raise ValueError(
                    f"term support qubit {bad[0]} out of range for a "
                    f"{num_qubits}-qubit system"
                )
        self.terms = terms
        self.num_qubits = num_qubits
        self._gate_cache: tuple[float | None, list] = (None, [])  # (dt, its slice gates)

    def __repr__(self) -> str:
        return f"HamiltonianSum(num_qubits={self.num_qubits}, terms={len(self.terms)})"

    def _gates(self, dt: float) -> list[tuple[list[int], sv.GateMatrix]]:
        if self._gate_cache[0] != dt:
            self._gate_cache = (dt, slice_gates(self, dt))
        return self._gate_cache[1]

    def norm_bound(self) -> float:
        """Cheap upper bound on ||H||: the sum of the terms' spectral norms.

        A Hermitian term's spectral norm is its largest |eigenvalue|, taken
        from ``eigvalsh`` (on the real part when the term is real), not from
        an SVD.
        """
        total = 0.0
        for term in self.terms:
            matrix = term.matrix if term.matrix.imag.any() else term.matrix.real
            total += float(np.abs(np.linalg.eigvalsh(matrix)).max())
        return total

    def dense_hamiltonian(self) -> np.ndarray:
        """H over the full 2^l system space (the oracle's dense assembly)."""
        return oracle.assemble_dense(self)

    def step_matrix(self, dt: float) -> np.ndarray:
        """One Trotter slice as a dense matrix: the slice on the columns of
        the identity (2^k 4^l a term, not 8^l)."""
        return self.system_step(dt, 1)()

    def apply_step(
        self, state: sv.StateVector, dt: float, system_qubits=None, controls=()
    ) -> sv.StateVector:
        """Apply one slice to the given register (optionally controlled)."""
        qubits = sv._system_register(system_qubits, self.num_qubits, "Hamiltonian")
        for targets, gate in self._gates(dt):
            state = sv.apply_controlled_gate(
                state, gate, controls, [qubits[q] for q in targets]
            )
        return state

    def system_step(self, dt: float, slices: int):
        """``slices`` slices as a map on 2^l system vectors or (2^l, K)
        blocks of system columns, one gate at a time (no dense product);
        called with no block it returns the slices' dense matrix.
        Gates are permuted onto ascending targets once per call: each entry
        then adds its terms in ascending basis order, as a dense embedded
        product does."""
        gates = []
        for targets, gate in self._gates(dt):
            ordered = sorted(targets)
            positions = [ordered.index(t) for t in targets]
            gates.append((ordered, oracle.embed_operator(gate.matrix, positions, len(targets))))

        def apply(block=None):
            # no block: the identity, built here so that no caller's frame
            # keeps it alive past the first gate (three matrices at peak)
            if block is None:
                block = np.eye(2**self.num_qubits, dtype=np.complex128)
            for _ in range(slices):
                for targets, matrix in gates:
                    block = sv._apply_matrix(block, self.num_qubits, matrix, targets)
            return block

        return apply


def term_exponential(term: LocalTerm, dt: float) -> sv.GateMatrix:
    """e^{-i * H_term * dt} via Hermitian eigendecomposition of the term."""
    decomposition = oracle.SpectralDecomposition(*np.linalg.eigh(term.matrix))
    return unitary_from_decomposition(decomposition, dt)


def slice_gates(h: HamiltonianSum, dt: float) -> list[tuple[list[int], sv.GateMatrix]]:
    """One Trotter slice as (term support, gate) pairs, in term order."""
    return [(list(term.support), term_exponential(term, dt)) for term in h.terms]


def exact_unitary(h: HamiltonianSum, t: float) -> sv.GateMatrix:
    """Dense e^{-iHt} over the full system space (reference route, l <= 12)."""
    return unitary_from_decomposition(oracle.eigendecompose(oracle.assemble_dense(h)), t)


def unitary_from_decomposition(
    decomposition: oracle.SpectralDecomposition, t: float
) -> sv.GateMatrix:
    """e^{-iHt} = V (diag(e^{-i lambda t}) V^dag) from H's spectral
    decomposition; for a real V the weighted V^dag is the only matrix built
    besides U, and it is freed before U is copied and checked by slabs."""
    phases = decomposition.evolution_phases(t)[:, None]
    return sv.GateMatrix(decomposition.from_eigenbasis(
        np.multiply(decomposition.eigenvectors.conj().T, phases, order="C")))
