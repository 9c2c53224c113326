"""Local Hamiltonians and their time evolution.

A Hamiltonian is an ordered sum of few-qubit Hermitian terms.  Evolution
under ``e^{-iHt}`` is realized two ways: exactly (dense eigendecomposition,
for verification at small sizes) and by the first-order product formula

    U(t) ~ (prod_i e^{-i H_i t/r})^r,

whose leading error is governed by the pairwise term commutators and falls
off as 1/r.  Term application order is the list order, fixed at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from . import statevector as sv

#: Largest support a single term may have (dense term exponentials stay 64x64).
MAX_TERM_QUBITS = 6
#: Tolerance on max|H - H^dag| for term matrices.
HERMITICITY_TOL = 1e-10


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
        scale = max(1.0, float(np.abs(mat).max()))
        defect = float(np.abs(mat - mat.conj().T).max())
        if not (defect <= HERMITICITY_TOL * scale):  # NaN fails closed
            raise ValueError(f"term is not Hermitian: max|H - H^dag| = {defect:.3e}")
        mat.setflags(write=False)
        self.support = support
        self.matrix = mat

    def __repr__(self) -> str:
        return f"LocalTerm(support={list(self.support)})"


class HamiltonianSum:
    """Ordered sum of local terms over ``num_system_qubits`` qubits."""

    __slots__ = ("terms", "num_system_qubits")

    def __init__(self, terms, num_system_qubits: int) -> None:
        terms = tuple(terms)
        if num_system_qubits < 1:
            raise ValueError(f"system needs at least 1 qubit, got {num_system_qubits}")
        if not terms:
            raise ValueError("Hamiltonian needs at least one term")
        for term in terms:
            bad = [q for q in term.support if not 0 <= q < num_system_qubits]
            if bad:
                raise ValueError(
                    f"term support qubit {bad[0]} out of range for a "
                    f"{num_system_qubits}-qubit system"
                )
        self.terms = terms
        self.num_system_qubits = num_system_qubits

    def __repr__(self) -> str:
        return (
            f"HamiltonianSum(num_system_qubits={self.num_system_qubits}, "
            f"terms={len(self.terms)})"
        )


@dataclass(frozen=True)
class EvolutionParams:
    """Evolution time, Trotter slice count, and target accuracy (hbar = 1)."""

    time: float
    slices: int = 1
    accuracy: float = 1e-3

    def __post_init__(self) -> None:
        if self.slices < 1:
            raise ValueError(f"slice count must be >= 1, got {self.slices}")
        if not self.accuracy > 0:
            raise ValueError(f"accuracy must be > 0, got {self.accuracy}")


def term_exponential(term: LocalTerm, dt: float) -> sv.GateMatrix:
    """e^{-i * H_term * dt} via Hermitian eigendecomposition of the term."""
    eigenvalues, vectors = np.linalg.eigh(term.matrix)
    phases = np.exp(-1j * eigenvalues * dt)
    return sv.GateMatrix((vectors * phases) @ vectors.conj().T)


def slice_gates(
    h: HamiltonianSum, dt: float, layout: sv.RegisterLayout | None = None
) -> list[tuple[list[int], sv.GateMatrix]]:
    """One Trotter slice as (system-register targets, gate) pairs, in term order.

    Building blocks for anything that applies slices itself (e.g. controlled
    evolution); targets are already offset to the layout's system register,
    or are the terms' own supports when no layout is given.
    """
    offset = layout.m_index if layout is not None else 0
    return [
        ([q + offset for q in term.support], term_exponential(term, dt))
        for term in h.terms
    ]


def slice_matrix(h: HamiltonianSum, dt: float) -> np.ndarray:
    """Dense matrix of one Trotter slice, composed from :func:`slice_gates`."""
    step = np.eye(2**h.num_system_qubits, dtype=np.complex128)
    for targets, gate in slice_gates(h, dt):
        step = oracle.embed_operator(gate.matrix, targets, h.num_system_qubits) @ step
    return step


def norm_bound(h: HamiltonianSum) -> float:
    """Cheap upper bound on ||H||: the sum of the terms' spectral norms."""
    return float(sum(np.linalg.norm(term.matrix, 2) for term in h.terms))


def _check_layout(state: sv.StateVector, h: HamiltonianSum, layout: sv.RegisterLayout) -> None:
    if h.num_system_qubits != layout.l_system:
        raise ValueError(
            f"Hamiltonian spans {h.num_system_qubits} qubits but the layout's "
            f"system register has {layout.l_system}"
        )
    if state.num_qubits != layout.total_qubits:
        raise ValueError(
            f"state has {state.num_qubits} qubits but the layout spans "
            f"{layout.total_qubits}"
        )


def trotter_step(
    state: sv.StateVector, h: HamiltonianSum, dt: float, layout: sv.RegisterLayout
) -> sv.StateVector:
    """Apply one slice prod_i e^{-i H_i dt} to the system register."""
    _check_layout(state, h, layout)
    for targets, gate in slice_gates(h, dt, layout):
        state = sv.apply_gate(state, gate, targets)
    return state


def trotter_evolve(
    state: sv.StateVector,
    h: HamiltonianSum,
    params: EvolutionParams,
    layout: sv.RegisterLayout,
) -> sv.StateVector:
    """Apply r slices with dt = t/r (gates built once and reused)."""
    _check_layout(state, h, layout)
    dt = params.time / params.slices
    gates = slice_gates(h, dt, layout)
    for _ in range(params.slices):
        for targets, gate in gates:
            state = sv.apply_gate(state, gate, targets)
    return state


def exact_unitary(h: HamiltonianSum, t: float) -> sv.GateMatrix:
    """Dense e^{-iHt} over the full system space (reference route, l <= 12)."""
    return unitary_from_decomposition(oracle.eigendecompose(oracle.assemble_dense(h)), t)


def unitary_from_decomposition(
    decomposition: oracle.SpectralDecomposition, t: float
) -> sv.GateMatrix:
    """e^{-iHt} = V diag(e^{-i lambda t}) V^dag from H's spectral decomposition."""
    phases = np.exp(-1j * decomposition.eigenvalues * t)
    vectors = decomposition.eigenvectors
    return sv.GateMatrix((vectors * phases) @ vectors.conj().T)


def _commutator_max_norm(a: LocalTerm, b: LocalTerm) -> float:
    """max|[A, B]| with both terms embedded on the union of their supports."""
    union = sorted(set(a.support) | set(b.support))
    positions = {q: i for i, q in enumerate(union)}
    full_a = oracle.embed_operator(a.matrix, [positions[q] for q in a.support], len(union))
    full_b = oracle.embed_operator(b.matrix, [positions[q] for q in b.support], len(union))
    return float(np.abs(full_a @ full_b - full_b @ full_a).max())


def slices_for_accuracy(h: HamiltonianSum, t: float, accuracy: float) -> int:
    """Slice count from the commutator bound; an upper-bound heuristic.

    Uses r >= (sum_{i>j} max|[H_i, H_j]|) * t^2 / (2 * accuracy), the leading
    first-order splitting error.  Commuting Hamiltonians need only one slice.
    """
    if not accuracy > 0:
        raise ValueError(f"accuracy must be > 0, got {accuracy}")
    total = 0.0
    for i in range(len(h.terms)):
        for j in range(i):
            total += _commutator_max_norm(h.terms[i], h.terms[j])
    return max(1, math.ceil(total * t * t / (2.0 * accuracy)))
