"""Hamiltonians and their time evolution.

A Hamiltonian is an ordered sum of Hermitian terms: few-qubit operators and
diagonals over the whole register.  Evolution under ``e^{-iHt}`` is realized
two ways: exactly (dense eigendecomposition, for verification at small
sizes) and by the first-order product formula

    U(t) ~ (prod_i e^{-i H_i t/r})^r,

whose leading error is governed by the pairwise term commutators and falls
off as 1/r.  Term application order is the list order, fixed at construction.
"""

from __future__ import annotations

import numpy as np

from . import oracle
from . import qft
from . import statevector as sv

#: Largest support a single term may have (dense term exponentials stay 64x64).
MAX_TERM_QUBITS = 6


class LocalTerm:
    """A Hermitian operator on at most 6 qubits.

    ``support[0]`` is the least significant bit of the term matrix's index,
    consistent with gate application.  ``spectrum``, its read-only
    ``SpectralDecomposition``, is solved here once, and a non-finite one refused.
    """

    __slots__ = ("support", "matrix", "spectrum")

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
        self.spectrum = oracle.SpectralDecomposition(*np.linalg.eigh(mat))
        for array in self.spectrum._values():
            array.setflags(write=False)
        if not np.isfinite(self.spectrum.norm_bound()):
            raise ValueError("term spectrum is not finite: an eigenvalue overflows")
        self.support = support
        self.matrix = mat

    def __repr__(self) -> str:
        return f"LocalTerm(support={list(self.support)})"


class DiagonalTerm(sv._Record):
    """A term on the whole register, diag(E) for real ``energies`` (a read-only
    copy, one per basis state) or, with ``momentum``, F^dag diag(E) F for the
    forward QFT's matrix F.  Its ``support`` is empty."""

    __slots__ = ("energies", "momentum")
    support = ()

    def __init__(self, energies, momentum: bool = False) -> None:
        super().__init__(np.array(energies, dtype=np.float64), momentum)
        self.energies.setflags(write=False)


class HamiltonianSum:
    """Ordered sum of ``LocalTerm`` and ``DiagonalTerm`` terms over
    ``num_qubits`` qubits: the one evolution source type.

    Its interface: ``num_qubits``; ``norm_bound()``; ``dense_hamiltonian()``;
    ``step_matrix(dt)``, one step as a dense matrix; ``apply_step(state, dt,
    system_qubits, controls)``, one step at gate level, optionally
    controlled; and ``system_step(dt, slices)``, ``slices`` steps as a map
    on 2^l system vectors and on (2^l, K) blocks of system columns.  One
    step is the Trotter slice prod_i e^{-i H_i dt} in term order.  Its
    factors, a gate per local term and the phases e^{-iE dt} per diagonal
    term, are built once per ``dt`` and kept for the latest ``dt`` alone: a
    run steps at one ``dt``, a slice sweep at each of its ``dt`` once.
    ``system_step`` is the one slice loop, over local terms only; called
    with no block it returns the dense matrix, which is how ``step_matrix``
    builds one slice.  :class:`~spectral_qpe.problems.GridRecipe`, one
    diagonal term of each kind, overrides both with its dense split step.
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
        self._gate_cache: tuple[float | None, list] = (None, [])  # (dt, its slice factors)
        if not np.isfinite(self.norm_bound()):
            raise ValueError("norm bound is not finite: the terms' eigenvalues overflow")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_qubits={self.num_qubits}, terms={len(self.terms)})"

    def _gates(self, dt: float) -> list[tuple[list[int], sv.GateMatrix | np.ndarray]]:
        if self._gate_cache[0] != dt:
            self._gate_cache = (dt, slice_gates(self, dt))
        return self._gate_cache[1]

    def norm_bound(self) -> float:
        """Cheap upper bound on ||H||: each term's largest |eigenvalue|, or
        max|E| for a diagonal term, summed as Python floats."""
        return sum(term.spectrum.norm_bound() if term.support
                   else float(np.abs(term.energies).max()) for term in self.terms)

    def dense_hamiltonian(self) -> np.ndarray:
        """H over the full 2^l system space (the oracle's dense assembly)."""
        return oracle.assemble_dense(self)

    def step_matrix(self, dt: float) -> np.ndarray:
        """The slice loop on the columns of the identity (2^k 4^l a term, not 8^l)."""
        return self.system_step(dt, 1)()

    def apply_step(
        self, state: sv.StateVector, dt: float, system_qubits=None, controls=()
    ) -> sv.StateVector:
        """Each factor in term order: a gate on its support, a diagonal
        phase on the register, or a momentum phase between QFTs."""
        qubits = list(range(self.num_qubits)) if system_qubits is None else list(system_qubits)
        if len(qubits) != self.num_qubits:
            raise ValueError(f"Hamiltonian spans {self.num_qubits} qubits, got register of {len(qubits)}")
        for term, (targets, factor) in zip(self.terms, self._gates(dt)):
            if targets:
                state = sv.apply_controlled_gate(state, factor, controls, [qubits[q] for q in targets])
            elif term.momentum:
                state = qft.qft_forward(state, qubits, controls)
                state = sv.apply_diagonal_phase(state, qubits, factor, controls)
                state = qft.qft_inverse(state, qubits, controls)
            else:
                state = sv.apply_diagonal_phase(state, qubits, factor, controls)
        return state

    def system_step(self, dt: float, slices: int):
        """One gate at a time (no dense product), over local terms.  Gates
        are permuted onto ascending targets once per call: each entry then
        adds its terms in ascending basis order, as a dense embedded product
        does."""
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


def term_exponential(term: LocalTerm | DiagonalTerm, dt: float) -> sv.GateMatrix | np.ndarray:
    """e^{-i * H_term * dt}: a gate from a local term's eigendecomposition,
    the phase vector e^{-iE dt} of a diagonal term."""
    return (unitary_from_decomposition(term.spectrum, dt) if term.support
            else np.exp(-1j * term.energies * dt))


def slice_gates(h: HamiltonianSum, dt: float) -> list[tuple[list[int], sv.GateMatrix | np.ndarray]]:
    """One Trotter slice as (term support, factor) pairs, in term order."""
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
