"""Dense brute-force spectral reference engine.

Everything here is classical ground truth: dense assembly of a local
Hamiltonian, full Hermitian eigendecomposition, and the spectral overlap /
phase data that the closed-form measurement distribution consumes.  Exact
evolution runs in the eigenbasis computed here; tests and the
``oracle-check`` CLI command use the same data to cross-check the quantum
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractViolation
from .statevector import UNITARY_TOL

if TYPE_CHECKING:
    from .hamiltonian import HamiltonianSum
    from .statevector import StateVector

#: Largest system the dense route will materialize (4096 x 4096 matrices).
MAX_DENSE_QUBITS = 12
#: Absolute Hermiticity tolerance on max|A - A^dag| (scaled by max(1, |A|_max)).
HERMITICITY_TOL = 1e-10
#: Eigenvalues closer than this (times |A|_max) are treated as one eigenspace.
DEGENERACY_TOL = 1e-8


def embed_operator(matrix, targets, num_qubits: int) -> np.ndarray:
    """Dense 2^n x 2^n embedding of a k-qubit operator on ``targets``.

    ``targets[0]`` is the least significant bit of the operator's own index,
    matching the gate-application convention of the simulator core.  Built by
    index arithmetic (scatter of the operator entries over all basis pairs),
    deliberately not sharing code with the tensor-contraction kernel it is
    used to verify.
    """
    mat = np.asarray(matrix, dtype=np.complex128)
    targets = list(targets)
    k = len(targets)
    if mat.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {mat.shape} does not match {k} target qubits")
    if len(set(targets)) != k:
        raise ValueError(f"duplicate target qubits: {targets}")
    for t in targets:
        if not 0 <= t < num_qubits:
            raise ValueError(f"target qubit {t} out of range for {num_qubits} qubits")
    dim = 2**num_qubits
    target_mask = 0
    for t in targets:
        target_mask |= 1 << t
    idx = np.arange(dim)
    base = idx[(idx & target_mask) == 0]
    # scatter[g] places the k-bit local value g onto the target bit positions
    scatter = [
        sum(((g >> s) & 1) << targets[s] for s in range(k)) for g in range(2**k)
    ]
    full = np.zeros((dim, dim), dtype=np.complex128)
    for g_row in range(2**k):
        rows = base + scatter[g_row]
        for g_col in range(2**k):
            full[rows, base + scatter[g_col]] = mat[g_row, g_col]
    return full


def assemble_dense(h: HamiltonianSum) -> np.ndarray:
    """Sum of all term embeddings over the full 2^l system space."""
    l = h.num_qubits
    if l > MAX_DENSE_QUBITS:
        raise ValueError(
            f"dense assembly is capped at {MAX_DENSE_QUBITS} qubits, got {l}"
        )
    full = np.zeros((2**l, 2**l), dtype=np.complex128)
    for term in h.terms:
        full += embed_operator(term.matrix, term.support, l)
    return full


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in ascending order; eigenvectors as orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def num_qubits(self) -> int:
        """l for a 2^l-dimensional space; anything else is refused."""
        qubits = self.dim.bit_length() - 1
        if self.dim < 2 or 2**qubits != self.dim:
            raise ValueError(f"dimension {self.dim} is not a power of two >= 2")
        return qubits

    def norm_bound(self) -> float:
        """||H|| itself: the largest |eigenvalue|."""
        return float(np.abs(self.eigenvalues).max())


def eigendecompose(matrix) -> SpectralDecomposition:
    """Full decomposition of a dense Hermitian matrix, eigenvalues ascending.

    A matrix whose imaginary part is exactly zero is real symmetric; it is
    solved by the real solver, several times faster, and its eigenvectors
    come back as float64.  The eigenvectors are checked orthonormal once,
    max|V^dag V - I| <= ``UNITARY_TOL`` (NaN fails closed), the gate
    tolerance: every e^{-iHt} built from them, in closed form or densely, is
    then unitary to it.  A failed check raises ``ContractViolation``.
    """
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] > 2**MAX_DENSE_QUBITS:
        raise ValueError(
            f"matrix of dimension {mat.shape[0]} exceeds the dense cap "
            f"of {2**MAX_DENSE_QUBITS}"
        )
    scale = max(1.0, float(np.abs(mat).max()))
    defect = float(np.abs(mat - mat.conj().T).max())
    if not (defect <= HERMITICITY_TOL * scale):  # NaN fails closed
        raise ValueError(f"matrix is not Hermitian: max|A - A^dag| = {defect:.3e}")
    if mat.imag.any():
        eigenvalues, eigenvectors = np.linalg.eigh(mat)
    else:
        eigenvalues, eigenvectors = np.linalg.eigh(mat.real)
    gram = eigenvectors.conj().T @ eigenvectors
    defect = float(np.abs(gram - np.eye(len(gram))).max())
    if not (defect <= UNITARY_TOL):  # NaN fails closed
        raise ContractViolation(
            f"eigenvectors are not orthonormal: max|V^dag V - I| = {defect:.3e}"
        )
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return SpectralDecomposition(eigenvalues, eigenvectors)


def spectral_amplitudes(
    va: StateVector, decomposition: SpectralDecomposition, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Overlaps ``c_k = <phi_k|V_a>`` and eigenphases ``w_k = (-lambda_k * t) mod 2pi``.

    ``w_k`` is the phase that ``e^{-iHt}`` hands to the readout register.
    """
    if t == 0:
        raise ValueError("evolution time t must be nonzero")
    if decomposition.dim != len(va.amplitudes):
        raise ValueError(
            f"dimension mismatch: {decomposition.dim} eigenvectors vs "
            f"{len(va.amplitudes)} amplitudes"
        )
    overlaps = decomposition.eigenvectors.conj().T @ va.amplitudes
    phases = np.mod(-decomposition.eigenvalues * t, 2.0 * np.pi)
    return overlaps, phases


def spectral_components(
    va: StateVector, decomposition: SpectralDecomposition, t: float
) -> list[tuple[float, float]]:
    """One ``(|c_k|^2, w_k)`` pair per eigenvector; see :func:`spectral_amplitudes`."""
    overlaps, phases = spectral_amplitudes(va, decomposition, t)
    weights = np.abs(overlaps) ** 2
    return [(float(w), float(p)) for w, p in zip(weights, phases)]


def degenerate_groups(eigenvalues, tol: float) -> list[list[int]]:
    """Indices of (ascending) eigenvalues grouped into eigenspaces.

    Consecutive eigenvalues closer than ``tol`` land in the same group, so
    projector-based comparisons can tolerate eigenvector non-uniqueness.
    """
    groups: list[list[int]] = []
    for i, value in enumerate(eigenvalues):
        if groups and value - eigenvalues[groups[-1][-1]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups
