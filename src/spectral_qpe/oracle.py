"""Dense brute-force spectral reference engine.

Everything here is classical ground truth: dense assembly of a local
Hamiltonian, full Hermitian eigendecomposition, and the spectral record of a
guess (overlaps and eigenphases) that both closed forms read.  Exact
evolution runs in the eigenbasis computed here; tests and the
``oracle-check`` CLI command use the same data to cross-check the quantum
pipeline.
"""

from __future__ import annotations

import logging
import time
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractViolation
from .statevector import CHECK_ROWS, MAX_GATE_ARITY, UNITARY_TOL, _Record, unitarity_defect

if TYPE_CHECKING:
    from .hamiltonian import HamiltonianSum
    from .statevector import StateVector

log = logging.getLogger(__name__)

#: Largest system the dense route will materialize (4096 x 4096 matrices):
#: the gate cap, since exact gate routes validate e^{-iHt} as one gate.
MAX_DENSE_QUBITS = MAX_GATE_ARITY
#: Absolute Hermiticity tolerance on max|A - A^dag| (scaled by max(1, |A|_max)).
HERMITICITY_TOL = 1e-10


def _embedding_index(targets, num_qubits: int) -> np.ndarray:
    """Where a k-qubit operator on ``targets`` lands in an n-qubit space.

    Row g of the (2^k, 2^(n-k)) result lists the basis states whose target
    bits hold the local value g, in one common order of the other bits, so
    the operator's entry (a, b) lands on the pairs (index[a, c], index[b, c])
    for every c.  ``targets[0]`` is the least significant bit of the
    operator's own index, matching the gate-application convention of the
    simulator core.  Index arithmetic, deliberately not sharing code with the
    tensor-contraction kernel it is used to verify.
    """
    targets = list(targets)
    k = len(targets)
    if len(set(targets)) != k:
        raise ValueError(f"duplicate target qubits: {targets}")
    for t in targets:
        if not 0 <= t < num_qubits:
            raise ValueError(f"target qubit {t} out of range for {num_qubits} qubits")
    target_mask = 0
    for t in targets:
        target_mask |= 1 << t
    idx = np.arange(2**num_qubits)
    base = idx[(idx & target_mask) == 0]
    # scatter[g] places the k-bit local value g onto the target bit positions
    scatter = np.array(
        [sum(((g >> s) & 1) << targets[s] for s in range(k)) for g in range(2**k)]
    )
    return scatter[:, None] + base


def embed_operator(matrix, targets, num_qubits: int) -> np.ndarray:
    """Dense 2^n x 2^n complex embedding of a k-qubit operator on ``targets``
    (see :func:`_embedding_index` for the bit order)."""
    mat = np.asarray(matrix, dtype=np.complex128)
    targets = list(targets)
    k = len(targets)
    if mat.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {mat.shape} does not match {k} target qubits")
    index = _embedding_index(targets, num_qubits)
    full = np.zeros((2**num_qubits, 2**num_qubits), dtype=np.complex128)
    full[index[:, None, :], index[None, :, :]] = mat[:, :, None]
    return full


def dft_matrix(num_qubits: int) -> np.ndarray:
    """The forward QFT's matrix F, e^{+2 pi i jk / 2^l} / sqrt(2^l)."""
    grid = np.arange(2**num_qubits)
    return np.exp(2j * np.pi * np.outer(grid, grid) / grid.size) / np.sqrt(grid.size)


def assemble_dense(h: HamiltonianSum) -> np.ndarray:
    """Sum of all terms over the full 2^l system space.

    Each local term's entries are added straight into one accumulator, in
    term order, with no full-size matrix per term, and each diagonal term's
    energies onto its diagonal.  The accumulator is float64 when every term
    is real (every TFIM), else complex128; either way its entries are the
    bits that summing the complex embeddings gives.  With momentum terms it
    starts as F^dag diag(E) F, E their summed energies, and the sum is
    symmetrized once, so at most three full matrices are alive.
    """
    started = time.perf_counter()
    l = h.num_qubits
    if l > MAX_DENSE_QUBITS:
        raise ValueError(
            f"dense assembly is capped at {MAX_DENSE_QUBITS} qubits, got {l}"
        )
    momentum = [term.energies for term in h.terms if not term.support and term.momentum]
    real = not momentum and not any(term.matrix.imag.any() for term in h.terms if term.support)
    if momentum:
        f = dft_matrix(l)
        scaled = sum(momentum)[:, None] * f
        full = np.conjugate(f, out=f).T @ scaled
        del f, scaled
    else:
        full = np.zeros((2**l, 2**l), dtype=np.float64 if real else np.complex128)
    for term in h.terms:
        if term.support:
            values = term.matrix.real if real else term.matrix
            index = _embedding_index(term.support, l)
            full[index[:, None, :], index[None, :, :]] += values[:, :, None]
        elif not term.momentum:
            full[np.diag_indices_from(full)] += term.energies
    if momentum:
        full += full.conj().T
        full /= 2.0
    log.debug("assembled dense H: dimension %d, %s, %.3fs", 2**l,
              "real" if real else "complex", time.perf_counter() - started)
    return full


class SpectralDecomposition(_Record):
    """``SpectralDecomposition(eigenvalues, eigenvectors)``: eigenvalues in
    ascending order; eigenvectors as orthonormal columns."""

    __slots__ = ("eigenvalues", "eigenvectors")

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

    def _eigenphases(self, t: float) -> np.ndarray:
        """-lambda_k * t, unwrapped: the eigenphases of U = e^{-iHt} in the
        order of the eigenvectors, the one place that fixes U's sign."""
        return -self.eigenvalues * t

    def evolution_phases(self, t: float) -> np.ndarray:
        """e^{-i lambda_k t}, the eigenvalues of U = e^{-iHt} in the order of
        the eigenvectors."""
        return np.exp(1j * self._eigenphases(t))

    def to_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        """V^dag x, for a vector x or a (dim, K) block of columns.

        Neither this nor :meth:`from_eigenbasis` copies V: a real V (every
        real symmetric H) multiplies the float64 view of the complex operand,
        its real and imaginary parts as one real product, and a complex V
        takes V^dag x = conj(V^T conj(x)).
        """
        vectors = self.eigenvectors
        if np.iscomplexobj(vectors):
            product = vectors.T @ np.conjugate(x)
            return np.conjugate(product, out=product)
        return _real_product(vectors.T, x)

    def from_eigenbasis(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """V y, for a vector y or a (dim, K) block of columns, written into
        ``out`` when given (whose last axis must be contiguous)."""
        vectors = self.eigenvectors
        if np.iscomplexobj(vectors):
            return np.matmul(vectors, y, out=out)
        return _real_product(vectors, y, out)


def _real_product(matrix: np.ndarray, operand, out: np.ndarray | None = None) -> np.ndarray:
    """``matrix @ operand`` for a real matrix and a complex vector or (dim, K)
    block, as one real product on the (dim, 2K) float64 views of the operand
    and of ``out``; the operand is copied only if its last axis is not
    contiguous (a transposed block)."""
    operand = np.asarray(operand, dtype=np.complex128)
    pairs = operand.reshape(len(operand), -1)
    if pairs.strides[-1] != pairs.itemsize:
        pairs = np.ascontiguousarray(pairs)
    if out is None:
        out = np.empty(operand.shape, dtype=np.complex128)
    np.matmul(matrix, pairs.view(np.float64), out=out.reshape(len(out), -1).view(np.float64))
    return out


def check_hermitian(mat: np.ndarray, name: str, symbol: str) -> None:
    """The one Hermiticity check: raise ``ValueError`` naming ``name`` unless
    max|A - A^dag| <= ``HERMITICITY_TOL`` * max(1, max|A|), both maxima
    taken over slabs of ``CHECK_ROWS`` rows, so no full-size temporary is
    made.  NaN fails it."""
    scale, defect = 1.0, 0.0
    for start in range(0, len(mat), CHECK_ROWS):
        rows = slice(start, start + CHECK_ROWS)
        scale = np.maximum(scale, np.abs(mat[rows]).max())
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN difference fails
            defect = np.maximum(defect, np.abs(mat[rows] - mat[:, rows].conj().T).max())
    if not (defect <= HERMITICITY_TOL * scale):  # NaN fails closed
        raise ValueError(f"{name} is not Hermitian: max|{symbol} - {symbol}^dag| = {defect:.3e}")


def eigendecompose(matrix) -> SpectralDecomposition:
    """Full decomposition of a dense Hermitian matrix, eigenvalues ascending.

    The shape and the ``2**MAX_DENSE_QUBITS`` cap are checked before anything
    reads the entries.  A real matrix stays float64, with no complex copy,
    and a complex one whose imaginary part is exactly zero is real
    symmetric too: both go to the real solver, several times faster, and
    their eigenvectors come back as float64.  The checks are Hermiticity
    (:func:`check_hermitian`) and orthonormality of the eigenvectors,
    max|V^dag V - I| <= ``UNITARY_TOL``, the gate tolerance: every e^{-iHt}
    built from them, in closed form or densely, and every step of the
    eigenbasis flag loop, is then unitary to it.  Both run over row slabs, so neither
    makes a full-size temporary.  NaN fails both; a failed Hermiticity
    check raises ``ValueError``, a failed orthonormality check
    ``ContractViolation``.
    """
    started = time.perf_counter()
    mat = np.asarray(matrix)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
        raise ValueError(f"expected a non-empty square matrix, got shape {mat.shape}")
    if mat.shape[0] > 2**MAX_DENSE_QUBITS:
        raise ValueError(
            f"matrix of dimension {mat.shape[0]} exceeds the dense cap "
            f"of {2**MAX_DENSE_QUBITS}"
        )
    real = not np.iscomplexobj(mat)
    mat = mat.astype(np.float64 if real else np.complex128, copy=False)
    check_hermitian(mat, "matrix", "A")
    if not (real or mat.imag.any()):
        real, mat = True, mat.real
    eigenvalues, eigenvectors = np.linalg.eigh(mat)
    defect = unitarity_defect(eigenvectors)
    if not (defect <= UNITARY_TOL):  # NaN fails closed
        raise ContractViolation(
            f"eigenvectors are not orthonormal: max|V^dag V - I| = {defect:.3e}"
        )
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    log.debug("eigendecomposed H: dimension %d, %s solver, %.3fs", len(eigenvalues),
              "real" if real else "complex", time.perf_counter() - started)
    return SpectralDecomposition(eigenvalues, eigenvectors)


def spectral_amplitudes(
    va: StateVector, decomposition: SpectralDecomposition, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """The spectral record of a guess, read by both closed forms: overlaps
    ``c_k = <phi_k|V_a>`` and eigenphases ``w_k = (-lambda_k * t) mod 2pi``.

    ``w_k`` is the phase that ``e^{-iHt}`` hands to the readout register.
    A zero or non-finite ``t``, or a dimension mismatch, raises ``ValueError``.
    """
    if t == 0:
        raise ValueError("evolution time t must be nonzero")
    if not np.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t!r}")
    if decomposition.dim != len(va.amplitudes):
        raise ValueError(
            f"dimension mismatch: {decomposition.dim} eigenvectors vs "
            f"{len(va.amplitudes)} amplitudes"
        )
    overlaps = decomposition.to_eigenbasis(va.amplitudes)
    phases = np.mod(decomposition._eigenphases(t), 2.0 * np.pi)
    return overlaps, phases
