"""Dense reference engine: embedding, eigensolver contracts, spectral record."""

import logging

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference as ref
from spectral_qpe import (
    ContractViolation,
    HamiltonianSum,
    GridRecipe,
    LocalTerm,
    SpectralDecomposition,
    analytic_bin_distribution,
    assemble_dense,
    build_transverse_ising,
    eigendecompose,
    load_amplitudes,
    spectral_amplitudes,
)
from spectral_qpe.oracle import MAX_DENSE_QUBITS, embed_operator


# ---------------------------------------------------------------------------
# embedding


def test_embed_single_qubit_z():
    got = embed_operator(ref.Z, [0], 2)
    np.testing.assert_array_equal(got, np.diag([1, -1, 1, -1]))


def test_embed_full_support_is_identity_embedding():
    rng = np.random.default_rng(2)
    mat = ref.random_hermitian(8, rng)
    np.testing.assert_allclose(embed_operator(mat, [0, 1, 2], 3), mat, atol=0)


def test_embed_respects_support_order():
    # support [1, 0] maps the operator's low bit onto qubit 1
    rng = np.random.default_rng(3)
    mat = ref.random_hermitian(4, rng)
    got = embed_operator(mat, [1, 0], 2)
    want = ref.embed_kron(mat, [1, 0], 2)
    np.testing.assert_allclose(got, want, atol=1e-14)


@given(st.integers(0, 2**32 - 1))
def test_embed_matches_kron_reference(seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(2, 6))
    k = int(rng.integers(1, min(q, 3) + 1))
    support = [int(s) for s in rng.permutation(q)[:k]]
    mat = ref.random_hermitian(2**k, rng)
    got = embed_operator(mat, support, q)
    want = ref.embed_kron(mat, support, q)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_assemble_dense_sums_terms():
    h = HamiltonianSum(
        [LocalTerm([0], ref.X), LocalTerm([1], ref.Z), LocalTerm([0, 1], np.kron(ref.Z, ref.Z))],
        2,
    )
    want = (
        ref.embed_kron(ref.X, [0], 2)
        + ref.embed_kron(ref.Z, [1], 2)
        + ref.embed_kron(np.kron(ref.Z, ref.Z), [0, 1], 2)
    )
    np.testing.assert_allclose(assemble_dense(h), want, atol=1e-14)


def test_assemble_single_full_support_term_is_the_matrix():
    rng = np.random.default_rng(4)
    mat = ref.random_hermitian(8, rng)
    h = HamiltonianSum([LocalTerm([0, 1, 2], mat)], 3)
    np.testing.assert_allclose(assemble_dense(h), mat, atol=0)


PAULI_Y_TERMS = [LocalTerm([0], np.array([[0, -1j], [1j, 0]])),
                 LocalTerm([0, 1], np.kron(ref.Z, ref.Z))]


@pytest.mark.parametrize("case", ["tfim4", "pauli-y"])
def test_assemble_dense_stays_real_for_real_terms(case):
    """A TFIM assembles as float64, a term with an imaginary part as
    complex128; both equal the sum of the Kronecker embeddings."""
    if case == "tfim4":
        h, dtype = build_transverse_ising(4, 1.0, 0.7), np.float64
    else:
        h, dtype = HamiltonianSum(PAULI_Y_TERMS, 2), np.complex128
    got = assemble_dense(h)
    assert got.dtype == dtype
    want = sum(ref.embed_kron(t.matrix, t.support, h.num_qubits) for t in h.terms)
    np.testing.assert_array_equal(got, want)


def test_assemble_dense_holds_one_matrix(traced_peak):
    """Terms are added into one float64 accumulator: TFIM-9 peaks below 1.5
    times its 512 x 512 matrix (summing complex128 embeddings into a complex128
    accumulator held 4 times)."""
    h = build_transverse_ising(9, 1.0, 0.7)
    dense, peak = traced_peak(lambda: assemble_dense(h))
    assert dense.dtype == np.float64
    assert peak < 1.5 * dense.nbytes


def test_real_matrix_is_decomposed_without_a_complex_copy(traced_peak):
    """A float64 TFIM-9 matrix is checked and solved in real arithmetic,
    both checks over slabs of rows: beyond the eigenvectors it returns, it
    holds less than a quarter of the matrix (the whole-matrix checks held
    two of its size)."""
    a = build_transverse_ising(9, 1.0, 0.7).dense_hamiltonian()
    d, peak = traced_peak(lambda: eigendecompose(a))
    assert d.eigenvectors.dtype == np.float64
    assert peak < d.eigenvectors.nbytes + a.nbytes / 4


@pytest.mark.parametrize("case, kind", [("tfim4", "real"), ("pauli-y", "complex")])
def test_assembly_and_decomposition_log_one_debug_line_each(caplog, case, kind):
    h = build_transverse_ising(4, 1.0, 0.7) if case == "tfim4" else HamiltonianSum(PAULI_Y_TERMS, 2)
    with caplog.at_level(logging.DEBUG, logger="spectral_qpe.oracle"):
        eigendecompose(assemble_dense(h))
    messages = [record.getMessage() for record in caplog.records]
    assert len(messages) == 2
    dim = 2**h.num_qubits
    assert messages[0].startswith(f"assembled dense H: dimension {dim}, {kind}, ")
    assert messages[1].startswith(f"eigendecomposed H: dimension {dim}, {kind} solver, ")
    assert all(record.levelno == logging.DEBUG for record in caplog.records)


def test_tfim_assembles_traceless():
    dense = assemble_dense(build_transverse_ising(3, 1.0, 1.0))
    assert dense.shape == (8, 8)
    assert abs(np.trace(dense)) < 1e-12


def test_dimension_cap():
    # a 2^13-dim lazy view: must be rejected before any heavy work
    big = np.broadcast_to(np.complex128(0), (2**13, 2**13))
    with pytest.raises(ValueError):
        eigendecompose(big)


# ---------------------------------------------------------------------------
# eigensolver contracts


def test_diagonal_matrix_sorted_ascending():
    d = eigendecompose(np.diag([3.0, 1.0, 2.0, 0.0]))
    np.testing.assert_allclose(d.eigenvalues, [0.0, 1.0, 2.0, 3.0], atol=1e-14)
    # canonical basis vectors, permuted (up to phase)
    for i, source in enumerate([3, 1, 2, 0]):
        assert abs(d.eigenvectors[source, i]) == pytest.approx(1.0, abs=1e-12)


def test_pauli_x_eigensystem():
    d = eigendecompose(ref.X)
    np.testing.assert_allclose(d.eigenvalues, [-1.0, 1.0], atol=1e-14)
    minus, plus = d.eigenvectors[:, 0], d.eigenvectors[:, 1]
    assert abs(np.vdot(minus, [1, -1] / np.sqrt(2))) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(plus, [1, 1] / np.sqrt(2))) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dim", [8, 64, 1024])
def test_residual_orthonormality_reconstruction(dim):
    rng = np.random.default_rng(dim)
    a = ref.random_hermitian(dim, rng)
    scale = np.abs(a).max()
    d = eigendecompose(a)
    v, lam = d.eigenvectors, d.eigenvalues
    assert np.all(np.diff(lam) >= 0)
    residual = np.linalg.norm(a @ v - v * lam, axis=0).max()
    assert residual <= 1e-10 * scale
    gram = v.conj().T @ v
    assert np.abs(gram - np.eye(dim)).max() <= 1e-10
    assert np.abs((v * lam) @ v.conj().T - a).max() <= 1e-9 * scale


def test_rejects_non_hermitian():
    rng = np.random.default_rng(6)
    a = ref.random_hermitian(4, rng)
    asymmetric = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    with pytest.raises(ValueError):
        eigendecompose(a + 1e-6 * asymmetric)
    # asymmetry below the scaled tolerance is accepted
    perturbed = a.copy()
    perturbed[0, 1] += 1e-13
    d = eigendecompose(perturbed)
    assert isinstance(d, SpectralDecomposition)


def test_rejects_nan_matrix():
    with pytest.raises(ValueError, match="Hermitian"):
        eigendecompose(np.array([[1.0, 0.0], [0.0, np.nan]]))


def test_rejects_nonsquare():
    for shape in [(2, 3), (0, 0)]:
        with pytest.raises(ValueError, match="non-empty square"):
            eigendecompose(np.zeros(shape))


def test_degenerate_eigenspace_projectors():
    """Eigenvectors of a degenerate pair are basis-dependent; projectors are not."""
    rng = np.random.default_rng(7)
    u = ref.random_unitary(4, rng)
    lam = np.array([-1.0, 0.5, 0.5, 2.0])
    a = (u * lam) @ u.conj().T
    a = (a + a.conj().T) / 2
    d = eigendecompose(a)
    groups = ref.degenerate_groups(d.eigenvalues, ref.DEGENERACY_TOL * np.abs(a).max())
    assert [len(g) for g in groups] == [1, 2, 1]
    idx = list(groups[1])
    got = d.eigenvectors[:, idx] @ d.eigenvectors[:, idx].conj().T
    want = u[:, 1:3] @ u[:, 1:3].conj().T
    np.testing.assert_allclose(got, want, atol=1e-10)


def real_symmetric_case(case):
    if case == "tfim6":
        return build_transverse_ising(6, 1.0, 0.7).dense_hamiltonian().astype(np.complex128)
    if case == "tfim5-no-field":  # diagonal, with large eigenspaces
        return build_transverse_ising(5, 1.0, 0.0).dense_hamiltonian().astype(np.complex128)
    q, _ = np.linalg.qr(np.random.default_rng(12).normal(size=(16, 16)))
    a = (q * np.repeat([-2.0, 0.5, 1.5], [3, 5, 8])) @ q.T
    return ((a + a.T) / 2).astype(np.complex128)


@pytest.mark.parametrize("case", ["tfim6", "tfim5-no-field", "degenerate"])
def test_real_solver_agrees_with_complex_solver(case):
    a = real_symmetric_case(case)
    assert a.dtype == np.complex128 and not a.imag.any()
    scale = np.abs(a).max()
    d = eigendecompose(a)
    assert d.eigenvectors.dtype == np.float64
    lam, vec = np.linalg.eigh(a)  # the complex solver
    np.testing.assert_allclose(d.eigenvalues, lam, rtol=0, atol=1e-12 * scale)
    groups = ref.degenerate_groups(lam, ref.DEGENERACY_TOL * scale)
    if case != "tfim6":
        assert max(len(g) for g in groups) > 1
    for group in groups:
        got = d.eigenvectors[:, group] @ d.eigenvectors[:, group].T
        want = vec[:, group] @ vec[:, group].conj().T
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_nonzero_imaginary_part_keeps_complex_solver():
    grid = GridRecipe(3, "harmonic:0.8,3.5", 1.0).dense_hamiltonian()
    tiny = np.diag([1.0, 2.0]).astype(np.complex128)
    tiny[0, 1], tiny[1, 0] = 1e-3j, -1e-3j
    for a in (grid, tiny):
        assert a.imag.any()
        assert eigendecompose(a).eigenvectors.dtype == np.complex128


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.nan)])
def test_nan_is_refused_before_any_solver(monkeypatch, bad):
    def forbidden(*args, **kwargs):
        raise AssertionError("eigh ran on a matrix with a NaN entry")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    a = np.eye(2, dtype=np.complex128)
    a[1, 1] = bad
    with pytest.raises(ValueError, match="Hermitian"):
        eigendecompose(a)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow and Inf - Inf
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_non_finite_entry_in_the_last_slab_is_refused_before_any_solver(monkeypatch, bad, kind):
    """TFIM-7's 128 x 128 matrix with its last diagonal entry NaN or Inf:
    the entry lies in the last of two row slabs alone, and fails the
    Hermiticity check (Inf - Inf is NaN) before eigh runs."""
    a = build_transverse_ising(7, 1.0, 0.7).dense_hamiltonian()
    a = ref.non_finite_last_rows(a if kind == "real" else a.astype(np.complex128), bad)

    def forbidden(*args, **kwargs):
        raise AssertionError("eigh ran on a matrix with a non-finite entry")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    with pytest.raises(ValueError, match="Hermitian"):
        eigendecompose(a)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow and Inf - Inf
@pytest.mark.parametrize("bad", ["nan", "inf", "overflow"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_non_finite_eigenvectors_in_the_last_slab_are_refused(monkeypatch, bad, dtype):
    """Eigenvectors of dimension 128 (two slabs of V^dag V) that are not
    finite in their last row, or whose V^dag V overflows only in its last
    two rows, fail the orthonormality check."""
    vectors = ref.non_finite_last_rows(np.eye(128, dtype=dtype), bad)
    monkeypatch.setattr(np.linalg, "eigh", lambda matrix: (np.arange(128.0), vectors))
    with pytest.raises(ContractViolation, match="orthonormal"):
        eigendecompose(np.diag(np.arange(128.0)).astype(dtype))


def perturb_eigenvectors(monkeypatch, entry):
    """Make ``np.linalg.eigh`` return eigenvectors with entry [1, 0] set to
    ``entry`` added to it."""
    solve = np.linalg.eigh

    def perturbed(matrix):
        values, vectors = solve(matrix)
        vectors = vectors.copy()
        vectors[1, 0] += entry
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", perturbed)


@pytest.mark.parametrize("entry", [1e-8, np.nan], ids=["1e-8", "nan"])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_non_orthonormal_eigenvectors_are_refused(monkeypatch, entry, kind):
    """Eigenvectors off orthonormal by 1e-8, or holding a NaN, fail the
    V^dag V = I check that stands in for validating each e^{-iHt}."""
    if kind == "real":
        a = ref.tfim_dense(3, 1.0, 0.7)
    else:
        a = GridRecipe(3, "harmonic:0.8,3.5", 1.0).dense_hamiltonian()
    d = eigendecompose(a)
    defect = np.abs(d.eigenvectors.conj().T @ d.eigenvectors - np.eye(8)).max()
    assert defect <= 1e-13
    perturb_eigenvectors(monkeypatch, entry)
    with pytest.raises(ContractViolation, match="orthonormal"):
        eigendecompose(a)


def test_degenerate_groups_consecutive_tolerance():
    groups = ref.degenerate_groups(np.array([1.0, 1.0 + 1e-9, 2.0]), 1e-8)
    assert groups == [[0, 1], [2]]
    groups = ref.degenerate_groups(np.array([1.0, 1.0 + 1e-9, 2.0]), 1e-10)
    assert groups == [[0], [1], [2]]


# ---------------------------------------------------------------------------
# the spectral record (overlaps and eigenphases)


def test_components_of_pure_eigenvector():
    rng = np.random.default_rng(8)
    a = ref.random_hermitian(4, rng)
    d = eigendecompose(a)
    va = load_amplitudes(2, d.eigenvectors[:, 2])
    overlaps, phases = spectral_amplitudes(va, d, t=0.9)
    weights = np.abs(overlaps) ** 2
    assert weights[2] == pytest.approx(1.0, abs=1e-12)
    assert weights.sum() == pytest.approx(1.0, abs=1e-9)
    # omega = (-lambda * t) mod 2pi, in [0, 2pi)
    for omega, lam in zip(phases, d.eigenvalues):
        assert 0 <= omega < 2 * np.pi
        assert np.exp(1j * omega) == pytest.approx(np.exp(-1j * lam * 0.9), abs=1e-12)


def test_components_of_balanced_superposition():
    rng = np.random.default_rng(9)
    a = ref.random_hermitian(4, rng)
    d = eigendecompose(a)
    va = load_amplitudes(2, (d.eigenvectors[:, 0] + d.eigenvectors[:, 1]) / np.sqrt(2))
    weights = np.abs(spectral_amplitudes(va, d, t=1.0)[0]) ** 2
    assert weights[0] == pytest.approx(0.5, abs=1e-12)
    assert weights[1] == pytest.approx(0.5, abs=1e-12)


def test_spectral_amplitudes_are_overlaps_and_eigenphases():
    rng = np.random.default_rng(10)
    d = eigendecompose(ref.random_hermitian(4, rng))
    va = load_amplitudes(2, ref.random_state(2, rng))
    overlaps, phases = spectral_amplitudes(va, d, t=0.8)
    np.testing.assert_allclose(overlaps, d.eigenvectors.conj().T @ va.amplitudes, atol=1e-15)
    assert np.array_equal(phases, np.mod(-d.eigenvalues * 0.8, 2 * np.pi))
    assert (np.abs(overlaps) ** 2).sum() == pytest.approx(1.0, abs=1e-12)


def eigenbasis_case(case):
    """A decomposition with real eigenvectors (TFIM-8, dim 256) or complex
    ones (the Pauli-Y terms, dim 4; a random Hermitian, dim 256)."""
    if case == "tfim8":
        return eigendecompose(build_transverse_ising(8, 1.0, 0.7).dense_hamiltonian())
    if case == "pauli-y":
        return eigendecompose(assemble_dense(HamiltonianSum(PAULI_Y_TERMS, 2)))
    return eigendecompose(ref.random_hermitian(256, np.random.default_rng(12)))


def eigenbasis_operands(dim, rng):
    """A vector, a (dim, 5) block, a column window of a wider block (rows
    not contiguous) and a transposed (Fortran-ordered) block."""
    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return [draw(dim), draw(dim, 5), draw(dim, 9)[:, 2:7], draw(5, dim).T]


@pytest.mark.parametrize("case", ["tfim8", "pauli-y", "complex256"])
def test_eigenbasis_products_match_the_complex_products(case):
    """V^dag x and V y equal the products with V as a complex matrix to
    1e-13, on vectors and on blocks of any layout; ``out`` receives V y."""
    d = eigenbasis_case(case)
    assert (d.eigenvectors.dtype == np.float64) == (case == "tfim8")
    vectors = d.eigenvectors.astype(np.complex128)
    for x in eigenbasis_operands(d.dim, np.random.default_rng(13)):
        assert np.abs(d.to_eigenbasis(x) - vectors.conj().T @ x).max() <= 1e-13
        assert np.abs(d.from_eigenbasis(x) - vectors @ x).max() <= 1e-13
        out = np.empty(x.shape, dtype=np.complex128)
        d.from_eigenbasis(x, out=out)
        assert np.array_equal(out, d.from_eigenbasis(x))


@pytest.mark.parametrize("case", ["tfim8", "complex256"])
def test_eigenbasis_products_make_no_copy_of_v(traced_peak, case):
    """Neither product allocates the 16 dim^2 bytes (1 MiB at dim 256) of a
    complex V: a real V multiplies the float64 view of its operand, a
    complex one conjugates the operand instead of V."""
    d = eigenbasis_case(case)
    for x in eigenbasis_operands(d.dim, np.random.default_rng(14)):
        for product in (d.to_eigenbasis, d.from_eigenbasis):
            _, peak = traced_peak(lambda: product(x))
            assert peak < 16 * d.dim**2


def test_components_validation():
    d = eigendecompose(ref.X)
    va = load_amplitudes(2, np.array([1, 0, 0, 0], dtype=complex))
    with pytest.raises(ValueError):
        spectral_amplitudes(va, d, t=1.0)  # dimension mismatch
    with pytest.raises(ValueError):
        spectral_amplitudes(load_amplitudes(1, np.array([1.0, 0])), d, t=0.0)


def test_spectral_amplitudes_refuse_non_finite_time():
    va = load_amplitudes(1, [1.0, 0.0])
    decomposition = eigendecompose(np.diag([0.0, 1.0]))
    for t in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            spectral_amplitudes(va, decomposition, t)


def test_max_dense_qubits_constant():
    assert MAX_DENSE_QUBITS == 12


@pytest.mark.parametrize("call, message", [
    (lambda: HamiltonianSum([LocalTerm([0], ref.X)], 0), "at least 1 qubit, got 0"),
    (lambda: analytic_bin_distribution([1.0], [0.0], 0), "m_index must be >= 1, got 0"),
    (lambda: embed_operator(np.eye(2), [0, 1], 2),
     r"operator shape \(2, 2\) does not match 2 target qubits"),
    (lambda: embed_operator(np.eye(4), [1, 1], 2), r"duplicate target qubits: \[1, 1\]"),
    (lambda: embed_operator(ref.X, [2], 2), "target qubit 2 out of range for 2 qubits"),
    (lambda: SpectralDecomposition(np.zeros(3), np.eye(3)).num_qubits,
     "dimension 3 is not a power of two >= 2"),
], ids=["hamiltonian-no-qubits", "readout-no-index-qubits", "embed-shape",
        "embed-duplicate-target", "embed-target-out-of-range", "decomposition-dim-3"])
def test_library_refusals(call, message):
    """The library's size and target checks refuse with a ValueError that
    says what is wrong."""
    with pytest.raises(ValueError, match=message):
        call()
