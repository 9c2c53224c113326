"""Local-term Hamiltonians, exponentials, and first-order slicing."""

import numpy as np
import pytest

import reference as ref
from spectral_qpe import hamiltonian as ham
from spectral_qpe import (
    HamiltonianSum,
    GridRecipe,
    LocalTerm,
    RegisterLayout,
    assemble_dense,
    build_transverse_ising,
    eigendecompose,
    exact_unitary,
    load_amplitudes,
    new_basis_state,
    term_exponential,
)
from spectral_qpe.hamiltonian import MAX_TERM_QUBITS, slice_gates


def one_qubit_layout(l_system=1, m_index=1):
    return RegisterLayout(m_index, l_system)


def evolve(state, h, time, slices, layout):
    """``slices`` Trotter slices of dt = time/slices on the layout's system register."""
    for _ in range(slices):
        state = h.apply_step(state, time / slices, layout.system_qubits)
    return state


def evolve_dense(h, time, slices, layout):
    """Dense matrix of the Trotterized evolution, via the simulator itself."""
    dim = 2**h.num_qubits
    cols = []
    for j in range(dim):
        state = new_basis_state(layout.total_qubits, j << layout.m_index)
        out = evolve(state, h, time, slices, layout)
        cols.append(out.amplitudes[np.arange(dim) << layout.m_index])
    return np.array(cols).T


# ---------------------------------------------------------------------------
# construction


def test_local_term_validation():
    with pytest.raises(ValueError):
        LocalTerm([0], np.array([[0, 1], [0, 0]], dtype=complex))  # not Hermitian
    with pytest.raises(ValueError):
        LocalTerm([0, 0], np.eye(4))  # repeated support
    with pytest.raises(ValueError):
        LocalTerm([0], np.eye(4))  # support/matrix size mismatch
    with pytest.raises(ValueError):
        LocalTerm(list(range(MAX_TERM_QUBITS + 1)), np.eye(2 ** (MAX_TERM_QUBITS + 1)))


def test_local_term_rejects_nan_matrix():
    with pytest.raises(ValueError, match="Hermitian"):
        LocalTerm([0], [[1.0, 0.0], [0.0, np.nan]])


@pytest.mark.parametrize("skew, accepted", [(0.9e-10, True), (1.1e-10, False)])
def test_terms_and_matrices_share_one_hermiticity_check(skew, accepted):
    """A term and a dense matrix pass or fail the same tolerance, scaled by
    max(1, max|A|) (here 2), each refusal with its own message."""
    matrix = np.array([[2.0, 0.5 + 2 * skew], [0.5, -1.0]])
    if accepted:
        LocalTerm([0], matrix)
        eigendecompose(matrix)
        return
    with pytest.raises(ValueError, match=r"^term is not Hermitian: max\|H - H\^dag\| = 2\.200e-10$"):
        LocalTerm([0], matrix)
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian: max\|A - A\^dag\| = 2\.200e-10$"):
        eigendecompose(matrix)


def test_hamiltonian_sum_validation():
    term = LocalTerm([3], ref.Z)
    with pytest.raises(ValueError):
        HamiltonianSum([term], 2)  # support outside [0, l)
    with pytest.raises(ValueError):
        HamiltonianSum([], 2)
    h = HamiltonianSum([term], 4)
    assert h.num_qubits == 4
    assert len(h.terms) == 1


# ---------------------------------------------------------------------------
# exponentials


def test_pauli_z_half_turn():
    gate = term_exponential(LocalTerm([0], ref.Z), np.pi)
    np.testing.assert_allclose(gate.matrix, -np.eye(2), atol=1e-12)


def test_zero_term_gives_identity():
    gate = term_exponential(LocalTerm([0], np.zeros((2, 2))), dt=0.37)
    np.testing.assert_allclose(gate.matrix, np.eye(2), atol=1e-14)


def test_pauli_x_quarter_turn():
    gate = term_exponential(LocalTerm([0], ref.X), np.pi / 2)
    np.testing.assert_allclose(gate.matrix, [[0, -1j], [-1j, 0]], atol=1e-12)


def test_term_exponential_matches_scipy():
    rng = np.random.default_rng(12)
    mat = ref.random_hermitian(8, rng)
    gate = term_exponential(LocalTerm([0, 1, 2], mat), dt=0.83)
    np.testing.assert_allclose(gate.matrix, ref.exact_evolution(mat, 0.83), atol=1e-11)


@pytest.mark.parametrize("support, matrix", [
    ([0], ref.X), ([0, 1, 2], ref.random_hermitian(8, np.random.default_rng(21)))],
    ids=["real", "complex"])
def test_term_exponential_reads_the_terms_one_spectrum(support, matrix):
    """The gate is built from the spectrum solved at construction, bit for bit
    the gate of a fresh ``eigh`` of the term matrix."""
    term = LocalTerm(support, matrix)
    fresh = ham.unitary_from_decomposition(
        ham.oracle.SpectralDecomposition(*np.linalg.eigh(term.matrix)), 0.83)
    assert term_exponential(term, 0.83).matrix.tobytes() == fresh.matrix.tobytes()


def test_term_spectrum_is_read_only():
    term = LocalTerm([0], ref.X)
    for array in (term.spectrum.eigenvalues, term.spectrum.eigenvectors):
        assert not array.flags.writeable
    with pytest.raises(AttributeError, match="read-only"):
        term.spectrum.eigenvalues = np.zeros(2)


def test_exact_unitary_diagonal_case():
    h = HamiltonianSum([LocalTerm([0], ref.Z)], 1)
    gate = exact_unitary(h, np.pi / 2)
    np.testing.assert_allclose(gate.matrix, np.diag([-1j, 1j]), atol=1e-12)
    np.testing.assert_allclose(exact_unitary(h, 0.0).matrix, np.eye(2), atol=1e-14)


def test_exact_unitary_inverse_pair():
    rng = np.random.default_rng(14)
    h = HamiltonianSum([LocalTerm([0, 1], ref.random_hermitian(4, rng))], 2)
    forward = exact_unitary(h, 0.6).matrix
    backward = exact_unitary(h, -0.6).matrix
    np.testing.assert_allclose(forward @ backward, np.eye(4), atol=1e-10)


def test_exact_unitary_matches_scipy():
    rng = np.random.default_rng(15)
    h = HamiltonianSum(
        [LocalTerm([0], ref.random_hermitian(2, rng)),
         LocalTerm([1, 2], ref.random_hermitian(4, rng))],
        3,
    )
    t = 1.7
    dense = ref.embed_kron(h.terms[0].matrix, [0], 3) + ref.embed_kron(
        h.terms[1].matrix, [1, 2], 3
    )
    np.testing.assert_allclose(
        exact_unitary(h, t).matrix, ref.exact_evolution(dense, t), atol=1e-10
    )


# ---------------------------------------------------------------------------
# trotter evolution


def test_single_term_step_is_exact():
    rng = np.random.default_rng(16)
    mat = ref.random_hermitian(4, rng)
    h = HamiltonianSum([LocalTerm([0, 1], mat)], 2)
    layout = RegisterLayout(1, 2)
    amps = ref.random_state(2, rng)
    # place system amplitudes above the single index qubit
    full = np.zeros(8, dtype=complex)
    full[np.arange(4) << 1] = amps
    state = load_amplitudes(3, full)
    stepped = h.apply_step(state, 0.73, layout.system_qubits)
    want = ref.exact_evolution(mat, 0.73) @ amps
    np.testing.assert_allclose(stepped.amplitudes[np.arange(4) << 1], want, atol=1e-11)


def test_commuting_terms_evolve_exactly():
    h = HamiltonianSum([LocalTerm([0], ref.Z), LocalTerm([1], ref.Z)], 2)
    layout = RegisterLayout(1, 2)
    got = evolve_dense(h, 2.1, 3, layout)
    dense = ref.embed_kron(ref.Z, [0], 2) + ref.embed_kron(ref.Z, [1], 2)
    np.testing.assert_allclose(got, ref.exact_evolution(dense, 2.1), atol=1e-12)


def test_one_slice_equals_single_step():
    rng = np.random.default_rng(18)
    h = HamiltonianSum(
        [LocalTerm([0], ref.random_hermitian(2, rng)), LocalTerm([1], ref.random_hermitian(2, rng))],
        2,
    )
    layout = RegisterLayout(1, 2)
    full = np.zeros(8, dtype=complex)
    full[np.arange(4) << 1] = ref.random_state(2, rng)
    state = load_amplitudes(3, full)
    via_evolve = evolve(state, h, 0.4, 1, layout)
    via_step = h.apply_step(state, 0.4, layout.system_qubits)
    np.testing.assert_allclose(via_evolve.amplitudes, via_step.amplitudes, atol=1e-13)


def test_splitting_error_is_second_order_in_dt():
    """One X+Z step at dt=0.1 misses the exact result by roughly [X,Z]/2 * dt^2."""
    h = HamiltonianSum([LocalTerm([0], ref.X), LocalTerm([0], ref.Z)], 1)
    layout = one_qubit_layout()
    exact = ref.exact_evolution(ref.X + ref.Z, 0.1)
    got = evolve_dense(h, 0.1, 1, layout)
    diff = np.abs(got - exact).max()
    assert 0.0 < diff <= 1.5 * 0.1**2


def test_first_order_error_ratio_and_term_order():
    h = HamiltonianSum([LocalTerm([0], ref.X), LocalTerm([0], ref.Z)], 1)
    layout = one_qubit_layout()
    exact = ref.exact_evolution(ref.X + ref.Z, 1.0)
    errors = {}
    for r in (16, 32, 64, 128):
        got = evolve_dense(h, 1.0, r, layout)
        errors[r] = np.abs(got - exact).max()
    for r in (16, 32, 64):
        assert 0.4 <= errors[2 * r] / errors[r] <= 0.6

    # the r=16 slice must be the ordered product e^{-iZ dt} e^{-iX dt} ... ;
    # check one slice against the explicitly ordered reference
    dt = 1.0 / 16
    slice_got = evolve_dense(h, dt, 1, layout)
    slice_want = ref.exact_evolution(ref.Z, dt) @ ref.exact_evolution(ref.X, dt)
    np.testing.assert_allclose(slice_got, slice_want, atol=1e-12)


def test_energy_conserved_under_exact_evolution():
    rng = np.random.default_rng(19)
    mat = ref.random_hermitian(4, rng)
    h = HamiltonianSum([LocalTerm([0, 1], mat)], 2)
    psi0 = ref.random_state(2, rng)
    psi_t = exact_unitary(h, 1.3).matrix @ psi0
    e0 = np.vdot(psi0, mat @ psi0).real
    et = np.vdot(psi_t, mat @ psi_t).real
    assert abs(et - e0) < 1e-6


def test_slice_gates_follow_term_order():
    h = HamiltonianSum([LocalTerm([1], ref.Z), LocalTerm([0], ref.X)], 2)
    assert [targets for targets, _ in slice_gates(h, 0.5)] == [[1], [0]]


def test_gate_cache_keeps_the_latest_dt_alone(monkeypatch):
    """Over a sweep of 50 step times each dt builds its slice gates once, and
    the cache then holds the last dt's gates alone: an earlier dt builds
    its gates again."""
    h = build_transverse_ising(4, 1.0, 0.7)
    built = []
    monkeypatch.setattr(ham, "slice_gates",
                        lambda h, dt, build=ham.slice_gates: built.append(dt) or build(h, dt))
    sweep = [0.5 / r for r in range(1, 51)]
    for dt in sweep:
        h.step_matrix(dt)
        h.step_matrix(dt)
    assert built == sweep
    assert h._gate_cache[0] == sweep[-1]
    h.step_matrix(sweep[0])
    assert built == sweep + sweep[:1]


def test_step_matrix_is_one_simulated_slice():
    rng = np.random.default_rng(12)
    h = HamiltonianSum(
        [LocalTerm([1, 0], ref.random_hermitian(4, rng)), LocalTerm([0], ref.X),
         LocalTerm([1], ref.Z)],
        2,
    )
    want = evolve_dense(h, 0.3, 1, one_qubit_layout(2))
    np.testing.assert_allclose(h.step_matrix(0.3), want, atol=1e-12)


def complex_explicit_terms():
    """Complex Hermitian terms on 4 qubits with unsorted, overlapping supports."""
    rng = np.random.default_rng(14)
    supports = [[1], [2, 0], [3, 1, 0], [0, 3], [2, 3], [1, 2, 0, 3]]
    terms = [LocalTerm(s, ref.random_hermitian(2 ** len(s), rng)) for s in supports]
    return HamiltonianSum(terms, 4)


@pytest.mark.parametrize(
    "h", [build_transverse_ising(5, 1.0, 0.7), complex_explicit_terms()], ids=["tfim5", "complex"]
)
def test_step_matrix_equals_embedded_product_bit_for_bit(h):
    want = ref.embedded_step_product(slice_gates(h, 0.3), h.num_qubits)
    assert h.step_matrix(0.3).tobytes() == want.tobytes()


def test_step_matrix_holds_three_matrices(traced_peak):
    h = build_transverse_ising(8, 1.0, 0.7)
    step, peak = traced_peak(lambda: h.step_matrix(0.3))
    # the running product, one gate's operand copy and its product; 64 KiB
    # for the gates and interpreter bookkeeping
    assert peak <= 3 * step.nbytes + 2**16


def test_norm_bound_sums_term_norms_and_bounds_the_spectrum():
    assert build_transverse_ising(3, 1.0, 0.7).norm_bound() == pytest.approx(4.1)
    rng = np.random.default_rng(13)
    h = HamiltonianSum(
        [LocalTerm([0, 2], ref.random_hermitian(4, rng)),
         LocalTerm([1], ref.random_hermitian(2, rng))],
        3,
    )
    assert h.norm_bound() >= np.linalg.norm(assemble_dense(h), 2) - 1e-12


def test_norm_bound_makes_no_solve(monkeypatch):
    h = build_transverse_ising(4, 1.0, 0.7)

    def forbidden(*args, **kwargs):
        raise AssertionError("norm_bound solved an eigenproblem")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    assert h.norm_bound() == pytest.approx(3 * 1.0 + 4 * 0.7)


def test_layout_mismatch_rejected():
    h = HamiltonianSum([LocalTerm([0], ref.Z)], 1)
    with pytest.raises(ValueError):
        h.apply_step(new_basis_state(4, 0), 0.1, RegisterLayout(2, 2).system_qubits)


# ---------------------------------------------------------------------------
# evolution-source interface (shared with GridRecipe)

def unsorted_explicit_terms():
    """Complex Hermitian terms on 3 qubits whose supports need a permutation."""
    rng = np.random.default_rng(22)
    supports = [[1, 0], [2, 0, 1], [2]]
    terms = [LocalTerm(s, ref.random_hermitian(2 ** len(s), rng)) for s in supports]
    return HamiltonianSum(terms, 3)


SOURCES = {
    "tfim": lambda: build_transverse_ising(3, 1.0, 0.7),
    "grid": lambda: GridRecipe(3, "harmonic:0.8,3.5", 1.0),
    "unsorted_terms": unsorted_explicit_terms,
}


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_source_steps_agree_with_step_matrix(name):
    """One step, gate level, and three steps as a map on a system vector and
    on a (2^l, K) block of system columns all agree with the step matrix."""
    source = SOURCES[name]()
    rng = np.random.default_rng(20)
    amps = ref.random_state(3, rng)
    block = ref.random_state(3 + 3, rng).reshape(8, 8)
    step = source.step_matrix(0.3)
    stepped = source.apply_step(load_amplitudes(3, amps), 0.3)
    np.testing.assert_allclose(stepped.amplitudes, step @ amps, atol=1e-12)
    for operand in (amps, block):
        np.testing.assert_allclose(
            source.system_step(0.3, 3)(operand),
            np.linalg.matrix_power(step, 3) @ operand,
            atol=1e-12,
        )


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_source_step_acts_only_under_its_control(name):
    source = SOURCES[name]()
    rng = np.random.default_rng(21)
    amps = ref.random_state(3, rng)
    step = source.step_matrix(0.3)
    for control in (0, 1):
        full = np.zeros(16, dtype=complex)
        full[(np.arange(8) << 1) | control] = amps
        out = source.apply_step(load_amplitudes(4, full), 0.3, [1, 2, 3], [0])
        want = step @ amps if control else amps
        np.testing.assert_allclose(
            out.amplitudes[(np.arange(8) << 1) | control], want, atol=1e-12
        )

