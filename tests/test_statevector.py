"""Gate-application kernel, measurement, and register bookkeeping tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference as ref
from spectral_qpe import phase_estimation, statevector
from spectral_qpe import (
    ContractViolation,
    GateMatrix,
    PhaseEstimationConfig,
    RegisterLayout,
    StateVector,
    apply_controlled_gate,
    apply_diagonal_phase,
    apply_gate,
    build_transverse_ising,
    exact_unitary,
    hadamard,
    load_amplitudes,
    new_basis_state,
    pre_measurement_state,
    prepare_index_superposition,
    register_distribution,
    register_values,
    sample_spectrum,
    swap_gate,
    trial_stream,
)
from spectral_qpe.statevector import MAX_GATE_ARITY, MAX_QUBITS, _wrap_state
from reference import measure_register


def test_qubit_zero_is_least_significant():
    state = new_basis_state(2, 0)
    state = apply_gate(state, GateMatrix(ref.X), [1])
    assert np.argmax(np.abs(state.amplitudes)) == 2
    state = apply_gate(state, GateMatrix(ref.X), [0])
    assert np.argmax(np.abs(state.amplitudes)) == 3


def test_basis_state_bounds():
    with pytest.raises(ValueError):
        new_basis_state(2, 4)
    with pytest.raises(ValueError):
        new_basis_state(0, 0)
    with pytest.raises(ValueError):
        new_basis_state(MAX_QUBITS + 1, 0)


def test_load_amplitudes_rejects_unnormalized():
    with pytest.raises(ValueError):
        load_amplitudes(1, np.array([1.0, 1.0]))
    # within tolerance is fine
    eps = 1e-8
    state = load_amplitudes(1, np.array([1.0 + eps, 0.0]))
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-6


def test_amplitudes_are_read_only():
    state = new_basis_state(2, 1)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 5.0


def test_gate_matrix_validation():
    with pytest.raises(ValueError):
        GateMatrix(np.array([[1, 1], [0, 1]], dtype=complex))  # not unitary
    with pytest.raises(ValueError):
        GateMatrix(np.eye(3))  # not a power of two
    big = np.eye(2 ** (MAX_GATE_ARITY + 1))
    with pytest.raises(ValueError):
        GateMatrix(big)


def test_nan_fails_closed_in_contract_checks():
    with pytest.raises(ValueError):
        GateMatrix(np.full((2, 2), np.nan))
    with pytest.raises(ValueError):
        StateVector(1, [np.nan, 0])
    with pytest.raises(ContractViolation):
        _wrap_state(1, np.array([np.nan, 0], dtype=complex))


def defect_case(kind, dim, rng):
    """A square matrix for the unitarity-defect checks; the drifted ones
    put their largest entry of G^dag G - I in the first or the last slab."""
    if kind == "real orthogonal":
        return np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    if kind == "general":
        return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u = ref.random_unitary(dim, rng)
    if kind != "unitary":
        u[:, 0 if kind == "first column drifted" else -1] *= 1 + 1e-7
    return u


@pytest.mark.parametrize("dim", [2, 64, 100, 256], ids=lambda d: f"dim{d}")
@pytest.mark.parametrize(
    "kind", ["unitary", "real orthogonal", "general", "first column drifted", "last column drifted"]
)
def test_unitarity_defect_matches_the_whole_product(dim, kind):
    """One slab (dim <= CHECK_ROWS) or several, with a short last slab at
    dim 100: the blocked upper triangle of G^dag G - I has the whole
    product's largest magnitude, to rounding."""
    assert statevector.CHECK_ROWS == 64
    g = defect_case(kind, dim, np.random.default_rng(dim))
    got, want = statevector.unitarity_defect(g), ref.unitarity_defect(g)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-14)
    if "drifted" in kind:
        assert got == pytest.approx(2e-7, rel=1e-3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow and Inf - Inf
@pytest.mark.parametrize("kind", ["nan", "inf", "overflow"])
def test_non_finite_defect_in_the_last_slab_fails_closed(kind):
    """A NaN or Inf in the last row of a 128 x 128 matrix (two slabs), or
    finite last rows whose G^dag G overflows there while every other row
    of it is exactly I: the defect is not finite, so the gate is refused
    and ``_near_unitary`` raises instead of snapping (an SVD would have made
    a unitary of the overflowing one).  A NaN is in every slab's maximum
    here, which a reduction by Python's ``max`` from 0 would drop."""
    if kind == "overflow":
        g = ref.non_finite_last_rows(np.eye(128, dtype=complex), kind)
    else:
        g = ref.non_finite_last_rows(ref.random_unitary(128, np.random.default_rng(7)), kind)
    assert not np.isfinite(statevector.unitarity_defect(g))
    with pytest.raises(ValueError, match="not unitary"):
        GateMatrix(g)
    with pytest.raises(ContractViolation, match="not finite"):
        statevector._near_unitary(g)


def test_a_snapped_power_is_checked_again(monkeypatch):
    """A product drifted past a quarter of the gate tolerance is snapped to
    the polar factor of its SVD, and the snap is checked once more, so
    ``_near_unitary`` returns a unitary within ``UNITARY_TOL`` or raises: a
    snap that is not unitary (here from an SVD whose left factor is
    scaled) is a ``ContractViolation``."""
    u = ref.random_unitary(4, np.random.default_rng(63))
    drifted = u * (1 + 1e-9)
    checked = []
    defect, svd = statevector.unitarity_defect, np.linalg.svd
    monkeypatch.setattr(statevector, "unitarity_defect",
                        lambda matrix: checked.append(matrix) or defect(matrix))
    snapped = statevector._near_unitary(drifted)
    assert len(checked) == 2 and checked[0] is drifted and checked[1] is snapped
    assert defect(snapped) <= statevector.UNITARY_TOL
    np.testing.assert_allclose(snapped, u, rtol=0, atol=1e-14)

    def scaled_svd(matrix):
        left, values, right = svd(matrix)
        return left * (1 + 1e-6), values, right

    monkeypatch.setattr(np.linalg, "svd", scaled_svd)
    with pytest.raises(ContractViolation, match="snapped matrix power is not unitary"):
        statevector._near_unitary(drifted)


def test_gate_matrix_holds_its_copy_and_one_slab(traced_peak):
    """Beyond its read-only copy of U, construction holds one slab of
    G^dag G and its magnitudes: a 2^10 unitary (16 MiB) peaks below 1.25 U;
    the whole product, identity and difference took 3 U."""
    u = ref.random_unitary(2**10, np.random.default_rng(62))
    gate, peak = traced_peak(lambda: GateMatrix(u))
    assert gate.arity == 10
    assert peak < 1.25 * u.nbytes


def test_single_qubit_gates_match_dense_embedding():
    rng = np.random.default_rng(11)
    state_amps = ref.random_state(4, rng)
    state = load_amplitudes(4, state_amps)
    for gate, mat in [
        (hadamard(), np.array([[1, 1], [1, -1]]) / np.sqrt(2)),
        (GateMatrix(ref.X), ref.X),
        (GateMatrix(ref.Z), ref.Z),
        (GateMatrix(np.diag([1.0, np.exp(0.37j)])), np.diag([1.0, np.exp(0.37j)])),
    ]:
        for target in range(4):
            got = apply_gate(state, gate, [target]).amplitudes
            want = ref.embed_kron(mat, [target], 4) @ state_amps
            np.testing.assert_allclose(got, want, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
def test_two_qubit_gates_match_dense_embedding(seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(2, 6))
    state_amps = ref.random_state(q, rng)
    gate_mat = ref.random_unitary(4, rng)
    targets = [int(t) for t in rng.permutation(q)[:2]]
    got = apply_gate(load_amplitudes(q, state_amps), GateMatrix(gate_mat), targets)
    want = ref.embed_kron(gate_mat, targets, q) @ state_amps
    np.testing.assert_allclose(got.amplitudes, want, atol=1e-10)


@given(st.integers(0, 2**32 - 1))
def test_controlled_gates_match_dense_embedding(seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(3, 6))
    state_amps = ref.random_state(q, rng)
    gate_mat = ref.random_unitary(2, rng)
    order = [int(t) for t in rng.permutation(q)]
    target, controls = order[0], order[1 : 1 + int(rng.integers(1, 3))]
    got = apply_controlled_gate(
        load_amplitudes(q, state_amps), GateMatrix(gate_mat), controls, [target]
    )
    want = ref.controlled_embed(gate_mat, [target], controls, q) @ state_amps
    np.testing.assert_allclose(got.amplitudes, want, atol=1e-10)


def check_kernel_case(rng, q, targets, controls):
    """The kernel equals the general moveaxis path bit for bit, so one check
    against the dense controlled embedding (to 1e-12, built only while it
    stays small) covers both."""
    amps = ref.random_state(q, rng)
    amps.setflags(write=False)
    matrix = ref.random_unitary(2 ** len(targets), rng)
    got = statevector._apply_matrix(amps, q, matrix, targets, controls)
    want = ref.moveaxis_apply(amps, q, matrix, targets, controls)
    assert np.array_equal(got, want), (q, targets, controls)
    if q <= 5:
        dense = ref.controlled_embed(matrix, targets, controls, q) @ amps
        np.testing.assert_allclose(got, dense, atol=1e-12)


@pytest.mark.parametrize("q", range(1, 9))
def test_one_slab_kernel_equals_general_path(q):
    """Contiguous ascending targets with every higher qubit a control: the
    flag loop's controlled-U, and uncontrolled gates on the top qubits."""
    rng = np.random.default_rng(90 + q)
    for k in range(1, q + 1):
        for low in range(q - k + 1):
            check_kernel_case(rng, q, list(range(low, low + k)), list(range(low + k, q)))


@pytest.mark.parametrize(
    "q, targets, controls",
    [
        (5, [2, 3], [0]),  # control below the targets
        (5, [2, 3], [4, 0]),  # every higher qubit a control, and one below
        (5, [0, 2], [3, 4]),  # a gap in the targets
        (5, [3, 2], [4]),  # contiguous but descending targets
        (5, [0], []),  # uncontrolled, below the top
        (6, [1, 2], [4]),  # only some higher qubits as controls
        (8, [3, 4, 5], [7]),
        (8, [0, 1, 2, 3], [6, 7, 5, 4]),  # controls listed out of order: fast path
    ],
)
def test_general_kernel_cases_equal_reference(q, targets, controls):
    check_kernel_case(np.random.default_rng(q + len(targets)), q, targets, controls)


@given(st.data())
def test_drawn_kernel_layouts_equal_reference(data):
    """Any layout of up to 3 targets, in any order, and any disjoint controls
    on up to 9 qubits."""
    q = data.draw(st.integers(1, 9))
    order = data.draw(st.permutations(range(q)))
    k = data.draw(st.integers(1, min(3, q)))
    controls = data.draw(st.integers(0, q - k))
    check_kernel_case(np.random.default_rng(q), q, order[:k], order[k : k + controls])


@given(st.data())
def test_column_block_kernel_equals_flat_register(data):
    """A (2^q, 16) block of columns is the flat (q+4)-qubit register whose
    low 4 qubits index the column: the kernel on the block equals the
    kernel on that register, targets and controls shifted up by 4, bit for
    bit.  On a column window [:, i:] it agrees to 1e-14 (its shorter
    remainder may block the product differently)."""
    q = data.draw(st.integers(1, 6))
    order = data.draw(st.permutations(range(q)))
    k = data.draw(st.integers(1, min(3, q)))
    controls = order[k : k + data.draw(st.integers(0, q - k))]
    targets = order[:k]
    rng = np.random.default_rng(q)
    block = ref.random_state(q + 4, rng).reshape(2**q, 16)
    block.setflags(write=False)
    matrix = ref.random_unitary(2**k, rng)
    got = statevector._apply_matrix(block, q, matrix, targets, controls)
    flat = statevector._apply_matrix(
        block.reshape(-1), q + 4, matrix, [t + 4 for t in targets], [c + 4 for c in controls]
    )
    assert got.shape == block.shape
    assert np.array_equal(got, flat.reshape(block.shape))
    for i in (1, 5, 15):
        window = statevector._apply_matrix(block[:, i:], q, matrix, targets, controls)
        assert np.abs(window - got[:, i:]).max() <= 1e-14


@pytest.mark.parametrize("unitary", ["tfim3", "explicit"])
def test_flag_loop_state_unchanged_under_reference_kernel(monkeypatch, unitary):
    rng = np.random.default_rng(95)
    if unitary == "tfim3":
        gate = exact_unitary(build_transverse_ising(3, 1.0, 0.7), 0.5)
    else:
        gate = GateMatrix(ref.random_unitary(4, rng))
    config = PhaseEstimationConfig(
        m_index=4, unitary=gate, time=0.5, power_method="flag_loop"
    )
    va = load_amplitudes(gate.arity, ref.random_state(gate.arity, rng))
    production = pre_measurement_state(va, config).amplitudes
    monkeypatch.setattr(statevector, "_apply_matrix", ref.moveaxis_apply)
    assert np.array_equal(pre_measurement_state(va, config).amplitudes, production)


def test_control_and_target_must_not_overlap():
    state = new_basis_state(2, 0)
    with pytest.raises(ValueError):
        apply_controlled_gate(state, GateMatrix(ref.X), [0], [0])


def test_swap_gate_exchanges_amplitudes():
    rng = np.random.default_rng(5)
    amps = ref.random_state(2, rng)
    swapped = apply_gate(load_amplitudes(2, amps), swap_gate(), [0, 1]).amplitudes
    np.testing.assert_allclose(swapped, amps[[0, 2, 1, 3]], atol=1e-15)


def test_diagonal_phase_matches_dense_embedding():
    """Unsorted and gapped registers, with and without controls, equal the
    per-index diagonal bit for bit."""
    rng = np.random.default_rng(7)
    for q, qubits, controls in [
        (3, [2, 0], []),  # register value v has bit0 -> qubit 2, bit1 -> qubit 0
        (3, [2, 0], [1]),
        (5, [1, 4, 2], []),
        (5, [1, 4, 2], [3, 0]),
        (6, [0, 2, 5], [3]),
        (6, [3, 4], [5, 0]),
    ]:
        amps = ref.random_state(q, rng)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2 ** len(qubits)))
        got = apply_diagonal_phase(load_amplitudes(q, amps), qubits, phases, controls)
        factors = np.ones(2**q, dtype=np.complex128)
        for idx in range(2**q):
            if all((idx >> c) & 1 for c in controls):
                value = sum(((idx >> qu) & 1) << bit for bit, qu in enumerate(qubits))
                factors[idx] = phases[value]
        assert np.array_equal(got.amplitudes, amps * factors), (q, qubits, controls)


def test_diagonal_phase_rejects_nonunit_modulus():
    state = new_basis_state(1, 0)
    with pytest.raises(ValueError):
        apply_diagonal_phase(state, [0], np.array([1.0, 0.5]))


def test_register_values_and_distribution():
    state = load_amplitudes(3, np.sqrt([0.5, 0, 0, 0, 0.25, 0, 0.25, 0]))
    values = register_values(3, [0, 1])
    np.testing.assert_array_equal(values, [0, 1, 2, 3, 0, 1, 2, 3])
    dist = register_distribution(state, [0, 2])
    # qubit0 is bit0 of the register, qubit2 is bit1: indices 4 (100) and
    # 6 (110) both read as register value 2.
    np.testing.assert_allclose(dist, [0.5, 0, 0.5, 0], atol=1e-15)
    assert dist.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("above", [0, 3])
@pytest.mark.parametrize("k", range(1, 9))
def test_low_register_distribution_equals_bincount(k, above):
    """The reshape-sum over a low register adds in the bincount's order."""
    rng = np.random.default_rng(100 + k)
    q = k + above
    state = load_amplitudes(q, ref.random_state(q, rng))
    want = np.bincount(
        register_values(q, range(k)), weights=np.abs(state.amplitudes) ** 2, minlength=2**k
    )
    assert np.array_equal(register_distribution(state, range(k)), want)


def test_low_register_reads_build_no_index_array(monkeypatch):
    def forbidden(*args):
        raise AssertionError("built a 2^q index array for a low register")

    rng = np.random.default_rng(108)
    layout = RegisterLayout(3, 2)
    va = load_amplitudes(2, ref.random_state(2, rng))
    monkeypatch.setattr(statevector, "register_values", forbidden)
    state = prepare_index_superposition(va, layout)
    assert register_distribution(state, layout.index_qubits).shape == (8,)


@pytest.mark.parametrize("row_block", [2**20, 48, 16, 1])
def test_low_register_distribution_is_one_whole_array_sum(monkeypatch, row_block):
    """Blocks of all rows at once, of several rows (three at M = 16, with a
    short last block) or of one row (every M past the block size), give the
    bits of one row-order sum over the whole |a|^2 array."""
    state = load_amplitudes(10, ref.random_state(10, np.random.default_rng(110)))
    monkeypatch.setattr(statevector, "_BLOCK_ENTRIES", row_block)
    for k in (1, 4, 10):
        want = state.probabilities().reshape(-1, 2**k).sum(axis=0)
        assert np.array_equal(register_distribution(state, range(k)), want)


def test_low_register_distribution_memory(traced_peak):
    q, k = 18, 8
    state = load_amplitudes(q, ref.random_state(q, np.random.default_rng(109)))
    dist, peak = traced_peak(lambda: register_distribution(state, range(k)))
    assert dist.shape == (2**k,)
    # one block of |a|^2 and its copy with the running total stacked on,
    # the block's sum and the total, and 64 KiB for interpreter bookkeeping:
    # no float64 per amplitude (2 MiB here)
    assert peak <= 8 * (2 * statevector._BLOCK_ENTRIES + 4 * 2**k) + 2**16


class TestMeasurement:
    def test_deterministic_given_seed(self):
        state = apply_gate(new_basis_state(3, 0), hadamard(), [1])
        outcomes = [
            measure_register(state, [1], np.random.default_rng(123))[0].bits
            for _ in range(5)
        ]
        assert len(set(outcomes)) == 1

    def test_consumes_exactly_one_uniform(self):
        state = apply_gate(new_basis_state(2, 0), hadamard(), [0])
        rng_used = np.random.default_rng(42)
        rng_ref = np.random.default_rng(42)
        measure_register(state, [0], rng_used)
        rng_ref.uniform()
        assert rng_used.uniform() == rng_ref.uniform()

    def test_zero_probability_outcome_never_selected(self):
        # amplitude only on |00> and |11>; register [0] outcome 0/1 both live,
        # but register [0,1] outcomes 1 and 2 are dead.
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = np.sqrt(0.5)
        state = load_amplitudes(2, amps)
        for seed in range(200):
            outcome, _ = measure_register(state, [0, 1], np.random.default_rng(seed))
            assert outcome.bits in (0, 3)

    def test_collapse_renormalizes_and_is_consistent(self):
        rng = np.random.default_rng(9)
        state = load_amplitudes(3, ref.random_state(3, rng))
        outcome, post = measure_register(state, [0, 1], rng)
        assert np.linalg.norm(post.amplitudes) == pytest.approx(1.0, abs=1e-12)
        again, post2 = measure_register(post, [0, 1], rng)
        assert again.bits == outcome.bits
        np.testing.assert_allclose(post2.amplitudes, post.amplitudes, atol=1e-12)

    def test_outcome_probability_reported(self):
        state = apply_gate(new_basis_state(1, 0), hadamard(), [0])
        outcome, _ = measure_register(state, [0], np.random.default_rng(0))
        assert outcome.probability == pytest.approx(0.5, abs=1e-12)

    def test_empirical_frequencies_follow_born_rule(self):
        state = load_amplitudes(2, np.sqrt([0.1, 0.2, 0.3, 0.4]))
        counts = np.zeros(4)
        trials = 4000
        for t in range(trials):
            outcome, _ = measure_register(state, [0, 1], trial_stream(99, t))
            counts[outcome.bits] += 1
        freqs = counts / trials
        sigma = np.sqrt(np.array([0.1, 0.2, 0.3, 0.4]) * 0.9 / trials)
        assert np.all(np.abs(freqs - [0.1, 0.2, 0.3, 0.4]) < 4 * sigma + 1e-9)


def test_register_layout_validation_and_properties():
    layout = RegisterLayout(3, 2)
    assert layout.total_qubits == 5
    assert layout.num_bins == 8
    assert layout.index_qubits == [0, 1, 2]
    assert layout.system_qubits == [3, 4]
    assert RegisterLayout(20, 6).total_qubits == 26
    with pytest.raises(ValueError, match="26"):
        RegisterLayout(20, 7)
    with pytest.raises(ValueError):
        RegisterLayout(0, 1)


def test_trial_stream_reproducible_and_distinct():
    a = trial_stream(7, 3).uniform(size=4)
    b = trial_stream(7, 3).uniform(size=4)
    c = trial_stream(7, 4).uniform(size=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_norm_preserved_through_long_circuit():
    rng = np.random.default_rng(21)
    state = load_amplitudes(5, ref.random_state(5, rng))
    for _ in range(50):
        target = int(rng.integers(5))
        state = apply_gate(state, hadamard(), [target])
        phase = GateMatrix(np.diag([1.0, np.exp(1j * rng.uniform(0, 6))]))
        state = apply_gate(state, phase, [target])
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-10)


def test_state_vector_type_is_exported():
    assert isinstance(new_basis_state(1, 0), StateVector)


def test_diagonal_phase_rejects_nan_factors():
    with pytest.raises(ValueError, match="unit modulus"):
        apply_diagonal_phase(new_basis_state(1, 0), [0], [1.0, np.nan])


# ---------------------------------------------------------------------------
# vectorized trial draws

DRAW_SEEDS = [0, 1, 42, 2010, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1]


def scalar_draws(seed, indices):
    """First uniform of each trial's own stream, as raw 64-bit patterns."""
    draws = [trial_stream(seed, int(t)).random() for t in indices]
    return np.array(draws, dtype=np.float64).view(np.uint64)


def block_draws(seed, trials):
    """The sampler's draws for trials 0..trials-1, as raw 64-bit patterns."""
    blocks = list(statevector._trial_uniform_blocks(seed, trials))
    starts = [start for start, _ in blocks]
    assert starts == list(range(0, trials, statevector.DRAW_CHUNK))
    return np.concatenate([uniforms for _, uniforms in blocks]).view(np.uint64)


def spawn_draws(seed, indices):
    """``_spawn_uniforms`` on one block of trial indices, as raw 64-bit patterns."""
    block = np.array(indices, dtype=np.uint32)
    return statevector._spawn_uniforms(statevector._seed_pool(seed), block).view(np.uint64)


@pytest.mark.parametrize("seed", DRAW_SEEDS)
def test_uniform_draws_match_trial_stream_bit_for_bit(seed):
    pool = np.concatenate(statevector._seed_pool(seed))
    np.testing.assert_array_equal(pool, np.random.SeedSequence(seed).pool)
    np.testing.assert_array_equal(block_draws(seed, 2048), scalar_draws(seed, range(2048)))
    # the largest one-word spawn keys, past the trial cap
    high = [2**26 - 1, 2**31, 2**32 - 3, 2**32 - 2, 2**32 - 1]
    np.testing.assert_array_equal(spawn_draws(seed, high), scalar_draws(seed, high))


@given(
    seed=st.integers(0, 2**64 - 1),
    indices=st.lists(st.integers(0, 2**32 - 1), max_size=24),
)
def test_uniform_draws_property_matches_trial_stream(seed, indices):
    np.testing.assert_array_equal(spawn_draws(seed, indices), scalar_draws(seed, indices))


def test_uniform_draws_across_chunk_boundaries(monkeypatch):
    monkeypatch.setattr(statevector, "DRAW_CHUNK", 5)
    np.testing.assert_array_equal(block_draws(3, 13), scalar_draws(3, range(13)))


def test_spawn_keys_stay_one_word():
    # _spawn_uniforms mixes one 32-bit spawn-key word per trial index
    assert phase_estimation.MAX_TRIALS <= 2**32


def test_sample_spectrum_bins_equal_scalar_measurement_loop():
    t, trials, seed = 0.5, 300, 2010
    config = PhaseEstimationConfig(
        m_index=3,
        unitary=exact_unitary(build_transverse_ising(2, 1.0, 0.7), t),
        time=t, trials=trials, seed=seed,
    )
    va = load_amplitudes(2, np.full(4, 0.5))
    pre = pre_measurement_state(va, config)
    scalar = [
        measure_register(pre, config.layout.index_qubits, trial_stream(seed, trial))[0].bits
        for trial in range(trials)
    ]
    np.testing.assert_array_equal(sample_spectrum(va, config).bins, scalar)
