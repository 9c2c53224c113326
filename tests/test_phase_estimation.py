"""Estimation pipeline: conditional powers, readout law, sampling, collapse."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.stats

import reference as ref
from spectral_qpe import oracle
from spectral_qpe import phase_estimation as pe
from spectral_qpe import statevector as sv
from spectral_qpe import (
    ConfigFieldError,
    ContractViolation,
    GateMatrix,
    HamiltonianSum,
    LocalTerm,
    PhaseEstimationConfig,
    RegisterLayout,
    SpectralDecomposition,
    StateVector,
    analytic_bin_distribution,
    analytic_collapsed_states,
    apply_conditional_powers_binary,
    apply_conditional_powers_flag_loop,
    build_grid_particle,
    build_transverse_ising,
    default_peak_threshold,
    eigendecompose,
    eigenvector_fidelity,
    exact_unitary,
    load_amplitudes,
    new_basis_state,
    phase_to_energy,
    pre_measurement_distribution,
    pre_measurement_state,
    prepare_index_superposition,
    run_phase_estimation,
    sample_spectrum,
    spectral_components,
)


def unitary_config(matrix, m_index, *, time=1.0, power_method="binary_power", **kw):
    gate = matrix if isinstance(matrix, GateMatrix) else GateMatrix(matrix)
    return PhaseEstimationConfig(
        m_index=m_index, unitary=gate, time=time, power_method=power_method, **kw
    )


def lift(va_amps, layout):
    """Place system amplitudes above a cleared index (and work) register."""
    full = np.zeros(2**layout.total_qubits, dtype=complex)
    full[np.arange(len(va_amps)) << layout.m_index] = va_amps
    return load_amplitudes(layout.total_qubits, full)


# ---------------------------------------------------------------------------
# config validation


def test_config_refuses_time_whose_phases_overflow():
    source = build_transverse_ising(3, 1, 1)
    with pytest.raises(ConfigFieldError, match="not finite") as excinfo:
        PhaseEstimationConfig(m_index=3, source=source, time=1e308)
    assert excinfo.value.field == "time"


@pytest.mark.parametrize("m_index", [1, 3, 12])
def test_config_refuses_phases_float64_cannot_resolve(m_index):
    """|time| * ||H|| must stay below 2*pi * 2^52 / M^2; ||Z|| = 1 here."""
    source = HamiltonianSum([LocalTerm([0], ref.Z)], 1)
    limit = 2 * math.pi * 2.0**52 / 4**m_index
    PhaseEstimationConfig(m_index=m_index, source=source, time=np.nextafter(limit, 0))
    for time in (limit, -limit, 1e30):
        with pytest.raises(ConfigFieldError, match="readout bins") as excinfo:
            PhaseEstimationConfig(m_index=m_index, source=source, time=time)
        assert excinfo.value.field == "time"


@pytest.mark.parametrize("time, slices", [(0.5, 10**400), (1e-30, 10**300)],
                         ids=["past-float-range", "step-underflows"])
def test_config_refuses_slice_counts_with_no_step_time(time, slices):
    source = build_transverse_ising(2, 1, 1)
    with pytest.raises(ConfigFieldError) as excinfo:
        PhaseEstimationConfig(m_index=2, source=source, time=time, slices=slices)
    assert excinfo.value.field == "slices"


def test_config_requires_exactly_one_evolution_source():
    gate = GateMatrix(np.eye(2))
    h = HamiltonianSum([LocalTerm([0], ref.Z)], 1)
    with pytest.raises(ValueError):
        PhaseEstimationConfig(m_index=2, unitary=gate, source=h,
                              slices=2, time=1.0)
    with pytest.raises(ValueError):
        PhaseEstimationConfig(m_index=2)
    with pytest.raises(ValueError):
        PhaseEstimationConfig(m_index=2, source=h)  # no time


def test_config_raw_unitary_needs_time():
    with pytest.raises(ValueError):
        PhaseEstimationConfig(m_index=2, unitary=GateMatrix(np.eye(2)))


def test_config_flag_loop_needs_work_qubit():
    for method, work in (("flag_loop", 1), ("binary_power", 0), ("block", 0)):
        config = PhaseEstimationConfig(
            m_index=2,
            unitary=GateMatrix(np.eye(2)),
            time=1.0,
            power_method=method,
        )
        assert config.layout == RegisterLayout(2, 1, work)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.layout = RegisterLayout(2, 1, 1)


def test_config_defaults_to_block_engine_and_rejects_unknown_routes():
    config = PhaseEstimationConfig(m_index=2, unitary=GateMatrix(np.eye(2)), time=1.0)
    assert config.power_method == "block"
    with pytest.raises(ValueError):
        PhaseEstimationConfig(m_index=2, unitary=GateMatrix(np.eye(2)),
                              time=1.0, power_method="dense")


def test_config_dimension_and_trials_checks():
    two_qubit = PhaseEstimationConfig(m_index=2, unitary=GateMatrix(np.eye(4)), time=1.0)
    assert two_qubit.layout == RegisterLayout(2, 2, 0)
    h = HamiltonianSum([LocalTerm([0], ref.Z)], 3)
    assert PhaseEstimationConfig(
        m_index=2, source=h, time=1.0
    ).layout == RegisterLayout(2, 3, 0)
    with pytest.raises(ValueError):
        PhaseEstimationConfig(
            m_index=2,
            unitary=GateMatrix(np.eye(2)),
            time=1.0,
            trials=0,
        )
    assert PhaseEstimationConfig(
        m_index=1, unitary=GateMatrix(np.eye(2)), time=1.0, trials=pe.MAX_TRIALS
    ).trials == pe.MAX_TRIALS
    with pytest.raises(ConfigFieldError, match="trials"):
        PhaseEstimationConfig(
            m_index=1, unitary=GateMatrix(np.eye(2)), time=1.0, trials=pe.MAX_TRIALS + 1
        )


def test_config_slice_count_checks():
    h = HamiltonianSum([LocalTerm([0], ref.Z)], 1)
    for bad_slices in (0, 2.5):
        with pytest.raises(ValueError, match="slice count"):
            PhaseEstimationConfig(m_index=2, source=h, time=1.0, slices=bad_slices)
    with pytest.raises(ValueError, match="slices"):
        PhaseEstimationConfig(m_index=2, unitary=GateMatrix(np.eye(2)),
                              time=1.0, slices=2)
    assert PhaseEstimationConfig(m_index=2, source=h, time=1.0, slices=3).slices == 3


@pytest.mark.parametrize("bad_time", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("mode", ["unitary", "source"])
def test_config_rejects_non_finite_time(mode, bad_time):
    source_kw = (
        dict(unitary=GateMatrix(np.diag([1, 1j])))
        if mode == "unitary"
        else dict(source=HamiltonianSum([LocalTerm([0], ref.Z)], 1), slices=2)
    )
    with pytest.raises(ValueError, match="time"):
        PhaseEstimationConfig(m_index=2, time=bad_time, **source_kw)


def test_config_seed_must_fit_in_64_bits():
    gate = GateMatrix(np.eye(2))
    for bad_seed in (-1, -3, 2**64):
        with pytest.raises(ValueError, match="seed"):
            PhaseEstimationConfig(m_index=2, unitary=gate, time=1.0, seed=bad_seed)
    for seed in (0, 2**64 - 1):
        assert PhaseEstimationConfig(
            m_index=2, unitary=gate, time=1.0, seed=seed
        ).seed == seed


# ---------------------------------------------------------------------------
# pipeline stages


def test_prepare_uniform_superposition():
    layout = RegisterLayout(3, 1, 0)
    state = prepare_index_superposition(lift([0.0, 1.0], layout), layout)
    # all 8 index amplitudes equal 1/sqrt(8) on the |1> system branch
    amps = state.amplitudes.reshape(2, 8)  # [system, index]
    np.testing.assert_allclose(np.abs(amps[1]), 1 / math.sqrt(8), atol=1e-12)
    np.testing.assert_allclose(amps[0], 0, atol=1e-15)


def test_prepare_twice_rejected():
    layout = RegisterLayout(2, 1, 0)
    once = prepare_index_superposition(lift([1.0, 0.0], layout), layout)
    with pytest.raises(ValueError):
        prepare_index_superposition(once, layout)


def test_flag_loop_identity_unitary_leaves_state():
    config = unitary_config(np.eye(2), 2, power_method="flag_loop")
    state = prepare_index_superposition(lift([0, 1], config.layout), config.layout)
    out = apply_conditional_powers_flag_loop(state, config)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)


def test_flag_loop_entangles_index_with_applied_x():
    config = unitary_config(ref.X, 1, power_method="flag_loop")
    state = prepare_index_superposition(lift([1, 0], config.layout), config.layout)
    out = apply_conditional_powers_flag_loop(state, config)
    # qubits: [index, system, flag]; expect (|0>|0> + |1>|1>)/sqrt(2), flag clear
    want = np.zeros(8, dtype=complex)
    want[0b000] = want[0b011] = 1 / math.sqrt(2)
    np.testing.assert_allclose(out.amplitudes, want, atol=1e-12)


def test_binary_powers_diagonal_phase_accumulation():
    theta = 0.9
    config = unitary_config(np.diag([1, np.exp(1j * theta)]), 2)
    state = prepare_index_superposition(lift([0, 1], config.layout), config.layout)
    out = apply_conditional_powers_binary(state, config)
    sys_one = out.amplitudes[np.arange(4) + 4]  # system |1> branch, index j
    want = np.exp(1j * theta * np.arange(4)) / 2
    np.testing.assert_allclose(sys_one, want, atol=1e-12)


@pytest.mark.parametrize("m_index", [1, 2, 3])
def test_conditional_powers_match_dense_reference(m_index):
    rng = np.random.default_rng(40 + m_index)
    u = ref.random_unitary(2, rng)
    va = ref.random_state(1, rng)
    config = unitary_config(u, m_index, power_method="flag_loop")
    state = prepare_index_superposition(lift(va, config.layout), config.layout)
    out = apply_conditional_powers_flag_loop(state, config)
    M = 2**m_index
    for j in range(M):
        got = out.amplitudes[j + (np.arange(2) << m_index)]
        want = np.linalg.matrix_power(u, j) @ va / math.sqrt(M)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_flag_flip_equals_masked_swap():
    rng = np.random.default_rng(80)
    for m_index, l_system in [(1, 1), (2, 1), (3, 2), (4, 2)]:
        layout = RegisterLayout(m_index, l_system, 1)
        state = load_amplitudes(layout.total_qubits,
                                ref.random_state(layout.total_qubits, rng))
        index_values = sv.register_values(layout.total_qubits, layout.index_qubits)
        flag = layout.work_qubits[0]
        for threshold in range(layout.num_bins + 1):
            got = pe._flip_flag_where_index_ge(state, layout, threshold).amplitudes
            want = ref.masked_flag_flip(state.amplitudes, index_values, flag, threshold)
            assert np.array_equal(got, want)


def flag_loop_cases():
    """(unitary, m_index) with M below, equal to and above 2^l: TFIM-3 and a
    random 2-qubit unitary."""
    tfim3 = exact_unitary(build_transverse_ising(3, 1.0, 0.7), 0.5)
    random2 = GateMatrix(ref.random_unitary(4, np.random.default_rng(81)))
    return [pytest.param(tfim3, m, id=f"tfim3-m{m}") for m in (2, 3, 4)] + [
        pytest.param(random2, m, id=f"random2-m{m}") for m in (1, 2, 3)
    ]


@pytest.mark.parametrize("gate, m_index", flag_loop_cases())
def test_windowed_flag_step_matches_full_slab(gate, m_index):
    """Each controlled-U of the loop equals U on the whole flag-set slab to
    1e-14 per amplitude, and so does the whole loop."""
    config = unitary_config(gate, m_index, power_method="flag_loop")
    layout = config.layout
    rng = np.random.default_rng(82 + m_index)
    prepared = prepare_index_superposition(
        lift(ref.random_state(layout.l_system, rng), layout), layout
    )
    index_values = sv.register_values(layout.total_qubits, layout.index_qubits)
    flag = layout.work_qubits[0]
    driver = pe._unitary_driver(config)
    state, reference = prepared, prepared.amplitudes
    for i in range(1, layout.num_bins + 1):
        raised = pe._flip_flag_where_index_ge(state, layout, i)
        got = driver.apply_flagged(raised, layout, i).amplitudes
        want = ref.full_slab_flag_step(raised.amplitudes, gate.matrix,
                                       layout.l_system, layout.num_bins)
        assert np.abs(got - want).max() <= 1e-14, i
        state = pe._flip_flag_where_index_ge(load_amplitudes(state.num_qubits, got),
                                             layout, i)
        reference = ref.masked_flag_flip(reference, index_values, flag, i)
        reference = ref.full_slab_flag_step(reference, gate.matrix,
                                            layout.l_system, layout.num_bins)
        reference = ref.masked_flag_flip(reference, index_values, flag, i)
    out = apply_conditional_powers_flag_loop(prepared, config).amplitudes
    assert np.array_equal(out, state.amplitudes)
    assert np.abs(out - reference).max() <= 1e-14


@pytest.mark.parametrize("gate, m_index", flag_loop_cases())
def test_flag_step_carries_columns_below_the_window(gate, m_index):
    """On a state with the flag set at every index value, the step leaves the
    flag-clear half and the flag-set columns below the threshold bit for bit
    and multiplies the rest by U."""
    config = unitary_config(gate, m_index, power_method="flag_loop")
    layout = config.layout
    driver = pe._unitary_driver(config)
    rng = np.random.default_rng(83 + m_index)
    state = load_amplitudes(layout.total_qubits, ref.random_state(layout.total_qubits, rng))
    shape = (2, 2**layout.l_system, layout.num_bins)
    before = state.amplitudes.reshape(shape)
    for i in range(layout.num_bins + 1):
        after = driver.apply_flagged(state, layout, i).amplitudes.reshape(shape)
        assert np.array_equal(after[0], before[0])
        assert np.array_equal(after[1, :, :i], before[1, :, :i])
        window = gate.matrix @ before[1, :, i:]
        assert np.abs(after[1, :, i:] - window).max(initial=0.0) <= 1e-14


def test_stray_flag_amplitude_below_the_window_is_caught(monkeypatch):
    """A flag amplitude at an index value no window covers is carried to the
    end of the loop, where the flag-residue check refuses it."""
    config = unitary_config(ref.random_unitary(2, np.random.default_rng(84)), 2,
                            power_method="flag_loop")
    layout = config.layout
    state = prepare_index_superposition(lift([1, 0], layout), layout)
    flip = pe._flip_flag_where_index_ge
    calls = []

    def flip_then_stray(state, layout, threshold):
        out = flip(state, layout, threshold)
        calls.append(threshold)
        if len(calls) > 1:
            return out
        amps = out.amplitudes.copy()
        amps[1 << layout.work_qubits[0]] += 1e-4  # flag set, index 0, system 0
        return load_amplitudes(state.num_qubits, amps / np.linalg.norm(amps))

    monkeypatch.setattr(pe, "_flip_flag_where_index_ge", flip_then_stray)
    with pytest.raises(ContractViolation, match="flag qubit"):
        apply_conditional_powers_flag_loop(state, config)


def test_flag_loop_and_binary_agree():
    rng = np.random.default_rng(50)
    for m_index in (1, 2, 3, 4):
        dim_qubits = int(rng.integers(1, 3))
        u = ref.random_unitary(2**dim_qubits, rng)
        va = ref.random_state(dim_qubits, rng)
        flag_cfg = PhaseEstimationConfig(
            m_index=m_index, unitary=GateMatrix(u), time=1.0, power_method="flag_loop"
        )
        bin_cfg = PhaseEstimationConfig(
            m_index=m_index, unitary=GateMatrix(u), time=1.0, power_method="binary_power"
        )
        va_state = load_amplitudes(dim_qubits, va)
        a = pre_measurement_state(va_state, flag_cfg).amplitudes
        b = pre_measurement_state(va_state, bin_cfg).amplitudes
        # the flag qubit sits on top: the flag-free half is binary_power's state
        np.testing.assert_allclose(a[: b.size], b, atol=1e-10)
        np.testing.assert_allclose(a[b.size:], 0, atol=1e-10)


def test_dense_powers_are_validated_once(monkeypatch):
    """U was validated with the config; each higher power is validated once,
    when it is first built, however often it is applied."""
    rng = np.random.default_rng(71)
    u = ref.random_unitary(2, rng)
    config = unitary_config(u, 3)
    state = prepare_index_superposition(
        lift(ref.random_state(1, rng), config.layout), config.layout
    )
    constructed = []

    class CountingGate(GateMatrix):
        def __init__(self, matrix):
            constructed.append(np.array(matrix))
            super().__init__(matrix)

    monkeypatch.setattr(sv, "GateMatrix", CountingGate)
    driver = pe._unitary_driver(config)
    for power in (1, 1, 2, 2, 4, 1, 4):
        want = sv.apply_controlled_gate(
            state, GateMatrix(np.linalg.matrix_power(u, power)), [0], [3]
        )
        got = driver.apply_controlled(state, [0], power)
        np.testing.assert_allclose(got.amplitudes, want.amplitudes, atol=1e-12)
    assert len(constructed) == 2  # U^2 and U^4
    np.testing.assert_allclose(constructed[1], np.linalg.matrix_power(u, 4), atol=1e-12)


# One unitary source per case: (system qubits, config keywords).
BLOCK_SOURCES = {
    "explicit_unitary": lambda rng: (
        2, dict(unitary=GateMatrix(ref.random_unitary(4, rng)), time=1.0)),
    "exact_tfim": lambda rng: (
        3, dict(unitary=exact_unitary(build_transverse_ising(3, 1.0, 0.7), 0.5),
                time=0.5)),
    "trotter_tfim": lambda rng: (
        3, dict(source=build_transverse_ising(3, 1.0, 0.7), time=0.5, slices=3)),
    "grid_recipe": lambda rng: (
        3, dict(source=build_grid_particle(3, "harmonic:0.8,3.5", 1.0),
                time=0.4, slices=4)),
}


@pytest.mark.parametrize("source", sorted(BLOCK_SOURCES))
def test_block_engine_matches_gate_route(source):
    """The engine's one-step operator for each source type reproduces the
    gate-level binary-power state, for the true and the corrupted readout."""
    rng = np.random.default_rng(70)
    l_system, source_kw = BLOCK_SOURCES[source](rng)
    va = load_amplitudes(l_system, ref.random_state(l_system, rng))
    for corrupt in (False, True):
        block, gate = (
            pre_measurement_state(
                va,
                PhaseEstimationConfig(m_index=4, power_method=method, **source_kw),
                _corrupt_qft_sign=corrupt,
            ).amplitudes
            for method in ("block", "binary_power")
        )
        np.testing.assert_allclose(block, gate, rtol=0, atol=1e-10)


@pytest.mark.parametrize("source", sorted(BLOCK_SOURCES))
def test_block_engine_equals_row_layout_reference(source):
    """Columns of U^j|va> and a transform along the contiguous axis give the
    same bits as rows, a transform along axis 0 and a transposed copy."""
    rng = np.random.default_rng(71)
    l_system, source_kw = BLOCK_SOURCES[source](rng)
    va = load_amplitudes(l_system, ref.random_state(l_system, rng))
    config = PhaseEstimationConfig(m_index=5, **source_kw)
    for corrupt in (False, True):
        got = pe._block_engine_state(va, config, corrupt).amplitudes
        want = ref.row_engine_state(va.amplitudes, pe._system_step(config), 32, corrupt)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("corrupt", [False, True])
def test_block_engine_holds_two_states(traced_peak, corrupt):
    rng = np.random.default_rng(72)
    config = unitary_config(ref.random_unitary(8, rng), 12, power_method="block")
    va = load_amplitudes(3, ref.random_state(3, rng))
    state_bytes = 16 * 2**config.layout.total_qubits
    state, peak = traced_peak(lambda: pe._block_engine_state(va, config, corrupt))
    assert state.amplitudes.nbytes == state_bytes
    assert peak <= 2.05 * state_bytes


# ---------------------------------------------------------------------------
# readout distribution law


def test_on_grid_eigenvector_reads_exact_bin():
    config = unitary_config(np.diag([1, 1j]), 2)  # omega = pi/2 = 2pi/4
    dist = pre_measurement_distribution(load_amplitudes(1, [0, 1]), config)
    np.testing.assert_allclose(dist, [0, 1, 0, 0], atol=1e-12)


def test_on_grid_weights_are_guess_overlaps():
    # two on-grid phases 0 and pi/2; weights must equal |c_k|^2 exactly
    config = unitary_config(np.diag([1, 1j]), 2)
    va = load_amplitudes(1, np.sqrt([0.25, 0.75]))
    dist = pre_measurement_distribution(va, config)
    np.testing.assert_allclose(dist, [0.25, 0.75, 0, 0], atol=1e-10)


def test_analytic_distribution_on_grid_delta():
    dist = analytic_bin_distribution([(1.0, 2 * np.pi * 3 / 8)], 3)
    want = np.zeros(8)
    want[3] = 1.0
    np.testing.assert_allclose(dist, want, atol=1e-12)


def test_analytic_distribution_half_bin_value():
    # omega = 2*pi*1.5/8 splits evenly between bins 1 and 2; the value is
    # 1/(64 sin^2(pi/16)), frozen below from the direct geometric sum.
    dist = analytic_bin_distribution([(1.0, 2 * np.pi * 1.5 / 8)], 3)
    assert dist[1] == pytest.approx(0.41053347451700289, abs=1e-14)
    assert dist[2] == pytest.approx(0.41053347451700289, abs=1e-14)
    assert dist[0] == pytest.approx(0.050622325138180442, abs=1e-14)
    assert dist[5] == pytest.approx(0.016243220779634086, abs=1e-14)
    assert dist.sum() == pytest.approx(1.0, abs=1e-10)


def test_analytic_distribution_matches_direct_sum():
    rng = np.random.default_rng(60)
    for m_index in (2, 4, 6):
        weights = rng.dirichlet(np.ones(3))
        omegas = rng.uniform(0, 2 * np.pi, size=3)
        got = analytic_bin_distribution(list(zip(weights, omegas)), m_index)
        want = ref.dirichlet_distribution(weights, omegas, m_index)
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert got.sum() == pytest.approx(1.0, abs=1e-10)


def test_analytic_distribution_rejects_bad_weights():
    with pytest.raises(ValueError):
        analytic_bin_distribution([(0.7, 1.0)], 3)


def test_distribution_law_random_instances():
    """Exact simulator distribution == closed form, across evolution drivers."""
    rng = np.random.default_rng(61)
    for trial in range(4):
        l_system = int(rng.integers(1, 4))
        m_index = int(rng.integers(2, 7))
        t = float(rng.uniform(0.3, 2.0))
        h = HamiltonianSum(
            [LocalTerm(list(range(l_system)), ref.random_hermitian(2**l_system, rng))],
            l_system,
        )
        va = load_amplitudes(l_system, ref.random_state(l_system, rng))
        config = PhaseEstimationConfig(
            m_index=m_index, unitary=exact_unitary(h, t), time=t
        )
        got = pre_measurement_distribution(va, config)
        comps = spectral_components(va, eigendecompose(ref.embed_kron(
            h.terms[0].matrix, list(range(l_system)), l_system)), t)
        want = analytic_bin_distribution(comps, m_index)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_distribution_law_grid_recipe_route():
    recipe = build_grid_particle(3, "harmonic:0.8,3.5", 1.0)
    t, m_index, slices = 0.4, 4, 12
    config = PhaseEstimationConfig(
        m_index=m_index,
        source=recipe,
        time=t,
        slices=slices,
    )
    va = load_amplitudes(3, np.full(8, 1 / math.sqrt(8)))
    got = pre_measurement_distribution(va, config)
    # reference route: dense per-slice step, powered classically, fed through
    # an explicit inverse DFT on the index register
    u = np.linalg.matrix_power(recipe.step_matrix(t / slices), slices)
    M = 2**m_index
    branches = np.array(
        [np.linalg.matrix_power(u, p) @ va.amplitudes for p in range(M)]
    )  # [index value p, system basis state]
    final = ref.dft_matrix(M).conj() @ branches / math.sqrt(M)
    want = (np.abs(final) ** 2).sum(axis=1)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_analytic_collapsed_states_match_dirichlet_reference():
    rng = np.random.default_rng(62)
    l_system, m_index, t = 2, 4, 0.7
    decomposition = eigendecompose(ref.random_hermitian(4, rng))
    va = load_amplitudes(l_system, ref.random_state(l_system, rng))
    M = 2**m_index
    got = analytic_collapsed_states(va, decomposition, t, m_index, range(M))
    coefficients = decomposition.eigenvectors.conj().T @ va.amplitudes
    omegas = np.mod(-decomposition.eigenvalues * t, 2 * np.pi)
    for j in range(M):
        want = sum(
            c * ref.dirichlet_amplitude(omega, j, M) * decomposition.eigenvectors[:, k]
            for k, (c, omega) in enumerate(zip(coefficients, omegas))
        )
        want /= np.linalg.norm(want)
        np.testing.assert_allclose(got[j], want, atol=1e-12)


@pytest.mark.parametrize("m_index", [1, 4, 8, 10])
def test_dirichlet_amplitude_matches_direct_sum(m_index):
    M = 2**m_index
    step = 2 * np.pi / M
    rng = np.random.default_rng(63 + m_index)
    omegas = [
        3 * step % (2 * np.pi),  # exactly on a bin
        step + 1e-13,  # just off a bin
        (M - 1) * step - 1e-13,
        2 * np.pi - 1e-13,  # wraps to bin 0
        0.0,
        *rng.uniform(0, 2 * np.pi, 3),
    ]
    bins = np.arange(M) if M <= 16 else np.unique(
        np.concatenate([[0, 1, 2, 3, M - 2, M - 1], rng.integers(0, M, 10)])
    )
    for omega in omegas:
        got = pe._dirichlet_amplitude(omega - step * bins, M)
        want = [ref.dirichlet_amplitude(omega, int(j), M) for j in bins]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_analytic_collapsed_states_refuse_non_finite_time():
    va = load_amplitudes(1, [1.0, 0.0])
    decomposition = eigendecompose(np.diag([0.0, 1.0]))
    for t in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            analytic_collapsed_states(va, decomposition, t, 3, [0])


def test_analytic_collapsed_states_refuse_non_finite_eigenphase():
    va = load_amplitudes(1, [1.0, 0.0])
    decomposition = SpectralDecomposition(np.array([np.nan, 1.0]), np.eye(2))
    with pytest.raises(ValueError, match="finite"):
        analytic_collapsed_states(va, decomposition, 0.5, 3, [0])


def test_analytic_collapsed_states_refuse_zero_norm_bin():
    # a decomposition whose vectors miss the guess entirely: every overlap is 0
    va = load_amplitudes(1, [1.0, 0.0])
    decomposition = SpectralDecomposition(
        np.array([0.0, 1.0]), np.array([[0.0, 0.0], [1.0, 1.0]])
    )
    with pytest.raises(ValueError, match="bin 2"):
        analytic_collapsed_states(va, decomposition, 0.5, 3, [2])


# ---------------------------------------------------------------------------
# energy mapping


def test_phase_to_energy_examples():
    t = np.pi / 4
    assert phase_to_energy(7 * np.pi / 4, t) == pytest.approx(1.0, abs=1e-12)
    assert phase_to_energy(np.pi / 4, t) == pytest.approx(-1.0, abs=1e-12)
    assert phase_to_energy(0.0, 0.9) == 0.0


def test_phase_to_energy_window():
    t = 0.5
    edge = phase_to_energy(np.pi, t)  # maps to the inclusive +pi/t edge
    assert edge == pytest.approx(np.pi / t, abs=1e-12)
    for omega in np.linspace(0, 2 * np.pi, 17)[:-1]:
        e = phase_to_energy(float(omega), t)
        assert -np.pi / t < e <= np.pi / t + 1e-12
        # round trip: (-E t) mod 2pi recovers omega
        assert np.mod(-e * t, 2 * np.pi) == pytest.approx(omega % (2 * np.pi), abs=1e-9)


def test_phase_to_energy_rejects_zero_time():
    with pytest.raises(ValueError):
        phase_to_energy(1.0, 0.0)


# ---------------------------------------------------------------------------
# end-to-end single runs


def test_run_on_grid_eigenvector():
    config = unitary_config(np.diag([1, 1j]), 2, trials=1, seed=3)
    sample = run_phase_estimation(load_amplitudes(1, [0, 1]), config)
    assert sample.bin == 1
    assert sample.phase == pytest.approx(np.pi / 2, abs=1e-12)
    np.testing.assert_allclose(np.abs(sample.collapsed_state.amplitudes), [0, 1],
                               atol=1e-9)


def test_run_balanced_superposition_collapses_cleanly():
    va = load_amplitudes(1, np.sqrt([0.5, 0.5]))
    seen = set()
    for seed in range(12):
        cfg = unitary_config(np.diag([1, 1j]), 2, seed=seed)
        sample = run_phase_estimation(va, cfg)
        assert sample.bin in (0, 1)
        target = np.zeros(2)
        target[sample.bin] = 1.0
        np.testing.assert_allclose(np.abs(sample.collapsed_state.amplitudes),
                                   target, atol=1e-9)
        seen.add(sample.bin)
    assert seen == {0, 1}  # both outcomes occur across seeds


def test_run_pauli_z_energy_recovery():
    h = HamiltonianSum([LocalTerm([0], ref.Z)], 1)
    t = np.pi / 4
    config = PhaseEstimationConfig(m_index=3, unitary=exact_unitary(h, t),
                                   time=t, seed=5)
    sample = run_phase_estimation(load_amplitudes(1, [1, 0]), config)
    assert sample.bin == 7
    assert sample.phase == pytest.approx(7 * np.pi / 4, abs=1e-12)
    assert sample.energy == pytest.approx(1.0, abs=1e-9)


def test_run_reproduces_first_spectrum_trial():
    rng = np.random.default_rng(62)
    u = ref.random_unitary(2, rng)
    va = load_amplitudes(1, ref.random_state(1, rng))
    config = unitary_config(u, 3, trials=5, seed=77)
    single = run_phase_estimation(va, config)
    batch = sample_spectrum(va, config)
    assert single.bin == batch.samples[0].bin


@pytest.mark.parametrize("seed", range(20))
def test_single_trial_is_the_first_batch_trial(seed):
    # the single trial reads out and collapses exactly as the batch does
    h = build_transverse_ising(3, 1.0, 0.6)
    config = PhaseEstimationConfig(m_index=5, unitary=exact_unitary(h, 0.5), time=0.5,
                                   trials=3, seed=seed, power_method="block")
    va = load_amplitudes(3, ref.random_state(3, np.random.default_rng(seed)))
    single = run_phase_estimation(va, config)
    first = sample_spectrum(va, config).samples[0]
    assert single.bin == first.bin
    assert np.array_equal(single.collapsed_state.amplitudes, first.collapsed_state.amplitudes)


def test_single_trial_holds_two_states(traced_peak):
    rng = np.random.default_rng(73)
    config = unitary_config(ref.random_unitary(8, rng), 12, power_method="block", seed=4)
    va = load_amplitudes(3, ref.random_state(3, rng))
    state_bytes = 16 * 2**config.layout.total_qubits
    _, peak = traced_peak(lambda: run_phase_estimation(va, config))
    assert peak <= 2.05 * state_bytes


# ---------------------------------------------------------------------------
# sampling statistics


def test_sample_spectrum_deterministic_single_peak():
    config = unitary_config(np.diag([1, 1j]), 3, trials=64, seed=1)
    result = sample_spectrum(load_amplitudes(1, [0, 1]), config)
    assert result.histogram.counts[2] == 64  # omega = pi/2 -> bin 2 of 8
    assert result.histogram.counts.sum() == 64
    assert result.peaks == [(2, 1.0)]


def test_sample_spectrum_born_weights_within_3_sigma():
    config = unitary_config(np.diag([1, 1j]), 2, trials=4000, seed=11)
    va = load_amplitudes(1, np.sqrt([0.25, 0.75]))
    result = sample_spectrum(va, config)
    freqs = result.histogram.empirical_probs
    for weight, b in ((0.25, 0), (0.75, 1)):
        sigma = math.sqrt(weight * (1 - weight) / 4000)
        assert abs(freqs[b] - weight) <= 3 * sigma


def test_sample_spectrum_off_grid_chi_squared():
    omega = 2 * np.pi * 1.37 / 8
    config = unitary_config(np.diag([1.0, np.exp(1j * omega)]), 3,
                            trials=10000, seed=9)
    result = sample_spectrum(load_amplitudes(1, [0, 1]), config)
    expected = analytic_bin_distribution([(1.0, omega)], 3) * 10000
    _, p_value = scipy.stats.chisquare(result.histogram.counts, expected)
    assert p_value > 0.001


def test_peaks_sorted_and_thresholded():
    config = unitary_config(np.diag([1, 1j]), 2, trials=4000, seed=2)
    va = load_amplitudes(1, np.sqrt([0.25, 0.75]))
    result = sample_spectrum(va, config, threshold=0.1)
    assert [b for b, _ in result.peaks] == [1, 0]
    probs = [p for _, p in result.peaks]
    assert probs == sorted(probs, reverse=True)
    assert all(p >= 0.1 for p in probs)
    assert len(result.eigenvectors) == len(result.peaks)

    nothing = sample_spectrum(va, config, threshold=1.1)
    assert nothing.peaks == []
    assert nothing.eigenvectors == []


def test_default_threshold_rule():
    assert default_peak_threshold(100) == pytest.approx(0.4)
    assert default_peak_threshold(10**6) == pytest.approx(0.05)


def test_threshold_validation():
    config = unitary_config(np.diag([1, 1j]), 2, trials=4, seed=0)
    va = load_amplitudes(1, [0, 1])
    with pytest.raises(ValueError):
        sample_spectrum(va, config, threshold=0.0)
    with pytest.raises(ValueError):
        sample_spectrum(va, config, threshold=-0.2)


@pytest.mark.parametrize("threshold", [-1.0, math.nan, 0.0, math.inf])
def test_bad_threshold_refused_before_any_work(monkeypatch, threshold):
    def forbidden(*args, **kwargs):
        raise AssertionError("sample_spectrum did work before checking the threshold")

    monkeypatch.setattr(pe, "pre_measurement_state", forbidden)
    monkeypatch.setattr(sv, "uniform_draws", forbidden)
    monkeypatch.setattr(sv, "_trial_uniform_blocks", forbidden)
    config = unitary_config(np.diag([1, 1j]), 2, trials=4, seed=0)
    with pytest.raises(ValueError, match="threshold"):
        sample_spectrum(load_amplitudes(1, [0, 1]), config, threshold=threshold)


# ---------------------------------------------------------------------------
# collapse quality


def test_collapse_fidelity_on_grid_distinct_spectrum():
    # 2-qubit unitary with four distinct on-grid phases at M=8
    phases = 2 * np.pi * np.array([0, 2, 5, 7]) / 8
    rng = np.random.default_rng(64)
    basis = ref.random_unitary(4, rng)
    u = (basis * np.exp(1j * phases)) @ basis.conj().T
    config = unitary_config(u, 3, trials=100, seed=31)
    va = load_amplitudes(2, basis @ np.sqrt([0.4, 0.3, 0.2, 0.1]))
    result = sample_spectrum(va, config, threshold=0.05)
    by_bin = {0: 0, 2: 1, 5: 2, 7: 3}
    for sample in result.samples:
        k = by_bin[sample.bin]
        overlap = abs(np.vdot(basis[:, k], sample.collapsed_state.amplitudes)) ** 2
        assert overlap >= 1 - 1e-9


def test_eigenvector_fidelity_bounds():
    rng = np.random.default_rng(65)
    mat = ref.random_hermitian(4, rng)
    h = HamiltonianSum([LocalTerm([0, 1], mat)], 2)
    d = eigendecompose(mat)
    exact_vec = load_amplitudes(2, d.eigenvectors[:, 1])
    assert eigenvector_fidelity(exact_vec, h, float(d.eigenvalues[1]), 1e-6) == (
        pytest.approx(1.0, abs=1e-10)
    )
    orthogonal = load_amplitudes(2, d.eigenvectors[:, 2])
    assert eigenvector_fidelity(orthogonal, h, float(d.eigenvalues[1]), 1e-6) == (
        pytest.approx(0.0, abs=1e-10)
    )
    with pytest.raises(ValueError):
        eigenvector_fidelity(exact_vec, h, 1e6, 1e-6)
    assert eigenvector_fidelity(exact_vec, d, float(d.eigenvalues[1]), 1e-6) == (
        pytest.approx(1.0, abs=1e-10)
    )


def test_resolution_improves_with_index_register():
    """Peak-bin phase error stays below one bin width as m grows."""
    omega = 2.0  # fixed off-grid phase
    u = np.diag([1.0, np.exp(1j * omega)])
    for m_index in range(4, 9):
        config = unitary_config(u, m_index)
        dist = pre_measurement_distribution(load_amplitudes(1, [0, 1]), config)
        M = 2**m_index
        peak = int(np.argmax(dist))
        err = abs(2 * np.pi * peak / M - omega)
        err = min(err, 2 * np.pi - err)
        assert err <= 2 * np.pi / M


def test_work_register_must_be_clean_for_collapse():
    """A flag-loop run leaves the work qubit disentangled; collapse verifies it."""
    rng = np.random.default_rng(66)
    u = ref.random_unitary(2, rng)
    config = unitary_config(u, 2, power_method="flag_loop", trials=8, seed=4)
    va = load_amplitudes(1, ref.random_state(1, rng))
    result = sample_spectrum(va, config)  # passes the internal residue check
    assert result.histogram.counts.sum() == 8
    for sample in result.samples:
        assert sample.collapsed_state.num_qubits == 1


def test_collapse_rejects_work_register_residue_in_any_bin():
    layout = RegisterLayout(1, 1, 1)  # qubits: [index, system, work]
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = math.sqrt(1 - 1e-6)
    amps[0b101] = 1e-3  # work qubit set, in bin 1 rather than the collapsed bin 0
    with pytest.raises(ContractViolation):
        pe._collapse_bins(load_amplitudes(3, amps), layout, [0])


# ---------------------------------------------------------------------------
# non-finite values fail closed


def unchecked_state(amps):
    """A state that skips the constructor's norm check, to carry NaN past it."""
    state = StateVector.__new__(StateVector)
    state.num_qubits = len(amps).bit_length() - 1
    state.amplitudes = np.asarray(amps, dtype=complex)
    return state


def test_prepare_rejects_nan_index_residue():
    layout = RegisterLayout(1, 1, 0)
    with pytest.raises(ValueError, match="index register"):
        prepare_index_superposition(unchecked_state([1.0, np.nan, 0.0, 0.0]), layout)


def test_flag_residue_check_rejects_nan(monkeypatch):
    config = unitary_config(np.eye(2), 1, power_method="flag_loop")
    layout = config.layout
    state = prepare_index_superposition(lift([1, 0], layout), layout)
    flip = pe._flip_flag_where_index_ge
    calls = []

    def flip_then_poison_last(state, layout, threshold):
        out = flip(state, layout, threshold)
        calls.append(threshold)
        if len(calls) < 2 * layout.num_bins:
            return out
        amps = out.amplitudes.copy()
        amps[1 << layout.work_qubits[0]] = np.nan
        return unchecked_state(amps)

    monkeypatch.setattr(pe, "_flip_flag_where_index_ge", flip_then_poison_last)
    with pytest.raises(ContractViolation, match="flag qubit"):
        apply_conditional_powers_flag_loop(state, config)


@pytest.mark.parametrize(
    "components",
    [[(np.nan, 0.0)], [(1.0, np.nan)], [(0.5, 0.0), (np.nan, 1.0)], [(1.0, np.inf)]],
)
def test_analytic_distribution_rejects_non_finite_components(components):
    with pytest.raises(ValueError, match="finite"):
        analytic_bin_distribution(components, 3)


# ---------------------------------------------------------------------------
# vectorized draws and the result record


def test_samples_are_built_from_bins_on_demand():
    rng = np.random.default_rng(67)
    u = ref.random_unitary(2, rng)
    config = unitary_config(u, 3, trials=200, seed=8)
    result = sample_spectrum(load_amplitudes(1, ref.random_state(1, rng)), config)
    assert result.bins.shape == (200,)
    assert not result.bins.flags.writeable
    populated = [int(b) for b in np.nonzero(result.histogram.counts)[0]]
    assert sorted(result.collapsed_states) == populated
    samples = result.samples
    assert [s.bin for s in samples] == result.bins.tolist()
    for s in samples:
        assert s.collapsed_state is result.collapsed_states[s.bin]
        assert s.phase == 2.0 * math.pi * s.bin / 8
        assert s.energy == phase_to_energy(s.phase, 1.0)
    for (b, _), vec in zip(result.peaks, result.eigenvectors):
        assert vec is result.collapsed_states[b]


def test_sample_spectrum_builds_no_per_trial_streams(monkeypatch):
    def forbidden(*args):
        raise AssertionError("sample_spectrum built a per-trial generator")

    monkeypatch.setattr(sv, "trial_stream", forbidden)
    config = unitary_config(np.diag([1, 1j]), 2, trials=500, seed=3)
    result = sample_spectrum(load_amplitudes(1, np.sqrt([0.25, 0.75])), config)
    assert result.histogram.counts.sum() == 500


@pytest.mark.parametrize("trials", [19, 20, 21])
def test_blocked_draws_equal_one_pass(monkeypatch, trials):
    """Bins and counts drawn in blocks of 5 equal one pass over all trials."""
    monkeypatch.setattr(sv, "DRAW_CHUNK", 5)
    rng = np.random.default_rng(73)
    config = unitary_config(
        ref.random_unitary(4, rng), 3, power_method="block", trials=trials, seed=2**40 + 3
    )
    va = load_amplitudes(2, ref.random_state(2, rng))
    result = sample_spectrum(va, config)
    cumulative = np.cumsum(pre_measurement_distribution(va, config))
    want = sv._draw_from_cumulative(cumulative, sv.uniform_draws(config.seed, np.arange(trials)))
    assert np.array_equal(result.bins, want)
    assert np.array_equal(result.histogram.counts, np.bincount(want, minlength=8))


@pytest.mark.parametrize("m_index, dtype", [(8, np.uint8), (9, np.uint16), (17, np.uint32)])
def test_bins_use_the_narrowest_unsigned_dtype(m_index, dtype):
    config = unitary_config(np.diag([1, -1j]), m_index, power_method="block", trials=50, seed=4)
    result = sample_spectrum(load_amplitudes(1, np.sqrt([0.5, 0.5])), config)
    assert result.bins.dtype == dtype
    assert not result.bins.flags.writeable
    assert sorted(set(result.bins.tolist())) == [0, 3 * 2 ** (m_index - 2)]


def test_sample_spectrum_holds_about_one_byte_per_trial(traced_peak):
    trials = 2**20
    config = unitary_config(
        np.diag([1, np.exp(0.7j)]), 8, power_method="block", trials=trials, seed=5
    )
    va = load_amplitudes(1, np.sqrt([0.3, 0.7]))
    result, peak = traced_peak(lambda: sample_spectrum(va, config))
    assert result.histogram.counts.sum() == trials
    assert peak <= trials + 2 * 2**20


# ---------------------------------------------------------------------------
# runs assembled from config dicts, audited in process


@pytest.mark.parametrize("problem", [
    {"problem": "tfim", "sites": 3, "field": 0.7},
    {"problem": "grid", "system_qubits": 3, "potential": "harmonic:0.8,3.5", "time": 0.4},
    {"problem": "explicit_terms", "system_qubits": 2,
     "terms": [{"support": [0], "matrix": [[0, [0, -1]], [[0, 1], 0]]},
               {"support": [0, 1], "matrix": [[1, 0, 0, 0], [0, -1, 0, 0],
                                              [0, 0, -1, 0], [0, 0, 0, 1]]}]},
], ids=["tfim", "grid", "explicit_terms"])
@pytest.mark.parametrize("route", ["block", "flag_loop"])
def test_run_from_config_passes_audit(problem, route):
    run = pe.Run({"m_index": 4, "time": 0.5, "power_method": route, **problem})
    report = pe.audit(run)
    assert report.distribution_deviation <= 1e-10
    assert report.route_deviation <= 1e-10
    assert report.worst_fidelity >= 1 - 1e-9
    assert report.worst_bin >= 0
    assert report.other_route == ("binary_power" if route == "block" else "block")


def test_audit_runs_exact_evolution_for_a_sliced_run():
    sliced = pe.Run({"problem": "tfim", "sites": 3, "m_index": 4, "time": 0.5, "slices": 2})
    assert sliced.config.source is not None
    exact = pe.Run({"problem": "tfim", "sites": 3, "m_index": 4, "time": 0.5})
    assert pe.audit(sliced) == pe.audit(exact)


def test_audit_catches_a_reversed_readout():
    run = pe.Run({"problem": "explicit_terms", "system_qubits": 1, "m_index": 3, "time": 0.8,
                  "terms": [{"support": [0], "matrix": [[0.7, 0.9], [0.9, -0.1]]}]})
    with pytest.raises(pe.AuditFailure, match="distribution check"):
        pe.audit(run, _corrupt_qft_sign=True)


def test_run_records_its_resolved_config():
    run = pe.Run({"problem": "tfim", "sites": 2, "field": 0.5, "m_index": 3, "time": 0.5,
                  "trials": 16, "out": "ignored"})
    assert run.resolved_config() == {
        "problem": "tfim", "sites": 2, "field": 0.5, "m_index": 3, "time": 0.5,
        "slices": "exact", "trials": 16, "seed": 0, "power_method": "block",
        "threshold": 1.0, "guess": "plus",
    }
    assert run.config.source is None  # exact mode: U = e^{-iHt} from the decomposition


@pytest.mark.parametrize("cfg, key", [
    ({"sites": 3, "m_index": 3, "time": 0.5, "trails": 1}, "trails"),
    ({"sites": 3, "m_index": 3}, "time"),
    ({"sites": 3, "m_index": 3, "time": 0.5, "threshold": 0}, "threshold"),
    ({"sites": 3, "m_index": 3, "time": 0.5, "coupling": 10**400}, "coupling"),
    ({"sites": 3, "m_index": 3, "time": 1e308}, "time"),
])
def test_run_refuses_before_any_work(monkeypatch, cfg, key):
    def forbidden(*args, **kwargs):
        raise AssertionError("the run did work before refusing its config")

    monkeypatch.setattr(oracle, "eigendecompose", forbidden)
    with pytest.raises(ConfigFieldError) as excinfo:
        pe.Run({"problem": "tfim", **cfg})
    assert excinfo.value.field == key


def test_audit_refuses_problems_without_a_dense_reference(monkeypatch):
    unitary = pe.Run({"problem": "explicit_unitary", "unitary": [[1, 0], [0, 1]],
                      "m_index": 2, "time": 1.0})
    with pytest.raises(ConfigFieldError, match="Hamiltonian-bearing") as excinfo:
        pe.audit(unitary)
    assert excinfo.value.field == "problem"
    monkeypatch.setattr(oracle, "eigendecompose", None)  # must not be reached
    big = pe.Run({"problem": "explicit_terms", "system_qubits": 13, "m_index": 1,
                  "time": 0.5, "slices": 1,
                  "terms": [{"support": [12], "matrix": [[1, 0], [0, -1]]}]})
    with pytest.raises(ConfigFieldError, match="12 qubits") as excinfo:
        pe.audit(big)
    assert excinfo.value.field == "system_qubits"
