"""Estimation pipeline: conditional powers, readout law, sampling, collapse."""

import copy
import math
import pickle

import numpy as np
import pytest
import scipy.stats

import reference as ref
from spectral_qpe import hamiltonian as ham
from spectral_qpe import oracle
from spectral_qpe import phase_estimation as pe
from spectral_qpe import statevector as sv
from spectral_qpe import (
    ConfigFieldError,
    ContractViolation,
    GateMatrix,
    GridRecipe,
    HamiltonianSum,
    LocalTerm,
    PhaseEstimationConfig,
    RegisterLayout,
    SpectralDecomposition,
    analytic_bin_distribution,
    analytic_collapsed_states,
    apply_conditional_powers_binary,
    apply_conditional_powers_flag_loop,
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
    qft_forward,
    qft_inverse,
    sample_spectrum,
    spectral_amplitudes,
)


def unitary_config(matrix, m_index, *, time=1.0, power_method="binary_power", **kw):
    gate = matrix if isinstance(matrix, GateMatrix) else GateMatrix(matrix)
    return PhaseEstimationConfig(
        m_index=m_index, unitary=gate, time=time, power_method=power_method, **kw
    )


def lift(va_amps, layout):
    """Place system amplitudes above a cleared index register."""
    full = np.zeros(2**layout.total_qubits, dtype=complex)
    full[np.arange(len(va_amps)) << layout.m_index] = va_amps
    return load_amplitudes(layout.total_qubits, full)


def spread(va_amps, layout):
    """The index register's Hadamard layer beside the guess ``va_amps``."""
    return prepare_index_superposition(load_amplitudes(layout.l_system, va_amps), layout)


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


def test_config_layout_is_the_same_on_every_route():
    """No route adds a work qubit: the comparator loop runs on the index and
    system registers like the others."""
    for method in pe.POWER_METHODS:
        config = PhaseEstimationConfig(
            m_index=2,
            unitary=GateMatrix(np.eye(2)),
            time=1.0,
            power_method=method,
        )
        assert config.layout == RegisterLayout(2, 1)
        assert config.layout.total_qubits == 3
    with pytest.raises(AttributeError):
        config.layout = RegisterLayout(2, 2)


def test_config_replace_validates_a_new_config():
    config = PhaseEstimationConfig(m_index=2, unitary=GateMatrix(np.eye(2)), time=1.0, trials=5)
    wider = config.replace(m_index=3, time=2)
    assert (wider.m_index, wider.time, wider.trials) == (3, 2.0, 5)
    assert type(wider.time) is float
    assert wider.layout == RegisterLayout(3, 1)
    assert config.layout == RegisterLayout(2, 1)
    with pytest.raises(ConfigFieldError) as excinfo:
        config.replace(trials=0)
    assert excinfo.value.field == "trials"
    with pytest.raises(ValueError, match="exactly one of"):
        config.replace(decomposition=eigendecompose(np.diag([1.0, -1.0])))


def test_records_copy_and_pickle():
    config = PhaseEstimationConfig(m_index=2, decomposition=eigendecompose(np.diag([1.0, -1.0])),
                                   time=1.0, trials=3)
    for copied in (copy.copy(config), copy.deepcopy(config), pickle.loads(pickle.dumps(config))):
        assert (copied.m_index, copied.time, copied.trials) == (2, 1.0, 3)
        assert copied.layout == config.layout == RegisterLayout(2, 1)
        np.testing.assert_array_equal(copied.decomposition.eigenvalues, [-1.0, 1.0])
        with pytest.raises(AttributeError):
            copied.trials = 4


def test_records_holding_arrays_compare_by_identity():
    """``==`` on a decomposition, a result or a config returns a bool, and
    each hashes: equal to itself alone, whatever the arrays it holds."""
    matrix = np.diag([1.0, -1.0])
    first, second = eigendecompose(matrix), eigendecompose(matrix)
    config = PhaseEstimationConfig(m_index=2, decomposition=first, time=1.0, trials=4)
    twin = config.replace(decomposition=second)
    va = load_amplitudes(1, [1.0, 0.0])
    for record, other in [(first, second), (config, twin),
                          (sample_spectrum(va, config), sample_spectrum(va, config))]:
        assert (record == record) is True
        assert (record == other) is False
        assert (record != other) is True
        assert hash(record) == hash(record)
        with pytest.raises(AttributeError):
            setattr(record, record.__slots__[0], None)


def test_config_defaults_to_block_engine_and_rejects_unknown_routes():
    config = PhaseEstimationConfig(m_index=2, unitary=GateMatrix(np.eye(2)), time=1.0)
    assert config.power_method == "block"
    with pytest.raises(ValueError):
        PhaseEstimationConfig(m_index=2, unitary=GateMatrix(np.eye(2)),
                              time=1.0, power_method="dense")


def test_config_dimension_and_trials_checks():
    two_qubit = PhaseEstimationConfig(m_index=2, unitary=GateMatrix(np.eye(4)), time=1.0)
    assert two_qubit.layout == RegisterLayout(2, 2)
    h = HamiltonianSum([LocalTerm([0], ref.Z)], 3)
    assert PhaseEstimationConfig(
        m_index=2, source=h, time=1.0
    ).layout == RegisterLayout(2, 3)
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
    with pytest.raises(ConfigFieldError, match=f"must be <= {pe.MAX_TRIALS}") as excinfo:
        PhaseEstimationConfig(
            m_index=1, unitary=GateMatrix(np.eye(2)), time=1.0, trials=pe.MAX_TRIALS + 1
        )
    assert excinfo.value.field == "trials"


def test_config_slice_count_checks():
    h = HamiltonianSum([LocalTerm([0], ref.Z)], 1)
    for bad_slices, wording in ((0, "must be >= 1"), (2.5, "expected an integer")):
        with pytest.raises(ConfigFieldError, match=wording) as excinfo:
            PhaseEstimationConfig(m_index=2, source=h, time=1.0, slices=bad_slices)
        assert excinfo.value.field == "slices"
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
    with pytest.raises(ConfigFieldError, match="must be finite") as excinfo:
        PhaseEstimationConfig(m_index=2, time=bad_time, **source_kw)
    assert excinfo.value.field == "time"


def test_config_seed_must_fit_in_64_bits():
    gate = GateMatrix(np.eye(2))
    for bad_seed in (-1, -3, 2**64):
        with pytest.raises(ConfigFieldError, match="must be [<>]= ") as excinfo:
            PhaseEstimationConfig(m_index=2, unitary=gate, time=1.0, seed=bad_seed)
        assert excinfo.value.field == "seed"
    for seed in (0, 2**64 - 1):
        assert PhaseEstimationConfig(
            m_index=2, unitary=gate, time=1.0, seed=seed
        ).seed == seed


def sliced_tfim3_kwargs(**overrides):
    return dict(dict(m_index=3, source=build_transverse_ising(3, 1.0, 0.7), time=0.5,
                     slices=2, trials=4, seed=0), **overrides)


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", True), ("seed", None), ("trials", 2.0), ("trials", True),
    ("trials", None), ("m_index", 2.0), ("m_index", None), ("slices", True),
    ("slices", 2.5), ("slices", None), ("time", "0.5"), ("time", None), ("threshold", True),
], ids=repr)
def test_library_run_types_each_value_before_any_work(monkeypatch, field, value):
    """A config built directly, and the threshold ``sample_spectrum`` takes,
    refuse each value the CLI refuses, naming the same field, before the
    pre-measurement state is built; a bool is not taken for an integer."""
    def forbidden(*args, **kwargs):
        raise AssertionError(f"the run started before {field}={value!r} was refused")

    monkeypatch.setattr(pe, "pre_measurement_state", forbidden)
    va = load_amplitudes(3, np.full(8, 8**-0.5))
    with pytest.raises(ConfigFieldError) as excinfo:
        if field == "threshold":
            sample_spectrum(va, PhaseEstimationConfig(**sliced_tfim3_kwargs()), threshold=value)
        else:
            sample_spectrum(va, PhaseEstimationConfig(**sliced_tfim3_kwargs(**{field: value})))
    assert excinfo.value.field == field


def test_config_takes_numpy_integers_as_ints():
    typed = PhaseEstimationConfig(**sliced_tfim3_kwargs(
        m_index=np.int64(3), slices=np.int64(2), trials=np.int32(4), seed=np.uint64(9)))
    fields = ("m_index", "slices", "trials", "seed")
    assert [type(getattr(typed, key)) for key in fields] == [int] * 4
    assert [getattr(typed, key) for key in fields] == [3, 2, 4, 9]
    assert type(PhaseEstimationConfig(**sliced_tfim3_kwargs(time=1)).time) is float


# ---------------------------------------------------------------------------
# pipeline stages


def test_prepare_uniform_superposition():
    layout = RegisterLayout(3, 1)
    state = spread([0.0, 1.0], layout)
    # all 8 index amplitudes equal 1/sqrt(8) on the |1> system branch
    amps = state.amplitudes.reshape(2, 8)  # [system, index]
    np.testing.assert_allclose(np.abs(amps[1]), 1 / math.sqrt(8), atol=1e-12)
    np.testing.assert_allclose(amps[0], 0, atol=1e-15)


@pytest.mark.parametrize("m_index, l_system", [(1, 1), (3, 2), (7, 3), (10, 2)])
def test_prepare_is_the_per_qubit_hadamard_layer(m_index, l_system):
    """The one-pass spread of the guess equals the reference's Hadamard
    gates on the lifted register, one per index qubit, to 1e-15 per
    amplitude, and the package's own gate layer bit for bit."""
    layout = RegisterLayout(m_index, l_system)
    va = ref.random_state(l_system, np.random.default_rng(30 + m_index))
    got = spread(va, layout).amplitudes
    lifted = lift(va, layout)
    want = ref.hadamard_layer(lifted.amplitudes, layout.index_qubits)
    assert np.abs(got - want).max() <= 1e-15
    gated = lifted
    for qubit in layout.index_qubits:
        gated = sv.apply_gate(gated, sv.hadamard(), [qubit])
    assert np.array_equal(got, gated.amplitudes)


def test_prepare_refuses_a_guess_off_the_system_register():
    layout = RegisterLayout(2, 2)
    for qubits in (1, 3, layout.total_qubits):
        with pytest.raises(ValueError, match="system register has 2"):
            prepare_index_superposition(new_basis_state(qubits, 0), layout)


def test_prepare_holds_its_output(traced_peak):
    """The spread holds its output state and one 2^l column (M = 1024); a
    Hadamard gate per index qubit on the lifted register held three states."""
    layout = RegisterLayout(10, 4)
    va = load_amplitudes(4, ref.random_state(4, np.random.default_rng(31)))
    state, peak = traced_peak(lambda: prepare_index_superposition(va, layout))
    assert peak <= 1.05 * state.amplitudes.nbytes


def test_flag_loop_identity_unitary_leaves_state():
    config = unitary_config(np.eye(2), 2, power_method="flag_loop")
    state = spread([0, 1], config.layout)
    out = apply_conditional_powers_flag_loop(state, config)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)


def test_flag_loop_entangles_index_with_applied_x():
    config = unitary_config(ref.X, 1, power_method="flag_loop")
    state = spread([1, 0], config.layout)
    out = apply_conditional_powers_flag_loop(state, config)
    # qubits: [index, system]; expect (|0>|0> + |1>|1>)/sqrt(2)
    want = np.zeros(4, dtype=complex)
    want[0b000] = want[0b011] = 1 / math.sqrt(2)
    np.testing.assert_allclose(out.amplitudes, want, atol=1e-12)


def test_binary_powers_diagonal_phase_accumulation():
    theta = 0.9
    config = unitary_config(np.diag([1, np.exp(1j * theta)]), 2)
    state = spread([0, 1], config.layout)
    out = apply_conditional_powers_binary(state, config)
    sys_one = out.amplitudes[np.arange(4) + 4]  # system |1> branch, index j
    want = np.exp(1j * theta * np.arange(4)) / 2
    np.testing.assert_allclose(sys_one, want, atol=1e-12)


@pytest.mark.parametrize("m_index", [1, 2, 5])
def test_binary_route_squares_a_dense_unitary_once_per_later_index_qubit(monkeypatch, m_index):
    """On a dense U the binary route takes U and its squares from
    ``_unitary_squares`` and applies each through the gate kernel as drawn:
    it squares m - 1 times, and the check of each square by ``_near_unitary``
    is its only one (m - 1 ``unitarity_defect`` calls, no ``GateMatrix``),
    made on the very matrix applied; U goes under index qubit 0 as given."""
    rng = np.random.default_rng(95)
    config = unitary_config(ref.random_unitary(4, rng), m_index)
    state = spread(ref.random_state(2, rng), config.layout)
    snapped, checked, applied = [], [], []
    near_unitary, defect, apply_matrix = sv._near_unitary, sv.unitarity_defect, sv._apply_matrix

    def snap(matrix):
        snapped.append(near_unitary(matrix))
        return snapped[-1]

    def apply(amps, q, matrix, targets, controls=()):
        applied.append(matrix)
        return apply_matrix(amps, q, matrix, targets, controls)

    def unbuilt(matrix):
        raise AssertionError("the binary route built a GateMatrix")

    monkeypatch.setattr(sv, "_near_unitary", snap)
    monkeypatch.setattr(sv, "unitarity_defect", lambda matrix: checked.append(matrix) or defect(matrix))
    monkeypatch.setattr(sv, "_apply_matrix", apply)
    monkeypatch.setattr(sv, "GateMatrix", unbuilt)
    apply_conditional_powers_binary(state, config)
    assert len(snapped) == len(checked) == m_index - 1
    assert len(applied) == m_index and applied[0] is config.unitary.matrix
    assert all(a is s is c for a, s, c in zip(applied[1:], snapped, checked))


def test_dense_binary_route_holds_no_copy_of_a_square(traced_peak):
    """Beyond its input (U and the state) the binary route holds the square
    it applies, the next one as it is built and the gate kernel's operand
    and output (2.9 dense matrices of 2^8 at M = 64); a gate copy of each
    square held one more (3.9)."""
    rng = np.random.default_rng(97)
    config = unitary_config(ref.random_unitary(2**8, rng), 6)
    state = spread(ref.random_state(8, rng), config.layout)
    _, peak = traced_peak(lambda: apply_conditional_powers_binary(state, config))
    assert peak <= 3.25 * config.unitary.matrix.nbytes


@pytest.mark.parametrize("source", [
    pytest.param(lambda: build_transverse_ising(3, 1.0, 0.7), id="tfim3"),
    pytest.param(lambda: GridRecipe(3, "harmonic:0.8,3.5", 1.0), id="grid3"),
])
def test_sliced_binary_route_builds_its_slice_gates_once(monkeypatch, source):
    """A sliced source's (M - 1) * slices gate-level steps all run at one
    dt, so a run builds the slice gates once."""
    built = []
    monkeypatch.setattr(ham, "slice_gates",
                        lambda h, dt, build=ham.slice_gates: built.append(dt) or build(h, dt))
    config = PhaseEstimationConfig(m_index=4, source=source(),
                                   time=0.5, slices=3, power_method="binary_power")
    va = load_amplitudes(3, ref.random_state(3, np.random.default_rng(96)))
    pre_measurement_state(va, config)
    assert built == [0.5 / 3]


@pytest.mark.parametrize("m_index", [1, 2, 3])
def test_conditional_powers_match_dense_reference(m_index):
    rng = np.random.default_rng(40 + m_index)
    u = ref.random_unitary(2, rng)
    va = ref.random_state(1, rng)
    config = unitary_config(u, m_index, power_method="flag_loop")
    state = spread(va, config.layout)
    out = apply_conditional_powers_flag_loop(state, config)
    M = 2**m_index
    for j in range(M):
        got = out.amplitudes[j + (np.arange(2) << m_index)]
        want = np.linalg.matrix_power(u, j) @ va / math.sqrt(M)
        np.testing.assert_allclose(got, want, atol=1e-10)


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
    """Each step of the flipped reference loop, U on the raised window only,
    equals U on the whole flag-set slab between masked flips to 1e-14 per
    amplitude, and so do the whole reference loop and the dense loop on the
    flag-clear half; both references return the flag-set half to zero."""
    config = unitary_config(gate, m_index, power_method="flag_loop")
    layout = config.layout
    rng = np.random.default_rng(82 + m_index)
    prepared = spread(ref.random_state(layout.l_system, rng), layout)
    flag = layout.total_qubits  # the reference circuits' flag, on top
    index_values = sv.register_values(flag + 1, layout.index_qubits)
    args = (gate.matrix, layout.l_system, layout.num_bins)
    step_args = (lambda block: gate.matrix @ block,) + args[1:]
    state = reference = ref.with_flag(prepared.amplitudes)
    for i in range(1, layout.num_bins + 1):
        raised = ref.masked_flag_flip(state, index_values, flag, i)
        want = ref.masked_flag_flip(ref.full_slab_flag_step(raised, *args),
                                    index_values, flag, i)
        state = ref.flipped_flag_step(state, *step_args, i)
        assert np.abs(state - want).max() <= 1e-14, i
        reference = ref.masked_flag_flip(reference, index_values, flag, i)
        reference = ref.full_slab_flag_step(reference, *args)
        reference = ref.masked_flag_flip(reference, index_values, flag, i)
    out = apply_conditional_powers_flag_loop(prepared, config).amplitudes
    half = out.size
    assert not state[half:].any() and not reference[half:].any()
    assert np.array_equal(out, state[:half])
    assert np.abs(out - reference[:half]).max() <= 1e-14


@pytest.mark.parametrize("gate, m_index", [
    pytest.param(exact_unitary(build_transverse_ising(4, 1.0, 0.7), 0.5), 8, id="tfim4-m8"),
    pytest.param(GateMatrix(ref.random_unitary(8, np.random.default_rng(85))), 5,
                 id="random3-m5"),
])
def test_dense_flag_loop_is_bit_identical_to_flipped_steps(gate, m_index):
    """The in-place window step writes exactly what flip, U on the raised
    window and flip write on the flag-clear half of the reference's flag
    register, whose flag-set half ends zero, with M far above 2^l and on a
    complex 3-qubit U (the cases of :func:`flag_loop_cases` are checked
    above)."""
    config = unitary_config(gate, m_index, power_method="flag_loop")
    layout = config.layout
    rng = np.random.default_rng(86 + m_index)
    prepared = spread(ref.random_state(layout.l_system, rng), layout)
    out = apply_conditional_powers_flag_loop(prepared, config).amplitudes
    want = ref.flipped_flag_loop(ref.with_flag(prepared.amplitudes),
                                 lambda block: gate.matrix @ block,
                                 layout.l_system, layout.num_bins)
    assert not want[out.size:].any()
    assert np.array_equal(out, want[: out.size])


def unsorted_terms():
    """Three Hermitian terms on 3 qubits, two of them on unsorted supports."""
    pair = [[1, 0, 0, 0.5], [0, -1, 0.3, 0], [0, 0.3, 0.2, 0], [0.5, 0, 0, 0.7]]
    triple = 0.4 * np.eye(8) + 0.1 * (np.eye(8, k=3) + np.eye(8, k=-3))
    return HamiltonianSum([LocalTerm([1, 0], np.array(pair)), LocalTerm([2, 0, 1], triple),
                           LocalTerm([2], ref.X)], 3)


def sliced_flag_loop_cases():
    """(source, m_index, time, slices): TFIM chains, grid particles (diagonal
    phases and QFTs) and unsorted term supports."""
    tfim3 = build_transverse_ising(3, 1.0, 0.7)
    return [pytest.param(tfim3, m, 0.5, 3, id=f"tfim3-m{m}") for m in (2, 3, 4)] + [
        pytest.param(build_transverse_ising(4, 1.0, 0.7), 8, 0.5, 2, id="tfim4-m8"),
        pytest.param(GridRecipe(3, "harmonic:0.8,3.5", 1.0), 4, 0.4, 4, id="grid3"),
        pytest.param(GridRecipe(4, "harmonic:0.8,3.5", 1.0), 5, 0.4, 2, id="grid4"),
        pytest.param(unsorted_terms(), 4, 0.5, 2, id="terms3-unsorted"),
    ]


@pytest.mark.parametrize("source, m_index, time, slices", sliced_flag_loop_cases())
def test_sliced_flag_loop_is_bit_identical_to_flipped_steps(monkeypatch, source, m_index,
                                                           time, slices):
    """A source's loop writes exactly what flip, the source's
    ``system_step`` on the raised window and flip write on the flag-clear
    half of the reference's flag register, and agrees to 1e-12 per amplitude
    with flip, gate-level steps under the flag over the whole flag register
    and flip (a grid's ``system_step`` is its dense slice power, and a term
    source's gates see a column window, not the whole register, so the
    rounding differs); both references return the flag-set half to zero.
    The loop applies U only through ``system_step``, never through the
    gate-level ``apply_step``."""
    config = PhaseEstimationConfig(m_index=m_index, source=source, time=time, slices=slices,
                                   power_method="flag_loop")
    layout = config.layout
    rng = np.random.default_rng(89 + m_index)
    prepared = spread(ref.random_state(layout.l_system, rng), layout)

    def forbidden_step(self, *args):
        raise AssertionError("the flag loop ran a gate-level step")

    with monkeypatch.context() as patch:
        patch.setattr(type(source), "apply_step", forbidden_step)
        out = apply_conditional_powers_flag_loop(prepared, config).amplitudes
    half = out.size
    flagged = ref.with_flag(prepared.amplitudes)
    want = ref.flipped_flag_loop(flagged, source.system_step(time / slices, slices),
                                 layout.l_system, layout.num_bins)
    assert not want[half:].any()
    assert np.array_equal(out, want[:half])
    gate_level = ref.flipped_source_flag_loop(flagged, source, time / slices, slices, layout)
    assert not gate_level[half:].any()
    assert np.abs(out - gate_level[:half]).max() <= 1e-12


@pytest.mark.parametrize("gate, m_index", flag_loop_cases())
def test_flag_step_carries_columns_below_the_window(gate, m_index):
    """On a flag register whose flag is set at every index value, each
    flipped step leaves the flag-set half and the flag-clear columns below
    the threshold bit for bit and multiplies the rest by U; the loop, run on
    the flag-clear half alone, writes what the flipped steps write there,
    and the flipped loop carries the flag-set half through unchanged."""
    config = unitary_config(gate, m_index, power_method="flag_loop")
    layout = config.layout
    rng = np.random.default_rng(83 + m_index)
    clear = ref.random_state(layout.total_qubits, rng)
    amps = np.concatenate([clear, ref.random_state(layout.total_qubits, rng)])
    shape = (2, 2**layout.l_system, layout.num_bins)
    args = (lambda block: gate.matrix @ block, layout.l_system, layout.num_bins)
    before = amps.reshape(shape)
    for i in range(layout.num_bins + 1):
        after = ref.flipped_flag_step(amps, *args, i).reshape(shape)
        assert np.array_equal(after[1], before[1])
        assert np.array_equal(after[0, :, :i], before[0, :, :i])
        window = gate.matrix @ before[0, :, i:]
        assert np.abs(after[0, :, i:] - window).max(initial=0.0) <= 1e-14
    want = ref.flipped_flag_loop(amps, *args).reshape(shape)
    assert np.array_equal(want[1], before[1])
    out = apply_conditional_powers_flag_loop(load_amplitudes(layout.total_qubits, clear),
                                             config).amplitudes
    assert np.array_equal(out, want[0].ravel())
    assert np.array_equal(out.reshape(shape[1:])[:, 0], before[0, :, 0])


def drifted_gate(matrix, drift):
    """A validated gate whose matrix is then replaced by ``drift(matrix)``."""
    gate = GateMatrix(matrix)
    gate.matrix = drift(gate.matrix)
    return gate


def nan_diagonal(values):
    """``values``, a matrix or the diagonal of one, with NaN on that diagonal."""
    if values.ndim == 1:
        return np.full_like(values, np.nan)
    return np.where(np.eye(len(values), dtype=bool), np.nan, values)


@pytest.mark.parametrize("exact", [False, True], ids=["dense", "exact"])
@pytest.mark.parametrize("drift", [
    pytest.param(lambda u: (1 + 1e-7) * u, id="norm-drift"),
    pytest.param(nan_diagonal, id="nan"),
])
def test_flag_loop_refuses_a_drifting_unitary_at_that_step(monkeypatch, drift, exact):
    """Each step norm-checks the whole state, so a U that drifts past
    NORM_TOL, or holds a NaN, is refused at the first step whose state is
    off (step 7 of 15 for the drift, step 1 for the NaN), not at the end.
    The drift is put on a dense U's matrix, or in exact mode on the
    eigenphase factors e^{-iEt} that the loop multiplies its eigenbasis
    window by."""
    rng = np.random.default_rng(87)
    if exact:
        decomposition = eigendecompose(ref.random_hermitian(2, rng))
        config = PhaseEstimationConfig(m_index=4, decomposition=decomposition, time=0.5,
                                       power_method="flag_loop")
        phases = SpectralDecomposition.evolution_phases
        monkeypatch.setattr(SpectralDecomposition, "evolution_phases",
                            lambda self, t: drift(phases(self, t)))
        drifted = decomposition.evolution_phases(config.time)[:, None]

        def step(block):
            return decomposition.from_eigenbasis(drifted * decomposition.to_eigenbasis(block))
    else:
        gate = drifted_gate(ref.random_unitary(2, rng), drift)
        config = unitary_config(gate, 4, power_method="flag_loop")

        def step(block):
            return gate.matrix @ block
    layout = config.layout
    state = spread([0.6, 0.8], layout)
    amps, first_off = ref.with_flag(state.amplitudes), None
    for i in range(1, layout.num_bins):
        amps = ref.flipped_flag_step(amps, step, 1, layout.num_bins, i)
        if first_off is None and not (abs(np.vdot(amps, amps).real - 1.0) <= sv.NORM_TOL):
            first_off = i
    norms = []
    check = sv._check_norm

    def recording_check(amps):
        norms.append(float(np.vdot(amps, amps).real))
        check(amps)

    monkeypatch.setattr(sv, "_check_norm", recording_check)
    with pytest.raises(ContractViolation, match="norm drifted"):
        apply_conditional_powers_flag_loop(state, config)
    assert len(norms) == first_off == (1 if drift is nan_diagonal else 7)
    assert all(abs(n - 1.0) <= sv.NORM_TOL for n in norms[:-1])


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
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_dense_powers_are_validated_once(monkeypatch):
    """U was validated with the config and is applied as given; the binary
    route builds each higher power once, as the square of the one before,
    and it is validated once, when it is built: ``unitarity_defect`` runs on
    U^2 and U^4 alone, and no ``GateMatrix`` copies either."""
    rng = np.random.default_rng(71)
    u = ref.random_unitary(2, rng)
    config = unitary_config(u, 3)
    state = spread(ref.random_state(1, rng), config.layout)
    checked, constructed = [], []

    class CountingGate(GateMatrix):
        def __init__(self, matrix):
            constructed.append(np.array(matrix))
            super().__init__(matrix)

    want = state
    for qubit, power in enumerate((1, 2, 4)):
        want = sv.apply_controlled_gate(
            want, GateMatrix(np.linalg.matrix_power(u, power)), [qubit], [3]
        )
    defect = sv.unitarity_defect
    monkeypatch.setattr(sv, "unitarity_defect",
                        lambda matrix: checked.append(np.array(matrix)) or defect(matrix))
    monkeypatch.setattr(sv, "GateMatrix", CountingGate)
    got = pe.apply_conditional_powers_binary(state, config)
    np.testing.assert_allclose(got.amplitudes, want.amplitudes, atol=1e-12)
    assert constructed == []
    assert len(checked) == 2  # U^2 and U^4
    for matrix, power in zip(checked, (2, 4)):
        np.testing.assert_allclose(matrix, np.linalg.matrix_power(u, power), atol=1e-12)


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
        3, dict(source=GridRecipe(3, "harmonic:0.8,3.5", 1.0),
                time=0.4, slices=4)),
    "mixed_kinds": lambda rng: (
        3, dict(source=HamiltonianSum([LocalTerm([2, 0], ref.random_hermitian(4, rng)),
                                       ham.DiagonalTerm(rng.normal(size=8)),
                                       ham.DiagonalTerm(rng.normal(size=8), momentum=True)], 3),
                time=0.4, slices=3)),
}


@pytest.mark.parametrize("source", sorted(BLOCK_SOURCES))
def test_block_engine_matches_gate_route(source):
    """The engine's one-step operator for each source type reproduces the
    gate-level binary-power state."""
    rng = np.random.default_rng(70)
    l_system, source_kw = BLOCK_SOURCES[source](rng)
    va = load_amplitudes(l_system, ref.random_state(l_system, rng))
    block, gate = (
        pre_measurement_state(
            va, PhaseEstimationConfig(m_index=4, power_method=method, **source_kw)
        ).amplitudes
        for method in ("block", "binary_power")
    )
    np.testing.assert_allclose(block, gate, rtol=0, atol=1e-10)


GATE_ROUTE_SOURCES = {
    **BLOCK_SOURCES,
    "exact_decomposition": lambda rng: (
        3, dict(decomposition=eigendecompose(ref.tfim_dense(3, 1.0, 0.7)), time=0.5)),
}


@pytest.mark.parametrize("m_index", [4, 5])
@pytest.mark.parametrize("route", ["binary_power", "flag_loop"])
@pytest.mark.parametrize("source", sorted(GATE_ROUTE_SOURCES))
def test_gate_routes_start_with_the_lifted_hadamard_layer(source, route, m_index):
    """Each gate route's state is, bit for bit, the guess lifted above a
    cleared index register, one Hadamard gate per index qubit, the route's
    conditional powers and the inverse QFT, on exact evolution, explicit
    unitaries and sliced sources; an odd ``m_index`` leaves a factor
    1/sqrt(2) that is no power of two."""
    rng = np.random.default_rng(75 + m_index)
    l_system, source_kw = GATE_ROUTE_SOURCES[source](rng)
    va = ref.random_state(l_system, rng)
    config = PhaseEstimationConfig(m_index=m_index, power_method=route, **source_kw)
    layout = config.layout
    state = lift(va, layout)
    for qubit in layout.index_qubits:
        state = sv.apply_gate(state, sv.hadamard(), [qubit])
    powers = (apply_conditional_powers_flag_loop if route == "flag_loop"
              else apply_conditional_powers_binary)
    want = qft_inverse(powers(state, config), layout.index_qubits)
    got = pre_measurement_state(load_amplitudes(l_system, va), config)
    assert got.amplitudes.tobytes() == want.amplitudes.tobytes()


@pytest.mark.parametrize("route", pe.POWER_METHODS)
@pytest.mark.parametrize("source", sorted(BLOCK_SOURCES))
def test_negated_bins_are_the_forward_qft_readout(source, route):
    """Each route's state with its bins negated is the gate-level readout by
    the forward QFT instead of the inverse, the audit's reversed readout."""
    rng = np.random.default_rng(73)
    l_system, source_kw = BLOCK_SOURCES[source](rng)
    va = load_amplitudes(l_system, ref.random_state(l_system, rng))
    config = PhaseEstimationConfig(m_index=4, power_method=route, **source_kw)
    layout = config.layout
    state = spread(va.amplitudes, layout)
    want = qft_forward(apply_conditional_powers_binary(state, config), layout.index_qubits)
    got = pe._negated_bins(pre_measurement_state(va, config), layout)
    assert np.abs(got.amplitudes - want.amplitudes).max() <= 1e-10


@pytest.mark.parametrize("source", sorted(BLOCK_SOURCES))
def test_block_engine_equals_row_layout_reference(source):
    """Columns of U^j|va> and a transform along the contiguous axis give the
    same bits as rows, a transform along axis 0 and a transposed copy."""
    rng = np.random.default_rng(71)
    l_system, source_kw = BLOCK_SOURCES[source](rng)
    va = load_amplitudes(l_system, ref.random_state(l_system, rng))
    config = PhaseEstimationConfig(m_index=5, **source_kw)
    got = pe._block_engine_state(va, config).amplitudes
    want = ref.row_engine_state(va.amplitudes, pe._step_map(config), 32)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("rows", [None, 3, 1, 0],
                         ids=["one-block", "short-last-block", "one-row", "row-past-block"])
@pytest.mark.parametrize("source", sorted(BLOCK_SOURCES))
def test_block_engine_readout_is_the_whole_array_fft(monkeypatch, source, rows):
    """The readout transforms the columns in place, a block of rows at a
    time (all rows at once, three rows with a short last block, or one row,
    also when one row alone is longer than a block), with the bits of one
    whole-array FFT divided by M."""
    rng = np.random.default_rng(74)
    l_system, source_kw = BLOCK_SOURCES[source](rng)
    va = load_amplitudes(l_system, ref.random_state(l_system, rng))
    config = PhaseEstimationConfig(m_index=5, **source_kw)
    block = 32 * (2**l_system if rows is None else rows) or 8
    monkeypatch.setattr(sv, "_BLOCK_ENTRIES", block)
    want = np.fft.fft(pe._power_columns(va, config)) / 32
    assert np.array_equal(pe._block_engine_state(va, config).amplitudes, want.reshape(-1))


def one_state_and_a_phase_block(state_bytes):
    """Bytes of one state plus one block of the eigenbasis engine's phase
    table (``sv._BLOCK_ENTRIES`` complex entries), the two buffers of
    ``np.getbufsize()`` float64 entries each that numpy's ufuncs take to
    broadcast, and 64 KiB for index arrays and small objects."""
    return state_bytes + 16 * sv._BLOCK_ENTRIES + 16 * np.getbufsize() + 2**16


def test_block_engine_holds_one_state(traced_peak):
    """The transform runs in place, so the engine holds the columns alone."""
    rng = np.random.default_rng(72)
    config = unitary_config(ref.random_unitary(8, rng), 12, power_method="block")
    va = load_amplitudes(3, ref.random_state(3, rng))
    state_bytes = 16 * 2**config.layout.total_qubits
    state, peak = traced_peak(lambda: pe._block_engine_state(va, config))
    assert state.amplitudes.nbytes == state_bytes
    assert peak <= one_state_and_a_phase_block(state_bytes)


def test_dense_flag_loop_holds_two_states(traced_peak):
    """Beyond its input the dense loop holds its one writable copy and the
    window's product, at most one state more, however many steps it runs
    (M = 1024 here)."""
    gate = exact_unitary(build_transverse_ising(4, 1.0, 0.7), 0.5)
    config = unitary_config(gate, 10, time=0.5, power_method="flag_loop")
    layout = config.layout
    va = ref.random_state(4, np.random.default_rng(88))
    state = spread(va, layout)
    out, peak = traced_peak(lambda: apply_conditional_powers_flag_loop(state, config))
    assert out.amplitudes.nbytes == state.amplitudes.nbytes
    assert peak <= 2.05 * state.amplitudes.nbytes


EXACT_FLAG_LOOP_CASES = {
    "tfim4": {"problem": "tfim", "sites": 4, "field": 0.7},
    "complex_terms": {"problem": "explicit_terms", "system_qubits": 3, "terms": [
        {"support": [0, 1], "matrix": [[0.3, [0, -0.5], 0.2, 0], [[0, 0.5], -0.1, 0, [0.4, 0.1]],
                                       [0.2, 0, 0.6, [0, 0.7]], [0, [0.4, -0.1], [0, -0.7], -0.8]]},
        {"support": [2], "matrix": [[0.2, [0, -1]], [[0, 1], -0.4]]},
        {"support": [1, 2], "matrix": [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]}]},
    "tfim4-field0": {"problem": "tfim", "sites": 4, "field": 0.0},
}


@pytest.mark.parametrize("name", sorted(EXACT_FLAG_LOOP_CASES))
def test_exact_flag_loop_matches_dense_comparator_loop(name):
    """In the eigenbasis the loop agrees to 1e-12 per amplitude with the
    flipped comparator loop stepping the dense U from the same
    decomposition, on a real V (TFIM-4), a complex V (complex explicit
    terms) and a degenerate spectrum (TFIM-4 at field 0)."""
    run = pe.Run({"m_index": 6, "time": 0.5, "power_method": "flag_loop",
                  **EXACT_FLAG_LOOP_CASES[name]})
    config, layout = run.config, run.config.layout
    decomposition = config.decomposition
    assert (decomposition.eigenvectors.dtype == np.float64) == (name != "complex_terms")
    if name == "tfim4-field0":
        assert len(ref.degenerate_groups(decomposition.eigenvalues, 1e-8)) < decomposition.dim
    rng = np.random.default_rng(87)
    prepared = spread(ref.random_state(layout.l_system, rng), layout)
    out = apply_conditional_powers_flag_loop(prepared, config).amplitudes
    u = ham.unitary_from_decomposition(decomposition, config.time).matrix
    want = ref.flipped_flag_loop(ref.with_flag(prepared.amplitudes), lambda block: u @ block,
                                 layout.l_system, layout.num_bins)
    assert not want[out.size:].any()
    assert np.abs(out - want[: out.size]).max() <= 1e-12


@pytest.mark.parametrize("real", [True, False], ids=["real_tfim6", "complex_terms6"])
def test_exact_flag_loop_holds_two_states(traced_peak, real):
    """In the eigenbasis the loop holds, beyond its input, the eigenbasis
    columns and its output (a complex V's conjugated operand and product
    before that), at most two states however many steps it runs (M =
    1024).  Each window multiply also takes numpy's three ufunc buffers of
    ``np.getbufsize()`` complex entries, 0.375 states at l = 6."""
    if real:
        dense = ref.tfim_dense(6, 1.0, 0.7)
    else:
        rng = np.random.default_rng(92)
        dense = HamiltonianSum([LocalTerm([0, 2, 4], ref.random_hermitian(8, rng)),
                                LocalTerm([1, 3, 5], ref.random_hermitian(8, rng)),
                                LocalTerm([2, 3], ref.random_hermitian(4, rng))],
                               6).dense_hamiltonian()
    decomposition = eigendecompose(dense)
    assert (decomposition.eigenvectors.dtype == np.float64) == real
    config = PhaseEstimationConfig(m_index=10, decomposition=decomposition, time=0.5,
                                   power_method="flag_loop")
    layout = config.layout
    va = ref.random_state(layout.l_system, np.random.default_rng(91))
    state = spread(va, layout)
    out, peak = traced_peak(lambda: apply_conditional_powers_flag_loop(state, config))
    assert out.amplitudes.nbytes == state.amplitudes.nbytes
    assert peak <= 2.05 * state.amplitudes.nbytes


def test_sliced_flag_loop_holds_four_states(traced_peak):
    """Beyond its input the sliced loop holds its one writable copy and,
    while a gate runs on the first step's window, up to three states: the
    previous gate's output, the operand copy and the product (M = 1024).
    A first run fills the slice-gate cache and the interpreter's free lists
    for the small objects each gate call makes (about 0.9 states on a cold
    interpreter), so the traced run counts only what the loop holds."""
    config = PhaseEstimationConfig(m_index=10, source=build_transverse_ising(3, 1.0, 0.7),
                                   time=0.5, slices=1, power_method="flag_loop")
    layout = config.layout
    va = ref.random_state(3, np.random.default_rng(89))
    state = spread(va, layout)
    apply_conditional_powers_flag_loop(state, config)
    out, peak = traced_peak(lambda: apply_conditional_powers_flag_loop(state, config))
    assert out.amplitudes.nbytes == state.amplitudes.nbytes
    assert peak <= 4.1 * state.amplitudes.nbytes


def test_grid_flag_loop_holds_two_states(traced_peak):
    """A grid source's step is one dense slice power times the window, so
    beyond its input the loop holds its one writable copy and the product,
    at most one state (M = 256, two slices)."""
    grid = GridRecipe(4, "harmonic:0.8,3.5", 1.0)
    config = PhaseEstimationConfig(m_index=8, source=grid, time=0.4, slices=2,
                                   power_method="flag_loop")
    layout = config.layout
    va = ref.random_state(4, np.random.default_rng(90))
    state = spread(va, layout)
    out, peak = traced_peak(lambda: apply_conditional_powers_flag_loop(state, config))
    assert out.amplitudes.nbytes == state.amplitudes.nbytes
    assert peak <= 2.15 * state.amplitudes.nbytes


def spectral_case(name):
    """(dense H, t) for the eigenbasis engine: a real TFIM, complex Hermitian
    terms (complex eigenvectors) and a degenerate spectrum."""
    if name == "real_tfim":
        return ref.tfim_dense(3, 1.0, 0.7), 0.5
    if name == "complex_terms":
        rng = np.random.default_rng(90)
        terms = [LocalTerm([0, 1], ref.random_hermitian(4, rng)),
                 LocalTerm([2], np.array([[0.2, -1j], [1j, -0.4]]))]
        return HamiltonianSum(terms, 3).dense_hamiltonian(), 0.7
    # Eigenvalues -1 (x3), 0.5 (x3), 2 (x2) in a random complex eigenbasis.
    w = ref.random_unitary(8, np.random.default_rng(91))
    return (w * np.array([-1, -1, -1, 0.5, 0.5, 0.5, 2, 2])) @ w.conj().T, 0.6


SPECTRAL_CASES = ["real_tfim", "complex_terms", "degenerate"]


@pytest.mark.parametrize("name", SPECTRAL_CASES)
def test_eigenbasis_columns_match_repeated_multiplication(name):
    """Column j of the exact-evolution engine equals U^j|va>, U = e^{-iHt}
    from scipy's expm applied j times, to 1e-12 per amplitude."""
    dense, t = spectral_case(name)
    decomposition = eigendecompose(dense)
    real = name == "real_tfim"
    assert (decomposition.eigenvectors.dtype == np.float64) == real
    if name == "degenerate":
        groups = ref.degenerate_groups(decomposition.eigenvalues, 1e-8)
        assert sorted(len(g) for g in groups) == [2, 3, 3]
    va = load_amplitudes(3, ref.random_state(3, np.random.default_rng(92)))
    config = PhaseEstimationConfig(m_index=6, decomposition=decomposition, time=t)
    got = pe._power_columns(va, config)
    want = ref.repeated_powers(ref.exact_evolution(dense, t), va.amplitudes, 64)
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("name", SPECTRAL_CASES)
def test_eigenbasis_engine_matches_gate_route(name):
    """The engine in the eigenbasis and the binary route on the dense U built
    from the same decomposition agree per amplitude."""
    dense, t = spectral_case(name)
    va = load_amplitudes(3, ref.random_state(3, np.random.default_rng(93)))
    block, gate = (
        pre_measurement_state(
            va,
            PhaseEstimationConfig(m_index=5, decomposition=eigendecompose(dense),
                                  time=t, power_method=method),
        ).amplitudes
        for method in ("block", "binary_power")
    )
    np.testing.assert_allclose(block, gate, rtol=0, atol=1e-10)


def test_eigenbasis_columns_span_several_phase_blocks(monkeypatch):
    """Blocks of columns, the last one short, give the columns of one block."""
    dense, t = spectral_case("complex_terms")
    config = PhaseEstimationConfig(m_index=5, decomposition=eigendecompose(dense), time=t)
    va = load_amplitudes(3, ref.random_state(3, np.random.default_rng(94)))
    whole = pe._power_columns(va, config)
    monkeypatch.setattr(sv, "_BLOCK_ENTRIES", 8 * 3)  # 3 columns a block
    np.testing.assert_allclose(pe._power_columns(va, config), whole, rtol=0, atol=1e-15)


def check_eigenbasis_engine_holds_one_state(traced_peak, dense, t):
    """The phase table is built a block of columns at a time, V multiplies
    it without a copy of V, and the transform runs in place, so the engine
    holds the columns and one block of the table (M = 2^14)."""
    decomposition = eigendecompose(dense)
    l_system = decomposition.num_qubits
    config = PhaseEstimationConfig(m_index=14, decomposition=decomposition, time=t)
    va = load_amplitudes(l_system, ref.random_state(l_system, np.random.default_rng(95)))
    state_bytes = 16 * 2**config.layout.total_qubits
    state, peak = traced_peak(lambda: pe._block_engine_state(va, config))
    assert state.amplitudes.nbytes == state_bytes
    assert peak <= one_state_and_a_phase_block(state_bytes)


def test_eigenbasis_engine_holds_one_state(traced_peak):
    check_eigenbasis_engine_holds_one_state(traced_peak, ref.tfim_dense(4, 1.0, 0.7), 0.5)


def test_complex_eigenbasis_engine_holds_one_state(traced_peak):
    check_eigenbasis_engine_holds_one_state(traced_peak, *spectral_case("complex_terms"))


def test_config_takes_one_unitary_source():
    """A decomposition is a third, exclusive way to give U; its layout has
    log2(dim) system qubits, and it takes no slices."""
    decomposition = eigendecompose(ref.tfim_dense(3, 1.0, 0.7))
    config = PhaseEstimationConfig(m_index=2, decomposition=decomposition, time=0.5)
    assert config.layout == RegisterLayout(2, 3)
    with pytest.raises(ValueError, match="exactly one"):
        PhaseEstimationConfig(m_index=2, decomposition=decomposition,
                              unitary=GateMatrix(np.eye(8)), time=0.5)
    with pytest.raises(ConfigFieldError, match="slices"):
        PhaseEstimationConfig(m_index=2, decomposition=decomposition, time=0.5, slices=2)


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
    dist = analytic_bin_distribution([1.0], [2 * np.pi * 3 / 8], 3)
    want = np.zeros(8)
    want[3] = 1.0
    np.testing.assert_allclose(dist, want, atol=1e-12)


def test_analytic_distribution_half_bin_value():
    # omega = 2*pi*1.5/8 splits evenly between bins 1 and 2; the value is
    # 1/(64 sin^2(pi/16)), frozen below from the direct geometric sum.
    dist = analytic_bin_distribution([1.0], [2 * np.pi * 1.5 / 8], 3)
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
        got = analytic_bin_distribution(weights, omegas, m_index)
        want = ref.dirichlet_distribution(weights, omegas, m_index)
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert got.sum() == pytest.approx(1.0, abs=1e-10)


def test_analytic_distribution_rejects_bad_weights():
    with pytest.raises(ValueError):
        analytic_bin_distribution([0.7], [1.0], 3)


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
        overlaps, phases = spectral_amplitudes(va, eigendecompose(ref.embed_kron(
            h.terms[0].matrix, list(range(l_system)), l_system)), t)
        want = analytic_bin_distribution(np.abs(overlaps) ** 2, phases, m_index)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_distribution_law_grid_recipe_route():
    recipe = GridRecipe(3, "harmonic:0.8,3.5", 1.0)
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
    overlaps, phases = spectral_amplitudes(va, decomposition, t)
    got = analytic_collapsed_states(overlaps, phases, decomposition, m_index, range(M))
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
        (got,) = pe._dirichlet_amplitude(np.array([omega]), bins, M)
        want = [ref.dirichlet_amplitude(omega, int(j), M) for j in bins]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("m_index", [1, 4, 10])
@pytest.mark.parametrize("shape", ["one row", "one bin", "rows by bins"])
def test_dirichlet_kernel_is_the_whole_array_formula(m_index, shape):
    """Written step by step into its own arrays, the kernel equals the
    whole-array closed form bit for bit, the sine ratio and the amplitude,
    on and next to the grid and across the wrap at 2*pi."""
    M = 2**m_index
    step = 2 * np.pi / M
    rng = np.random.default_rng(64 + m_index)
    phases = np.concatenate([
        step * np.arange(0, M, max(1, M // 8)),  # on the grid
        [step + 1e-13, 2 * np.pi - 1e-13, 0.0],
        rng.uniform(0, 2 * np.pi, 20),
    ])
    bins = np.arange(M)
    if shape == "one row":
        phases = phases[-1:]
    elif shape == "one bin":
        bins = bins[-1:]
    ratio, amplitude = ref.dirichlet_closed_form(phases[:, None] - step * bins[None, :], M)
    assert np.array_equal(pe._dirichlet_amplitude(phases, bins, M, phase=False), ratio)
    assert np.array_equal(pe._dirichlet_amplitude(phases, bins, M), amplitude)


def test_audit_holds_a_few_states(traced_peak):
    """The bench oracle-audit run (TFIM-7, 128 bins, flag loop) stays under
    six states of 2^14 amplitudes: the closed forms write into their own
    arrays and the second route's state is dropped once compared (with
    whole-array temporaries it peaked at 7.7, in the collapse predictions)."""
    run = pe.Run({"problem": "tfim", "sites": 7, "m_index": 7, "time": 0.25,
                  "power_method": "flag_loop"})
    report, peak = traced_peak(lambda: pe.audit(run))
    assert report.worst_bin >= 0
    assert peak < 6 * 16 * 2**run.config.layout.total_qubits


@pytest.mark.parametrize("power_method", ["block", "flag_loop"])
def test_audit_derives_one_spectral_record(monkeypatch, power_method):
    """Both closed forms of one audit read one spectral record: the guess
    meets V^dag once, in one ``spectral_amplitudes`` call."""
    calls = []
    amplitudes = oracle.spectral_amplitudes

    def counted(*args):
        calls.append(1)
        return amplitudes(*args)

    monkeypatch.setattr(oracle, "spectral_amplitudes", counted)
    run = pe.Run({"problem": "tfim", "sites": 3, "m_index": 4, "time": 0.5,
                  "power_method": power_method})
    assert pe.audit(run).worst_bin >= 0
    assert len(calls) == 1


def test_analytic_collapsed_states_refuse_non_finite_eigenphase():
    va = load_amplitudes(1, [1.0, 0.0])
    decomposition = SpectralDecomposition(np.array([np.nan, 1.0]), np.eye(2))
    overlaps, phases = spectral_amplitudes(va, decomposition, 0.5)
    with pytest.raises(ValueError, match="finite"):
        analytic_collapsed_states(overlaps, phases, decomposition, 3, [0])


def test_analytic_collapsed_states_refuse_zero_norm_bin():
    # a decomposition whose vectors miss the guess entirely: every overlap is 0
    va = load_amplitudes(1, [1.0, 0.0])
    decomposition = SpectralDecomposition(
        np.array([0.0, 1.0]), np.array([[0.0, 0.0], [1.0, 1.0]])
    )
    overlaps, phases = spectral_amplitudes(va, decomposition, 0.5)
    with pytest.raises(ValueError, match="bin 2"):
        analytic_collapsed_states(overlaps, phases, decomposition, 3, [2])


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


def first_trial(va, config):
    """Trial 0 of ``sample_spectrum`` run on one trial: its bin, the bin's
    phase 2*pi*bin/M, the energy estimate and the collapsed state."""
    result = sample_spectrum(va, config.replace(trials=1))
    bin_index = int(result.bins[0])
    phase = 2.0 * math.pi * bin_index / config.layout.num_bins
    return bin_index, phase, phase_to_energy(phase, config.time), result.collapsed_states[bin_index]


def test_run_on_grid_eigenvector():
    config = unitary_config(np.diag([1, 1j]), 2, trials=1, seed=3)
    bin_index, phase, _, collapsed = first_trial(load_amplitudes(1, [0, 1]), config)
    assert bin_index == 1
    assert phase == pytest.approx(np.pi / 2, abs=1e-12)
    np.testing.assert_allclose(np.abs(collapsed.amplitudes), [0, 1], atol=1e-9)


def test_run_balanced_superposition_collapses_cleanly():
    va = load_amplitudes(1, np.sqrt([0.5, 0.5]))
    seen = set()
    for seed in range(12):
        cfg = unitary_config(np.diag([1, 1j]), 2, seed=seed)
        bin_index, _, _, collapsed = first_trial(va, cfg)
        assert bin_index in (0, 1)
        target = np.zeros(2)
        target[bin_index] = 1.0
        np.testing.assert_allclose(np.abs(collapsed.amplitudes), target, atol=1e-9)
        seen.add(bin_index)
    assert seen == {0, 1}  # both outcomes occur across seeds


def test_run_pauli_z_energy_recovery():
    h = HamiltonianSum([LocalTerm([0], ref.Z)], 1)
    t = np.pi / 4
    config = PhaseEstimationConfig(m_index=3, unitary=exact_unitary(h, t),
                                   time=t, seed=5)
    bin_index, phase, energy, _ = first_trial(load_amplitudes(1, [1, 0]), config)
    assert bin_index == 7
    assert phase == pytest.approx(7 * np.pi / 4, abs=1e-12)
    assert energy == pytest.approx(1.0, abs=1e-9)


def test_run_reproduces_first_spectrum_trial():
    rng = np.random.default_rng(62)
    u = ref.random_unitary(2, rng)
    va = load_amplitudes(1, ref.random_state(1, rng))
    config = unitary_config(u, 3, trials=5, seed=77)
    single, _, _, _ = first_trial(va, config)
    batch = sample_spectrum(va, config)
    assert single == batch.bins[0]


@pytest.mark.parametrize("seed", range(20))
def test_single_trial_is_the_first_batch_trial(seed):
    # the single trial reads out and collapses exactly as the batch does
    h = build_transverse_ising(3, 1.0, 0.6)
    config = PhaseEstimationConfig(m_index=5, unitary=exact_unitary(h, 0.5), time=0.5,
                                   trials=3, seed=seed, power_method="block")
    va = load_amplitudes(3, ref.random_state(3, np.random.default_rng(seed)))
    single, _, _, collapsed = first_trial(va, config)
    batch = sample_spectrum(va, config)
    first = int(batch.bins[0])
    assert single == first
    assert np.array_equal(collapsed.amplitudes, batch.collapsed_states[first].amplitudes)


def test_single_trial_holds_two_states(traced_peak):
    rng = np.random.default_rng(73)
    config = unitary_config(ref.random_unitary(8, rng), 12, power_method="block", seed=4)
    va = load_amplitudes(3, ref.random_state(3, rng))
    state_bytes = 16 * 2**config.layout.total_qubits
    _, peak = traced_peak(lambda: first_trial(va, config))
    assert peak <= 2.05 * state_bytes


# ---------------------------------------------------------------------------
# sampling statistics


def test_sample_spectrum_deterministic_single_peak():
    config = unitary_config(np.diag([1, 1j]), 3, trials=64, seed=1)
    result = sample_spectrum(load_amplitudes(1, [0, 1]), config)
    assert result.counts[2] == 64  # omega = pi/2 -> bin 2 of 8
    assert result.counts.sum() == 64
    assert result.peaks == [(2, 1.0)]


def test_sample_spectrum_born_weights_within_3_sigma():
    config = unitary_config(np.diag([1, 1j]), 2, trials=4000, seed=11)
    va = load_amplitudes(1, np.sqrt([0.25, 0.75]))
    result = sample_spectrum(va, config)
    freqs = result.counts / config.trials
    for weight, b in ((0.25, 0), (0.75, 1)):
        sigma = math.sqrt(weight * (1 - weight) / 4000)
        assert abs(freqs[b] - weight) <= 3 * sigma


def test_sample_spectrum_off_grid_chi_squared():
    omega = 2 * np.pi * 1.37 / 8
    config = unitary_config(np.diag([1.0, np.exp(1j * omega)]), 3,
                            trials=10000, seed=9)
    result = sample_spectrum(load_amplitudes(1, [0, 1]), config)
    expected = analytic_bin_distribution([1.0], [omega], 3) * 10000
    _, p_value = scipy.stats.chisquare(result.counts, expected)
    assert p_value > 0.001


def test_peaks_sorted_and_thresholded():
    config = unitary_config(np.diag([1, 1j]), 2, trials=4000, seed=2)
    va = load_amplitudes(1, np.sqrt([0.25, 0.75]))
    result = sample_spectrum(va, config, threshold=0.1)
    assert [b for b, _ in result.peaks] == [1, 0]
    probs = [p for _, p in result.peaks]
    assert probs == sorted(probs, reverse=True)
    assert all(p >= 0.1 for p in probs)
    assert all(b in result.collapsed_states for b, _ in result.peaks)

    nothing = sample_spectrum(va, config, threshold=1.1)
    assert nothing.peaks == []
    assert sorted(nothing.collapsed_states) == [0, 1]  # collapsed whether or not a peak


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
    monkeypatch.setattr(sv, "_trial_uniform_blocks", forbidden)
    config = unitary_config(np.diag([1, 1j]), 2, trials=4, seed=0)
    with pytest.raises(ConfigFieldError, match="positive real|must be finite") as excinfo:
        sample_spectrum(load_amplitudes(1, [0, 1]), config, threshold=threshold)
    assert excinfo.value.field == "threshold"


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
    for b in result.bins:
        k = by_bin[int(b)]
        overlap = abs(np.vdot(basis[:, k], result.collapsed_states[int(b)].amplitudes)) ** 2
        assert overlap >= 1 - 1e-9


def test_eigenvector_fidelity_bounds():
    rng = np.random.default_rng(65)
    d = eigendecompose(ref.random_hermitian(4, rng))
    exact_vec = load_amplitudes(2, d.eigenvectors[:, 1])
    assert eigenvector_fidelity(exact_vec, d, float(d.eigenvalues[1]), 1e-6) == (
        pytest.approx(1.0, abs=1e-10)
    )
    orthogonal = load_amplitudes(2, d.eigenvectors[:, 2])
    assert eigenvector_fidelity(orthogonal, d, float(d.eigenvalues[1]), 1e-6) == (
        pytest.approx(0.0, abs=1e-10)
    )
    with pytest.raises(ValueError):
        eigenvector_fidelity(exact_vec, d, 1e6, 1e-6)


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
    """A flag-loop run collapses each bin read onto an l-qubit system state."""
    rng = np.random.default_rng(66)
    u = ref.random_unitary(2, rng)
    config = unitary_config(u, 2, power_method="flag_loop", trials=8, seed=4)
    va = load_amplitudes(1, ref.random_state(1, rng))
    result = sample_spectrum(va, config)
    assert result.counts.sum() == 8
    for b in result.bins:
        assert result.collapsed_states[int(b)].num_qubits == 1


# ---------------------------------------------------------------------------
# non-finite values fail closed


@pytest.mark.parametrize(
    "components",
    [[(np.nan, 0.0)], [(1.0, np.nan)], [(0.5, 0.0), (np.nan, 1.0)], [(1.0, np.inf)]],
)
def test_analytic_distribution_rejects_non_finite_components(components):
    weights, phases = zip(*components)
    with pytest.raises(ValueError, match="finite"):
        analytic_bin_distribution(weights, phases, 3)


# ---------------------------------------------------------------------------
# vectorized draws and the result record


def test_bins_and_collapsed_states_record_every_trial():
    rng = np.random.default_rng(67)
    u = ref.random_unitary(2, rng)
    config = unitary_config(u, 3, trials=200, seed=8)
    va = load_amplitudes(1, ref.random_state(1, rng))
    result = sample_spectrum(va, config)
    assert result.bins.shape == (200,)
    assert not result.bins.flags.writeable
    populated = [int(b) for b in np.nonzero(result.counts)[0]]
    assert sorted(result.collapsed_states) == populated
    assert all(int(b) in result.collapsed_states for b in result.bins)
    single, phase, energy, _ = first_trial(va, config)
    assert single == result.bins[0]
    assert phase == 2.0 * math.pi * single / 8
    assert energy == phase_to_energy(phase, 1.0)
    assert all(b in result.collapsed_states for b, _ in result.peaks)
    fields = list(result.__slots__)
    assert fields == ["bins", "counts", "collapsed_states", "peaks"]


def test_sample_spectrum_builds_no_per_trial_streams(monkeypatch):
    def forbidden(*args):
        raise AssertionError("sample_spectrum built a per-trial generator")

    monkeypatch.setattr(sv, "trial_stream", forbidden)
    config = unitary_config(np.diag([1, 1j]), 2, trials=500, seed=3)
    result = sample_spectrum(load_amplitudes(1, np.sqrt([0.25, 0.75])), config)
    assert result.counts.sum() == 500


@pytest.mark.parametrize("trials, chunk", [
    (19, 5), (20, 5), (21, 5), (20000, sv.DRAW_CHUNK),
], ids=["19", "20", "21", "20000-in-blocks-of-4096"])
def test_blocked_draws_equal_one_pass(monkeypatch, trials, chunk):
    """Bins and counts drawn in blocks of 5, or in the sampler's own blocks
    (five of them for 20000 trials), equal one pass over all trials."""
    monkeypatch.setattr(sv, "DRAW_CHUNK", chunk)
    rng = np.random.default_rng(73)
    config = unitary_config(
        ref.random_unitary(4, rng), 3, power_method="block", trials=trials, seed=2**40 + 3
    )
    va = load_amplitudes(2, ref.random_state(2, rng))
    result = sample_spectrum(va, config)
    cumulative = np.cumsum(pre_measurement_distribution(va, config))
    uniforms = np.array([sv.trial_stream(config.seed, t).random() for t in range(trials)])
    want = sv._draw_from_cumulative(cumulative, uniforms)
    assert np.array_equal(result.bins, want)
    assert np.array_equal(result.counts, np.bincount(want, minlength=8))


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
    assert result.counts.sum() == trials
    assert peak <= trials + 2 * 2**20


def test_block_spectrum_holds_one_state(traced_peak):
    """Sampling TFIM-3 at M = 2^14, where the state (2 MiB) dominates,
    holds the pre-measurement state and, beyond it, arrays of M entries (the
    distribution's row block, its cumulative sum, the counts) and one draw
    block: under 0.6 states.  A copying readout FFT and a whole |a|^2
    array made it 2.06."""
    run = pe.Run({"problem": "tfim", "sites": 3, "m_index": 14, "time": 0.5, "trials": 2000})
    state_bytes = 16 * 2**run.config.layout.total_qubits
    result, peak = traced_peak(lambda: sample_spectrum(run.guess, run.config))
    assert result.counts.sum() == 2000
    assert peak <= 1.6 * state_bytes


def test_flag_loop_spectrum_holds_six_states(traced_peak):
    """Sampling TFIM-8 at M = 256 on the flag-loop route, in exact
    evolution, peaks at four states of the 2^(m+l) register, in the
    gate-level inverse QFT: its input and, while a gate runs, three more.
    The index spread, written from the guess, holds its output alone and
    the eigenbasis loop two states beyond it.  The dense U (one state at l = m) and the loop's per-step
    product made it six, and holding the lifted input to readout seven."""
    run = pe.Run({"problem": "tfim", "sites": 8, "m_index": 8, "time": 0.5,
                  "trials": 2000, "power_method": "flag_loop"})
    state_bytes = 16 * 2**run.config.layout.total_qubits
    result, peak = traced_peak(lambda: sample_spectrum(run.guess, run.config))
    assert result.counts.sum() == 2000
    assert peak <= 4.1 * state_bytes


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
    """A tilted spectrum's distribution is not symmetric under the bin
    negation, so the first check catches the control; the complex Pauli-Y
    Hamiltonian's is, and only the collapse check can."""
    tilted = {"problem": "explicit_terms", "system_qubits": 1, "m_index": 3, "time": 0.8,
              "terms": [{"support": [0], "matrix": [[0.7, 0.9], [0.9, -0.1]]}]}
    pauli_y = {"problem": "explicit_terms", "system_qubits": 2, "m_index": 4, "time": 0.5,
               "terms": [{"support": [0], "matrix": [[0, [0, -1]], [[0, 1], 0]]},
                         {"support": [0, 1], "matrix": [[1, 0, 0, 0], [0, -1, 0, 0],
                                                        [0, 0, -1, 0], [0, 0, 0, 1]]}]}
    for cfg, match in ((tilted, "distribution check"),
                       (pauli_y, "eigenvector-fidelity audit: bin 1 fidelity 0.302281492592")):
        run = pe.Run(cfg)
        pe.audit(run)
        with pytest.raises(pe.AuditFailure, match=match):
            pe.audit(run, _corrupt_qft_sign=True)


def test_audit_collapses_through_the_sampling_collapse(monkeypatch):
    """The collapse check reads the states sample_spectrum would leave: a
    _collapse_bins that swaps two bins' states fails the audit."""
    run = pe.Run({"problem": "tfim", "sites": 3, "m_index": 4, "time": 0.5})
    collapse = pe._collapse_bins

    def swapped(state, layout, bins):
        states = collapse(state, layout, bins)
        first, second = bins[:2]
        states[first], states[second] = states[second], states[first]
        return states

    monkeypatch.setattr(pe, "_collapse_bins", swapped)
    with pytest.raises(pe.AuditFailure, match="eigenvector-fidelity audit"):
        pe.audit(run)


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


def test_exact_tfim_run_computes_no_svd(monkeypatch):
    """The time check's norm bound takes each term's largest |eigenvalue|
    and the run's one decomposition is an eigh: an exact TFIM run, set up
    and sampled, never computes an SVD."""
    def forbidden(*args, **kwargs):
        raise AssertionError("an exact TFIM run computed an SVD")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    # np.linalg.norm(a, 2) looks svd up in the globals of its implementation
    monkeypatch.setitem(np.linalg.norm.__wrapped__.__globals__, "svd", forbidden)
    run = pe.Run({"problem": "tfim", "sites": 5, "m_index": 5, "time": 0.5, "trials": 200})
    assert run.config.decomposition is not None
    assert len(sample_spectrum(run.guess, run.config).bins) == 200


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
