"""Fourier readout circuit: convention, invertibility, controlled form."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference as ref
from spectral_qpe import load_amplitudes, new_basis_state, qft_forward, qft_inverse


def circuit_matrix(transform, num_qubits, register=None, total=None):
    """Build the dense matrix of a register transform column by column."""
    total = num_qubits if total is None else total
    register = list(range(num_qubits)) if register is None else register
    dim = 2**total
    cols = []
    for j in range(dim):
        cols.append(transform(new_basis_state(total, j), register).amplitudes)
    return np.array(cols).T


def test_forward_convention_on_two_qubits():
    # |1> -> (1/2) * (1, i, -1, -i): the +2*pi*i kernel, LSB-first register
    state = qft_forward(new_basis_state(2, 1), [0, 1])
    np.testing.assert_allclose(
        state.amplitudes, np.array([1, 1j, -1, -1j]) / 2, atol=1e-14
    )


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7])
def test_forward_matches_dense_dft(m):
    got = circuit_matrix(qft_forward, m)
    np.testing.assert_allclose(got, ref.dft_matrix(2**m), atol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_inverse_is_adjoint(m):
    got = circuit_matrix(qft_inverse, m)
    np.testing.assert_allclose(got, ref.dft_matrix(2**m).conj().T, atol=1e-12)


@pytest.mark.parametrize("layout", ["unsorted", "gapped"])
@pytest.mark.parametrize("num_controls", [0, 1, 2])
@pytest.mark.parametrize("m", range(1, 9))
def test_phase_layers_match_per_pair_circuit(m, num_controls, layout):
    """One diagonal per target qubit gives what the controlled phase per
    (target, lower qubit) pair gives, to 1e-14 per amplitude, forward and
    inverse: on a register in random qubit order among spectators and
    controls, and on an ascending register with a spectator below each of
    its qubits and the controls on top."""
    rng = np.random.default_rng(100 * m + 10 * num_controls + len(layout))
    if layout == "unsorted":
        q = m + num_controls + 2
        order = [int(qubit) for qubit in rng.permutation(q)]
        register, controls = order[:m], order[m : m + num_controls]
    else:
        q = 2 * m + num_controls
        register, controls = list(range(1, 2 * m, 2)), list(range(2 * m, q))
    amps = ref.random_state(q, rng)
    state = load_amplitudes(q, amps)
    for transform, inverse in ((qft_forward, False), (qft_inverse, True)):
        got = transform(state, register, controls).amplitudes
        want = ref.per_pair_qft(amps, register, controls, inverse=inverse)
        assert np.abs(got - want).max() <= 1e-14, transform.__name__


@given(st.integers(0, 2**32 - 1))
def test_roundtrip_is_identity(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    amps = ref.random_state(m, rng)
    state = load_amplitudes(m, amps)
    back = qft_inverse(qft_forward(state, list(range(m))), list(range(m)))
    np.testing.assert_allclose(back.amplitudes, amps, atol=1e-11)


def test_acts_only_on_named_register():
    # transform qubits [0, 2] of a 3-qubit state; qubit 1 is a spectator
    rng = np.random.default_rng(8)
    amps = ref.random_state(3, rng)
    got = qft_forward(load_amplitudes(3, amps), [0, 2]).amplitudes

    # reference: permute (q2,q1,q0) -> group register bits, apply 4x4 DFT
    dft = ref.dft_matrix(4)
    want = np.zeros(8, dtype=complex)
    for spectator in (0, 1):
        idx = [(j & 1) | (spectator << 1) | ((j >> 1) << 2) for j in range(4)]
        want[idx] = dft @ amps[idx]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_controlled_transform_fires_only_when_control_set():
    rng = np.random.default_rng(13)
    sub = ref.random_state(2, rng)

    # control clear: state untouched
    amps = np.zeros(8, dtype=complex)
    amps[:4] = sub  # qubit 2 (control) = 0
    got = qft_forward(load_amplitudes(3, amps), [0, 1], controls=[2])
    np.testing.assert_allclose(got.amplitudes, amps, atol=1e-14)

    # control set: register transformed
    amps = np.zeros(8, dtype=complex)
    amps[4:] = sub  # qubit 2 (control) = 1
    got = qft_forward(load_amplitudes(3, amps), [0, 1], controls=[2])
    want = np.zeros(8, dtype=complex)
    want[4:] = ref.dft_matrix(4) @ sub
    np.testing.assert_allclose(got.amplitudes, want, atol=1e-13)

    # and the controlled inverse undoes it
    back = qft_inverse(got, [0, 1], controls=[2])
    np.testing.assert_allclose(back.amplitudes, amps, atol=1e-13)


def test_register_validation():
    state = new_basis_state(2, 0)
    with pytest.raises(ValueError):
        qft_forward(state, [])
    with pytest.raises(ValueError):
        qft_forward(state, [0, 0])
    with pytest.raises(ValueError):
        qft_forward(state, [0, 2])
    with pytest.raises(ValueError):
        qft_forward(state, [0, 1], controls=[1])


def test_frequency_encoding():
    """A uniform register with phase gradient e^{2*pi*i*j*k/M} reads out k."""
    m = 4
    M = 2**m
    for k in (1, 5, 11):
        amps = np.exp(2j * np.pi * np.arange(M) * k / M) / np.sqrt(M)
        peak = qft_inverse(load_amplitudes(m, amps), list(range(m)))
        assert np.argmax(np.abs(peak.amplitudes)) == k
        assert abs(peak.amplitudes[k]) == pytest.approx(1.0, abs=1e-12)
