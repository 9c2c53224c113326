"""Quantum Fourier transform over a qubit register.

Sign convention: the forward transform maps |j> to
(1/sqrt(M)) sum_k e^{+2*pi*i*jk/M} |k>.  The inverse is therefore the readout
transform: it concentrates a phase state (1/sqrt(M)) sum_j e^{i*w*j}|j> at
bin w*M/(2*pi), so a measured bin j estimates w with a plus sign as 2*pi*j/M.

Implemented as the standard Hadamard + controlled-phase circuit with a final
bit-reversal swap layer, so the returned register is in natural bit order.
The controlled phases pi/2^(t-b), b < t, onto register qubit t commute, so
they are applied as one diagonal over register[:t+1]: the factor
e^{+-i*pi*low/2^t} where bit t is set, ``low`` the value of the lower t bits.
The Hadamards and swaps stay gates, so the transform is gate-level and
shares no code with an FFT.  Register lists are least-significant-bit first,
like everywhere else in the package.  Both transforms accept extra
``controls``: with controls given, the whole transform acts only on
amplitudes whose control qubits are all |1> (every gate and phase layer
picks up the controls), which is what conditional evolution of grid
problems needs.
"""

from __future__ import annotations

import numpy as np

from . import statevector as sv


def _validated_register(state: sv.StateVector, register, controls) -> tuple[list[int], list[int]]:
    register = list(register)
    controls = list(controls)
    if not register:
        raise ValueError("QFT register must contain at least one qubit")
    sv._check_qubits(register + controls, state.num_qubits, "register/control")
    return register, controls


def _apply(state: sv.StateVector, gate: sv.GateMatrix, targets, controls) -> sv.StateVector:
    if controls:
        return sv.apply_controlled_gate(state, gate, controls, targets)
    return sv.apply_gate(state, gate, targets)


def _bit_reversal(state: sv.StateVector, register, controls) -> sv.StateVector:
    swap = sv.swap_gate()
    m = len(register)
    for i in range(m // 2):
        state = _apply(state, swap, [register[i], register[m - 1 - i]], controls)
    return state


def _phase_layer(
    state: sv.StateVector, register, t: int, sign: float, controls
) -> sv.StateVector:
    """Every controlled phase sign*pi/2^(t-b), b < t, onto ``register[t]``
    at once: e^{sign*i*pi*low/2^t} wherever bit t is set."""
    if t == 0:
        return state
    phases = np.ones(2 ** (t + 1), dtype=np.complex128)
    phases[2**t :] = np.exp(sign * 1j * np.pi * np.arange(2**t) / 2**t)
    return sv.apply_diagonal_phase(state, register[: t + 1], phases, controls)


def qft_forward(state: sv.StateVector, register, controls=()) -> sv.StateVector:
    """Apply the forward transform (e^{+2*pi*i*jk/M} kernel) to ``register``."""
    register, controls = _validated_register(state, register, controls)
    h = sv.hadamard()
    for t in range(len(register) - 1, -1, -1):
        state = _apply(state, h, [register[t]], controls)
        state = _phase_layer(state, register, t, 1.0, controls)
    return _bit_reversal(state, register, controls)


def qft_inverse(state: sv.StateVector, register, controls=()) -> sv.StateVector:
    """Exact inverse of :func:`qft_forward` (the readout transform)."""
    register, controls = _validated_register(state, register, controls)
    state = _bit_reversal(state, register, controls)
    h = sv.hadamard()
    for t in range(len(register)):
        state = _phase_layer(state, register, t, -1.0, controls)
        state = _apply(state, h, [register[t]], controls)
    return state
