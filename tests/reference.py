"""Brute-force reference implementations used to cross-check the package.

Everything here is written the slow, obvious way (explicit Kronecker sums,
direct geometric series, scipy matrix exponentials) so it shares no code
paths with the simulator kernels it is checking against.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from spectral_qpe.statevector import StateVector

I2 = np.eye(2, dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
KET0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
KET1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)


def kron_chain(factors):
    """Kronecker product with factors ordered qubit (q-1), ..., qubit 0."""
    out = np.eye(1, dtype=np.complex128)
    for f in factors:
        out = np.kron(out, f)
    return out


def embed_kron(matrix, support, num_qubits):
    """Embed a k-qubit operator via an explicit sum of Kronecker terms.

    ``support[0]`` is the least significant qubit of the operator, matching
    the package convention.  Runs in O(4^k) Kronecker products.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    k = len(support)
    dim = 2**num_qubits
    full = np.zeros((dim, dim), dtype=np.complex128)
    for a in range(2**k):
        for b in range(2**k):
            if matrix[a, b] == 0:
                continue
            factors = []
            for qubit in range(num_qubits - 1, -1, -1):
                if qubit in support:
                    i = support.index(qubit)
                    local = np.zeros((2, 2), dtype=np.complex128)
                    local[(a >> i) & 1, (b >> i) & 1] = 1.0
                    factors.append(local)
                else:
                    factors.append(I2)
            full += matrix[a, b] * kron_chain(factors)
    return full


def controlled_embed(matrix, targets, controls, num_qubits):
    """Full-space matrix of a controlled gate: identity unless all controls set."""
    gate_full = embed_kron(matrix, list(targets), num_qubits)
    projector = np.eye(2**num_qubits, dtype=np.complex128)
    for c in controls:
        projector = projector @ embed_kron(KET1, [c], num_qubits)
    dim = 2**num_qubits
    return np.eye(dim, dtype=np.complex128) + projector @ (gate_full - np.eye(dim))


def moveaxis_apply(amps, q, matrix, targets, controls=()):
    """The gate kernel on the full rank-q tensor for every call: control
    axes sliced at 1, target axes moved to the front, one matmul over a
    contiguous copy of the remainder (the simulator merges the untouched
    qubits into fewer axes and skips the copy when it is not needed)."""
    k = len(targets)
    out = amps.copy()
    tensor = out.reshape((2,) * q)
    selector = [slice(None)] * q
    for c in controls:
        selector[q - 1 - c] = 1
    sub = tensor[tuple(selector)]
    remaining = [qb for qb in range(q - 1, -1, -1) if qb not in controls]
    front = [remaining.index(t) for t in reversed(targets)]
    moved = np.moveaxis(sub, front, range(k))
    shape = moved.shape
    mixed = matrix @ np.ascontiguousarray(moved).reshape(2**k, -1)
    sub[...] = np.moveaxis(mixed.reshape(shape), range(k), front)
    return out


def hadamard_layer(amps, qubits):
    """A Hadamard on each of ``qubits`` in turn, one gate at a time through
    :func:`moveaxis_apply`."""
    amps = np.asarray(amps, dtype=np.complex128)
    q = len(amps).bit_length() - 1
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    for qubit in qubits:
        amps = moveaxis_apply(amps, q, hadamard, [qubit])
    return amps


def row_engine_state(va_amps, step, num_bins):
    """The block engine with U^j|va> in row j of psi: the FFT along axis 0,
    then a transposed copy into the register layout (index bits low)."""
    psi = np.empty((num_bins, len(va_amps)), dtype=np.complex128)
    psi[0] = va_amps
    for j in range(1, num_bins):
        psi[j] = step(psi[j - 1])
    return (np.fft.fft(psi, axis=0) / num_bins).T.ravel()


def repeated_powers(matrix, va_amps, num_bins):
    """Columns U^j|va> for j < num_bins, each the dense U times the one
    before."""
    columns = np.empty((len(va_amps), num_bins), dtype=np.complex128)
    columns[:, 0] = va_amps
    for j in range(1, num_bins):
        columns[:, j] = matrix @ columns[:, j - 1]
    return columns


def per_pair_qft(amps, register, controls=(), inverse=False):
    """The textbook QFT circuit, one gate at a time through
    :func:`moveaxis_apply`: on each register qubit t a Hadamard and a
    controlled diag(1, e^{+-i*pi/2^(t-b)}) off every lower register qubit b,
    then the bit-reversal swaps; every gate also takes ``controls``.
    ``inverse`` runs the adjoint circuit."""
    amps = np.asarray(amps, dtype=np.complex128)
    q = len(amps).bit_length() - 1
    register, controls = list(register), list(controls)
    m = len(register)
    sign = -1.0 if inverse else 1.0
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    swap = np.eye(4)[[0, 2, 1, 3]]

    def phases(amps, t):
        for b in range(t - 1, -1, -1):
            gate = np.diag([1.0, np.exp(sign * 1j * np.pi / 2 ** (t - b))])
            amps = moveaxis_apply(amps, q, gate, [register[t]], [*controls, register[b]])
        return amps

    def swaps(amps):
        for i in range(m // 2):
            amps = moveaxis_apply(amps, q, swap, [register[i], register[m - 1 - i]], controls)
        return amps

    if inverse:
        amps = swaps(amps)
        for t in range(m):
            amps = moveaxis_apply(phases(amps, t), q, hadamard, [register[t]], controls)
        return amps
    for t in range(m - 1, -1, -1):
        amps = phases(moveaxis_apply(amps, q, hadamard, [register[t]], controls), t)
    return swaps(amps)


def dft_matrix(points):
    """Unitary DFT with the e^{+2*pi*i*j*k/M} kernel."""
    grid = np.arange(points)
    return np.exp(2j * np.pi * np.outer(grid, grid) / points) / np.sqrt(points)


def grid_hamiltonian(potential, kinetic):
    """diag(V) + F^dag diag(T) F for a grid particle, symmetrized, written
    out in the order of operations whose bits the package keeps: F^dag times
    diag(T) F, then V added on the diagonal, then (H + H^dag) / 2."""
    f = dft_matrix(len(potential))
    h = f.conj().T @ (kinetic[:, None] * f)
    h[np.diag_indices_from(h)] += potential
    return (h + h.conj().T) / 2.0


def dirichlet_distribution(weights, omegas, m_index):
    """Readout distribution by direct double sum over bins and time steps."""
    bins = 2**m_index
    out = np.zeros(bins)
    for weight, omega in zip(weights, omegas):
        for j in range(bins):
            amp = sum(
                np.exp(1j * p * (omega - 2 * np.pi * j / bins)) for p in range(bins)
            )
            out[j] += weight * abs(amp / bins) ** 2
    return out


def dirichlet_amplitude(omega, j, bins):
    """Complex per-bin amplitude factor for one eigencomponent."""
    return sum(
        np.exp(1j * p * (omega - 2 * np.pi * j / bins)) for p in range(bins)
    ) / bins


def dirichlet_closed_form(delta, M):
    """The closed-form Dirichlet kernel D_M over a whole (phases, bins)
    array of ``delta``, one full-size temporary per step: (sine ratio,
    amplitude)."""
    d = np.pi - np.mod(np.pi - delta, 2.0 * np.pi)
    half_sin = np.sin(d / 2.0)
    on_grid = np.abs(half_sin) < 1e-12
    ratio = np.where(on_grid, 1.0, np.sin(M * d / 2.0) / (M * np.where(on_grid, 1.0, half_sin)))
    return ratio, np.exp(0.5j * (M - 1) * d) * ratio


def unitarity_defect(matrix):
    """max|G^dag G - I| over the whole product and identity at once."""
    return float(np.abs(matrix.conj().T @ matrix - np.eye(len(matrix))).max())


def non_finite_last_rows(matrix, kind):
    """A copy of a square ``matrix`` made non-finite in its last rows.
    "nan" and "inf" set its last diagonal entry.  "overflow" sets its last
    2 x 2 block to [[e, e], [e, -e]] with e = 1e200: every entry is finite,
    but e^2 overflows, so for an identity ``matrix`` G^dag G is exactly I
    outside its last two rows and not finite in them."""
    matrix = np.array(matrix)
    if kind == "overflow":
        e = 1e200
        matrix[-2:, -2:] = [[e, e], [e, -e]]
    else:
        matrix[-1, -1] = np.nan if kind == "nan" else np.inf
    return matrix


def with_flag(amps):
    """``amps`` with a clear flag qubit added on top, the register of the
    flipped-flag circuits below: the flag-set half is zero."""
    amps = np.asarray(amps, dtype=np.complex128)
    return np.concatenate([amps, np.zeros_like(amps)])


def masked_flag_flip(amps, index_values, flag, threshold):
    """X on qubit ``flag`` wherever ``index_values`` >= threshold, as a swap of
    the amplitude pairs picked out by boolean masks over all basis indices."""
    amps = np.array(amps, dtype=np.complex128)
    flag_mask = 1 << flag
    idx = np.arange(len(amps))
    src = idx[(index_values >= threshold) & ((idx & flag_mask) == 0)]
    dst = src | flag_mask
    src_vals = amps[src]
    amps[src] = amps[dst]
    amps[dst] = src_vals
    return amps


def full_slab_flag_step(amps, matrix, l_system, num_bins):
    """Controlled-U on a flag qubit sitting above the system and index
    registers: U times every (system, index) column of the flag-set half, the
    flag-clear half as is, whatever index values carry the flag."""
    view = np.asarray(amps, dtype=np.complex128).reshape(2, 2**l_system, num_bins)
    out = view.copy()
    out[1] = matrix @ view[1]
    return out.ravel()


def flipped_flag_step(amps, step, l_system, num_bins, threshold):
    """One step of the flag loop as three fresh arrays in the (flag, system,
    index) view: swap the flag halves of the index columns [threshold, M);
    copy that, with ``step`` (U as a map on (2^l, K) blocks of system
    columns) of the raised window [1, :, threshold:] written into the copy;
    swap back."""
    view = np.asarray(amps, dtype=np.complex128).reshape(2, 2**l_system, num_bins)
    raised = view.copy()
    raised[:, :, threshold:] = view[::-1, :, threshold:]
    stepped = raised.copy()
    stepped[1, :, threshold:] = step(raised[1, :, threshold:])
    lowered = stepped.copy()
    lowered[:, :, threshold:] = stepped[::-1, :, threshold:]
    return lowered.ravel()


def flipped_flag_loop(amps, step, l_system, num_bins):
    """The flag loop: :func:`flipped_flag_step` for thresholds 1..M."""
    for threshold in range(1, num_bins + 1):
        amps = flipped_flag_step(amps, step, l_system, num_bins, threshold)
    return amps


def flipped_source_flag_loop(amps, source, dt, slices, layout):
    """The sliced flag loop as the circuit reads, over the whole register
    with its flag qubit on top, at m + l: for thresholds 1..M, a masked flag
    flip, ``slices`` source steps under the flag and the flip again (slow)."""
    flag = layout.total_qubits
    q = flag + 1
    index_values = np.arange(2**q) % layout.num_bins
    state = StateVector(q, amps)
    for threshold in range(1, layout.num_bins + 1):
        state = StateVector(q, masked_flag_flip(state.amplitudes, index_values, flag, threshold))
        for _ in range(slices):
            state = source.apply_step(state, dt, layout.system_qubits, [flag])
        state = StateVector(q, masked_flag_flip(state.amplitudes, index_values, flag, threshold))
    return state.amplitudes


#: Eigenvalues closer than this (times |A|_max) are treated as one eigenspace.
DEGENERACY_TOL = 1e-8


def degenerate_groups(eigenvalues, tol):
    """Indices of (ascending) eigenvalues grouped into eigenspaces.

    Consecutive eigenvalues closer than ``tol`` land in the same group, so
    projector-based comparisons can tolerate eigenvector non-uniqueness.
    """
    groups = []
    for i, value in enumerate(eigenvalues):
        if groups and value - eigenvalues[groups[-1][-1]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def tfim_dense(sites, coupling, field):
    """Open-chain transverse-field Ising Hamiltonian by explicit Kronecker sums."""
    dim = 2**sites
    h = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(sites - 1):
        h -= coupling * embed_kron(np.kron(Z, Z), [i, i + 1], sites)
    for i in range(sites):
        h -= field * embed_kron(X, [i], sites)
    return h


def exact_evolution(dense_h, t):
    """e^{-iHt} via scipy's expm (independent of any eigh-based route)."""
    return scipy.linalg.expm(-1j * np.asarray(dense_h, dtype=np.complex128) * t)


def random_state(num_qubits, rng):
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return amps / np.linalg.norm(amps)


def random_hermitian(dim, rng, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2


def random_unitary(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@dataclass(frozen=True)
class MeasurementOutcome:
    """Result of reading a sub-register: its integer value and Born probability."""

    bits: int
    probability: float


def measure_register(state, qubits, rng):
    """Projectively measure a sub-register, one basis state at a time.

    The scalar reference for the package's vectorized draws: exactly one
    uniform u from ``rng`` picks the first outcome whose running Born sum
    exceeds u times the total, and the returned state is the renormalized
    projection onto that outcome.
    """
    qubits = list(qubits)
    if not qubits:
        raise ValueError("cannot measure an empty qubit list")
    amps = state.amplitudes
    values = np.array([
        sum(((index >> qubit) & 1) << bit for bit, qubit in enumerate(qubits))
        for index in range(len(amps))
    ])
    probs = np.bincount(values, weights=np.abs(amps) ** 2, minlength=2 ** len(qubits))
    cumulative = np.cumsum(probs)
    target = rng.random() * cumulative[-1]
    outcome = next(
        (k for k, c in enumerate(cumulative) if c > target), len(cumulative) - 1
    )
    projected = np.where(values == outcome, amps, 0.0) / np.sqrt(probs[outcome])
    return MeasurementOutcome(outcome, float(probs[outcome])), StateVector(
        state.num_qubits, projected
    )


def embedded_step_product(gates, num_qubits):
    """One Trotter slice as the product of each (targets, gate) pair's full
    embedding, multiplied onto the running product in gate order."""
    step = np.eye(2**num_qubits, dtype=np.complex128)
    for targets, gate in gates:
        step = embed_kron(gate.matrix, list(targets), num_qubits) @ step
    return step
