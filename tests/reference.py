"""Brute-force reference implementations used to cross-check the package.

Everything here is written the slow, obvious way (explicit Kronecker sums,
direct geometric series, scipy matrix exponentials) so it shares no code
paths with the simulator kernels it is checking against.
"""

import numpy as np
import scipy.linalg

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
    """The general gate kernel for every call: control axes sliced at 1,
    target axes moved to the front, one matmul over a contiguous copy of the
    remainder (the simulator keeps this path for layouts its one-slab fast
    path does not cover)."""
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


def row_engine_state(va_amps, step, num_bins, corrupt=False):
    """The block engine with U^j|va> in row j of psi: the FFT along axis 0,
    then a transposed copy into the register layout (index bits low)."""
    psi = np.empty((num_bins, len(va_amps)), dtype=np.complex128)
    psi[0] = va_amps
    for j in range(1, num_bins):
        psi[j] = step(psi[j - 1])
    if corrupt:
        readout = np.fft.ifft(psi, axis=0)
    else:
        readout = np.fft.fft(psi, axis=0) / num_bins
    return readout.T.ravel()


def dft_matrix(points):
    """Unitary DFT with the e^{+2*pi*i*j*k/M} kernel."""
    grid = np.arange(points)
    return np.exp(2j * np.pi * np.outer(grid, grid) / points) / np.sqrt(points)


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
