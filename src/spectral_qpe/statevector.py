"""Dense state-vector simulation core.

Conventions, used consistently across the package:

* A register of ``q`` qubits is a flat array of ``2**q`` complex128
  amplitudes.  Qubit 0 is the least significant bit of the basis index, so
  basis state ``|j>`` assigns qubit ``i`` the bit ``(j >> i) & 1``.
* Wherever a list of qubits defines a multi-bit value (gate targets, measured
  registers, QFT registers), position ``i`` of the list contributes bit ``i``
  of that value -- list order is least-significant-first.
* States are never silently renormalized.  Any public operation whose result
  drifts off unit norm by more than ``NORM_TOL`` raises
  :class:`~spectral_qpe.errors.ContractViolation`.
* Randomness comes from per-trial streams derived from one master seed via
  :func:`trial_stream`.  The sampler draws their first uniforms in blocks
  with :func:`_trial_uniform_blocks`, bit for bit, from the seed's
  SeedSequence pool.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

#: Hard cap on register size: 2**26 amplitudes is ~1 GiB of complex128.
MAX_QUBITS = 26
#: Largest gate the simulator will apply as a dense matrix.
MAX_GATE_ARITY = 12
#: Allowed drift of sum |a_i|^2 from 1 before a state is rejected.
NORM_TOL = 1e-6
#: Allowed deviation of max |G^dag G - I| from 0 for gate matrices.
UNITARY_TOL = 1e-10
#: Rows per slab of the dense checks: at 2^12 a complex slab is 4 MiB.
CHECK_ROWS = 64
#: Entries per temporary block of a (rows, M) state taken a block at a time
#: (256 KiB of complex128): the marginal's |a|^2 rows, and the block
#: engine's phase-table columns and FFT rows; one row or column if longer.
_BLOCK_ENTRIES = 2**14


class _Record:
    """A read-only record: its fields are its ``__slots__``, in order, set
    once by ``__init__`` (or by copy and pickle); assigning or deleting one
    raises ``AttributeError``.  Equality is identity, as for records that
    hold arrays."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name!r}")

    def __setstate__(self, state: tuple) -> None:
        """Restore the ``(None, {field: value})`` state that copy and pickle
        take from a slotted object."""
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class _ValueRecord(_Record):
    """A :class:`_Record` equal to one of its class with equal fields, and
    hashed by them."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())


class GateMatrix:
    """A unitary acting on ``arity`` qubits: a read-only copy, validated by
    its entries' moduli, then by :func:`unitarity_defect` (the copy plus
    one slab at peak)."""

    __slots__ = ("arity", "matrix")

    def __init__(self, matrix) -> None:
        mat = np.array(matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"gate must be a square matrix, got shape {mat.shape}")
        dim = mat.shape[0]
        arity = dim.bit_length() - 1
        if dim < 2 or 2**arity != dim:
            raise ValueError(f"gate dimension {dim} is not a power of two >= 2")
        if arity > MAX_GATE_ARITY:
            raise ValueError(
                f"gate acts on {arity} qubits; dense application is capped at {MAX_GATE_ARITY}"
            )
        # no entry of a unitary exceeds 1 in modulus; a larger one could overflow below
        if not all(np.abs(mat[i : i + CHECK_ROWS]).max() <= 1 + UNITARY_TOL  # NaN fails closed
                   for i in range(0, dim, CHECK_ROWS)):
            raise ValueError("gate is not unitary: an entry's modulus exceeds 1")
        defect = unitarity_defect(mat)
        if not (defect <= UNITARY_TOL):  # NaN fails closed
            raise ValueError(f"gate is not unitary: max|G^dag G - I| = {defect:.3e}")
        mat.setflags(write=False)
        self.arity = arity
        self.matrix = mat

    def __repr__(self) -> str:
        return f"GateMatrix(arity={self.arity})"


def unitarity_defect(matrix: np.ndarray) -> float:
    """max|G^dag G - I| for a square G, not finite if G^dag G is not: its
    upper triangle (half the products) in slabs of ``CHECK_ROWS`` rows, one
    buffer, their maxima taken by ``np.maximum``, which keeps a NaN."""
    dim = len(matrix)
    real = not np.iscomplexobj(matrix)
    buffer = np.empty(min(dim, CHECK_ROWS) * dim, dtype=matrix.dtype)
    worst = 0.0
    for start in range(0, dim, CHECK_ROWS):
        columns = matrix[:, start : start + CHECK_ROWS]
        width = dim - start
        slab = np.matmul((columns if real else columns.conj()).T, matrix[:, start:],
                         out=buffer[: columns.shape[1] * width].reshape(-1, width))
        slab.reshape(-1)[:: width + 1] -= 1.0  # minus I on the slab's diagonal
        worst = np.maximum(worst, np.abs(slab, out=slab if real else None).max())
    return float(worst)


def _near_unitary(matrix: np.ndarray) -> np.ndarray:
    """``matrix``, snapped back onto the unitary manifold (the polar factor
    of its SVD) when float drift approaches the gate tolerance: a unitary
    within ``UNITARY_TOL``, the one check a square of the binary route's
    dense U gets (left unsnapped, the squares of TFIM-8's U at time 0.25
    reach a defect of 1.2e-9 by U^(2^20))."""
    defect = unitarity_defect(matrix)
    if not np.isfinite(defect):
        raise ContractViolation(f"matrix power is not finite: defect {defect}")
    if defect > UNITARY_TOL / 4:
        u, _, vh = np.linalg.svd(matrix)
        matrix = u @ vh
        defect = unitarity_defect(matrix)
        if not (defect <= UNITARY_TOL):  # NaN fails closed
            raise ContractViolation(f"snapped matrix power is not unitary: defect {defect:.3e}")
    return matrix


def _unitary_squares(matrix: np.ndarray):
    """Yield U, U^2, U^4, ... for the unitary U = ``matrix``, each square kept
    off the drift of repeated squarings by :func:`_near_unitary`."""
    while True:
        yield matrix
        matrix = _near_unitary(matrix @ matrix)


def hadamard() -> GateMatrix:
    """Single-qubit Hadamard."""
    return GateMatrix(np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def swap_gate() -> GateMatrix:
    return GateMatrix(
        np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    )


class RegisterLayout(_ValueRecord):
    """Partition of a simulation register into index | system.

    The index register occupies qubits [0, m_index) and the system register
    the next l_system qubits; no route needs a work qubit.  With the
    least-significant-bit convention this makes index-register extraction a
    mask of the low bits of the basis index.
    """

    __slots__ = ("m_index", "l_system")

    def __init__(self, m_index: int, l_system: int) -> None:
        super().__init__(m_index, l_system)
        if self.m_index < 1:
            raise ValueError(f"index register needs at least 1 qubit, got {self.m_index}")
        if self.l_system < 1:
            raise ValueError(f"system register needs at least 1 qubit, got {self.l_system}")
        if self.total_qubits > MAX_QUBITS:
            raise ValueError(
                f"layout spans {self.total_qubits} qubits, exceeding the cap of {MAX_QUBITS}"
            )

    @property
    def total_qubits(self) -> int:
        return self.m_index + self.l_system

    @property
    def num_bins(self) -> int:
        """M = 2**m_index, the number of readout bins."""
        return 2**self.m_index

    @property
    def index_qubits(self) -> list[int]:
        return list(range(self.m_index))

    @property
    def system_qubits(self) -> list[int]:
        return list(range(self.m_index, self.total_qubits))


class StateVector:
    """Amplitudes of a pure ``num_qubits``-qubit state (unit norm enforced)."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes) -> None:
        if not 1 <= num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}")
        amps = np.array(amplitudes, dtype=np.complex128)
        if amps.shape != (2**num_qubits,):
            raise ValueError(
                f"expected {2**num_qubits} amplitudes for {num_qubits} qubits, got shape {amps.shape}"
            )
        norm_sq = float(np.vdot(amps, amps).real)
        if not (abs(norm_sq - 1.0) <= NORM_TOL):  # NaN fails closed
            raise ValueError(f"amplitudes are not normalized: sum|a|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        self.num_qubits = num_qubits
        self.amplitudes = amps

    def probabilities(self) -> np.ndarray:
        """Born probabilities |a_i|^2 over all basis states."""
        probs = np.abs(self.amplitudes)
        probs **= 2  # in place: one float64 per amplitude
        return probs

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self.num_qubits})"


def _check_norm(amps: np.ndarray) -> None:
    """The no-drift contract: raise unless sum|a|^2 is within ``NORM_TOL`` of 1."""
    norm_sq = float(np.vdot(amps, amps).real)
    if not (abs(norm_sq - 1.0) <= NORM_TOL):  # NaN fails closed
        raise ContractViolation(f"state norm drifted: sum|a|^2 = {norm_sq!r}")


def _wrap_state(num_qubits: int, amps: np.ndarray, *, check: bool = True) -> StateVector:
    """Wrap freshly computed amplitudes, enforcing the no-drift contract
    unless ``check`` is off: amplitudes already checked as they were written,
    or a permutation of a checked state."""
    if check:
        _check_norm(amps)
    state = StateVector.__new__(StateVector)
    amps.setflags(write=False)
    state.num_qubits = num_qubits
    state.amplitudes = amps
    return state


def new_basis_state(q: int, index: int) -> StateVector:
    """|index> on q qubits."""
    if not 0 <= index < 2**q:
        raise ValueError(f"basis index {index} out of range for {q} qubits")
    amps = np.zeros(2**q, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(q, amps)


def load_amplitudes(q: int, values) -> StateVector:
    """Wrap a caller-supplied amplitude array (must already be normalized)."""
    return StateVector(q, values)


def _check_qubits(qubits, q: int, what: str) -> None:
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate {what} qubits: {list(qubits)}")
    for qu in qubits:
        if not 0 <= qu < q:
            raise ValueError(f"{what} qubit {qu} out of range for {q}-qubit state")


def _grouped_axes(q: int, qubits, controls=()):
    """How a flat q-qubit array is viewed by a gate: each of ``qubits`` and
    ``controls`` on its own length-2 axis and each run of the other qubits
    merged into one axis, most significant first.

    Returns the view's shape, a selector taking every control at 1 (kept as
    a length-1 axis, so no axis shifts) and the axis of each of ``qubits``.
    """
    named = set(qubits) | set(controls)
    shape = []
    axis = {}
    run = 0
    for qb in range(q - 1, -1, -1):
        if qb in named:
            if run:
                shape.append(2**run)
                run = 0
            axis[qb] = len(shape)
            shape.append(2)
        else:
            run += 1
    if run:
        shape.append(2**run)
    selector = [slice(None)] * len(shape)
    for c in controls:
        selector[axis[c]] = slice(1, 2)
    return tuple(shape), tuple(selector), [axis[qb] for qb in qubits]


def _apply_matrix(
    amps: np.ndarray,
    q: int,
    matrix: np.ndarray,
    targets,
    controls=(),
) -> np.ndarray:
    """Apply a 2^k x 2^k matrix to ``targets`` (optionally controlled) and
    return new amplitudes: a flat 2^q array, or a (2^q, K) block of K
    columns, each column a q-qubit register.

    ``targets[0]`` is the least significant bit of the matrix's own index.
    In the view of :func:`_grouped_axes`, with the controls at 1 and a
    block's column axis kept last, the target axes are moved to the front
    and the matrix is applied as one matmul over the collapsed remainder.
    The operand is copied only when it is not already contiguous
    (contiguous ascending targets with every higher qubit a control need no
    copy).
    """
    k = len(targets)
    shape, selector, axes = _grouped_axes(q, targets, controls)
    shape += amps.shape[1:]
    front = axes[::-1]
    moved = np.moveaxis(amps.reshape(shape)[selector], front, range(k))
    mixed = matrix @ np.ascontiguousarray(moved).reshape(2**k, -1)
    # The output is allocated once the operand copy is gone; without controls
    # every amplitude is overwritten, so nothing is copied into it first.
    out = amps.copy() if controls else np.empty_like(amps)
    out.reshape(shape)[selector] = np.moveaxis(mixed.reshape(moved.shape), range(k), front)
    return out


def apply_gate(state: StateVector, gate: GateMatrix, targets) -> StateVector:
    """Apply ``gate`` to the given target qubits (identity elsewhere)."""
    return apply_controlled_gate(state, gate, (), targets)


def apply_controlled_gate(state: StateVector, gate: GateMatrix, controls, targets) -> StateVector:
    """Apply ``gate`` to ``targets`` only where all ``controls`` are |1>."""
    controls = list(controls)
    targets = list(targets)
    _check_qubits(controls + targets, state.num_qubits, "control/target")
    if len(targets) != gate.arity:
        raise ValueError(f"gate arity {gate.arity} != {len(targets)} targets")
    amps = _apply_matrix(
        state.amplitudes, state.num_qubits, gate.matrix, targets, controls
    )
    return _wrap_state(state.num_qubits, amps)


def apply_diagonal_phase(state: StateVector, qubits, phases, controls=()) -> StateVector:
    """Multiply each amplitude by ``phases[v]`` where v is the value of the
    ``qubits`` register (optionally only where ``controls`` are all |1>).

    ``phases`` must be unit-modulus (it is a diagonal unitary).  This is the
    workhorse for potential/kinetic phase multiplications on grid problems,
    where the register can exceed the dense-gate arity cap.
    """
    qubits = list(qubits)
    controls = list(controls)
    _check_qubits(qubits + controls, state.num_qubits, "register/control")
    phases = np.asarray(phases, dtype=np.complex128)
    if phases.shape != (2 ** len(qubits),):
        raise ValueError(
            f"need {2 ** len(qubits)} phase factors for a {len(qubits)}-qubit register"
        )
    defect = float(np.abs(np.abs(phases) - 1.0).max())
    if not (defect <= UNITARY_TOL):  # NaN fails closed
        raise ValueError(f"phase factors are not unit modulus: max deviation {defect:.3e}")
    shape, selector, axes = _grouped_axes(state.num_qubits, qubits, controls)
    # Phase tensor axis j is register bit n-1-j, moved onto its qubit's view
    # axis; length-1 axes broadcast it over the rest.
    n = len(qubits)
    tensor = phases.reshape((2,) * n + (1,) * (len(shape) - n))
    factors = np.moveaxis(tensor, range(n), axes[::-1])
    out = state.amplitudes.copy() if controls else np.empty_like(state.amplitudes)
    np.multiply(
        state.amplitudes.reshape(shape)[selector], factors, out=out.reshape(shape)[selector]
    )
    return _wrap_state(state.num_qubits, out)


def register_values(q: int, qubits) -> np.ndarray:
    """Value of the ``qubits`` register for every basis index of a q-qubit state."""
    idx = np.arange(2**q)
    value = np.zeros_like(idx)
    for bit, qu in enumerate(qubits):
        value |= ((idx >> qu) & 1) << bit
    return value


def register_distribution(state: StateVector, qubits) -> np.ndarray:
    """Marginal Born distribution over the values of a sub-register.

    A low register, the readout's, is the fast axis of the (rest, 2^k) view
    of the amplitudes: its |a|^2 are summed one block of rows at a time, at
    most ``_BLOCK_ENTRIES`` entries or one row, so no |a|^2 array of the whole
    state is made.  Each block's sum starts from the running total, stacked
    on as its first row, so every value is added in row order and the
    result has the bits of ``probabilities().reshape(-1, 2^k).sum(axis=0)``,
    a row-order sum in the same order as the bincount of any other register.
    """
    qubits = list(qubits)
    if not qubits:
        raise ValueError("cannot take the distribution of an empty register")
    _check_qubits(qubits, state.num_qubits, "register")
    if qubits == list(range(len(qubits))):
        rows = state.amplitudes.reshape(-1, 2 ** len(qubits))
        step = max(1, _BLOCK_ENTRIES // rows.shape[1])
        total = np.zeros(rows.shape[1])
        for start in range(0, len(rows), step):
            squares = np.abs(rows[start : start + step])
            squares **= 2
            total = np.vstack((total, squares)).sum(axis=0)
        return total
    values = register_values(state.num_qubits, qubits)
    return np.bincount(
        values, weights=state.probabilities(), minlength=2 ** len(qubits)
    )


def _draw_from_cumulative(cumulative: np.ndarray, u):
    """Map uniform draws in [0, 1) to outcome indices; the right-sided
    search never selects a zero-probability outcome (a repeated value)."""
    idx = np.searchsorted(cumulative, u * cumulative[-1], side="right")
    return np.minimum(idx, len(cumulative) - 1)


def trial_stream(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent RNG stream for one trial.

    Stream ``t`` is ``default_rng(SeedSequence(master_seed, spawn_key=(t,)))``:
    numpy's documented counter scheme for deriving child streams.  Streams are
    reproducible across platforms and depend only on the seed and the trial
    index, never on the order or batching in which trials are drawn;
    :func:`_trial_uniform_blocks`, the sampler's generator, computes the
    first draw of many streams at once.
    """
    if trial_index < 0:
        raise ValueError(f"trial index must be >= 0, got {trial_index}")
    seq = np.random.SeedSequence(master_seed, spawn_key=(trial_index,))
    return np.random.default_rng(seq)


# SeedSequence hash constants (numpy.random.bit_generator) and the PCG64
# multiplier (O'Neill, "PCG", HMC-CS-2014-0905), used by _trial_uniform_blocks.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
#: The hash constant after the 16 hashmixes that build a seed's pool,
#: _INIT_A * _MULT_A^16 mod 2^32 whatever the seed; the spawn-key word
#: continues from it.
_SPAWN_CONST = 0x78C50DA5
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_PCG_MULT_LIMBS = [np.uint64((_PCG_MULT >> (32 * k)) & _MASK32) for k in range(4)]
#: Trials per vectorized block of draws.  One block's temporaries, about 175
#: bytes per index (0.7 MB), stay in a core's cache.
DRAW_CHUNK = 2**12


def _hashmix(value: np.ndarray, const: int, mult: int = _MULT_A) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix on uint32 arrays (with ``_MULT_B``, the hash
    of ``generate_state``); returns (mixed, next constant)."""
    following = (const * mult) & _MASK32
    value = value ^ np.uint32(const)
    value *= np.uint32(following)
    value ^= value >> np.uint32(16)
    return value, following


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_R * y  # y is never narrower than x
    np.subtract(_MIX_MULT_L * x, result, out=result)
    result ^= result >> np.uint32(16)
    return result


def _seed_pool(master_seed: int) -> list:
    """``SeedSequence(master_seed).pool`` for a seed in [0, 2^64), as four
    one-element arrays: the seed's two 32-bit words and two zero words
    hashed, then each pool word mixed into the others.  Computed here, not
    read from numpy's SeedSequence: importing numpy.random, which a sampling
    run otherwise never loads, raised a CLI run's peak RSS from 33.0 to
    38.5 MB (numpy 2.4)."""
    pool = []
    const = _INIT_A
    for word in (master_seed & _MASK32, master_seed >> 32, 0, 0):
        hashed, const = _hashmix(np.array([word], dtype=np.uint32), const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    return pool


def _carry(columns: list) -> list:
    """Normalize column sums (fresh uint64 arrays) to four 32-bit limbs,
    mod 2^128, in place; returns the same list."""
    for low, high in zip(columns, columns[1:]):
        high += low >> 32
        low &= _MASK32
    columns[-1] &= _MASK32
    return columns


def _pcg_step(state: list, inc: list) -> list:
    """One PCG step, state * A + inc mod 2^128, on little-endian 32-bit limbs."""
    columns = [limb.copy() for limb in inc]
    for i in range(4):
        for j in range(4 - i):
            product = state[i] * _PCG_MULT_LIMBS[j]
            if i + j < 3:
                columns[i + j + 1] += product >> 32
            product &= _MASK32
            columns[i + j] += product
    return _carry(columns)


def _first_uniform(pool: list) -> np.ndarray:
    """First ``random()`` of default_rng(seed sequence with this pool).

    ``generate_state(4, uint64)`` gives the PCG64 seed s and stream selector
    q; ``srandom`` leaves the state at (inc + s) * A + inc with
    inc = 2q + 1, and one more step precedes the XSL-RR output, whose top
    53 bits scale to [0, 1).
    """
    const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value, const = _hashmix(pool[i % _POOL_SIZE], const, _MULT_B)
        words.append(value.astype(np.uint64))
    # uint64 words (w0|w1<<32, w2|w3<<32, ...); s = u0<<64 | u1, q = u2<<64 | u3.
    seed = [words[2], words[3], words[0], words[1]]
    select = [words[6], words[7], words[4], words[5]]
    inc = _carry([2 * select[0] + 1] + [2 * limb for limb in select[1:]])
    state = _carry([x + y for x, y in zip(inc, seed)])
    del words, seed, select
    state = _pcg_step(_pcg_step(state, inc), inc)
    del inc
    high = (state[3] << np.uint64(32)) | state[2]
    low = (state[1] << np.uint64(32)) | state[0]
    high ^= low  # the XSL fold
    rotation = state[3] >> np.uint64(26)
    del state, low
    output = high >> rotation
    high <<= (np.uint64(64) - rotation) & np.uint64(63)
    output |= high
    output >>= np.uint64(11)
    return output.astype(np.float64) * 2.0**-53


def _spawn_uniforms(pool: list, block: np.ndarray) -> np.ndarray:
    """First uniform of every stream whose spawn key is in ``block`` (uint32),
    given the seed's pool from :func:`_seed_pool`.  SeedSequence pads a
    seed shorter than its pool with zero words before a spawn key, which
    hashes as the pool built from the seed alone; the key is then mixed
    into every pool word, as SeedSequence does with entropy beyond the pool
    size."""
    mixed = list(pool)
    const = _SPAWN_CONST
    for dst in range(_POOL_SIZE):
        hashed, const = _hashmix(block, const)
        mixed[dst] = _mix(mixed[dst], hashed)
    return _first_uniform(mixed)


def _trial_uniform_blocks(master_seed: int, trials: int):
    """Yield ``(start, uniforms)`` covering trials 0..trials-1 in blocks of
    ``DRAW_CHUNK``: ``trial_stream(master_seed, t).random()`` for every t,
    bit for bit, vectorized over the block.  The seed, in [0, 2^64), is
    hashed once; each trial index, below ``phase_estimation.MAX_TRIALS``
    <= 2^32, is one 32-bit spawn-key word."""
    pool = _seed_pool(master_seed)
    for start in range(0, trials, DRAW_CHUNK):
        block = np.arange(start, min(start + DRAW_CHUNK, trials), dtype=np.uint32)
        yield start, _spawn_uniforms(pool, block)
