"""Eigenvalue extraction by phase estimation.

Pipeline: put the index register into a uniform superposition, apply the
system unitary conditionally so index value j receives U^j, run the inverse
QFT on the index register, and measure it.  A measured bin j estimates an
eigenphase w = 2*pi*j/M of U; for U = e^{-iHt} that phase maps back to an
energy, and the system register collapses onto the matching eigenvector
content.

The production route is the block engine (``power_method="block"``).  After
the index Hadamards and the conditional powers, index value j holds
U^j|V_a>/sqrt(M), and the readout inverse QFT is a DFT along j (Cleve, Ekert,
Macchiavello and Mosca, Proc. R. Soc. A 454:339, 1998).  The engine therefore
builds the columns U^j|V_a> on the 2^l system register alone and takes one
FFT along j.  For exact evolution, U = e^{-iHt} = V e^{-iEt} V^dag, column j
is V (e^{-iEtj} * V^dag|V_a>): one matrix product per block of columns, with
no dense U and no accumulated rounding.  For an explicit unitary or a sliced
source it is the repeated step U^j|V_a> = U (U^(j-1)|V_a>).  Two
constructions over the whole 2^(m+l) register are kept as references, both
read out by the gate-level inverse QFT: the per-index-bit binary route,
whose controlled powers run gate by gate, and the comparator loop, whose
step i applies U to index columns [i, M) in place.  A comparator flag
would mark those columns and be uncomputed within the step, so the loop
carries no flag qubit.  In exact evolution V acts on the system register
alone and commutes with every flag step, so the loop runs in the
eigenbasis, where step i multiplies the window by e^{-iEt}, and builds no
dense U; the binary route's dense U and its squares are then the one dense
witness of e^{-iHt}.  Otherwise the engine and the loop apply U through one
map on blocks of system columns, :func:`_step_map`, so for a sliced source
the binary route, which runs the source's gate-level steps, is the only
independent check of that map.
All three must agree to 1e-10 per amplitude and the tests enforce that.
The module also carries the closed-form measurement distribution and
collapsed states, which verify the whole pipeline without sampling;
:func:`audit` runs those checks on a :class:`Run`, which is assembled and
validated from a config dict.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from . import hamiltonian as ham
from . import oracle
from . import problems
from . import qft
from . import statevector as sv
from .errors import AuditFailure, ConfigFieldError

log = logging.getLogger(__name__)

#: Accepted ``power_method`` values: the block engine, then the gate routes.
POWER_METHODS = ("block", "binary_power", "flag_loop")
#: Most trials one run may draw: ``sample_spectrum`` holds one bin per trial,
#: 1 to 4 bytes by ``m_index`` (at most 256 MB at 2^26 trials), plus one draw
#: block of ``sv.DRAW_CHUNK`` trials.
MAX_TRIALS = 2**26
#: Audit tolerances: per bin, per amplitude between routes, per collapse fidelity.
DISTRIBUTION_TOL = 1e-10
ROUTE_TOL = 1e-10
COLLAPSE_FIDELITY_TOL = 1e-9
POPULATED_BIN_FLOOR = 1e-9


class PhaseEstimationConfig(sv._Record):
    """Everything one estimation run needs.

    ``m_index`` is the number of index qubits (M = 2^m_index readout bins).
    ``time`` is the t in U = e^{-iHt}; it maps measured phases back to
    energies and is checked by :func:`check_time`.  Exactly one unitary
    source must be given:

    * ``unitary`` -- a dense gate over the system register, taken to be
      e^{-iHt} as is;
    * ``decomposition`` -- the :class:`~spectral_qpe.oracle.SpectralDecomposition`
      of H, for exact evolution U = e^{-iHt}.  The block engine and the
      flag loop work in its eigenbasis and never form U; the binary route
      builds the dense U from it once, with
      :func:`~spectral_qpe.hamiltonian.unitary_from_decomposition`; or
    * ``source`` -- an evolution source, run as ``slices`` steps of
      ``dt = time / slices``: a :class:`~spectral_qpe.hamiltonian.HamiltonianSum`
      (one step is a Trotter slice; its docstring lists the interface) or a
      :class:`~spectral_qpe.problems.GridRecipe` (a position/momentum split
      step).

    ``power_method`` selects the route: ``"block"`` (the engine, default),
    or one of the whole-register references ``"binary_power"`` and
    ``"flag_loop"``.  The engine rounds differently from the gate routes,
    within 1e-10 per amplitude.  ``seed`` is the master seed of the
    per-trial streams, in [0, 2^64), and ``trials`` lies in [1, MAX_TRIALS].

    The register layout is derived, not declared: ``layout`` is the
    read-only ``RegisterLayout(m_index, l)`` with l the qubits the unitary
    acts on, the same on every route.  :meth:`replace` gives a copy with
    fields changed, validated anew.  This is the one parser of a run's
    values: each is typed here (an integer field takes any integral but a
    bool; ``time`` any finite real), so a config built directly refuses
    each value the CLI refuses, with :class:`ConfigFieldError` naming the
    same field, before any work.
    """

    __slots__ = ("m_index", "unitary", "source", "decomposition", "time", "slices", "trials",
                 "seed", "power_method", "layout")

    def __init__(
        self,
        m_index: int,
        unitary: sv.GateMatrix | None = None,
        source: object | None = None,
        decomposition: oracle.SpectralDecomposition | None = None,
        time: float | None = None,
        slices: int = 1,
        trials: int = 1,
        seed: int = 0,
        power_method: str = "block",
    ) -> None:
        super().__init__(m_index, unitary, source, decomposition, time, slices, trials, seed,
                         power_method, None)
        for key, low, high in (("trials", 1, MAX_TRIALS), ("seed", 0, 2**64 - 1),
                               ("slices", 1, None), ("m_index", None, None)):
            object.__setattr__(self, key, problems.as_int(getattr(self, key), key, low, high))
        if self.power_method not in POWER_METHODS:
            choices = ", ".join(f'"{m}"' for m in POWER_METHODS)
            raise ConfigFieldError(
                "power_method",
                f"power_method must be one of {choices}, got {self.power_method!r}",
            )
        given = [s for s in (self.unitary, self.source, self.decomposition) if s is not None]
        if len(given) != 1:
            raise ValueError("config needs exactly one of: unitary, source, decomposition")
        phase_rate = check_time(self.time, None if self.unitary is not None else given[0])
        object.__setattr__(self, "time", float(self.time))
        if self.source is None and self.slices != 1:
            raise ConfigFieldError("slices", "slices only apply to a source, not to a unitary")
        step_time(self.time, self.slices, "slices")
        if self.unitary is not None:
            system = self.unitary.arity
        elif self.source is not None:
            system = self.source.num_qubits
        else:
            system = self.decomposition.num_qubits
        try:
            layout = sv.RegisterLayout(self.m_index, system)
        except ValueError as exc:
            raise ConfigFieldError("m_index", str(exc)) from exc
        object.__setattr__(self, "layout", layout)
        # Index value j accumulates a phase of up to j * phase_rate.  From this
        # rate on, float64's spacing at M * phase_rate reaches a readout bin,
        # 2*pi/M, so the readout would carry rounding, not the spectrum.
        limit = 2.0 * math.pi * 2.0**52 / layout.num_bins**2
        if not (phase_rate < limit):
            raise ConfigFieldError(
                "time",
                f"|time| * ||H|| = {phase_rate:.6g} is not below {limit:.6g}, so float64 "
                f"cannot place the phases within one of {layout.num_bins} readout "
                f"bins; reduce the time",
            )

    def replace(self, **changes) -> PhaseEstimationConfig:
        """This config with ``changes`` to its fields (all but ``layout``),
        validated as a new one."""
        fields = dict(zip(self.__slots__[:-1], self._values()))
        return PhaseEstimationConfig(**{**fields, **changes})


def check_time(time, source=None) -> float:
    """Refuse a time that is not a finite nonzero real, or whose product with
    ``source.norm_bound()`` (a bound on ||H||; a source or a spectral
    decomposition) is not finite, so no phase overflows; return that
    product, |time| * ||H|| (0 without a source)."""
    time = problems.as_real(time, "time")
    if time == 0:
        raise ConfigFieldError("time", f"time must be nonzero, got {time!r}")
    bound = source.norm_bound() if source is not None else 0.0
    phase_rate = abs(time) * bound
    if not math.isfinite(phase_rate):
        raise ConfigFieldError("time", f"|time| * ||H|| is not finite ({time!r} times a norm "
                                       f"bound of {bound:.6g}); reduce the time")
    return phase_rate


def step_time(time: float, slices: int, key: str) -> float:
    """``time / slices``, refused naming ``key`` unless a nonzero float."""
    try:
        step = time / slices
    except OverflowError:  # a slice count past the float range
        step = 0.0
    if step == 0.0:
        raise ConfigFieldError(key, f"the step time {time!r} / {key} underflows to zero")
    return step


class PhaseSample(sv._Record):
    """One measured readout: bin, its phase 2*pi*bin/M, the energy estimate,
    and the post-measurement system-register state."""

    __slots__ = ("bin", "phase", "energy", "collapsed_state")

    # An __init__ in the class body: bench/tracer.py labels a constructor by it.
    def __init__(self, bin: int, phase: float, energy: float,
                 collapsed_state: sv.StateVector) -> None:
        super().__init__(bin, phase, energy, collapsed_state)


class EigenResult(sv._Record):
    """``EigenResult(bins, counts, collapsed_states, peaks)``, the aggregate
    of a multi-trial run.

    ``bins`` holds the readout bin of every trial, in trial order, read-only
    and in the narrowest unsigned dtype that holds M - 1 (uint8 up to
    ``m_index`` 8, then uint16, then uint32).  ``counts`` holds the number
    of trials that read each of the M bins.  ``collapsed_states`` holds the
    collapsed system state of every bin that was read at least once, so a
    peak's eigenvector estimate is ``collapsed_states[bin]``.  ``peaks``
    holds (bin, empirical probability) pairs at or above the detection
    threshold, sorted by descending probability (ties by bin).
    """

    __slots__ = ("bins", "counts", "collapsed_states", "peaks")


def default_peak_threshold(trials: int) -> float:
    """Detection threshold tau = max(0.05, 4/sqrt(trials))."""
    return max(0.05, 4.0 / math.sqrt(trials))


def _check_guess(va: sv.StateVector, layout: sv.RegisterLayout) -> None:
    """Refuse a guess that does not span the system register."""
    if va.num_qubits != layout.l_system:
        raise ValueError(f"guess state spans {va.num_qubits} qubits but the system "
                         f"register has {layout.l_system}")


def prepare_index_superposition(va: sv.StateVector, layout: sv.RegisterLayout) -> sv.StateVector:
    """Hadamard every index qubit of |0...0>|va>: (1/sqrt(M)) sum_j |j>|va>
    over the 2^(m+l) register, written in one pass.  The 1/sqrt(M) is one
    factor of the Hadamard's 1/sqrt(2) per index qubit on the 2^l guess, so
    the bits are those of the gate-by-gate layer; the call holds only its
    output and that column."""
    _check_guess(va, layout)
    column, half = va.amplitudes, sv.hadamard().matrix[0, 0]  # 1/sqrt(2)
    for _ in layout.index_qubits:
        column = column * half
    amps = np.empty(2**layout.total_qubits, dtype=np.complex128)
    # The index bits are the low ones: column v of this view is index value v.
    amps.reshape(-1, layout.num_bins)[:] = column[:, None]
    return sv._wrap_state(layout.total_qubits, amps)


def _step_map(config: PhaseEstimationConfig):
    """U as a map on (2^l, K) blocks of system columns (and on single
    vectors), for an explicit unitary or a source: the map the block engine
    repeats and the flag loop applies to its windows.  It is a source's
    ``system_step`` over ``slices`` steps, or the dense U times the block.
    Exact evolution has no step map: both routes work in the eigenbasis."""
    if config.source is not None:
        return config.source.system_step(config.time / config.slices, config.slices)
    matrix = config.unitary.matrix
    return lambda block: matrix @ block


def apply_conditional_powers_flag_loop(
    state: sv.StateVector, config: PhaseEstimationConfig
) -> sv.StateVector:
    """Conditional powers via the comparator loop.

    For i = 1..M: raise a flag on components whose index value j satisfies
    i <= j, apply controlled-U on the flag, lower the flag again.  Component
    j thus receives exactly U^j.  The loop counter is classical and U maps
    zero to zero, so in the (system, index) view of the amplitudes the three
    compose exactly to U on the index columns [i, M): the flag is set and
    cleared within each step and needs no qubit.  Step M has an empty
    window and is skipped; the whole state is norm-checked after each of
    the steps 1..M-1.

    One loop runs on the (2^l, M) system columns, whatever form U takes.
    For exact evolution U = V e^{-iEt} V^dag, and V acts on the system
    register alone, so it commutes with every flag step (Cleve et al. 1998):
    the columns go into the eigenbasis and back once, and a step multiplies
    the window by e^{-iEt} in place (its write-back copies nothing), so no
    dense U is built and beyond its input the loop holds two states.
    Otherwise the columns are a copy of the input and a step is
    :func:`_step_map` of the window's (2^l, M - i) block.
    """
    num_bins = config.layout.num_bins
    decomposition = config.decomposition
    if decomposition is not None:
        columns = decomposition.to_eigenbasis(state.amplitudes.reshape(-1, num_bins))
        phases = decomposition.evolution_phases(config.time)[:, None]
        step = lambda window: np.multiply(window, phases, out=window)
    else:
        columns = state.amplitudes.reshape(-1, num_bins).copy()
        step = _step_map(config)
    for i in range(1, num_bins):
        columns[:, i:] = step(columns[:, i:])
        sv._check_norm(columns)
    if decomposition is None:
        return sv._wrap_state(state.num_qubits, columns.reshape(-1), check=False)
    return sv._wrap_state(state.num_qubits, decomposition.from_eigenbasis(columns).reshape(-1))


def apply_conditional_powers_binary(
    state: sv.StateVector, config: PhaseEstimationConfig
) -> sv.StateVector:
    """Conditional powers via index bits: controlled-U^(2^s) off index qubit s.

    A source runs 2^s * ``slices`` gate-level steps under qubit s; a dense
    U^(2^s) is square s of ``sv._unitary_squares``, applied by the gate
    kernel as the squaring checked it (U itself was checked as a gate).
    """
    system = config.layout.system_qubits
    if config.source is not None:
        dt = config.time / config.slices
        for s, qubit in enumerate(config.layout.index_qubits):
            for _ in range(2**s * config.slices):
                state = config.source.apply_step(state, dt, system, [qubit])
        return state
    gate = config.unitary
    if gate is None:
        gate = ham.unitary_from_decomposition(config.decomposition, config.time)
    # drawn one at a time: a zip's cached tuple would keep a used square alive
    squares = sv._unitary_squares(gate.matrix)
    for qubit in config.layout.index_qubits:
        amps = sv._apply_matrix(state.amplitudes, state.num_qubits, next(squares), system, [qubit])
        state = sv._wrap_state(state.num_qubits, amps)
    return state


def _spectral_columns(
    psi: np.ndarray, va: sv.StateVector, decomposition: oracle.SpectralDecomposition,
    time: float,
) -> None:
    """Fill column j of ``psi`` with e^{-iHtj}|va> = V (e^{-iEtj} * c), c = V^dag|va>.

    The phase table e^{-iEtj} * c is built for one block of columns at a
    time, at most ``sv._BLOCK_ENTRIES`` entries, and V multiplies it straight
    into ``psi`` (:meth:`~spectral_qpe.oracle.SpectralDecomposition.from_eigenbasis`,
    which never copies V).
    """
    coefficients = decomposition.to_eigenbasis(va.amplitudes)[:, None]
    rates = decomposition._eigenphases(time)
    dim, num_bins = psi.shape
    width = max(1, min(num_bins, sv._BLOCK_ENTRIES // dim))
    table = np.empty((dim, width), dtype=np.complex128)
    for start in range(0, num_bins, width):
        stop = min(start + width, num_bins)
        block = table[:, : stop - start]
        # the angles go in the real parts: sines first, then cosines over them
        np.multiply(rates[:, None], np.arange(start, stop), out=block.real)
        np.sin(block.real, out=block.imag)
        np.cos(block.real, out=block.real)
        block *= coefficients
        decomposition.from_eigenbasis(block, out=psi[:, start:stop])


def _power_columns(va: sv.StateVector, config: PhaseEstimationConfig) -> np.ndarray:
    """The (2^l, M) array whose column j is U^j|va>: from the eigenbasis
    for exact evolution, else by repeating :func:`_step_map`."""
    psi = np.empty((2**config.layout.l_system, config.layout.num_bins), dtype=np.complex128)
    if config.decomposition is not None:
        _spectral_columns(psi, va, config.decomposition, config.time)
        return psi
    step = _step_map(config)
    vector = psi[:, 0] = va.amplitudes
    for j in range(1, config.layout.num_bins):
        vector = psi[:, j] = step(vector)
    return psi


def _block_engine_state(va: sv.StateVector, config: PhaseEstimationConfig) -> sv.StateVector:
    """Pre-measurement state from U^j|va> and one FFT along j.

    Column j of ``psi`` holds U^j|va> (:func:`_power_columns`), so the
    transform runs along the contiguous axis and its (system, index) result
    is already laid out like the gate routes' state, index bits low: no
    transposed copy is made.  The inverse-QFT kernel e^{-2*pi*i*jk/M} is
    numpy's forward FFT, so the readout amplitudes are fft(psi)/M, the 1/M
    applied by the FFT itself (``norm="forward"``; exact, M a power of two).
    The transform runs in place one block of at most ``sv._BLOCK_ENTRIES``
    entries (or one row) at a time, so ``psi`` is the only state-sized
    array.  One whole-array call gives the same bits but raised the peak
    RSS of TFIM-3 ``spectrum`` at ``m_index`` 18 from 76.3 to 84.4 MiB
    (numpy 2.4.6, one BLAS thread), a quarter of the state more.
    """
    layout = config.layout
    psi = _power_columns(va, config)
    rows = max(1, sv._BLOCK_ENTRIES // layout.num_bins)
    for start in range(0, len(psi), rows):
        block = psi[start : start + rows]
        np.fft.fft(block, out=block, norm="forward")
    return sv._wrap_state(layout.total_qubits, psi.reshape(-1))


def pre_measurement_state(va: sv.StateVector, config: PhaseEstimationConfig) -> sv.StateVector:
    """Everything before measurement, on the route named by
    ``config.power_method``; deterministic (no randomness involved)."""
    layout = config.layout
    _check_guess(va, layout)
    if config.power_method == "block":
        return _block_engine_state(va, config)
    state = prepare_index_superposition(va, layout)
    if config.power_method == "flag_loop":
        state = apply_conditional_powers_flag_loop(state, config)
    else:
        state = apply_conditional_powers_binary(state, config)
    return qft.qft_inverse(state, layout.index_qubits)


def pre_measurement_distribution(va: sv.StateVector, config: PhaseEstimationConfig) -> np.ndarray:
    """Exact readout-bin distribution, computed from amplitudes (no sampling)."""
    return sv.register_distribution(pre_measurement_state(va, config), config.layout.index_qubits)


def _negated_bins(state: sv.StateVector, layout: sv.RegisterLayout) -> sv.StateVector:
    """``state`` with the amplitudes of readout bin j moved to bin -j mod M;
    a permutation of a checked state, so its norm is not checked again."""
    columns = state.amplitudes.reshape(-1, layout.num_bins)
    negated = columns[:, -np.arange(layout.num_bins) % layout.num_bins]
    return sv._wrap_state(layout.total_qubits, negated.reshape(-1), check=False)


def _collapse_bins(
    state: sv.StateVector, layout: sv.RegisterLayout, bins
) -> dict[int, sv.StateVector]:
    """System-register states conditioned on reading each of ``bins``: the
    bin's (system, index) column of the state, renormalized."""
    columns = state.amplitudes.reshape(2**layout.l_system, layout.num_bins)
    collapsed = {}
    for bin_index in bins:
        system = columns[:, bin_index]
        norm = float(np.linalg.norm(system))
        if norm == 0.0:
            raise ValueError(f"readout bin {bin_index} carries no amplitude")
        collapsed[bin_index] = sv._wrap_state(layout.l_system, system / norm)
    return collapsed


def _peak_threshold(threshold) -> float:
    """``threshold``, refused unless a positive real."""
    threshold = problems.as_real(threshold, "threshold")
    if not threshold > 0.0:
        raise ConfigFieldError("threshold", f"peak threshold must be a positive real, got {threshold!r}")
    return threshold


def sample_spectrum(
    va: sv.StateVector, config: PhaseEstimationConfig, *, threshold: float | None = None
) -> EigenResult:
    """Run ``config.trials`` independent estimations and aggregate.

    The pipeline up to measurement consumes no randomness, so the
    pre-measurement state is computed once; each trial then draws only its
    measurement outcome: trial t takes the first bin whose cumulative
    probability exceeds u times the total, u the first uniform of its stream
    ``sv.trial_stream(seed, t)``, and each bin read collapses the system
    register onto its renormalized column.  This is the package's one
    readout, bit-identical to running the full pipeline per trial.  Trials
    are drawn vectorized by ``sv._trial_uniform_blocks``, from the seed's
    SeedSequence pool, in blocks of ``sv.DRAW_CHUNK``, so besides the
    pre-measurement state a run holds only ``bins`` and one block's
    temporaries.  ``threshold`` None takes :func:`default_peak_threshold`;
    one that is not a positive real is refused before any work.
    """
    threshold = (default_peak_threshold(config.trials) if threshold is None
                 else _peak_threshold(threshold))
    layout = config.layout
    pre = pre_measurement_state(va, config)
    cumulative = np.cumsum(sv.register_distribution(pre, layout.index_qubits))
    bins = np.empty(config.trials, dtype=np.min_scalar_type(layout.num_bins - 1))
    counts = np.zeros(layout.num_bins, dtype=np.intp)
    for start, uniforms in sv._trial_uniform_blocks(config.seed, config.trials):
        block = sv._draw_from_cumulative(cumulative, uniforms)
        bins[start : start + block.size] = block
        counts += np.bincount(block, minlength=layout.num_bins)
    bins.setflags(write=False)
    empirical = counts / config.trials
    peak_bins = [int(b) for b in np.nonzero(empirical >= threshold)[0]]
    peak_bins.sort(key=lambda b: (-empirical[b], b))
    collapsed = _collapse_bins(pre, layout, [int(b) for b in np.nonzero(counts)[0]])
    return EigenResult(bins, counts, collapsed, [(b, float(empirical[b])) for b in peak_bins])


def analytic_bin_distribution(weights, phases, m_index: int) -> np.ndarray:
    """Closed-form readout distribution of a spectral record.

    ``weights`` holds |c_k|^2 and ``phases`` w_k, one of each per component
    (:func:`~spectral_qpe.oracle.spectral_amplitudes`); the result is
    P(j) = sum_k |c_k|^2 F_M(w_k - 2*pi*j/M) with the leakage kernel F_M =
    |D_M|^2, the squared sine ratio of :func:`_dirichlet_amplitude`.
    """
    if m_index < 1:
        raise ValueError(f"m_index must be >= 1, got {m_index}")
    weights = np.asarray(weights, dtype=float)
    phases = np.asarray(phases, dtype=float)
    if not (np.isfinite(weights).all() and np.isfinite(phases).all()):
        raise ValueError("component weights and phases must be finite")
    total = float(weights.sum())
    if not (abs(total - 1.0) <= 1e-9):
        raise ValueError(f"component weights must sum to 1, got {total!r}")
    M = 2**m_index
    ratio = _dirichlet_amplitude(phases, np.arange(M), M, phase=False)
    return weights @ np.square(ratio, out=ratio)


def analytic_collapsed_states(
    overlaps, phases, decomposition: oracle.SpectralDecomposition, m_index: int, bins
) -> dict[int, np.ndarray]:
    """Closed-form system states left by reading each of ``bins``.

    Reading bin j leaves sum_k c_k D_M(w_k - 2*pi*j/M) |phi_k>, normalized,
    with c_k and w_k the arrays of a spectral record
    (:func:`~spectral_qpe.oracle.spectral_amplitudes`), |phi_k> the
    eigenvectors of ``decomposition`` and the Dirichlet amplitude D_M of
    :func:`_dirichlet_amplitude`, whose squared modulus is the leakage kernel
    of :func:`analytic_bin_distribution`.  All bins are evaluated in one
    O(bins * K) pass.  A non-finite eigenphase, or a bin whose prediction has
    no norm, raises ``ValueError``.
    """
    if not np.isfinite(phases).all():
        raise ValueError("eigenphases must be finite")
    bins = [int(j) for j in bins]
    amplitudes = _dirichlet_amplitude(phases, np.array(bins, dtype=float), 2**m_index)
    predicted = decomposition.from_eigenbasis(
        np.multiply(overlaps[:, None], amplitudes, out=amplitudes))
    del amplitudes
    norms = np.linalg.norm(predicted, axis=0)
    for j, norm in zip(bins, norms):
        if not (norm > 0.0):  # NaN fails closed
            raise ValueError(f"predicted state for bin {j} has norm {norm!r}")
    predicted /= norms
    return dict(zip(bins, np.ascontiguousarray(predicted.T)))


#: |sin(d/2)| below this counts as d = 0 mod 2*pi, where the sine ratio is 1.
_ON_GRID = 1e-12


def _dirichlet_amplitude(
    phases: np.ndarray, bins: np.ndarray, M: int, phase: bool = True
) -> np.ndarray:
    """D_M(d) = (1/M) sum_{p<M} e^{ipd} = e^{i(M-1)d/2} sin(M*d/2)/(M sin(d/2))
    at d = w_k - 2*pi*j/M, phase w_k down the rows and bin j along the columns.

    The geometric series in closed form (Cleve et al. 1998), with d first
    wrapped into (-pi, pi].  On the grid only the sine ratio is set to 1; the
    phase factor is kept, since (M-1)d/2 there still reaches about 1e-9 at
    M = 1024.  Without ``phase`` only the real sine ratio is returned.  Each
    step writes in place, bit for bit the whole-array expressions.
    """
    d = phases[:, None] - (2.0 * np.pi / M) * bins[None, :]
    np.subtract(np.pi, d, out=d)
    np.mod(d, 2.0 * np.pi, out=d)
    np.subtract(np.pi, d, out=d)
    denominator = np.divide(d, 2.0)
    np.sin(denominator, out=denominator)
    on_grid = np.abs(denominator) < _ON_GRID
    denominator[on_grid] = 1.0
    denominator *= M
    ratio = np.multiply(M, d)
    ratio /= 2.0
    np.sin(ratio, out=ratio)
    ratio /= denominator
    ratio[on_grid] = 1.0
    if not phase:
        return ratio
    del denominator
    amplitude = np.multiply(0.5j * (M - 1), d)
    np.exp(amplitude, out=amplitude)
    amplitude *= ratio
    return amplitude


def phase_to_energy(phase: float, t: float) -> float:
    """Energy estimate E = -phase/t, wrapped into the window (-pi/t, pi/t].

    Aliasing is the caller's problem: eigenvalues outside the window fold
    back into it, so t must be chosen small enough up front.
    """
    if t == 0:
        raise ValueError("evolution time t must be nonzero")
    wrapped = math.pi - (math.pi + phase) % (2.0 * math.pi)
    return wrapped / t


def eigenvector_fidelity(collapsed: sv.StateVector, decomposition: oracle.SpectralDecomposition,
                         energy: float, tol: float) -> float:
    """Overlap of a collapsed state with the eigenspace near ``energy``.

    Returns <c|P|c> where P projects onto the eigenvectors of
    ``decomposition`` with |lambda - energy| <= tol; raises if no eigenvalue
    is that close (the peak was mis-identified).
    """
    mask = np.abs(decomposition.eigenvalues - energy) <= tol
    if not mask.any():
        raise ValueError(
            f"no oracle eigenvalue within {tol!r} of energy {energy!r}"
        )
    overlaps = decomposition.to_eigenbasis(collapsed.amplitudes)[mask]
    return float(np.sum(np.abs(overlaps) ** 2))


# ---------------------------------------------------------------------------
# run assembly and the oracle audit


def _exact_config(
    config: PhaseEstimationConfig, decomposition: oracle.SpectralDecomposition
) -> PhaseEstimationConfig:
    """``config`` running U = e^{-iHt} from ``decomposition`` instead of its source."""
    return config.replace(source=None, slices=1, decomposition=decomposition)


class Run:
    """A run built from a config dict with the keys of ``problems.RUN_KEYS``
    ("out" is left to the caller): ``problem``, the validated ``config``,
    ``threshold`` and ``guess``.  With ``slices`` "exact" (the default) a
    Hamiltonian runs as U = e^{-iHt} from its decomposition, which the
    config carries in place of the source.  The decomposition is computed
    last, so every refusal (a :class:`ConfigFieldError` naming its key)
    precedes it; no dense U is built unless the binary route needs one.
    """

    def __init__(self, cfg: dict) -> None:
        problems.check_keys(cfg, problems.RUN_KEYS)
        self.problem = problems.build_problem(cfg)
        kind_keys = problems.PROBLEM_KEYS[self.problem.kind]
        self._problem_entries = {key: cfg[key] for key in kind_keys if key in cfg}
        self.slices = problems.parse_slices(cfg, self.problem)
        self.config = PhaseEstimationConfig(
            m_index=problems.require(cfg, "m_index"),
            unitary=self.problem.unitary,
            source=self.problem.source,
            time=problems.require(cfg, "time"),
            slices=1 if self.slices == "exact" else self.slices,
            trials=cfg.get("trials", 1),
            seed=cfg.get("seed", 0),
            power_method=cfg.get("power_method", "block"),
        )
        self.threshold = (_peak_threshold(cfg["threshold"]) if "threshold" in cfg
                          else default_peak_threshold(self.config.trials))
        self.guess, self.guess_json = problems.build_guess(cfg, self.config.layout.l_system)
        if self.slices == "exact" and self.problem.source is not None:
            self.config = _exact_config(self.config, self.problem.require_decomposition())

    def resolved_config(self) -> dict:
        """Every run key after defaults but "out", which cannot change
        results, and the problem's own entries."""
        config = self.config
        return {
            "problem": self.problem.kind,
            "m_index": config.m_index,
            "time": config.time,
            "slices": self.slices,
            "trials": config.trials,
            "seed": config.seed,
            "power_method": config.power_method,
            "threshold": self.threshold,
            "guess": self.guess_json,
            **self._problem_entries,
        }

    def warn_if_aliased(self) -> None:
        """Warn when an eigenvalue may lie outside the window (-pi/t, pi/t],
        by the spectral radius, or above the dense cap by the source's
        ``norm_bound()``, an upper bound (1.5 times the radius on TFIM-12)."""
        source = self.problem.source
        if source is None:
            return
        decomposition = self.problem.decomposition
        if decomposition is not None:
            what, extreme = "spectral radius", decomposition.norm_bound()
        else:
            what = "norm bound (an upper bound on the spectral radius)"
            extreme = source.norm_bound()
        window = math.pi / abs(self.config.time)
        if extreme > window:
            log.warning(
                "%s %.6g exceeds the unaliased window (-%.6g, %.6g]; "
                "reported energies may be aliased — reduce time below %.6g",
                what, extreme, window, window, math.pi / extreme,
            )


class AuditReport(sv._ValueRecord):
    """``AuditReport(distribution_deviation, other_route, route_deviation,
    worst_fidelity, worst_bin)``, the deviations :func:`audit` found;
    ``worst_bin`` is -1 when no bin is populated."""

    __slots__ = ("distribution_deviation", "other_route", "route_deviation", "worst_fidelity",
                 "worst_bin")


def audit(run: Run, *, _corrupt_qft_sign: bool = False) -> AuditReport:
    """Check ``run``, in exact evolution whatever its slices, against
    :func:`analytic_bin_distribution` per bin, a second route per amplitude
    and :func:`analytic_collapsed_states` per populated bin, both reading
    one spectral record; raises :class:`AuditFailure` past a tolerance.

    ``_corrupt_qft_sign`` is a negative control, the readout by the forward
    QFT F: F^2 is the bin negation P, j -> -j mod M, so F = P F^{-1} and
    the distribution and collapse checks read the true state with its bins
    negated.  One of the checks must catch it; a distribution symmetric
    under P passes the first, so the collapse check must.
    """
    decomposition = run.problem.require_decomposition()
    config = run.config
    if config.source is not None:
        log.warning("oracle audit always runs exact evolution; ignoring slices=%r", run.slices)
        config = _exact_config(config, decomposition)

    overlaps, phases = oracle.spectral_amplitudes(run.guess, decomposition, config.time)
    analytic = analytic_bin_distribution(np.abs(overlaps) ** 2, phases, config.m_index)
    pre = pre_measurement_state(run.guess, config)
    read = _negated_bins(pre, config.layout) if _corrupt_qft_sign else pre
    simulated = sv.register_distribution(read, config.layout.index_qubits)
    deviation = float(np.abs(simulated - analytic).max())
    if not (deviation <= DISTRIBUTION_TOL):
        raise AuditFailure(
            f"distribution check: max per-bin deviation {deviation:.3e} "
            f"exceeds {DISTRIBUTION_TOL:g}"
        )

    # Route check: the block engine against a gate-level route, amplitude by
    # amplitude (binary_power stands in when the engine is the configured route).
    other = "binary_power" if config.power_method == "block" else "block"
    cross = pre_measurement_state(run.guess, config.replace(power_method=other)).amplitudes
    route_deviation = float(np.abs(cross - pre.amplitudes).max())
    del cross
    if not (route_deviation <= ROUTE_TOL):
        raise AuditFailure(
            f"route check: {config.power_method} and {other} differ by up to "
            f"{route_deviation:.3e} per amplitude, above {ROUTE_TOL:g}"
        )

    # Collapse audit: conditioning on each populated readout bin, as
    # sample_spectrum collapses, must land on the spectrally predicted
    # mixture of eigenvectors.
    populated = [int(j) for j in np.nonzero(analytic > POPULATED_BIN_FLOOR)[0]]
    collapsed = _collapse_bins(read, config.layout, populated)
    predicted = analytic_collapsed_states(overlaps, phases, decomposition, config.m_index, populated)
    worst_bin, worst = -1, 1.0
    for j in populated:
        fidelity = float(abs(np.vdot(predicted[j], collapsed[j].amplitudes)) ** 2)
        if fidelity < worst:
            worst_bin, worst = j, fidelity
        if not (fidelity >= 1.0 - COLLAPSE_FIDELITY_TOL):
            raise AuditFailure(
                f"eigenvector-fidelity audit: bin {j} fidelity {fidelity:.12f} "
                f"below 1 - {COLLAPSE_FIDELITY_TOL:g}"
            )
    return AuditReport(deviation, other, route_deviation, worst, worst_bin)
