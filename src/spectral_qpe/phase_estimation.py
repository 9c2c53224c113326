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
carries no flag qubit.  The engine and the loop apply U through one map on
blocks of system columns, :func:`_step_map`, so for a sliced source the
binary route, which runs the source's gate-level steps, is the only
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
from dataclasses import dataclass, field, replace

import numpy as np

from . import hamiltonian as ham
from . import oracle
from . import problems
from . import qft
from . import statevector as sv
from .errors import AuditFailure, ConfigFieldError

log = logging.getLogger(__name__)

#: The index register must be |0...0> to this amplitude tolerance before
#: its Hadamards.
INDEX_RESIDUE_TOL = 1e-9
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


@dataclass(frozen=True)
class PhaseEstimationConfig:
    """Everything one estimation run needs.

    ``m_index`` is the number of index qubits (M = 2^m_index readout bins).
    ``time`` is the t in U = e^{-iHt}; it maps measured phases back to
    energies and is checked by :func:`check_time`.  Exactly one unitary
    source must be given:

    * ``unitary`` -- a dense gate over the system register, taken to be
      e^{-iHt} as is;
    * ``decomposition`` -- the :class:`~spectral_qpe.oracle.SpectralDecomposition`
      of H, for exact evolution U = e^{-iHt}.  The block engine works in its
      eigenbasis and never forms U; the gate routes build the dense U from
      it once, with
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
    acts on, the same on every route.  This is the one parser of a run's
    values: each is typed here (an integer field takes any integral but a
    bool; ``time`` any finite real), so a config built directly refuses
    each value the CLI refuses, with :class:`ConfigFieldError` naming the
    same field, before any work.
    """

    m_index: int
    unitary: sv.GateMatrix | None = None
    source: object | None = None
    decomposition: oracle.SpectralDecomposition | None = None
    time: float | None = None
    slices: int = 1
    trials: int = 1
    seed: int = 0
    power_method: str = "block"
    layout: sv.RegisterLayout = field(init=False, compare=False)

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class PhaseSample:
    """One measured readout: bin, its phase 2*pi*bin/M, the energy estimate,
    and the post-measurement system-register state."""

    bin: int
    phase: float
    energy: float
    collapsed_state: sv.StateVector


@dataclass(frozen=True)
class EigenResult:
    """Aggregate of a multi-trial run.

    ``bins`` holds the readout bin of every trial, in trial order, read-only
    and in the narrowest unsigned dtype that holds M - 1 (uint8 up to
    ``m_index`` 8, then uint16, then uint32).  ``counts`` holds the number
    of trials that read each of the M bins.  ``collapsed_states`` holds the
    collapsed system state of every bin that was read at least once, so a
    peak's eigenvector estimate is ``collapsed_states[bin]``.  ``peaks``
    holds (bin, empirical probability) pairs at or above the detection
    threshold, sorted by descending probability (ties by bin).
    """

    bins: np.ndarray
    counts: np.ndarray
    collapsed_states: dict[int, sv.StateVector]
    peaks: list[tuple[int, float]]


def default_peak_threshold(trials: int) -> float:
    """Detection threshold tau = max(0.05, 4/sqrt(trials))."""
    return max(0.05, 4.0 / math.sqrt(trials))


def prepare_index_superposition(
    state: sv.StateVector, layout: sv.RegisterLayout
) -> sv.StateVector:
    """Hadamard every index qubit: |0>|sys> -> (1/sqrt(M)) sum_j |j>|sys>."""
    if state.num_qubits != layout.total_qubits:
        raise ValueError(
            f"state has {state.num_qubits} qubits, layout spans {layout.total_qubits}"
        )
    # The index bits are the low ones: column v of this view is index value v.
    # The largest |amplitude| off index 0; a NaN gives NaN.
    residue = float(np.abs(state.amplitudes.reshape(-1, layout.num_bins)[:, 1:]).max())
    if not (residue <= INDEX_RESIDUE_TOL):  # NaN fails closed
        raise ValueError(f"index register is not |0...0>: residue amplitude {residue:.3e}")
    h = sv.hadamard()
    for qubit in layout.index_qubits:
        state = sv.apply_gate(state, h, [qubit])
    return state


def _step_map(config: PhaseEstimationConfig):
    """U as a map on (2^l, K) blocks of system columns (and on single
    vectors), the one map the block engine and the flag loop apply: a
    source's ``system_step`` over ``slices`` steps, or the dense U times the
    block."""
    if config.source is not None:
        return config.source.system_step(config.time / config.slices, config.slices)
    matrix = _dense_unitary(config).matrix
    return lambda block: matrix @ block


def _dense_unitary(config: PhaseEstimationConfig) -> sv.GateMatrix:
    """The config's unitary, or U built from its decomposition."""
    if config.unitary is not None:
        return config.unitary
    return ham.unitary_from_decomposition(config.decomposition, config.time)


def apply_conditional_powers_flag_loop(
    state: sv.StateVector, config: PhaseEstimationConfig
) -> sv.StateVector:
    """Conditional powers via the comparator loop.

    For i = 1..M: raise a flag on components whose index value j satisfies
    i <= j, apply controlled-U on the flag, lower the flag again.  Component
    j thus receives exactly U^j.  The loop counter is classical and U maps
    zero to zero, so in the (system, index) view of the amplitudes the three
    compose exactly to U on the index columns [i, M): the flag is set and
    cleared within each step and needs no qubit.  The loop copies the input
    once, writes :func:`_step_map` of the window's (2^l, M - i) block of
    system columns back in place for i = 1..M-1 and norm-checks the whole
    state after each step; step M has an empty window and is skipped.
    """
    num_bins = config.layout.num_bins
    amps = state.amplitudes.copy()
    columns = amps.reshape(-1, num_bins)
    step = _step_map(config)
    for i in range(1, num_bins):
        columns[:, i:] = step(columns[:, i:])
        sv._check_norm(amps)
    return sv._wrap_state(state.num_qubits, amps, check=False)


def apply_conditional_powers_binary(
    state: sv.StateVector, config: PhaseEstimationConfig
) -> sv.StateVector:
    """Conditional powers via index bits: controlled-U^(2^s) off index qubit s.

    A source runs 2^s * ``slices`` gate-level steps under qubit s; a dense
    U^(2^s) is the stable square of U^(2^(s-1)), validated once as a gate.
    """
    system = config.layout.system_qubits
    if config.source is not None:
        dt = config.time / config.slices
        for s, qubit in enumerate(config.layout.index_qubits):
            for _ in range(2**s * config.slices):
                state = config.source.apply_step(state, dt, system, [qubit])
        return state
    gate = _dense_unitary(config)
    for s, qubit in enumerate(config.layout.index_qubits):
        if s:
            gate = sv.GateMatrix(sv._stable_square(gate.matrix))
        state = sv.apply_controlled_gate(state, gate, [qubit], system)
    return state


#: Phase-table entries the spectral engine builds at once (256 KiB of complex128).
_PHASE_BLOCK = 2**14


def _spectral_columns(
    psi: np.ndarray, va: sv.StateVector, decomposition: oracle.SpectralDecomposition,
    time: float,
) -> None:
    """Fill column j of ``psi`` with e^{-iHtj}|va> = V (e^{-iEtj} * c), c = V^dag|va>.

    The phase table e^{-iEtj} * c is built for one block of columns at a
    time, at most ``_PHASE_BLOCK`` entries, and V multiplies it straight
    into ``psi`` (:meth:`~spectral_qpe.oracle.SpectralDecomposition.from_eigenbasis`,
    which never copies V).
    """
    coefficients = decomposition.to_eigenbasis(va.amplitudes)[:, None]
    rates = -time * decomposition.eigenvalues
    dim, num_bins = psi.shape
    width = max(1, min(num_bins, _PHASE_BLOCK // dim))
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
    transposed copy is made.  The transform runs in place, one block of at
    most ``_PHASE_BLOCK`` entries (or one row) at a time, so ``psi`` is the
    only state-sized array; its bits are those of one whole-array FFT.  The
    inverse-QFT kernel e^{-2*pi*i*jk/M} is numpy's forward FFT, so the
    readout amplitudes are fft(psi)/M.
    """
    layout = config.layout
    psi = _power_columns(va, config)
    rows = max(1, _PHASE_BLOCK // layout.num_bins)
    for start in range(0, len(psi), rows):
        block = psi[start : start + rows]
        np.fft.fft(block, out=block)
    psi /= layout.num_bins
    return sv._wrap_state(layout.total_qubits, psi.reshape(-1))


def _lifted_register(va: sv.StateVector, layout: sv.RegisterLayout) -> sv.StateVector:
    """|0>_index (x) |va>_system as one register, owned by the returned state
    alone so that the first gate on it frees it."""
    amps = np.zeros(2**layout.total_qubits, dtype=np.complex128)
    amps[np.arange(2**layout.l_system) << layout.m_index] = va.amplitudes
    return sv._wrap_state(layout.total_qubits, amps)


def pre_measurement_state(va: sv.StateVector, config: PhaseEstimationConfig) -> sv.StateVector:
    """Everything before measurement, on the route named by
    ``config.power_method``; deterministic (no randomness involved)."""
    layout = config.layout
    if va.num_qubits != layout.l_system:
        raise ValueError(
            f"guess state spans {va.num_qubits} qubits but the system register "
            f"has {layout.l_system}"
        )
    if config.power_method == "block":
        return _block_engine_state(va, config)
    state = prepare_index_superposition(_lifted_register(va, layout), layout)
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


def analytic_bin_distribution(components, m_index: int) -> np.ndarray:
    """Closed-form readout distribution for known spectral components.

    ``components`` is a list of (weight |c_k|^2, phase w_k) pairs; the result
    is P(j) = sum_k w_k * F_M(w_k - 2*pi*j/M) with the leakage kernel F_M =
    |D_M|^2, the squared sine ratio of :func:`_dirichlet_amplitude`.
    """
    if m_index < 1:
        raise ValueError(f"m_index must be >= 1, got {m_index}")
    weights = np.array([w for w, _ in components], dtype=float)
    phases = np.array([p for _, p in components], dtype=float)
    if not (np.isfinite(weights).all() and np.isfinite(phases).all()):
        raise ValueError("component weights and phases must be finite")
    total = float(weights.sum())
    if not (abs(total - 1.0) <= 1e-9):
        raise ValueError(f"component weights must sum to 1, got {total!r}")
    M = 2**m_index
    ratio = _dirichlet_amplitude(phases, np.arange(M), M, phase=False)
    return weights @ np.square(ratio, out=ratio)


def analytic_collapsed_states(
    va: sv.StateVector,
    decomposition: oracle.SpectralDecomposition,
    t: float,
    m_index: int,
    bins,
) -> dict[int, np.ndarray]:
    """Closed-form system states left by reading each of ``bins``.

    Reading bin j leaves sum_k c_k D_M(w_k - 2*pi*j/M) |phi_k>, normalized,
    with c_k and w_k from :func:`~spectral_qpe.oracle.spectral_amplitudes`
    and the Dirichlet amplitude D_M of :func:`_dirichlet_amplitude`, whose
    squared modulus is the leakage kernel of :func:`analytic_bin_distribution`.
    All bins are evaluated in one O(bins * K) pass.  A non-finite ``t`` or
    eigenphase, or a bin whose prediction has no norm, raises ``ValueError``.
    """
    if not math.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t!r}")
    overlaps, phases = oracle.spectral_amplitudes(va, decomposition, t)
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
    return replace(config, source=None, slices=1, decomposition=decomposition)


class Run:
    """A run built from a config dict with the keys of ``problems.RUN_KEYS``
    ("out" is left to the caller): ``problem``, the validated ``config``,
    ``threshold`` and ``guess``.  With ``slices`` "exact" (the default) a
    Hamiltonian runs as U = e^{-iHt} from its decomposition, which the
    config carries in place of the source.  The decomposition is computed
    last, so every refusal (a :class:`ConfigFieldError` naming its key)
    precedes it; no dense U is built unless a gate route needs one.
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
        """Warn when an eigenvalue lies outside the window (-pi/t, pi/t]."""
        decomposition = self.problem.decomposition
        if decomposition is None:
            return
        window = math.pi / abs(self.config.time)
        extreme = float(np.abs(decomposition.eigenvalues).max())
        if extreme > window:
            log.warning(
                "spectral radius %.6g exceeds the unaliased window (-%.6g, %.6g]; "
                "reported energies may be aliased — reduce time below %.6g",
                extreme, window, window, math.pi / extreme,
            )


@dataclass(frozen=True)
class AuditReport:
    """The deviations :func:`audit` found; ``worst_bin`` is -1 when no bin is populated."""

    distribution_deviation: float
    other_route: str
    route_deviation: float
    worst_fidelity: float
    worst_bin: int


def audit(run: Run, *, _corrupt_qft_sign: bool = False) -> AuditReport:
    """Check ``run``, in exact evolution whatever its slices, against
    :func:`analytic_bin_distribution` per bin, a second route per amplitude
    and :func:`analytic_collapsed_states` per populated bin; raises
    :class:`AuditFailure` past a tolerance.

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

    components = oracle.spectral_components(run.guess, decomposition, config.time)
    analytic = analytic_bin_distribution(components, config.m_index)
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
    cross = pre_measurement_state(run.guess, replace(config, power_method=other)).amplitudes
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
    predicted = analytic_collapsed_states(
        run.guess, decomposition, config.time, config.m_index, populated
    )
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
