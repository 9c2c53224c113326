"""Demo problem builders, config parsing and the qubit-budget calculator.

Two desk-scale problem families exercise the estimation pipeline: an open
transverse-field Ising chain (local spin terms) and a single particle on a
periodic grid (diagonal potential in position space, diagonal kinetic energy
in momentum space, switched by QFTs).  Config dicts are parsed into problems
and guesses here, each refusal a ``ConfigFieldError`` naming its key.  The
resource estimator reproduces the qubit bookkeeping for partitioning a
machine into per-particle, readout, and scratch registers.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from . import hamiltonian as ham
from . import oracle
from . import statevector as sv
from .errors import ConfigFieldError

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
#: Inclusive size bounds of the demo problems: TFIM chain sites, grid qubits.
_TFIM_SITES = (2, 12)
_GRID_QUBITS = (2, 10)


def build_transverse_ising(sites: int, coupling: float, field: float) -> ham.HamiltonianSum:
    """Open-chain H = -J * sum_i Z_i Z_{i+1} - h * sum_i X_i.

    Minus signs on both terms, so the h = 0 ground states are the
    ferromagnets.  Term order (fixed, hence the Trotter order) is all bond
    terms left to right, then all field terms left to right.  Each value is
    typed as the config key of its name (``sites`` in [2, 12]), a refusal a
    ``ConfigFieldError`` naming that key; a non-finite norm bound names
    ``coupling`` if the bond terms' bound is not finite, else ``field``.
    """
    sites = as_int(sites, "sites", *_TFIM_SITES)
    coupling, field = as_real(coupling, "coupling"), as_real(field, "field")
    zz = np.kron(_PAULI_Z, _PAULI_Z)
    terms = [ham.LocalTerm([i, i + 1], -coupling * zz) for i in range(sites - 1)]
    _named("coupling", ham.HamiltonianSum, terms, sites)  # the bonds' bound alone
    terms += [ham.LocalTerm([i], -field * _PAULI_X) for i in range(sites)]
    return _named("field", ham.HamiltonianSum, terms, sites)


def sample_potential(spec, num_qubits: int) -> np.ndarray:
    """Resolve a potential description to 2^l sampled values.

    ``spec`` is either a list or 1-D array of 2^l reals or one of the built-ins:
    ``"zero"``, ``"constant:c"``, ``"harmonic:omega,x0"`` (the last samples
    V(x) = 0.5 * omega^2 * (x - x0)^2 on grid points x = 0 .. 2^l - 1).
    Every sample must be finite, whichever form produced it; each refusal is
    a ``ConfigFieldError`` naming the key "potential".
    """
    points = 2**num_qubits
    if isinstance(spec, str):
        name, _, argtext = spec.partition(":")
        try:
            args = [float(a) for a in argtext.split(",")] if argtext else []
        except ValueError:
            raise ConfigFieldError(
                "potential", f"bad numeric arguments in potential spec {spec!r}"
            ) from None
        if name == "zero" and not args:
            values = np.zeros(points)
        elif name == "constant" and len(args) == 1:
            values = np.full(points, args[0])
        elif name == "harmonic" and len(args) == 2:
            omega, x0 = args
            x = np.arange(points, dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):
                values = 0.5 * np.float64(omega) ** 2 * (x - x0) ** 2
        else:
            raise ConfigFieldError("potential", f"unknown potential spec {spec!r}")
    elif isinstance(spec, (list, tuple)) or (isinstance(spec, np.ndarray) and spec.ndim == 1):
        values = np.array([as_real(v, "potential") for v in spec], dtype=float)
        if values.shape != (points,):
            raise ConfigFieldError(
                "potential", f"potential needs {points} samples for {num_qubits} qubits, "
                f"got shape {values.shape}"
            )
    else:
        raise ConfigFieldError("potential", "expected a builtin name or a list of samples")
    if not np.all(np.isfinite(values)):
        raise ConfigFieldError("potential", "potential samples must be finite")
    return values


class GridRecipe(ham.HamiltonianSum):
    """A particle on a 2^l-point periodic grid: the sum of ``DiagonalTerm(V)``
    by position and ``DiagonalTerm(T, momentum=True)``, whose read-only
    energies are ``potential`` and ``kinetic``.  Momentum indices are
    centered (p~ = p below 2^(l-1), else p - 2^l) with T = (2*pi*p~ / 2^l)^2
    / (2*mass) in grid units, so the ground state sits at zero frequency
    rather than at a spurious high-frequency corner.  The qubit count (in
    [2, 10]) is refused under the config key "system_qubits", then a
    ``mass`` that is not a positive real or gives a non-finite T, then the
    potential (see :func:`sample_potential`) or a non-finite norm bound,
    each as a ``ConfigFieldError``.  Only its dense slice is its own.
    """

    __slots__ = ("potential", "kinetic")

    def __init__(self, num_qubits: int, potential, mass: float) -> None:
        num_qubits = as_int(num_qubits, "system_qubits", *_GRID_QUBITS)
        mass = as_real(mass, "mass")
        if not mass > 0:
            raise ConfigFieldError("mass", f"must be positive, got {mass}")
        p = np.arange(2**num_qubits)
        wavenumber = 2.0 * np.pi * np.where(p < p.size // 2, p, p - p.size) / p.size
        with np.errstate(over="ignore"):
            kinetic = wavenumber**2 / (2.0 * mass)
        if not np.isfinite(kinetic).all():
            raise ConfigFieldError("mass", f"kinetic energies are not finite at mass {mass!r}")
        terms = (ham.DiagonalTerm(sample_potential(potential, num_qubits)),
                 ham.DiagonalTerm(kinetic, momentum=True))
        _named("potential", super().__init__, terms, num_qubits)
        self.potential, self.kinetic = (term.energies for term in terms)

    def apply_step(self, state: sv.StateVector, dt: float, system_qubits=None, controls=()) -> sv.StateVector:
        """The sum's gate-level step, under the name the benchmark traces."""
        return super().apply_step(state, dt, system_qubits, controls)

    def step_matrix(self, dt: float) -> np.ndarray:
        """Dense matrix of one slice: F^dag e^{-iT dt} F e^{-iV dt}, as one
        product of F^dag with a copy of F scaled by the position phases along
        its columns and the momentum phases along its rows, so at most three
        full matrices are alive."""
        f = oracle.dft_matrix(self.num_qubits)
        (_, position_phases), (_, momentum_phases) = self._gates(dt)
        scaled = f * position_phases
        scaled *= momentum_phases[:, None]
        return np.conjugate(f, out=f).T @ scaled

    def system_step(self, dt: float, slices: int):
        """The dense slice, checked once as a gate, raised to the slice count
        by drift-controlled binary powering (which checks each square and
        product it builds)."""
        matrix = sv._unitary_power(sv.GateMatrix(self.step_matrix(dt)).matrix, slices)
        return lambda block: matrix @ block


def product_state_guess(num_qubits: int, single_qubit_amplitudes) -> sv.StateVector:
    """Tensor product of per-qubit (a, b) amplitude pairs, qubit 0 first."""
    pairs = [np.asarray(p, dtype=np.complex128) for p in single_qubit_amplitudes]
    if len(pairs) != num_qubits:
        raise ValueError(
            f"need {num_qubits} amplitude pairs, got {len(pairs)}"
        )
    for i, pair in enumerate(pairs):
        if pair.shape != (2,):
            raise ValueError(f"qubit {i} needs exactly 2 amplitudes")
        norm_sq = float(np.vdot(pair, pair).real)
        if not (abs(norm_sq - 1.0) <= sv.NORM_TOL):  # NaN fails closed
            raise ValueError(
                f"qubit {i} amplitudes are not normalized: sum|a|^2 = {norm_sq!r}"
            )
    amplitudes = functools.reduce(np.kron, reversed(pairs))
    return sv.StateVector(num_qubits, amplitudes)


# ---------------------------------------------------------------------------
# config schema and parsers

#: Keys each problem kind takes besides the command's own.
PROBLEM_KEYS = {
    "tfim": {"sites", "coupling", "field"},
    "grid": {"system_qubits", "mass", "potential"},
    "explicit_terms": {"system_qubits", "terms"},
    "explicit_unitary": {"unitary"},
}
#: Keys of a sampling or audited run (``phase_estimation.Run``).
RUN_KEYS = {
    "problem", "m_index", "time", "slices", "trials", "seed",
    "power_method", "threshold", "guess", "out",
}
#: Keys of a slice-count sweep against the exact evolution.
BENCH_KEYS = {"problem", "time", "slice_sweep", "out"}


def _problem_kind(cfg: dict) -> str:
    kind = require(cfg, "problem")
    if not isinstance(kind, str) or kind not in PROBLEM_KEYS:
        choices = ", ".join(sorted(PROBLEM_KEYS))
        raise ConfigFieldError("problem", f"must be one of {choices}, got {kind!r}")
    return kind


def check_keys(cfg: dict, command_keys: set[str]) -> None:
    """Refuse a key neither the command nor the problem takes, so a typo
    cannot silently fall back to a default."""
    allowed = command_keys | PROBLEM_KEYS[_problem_kind(cfg)]
    for key in cfg:
        if key not in allowed:
            raise ConfigFieldError(
                key, f'unknown key; this config takes {", ".join(sorted(allowed))}'
            )


def require(cfg: dict, key: str):
    """``cfg[key]``, refused when absent."""
    if key not in cfg:
        raise ConfigFieldError(key, "missing required key")
    return cfg[key]


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def as_int(value, key: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """An integer (any ``numbers.Integral`` but a bool), within ``minimum``
    and ``maximum`` when given, as an ``int``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigFieldError(key, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigFieldError(key, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigFieldError(key, f"must be <= {maximum}, got {value}")
    return int(value)


def as_real(value, key: str) -> float:
    """A finite real (any ``numbers.Real`` but a bool) as a float; an
    integer past the float range is refused too."""
    if not _is_number(value):
        raise ConfigFieldError(key, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigFieldError(key, "must be finite, got an integer past the float range") from None
    if not math.isfinite(number):
        raise ConfigFieldError(key, f"must be finite, got {value!r}")
    return number


def _as_complex(value, key: str) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value, 0]
    if not all(_is_number(part) for part in parts):
        raise ConfigFieldError(key, "entries must be numbers or [re, im] pairs")
    return complex(as_real(parts[0], key), as_real(parts[1], key))


def _as_complex_vector(value, key: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigFieldError(key, "expected a non-empty list")
    return np.asarray([_as_complex(v, key) for v in value], dtype=np.complex128)


def _as_complex_matrix(value, key: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigFieldError(key, "expected a non-empty matrix (list of rows)")
    rows = [_as_complex_vector(row, key) for row in value]
    if len({row.size for row in rows}) != 1:
        raise ConfigFieldError(key, "rows have inconsistent lengths")
    return np.array(rows)


# ---------------------------------------------------------------------------
# problem and guess builders


class Problem:
    """A validated problem: an evolution source (a local Hamiltonian or a
    grid recipe) or an explicit unitary."""

    def __init__(self, kind: str, source=None, unitary=None) -> None:
        self.kind = kind
        self.source = source
        self.unitary = unitary

    @functools.cached_property
    def decomposition(self) -> oracle.SpectralDecomposition | None:
        """Spectral decomposition of the dense Hamiltonian, computed at most
        once; None without one or above ``oracle.MAX_DENSE_QUBITS`` qubits."""
        if self.source is None or self.source.num_qubits > oracle.MAX_DENSE_QUBITS:
            return None
        return oracle.eigendecompose(self.source.dense_hamiltonian())

    def require_decomposition(self) -> oracle.SpectralDecomposition:
        """``decomposition`` for exact evolution and the oracle references,
        refused where there is none."""
        if self.decomposition is not None:
            return self.decomposition
        if self.source is None:
            raise ConfigFieldError(
                "problem",
                f"exact references need a Hamiltonian-bearing problem, got {self.kind!r}",
            )
        raise ConfigFieldError(
            "system_qubits",
            "exact evolution and the oracle references diagonalize the dense "
            f"Hamiltonian, limited to {oracle.MAX_DENSE_QUBITS} qubits; "
            f"got {self.source.num_qubits}",
        )


def build_problem(cfg: dict) -> Problem:
    """The problem named by ``cfg["problem"]``, built from its keys; each
    refusal names the key at fault."""
    kind = _problem_kind(cfg)
    if kind == "tfim":
        return Problem(kind, source=build_transverse_ising(
            require(cfg, "sites"), cfg.get("coupling", 1.0), cfg.get("field", 1.0)))
    if kind == "grid":
        return Problem(kind, source=GridRecipe(
            require(cfg, "system_qubits"), cfg.get("potential", "zero"), cfg.get("mass", 1.0)))
    if kind == "explicit_terms":
        l_system = as_int(require(cfg, "system_qubits"), "system_qubits", 1, sv.MAX_QUBITS - 1)
        raw_terms = require(cfg, "terms")
        if not isinstance(raw_terms, list) or not raw_terms:
            raise ConfigFieldError("terms", "expected a non-empty list")
        terms = [_build_term(spec, f"terms[{i}]", l_system) for i, spec in enumerate(raw_terms)]
        return Problem(kind, source=_named("terms", ham.HamiltonianSum, terms, l_system))
    matrix = _as_complex_matrix(require(cfg, "unitary"), "unitary")
    return Problem(kind, unitary=_named("unitary", sv.GateMatrix, matrix))


def _named(key: str, build, *args):
    """``build(*args)``, a ``ValueError`` from it refused naming ``key``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigFieldError(key, str(exc)) from exc


def _build_term(spec, label: str, num_qubits: int) -> ham.LocalTerm:
    if not isinstance(spec, dict) or set(spec) != {"support", "matrix"}:
        raise ConfigFieldError(label, 'expected an object with the keys "support" and "matrix"')
    support = spec["support"]
    if not isinstance(support, list) or not support:
        raise ConfigFieldError(f"{label}.support", "expected a non-empty list of qubits")
    qubits = [as_int(q, f"{label}.support", 0, num_qubits - 1) for q in support]
    if not len(set(qubits)) == len(qubits) <= ham.MAX_TERM_QUBITS:
        raise ConfigFieldError(f"{label}.support", f"expected 1 to {ham.MAX_TERM_QUBITS} "
                               f"distinct qubits, got {qubits}")
    matrix = _as_complex_matrix(spec["matrix"], f"{label}.matrix")
    return _named(f"{label}.matrix", ham.LocalTerm, qubits, matrix)


def parse_slices(cfg: dict, problem: Problem):
    """The "slices" key as given ("exact" by default), refused for a unitary
    and, as a string, unless "exact"."""
    if "slices" not in cfg:
        return "exact"
    if problem.unitary is not None:
        raise ConfigFieldError("slices", "not meaningful for an explicit unitary")
    slices = cfg["slices"]
    if isinstance(slices, str) and slices != "exact":
        raise ConfigFieldError("slices", f'expected an integer or "exact", got {slices!r}')
    return slices


def build_guess(cfg: dict, l_system: int) -> tuple[sv.StateVector, object]:
    """V_a from the "guess" key (default (+)^l), and the key as given; a
    refusal of an object form names its sub-key."""
    raw = cfg.get("guess", "plus")
    if raw == "plus":
        dim = 2**l_system
        return sv.load_amplitudes(l_system, np.full(dim, 1 / math.sqrt(dim))), raw
    if raw == "zero":
        return sv.new_basis_state(l_system, 0), raw
    if not isinstance(raw, dict):
        raise ConfigFieldError("guess", f'expected "plus", "zero", or an object, got {raw!r}')
    keys = set(raw)
    if keys == {"amplitudes"}:
        amps = _as_complex_vector(raw["amplitudes"], "guess.amplitudes")
        return _named("guess.amplitudes", sv.load_amplitudes, l_system, amps), raw
    if keys == {"product"}:
        factors = raw["product"]
        if not isinstance(factors, list):
            raise ConfigFieldError("guess.product", "expected a list of pairs")
        pairs = [_as_complex_vector(f, "guess.product") for f in factors]
        return _named("guess.product", product_state_guess, l_system, pairs), raw
    raise ConfigFieldError(
        "guess", 'object form must have exactly one of "amplitudes" or "product"'
    )


class ResourceEstimate(sv._ValueRecord):
    """Qubit budget: per-particle registers + readout register + scratch."""

    __slots__ = ("particles", "qubits_per_particle", "index_qubits", "scratch_qubits",
                 "position_space_qubits_per_particle", "interacting_pair_in_position_space",
                 "total")


def resource_estimate(
    particles: int,
    qubits_per_particle: int,
    index_qubits: int,
    scratch_qubits: int = 3,
    *,
    position_space_qubits_per_particle: int = 0,
    interacting_pair_in_position_space: bool = False,
) -> ResourceEstimate:
    """Total qubit count for an n-particle estimation run.

    Plain mode: every particle gets its own register, so
    ``total = n * qubits_per_particle + index_qubits + scratch_qubits``.

    With ``interacting_pair_in_position_space``, two particles are promoted
    to (larger) position-space registers while the rest keep theirs:
    ``total = 2 * position_space_qubits_per_particle
    + (n - 2) * qubits_per_particle + index_qubits + scratch_qubits``.
    Each count must be a whole number >= 0 (not a bool); a refusal is a
    ``ConfigFieldError`` naming its parameter.
    """
    counts = {
        "particles": particles,
        "qubits_per_particle": qubits_per_particle,
        "index_qubits": index_qubits,
        "scratch_qubits": scratch_qubits,
        "position_space_qubits_per_particle": position_space_qubits_per_particle,
    }
    counts = {name: as_int(value, name, 0) for name, value in counts.items()}
    (particles, qubits_per_particle, index_qubits, scratch_qubits,
     position_space_qubits_per_particle) = counts.values()
    if interacting_pair_in_position_space:
        if particles < 2:
            raise ConfigFieldError(
                "particles",
                "a position-space pair needs at least 2 particles, "
                f"got {particles}"
            )
        total = (
            2 * position_space_qubits_per_particle
            + (particles - 2) * qubits_per_particle
            + index_qubits
            + scratch_qubits
        )
    else:
        total = particles * qubits_per_particle + index_qubits + scratch_qubits
    return ResourceEstimate(*counts.values(), interacting_pair_in_position_space, total)
