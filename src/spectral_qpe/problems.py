"""Demo problem builders and the qubit-budget calculator.

Two desk-scale problem families exercise the estimation pipeline: an open
transverse-field Ising chain (local spin terms) and a single particle on a
periodic grid (diagonal potential in position space, diagonal kinetic energy
in momentum space, switched by QFTs).  The resource estimator reproduces the
qubit bookkeeping for partitioning a machine into per-particle, readout, and
scratch registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import hamiltonian as ham
from . import qft
from . import statevector as sv

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def build_transverse_ising(sites: int, coupling: float, field: float) -> ham.HamiltonianSum:
    """Open-chain H = -J * sum_i Z_i Z_{i+1} - h * sum_i X_i.

    Minus signs on both terms, so the h = 0 ground states are the
    ferromagnets.  Term order (fixed, hence the Trotter order) is all bond
    terms left to right, then all field terms left to right.
    """
    if not 2 <= sites <= 12:
        raise ValueError(f"site count must be in [2, 12], got {sites}")
    zz = np.kron(_PAULI_Z, _PAULI_Z)
    terms = [ham.LocalTerm([i, i + 1], -coupling * zz) for i in range(sites - 1)]
    terms += [ham.LocalTerm([i], -field * _PAULI_X) for i in range(sites)]
    return ham.HamiltonianSum(terms, sites)


def sample_potential(spec, num_qubits: int) -> np.ndarray:
    """Resolve a potential description to 2^l sampled values.

    ``spec`` is either an array of 2^l reals or one of the built-ins:
    ``"zero"``, ``"constant:c"``, ``"harmonic:omega,x0"`` (the last samples
    V(x) = 0.5 * omega^2 * (x - x0)^2 on grid points x = 0 .. 2^l - 1).
    Every sample must be finite, whichever form produced it.
    """
    points = 2**num_qubits
    if isinstance(spec, str):
        name, _, argtext = spec.partition(":")
        try:
            args = [float(a) for a in argtext.split(",")] if argtext else []
        except ValueError:
            raise ValueError(f"bad numeric arguments in potential spec {spec!r}") from None
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
            raise ValueError(f"unknown potential spec {spec!r}")
    else:
        values = np.array(spec, dtype=float)
        if values.shape != (points,):
            raise ValueError(
                f"potential needs {points} samples for {num_qubits} qubits, "
                f"got shape {values.shape}"
            )
    if not np.all(np.isfinite(values)):
        raise ValueError("potential samples must be finite")
    return values


class GridRecipe:
    """One evolution slice for a particle on a 2^l-point periodic grid.

    A slice applies e^{-iV(x)dt} in the position basis, hops to momentum
    space with the forward QFT, applies e^{-iT(p)dt}, and hops back with the
    inverse QFT.  Momentum indices are centered (p~ = p below 2^(l-1), else
    p - 2^l) with kinetic energy T = (2*pi*p~ / 2^l)^2 / (2*mass) in grid
    units, so the ground state sits at zero frequency rather than at a
    spurious high-frequency corner.  It is an evolution source with the
    same interface as :class:`~spectral_qpe.hamiltonian.HamiltonianSum`.
    """

    __slots__ = ("num_qubits", "potential", "mass", "_phase_cache")

    def __init__(self, num_qubits: int, potential, mass: float) -> None:
        if not 2 <= num_qubits <= 10:
            raise ValueError(f"grid qubit count must be in [2, 10], got {num_qubits}")
        if not mass > 0:
            raise ValueError(f"mass must be positive, got {mass}")
        values = sample_potential(potential, num_qubits)
        values.setflags(write=False)
        self.num_qubits = num_qubits
        self.potential = values
        self.mass = float(mass)
        self._phase_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def kinetic_energies(self) -> np.ndarray:
        """T(p~) on the centered discrete momentum grid, in index order p."""
        points = 2**self.num_qubits
        p = np.arange(points)
        centered = np.where(p < points // 2, p, p - points)
        wavenumber = 2.0 * np.pi * centered / points
        return wavenumber**2 / (2.0 * self.mass)

    def _phases(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        cached = self._phase_cache.get(dt)
        if cached is None:
            cached = (
                np.exp(-1j * self.potential * dt),
                np.exp(-1j * self.kinetic_energies() * dt),
            )
            self._phase_cache[dt] = cached
        return cached

    def apply_step(self, state: sv.StateVector, dt: float, system_qubits=None, controls=()) -> sv.StateVector:
        """Apply one slice to the given register (optionally controlled)."""
        qubits = (
            list(system_qubits)
            if system_qubits is not None
            else list(range(self.num_qubits))
        )
        if len(qubits) != self.num_qubits:
            raise ValueError(
                f"recipe spans {self.num_qubits} qubits, got register of {len(qubits)}"
            )
        position_phases, momentum_phases = self._phases(dt)
        state = sv.apply_diagonal_phase(state, qubits, position_phases, controls)
        state = qft.qft_forward(state, qubits, controls)
        state = sv.apply_diagonal_phase(state, qubits, momentum_phases, controls)
        return qft.qft_inverse(state, qubits, controls)

    def norm_bound(self) -> float:
        """Cheap upper bound on ||H||: max|V| + max T."""
        return float(np.abs(self.potential).max() + self.kinetic_energies().max())

    def _dft_matrix(self) -> np.ndarray:
        points = 2**self.num_qubits
        grid = np.arange(points)
        return np.exp(2j * np.pi * np.outer(grid, grid) / points) / np.sqrt(points)

    def step_matrix(self, dt: float) -> np.ndarray:
        """Dense matrix of one slice: F^dag e^{-iT dt} F e^{-iV dt}."""
        f = self._dft_matrix()
        position_phases, momentum_phases = self._phases(dt)
        return f.conj().T @ (momentum_phases[:, None] * f) @ np.diag(position_phases)

    def system_step(self, dt: float, slices: int):
        """``slices`` slices as a map on 2^l system vectors: the dense slice
        raised to the slice count, validated once as a unitary."""
        matrix = sv.GateMatrix(np.linalg.matrix_power(self.step_matrix(dt), slices)).matrix
        return lambda vector: matrix @ vector

    def dense_hamiltonian(self) -> np.ndarray:
        """The discretized Hermitian H = diag(V) + F^dag diag(T) F."""
        f = self._dft_matrix()
        h = np.diag(self.potential.astype(np.complex128))
        h += f.conj().T @ (self.kinetic_energies()[:, None] * f)
        return (h + h.conj().T) / 2.0


def build_grid_particle(num_qubits: int, potential, mass: float) -> GridRecipe:
    """Grid-particle evolution recipe; see :class:`GridRecipe`."""
    return GridRecipe(num_qubits, potential, mass)


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
    amplitudes = reduce(np.kron, reversed(pairs))
    return sv.StateVector(num_qubits, amplitudes)


@dataclass(frozen=True)
class ResourceEstimate:
    """Qubit budget: per-particle registers + readout register + scratch."""

    particles: int
    qubits_per_particle: int
    index_qubits: int
    scratch_qubits: int
    position_space_qubits_per_particle: int
    interacting_pair_in_position_space: bool
    total: int


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
    """
    counts = {
        "particles": particles,
        "qubits_per_particle": qubits_per_particle,
        "index_qubits": index_qubits,
        "scratch_qubits": scratch_qubits,
        "position_space_qubits_per_particle": position_space_qubits_per_particle,
    }
    for name, value in counts.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if interacting_pair_in_position_space:
        if particles < 2:
            raise ValueError(
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
    return ResourceEstimate(
        particles=particles,
        qubits_per_particle=qubits_per_particle,
        index_qubits=index_qubits,
        scratch_qubits=scratch_qubits,
        position_space_qubits_per_particle=position_space_qubits_per_particle,
        interacting_pair_in_position_space=interacting_pair_in_position_space,
        total=total,
    )
