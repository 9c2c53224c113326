"""Acceptance gate: ten end-to-end checks, one reported line each."""

import json
import math
import time

import numpy as np

import reference as ref
from spectral_qpe import (
    GateMatrix,
    GridRecipe,
    HamiltonianSum,
    LocalTerm,
    PhaseEstimationConfig,
    analytic_bin_distribution,
    assemble_dense,
    build_transverse_ising,
    cli,
    eigendecompose,
    eigenvector_fidelity,
    exact_unitary,
    load_amplitudes,
    phase_to_energy,
    pre_measurement_distribution,
    pre_measurement_state,
    sample_spectrum,
    spectral_amplitudes,
    term_exponential,
)


def circular_bin_distance(a: float, b: float, bins: int) -> float:
    d = abs(a - b) % bins
    return min(d, bins - d)


def exact_gate_from_dense(dense: np.ndarray, t: float) -> GateMatrix:
    d = eigendecompose(dense)
    return GateMatrix(
        (d.eigenvectors * np.exp(-1j * d.eigenvalues * t)) @ d.eigenvectors.conj().T
    )


def test_resource_totals_for_standard_configurations(acceptance, capsys):
    started = time.perf_counter()
    base = ["resources", "--particles", "5", "--qubits-per-particle", "10",
            "--index-qubits", "7", "--scratch-qubits", "3"]
    assert cli.main(base) == 0
    plain_out = capsys.readouterr().out
    assert cli.main(base + ["--position-qubits-per-particle", "30",
                            "--pair-in-position-space"]) == 0
    pair_out = capsys.readouterr().out
    elapsed = time.perf_counter() - started

    def total(out: str) -> int:
        row = [line for line in out.splitlines() if line.startswith("total")][0]
        return int(row.split()[-1])

    totals = (total(plain_out), total(pair_out))
    acceptance(
        1,
        totals == (60, 100) and elapsed < 1.0,
        f"qubit totals {totals[0]} and {totals[1]} (want 60 and 100) "
        f"in {elapsed:.3f}s",
    )


def test_exact_distribution_matches_closed_form(acceptance):
    rng = np.random.default_rng(2002)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        l_system = int(rng.integers(1, 5))
        m_index = int(rng.integers(2, 7))
        t = float(rng.uniform(0.2, 2.5))
        dense = ref.random_hermitian(2**l_system, rng)
        h = HamiltonianSum([LocalTerm(list(range(l_system)), dense)], l_system)
        va = load_amplitudes(l_system, ref.random_state(l_system, rng))
        config = PhaseEstimationConfig(
            m_index=m_index,
            unitary=exact_unitary(h, t),
            time=t,
        )
        got = pre_measurement_distribution(va, config)
        overlaps, phases = spectral_amplitudes(va, eigendecompose(dense), t)
        want = analytic_bin_distribution(np.abs(overlaps) ** 2, phases, m_index)
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - started
    acceptance(
        2,
        worst <= 1e-10 and elapsed < 30.0,
        f"20 random instances, worst per-bin deviation {worst:.3e} "
        f"(tol 1e-10) in {elapsed:.2f}s",
    )


def test_sampling_frequencies_follow_overlap_weights(acceptance):
    started = time.perf_counter()
    config = PhaseEstimationConfig(
        m_index=2,
        unitary=GateMatrix(np.diag([1.0, 1.0j])),
        time=1.0,
        trials=4000,
        seed=2003,
    )
    va = load_amplitudes(1, np.sqrt([0.25, 0.75]))
    freqs = sample_spectrum(va, config).counts / config.trials
    bound = 3.0 * math.sqrt(0.25 * 0.75 / 4000)
    deviation = max(abs(freqs[0] - 0.25), abs(freqs[1] - 0.75))
    elapsed = time.perf_counter() - started
    acceptance(
        3,
        deviation <= bound and elapsed < 10.0,
        f"4000 trials, worst frequency deviation {deviation:.4f} "
        f"(3-sigma bound {bound:.4f}) in {elapsed:.2f}s",
    )


def test_collapse_lands_on_oracle_eigenvectors(acceptance):
    rng = np.random.default_rng(2004)
    t, m_index = 1.0, 3
    bins = 2**m_index
    worst = 1.0
    checked = 0
    for instance in range(2):
        chosen = rng.choice(bins, size=4, replace=False)
        energies = np.sort([
            phase_to_energy(2.0 * math.pi * int(b) / bins, t) for b in chosen
        ])
        basis = ref.random_unitary(4, rng)
        dense = (basis * energies) @ basis.conj().T  # distinct on-grid spectrum
        decomposition = eigendecompose(dense)
        weights = rng.dirichlet(np.ones(4))
        va = load_amplitudes(2, basis @ np.sqrt(weights))
        config = PhaseEstimationConfig(
            m_index=m_index,
            unitary=exact_gate_from_dense(dense, t),
            time=t,
            trials=100,
            seed=2004 + instance,
        )
        result = sample_spectrum(va, config)
        for b in result.bins:
            energy = phase_to_energy(2.0 * math.pi * int(b) / bins, t)
            fidelity = eigenvector_fidelity(
                result.collapsed_states[int(b)], decomposition, energy, 1e-6
            )
            worst = min(worst, fidelity)
            checked += 1
    acceptance(
        4,
        worst >= 1.0 - 1e-9 and checked == 200,
        f"{checked} measured outcomes, worst eigenvector fidelity "
        f"{worst:.12f} (need >= 1 - 1e-9)",
    )


def test_splitting_error_scales_first_order(acceptance):
    started = time.perf_counter()
    h = HamiltonianSum([LocalTerm([0], ref.X), LocalTerm([0], ref.Z)], 1)
    exact = exact_unitary(h, 1.0).matrix

    def err(r: int) -> float:
        dt = 1.0 / r
        step = np.eye(2, dtype=complex)
        for term in h.terms:  # same application order as the simulator
            step = term_exponential(term, dt).matrix @ step
        return float(np.abs(np.linalg.matrix_power(step, r) - exact).max())

    ratios = [err(2 * r) / err(r) for r in (16, 32, 64)]

    commuting = HamiltonianSum([LocalTerm([0], ref.Z), LocalTerm([1], ref.Z)], 2)
    one_slice = np.eye(4, dtype=complex)
    for term in commuting.terms:
        gate = term_exponential(term, 1.0).matrix
        one_slice = ref.embed_kron(gate, list(term.support), 2) @ one_slice
    commuting_err = float(
        np.abs(one_slice - exact_unitary(commuting, 1.0).matrix).max()
    )
    elapsed = time.perf_counter() - started
    acceptance(
        5,
        all(0.4 <= ratio <= 0.6 for ratio in ratios)
        and commuting_err <= 1e-9
        and elapsed < 5.0,
        f"halving ratios {[f'{x:.3f}' for x in ratios]} (want within [0.4, 0.6]), "
        f"commuting one-slice error {commuting_err:.2e} (tol 1e-9) "
        f"in {elapsed:.2f}s",
    )


def test_peak_error_shrinks_with_register_width(acceptance):
    omega = 2.0  # fixed phase, off-grid for every register size below
    worst_fraction = 0.0
    for m_index in range(4, 9):
        bins = 2**m_index
        config = PhaseEstimationConfig(
            m_index=m_index,
            unitary=GateMatrix(np.diag([1.0, np.exp(1j * omega)])),
            time=1.0,
        )
        dist = pre_measurement_distribution(load_amplitudes(1, [0, 1]), config)
        peak = int(np.argmax(dist))
        error = abs(2.0 * math.pi * peak / bins - omega)
        error = min(error, 2.0 * math.pi - error)
        worst_fraction = max(worst_fraction, error / (2.0 * math.pi / bins))
    acceptance(
        6,
        worst_fraction <= 1.0,
        f"peak-bin phase error <= {worst_fraction:.3f} bin widths across "
        f"index registers of 4..8 qubits (need <= 1)",
    )


def test_spin_chain_spectrum_end_to_end(acceptance):
    started = time.perf_counter()
    h = build_transverse_ising(3, 1.0, 1.0)
    decomposition = eigendecompose(assemble_dense(h))
    t, m_index, trials = 0.7, 7, 5000
    bins = 2**m_index
    # spectral radius ~3.49 sits inside the unaliased window (-pi/t, pi/t]
    assert float(np.abs(decomposition.eigenvalues).max()) < math.pi / t

    va = load_amplitudes(3, np.full(8, 1 / math.sqrt(8)))
    config = PhaseEstimationConfig(
        m_index=m_index,
        unitary=exact_unitary(h, t),
        time=t,
        trials=trials,
        seed=2007,
    )
    result = sample_spectrum(va, config, threshold=0.012)
    peak_bins = [b for b, _ in result.peaks]

    bin_width_energy = 2.0 * math.pi / (bins * t)
    dominant_bin = int(np.argmax(result.counts))
    dominant_energy = phase_to_energy(2.0 * math.pi * dominant_bin / bins, t)
    ground_energy = float(decomposition.eigenvalues[0])
    ground_ok = abs(dominant_energy - ground_energy) <= bin_width_energy

    # every eigenvalue with aggregate guess overlap > 0.05 must be covered by
    # a detected peak within one bin
    overlaps, phases = spectral_amplitudes(va, decomposition, t)
    weights = np.abs(overlaps) ** 2
    missed = []
    for group in ref.degenerate_groups(decomposition.eigenvalues, ref.DEGENERACY_TOL):
        weight = sum(weights[k] for k in group)
        if weight <= 0.05:
            continue
        ideal = phases[group[0]] * bins / (2.0 * math.pi)
        covered = any(
            circular_bin_distance(b, ideal, bins) <= 1.0 for b in peak_bins
        )
        if not covered:
            missed.append(float(decomposition.eigenvalues[group[0]]))
    elapsed = time.perf_counter() - started
    acceptance(
        7,
        ground_ok and not missed and elapsed < 60.0,
        f"dominant energy {dominant_energy:.4f} vs ground {ground_energy:.4f} "
        f"(bin width {bin_width_energy:.4f}), uncovered eigenvalues {missed}, "
        f"in {elapsed:.1f}s",
    )


def test_conditional_power_routes_agree(acceptance):
    rng = np.random.default_rng(2008)
    worst = 0.0
    for instance in range(10):
        m_index = 1 + instance % 4
        l_system = 1 + instance % 2
        u = ref.random_unitary(2**l_system, rng)
        va = load_amplitudes(l_system, ref.random_state(l_system, rng))

        def state(method: str) -> np.ndarray:
            config = PhaseEstimationConfig(
                m_index=m_index,
                unitary=GateMatrix(u), time=1.0, power_method=method,
            )
            return pre_measurement_state(va, config).amplitudes

        block = state("block")
        worst = max(worst, float(np.abs(block - state("binary_power")).max()),
                    float(np.abs(block - state("flag_loop")).max()))
    acceptance(
        8,
        worst <= 1e-10,
        f"10 random instances, block vs binary_power and vs flag_loop: worst "
        f"per-amplitude disagreement {worst:.3e} (tol 1e-10)",
    )


def test_reruns_are_byte_identical(acceptance, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {
        "problem": "tfim", "sites": 2, "coupling": 1.0, "field": 0.7,
        "m_index": 4, "time": 0.5, "trials": 1200, "seed": 99,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))

    def run(stem: str):
        code = cli.main(["spectrum", "--config", str(config_path), "--out", stem])
        assert code == 0
        return (
            (tmp_path / f"{stem}.histogram.csv").read_bytes(),
            (tmp_path / f"{stem}.result.json").read_bytes(),
        )

    first = run("a")
    second = run("b")
    route = json.loads(first[1])["config"]["power_method"]
    acceptance(
        9,
        first == second and route == "block",
        f"CSV and JSON outputs byte-identical across two reruns, on the {route!r} route",
    )


def test_grid_particle_ground_state_via_split_steps(acceptance):
    started = time.perf_counter()
    recipe = GridRecipe(6, "harmonic:0.05,31.5", 1.0)
    oracle_ground = float(eigendecompose(recipe.dense_hamiltonian()).eigenvalues[0])

    t, m_index, slices = 0.4, 6, 48
    bins = 2**m_index
    x = np.arange(64, dtype=float)
    envelope = np.exp(-0.05 * (x - 31.5) ** 2 / 2.0)  # continuum ground profile
    guess = load_amplitudes(6, envelope / np.linalg.norm(envelope))
    config = PhaseEstimationConfig(
        m_index=m_index,
        source=recipe,
        time=t,
        slices=slices,
        trials=2000,
        seed=2010,
    )
    result = sample_spectrum(guess, config, threshold=0.05)
    energies = [phase_to_energy(2.0 * math.pi * b / bins, t)
                for b, _ in result.peaks]
    lowest = min(energies) if energies else math.inf
    bin_width_energy = 2.0 * math.pi / (bins * t)
    elapsed = time.perf_counter() - started
    acceptance(
        10,
        abs(lowest - oracle_ground) <= bin_width_energy,
        f"lowest detected energy {lowest:.4f} vs oracle ground "
        f"{oracle_ground:.4f} (bin width {bin_width_energy:.4f}) "
        f"in {elapsed:.1f}s",
    )
