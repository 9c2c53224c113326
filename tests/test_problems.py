"""Demo problems (Ising chain, grid particle) and the qubit-budget calculator."""

import numpy as np
import pytest
import scipy.linalg

import reference as ref
from spectral_qpe import statevector as sv
from spectral_qpe import (
    ConfigFieldError,
    GridRecipe,
    apply_gate,
    assemble_dense,
    build_transverse_ising,
    eigendecompose,
    load_amplitudes,
    new_basis_state,
    product_state_guess,
    resource_estimate,
    sample_potential,
)


class TestTransverseIsing:
    def test_pure_coupling_spectrum(self):
        h = build_transverse_ising(2, 1.0, 0.0)
        eigenvalues = eigendecompose(assemble_dense(h)).eigenvalues
        np.testing.assert_allclose(eigenvalues, [-1, -1, 1, 1], atol=1e-12)

    def test_pure_field_spectrum(self):
        h = build_transverse_ising(2, 0.0, 1.0)
        eigenvalues = eigendecompose(assemble_dense(h)).eigenvalues
        np.testing.assert_allclose(eigenvalues, [-2, 0, 0, 2], atol=1e-12)

    def test_three_site_dense_matches_reference(self):
        dense = assemble_dense(build_transverse_ising(3, 1.3, 0.7))
        assert dense.shape == (8, 8)
        assert abs(np.trace(dense)) < 1e-12
        np.testing.assert_allclose(dense, ref.tfim_dense(3, 1.3, 0.7), atol=1e-12)

    def test_term_order_is_bonds_then_fields(self):
        h = build_transverse_ising(3, 2.0, 0.5)
        supports = [term.support for term in h.terms]
        assert supports == [(0, 1), (1, 2), (0,), (1,), (2,)]
        np.testing.assert_allclose(
            h.terms[0].matrix, -2.0 * np.kron(ref.Z, ref.Z), atol=1e-15
        )
        np.testing.assert_allclose(h.terms[2].matrix, -0.5 * ref.X, atol=1e-15)

    def test_site_count_bounds(self):
        build_transverse_ising(2, 1, 1)
        build_transverse_ising(12, 1, 1)
        with pytest.raises(ValueError):
            build_transverse_ising(1, 1, 1)
        with pytest.raises(ValueError):
            build_transverse_ising(13, 1, 1)


class TestSamplePotential:
    def test_builtins(self):
        np.testing.assert_array_equal(sample_potential("zero", 2), np.zeros(4))
        np.testing.assert_array_equal(sample_potential("constant:2.5", 2),
                                      np.full(4, 2.5))
        x = np.arange(8.0)
        np.testing.assert_allclose(sample_potential("harmonic:1.5,3.0", 3),
                                   0.5 * 1.5**2 * (x - 3.0) ** 2, atol=1e-12)

    def test_explicit_samples_are_copied(self):
        raw = [0.0, 1.0, 2.0, 3.0]
        values = sample_potential(raw, 2)
        raw[0] = 99.0
        assert values[0] == 0.0

    def test_rejections(self):
        with pytest.raises(ValueError, match="needs 4 samples"):
            sample_potential([1.0, 2.0], 2)
        with pytest.raises(ValueError, match="finite"):
            sample_potential([0.0, np.inf, 0.0, 0.0], 2)
        with pytest.raises(ValueError, match="unknown potential"):
            sample_potential("quartic:1", 2)
        with pytest.raises(ValueError, match="unknown potential"):
            sample_potential("constant", 2)  # missing argument
        with pytest.raises(ValueError, match="bad numeric"):
            sample_potential("constant:abc", 2)

    @pytest.mark.parametrize(
        "spec", ["constant:inf", "constant:-inf", "constant:nan", "harmonic:nan,1",
                 "harmonic:1,inf", "harmonic:1e200,0"],
    )
    def test_builtins_must_sample_finite_values(self, spec):
        with pytest.raises(ValueError, match="finite"):
            sample_potential(spec, 2)


def recipe_dense(recipe, dt, num_qubits, system=None, controls=()):
    """Dense matrix of apply_step, rebuilt column by column from the simulator."""
    total = num_qubits
    dim = 2**total
    cols = []
    for basis in range(dim):
        out = recipe.apply_step(new_basis_state(total, basis), dt, system, controls)
        cols.append(out.amplitudes)
    return np.array(cols).T


class TestGridRecipe:
    def test_kinetic_grid_is_centered(self):
        recipe = GridRecipe(3, "zero", 2.0)
        t = recipe.kinetic
        assert t[0] == 0.0
        for p in range(1, 4):
            assert t[p] == pytest.approx(t[8 - p], abs=1e-15)
        assert np.argmax(t) == 4  # the +/-pi edge of the Brillouin zone
        assert t[4] == pytest.approx(np.pi**2 / (2 * 2.0), abs=1e-12)

    def test_step_matrix_is_unitary(self):
        recipe = GridRecipe(3, "harmonic:1.0,3.5", 1.0)
        s = recipe.step_matrix(0.37)
        np.testing.assert_allclose(s.conj().T @ s, np.eye(8), atol=1e-12)

    def test_apply_step_matches_dense_step(self):
        recipe = GridRecipe(2, "harmonic:0.9,1.5", 0.8)
        got = recipe_dense(recipe, 0.23, 2)
        np.testing.assert_allclose(got, recipe.step_matrix(0.23), atol=1e-12)

    def test_apply_step_respects_offset_register_and_control(self):
        recipe = GridRecipe(2, "constant:0.4", 1.0)
        dt = 0.31
        full = recipe_dense(recipe, dt, 3, system=[1, 2], controls=[0])
        s = recipe.step_matrix(dt)
        want = np.eye(8, dtype=complex)
        odd = np.arange(8) % 2 == 1  # control qubit 0 set
        idx = np.ix_(odd, odd)
        want[idx] = s  # system value = qubits [1,2] little-endian
        np.testing.assert_allclose(full, want, atol=1e-12)

    def test_zero_potential_spectrum_is_kinetic(self):
        recipe = GridRecipe(3, "zero", 1.7)
        d = eigendecompose(recipe.dense_hamiltonian())
        np.testing.assert_allclose(
            d.eigenvalues, np.sort(recipe.kinetic), atol=1e-12
        )

    def test_dense_hamiltonian_hermitian_and_consistent(self):
        recipe = GridRecipe(3, "harmonic:1.2,3.5", 1.0)
        h = recipe.dense_hamiltonian()
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)
        # diagonal part in position space is the sampled potential plus the
        # (constant) diagonal of the kinetic operator
        kinetic_diag = np.mean(recipe.kinetic)
        np.testing.assert_allclose(np.diag(h).real,
                                   recipe.potential + kinetic_diag, atol=1e-12)

    @pytest.mark.parametrize("qubits", range(3, 11))
    def test_dense_hamiltonian_is_the_reference_formula_bit_for_bit(self, qubits):
        recipe = GridRecipe(qubits, "harmonic:0.3,3.5", 0.7)
        want = ref.grid_hamiltonian(recipe.potential, recipe.kinetic)
        assert recipe.dense_hamiltonian().tobytes() == want.tobytes()

    def test_dense_hamiltonian_holds_three_matrices(self, traced_peak):
        recipe = GridRecipe(8, "harmonic:0.3,100.0", 1.0)
        h, peak = traced_peak(recipe.dense_hamiltonian)
        # H itself, F and diag(T) F at the product; 64 KiB of bookkeeping
        assert peak <= 3 * h.nbytes + 2**16

    @pytest.mark.parametrize("qubits", [8, 10])
    def test_step_matrix_is_one_product_within_three_matrices(self, traced_peak, qubits):
        recipe = GridRecipe(qubits, "harmonic:0.3,100.0", 1.0)
        dt = 0.05
        step, peak = traced_peak(lambda: recipe.step_matrix(dt))
        # the running block and one FFT's output, plus the phase vectors and
        # what the FFT holds while it runs
        assert peak <= 3.05 * step.nbytes
        f = ref.dft_matrix(2**qubits)
        kinetic = np.diag(np.exp(-1j * recipe.kinetic * dt))
        want = f.conj().T @ kinetic @ f @ np.diag(np.exp(-1j * recipe.potential * dt))
        np.testing.assert_allclose(step, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("slices", [1, 2, 5])
    def test_system_step_checks_each_matrix_once(self, monkeypatch, slices):
        """The raw slice is checked once as a gate, and the powering checks
        each square and product it builds: the matrices checked are the
        slice, its squares up to the count's top bit and, for a count that
        is no power of two, their product, and each of them once."""
        recipe = GridRecipe(3, "harmonic:0.8,3.5", 1.0)
        checked = []
        defect = sv.unitarity_defect
        monkeypatch.setattr(sv, "unitarity_defect",
                            lambda matrix: checked.append(np.array(matrix)) or defect(matrix))
        step = recipe.system_step(0.1, slices)
        one = recipe.step_matrix(0.1)
        powers = [2**k for k in range(slices.bit_length())]
        powers += [slices] if slices not in powers else []
        assert len(checked) == len(powers)
        for matrix, power in zip(checked, powers):
            np.testing.assert_allclose(matrix, np.linalg.matrix_power(one, power), atol=1e-12)
        np.testing.assert_allclose(step(np.eye(8)), np.linalg.matrix_power(one, slices),
                                   atol=1e-12)

    def test_step_is_first_order_split_of_dense_hamiltonian(self):
        recipe = GridRecipe(3, "harmonic:1.1,3.0", 1.0)
        h = recipe.dense_hamiltonian()

        def err(dt):
            exact = scipy.linalg.expm(-1j * h * dt)
            return np.abs(recipe.step_matrix(dt) - exact).max()

        # first-order splitting: halving dt cuts the defect ~4x
        assert err(0.02) / err(0.01) == pytest.approx(4.0, rel=0.25)
        assert err(0.01) < 0.01

    @pytest.mark.parametrize("num_qubits, mass", [(2, 1.0), (3, 0.8), (6, 1e-3), (10, 7.5)])
    def test_kinetic_array_is_the_formula_and_read_only(self, num_qubits, mass):
        recipe = GridRecipe(num_qubits, "zero", mass)
        points = 2**num_qubits
        p = np.arange(points)
        centered = np.where(p < points // 2, p, p - points)
        wavenumber = 2.0 * np.pi * centered / points
        assert recipe.kinetic.tobytes() == (wavenumber**2 / (2.0 * mass)).tobytes()
        for array in (recipe.kinetic, recipe.potential):
            assert not array.flags.writeable

    def test_norm_bound_bounds_the_spectrum(self):
        recipe = GridRecipe(3, "harmonic:1.2,3.5", 0.8)
        spectral_norm = np.linalg.norm(recipe.dense_hamiltonian(), 2)
        assert spectral_norm - 1e-12 <= recipe.norm_bound()
        assert recipe.norm_bound() == pytest.approx(
            0.5 * 1.2**2 * 3.5**2 + np.pi**2 / (2 * 0.8)
        )

    def test_constructor_rejections(self):
        with pytest.raises(ValueError, match="must be >= 2, got 1") as excinfo:
            GridRecipe(1, "zero", 1.0)
        assert excinfo.value.field == "system_qubits"
        with pytest.raises(ValueError, match="must be <= 10, got 11") as excinfo:
            GridRecipe(11, "zero", 1.0)
        assert excinfo.value.field == "system_qubits"
        with pytest.raises(ValueError, match="mass"):
            GridRecipe(3, "zero", 0.0)
        with pytest.raises(ValueError, match="mass"):
            GridRecipe(3, "zero", -2.0)

    def test_potential_array_is_frozen(self):
        recipe = GridRecipe(2, [0.0, 1.0, 2.0, 3.0], 1.0)
        with pytest.raises(ValueError):
            recipe.potential[0] = 5.0


class TestProductGuess:
    def test_kron_order_puts_first_pair_on_qubit_zero(self):
        a, b = 0.6, 0.8
        state = product_state_guess(2, [(0.0, 1.0), (a, b)])
        # qubit 0 fixed to |1>, qubit 1 in (a, b): amplitude on index q1*2 + 1
        np.testing.assert_allclose(state.amplitudes, [0, a, 0, b], atol=1e-12)

    def test_three_qubit_values(self):
        plus = (1 / np.sqrt(2), 1 / np.sqrt(2))
        state = product_state_guess(3, [plus, (1, 0), (0, 1)])
        want = np.zeros(8)
        want[4] = want[5] = 1 / np.sqrt(2)  # qubit2=1, qubit1=0, qubit0 in +
        np.testing.assert_allclose(state.amplitudes, want, atol=1e-12)

    def test_rejections(self):
        with pytest.raises(ValueError, match="need 2 amplitude pairs"):
            product_state_guess(2, [(1, 0)])
        with pytest.raises(ValueError, match="exactly 2"):
            product_state_guess(1, [(1, 0, 0)])
        with pytest.raises(ValueError, match="not normalized"):
            product_state_guess(1, [(0.5, 0.5)])

    def test_rejects_nan_pair(self):
        with pytest.raises(ValueError, match="qubit 0 amplitudes"):
            product_state_guess(1, [(np.nan, 1.0)])


class TestResources:
    def test_plain_total(self):
        estimate = resource_estimate(5, 10, 7, 3)
        assert estimate.total == 60
        assert not estimate.interacting_pair_in_position_space
        assert estimate == resource_estimate(5, 10, 7, 3) != resource_estimate(5, 10, 7, 4)
        assert hash(estimate) == hash(resource_estimate(5, 10, 7, 3))

    def test_pair_promotion_total(self):
        estimate = resource_estimate(
            5, 10, 7, 3,
            position_space_qubits_per_particle=30,
            interacting_pair_in_position_space=True,
        )
        assert estimate.total == 100

    def test_minimal_configuration(self):
        assert resource_estimate(1, 1, 1, 0).total == 2

    def test_default_scratch(self):
        assert resource_estimate(2, 4, 5).total == 2 * 4 + 5 + 3

    def test_rejections(self):
        with pytest.raises(ValueError, match="index_qubits"):
            resource_estimate(2, 3, -1, 0)
        for fractional_or_bool in (2.5, True):
            with pytest.raises(ConfigFieldError, match="expected an integer") as excinfo:
                resource_estimate(fractional_or_bool, 3, 4)
            assert excinfo.value.field == "particles"
        with pytest.raises(ValueError, match="at least 2 particles"):
            resource_estimate(
                1, 3, 2, 0,
                position_space_qubits_per_particle=6,
                interacting_pair_in_position_space=True,
            )
