"""Command-line front end: config handling, outputs, exit codes."""

import contextlib
import io
import json
import logging
import math
import os
import pathlib
import tempfile
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_qpe import ConfigFieldError, cli, oracle, problems
from spectral_qpe import hamiltonian as ham
from spectral_qpe import phase_estimation as pe
from spectral_qpe import statevector as sv
from spectral_qpe.phase_estimation import phase_to_energy


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


DIAG_I = {  # diag(1, i): eigenphases 0 and pi/2
    "problem": "explicit_unitary",
    "unitary": [[1, [0, 0]], [0, [0, 1]]],
}


_Z = [[1, 0], [0, -1]]


def _terms(system_qubits, support, matrix):
    """An explicit_terms problem with one term."""
    return {"problem": "explicit_terms", "system_qubits": system_qubits,
            "terms": [{"support": support, "matrix": matrix}]}


def read_rows(path):
    header, *rows = path.read_text().strip().split("\n")
    return header, [r.split(",") for r in rows]


class TestSolve:
    def test_writes_histogram_and_result(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = dict(DIAG_I, m_index=2, time=1.0, trials=64, seed=1,
                   guess={"amplitudes": [0, [0, 1]]}, out="run1")
        assert cli.main(["solve", "--config", write_config(tmp_path, cfg)]) == 0

        header, rows = read_rows(tmp_path / "run1.histogram.csv")
        assert header == "bin,phase_radians,energy,probability,counts"
        assert len(rows) == 4
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
        assert sum(int(r[4]) for r in rows) == 64
        assert float(rows[1][2]) == pytest.approx(phase_to_energy(math.pi / 2, 1.0))

        record = json.loads((tmp_path / "run1.result.json").read_text())
        assert record["command"] == "solve"
        assert record["dominant"]["bin"] == 1
        assert record["dominant"]["counts"] == 64
        assert record["dominant"]["probability"] == 1.0
        assert record["dominant"]["eigenvector_fidelity"] is None  # no oracle here
        assert record["peaks"] == [record["dominant"]]
        out = capsys.readouterr().out
        assert "bin 1:" in out
        assert "wrote run1.histogram.csv and run1.result.json" in out

    def test_dominant_found_even_below_threshold(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # one trial: default threshold max(0.05, 4/sqrt(1)) = 4 suppresses all
        # peaks, but solve still reports the observed bin
        cfg = dict(DIAG_I, m_index=2, time=1.0, trials=1, seed=0, out="one")
        assert cli.main(["solve", "--config", write_config(tmp_path, cfg)]) == 0
        record = json.loads((tmp_path / "one.result.json").read_text())
        assert record["dominant"]["counts"] == 1

    def test_dominant_below_threshold_keeps_its_fidelity(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # Z with t = pi/4 puts both eigenphases on the 16-bin grid; one trial
        # sits below the default threshold, so the dominant bin is not a peak
        cfg = {"problem": "explicit_terms", "system_qubits": 1,
               "terms": [{"support": [0], "matrix": [[1, 0], [0, -1]]}],
               "m_index": 4, "time": math.pi / 4, "trials": 1, "out": "dom"}
        assert cli.main(["solve", "--config", write_config(tmp_path, cfg)]) == 0
        record = json.loads((tmp_path / "dom.result.json").read_text())
        assert record["dominant"]["bin"] in (2, 14)
        assert record["dominant"]["eigenvector_fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_flag_overrides_land_in_resolved_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = dict(DIAG_I, m_index=2, time=1.0, trials=3, seed=9, out="ov")
        path = write_config(tmp_path, cfg)
        assert cli.main(["solve", "--config", path, "--seed", "5",
                         "--trials", "7", "--index-qubits", "3"]) == 0
        record = json.loads((tmp_path / "ov.result.json").read_text())
        resolved = record["config"]
        assert resolved["seed"] == 5
        assert resolved["trials"] == 7
        assert resolved["m_index"] == 3
        assert "out" not in resolved

    FLAGGED = {"problem": "tfim", "sites": 2, "m_index": 2, "time": 0.5, "slices": 2,
               "trials": 3, "seed": 9, "threshold": 0.5, "out": "keyed"}

    @pytest.mark.parametrize("flag, text, key, value", [
        ("--seed", "5", "seed", 5), ("--index-qubits", "3", "m_index", 3),
        ("--time", "0.75", "time", 0.75), ("--slices", "3", "slices", 3),
        ("--trials", "7", "trials", 7), ("--threshold", "0.25", "threshold", 0.25),
    ], ids=["seed", "index-qubits", "time", "slices", "trials", "threshold"])
    def test_each_flag_lands_on_its_key(self, tmp_path, monkeypatch, flag, text, key, value):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, self.FLAGGED)
        assert cli.main(["solve", "--config", path, flag, text]) == 0
        resolved = json.loads((tmp_path / "keyed.result.json").read_text())["config"]
        assert resolved[key] == value
        kept = [k for k in self.FLAGGED if k not in (key, "out")]
        assert {k: resolved[k] for k in kept} == {k: self.FLAGGED[k] for k in kept}

    def test_out_flag_lands_on_the_output_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, self.FLAGGED)
        assert cli.main(["solve", "--config", path, "--out", "flagged"]) == 0
        assert sorted(p.name for p in tmp_path.glob("*ed.*")) == [
            "flagged.histogram.csv", "flagged.result.json"]

    def test_slices_flag_matches_slices_key(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        base = {"problem": "tfim", "sites": 3, "m_index": 4, "time": 0.5,
                "trials": 300, "seed": 6}
        keyed = write_config(tmp_path, dict(base, slices=3, out="key"), "key.json")
        flagged = write_config(tmp_path, dict(base, out="flag"), "flag.json")
        assert cli.main(["solve", "--config", keyed]) == 0
        by_key = capsys.readouterr().out
        assert cli.main(["solve", "--config", flagged, "--slices", "3"]) == 0
        assert capsys.readouterr().out == by_key.replace("key.", "flag.")
        for suffix in ("histogram.csv", "result.json"):
            assert (tmp_path / f"flag.{suffix}").read_bytes() == (
                tmp_path / f"key.{suffix}"
            ).read_bytes()


class TestDeterminism:
    CFG = {
        "problem": "tfim", "sites": 2, "coupling": 1.1, "field": 0.4,
        "m_index": 3, "time": 0.5, "trials": 999, "seed": 42,
    }

    def run(self, tmp_path, out):
        cfg = dict(self.CFG, out=str(tmp_path / out))
        path = write_config(tmp_path, cfg, name=f"{out}.json")
        assert cli.main(["spectrum", "--config", path]) == 0
        return (
            (tmp_path / f"{out}.histogram.csv").read_bytes(),
            (tmp_path / f"{out}.result.json").read_bytes(),
        )

    def test_reruns_are_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert self.run(tmp_path, "a") == self.run(tmp_path, "b")


def one_string_histogram(run, counts):
    """The histogram CSV as one string, the layout of the file before it
    went out in chunks."""
    config = run.config
    bins = config.layout.num_bins
    lines = ["bin,phase_radians,energy,probability,counts"]
    for j in range(bins):
        phase = 2.0 * math.pi * j / bins
        energy = phase_to_energy(phase, config.time)
        lines.append(f"{j},{cli._g(phase)},{cli._g(energy)},"
                     f"{cli._g(counts[j] / config.trials)},{int(counts[j])}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("chunk_rows", [1, 5, 17, 1000])
def test_histogram_chunks_join_to_the_one_string_layout(tmp_path, monkeypatch, chunk_rows):
    """At M = 16 (17 lines with the header) the histogram goes out in
    chunks of one line, of five with a short last one, or in one chunk, and
    the file written from them is the one-string layout, byte for byte."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", chunk_rows)
    cfg = dict(DIAG_I, m_index=4, time=1.0, trials=64, seed=3)
    run = pe.Run(cfg)
    counts = pe.sample_spectrum(run.guess, run.config).counts
    chunks = list(cli._histogram_csv(run, counts))
    assert len(chunks) == math.ceil(17 / chunk_rows)
    assert "".join(chunks) == one_string_histogram(run, counts)
    assert cli.main(["spectrum", "--config", write_config(tmp_path, dict(cfg, out="run"))]) == 0
    assert (tmp_path / "run.histogram.csv").read_text() == one_string_histogram(run, counts)


def test_bench_size_histogram_goes_out_in_one_write(tmp_path, monkeypatch):
    """A 256-bin histogram is written by one call, as it was before chunks."""
    monkeypatch.chdir(tmp_path)
    writes = []
    fdopen = os.fdopen

    def counting_fdopen(*args, **kwargs):
        handle = fdopen(*args, **kwargs)
        write = handle.write
        handle.write = lambda text: writes.append(len(text)) or write(text)
        return handle

    monkeypatch.setattr(cli.os, "fdopen", counting_fdopen)
    cfg = dict(DIAG_I, m_index=8, time=1.0, trials=64, out="run")
    assert cli.main(["solve", "--config", write_config(tmp_path, cfg)]) == 0
    assert len(writes) == 2  # the histogram and the result, one write each
    assert writes[0] == len((tmp_path / "run.histogram.csv").read_text())


class TestSpectrum:
    def test_two_peak_weights(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = dict(
            DIAG_I, m_index=2, time=1.0, trials=4000, seed=11, threshold=0.1,
            guess={"amplitudes": [0.5, [math.sqrt(0.75), 0]]}, out="sp",
        )
        assert cli.main(["spectrum", "--config", write_config(tmp_path, cfg)]) == 0
        record = json.loads((tmp_path / "sp.result.json").read_text())
        assert [p["bin"] for p in record["peaks"]] == [1, 0]  # descending weight
        for peak, want in zip(record["peaks"], (0.75, 0.25)):
            sigma = math.sqrt(want * (1 - want) / 4000)
            assert abs(peak["probability"] - want) <= 3 * sigma

    def test_threshold_above_one_reports_no_peaks(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = dict(DIAG_I, m_index=2, time=1.0, trials=16, seed=2,
                   threshold=1.1, out="none")
        assert cli.main(["spectrum", "--config", write_config(tmp_path, cfg)]) == 0
        record = json.loads((tmp_path / "none.result.json").read_text())
        assert record["peaks"] == []
        assert record["dominant"]["counts"] > 0

    def test_grid_problem_with_trotter_slices(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = {
            "problem": "grid", "system_qubits": 2, "potential": "constant:0.3",
            "mass": 1.0, "m_index": 3, "time": 0.5, "slices": 8,
            "trials": 50, "seed": 7, "out": "grid",
        }
        assert cli.main(["spectrum", "--config", write_config(tmp_path, cfg)]) == 0
        _, rows = read_rows(tmp_path / "grid.histogram.csv")
        assert sum(int(r[4]) for r in rows) == 50

    def test_each_peak_record_is_built_once(self, tmp_path, monkeypatch, capsys):
        """The dominant bin is also the first peak: its record, and the
        warning that its collapsed state matches no oracle eigenvalue, come
        once, and the record is the one solve writes (sliced TFIM-4, whose
        bin 383 lies a Trotter shift away from every eigenvalue)."""
        monkeypatch.chdir(tmp_path)
        cfg = {"problem": "tfim", "sites": 4, "slices": 2, "m_index": 10, "time": 0.5,
               "trials": 2000}
        records = {}
        for command in ("solve", "spectrum"):
            argv = [command, "--config", write_config(tmp_path, cfg), "--out", command]
            assert cli.main(argv) == 0
            err = capsys.readouterr().err
            assert err.count("peak at bin 383 matches no oracle eigenvalue") == 1
            records[command] = json.loads((tmp_path / f"{command}.result.json").read_text())
        dominant = records["solve"]["dominant"]
        assert dominant["bin"] == 383 and dominant["eigenvector_fidelity"] is None
        assert records["spectrum"]["dominant"] == dominant
        assert records["spectrum"]["peaks"][0] == dominant


def test_product_guess_writes_the_histogram_of_its_amplitudes(tmp_path, monkeypatch):
    """A product guess is the tensor product of its pairs, qubit 0 first:
    (1, 0) (x) (0, 1) (x) (0.6, 0.8) is 0.6 on |010> and 0.8 on |110>, and a
    spectrum run from it writes the histogram of those amplitudes given as
    the "amplitudes" form."""
    monkeypatch.chdir(tmp_path)
    guesses = {"product": {"product": [[1, 0], [0, 1], [0.6, 0.8]]},
               "amplitudes": {"amplitudes": [0, 0, 0.6, 0, 0, 0, 0.8, 0]}}
    for name, guess in guesses.items():
        cfg = {"problem": "tfim", "sites": 3, "m_index": 5, "time": 0.5, "trials": 500,
               "seed": 3, "guess": guess, "out": name}
        assert cli.main(["spectrum", "--config", write_config(tmp_path, cfg, f"{name}.json")]) == 0
    product = (tmp_path / "product.histogram.csv").read_bytes()
    assert product == (tmp_path / "amplitudes.histogram.csv").read_bytes()
    record = json.loads((tmp_path / "product.result.json").read_text())
    assert record["config"]["guess"] == guesses["product"]


class TestAliasingWarning:
    """Every Hamiltonian run warns when its spectrum may leave the unaliased
    window: by the spectral radius up to the dense cap, above it by the
    source's norm bound, Sigma_q Z_q reading the radius l exactly."""

    @staticmethod
    def z_sum(tmp_path, qubits):
        terms = [{"support": [q], "matrix": _Z} for q in range(qubits)]
        cfg = {"problem": "explicit_terms", "system_qubits": qubits, "terms": terms,
               "m_index": 2, "time": 10, "slices": 1, "trials": 10, "out": "z"}
        return ["solve", "--config", write_config(tmp_path, cfg)]

    def test_above_the_dense_cap_reads_the_norm_bound(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(self.z_sum(tmp_path, oracle.MAX_DENSE_QUBITS + 1)) == 0
        assert capsys.readouterr().err == (
            "WARNING spectral_qpe.phase_estimation: norm bound (an upper bound on the "
            "spectral radius) 13 exceeds the unaliased window (-0.314159, 0.314159]; "
            "reported energies may be aliased — reduce time below 0.241661\n"
        )

    def test_with_a_decomposition_reads_the_spectral_radius(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(self.z_sum(tmp_path, 3)) == 0
        # the aliased peak then matches no eigenvalue, which the next line says
        assert capsys.readouterr().err.splitlines()[0] == (
            "WARNING spectral_qpe.phase_estimation: spectral radius 3 exceeds the "
            "unaliased window (-0.314159, 0.314159]; reported energies may be "
            "aliased — reduce time below 1.0472"
        )


class TestConfigRejections:
    def check(self, tmp_path, capsys, cfg, needle, command="solve"):
        code = cli.main([command, "--config", write_config(tmp_path, cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert needle in err
        assert err.count('key "') <= 1
        return err

    def test_unknown_key_is_named(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = dict(DIAG_I, m_index=2, time=1.0, trails=7)
        self.check(tmp_path, capsys, cfg, 'key "trails": unknown key;')

    @pytest.mark.parametrize("kind", [["tfim"], {"name": "tfim"}, 3, None],
                             ids=["list", "dict", "number", "null"])
    def test_non_string_problem_is_named(self, tmp_path, monkeypatch, capsys, kind):
        monkeypatch.chdir(tmp_path)
        cfg = {"problem": kind, "sites": 3, "m_index": 3, "time": 0.5, "out": "odd"}
        err = self.check(tmp_path, capsys, cfg, 'key "problem"')
        assert "Traceback" not in err
        assert list(tmp_path.glob("odd*")) == []

    @pytest.mark.parametrize("cfg, key", [
        ({"problem": "tfim", "sites": 13}, "sites"),
        ({"problem": "grid", "system_qubits": 11}, "system_qubits"),
        ({"problem": "grid", "system_qubits": 1}, "system_qubits"),
        (_terms(2, [2], _Z), "terms[0].support"),
        (_terms(2, [0, 0], np.eye(4).tolist()), "terms[0].support"),
        (_terms(2, [0, 1], _Z), "terms[0].matrix"),
        (_terms(2, [0], [[0, 1], [0, 0]]), "terms[0].matrix"),
        (_terms(30, [0], _Z), "system_qubits"),
        ({"problem": "explicit_unitary", "unitary": [[1, 1], [0, 1]]}, "unitary"),
        ({"problem": "explicit_unitary", "unitary": np.eye(3).tolist()}, "unitary"),
        ({"problem": "grid", "system_qubits": 3, "potential": "bogus"}, "potential"),
        ({"problem": "grid", "system_qubits": 3, "potential": [0, 1, 2]}, "potential"),
        ({"problem": "grid", "system_qubits": 3, "mass": 0}, "mass"),
        ({"problem": "explicit_unitary", "unitary": [[1, 0], []]}, "unitary"),
        ({"problem": "explicit_unitary", "unitary": [[1, 0], [0]]}, "unitary"),
        ({"problem": "explicit_terms", "system_qubits": 2, "terms": {"support": [0]}}, "terms"),
        ({"problem": "explicit_terms", "system_qubits": 2,
          "terms": [{"support": [0], "matrix": _Z, "name": "z"}]}, "terms[0]"),
        (_terms(2, [], _Z), "terms[0].support"),
    ], ids=["tfim-13-sites", "grid-11-qubits", "grid-1-qubit", "support-out-of-range",
            "support-repeated", "matrix-shape", "matrix-not-hermitian", "terms-30-qubits",
            "unitary-not-unitary", "unitary-3x3", "potential-unknown", "potential-length",
            "mass-zero", "unitary-empty-row", "unitary-ragged-rows", "terms-not-a-list",
            "term-extra-key", "support-empty"])
    def test_out_of_range_size_is_named(self, tmp_path, monkeypatch, capsys, cfg, key):
        monkeypatch.chdir(tmp_path)

        def forbidden(*args, **kwargs):
            raise AssertionError(f'an eigendecomposition ran before "{key}" was refused')

        monkeypatch.setattr(oracle, "eigendecompose", forbidden)
        err = self.check(tmp_path, capsys, dict(cfg, m_index=3, time=0.5), f'key "{key}"')
        assert 'key "problem"' not in err

    @pytest.mark.parametrize("cfg, key", [
        ({"problem": "grid", "system_qubits": 3, "mass": 1e-320}, "mass"),
        ({"problem": "grid", "system_qubits": 3, "mass": 3e-308,
          "potential": "constant:1e308"}, "potential"),
        ({"problem": "tfim", "sites": 3, "coupling": 1e308, "field": 1e308}, "coupling"),
        ({"problem": "tfim", "sites": 2, "coupling": 1e308, "field": 1e308}, "field"),
        (_terms(1, [0], [[1e308, 1e308], [1e308, 1e308]]), "terms[0].matrix"),
        ({"problem": "explicit_terms", "system_qubits": 2,
          "terms": [{"support": [q], "matrix": [[1e308, 0], [0, -1e308]]} for q in (0, 1)]},
         "terms"),
        ({"problem": "grid", "system_qubits": 2, "mass": 1e-305,
          "potential": [1.7976e308, 0, 0, 0]}, "potential"),
        ({"problem": "explicit_unitary", "unitary": [[1e308, 1e308], [1e308, 1e308]]},
         "unitary"),
        (_terms(1, [0], [[0, 1e308], [-1e308, 0]]), "terms[0].matrix"),
    ], ids=["grid-kinetic", "grid-potential", "tfim-bonds", "tfim-fields", "term-spectrum",
            "terms-sum", "grid-sum", "unitary-entries", "term-antihermitian"])
    def test_overflowing_norm_bound_is_refused_by_the_problem(self, tmp_path, monkeypatch,
                                                              capsys, cfg, key):
        """A norm bound that overflows is refused naming the problem key at
        fault, not "time", which no time could satisfy; no numpy warning is
        raised on the way.  So are a unitary and a term whose entries would
        overflow the unitarity and Hermiticity checks."""
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = self.check(tmp_path, capsys, dict(cfg, m_index=3, time=0.5, out="big"),
                             f'key "{key}"', command="spectrum")
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "RuntimeWarning" not in err and 'key "time"' not in err
        assert list(tmp_path.glob("big*")) == []

    def test_register_cap_is_cited(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = {"problem": "tfim", "sites": 2, "m_index": 25, "time": 1.0}
        err = self.check(tmp_path, capsys, cfg, "26")
        assert "27" in err

    def test_zero_time(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = dict(DIAG_I, m_index=2, time=0.0)
        self.check(tmp_path, capsys, cfg, 'key "time"')

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits(self, tmp_path, monkeypatch, capsys, seed):
        monkeypatch.chdir(tmp_path)
        cfg = dict(DIAG_I, m_index=2, time=1.0, seed=seed)
        self.check(tmp_path, capsys, cfg, 'key "seed"')

    def test_slices_meaningless_for_explicit_unitary(self, tmp_path, monkeypatch,
                                                     capsys):
        monkeypatch.chdir(tmp_path)
        cfg = dict(DIAG_I, m_index=2, time=1.0, slices=4)
        self.check(tmp_path, capsys, cfg, 'key "slices"')

    @pytest.mark.parametrize("flag", ["0", "x"])
    def test_bad_slices_flag_is_named(self, tmp_path, monkeypatch, capsys, flag):
        monkeypatch.chdir(tmp_path)
        cfg = {"problem": "tfim", "sites": 3, "m_index": 3, "time": 0.5, "out": "bad"}
        code = cli.main(["solve", "--config", write_config(tmp_path, cfg),
                         "--slices", flag])
        assert code == 2
        assert 'key "slices"' in capsys.readouterr().err
        assert list(tmp_path.glob("bad*")) == []

    @pytest.mark.parametrize("text", ["foo", "2.5", "Exact"])
    def test_slices_string_is_refused_alike_by_key_and_flag(self, tmp_path, monkeypatch,
                                                            capsys, text):
        monkeypatch.chdir(tmp_path)
        cfg = {"problem": "tfim", "sites": 3, "m_index": 3, "time": 0.5}
        keyed = write_config(tmp_path, dict(cfg, slices=text), "keyed.json")
        flagged = write_config(tmp_path, cfg, "flagged.json")
        assert cli.main(["solve", "--config", keyed]) == 2
        by_key = capsys.readouterr().err
        assert cli.main(["solve", "--config", flagged, "--slices", text]) == 2
        assert capsys.readouterr().err == by_key == (
            f'config error: key "slices": expected an integer or "exact", got {text!r}\n')

    def test_nonpositive_threshold(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = dict(DIAG_I, m_index=2, time=1.0, threshold=-0.5)
        self.check(tmp_path, capsys, cfg, 'key "threshold"')

    def test_missing_config_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["solve", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_bad_unitary_matrix_entry(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = {"problem": "explicit_unitary", "unitary": [[1, "x"], [0, 1]],
               "m_index": 2, "time": 1.0}
        self.check(tmp_path, capsys, cfg, '[re, im]')

    def test_failed_run_leaves_no_files(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = dict(DIAG_I, m_index=2, time=1.0, threshold=-1.0, out="ghost")
        self.check(tmp_path, capsys, cfg, "threshold")
        assert list(tmp_path.glob("ghost*")) == []

    def test_unknown_power_method_lists_routes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = dict(DIAG_I, m_index=2, time=1.0, power_method="dense")
        err = self.check(tmp_path, capsys, cfg, 'key "power_method"')
        assert '"block"' in err

    def test_overflowing_time_fails_closed(self, tmp_path, monkeypatch, capsys):
        # lambda * t overflows to inf, so e^{-iHt} is NaN: the run must stop
        # with an error code, never report a peak from a NaN distribution
        monkeypatch.chdir(tmp_path)
        cfg = {"problem": "tfim", "sites": 3, "m_index": 4, "time": 1e308,
               "trials": 10, "out": "overflow"}
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["solve", "--config", write_config(tmp_path, cfg)])
        assert code in (2, 3)
        assert list(tmp_path.glob("overflow*")) == []

    @pytest.mark.parametrize("command", ["solve", "spectrum"])
    @pytest.mark.parametrize(
        "problem",
        [{"problem": "tfim", "sites": 3}, {"problem": "grid", "system_qubits": 2}],
        ids=["trotter", "grid"],
    )
    def test_non_finite_lambda_t_refused_before_running(
        self, tmp_path, monkeypatch, capsys, problem, command
    ):
        cfg = dict(problem, m_index=3, time=1e308, slices=2, out="overflow")
        err = self.check_refused_before_running(
            tmp_path, monkeypatch, capsys, cfg, "time", command
        )
        assert "not finite" in err

    @pytest.mark.parametrize("command", ["solve", "spectrum", "oracle-check"])
    @pytest.mark.parametrize(
        "bad, key",
        [({"power_method": "dense"}, "power_method"), ({"seed": 2**64}, "seed"),
         ({"m_index": 25}, "m_index"), ({"trials": 10**30}, "trials"),
         ({"trials": pe.MAX_TRIALS + 1}, "trials")],
        ids=["dense", "seed", "m_index", "trials-1e30", "trials-over-cap"],
    )
    def test_exact_run_refused_before_eigendecomposition(
        self, tmp_path, monkeypatch, capsys, bad, key, command
    ):
        cfg = {"problem": "tfim", "sites": 3, "m_index": 3, "time": 0.5,
               "out": "exact", **bad}
        self.check_refused_before_running(tmp_path, monkeypatch, capsys, cfg, key,
                                          command)

    def check_refused_before_running(self, tmp_path, monkeypatch, capsys, cfg, key,
                                     command):
        monkeypatch.chdir(tmp_path)

        def forbidden(*args, **kwargs):
            raise AssertionError(f'the run started before "{key}" was validated')

        monkeypatch.setattr(pe, "pre_measurement_state", forbidden)
        monkeypatch.setattr(oracle, "eigendecompose", forbidden)
        err = self.check(tmp_path, capsys, cfg, f'key "{key}"', command=command)
        assert list(tmp_path.glob(f"{cfg['out']}*")) == []
        return err

    @pytest.mark.parametrize("command", ["solve", "spectrum", "oracle-check"])
    @pytest.mark.parametrize("key", ["m_index", "time", "slices", "trials", "seed",
                                     "threshold", "power_method", "guess"])
    def test_null_run_key_is_refused_before_running(
        self, tmp_path, monkeypatch, capsys, key, command
    ):
        """A JSON null is a value, never the default: it is refused naming its key."""
        cfg = {"problem": "tfim", "sites": 3, "m_index": 3, "time": 0.5, "out": "null",
               key: None}
        self.check_refused_before_running(tmp_path, monkeypatch, capsys, cfg, key, command)

    BIG = 10**400  # a JSON integer past the float range

    @pytest.mark.parametrize("command", ["solve", "trotter-bench"])
    @pytest.mark.parametrize(
        "problem, key",
        [({"problem": "tfim", "sites": 3, "time": BIG}, "time"),
         ({"problem": "tfim", "sites": 3, "coupling": BIG}, "coupling"),
         ({"problem": "tfim", "sites": 3, "field": -BIG}, "field"),
         ({"problem": "grid", "system_qubits": 2, "mass": BIG}, "mass"),
         ({"problem": "grid", "system_qubits": 2, "potential": [0, BIG, 0, 0]}, "potential"),
         ({"problem": "explicit_terms", "system_qubits": 1,
           "terms": [{"support": [0], "matrix": [[BIG, 0], [0, 1]]}]}, "terms[0].matrix"),
         ({"problem": "explicit_unitary", "unitary": [[1, 0], [0, [0, BIG]]]}, "unitary")],
        ids=["time", "coupling", "field", "mass", "potential", "terms", "unitary"],
    )
    def test_integer_past_float_range_is_refused_before_running(
        self, tmp_path, monkeypatch, capsys, problem, key, command
    ):
        extra = {"m_index": 3} if command == "solve" else {"slice_sweep": [1, 2]}
        cfg = {"time": 0.5, "out": "big", **problem, **extra}
        err = self.check_refused_before_running(tmp_path, monkeypatch, capsys, cfg, key,
                                                command)
        assert "Traceback" not in err

    @pytest.mark.parametrize("extra, key", [({"threshold": BIG}, "threshold"),
                                            ({"guess": {"amplitudes": [BIG, 0]}},
                                             "guess.amplitudes")],
                             ids=["threshold", "guess"])
    def test_run_key_past_float_range_is_refused_before_running(
        self, tmp_path, monkeypatch, capsys, extra, key
    ):
        cfg = {**DIAG_I, "m_index": 2, "time": 1.0, "out": "big", **extra}
        self.check_refused_before_running(tmp_path, monkeypatch, capsys, cfg, key, "solve")

    @pytest.mark.parametrize("guess, key, message", [
        ({"amplitudes": [1, 0]}, "guess.amplitudes", "expected 4 amplitudes"),
        ({"amplitudes": [1, 1, 0, 0]}, "guess.amplitudes", "not normalized"),
        ({"product": [[1, 0]]}, "guess.product", "need 2 amplitude pairs, got 1"),
        ({"product": [[1, 0], [1, 0, 0]]}, "guess.product", "qubit 1 needs exactly 2 amplitudes"),
        ({"product": [[1, 0], [1, 1]]}, "guess.product", "qubit 1 amplitudes are not normalized"),
        ({"product": "x"}, "guess.product", "expected a list of pairs"),
        ({"amplitudes": [1, 0, 0, 0], "product": [[1, 0], [1, 0]]}, "guess",
         'exactly one of "amplitudes" or "product"'),
    ], ids=["amplitudes-length", "amplitudes-norm", "product-count", "product-pair-length",
            "product-pair-norm", "product-not-a-list", "both-forms"])
    def test_guess_refusal_names_its_sub_key(self, tmp_path, monkeypatch, capsys, guess, key,
                                             message):
        """A guess object refused for its shape or norm names the sub-key
        at fault, as its parse errors do; one with both forms names "guess"."""
        cfg = {"problem": "tfim", "sites": 2, "m_index": 3, "time": 0.5, "out": "guess",
               "guess": guess}
        err = self.check_refused_before_running(tmp_path, monkeypatch, capsys, cfg, key, "solve")
        assert message in err

    @pytest.mark.parametrize("text, message", [
        ('{"problem": "tfim",', "config is not valid JSON"),
        ('[{"problem": "tfim"}]', "config must be a JSON object"),
    ], ids=["not-json", "array"])
    def test_config_that_is_no_json_object_is_refused(self, tmp_path, monkeypatch, capsys, text,
                                                      message):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(text)
        assert cli.main(["solve", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("command", ["solve", "spectrum", "trotter-bench", "oracle-check"])
    def test_out_in_missing_directory_is_refused_before_running(
        self, tmp_path, monkeypatch, capsys, command
    ):
        extra = {"slice_sweep": [1, 2]} if command == "trotter-bench" else {"m_index": 3}
        cfg = {"problem": "tfim", "sites": 3, "time": 0.5, "out": "absent/run", **extra}
        err = self.check_refused_before_running(tmp_path, monkeypatch, capsys, cfg, "out",
                                                command)
        assert "does not exist" in err
        assert not (tmp_path / "absent").exists()

    @pytest.mark.parametrize("command, suffix", [("solve", ".result.json"),
                                                 ("spectrum", ".histogram.csv"),
                                                 ("trotter-bench", ".trotter.csv")])
    def test_output_path_that_is_a_directory_is_refused_before_running(
        self, tmp_path, monkeypatch, capsys, command, suffix
    ):
        """A directory in the way of one output refuses the run before any
        work, so no other output is written beside it."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / f"run{suffix}").mkdir()

        def forbidden(*args, **kwargs):
            raise AssertionError('the run started before "out" was validated')

        monkeypatch.setattr(pe, "pre_measurement_state", forbidden)
        monkeypatch.setattr(oracle, "eigendecompose", forbidden)
        extra = {"slice_sweep": [1, 2]} if command == "trotter-bench" else {"m_index": 3}
        cfg = {"problem": "tfim", "sites": 3, "time": 0.5, "out": "run", **extra}
        err = self.check(tmp_path, capsys, cfg, 'key "out"', command=command)
        assert "is a directory" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", f"run{suffix}"]
        assert list((tmp_path / f"run{suffix}").iterdir()) == []

    @pytest.mark.parametrize("command", ["solve", "oracle-check"])
    def test_phases_past_float64_resolution_are_refused_before_running(
        self, tmp_path, monkeypatch, capsys, command
    ):
        cfg = {"problem": "tfim", "sites": 3, "coupling": 10**30, "m_index": 2,
               "time": 0.5, "out": "coarse"}
        err = self.check_refused_before_running(tmp_path, monkeypatch, capsys, cfg, "time",
                                                command)
        assert "readout bins" in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_invalid_log_level_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SPECTRAL_QPE_LOG", "loud")
        cfg = dict(DIAG_I, m_index=2, time=1.0)
        assert cli.main(["solve", "--config", write_config(tmp_path, cfg)]) == 2
        assert "SPECTRAL_QPE_LOG" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")
#: Refused values of each problem key: out of range, a float or a bool for an
#: integer, null, a string, a wrong length, non-finite, an unknown builtin, a
#: finite value whose norm bound overflows.
PROBLEM_REFUSALS = [
    *[("sites", v) for v in (1, 13, 2.5, 3.0, True, None, "3", NAN)],
    *[("coupling", v) for v in (True, None, "1", [1], NAN, INF, 10**400, 1e308)],
    *[("field", v) for v in (False, None, "x", -INF, -10**400, -1e308)],
    *[("system_qubits", v) for v in (1, 11, 2.5, True, None, "3", INF)],
    *[("mass", v) for v in (0, -2, True, None, "1", NAN, INF, 10**400, 1e-320)],
    *[("potential", v) for v in (
        "bogus", "constant", "zero:1", "constant:abc", "constant:inf", "harmonic:1e200,0",
        [0, 1, 2], [0, 1, 2, 3, 4], [], [0, NAN, 0, 0], [0, True, 0, 0], [0, "x", 0, 0],
        [0, None, 0, 0], [[0, 1], [2, 3]], [0, 10**400, 0, 0], None, 3, True, {})],
]


@pytest.mark.parametrize("key, value", PROBLEM_REFUSALS)
def test_problem_builders_refuse_as_the_cli_does(tmp_path, monkeypatch, capsys, key, value):
    """A builder called directly raises the ConfigFieldError the CLI prints:
    the same field, the same text, the key named once."""
    monkeypatch.chdir(tmp_path)
    tfim = key in ("sites", "coupling", "field")
    if tfim:
        values = {"sites": 3, "coupling": 1.0, "field": 1.0, key: value}
    else:
        values = {"system_qubits": 2, "potential": "zero", "mass": 1.0, key: value}
    with pytest.raises(ConfigFieldError) as excinfo:
        if tfim:
            problems.build_transverse_ising(values["sites"], values["coupling"], values["field"])
        else:
            problems.GridRecipe(values["system_qubits"], values["potential"], values["mass"])
    assert excinfo.value.field == key
    cfg = {"problem": "tfim" if tfim else "grid", **values, "m_index": 3, "time": 0.5}
    assert cli.main(["solve", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {excinfo.value}\n"
    assert err.count('key "') == 1


def test_config_field_error_names_its_key():
    assert str(ConfigFieldError("trials", "must be >= 1, got 0")) == (
        'key "trials": must be >= 1, got 0')


def test_failed_rename_leaves_no_output(tmp_path, monkeypatch, capsys):
    """When the second output cannot be renamed into place, the first one,
    already renamed, is removed with the temporary files, and the run exits
    5 naming the path."""
    monkeypatch.chdir(tmp_path)
    replace = os.replace

    def refuse_result_json(src, dst):
        if str(dst).endswith(".result.json"):
            raise IsADirectoryError(dst)
        replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", refuse_result_json)
    cfg = dict(DIAG_I, m_index=2, time=1.0, trials=8, out="half")
    assert cli.main(["solve", "--config", write_config(tmp_path, cfg)]) == 5
    assert "output error: cannot write 'half.result.json'" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_failed_temporary_file_exits_5(tmp_path, monkeypatch, capsys):
    """A temporary file that cannot be created (a full or read-only disk)
    exits 5 naming the output path, with nothing left behind."""
    monkeypatch.chdir(tmp_path)

    def no_space(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.tempfile, "mkstemp", no_space)
    cfg = dict(DIAG_I, m_index=2, time=1.0, trials=8, out="full")
    assert cli.main(["solve", "--config", write_config(tmp_path, cfg)]) == 5
    err = capsys.readouterr().err
    assert "cannot write 'full.histogram.csv'" in err
    assert "No space left on device" in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_each_main_call_logs_to_its_own_stderr(tmp_path, monkeypatch):
    """The package's log handler writes to the stderr of the call that logs,
    not to the stderr it was created under."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(logging.getLogger("spectral_qpe"), "handlers", [])
    monkeypatch.setenv("SPECTRAL_QPE_LOG", "warn")
    # time 1.5 puts TFIM-3's spectral radius outside the unaliased window
    cfg = {"problem": "tfim", "sites": 3, "m_index": 5, "time": 1.5, "trials": 300,
           "out": "run"}
    argv = ["spectrum", "--config", write_config(tmp_path, cfg)]
    streams = [io.StringIO(), io.StringIO()]
    for stream in streams:
        with contextlib.redirect_stderr(stream), contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    first, second = (stream.getvalue() for stream in streams)
    assert first.startswith("WARNING ")
    assert second == first


class TestTrotterBench:
    X_PLUS_Z = {
        "problem": "explicit_terms", "system_qubits": 1,
        "terms": [
            {"support": [0], "matrix": [[0, 1], [1, 0]]},
            {"support": [0], "matrix": [[1, 0], [0, -1]]},
        ],
    }

    def test_error_sweep_halves_per_doubling(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = dict(self.X_PLUS_Z, time=1.0, slice_sweep=[16, 32, 64], out="xz")
        assert cli.main(["trotter-bench", "--config",
                         write_config(tmp_path, cfg)]) == 0
        header, rows = read_rows(tmp_path / "xz.trotter.csv")
        assert header == "r,operator_error,wall_seconds"
        assert [int(r[0]) for r in rows] == [16, 32, 64]
        errors = [float(r[1]) for r in rows]
        assert 0.4 <= errors[1] / errors[0] <= 0.6
        assert 0.4 <= errors[2] / errors[1] <= 0.6
        assert all(float(r[2]) >= 0 for r in rows)

    def test_csv_is_the_one_string_layout(self, tmp_path, monkeypatch):
        """With the clock fixed, the file is the header and one line per
        slice count, byte for byte."""
        monkeypatch.chdir(tmp_path)
        ticks = iter(range(100))
        monkeypatch.setattr(cli, "_time", types.SimpleNamespace(
            perf_counter=lambda: next(ticks) * 0.25))
        cfg = dict(self.X_PLUS_Z, time=1.0, slice_sweep=[1, 2, 4], out="xz")
        assert cli.main(["trotter-bench", "--config", write_config(tmp_path, cfg)]) == 0
        problem = problems.build_problem(cfg)
        exact = ham.unitary_from_decomposition(problem.require_decomposition(), 1.0).matrix
        lines = ["r,operator_error,wall_seconds"]
        for r in cfg["slice_sweep"]:
            error = np.abs(sv._unitary_power(problem.source.step_matrix(1.0 / r), r) - exact).max()
            lines.append(f"{r},{cli._g(error)},{cli._g(0.25)}")
        assert (tmp_path / "xz.trotter.csv").read_text() == "\n".join(lines) + "\n"

    def test_error_falls_as_one_over_r_at_ten_million_slices(self, tmp_path, monkeypatch):
        """The slice is powered with drift control, so the first-order 1/r
        law holds out to 10^7 slices on the grid particle (plain matrix
        powering printed 1.79e-8 there, 27% above the law)."""
        monkeypatch.chdir(tmp_path)
        cfg = {"problem": "grid", "system_qubits": 3, "potential": "harmonic:0.8,3.5",
               "time": 0.4, "slice_sweep": [10**6, 10**7], "out": "grid"}
        assert cli.main(["trotter-bench", "--config",
                         write_config(tmp_path, cfg)]) == 0
        _, rows = read_rows(tmp_path / "grid.trotter.csv")
        errors = [float(r[1]) for r in rows]
        assert errors[1] == pytest.approx(errors[0] / 10, rel=0.02)

    def test_commuting_terms_are_exact_at_one_slice(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = {
            "problem": "explicit_terms", "system_qubits": 2,
            "terms": [
                {"support": [0], "matrix": [[1, 0], [0, -1]]},
                {"support": [1], "matrix": [[1, 0], [0, -1]]},
            ],
            "time": 0.9, "slice_sweep": [1, 4], "out": "zz",
        }
        assert cli.main(["trotter-bench", "--config",
                         write_config(tmp_path, cfg)]) == 0
        _, rows = read_rows(tmp_path / "zz.trotter.csv")
        assert all(float(r[1]) <= 1e-9 for r in rows)

    @pytest.mark.parametrize("sweep", [[1], [2]], ids=["r=1", "r=2"])
    def test_non_finite_slice_power_exits_3(self, tmp_path, monkeypatch, capsys, sweep):
        """A slice holding a NaN fails closed, as itself (r = 1, no product
        checked) or in its powering (r = 2, the snap check), before any file
        is written."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(ham.HamiltonianSum, "step_matrix",
                            lambda self, dt: np.full((2, 2), np.nan, dtype=complex))
        cfg = dict(self.X_PLUS_Z, time=1.0, slice_sweep=sweep, out="xz")
        assert cli.main(["trotter-bench", "--config", write_config(tmp_path, cfg)]) == 3
        assert "not finite" in capsys.readouterr().err
        assert list(tmp_path.glob("xz*")) == []

    def test_rejects_explicit_unitary(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = dict(DIAG_I, time=1.0, slice_sweep=[1, 2])
        assert cli.main(["trotter-bench", "--config",
                         write_config(tmp_path, cfg)]) == 2
        assert "Hamiltonian-bearing" in capsys.readouterr().err

    def test_rejects_overflowing_time(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = dict(self.X_PLUS_Z, time=1e308, slice_sweep=[1, 2], out="xz")
        assert cli.main(["trotter-bench", "--config",
                         write_config(tmp_path, cfg)]) == 2
        assert 'key "time"' in capsys.readouterr().err
        assert list(tmp_path.glob("xz*")) == []

    @pytest.mark.parametrize(
        "bad, key",
        [({"out": 5}, "out"), ({"slice_sweep": [2, 1]}, "slice_sweep"),
         ({"time": 0.0}, "time")],
        ids=["out", "slice_sweep", "time"],
    )
    def test_refusals_come_before_the_eigendecomposition(
        self, tmp_path, monkeypatch, capsys, bad, key
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError(f'eigendecomposition ran before "{key}" was validated')

        monkeypatch.setattr(oracle, "eigendecompose", forbidden)
        monkeypatch.chdir(tmp_path)
        cfg = {**self.X_PLUS_Z, "time": 1.0, "slice_sweep": [1, 2], **bad}
        assert cli.main(["trotter-bench", "--config",
                         write_config(tmp_path, cfg)]) == 2
        assert f'key "{key}"' in capsys.readouterr().err

    def test_rejects_non_increasing_sweep(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = dict(self.X_PLUS_Z, time=1.0, slice_sweep=[8, 8])
        assert cli.main(["trotter-bench", "--config",
                         write_config(tmp_path, cfg)]) == 2
        assert "strictly increasing" in capsys.readouterr().err


class TestResources:
    def run(self, capsys, *argv):
        code = cli.main(["resources", *argv])
        captured = capsys.readouterr()
        return code, captured.out if code == 0 else captured.err

    def total_line(self, out):
        return [line for line in out.splitlines() if line.startswith("total")][0]

    def test_plain_budget(self, capsys):
        code, out = self.run(capsys, "--particles", "5",
                             "--qubits-per-particle", "10",
                             "--index-qubits", "7", "--scratch-qubits", "3")
        assert code == 0
        assert self.total_line(out).split() == ["total", "60"]

    def test_pair_promotion_budget(self, capsys):
        code, out = self.run(capsys, "--particles", "5",
                             "--qubits-per-particle", "10",
                             "--index-qubits", "7", "--scratch-qubits", "3",
                             "--position-qubits-per-particle", "30",
                             "--pair-in-position-space")
        assert code == 0
        assert self.total_line(out).split() == ["total", "100"]
        assert "interacting_pair_in_position_space yes" in " ".join(out.split())

    @pytest.mark.parametrize("pair, tail", [
        ([], "0\n"
             "interacting_pair_in_position_space   no\n"
             "total                                60\n"),
        (["--position-qubits-per-particle", "30", "--pair-in-position-space"],
         "30\n"
         "interacting_pair_in_position_space   yes\n"
         "total                                100\n"),
    ], ids=["plain", "pair"])
    def test_prints_every_field_in_declaration_order(self, capsys, pair, tail):
        code, out = self.run(capsys, "--particles", "5", "--qubits-per-particle", "10",
                             "--index-qubits", "7", "--scratch-qubits", "3", *pair)
        assert code == 0
        assert out == ("particles                            5\n"
                       "qubits_per_particle                  10\n"
                       "index_qubits                         7\n"
                       "scratch_qubits                       3\n"
                       "position_space_qubits_per_particle   " + tail)

    def test_minimal_budget(self, capsys):
        code, out = self.run(capsys, "--particles", "1",
                             "--qubits-per-particle", "1",
                             "--index-qubits", "1", "--scratch-qubits", "0")
        assert code == 0
        assert self.total_line(out).split() == ["total", "2"]

    def test_negative_count_rejected(self, capsys):
        code, err = self.run(capsys, "--particles", "2",
                             "--qubits-per-particle", "3", "--index-qubits", "-1")
        assert code == 2
        assert "index_qubits" in err


class TestOracleCheck:
    # asymmetric single-qubit Hamiltonian: trace nonzero, so the readout
    # distribution is not mirror symmetric and a reversed transform shows up
    TILTED = {
        "problem": "explicit_terms", "system_qubits": 1,
        "terms": [{"support": [0], "matrix": [[0.7, 0.9], [0.9, -0.1]]}],
    }

    def test_passes_on_spin_chain(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = {"problem": "tfim", "sites": 2, "coupling": 1.3, "field": 0.9,
               "m_index": 4, "time": 0.6}
        assert cli.main(["oracle-check", "--config",
                         write_config(tmp_path, cfg)]) == 0
        out = capsys.readouterr().out
        assert "oracle check passed" in out
        assert "distribution check" in out
        assert "route check: block vs binary_power" in out
        assert "eigenvector-fidelity audit" in out

    def test_corrupted_readout_is_caught(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = dict(self.TILTED, m_index=3, time=0.8)  # default route: block
        path = write_config(tmp_path, cfg)
        assert cli.main(["oracle-check", "--config", path]) == 0
        capsys.readouterr()
        assert cli.main(["oracle-check", "--config", path,
                         "--corrupt-qft-sign"]) == 4
        err = capsys.readouterr().err
        assert "oracle check failed" in err
        assert "distribution check" in err

    @pytest.mark.parametrize("method", ["binary_power", "flag_loop"])
    def test_corrupted_readout_is_caught_on_gate_routes(self, tmp_path, monkeypatch,
                                                        capsys, method):
        monkeypatch.chdir(tmp_path)
        cfg = dict(self.TILTED, m_index=3, time=0.8, power_method=method)
        path = write_config(tmp_path, cfg)
        assert cli.main(["oracle-check", "--config", path, "--corrupt-qft-sign"]) == 4
        assert "distribution check" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["block", "flag_loop"])
    def test_engine_and_gate_route_mismatch_is_caught(self, tmp_path, monkeypatch,
                                                      capsys, method):
        engine = pe._block_engine_state

        def rotated(va, config):
            # a global phase leaves the distribution and every collapse
            # fidelity unchanged, so only the route check can see it
            state = engine(va, config)
            return sv.StateVector(state.num_qubits, state.amplitudes * np.exp(0.01j))

        monkeypatch.setattr(pe, "_block_engine_state", rotated)
        monkeypatch.chdir(tmp_path)
        cfg = dict(self.TILTED, m_index=3, time=0.8, power_method=method)
        assert cli.main(["oracle-check", "--config", write_config(tmp_path, cfg)]) == 4
        assert "route check" in capsys.readouterr().err

    def test_system_above_oracle_limit_is_refused(self, tmp_path, monkeypatch,
                                                  capsys):
        monkeypatch.chdir(tmp_path)

        def forbidden(*args, **kwargs):
            raise AssertionError("the audit started on an oversized system")

        monkeypatch.setattr(pe, "pre_measurement_state", forbidden)
        monkeypatch.setattr(oracle, "eigendecompose", forbidden)
        cfg = {"problem": "explicit_terms", "system_qubits": 13,
               "terms": [{"support": [12], "matrix": [[1, 0], [0, -1]]}],
               "m_index": 2, "time": 0.5, "slices": 2}
        assert cli.main(["oracle-check", "--config",
                         write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert 'key "system_qubits"' in err
        assert "12 qubits" in err
        assert 'key "slices"' not in err

    @pytest.mark.parametrize("slices", [2, "exact"])
    def test_says_when_it_ignores_slices(self, tmp_path, monkeypatch, capsys, slices):
        """The audit runs exact evolution whatever the slice count, and says
        so at the default log level rather than pass a run it did not audit."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SPECTRAL_QPE_LOG", raising=False)
        cfg = {"problem": "tfim", "sites": 3, "m_index": 3, "time": 0.5, "slices": slices}
        assert cli.main(["oracle-check", "--config", write_config(tmp_path, cfg)]) == 0
        captured = capsys.readouterr()
        assert "oracle check passed" in captured.out
        if slices == "exact":
            assert captured.err == ""
        else:
            assert "WARNING" in captured.err
            assert "ignoring slices=2" in captured.err

    def test_rejects_explicit_unitary(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = dict(DIAG_I, m_index=2, time=1.0)
        assert cli.main(["oracle-check", "--config",
                         write_config(tmp_path, cfg)]) == 2
        assert "Hamiltonian-bearing" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "oracle-check"])
def test_one_eigendecomposition_per_run(tmp_path, monkeypatch, command):
    calls = []
    decompose = oracle.eigendecompose

    def counted(matrix):
        calls.append(1)
        return decompose(matrix)

    monkeypatch.setattr(oracle, "eigendecompose", counted)
    monkeypatch.chdir(tmp_path)
    cfg = {"problem": "tfim", "sites": 3, "coupling": 1.0, "field": 0.7,
           "m_index": 5, "time": 0.5, "trials": 2000, "seed": 3,
           "threshold": 0.02, "out": "once"}
    assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 0
    if command == "spectrum":
        record = json.loads((tmp_path / "once.result.json").read_text())
        assert len(record["peaks"]) >= 2  # one fidelity per peak, same spectrum
    assert len(calls) == 1


@pytest.mark.parametrize("command, extra, solves", [
    ("spectrum", {"sites": 8, "m_index": 4, "slices": 2, "trials": 100}, 16),
    ("spectrum", {"sites": 8, "m_index": 4, "trials": 100}, 16),
    ("trotter-bench", {"sites": 10, "slice_sweep": [1, 2, 3, 4, 5, 6]}, 20),
], ids=["sliced-tfim8", "exact-tfim8", "sweep-tfim10"])
def test_each_term_is_solved_once(tmp_path, monkeypatch, command, extra, solves):
    """Each Trotter term is diagonalized once, when it is built, and the
    dense H once: 15 + 1 solves on TFIM-8 and 19 + 1 on TFIM-10, however
    many slice widths the run steps at."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, solve=solve, **k: calls.append(1) or solve(*a, **k))
    monkeypatch.chdir(tmp_path)
    cfg = {"problem": "tfim", "coupling": 1.0, "field": 0.7, "time": 0.2, "out": "solves",
           **extra}
    assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 0
    assert len(calls) == solves


_TFIM4 = {"problem": "tfim", "sites": 4, "coupling": 1.0, "field": 0.7, "time": 0.5}


def count_dense_unitaries(monkeypatch):
    """Record every full-width (2^4) dense e^{-iHt} that
    ``ham.unitary_from_decomposition`` builds and every 4-qubit
    ``GateMatrix`` validated, as two lists of dimensions."""
    built, validated = [], []
    build = ham.unitary_from_decomposition

    def counted(decomposition, t):
        if decomposition.dim == 16:  # not a Trotter term's exponential
            built.append(decomposition.dim)
        return build(decomposition, t)

    class CountingGate(sv.GateMatrix):
        def __init__(self, matrix):
            super().__init__(matrix)
            if self.arity == 4:
                validated.append(self.arity)

    monkeypatch.setattr(ham, "unitary_from_decomposition", counted)
    monkeypatch.setattr(sv, "GateMatrix", CountingGate)
    return built, validated


@pytest.mark.parametrize("command, extra", [
    ("solve", {"m_index": 6, "trials": 500}),
    ("spectrum", {"m_index": 6, "trials": 500}),
    ("solve", {"power_method": "flag_loop", "m_index": 4, "trials": 50}),
    ("oracle-check", {"m_index": 4, "power_method": "flag_loop"}),
], ids=["solve", "spectrum", "flag_loop", "oracle-check-flag_loop"])
def test_exact_runs_build_no_dense_unitary(tmp_path, monkeypatch, command, extra):
    """The engine and the flag loop work in the eigenbasis: an exact block
    or flag-loop run, and the audit of a flag-loop config (whose route check
    is the engine), never form or validate the dense 2^l x 2^l e^{-iHt}."""
    built, validated = count_dense_unitaries(monkeypatch)
    monkeypatch.chdir(tmp_path)
    cfg = dict(_TFIM4, out="eig", **extra)
    assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 0
    assert built == [] and validated == []


@pytest.mark.parametrize("command, extra", [
    ("solve", {"power_method": "binary_power", "m_index": 4, "trials": 50}),
    ("oracle-check", {"m_index": 4}),
    ("trotter-bench", {"slice_sweep": [1, 2, 4]}),
], ids=["binary_power", "oracle-check", "trotter-bench"])
def test_dense_unitary_is_built_once_where_needed(tmp_path, monkeypatch, command, extra):
    """The binary route, the audit's route check of a block config (by the
    binary route) and the Trotter sweep build the dense e^{-iHt} from the
    decomposition exactly once per run."""
    built, _ = count_dense_unitaries(monkeypatch)
    monkeypatch.chdir(tmp_path)
    cfg = dict(_TFIM4, out="dense", **extra)
    assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 0
    assert built == [16]


def test_grid_runs_at_a_large_slice_count(tmp_path, monkeypatch):
    """The dense slice is raised to the slice count with drift control, so a
    large count stays within the gate tolerance (100000 slices exited 1 with
    "gate is not unitary" when powered without it)."""
    monkeypatch.chdir(tmp_path)
    cfg = {"problem": "grid", "system_qubits": 3, "potential": "harmonic:0.8,3.5",
           "m_index": 3, "time": 0.4, "slices": 100000, "trials": 200, "out": "grid"}
    assert cli.main(["solve", "--config", write_config(tmp_path, cfg)]) == 0
    record = json.loads((tmp_path / "grid.result.json").read_text())
    assert record["dominant"]["eigenvector_fidelity"] > 0.99


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# config fuzzing

# Odd values for any key: wrong types, nested lists, out-of-range numbers,
# +-inf and NaN (written as 1e999, -1e999 and NaN) and integers past the
# float range.  The huge integers inside the float range (_HUGE) are not
# drawn for "slices": a slice count that large is valid, and a local
# Hamiltonian runs every slice as gates, so the run would not finish.
_ODD = st.sampled_from([
    None, True, "x", "exact", [], [1, [2, [3]]], {"a": [1]}, -1, 0, 1, 2, 0.5, -0.3,
    1e-300, math.inf, -math.inf, math.nan, 10**400, -(10**400),
])
_HUGE = st.sampled_from([2**64, 10**30])
_TERMS = [{"support": [0], "matrix": [[0.3, 0.8], [0.8, -0.5]]},
          {"support": [0, 1], "matrix": [[1, 0, 0, 0], [0, -1, 0, 0],
                                         [0, 0, -1, 0], [0, 0, 0, 1]]}]
_PROBLEMS = {
    "tfim": {"problem": "tfim", "sites": 3},
    "grid": {"problem": "grid", "system_qubits": 3, "potential": "harmonic:0.8,3.5"},
    "explicit_terms": {"problem": "explicit_terms", "system_qubits": 2, "terms": _TERMS},
    "explicit_unitary": {"problem": "explicit_unitary", "unitary": [[1, 0], [0, [0, 1]]]},
}
# Replacement values per key: in range, at the edges or odd.
_VALUES = {
    "problem": st.sampled_from(sorted(_PROBLEMS)),
    "sites": st.integers(1, 3) | _HUGE,
    "system_qubits": st.integers(1, 3) | _HUGE,
    "coupling": st.floats(-2, 2),
    "field": st.floats(-2, 2),
    "mass": st.floats(-1, 2),
    "potential": st.sampled_from(["zero", "constant:0.3", [0, 0.1, 0.2, 0.3], [0, 10**400],
                                  "harmonic:1e999,0", "cubic:1"]),
    "terms": st.sampled_from([_TERMS[:1], [{"support": [0]}], [{"support": [0, 0], "matrix": [[1]]}],
                              [{"support": [0], "matrix": [[1, 10**400], [0, 1]]}],
                              [{"support": [5], "matrix": [[1, 0], [0, 1]]}]]),
    "unitary": st.sampled_from([[[0, 1], [1, 0]], [[1, 1], [0, 1]], [[1, 0], [0, [0, 10**400]]],
                                [[1, 0, 0], [0, 1, 0]]]),
    "m_index": st.integers(0, 4) | _HUGE,
    "time": st.floats(-1, 1) | st.just(1e308),
    "slices": st.sampled_from([1, 2, "exact"]),
    "trials": st.integers(0, 40) | _HUGE,
    "seed": st.integers(0, 2**64 - 1) | _HUGE,
    "power_method": st.sampled_from(["block", "binary_power", "flag_loop", "dense"]),
    "threshold": st.floats(0, 1),
    "guess": st.sampled_from(["plus", "zero", "minus", {"amplitudes": [1, 0, 0, 0]},
                              {"product": [[1, 0], [0, 1]]}, {"amplitudes": [10**400, 0]},
                              {"amplitudes": [1, 1]}, {"product": [1, 0]}]),
    "slice_sweep": st.lists(st.integers(1, 4) | _ODD | _HUGE, max_size=3),
    "out": st.sampled_from(["run", "absent/run", "", "nested/"]),
    "stray": _ODD,
}


@st.composite
def _fuzzed_config(draw):
    """A valid config for a command, then up to four keys dropped, replaced
    or added, each with a value from the key's own range or an odd one."""
    command = draw(st.sampled_from(["solve", "spectrum", "oracle-check", "trotter-bench"]))
    cfg = dict(_PROBLEMS[draw(st.sampled_from(sorted(_PROBLEMS)))], time=0.5, out="run")
    if command == "trotter-bench":
        cfg["slice_sweep"] = [1, 2]
    else:
        cfg.update(m_index=draw(st.integers(1, 4)), trials=draw(st.integers(1, 40)))
    for key in draw(st.lists(st.sampled_from(sorted(_VALUES)), max_size=4, unique=True)):
        action = draw(st.sampled_from(["drop", "replace", "odd"]))
        if action == "drop":
            cfg.pop(key, None)
        elif action == "replace":
            cfg[key] = draw(_VALUES[key])
        else:
            cfg[key] = draw(_ODD if key == "slices" else _ODD | _HUGE)
    return command, cfg


@given(_fuzzed_config())
@settings(max_examples=150)
def test_fuzzed_configs_exit_cleanly(case):
    command, cfg = case
    text = json.dumps(cfg).replace("Infinity", "1e999")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            with open("config.json", "w", encoding="utf-8") as fh:
                fh.write(text)
            with np.errstate(all="ignore"):
                code = cli.main([command, "--config", "config.json"])
            left = sorted(p.name for p in pathlib.Path(workdir).rglob("*"))
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3, 4)
    if code != 0:
        assert left == ["config.json"]
