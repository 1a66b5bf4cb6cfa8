"""Count simulation, reconstruction, and I/O for the tomography loop."""

import csv
import json
import math
import warnings

import numpy as np
import pytest

from bellghz import tomo
from bellghz.analysis import AXES, PAULI, biseparable_bound, fidelity, pairwise_witness
from bellghz.family import state_at
from bellghz.imperfections import NoiseConfig, noisy_density_matrix
from bellghz.tomo import (
    CountRecord,
    DensityMatrix,
    OUTCOMES,
    RECONSTRUCTION_METHODS,
    SETTINGS,
    exact_frequency_records,
    read_counts,
    reconstruct,
    reconstruct_and_report,
    setting_probabilities,
    simulate_counts,
    write_counts,
)


def test_setting_enumeration():
    assert len(SETTINGS) == 81
    assert len(set(SETTINGS)) == 81
    assert SETTINGS[0] == "xxxx"
    assert SETTINGS[-1] == "zzzz"
    assert list(SETTINGS) == sorted(SETTINGS)
    assert OUTCOMES[0] == "++++"
    assert OUTCOMES[-1] == "----"


def test_setting_and_pauli_tables_equal_the_kron_and_einsum_constructions():
    def setting_bra(setting):
        b = tomo._BRAS[setting[0]]
        for letter in setting[1:]:
            b = np.kron(b, tomo._BRAS[letter])
        return b

    assert list(tomo._SETTING_BRAS) == list(SETTINGS)
    for s in SETTINGS:
        bra = setting_bra(s)
        assert (tomo._SETTING_BRAS[s].dtype, tomo._SETTING_BRAS[s].shape) == (bra.dtype, bra.shape)
        assert tomo._SETTING_BRAS[s].tobytes() == bra.tobytes()
    stack = np.stack([PAULI[a] for a in AXES])
    sigma = np.einsum("aij,bkl,cmn,dop->abcdikmojlnp", stack, stack, stack, stack)
    sigma = sigma.reshape(256, 16, 16)
    assert (tomo._SIGMA.dtype, tomo._SIGMA.shape) == (sigma.dtype, sigma.shape)
    assert tomo._SIGMA.tobytes() == sigma.tobytes()
    term_of = np.array([
        sum(AXES.index(s[k]) << 2 * (3 - k) for k in range(4) if mask & (1 << (3 - k)))
        for s in SETTINGS for mask in range(16)
    ])
    assert (tomo._TERM_OF.dtype, tomo._TERM_OF.shape) == (term_of.dtype, term_of.shape)
    assert tomo._TERM_OF.tobytes() == term_of.tobytes()
    signs = np.array([[1 - 2 * ((o >> (3 - k)) & 1) for k in range(4)] for o in range(16)])
    subset_signs = np.array([
        [math.prod(signs[o, k] for k in range(4) if mask & (1 << (3 - k))) for o in range(16)]
        for mask in range(16)
    ], dtype=float)
    assert tomo._SUBSET_SIGNS.tobytes() == subset_signs.tobytes()


def test_ghz_zbasis_probabilities():
    probs = setting_probabilities(state_at(math.pi / 8).state, "zzzz")
    expected = np.zeros(16)
    expected[OUTCOMES.index("++--")] = 0.5
    expected[OUTCOMES.index("--++")] = 0.5
    np.testing.assert_allclose(probs, expected, atol=1e-12)


def test_bell_product_zbasis_probabilities():
    probs = setting_probabilities(state_at(0.0).state, "zzzz")
    expected = np.zeros(16)
    for outcome in ("+-+-", "+--+", "-++-", "-+-+"):
        expected[OUTCOMES.index(outcome)] = 0.25
    np.testing.assert_allclose(probs, expected, atol=1e-12)


def test_probabilities_sum_to_one():
    state = state_at(0.17).state
    for setting in ("xxxx", "xzyz", "yyyy", "zzzz"):
        assert setting_probabilities(state, setting).sum() == pytest.approx(1.0)


def test_count_record_validation():
    with pytest.raises(ValueError, match="unknown setting"):
        CountRecord("aaaa", (0,) * 16, 10.0)
    with pytest.raises(ValueError, match="16 outcomes"):
        CountRecord("zzzz", (1, 2, 3), 10.0)
    with pytest.raises(ValueError, match="non-negative"):
        CountRecord("zzzz", (-1,) + (0,) * 15, 10.0)
    with pytest.raises(ValueError, match="positive"):
        CountRecord("zzzz", (0,) * 16, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            CountRecord("zzzz", (bad,) + (1,) * 15, 10.0)
        with pytest.raises(ValueError, match="finite"):
            CountRecord("zzzz", (1,) * 16, bad)


def test_simulate_counts_deterministic():
    state = state_at(math.pi / 12).state
    a = simulate_counts(state, 500, seed=3)
    b = simulate_counts(state, 500, seed=3)
    assert a == b
    c = simulate_counts(state, 500, seed=4)
    assert a != c
    with pytest.raises(ValueError, match="at least 1"):
        simulate_counts(state, 0.5, seed=1)


@pytest.mark.parametrize("shots", [math.nan, math.inf, 1e300, 10**30])
def test_simulate_counts_rejects_shots_numpy_cannot_sample(shots):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="shots_per_setting"):
            simulate_counts(state_at(0.1).state, shots, seed=1)


@pytest.mark.parametrize("shots", [True, "500", None, 500 + 0j])
def test_simulate_counts_rejects_shots_that_are_not_real_numbers(shots):
    with pytest.raises(ValueError, match="shots_per_setting"):
        simulate_counts(state_at(0.1).state, shots, seed=1)


@pytest.mark.parametrize("seed", [-1, 1.5, 3.0, True, "3", None])
def test_simulate_counts_rejects_bad_seeds(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        simulate_counts(state_at(0.1).state, 500, seed=seed)


def test_simulate_counts_takes_numpy_integers():
    state = state_at(0.1).state
    want = simulate_counts(state, 500, seed=3)
    assert simulate_counts(state, np.int64(500), seed=np.int64(3)) == want


def test_simulate_counts_accepts_the_largest_shots():
    records = simulate_counts(state_at(0.0).state, tomo.MAX_SHOTS_PER_SETTING, seed=1)
    assert all(r.shots == 1e18 for r in records)


@pytest.mark.parametrize("setting", ["xxxq", "XXXX", "xxx", ""])
def test_setting_probabilities_rejects_unknown_settings(setting):
    with pytest.raises(ValueError, match="unknown setting"):
        setting_probabilities(state_at(0.1).state, setting)


@pytest.mark.parametrize(
    "shots", [-1, 0, 0.0, math.nan, math.inf, -math.inf, 10**400, "2", True, None]
)
def test_exact_frequency_records_rejects_bad_shots(shots):
    with pytest.raises(ValueError, match="^shots must be a finite real number above 0"):
        exact_frequency_records(state_at(0.1).state, shots)


def test_exact_frequency_records_takes_any_real_shots():
    rho = state_at(0.1).state
    floats = exact_frequency_records(rho, 7.0)
    for shots in (7, np.int64(7), np.float64(7.0)):
        assert exact_frequency_records(rho, shots) == floats


def test_simulated_frequencies_track_probabilities():
    state = state_at(0.1).state
    rec = simulate_counts(state, 200_000, seed=11)[SETTINGS.index("zzzz")]
    freqs = np.array(rec.counts) / sum(rec.counts)
    probs = setting_probabilities(state, "zzzz")
    np.testing.assert_allclose(freqs, probs, atol=0.01)


@pytest.mark.parametrize("gamma", [0.0, 0.07 * math.pi, math.pi / 8])
def test_linear_inversion_round_trip(gamma):
    state = state_at(gamma).state
    records = exact_frequency_records(state)
    dm = reconstruct(records, method="linear-inversion")
    assert np.linalg.norm(dm.matrix - state.density()) <= 1e-12


def test_round_trip_white_noise_fidelity():
    ghz = state_at(math.pi / 8).state
    rho = 0.8 * ghz.density() + 0.2 * np.eye(16) / 16
    dm = reconstruct(exact_frequency_records(rho), method="linear-inversion")
    assert fidelity(dm, math.pi / 8) == pytest.approx(0.8125, abs=1e-12)


def test_physical_projection_noop_on_physical_input():
    state = state_at(0.2).state
    records = exact_frequency_records(state)
    linear = reconstruct(records, method="linear-inversion")
    physical = reconstruct(records, method="physical-projection")
    assert np.linalg.norm(linear.matrix - physical.matrix) <= 1e-10


def test_physical_projection_properties():
    state = state_at(math.pi / 8).state
    records = simulate_counts(state, 200, seed=5)  # starved: negativity likely
    linear = reconstruct(records, method="linear-inversion")
    physical = reconstruct(records, method="physical-projection")
    vals = physical.eigenvalues()
    assert vals.min() >= -1e-12
    assert physical.matrix.trace().real == pytest.approx(1.0, abs=1e-12)
    negative_mass = -linear.eigenvalues().clip(max=0.0).sum()
    assert negative_mass > 0  # otherwise this test exercises nothing
    drop = fidelity(linear, math.pi / 8) - fidelity(physical, math.pi / 8)
    assert drop <= negative_mass + 1e-12


def test_reconstruct_validates_input():
    records = exact_frequency_records(state_at(0.0).state)
    with pytest.raises(ValueError, match="missing"):
        reconstruct(records[:-1])
    with pytest.raises(ValueError, match="duplicate"):
        reconstruct(records + [records[0]])
    with pytest.raises(ValueError, match="method"):
        reconstruct(records, method="maximum-likelihood")
    starved = records.copy()
    starved[3] = CountRecord(records[3].setting, (0.0,) * 16, records[3].shots)
    with pytest.raises(ValueError, match="all-zero"):
        reconstruct(starved)


def test_high_shot_fidelity_ghz():
    records = simulate_counts(state_at(math.pi / 8).state, 100_000, seed=1)
    dm = reconstruct(records, method="physical-projection")
    assert fidelity(dm, math.pi / 8) >= 0.99


def test_estimator_consistency_in_shots():
    state = state_at(math.pi / 8).state
    truth = state.density()

    def median_error(shots):
        errs = []
        for seed in range(1, 21):
            dm = reconstruct(simulate_counts(state, shots, seed), "linear-inversion")
            errs.append(np.linalg.norm(dm.matrix - truth))
        return float(np.median(errs))

    assert median_error(1_000_000) < median_error(10_000)


def test_counts_csv_round_trip(tmp_path):
    records = simulate_counts(state_at(0.1).state, 300, seed=9)
    path = tmp_path / "counts.csv"
    write_counts(records, path)
    text = path.read_text()
    assert text.startswith("setting,outcome,count\n")
    assert "\r" not in text
    back = read_counts(path)
    assert [r.setting for r in back] == list(SETTINGS)
    for orig, readback in zip(records, back):
        assert tuple(readback.counts) == tuple(float(c) for c in orig.counts)
    direct = reconstruct(records)
    indirect = reconstruct(back)
    assert np.linalg.norm(direct.matrix - indirect.matrix) <= 1e-12


def test_counts_csv_exact_frequencies_round_trip(tmp_path):
    records = exact_frequency_records(state_at(0.07).state, shots=1000.0)
    path = tmp_path / "exact.csv"
    write_counts(records, path)
    back = read_counts(path)
    a = reconstruct(records)
    b = reconstruct(back)
    assert np.linalg.norm(a.matrix - b.matrix) <= 1e-9  # 12 digits in the file


def test_read_counts_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("setting,outcome\n")
    with pytest.raises(ValueError, match="header"):
        read_counts(bad)
    bad.write_text("setting,outcome,count\nqqqq,++++,3\n")
    with pytest.raises(ValueError, match="unknown setting"):
        read_counts(bad)
    bad.write_text("setting,outcome,count\nzzzz,+*++,3\n")
    with pytest.raises(ValueError, match="unknown outcome"):
        read_counts(bad)
    bad.write_text("setting,outcome,count\nzzzz,++++,3,7\n")
    with pytest.raises(ValueError, match="malformed"):
        read_counts(bad)
    bad.write_text("setting,outcome,count\nzzzz,++++,0\n")
    with pytest.raises(ValueError, match="all-zero"):
        read_counts(bad)
    bad.write_text("setting,outcome,count\nzzzz,++++,3\nzzzz,+++-,nan\n")
    with pytest.raises(ValueError, match="finite"):
        read_counts(bad)


def write_counts_by_csv_writer(records, path):
    """The csv.writer dump that ``write_counts`` replaced, kept as its oracle."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["setting", "outcome", "count"])
        for rec in records:
            for outcome, count in zip(OUTCOMES, rec.counts):
                as_int = int(count)
                writer.writerow(
                    [rec.setting, outcome, as_int if as_int == count else f"{count:.12g}"]
                )


def read_counts_by_arrays(path):
    """The per-setting numpy accumulation that ``read_counts`` replaced, kept as its oracle."""
    table = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["setting", "outcome", "count"]:
            raise ValueError("expected header setting,outcome,count")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"malformed row: {row!r}")
            setting, outcome, count = row
            if setting not in SETTINGS:
                raise ValueError(f"unknown setting {setting!r}")
            if outcome not in OUTCOMES:
                raise ValueError(f"unknown outcome {outcome!r}")
            table.setdefault(setting, np.zeros(16))
            table[setting][OUTCOMES.index(outcome)] += float(count)
    records = []
    for setting in SETTINGS:
        if setting in table:
            counts = table[setting]
            if counts.sum() <= 0:
                raise ValueError(f"setting {setting!r} has all-zero counts")
            records.append(CountRecord(setting, tuple(counts), float(counts.sum())))
    return records


def record_bits(records):
    return [(r.setting, [float(c).hex() for c in r.counts], float(r.shots).hex())
            for r in records]


def counts_campaigns():
    rng = np.random.default_rng(8)
    for k in range(6):
        g, q = rng.uniform(0, math.pi / 4), rng.uniform(0, 0.1)
        rho = noisy_density_matrix(g, NoiseConfig(depolarizing_q=q))
        yield simulate_counts(rho, 100_000, seed=k)
        yield exact_frequency_records(rho, shots=[1.0, 1000.0, 12345.6789][k % 3])


def test_counts_csv_equals_the_csv_writer_and_array_oracles(tmp_path):
    for records in counts_campaigns():
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_counts(records, new)
        write_counts_by_csv_writer(records, old)
        assert new.read_bytes() == old.read_bytes()
        assert record_bits(read_counts(new)) == record_bits(read_counts_by_arrays(new))


@pytest.mark.parametrize("body", [
    "zzzz,++++,3\n\nzzzz,++++,0.1\nxyzx,-+-+,7.25\nxxxx,----,1e-3\nzzzz,---+,2\n",
    '"zzzz","++++","5"\nzzzz,++++,-2\n',
    "",
    "zzzz,++++,3\nqqqq,++++,3\nzzzz,+*++,3\n",
    "zzzz,+*++,3\nqqqq,++++,3\n",
    "zzzz,++++,x\nqqqq,++++,3\n",
    "zzzz,++++,3,7\nqqqq,++++,3\n",
    "xxxx,++++,0\nzzzz,++++,nan\n",
    "xxxx,++++,nan\nzzzz,++++,0\n",
    "xxxx,++++,1\nxxxx,++++,-1\n",
])
def test_read_counts_matches_the_array_oracle_result_or_error(tmp_path, body):
    path = tmp_path / "counts.csv"
    path.write_text("setting,outcome,count\n" + body)
    try:
        want = record_bits(read_counts_by_arrays(path))
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            read_counts(path)
        assert str(got.value) == str(exc)
    else:
        assert record_bits(read_counts(path)) == want


def test_density_matrix_json_round_trip():
    dm = reconstruct(exact_frequency_records(state_at(0.3).state))
    again = DensityMatrix.from_json(dm.to_json())
    np.testing.assert_array_equal(dm.matrix, again.matrix)
    with pytest.raises(ValueError, match="real"):
        DensityMatrix.from_json('{"real": []}')


@pytest.mark.parametrize(
    "entry", ['"x"', "null", "RAGGED", '{"re": 0}', "false", "[0]"]
)
def test_density_matrix_json_rejects_non_numbers(entry):
    # one off-diagonal zero of the maximally mixed state replaced by the entry
    rows = [["0.0625" if i == j else "0" for j in range(16)] for i in range(16)]
    if entry == "RAGGED":
        del rows[3][5]
    else:
        rows[0][1] = entry
    real = "[" + ",".join("[" + ",".join(row) + "]" for row in rows) + "]"
    imag = json.dumps(np.zeros((16, 16)).tolist())
    with pytest.raises(ValueError, match="matrices of numbers"):
        DensityMatrix.from_json(f'{{"real": {real}, "imag": {imag}}}')
    with pytest.raises(ValueError, match="matrices of numbers"):
        DensityMatrix.from_json(f'{{"real": {imag}, "imag": [[0]]}}')


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="16x16"):
        DensityMatrix(np.eye(4))
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.eye(16) / 16 + 0.001j * np.eye(16))
    with pytest.raises(ValueError, match="unit trace"):
        DensityMatrix(np.eye(16))
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix(np.full((16, 16), np.nan))
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix(np.eye(16) / 16 + np.diag([np.inf] + [0.0] * 15))


def test_density_matrix_owns_a_frozen_copy():
    source = np.eye(16, dtype=complex) / 16
    dm = DensityMatrix(source)
    source[0, 0] = 1.0
    assert dm.matrix[0, 0] == 1 / 16
    assert not dm.matrix.flags.writeable


def test_random_count_tables_reconstruct_or_raise():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # a random table of small counts with a few cells overwritten by any float
    value = st.sampled_from([math.nan, math.inf, -1.0, 0.0]) | st.floats()
    cell = st.tuples(st.integers(0, 80), st.integers(0, 15), value)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 1000),
        st.lists(cell, max_size=8),
        st.sampled_from(RECONSTRUCTION_METHODS),
    )
    def check(seed, high, cells, method):
        rows = np.random.default_rng(seed).integers(0, high, size=(81, 16)).tolist()
        for s, o, value in cells:
            rows[s][o] = value
        try:
            records = [CountRecord(s, tuple(r), 1.0) for s, r in zip(SETTINGS, rows)]
            mat = reconstruct(records, method=method).matrix
        except ValueError:
            return
        assert np.isfinite(mat).all()
        assert np.abs(mat - mat.conj().T).max() <= 1e-9
        assert abs(mat.trace() - 1.0) <= 1e-9

    check()


def test_reconstruct_and_report_ideal():
    report, dm = reconstruct_and_report(math.pi / 8, NoiseConfig(), shots=None)
    assert report.fidelity == pytest.approx(1.0, abs=1e-12)
    assert report.c == pytest.approx(0.5)
    assert report.witness_value == pytest.approx(-0.5, abs=1e-12)
    assert report.detected
    assert np.linalg.norm(dm.matrix - state_at(math.pi / 8).state.density()) <= 1e-10


def test_reconstruct_and_report_depolarized_endpoints():
    # white-noise fraction tuned to land near the strongest reported fidelity
    report, _ = reconstruct_and_report(math.pi / 4, NoiseConfig(depolarizing_q=0.07),
                                       shots=None)
    assert report.fidelity == pytest.approx(1 - 0.07 * 15 / 16, abs=1e-12)
    assert report.detected
    # and near the weakest: q giving F about 0.809 still beats c = 2/3
    report, _ = reconstruct_and_report(math.pi / 12,
                                       NoiseConfig(depolarizing_q=0.2037), shots=None)
    assert report.fidelity == pytest.approx(0.809, abs=1e-3)
    assert report.c == pytest.approx(biseparable_bound(math.pi / 12))
    assert report.detected


def test_too_few_sampled_shots_is_a_numeric_failure(tmp_path):
    with pytest.raises(RuntimeError, match="more shots are needed"):
        reconstruct_and_report(0.1, NoiseConfig(), shots=1, seed=0)
    # the same counts handed in by the caller are bad input
    records = simulate_counts(state_at(0.1).state, 1, seed=0)
    with pytest.raises(ValueError, match="all-zero"):
        reconstruct(records)
    write_counts(records, tmp_path / "counts.csv")
    with pytest.raises(ValueError, match="all-zero"):
        read_counts(tmp_path / "counts.csv")


def test_reconstruct_and_report_sampled():
    report, dm = reconstruct_and_report(0.0, NoiseConfig(), shots=100_000, seed=1)
    assert report.fidelity >= 0.99
    front, back = pairwise_witness(dm)
    assert front == pytest.approx(-0.5, abs=0.01)
    assert back == pytest.approx(-0.5, abs=0.01)
