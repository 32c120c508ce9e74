import ast
import logging

import numpy as np
import pytest

from lindcur import (
    EigenSystem,
    Exponential,
    HalfFourierTable,
    MissingFrequency,
    OutOfRange,
    PointwiseUndefined,
    PositivityViolation,
    Tabulated,
    WhiteNoise,
    bohr_frequencies,
    build_generator,
    decompose,
    evaluate_kernel,
    gplus_table,
    half_fourier,
    load_tabulated_csv,
)
from lindcur.reservoir import decay_rate, sample_kernel


def _tabulate(kernel, t_max, n):
    taus = np.linspace(0.0, t_max, n)
    return Tabulated(times=taus, values=sample_kernel(kernel, taus))


def test_exponential_at_zero_lag():
    assert evaluate_kernel(Exponential(1.0, 2.0, 0.0), 0.0) == pytest.approx(1.0)


def test_negative_lag_is_conjugate():
    k = Exponential(1.0, 2.0, 3.0)
    assert evaluate_kernel(k, -0.5) == pytest.approx(np.conj(evaluate_kernel(k, 0.5)))
    tab = _tabulate(k, 2.0, 101)
    assert evaluate_kernel(tab, -0.3) == pytest.approx(
        np.conj(evaluate_kernel(tab, 0.3)), abs=1e-12
    )


def test_white_noise_has_no_pointwise_value():
    with pytest.raises(PointwiseUndefined):
        evaluate_kernel(WhiteNoise(0.4), 0.1)
    with pytest.raises(PointwiseUndefined):
        sample_kernel(WhiteNoise(0.4), np.linspace(0.0, 1.0, 5))


def test_tabulated_interpolates_and_bounds():
    tab = _tabulate(Exponential(1.0, 1.0, 0.0), 2.0, 21)
    assert evaluate_kernel(tab, 0.25) == pytest.approx(np.exp(-0.25), abs=1e-3)
    with pytest.raises(OutOfRange):
        evaluate_kernel(tab, 2.5)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        Tabulated(times=np.array([0.0, 1.0, 1.0]), values=np.zeros(3))
    with pytest.raises(ValueError):
        Tabulated(times=np.array([0.5, 1.0]), values=np.zeros(2))
    with pytest.raises(ValueError):
        Tabulated(times=np.array([0.0]), values=np.zeros(1))


def test_sample_kernel_tail_and_grid():
    tab = _tabulate(Exponential(1.0, 1.0, 0.0), 1.0, 11)
    vals = sample_kernel(tab, np.array([0.5, 5.0]))
    assert vals[1] == 0.0  # beyond the samples the transform tail is zero
    with pytest.raises(ValueError):
        sample_kernel(tab, np.array([-0.1, 0.5]))


def test_half_fourier_closed_forms():
    assert half_fourier(Exponential(1.0, 2.0, 0.0), 0.0) == pytest.approx(0.5)
    assert half_fourier(WhiteNoise(0.4), 3.7) == pytest.approx(0.2)
    assert half_fourier(Exponential(1.0, 1.0, 0.0), 1.0) == pytest.approx(0.5 + 0.5j)


def test_half_fourier_conjugate_symmetry():
    k = Exponential(0.7, 1.3, 2.0)
    for w in (-2.0, 0.0, 0.9, 4.0):
        assert np.conj(half_fourier(k, w)) == pytest.approx(
            k.gamma / (k.kappa - 1j * (k.omega - w))
        )


def test_half_fourier_quadrature_matches_closed_form():
    k = Exponential(1.0, 1.0, 0.0)
    tab = _tabulate(k, 40.0, 40001)
    for w in (0.0, 1.0, -2.3):
        assert half_fourier(tab, w) == pytest.approx(half_fourier(k, w), abs=1e-6)


def test_decay_rates():
    assert decay_rate(Exponential(1.0, 2.0, 0.0)) == pytest.approx(2.0)
    assert decay_rate(WhiteNoise(1.0)) == np.inf
    tab = _tabulate(Exponential(1.0, 1.0, 0.0), 5.0, 5001)
    assert decay_rate(tab) == pytest.approx(1.0, rel=1e-2)


def test_gplus_table_roundtrip(ref4):
    table = ref4.gplus
    tol = ref4.spectrum.bin_tolerance
    for w in ref4.spectrum.frequencies:
        assert table.value_at(w, tol) == pytest.approx(half_fourier(ref4.kernel, w))
    with pytest.raises(MissingFrequency):
        table.value_at(0.5, tol)
    w = ref4.spectrum.frequencies
    picks = w[[[2, 0], [len(w) - 1, 2]]]
    np.testing.assert_array_equal(
        table.value_at(picks, tol), [[table.value_at(x, tol) for x in row] for row in picks]
    )
    with pytest.raises(MissingFrequency, match=r"omega=0\.5$"):
        table.value_at([w[0], 0.5, w[1], 0.7], tol)
    with pytest.raises(ValueError, match="strictly increasing"):
        HalfFourierTable(frequencies=w[::-1].copy(), values=table.values[::-1].copy())


def test_gplus_table_warns_on_coarse_sampling(ref4, caplog):
    coarse = _tabulate(Exponential(1.0, 1.0, 0.0), 10.0, 12)
    with caplog.at_level(logging.WARNING):
        gplus_table(coarse, ref4.spectrum)
    assert any("coarser" in rec.message for rec in caplog.records)


def test_positivity_clean_for_exponential(ref4):
    """The generator's damping-rate screen passes an exponential bath."""
    rates = 2.0 * ref4.gplus.values.real
    np.testing.assert_allclose(
        rates,
        [2.0 * half_fourier(ref4.kernel, w).real for w in ref4.spectrum.frequencies],
        atol=1e-14,
    )
    assert np.all(rates >= -1e-10)
    build_generator(decompose(ref4.ops.v, ref4.eig, ref4.spectrum), ref4.gplus, ref4.eig)


def test_positivity_flags_truncated_oscillatory_kernel():
    """Hard truncation of a fast-oscillating kernel drives 2 Re gplus negative,
    which build_generator refuses, naming the offending bins."""
    taus = np.linspace(0.0, 1.2, 400)
    tab = Tabulated(times=taus, values=np.exp(-taus) * np.cos(10.0 * taus))
    eig = EigenSystem(energies=np.array([-3.0, 3.0]), basis=np.eye(2, dtype=complex))
    spectrum = bohr_frequencies(eig, 1e-9)
    V = decompose(np.array([[1.0, 1.0], [1.0, -1.0]]), eig, spectrum)
    with pytest.raises(PositivityViolation) as raised:
        build_generator(V, gplus_table(tab, spectrum), eig)
    flagged = ast.literal_eval(str(raised.value).split("frequencies ", 1)[1])
    np.testing.assert_allclose(np.sort(flagged), [-6.0, 0.0, 6.0], atol=1e-9)


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "kernel.csv"
    taus = np.linspace(0.0, 2.0, 9)
    vals = np.exp(-(1.0 + 0.5j) * taus)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("tau,re_g,im_g\n")
        for t, v in zip(taus, vals):
            fh.write(f"{float(t)!r},{float(v.real)!r},{float(v.imag)!r}\n")
    tab = load_tabulated_csv(path)
    np.testing.assert_allclose(tab.times, taus, atol=1e-15)
    np.testing.assert_allclose(tab.values, vals, atol=1e-15)


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,re,im\n0.0,1.0,0.0\n1.0,0.5,0.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_tabulated_csv(path)


def test_kernel_parameter_validation():
    with pytest.raises(ValueError):
        Exponential(-1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        Exponential(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        WhiteNoise(-0.1)
