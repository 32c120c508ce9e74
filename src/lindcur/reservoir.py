"""Reservoir correlation kernels and their one-sided Fourier transforms.

A kernel g is defined for non-negative lags and extended to negative lag
by g(-tau) = conj(g(tau)).  The one-sided transform

    gplus(w) = integral_0^inf exp(i w tau) g(tau) dtau

sets the damping rates (real part) and energy shifts (imaginary part) of
the secular generator.
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .errors import MissingFrequency, OutOfRange, PointwiseUndefined
from .spectral import BohrSpectrum

logger = logging.getLogger(__name__)

RESOLUTION_SAFETY = 20.0


@dataclass(frozen=True)
class Exponential:
    """g(tau) = gamma * exp(-kappa*tau) * exp(-i*omega*tau) for tau >= 0."""

    gamma: float
    kappa: float
    omega: float = 0.0

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")


@dataclass(frozen=True)
class WhiteNoise:
    """Delta-correlated kernel of strength gamma; has no pointwise value."""

    gamma: float

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")


@dataclass(frozen=True)
class Tabulated:
    """Sampled kernel with finite samples on an ascending grid starting at 0.

    Pointwise evaluation interpolates linearly and raises OutOfRange
    beyond the last sample; integral transforms integrate over the samples
    only, i.e. treat the tail as zero.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if t.ndim != 1 or v.shape != t.shape or len(t) < 2:
            raise ValueError("need matching 1-d arrays with at least two samples")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("times and values must be finite")
        if abs(t[0]) > 1e-15:
            raise ValueError("time grid must start at 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("time grid must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


CorrelationKernel = Exponential | WhiteNoise | Tabulated


def evaluate_kernel(k: CorrelationKernel, tau: float) -> complex:
    """Pointwise g(tau), using the Hermitian extension for tau < 0."""
    if isinstance(k, WhiteNoise):
        raise PointwiseUndefined(
            "white noise has no pointwise value; use half_fourier"
        )
    if tau < 0:
        return np.conj(evaluate_kernel(k, -tau))
    if isinstance(k, Exponential):
        return k.gamma * np.exp(-(k.kappa + 1j * k.omega) * tau)
    if tau > k.times[-1]:
        raise OutOfRange(f"tau={tau} beyond last sample {k.times[-1]}")
    re = np.interp(tau, k.times, k.values.real)
    im = np.interp(tau, k.times, k.values.imag)
    return complex(re, im)


def sample_kernel(k: CorrelationKernel, taus: np.ndarray) -> np.ndarray:
    """Vectorized g on a non-negative grid; tabulated tails are zero.

    This is the sampling used by the quadrature routines, which integrate
    over the tabulated range only.
    """
    if isinstance(k, WhiteNoise):
        raise PointwiseUndefined(
            "white noise has no pointwise value; use half_fourier"
        )
    taus = np.asarray(taus, dtype=float)
    if np.any(taus < 0):
        raise ValueError("quadrature grids are non-negative")
    if isinstance(k, Exponential):
        return k.gamma * np.exp(-(k.kappa + 1j * k.omega) * taus)
    re = np.interp(taus, k.times, k.values.real, right=0.0)
    im = np.interp(taus, k.times, k.values.imag, right=0.0)
    return re + 1j * im


def half_fourier(k: CorrelationKernel, omega: float) -> complex:
    """One-sided transform gplus(omega).

    Exponential kernels use the closed form gamma / (kappa + i(Omega - omega));
    white noise is flat at gamma/2 (the half-weight convention for the delta
    at the integration boundary); tabulated kernels are integrated by the
    trapezoid rule over their samples.
    """
    if isinstance(k, Exponential):
        return k.gamma / (k.kappa + 1j * (k.omega - omega))
    if isinstance(k, WhiteNoise):
        return k.gamma / 2.0
    integrand = np.exp(1j * omega * k.times) * k.values
    return complex(np.trapezoid(integrand, k.times))


def decay_rate(k: CorrelationKernel) -> float:
    """Effective decay rate of |g|; sets quadrature resolution bounds.

    For tabulated data this is 1/tau_e with tau_e the first time |g| drops
    below |g(0)|/e (falling back to the last sample time).
    """
    if isinstance(k, Exponential):
        return k.kappa
    if isinstance(k, WhiteNoise):
        return np.inf
    mags = np.abs(k.values)
    if mags[0] == 0:
        return 1.0 / k.times[-1]
    below = np.nonzero(mags < mags[0] / np.e)[0]
    tau_e = k.times[below[0]] if len(below) else k.times[-1]
    return 1.0 / max(tau_e, 1e-300)


@dataclass(frozen=True)
class HalfFourierTable:
    """gplus evaluated on the bins of a BohrSpectrum, at strictly
    increasing frequencies."""

    frequencies: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.frequencies) <= 0):
            raise ValueError("table frequencies must be strictly increasing")

    def value_at(self, omega, tol: float) -> np.ndarray:
        """gplus at each omega, read from the entry nearest to it by the
        spectrum's one nearest rule, as an array of omega's shape.

        Raises MissingFrequency naming the first omega with no entry within
        tol.  The table must not be empty.
        """
        omega = np.asarray(omega, dtype=float)
        k = BohrSpectrum(self.frequencies, tol).nearest(omega)
        missing = np.abs(self.frequencies[k] - omega) > tol
        if np.any(missing):
            first = float(omega[missing].flat[0])
            raise MissingFrequency(f"no table entry within {tol} of omega={first}")
        return self.values[k]


def resolution_bound(k: CorrelationKernel, spectrum: BohrSpectrum) -> float:
    """Coarsest step that resolves both the kernel and the fastest phase.

    min(1/decay_rate, pi/w_max) / RESOLUTION_SAFETY, with w_max the largest
    |w| of the spectrum; the phase term drops out when w_max is 0.
    """
    bound = 1.0 / decay_rate(k)
    w_max = float(np.max(np.abs(spectrum.frequencies))) if len(spectrum) else 0.0
    if w_max > 0:
        bound = min(bound, np.pi / w_max)
    return bound / RESOLUTION_SAFETY


def gplus_table(k: CorrelationKernel, spectrum: BohrSpectrum) -> HalfFourierTable:
    """Tabulate gplus on every bin of the spectrum.

    For tabulated kernels a sampling-coarseness warning is logged when the
    sample spacing exceeds resolution_bound.
    """
    if isinstance(k, Tabulated):
        spacing = float(np.max(np.diff(k.times)))
        bound = resolution_bound(k, spectrum)
        if spacing > bound:
            logger.warning(
                "tabulated kernel sampled at %.3g, coarser than %.3g; "
                "transform accuracy may suffer",
                spacing,
                bound,
            )
    values = np.array([half_fourier(k, w) for w in spectrum.frequencies])
    return HalfFourierTable(frequencies=spectrum.frequencies.copy(), values=values)


def load_tabulated_csv(path) -> Tabulated:
    """Load a sampled kernel from CSV with header columns tau,re_g,im_g.

    Raises ValueError for another header, a row without exactly three
    fields, an entry that is not a number, or samples Tabulated rejects.
    """
    times, re, im = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        expected = ["tau", "re_g", "im_g"]
        if reader.fieldnames != expected:
            raise ValueError(
                f"expected header {','.join(expected)}, got {reader.fieldnames}"
            )
        for row in reader:
            # DictReader fills a short row with None values and keys the
            # surplus of a long one by None
            if None in row or None in row.values():
                raise ValueError(f"line {reader.line_num}: expected 3 fields")
            times.append(float(row["tau"]))
            re.append(float(row["re_g"]))
            im.append(float(row["im_g"]))
    return Tabulated(times=np.array(times), values=np.array(re) + 1j * np.array(im))
