"""Independent reference for the secular dynamics, used by the output gate.

This module re-derives the documented physics with plain numpy/scipy and
imports nothing from lindcur, so a refactor of the program cannot move the
reference along with it.  For a chain with Hamiltonian H and coupling V the
secular generator acts on site-basis states as

    L(rho) = -i [H, rho]
             + sum_w g_w (V_w^dag rho V_w - V_w V_w^dag rho)
             + conj(g_w) (V_w^dag rho V_w - rho V_w V_w^dag)

with V_w the part of V whose energy-basis entries (n, m) have
E_n - E_m in the Bohr bin w, and g_w = gamma / (kappa - i w) the one-sided
transform of the exponential kernel gamma exp(-kappa tau).  Matrices act on
column-stacked states, so A rho B becomes kron(B^T, A).
"""
from __future__ import annotations

import numpy as np
import scipy.linalg


def chain_operators(potential, coupling, hopping=1.0):
    """Site-basis H and V of an open chain."""
    n = len(potential)
    h = np.diag(np.asarray(potential, dtype=complex))
    idx = np.arange(n - 1)
    h[idx, idx + 1] = -hopping
    h[idx + 1, idx] = -hopping
    return h, np.diag(np.asarray(coupling, dtype=complex))


def bohr_bins(energies, rel_tol=1e-9):
    """Label every pair (n, m) with its Bohr bin; return (labels, centers).

    Differences closer than rel_tol * max(1, |E|max) share a bin.
    """
    tol = rel_tol * max(1.0, float(np.max(np.abs(energies))))
    diffs = (energies[:, None] - energies[None, :]).ravel()
    order = np.argsort(diffs, kind="stable")
    starts = np.concatenate(([True], np.diff(diffs[order]) > tol))
    sorted_labels = np.cumsum(starts) - 1
    labels = np.empty_like(sorted_labels)
    labels[order] = sorted_labels
    centers = np.bincount(labels, weights=diffs) / np.bincount(labels)
    return labels.reshape(energies.shape * 2), centers


def generator(h, v, gamma, kappa):
    """Dense secular generator matrix on column-stacked states."""
    n = h.shape[0]
    energies, basis = np.linalg.eigh(h)
    labels, centers = bohr_bins(energies)
    v_en = basis.conj().T @ v @ basis
    rates = gamma / (kappa - 1j * centers)
    # per-bin site-basis components V_w and their products V_w V_w^dag
    masks = labels[None, :, :] == np.arange(len(centers))[:, None, None]
    comps = basis[None] @ np.where(masks, v_en[None], 0.0) @ basis.conj().T[None]
    comps_dag = comps.conj().transpose(0, 2, 1)
    vvd = comps @ comps_dag
    jump = np.einsum(
        "k,kji,klm->iljm", 2.0 * rates.real, comps, comps_dag, optimize=True
    ).reshape(n * n, n * n)
    ident = np.eye(n)
    left = np.einsum("k,kij->ij", rates, vvd)
    right = np.einsum("k,kij->ij", rates.conj(), vvd)
    return (
        -1j * (np.kron(ident, h) - np.kron(h.T, ident))
        + jump
        - np.kron(ident, left)
        - np.kron(right.T, ident)
    )


def propagate(m, rho0, n_steps, h):
    """States rho(k h), k = 0..n_steps, by the exact one-step propagator."""
    n = rho0.shape[0]
    step = scipy.linalg.expm(m * h)
    out = np.empty((n_steps + 1, n * n), dtype=complex)
    out[0] = rho0.reshape(-1, order="F")
    for k in range(n_steps):
        out[k + 1] = step @ out[k]
    return out.reshape(n_steps + 1, n, n).transpose(0, 2, 1)


def stationary(m):
    """Unit-trace Hermitian null vector of the generator."""
    n = int(round(np.sqrt(m.shape[0])))
    _, _, vh = np.linalg.svd(m)
    rho = vh[-1].conj().reshape(n, n, order="F")
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def observables(m, h, states, hopping=1.0):
    """Per-state table columns the CLI writes, from the reference generator.

    Returns a dict of (T, N) site arrays n, dn_dt, lstar_n and (T, N-1)
    bond arrays j_ham, j_diss.  The source of site r is the dissipative
    part of d rho_rr / dt; the correction current of bond b is minus the
    running sum of the sources over sites 0..b.
    """
    t, n, _ = states.shape
    vecs = states.transpose(0, 2, 1).reshape(t, n * n)
    coherent = -1j * (np.kron(np.eye(n), h) - np.kron(h.T, np.eye(n)))
    diag = np.arange(n) * (n + 1)
    dn_dt = (vecs @ m.T)[:, diag].real
    lstar = (vecs @ (m - coherent).T)[:, diag].real
    b = np.arange(n - 1)
    j_ham = -2.0 * hopping * states[:, b, b + 1].imag
    return {
        "n": np.real(states[:, np.arange(n), np.arange(n)]),
        "dn_dt": dn_dt,
        "lstar_n": lstar,
        "j_ham": j_ham,
        "j_diss": -np.cumsum(lstar, axis=1)[:, :-1],
    }
