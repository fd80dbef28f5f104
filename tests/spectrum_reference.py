"""A block's spectrum by eigensolve, as ``SpectralBlock.eigenvalues`` reported
it before its closed form: LAPACK ``eigvals`` of J*H, a snap at 1e-10 of the
spectral scale and a sort by (Re, Im).  The oracle that the closed form
agrees with as a set, kept verbatim, with the pairing oracle that checks it."""

from __future__ import annotations

import math
from functools import cache
from itertools import permutations

import numpy as np


@cache
def standard_symplectic_form(dim: int) -> np.ndarray:
    """J on coordinates (x_1..x_n, y_1..y_n), read-only."""
    if dim % 2:
        raise ValueError("dimension must be even")
    n = dim // 2
    J = np.zeros((dim, dim))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    J.flags.writeable = False
    return J


def generic_block_spectrum(coeff: np.ndarray) -> list[complex]:
    """Frequencies of the quadratic Hamiltonian with Hessian ``coeff``.

    Eigenvalues mu of J*coeff come in (mu, -mu) pairs; the frequencies are
    Lambda = i*mu, one representative per pair, chosen with Re > 0 (or
    Im >= 0 on the imaginary axis) and sorted by (real, imaginary) part.
    Parts below 1e-10 of the spectral scale are snapped to zero; the
    snapped values then pair up as (Lambda, -Lambda) across the middle of
    their (real, imaginary) order, so the upper half is the representatives.
    A defective repeated eigenvalue that the eigensolver splits past the
    snap can break that pairing.
    """
    coeff = np.asarray(coeff, dtype=float)
    if coeff.ndim != 2 or coeff.shape[0] != coeff.shape[1] or coeff.shape[0] % 2:
        raise ValueError("coeff must be square with even dimension")
    mu = np.linalg.eigvals(standard_symplectic_form(coeff.shape[0]) @ coeff)
    lam = 1j * mu
    scale = max(1.0, float(np.max(np.abs(lam))))
    tol = 1e-10 * scale

    def snap(z: complex) -> complex:
        re = 0.0 if abs(z.real) < tol else z.real
        im = 0.0 if abs(z.imag) < tol else z.imag
        return complex(re, im)

    vals = sorted((snap(z) for z in lam), key=lambda z: (z.real, z.imag))
    return vals[coeff.shape[0] // 2:]


def nearest_partner_spectrum(coeff: np.ndarray) -> list[complex]:
    """The oracle for ``generic_block_spectrum``: the same eigensolve and
    snap, then each value in (re, im) order takes the closest unused value
    to its negative as partner, and the larger of the two in (re, im) order
    represents the pair."""
    mu = np.linalg.eigvals(standard_symplectic_form(coeff.shape[0]) @ coeff)
    lam = 1j * mu
    tol = 1e-10 * max(1.0, float(np.max(np.abs(lam))))

    def snap(z: complex) -> complex:
        return complex(0.0 if abs(z.real) < tol else z.real,
                       0.0 if abs(z.imag) < tol else z.imag)

    vals = sorted((snap(z) for z in lam), key=lambda z: (z.real, z.imag))
    picked = []
    used = [False] * len(vals)
    for i in range(len(vals)):
        if used[i]:
            continue
        used[i] = True
        target = -vals[i]
        j_best, d_best = -1, math.inf
        for j in range(i + 1, len(vals)):
            if not used[j]:
                d = abs(vals[j] - target)
                if d < d_best:
                    j_best, d_best = j, d
        used[j_best] = True
        picked.append(max(vals[i], vals[j_best], key=lambda z: (z.real, z.imag)))
    return sorted(picked, key=lambda z: (z.real, z.imag))


def spectrum_deviation(got, coeff: np.ndarray) -> float:
    """How far the spectrum ``got`` is from ``generic_block_spectrum`` of
    ``coeff`` as a set, relative to the spectral scale max(1, max|Lambda|):
    the largest distance under the best matching of the two lists; inf when
    their lengths differ."""
    want = generic_block_spectrum(coeff)
    if len(got) != len(want):
        return math.inf
    scale = max(1.0, *(abs(z) for z in (*got, *want)))
    return min(max(abs(z - w) for z, w in zip(got, perm))
               for perm in permutations(want)) / scale
