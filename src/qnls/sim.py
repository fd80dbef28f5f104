"""Pseudospectral split-step simulation of the truncated quintic NLS
i u_t + u_xx = |u|^4 u on the circle, with conserved-quantity tracking and
exponential-growth-rate fitting for torus stability experiments.

Normalization: mass = sum |a_j|^2, momentum = sum j |a_j|^2,
energy = sum j^2 |a_j|^2 + (1/3) * mean_x |u|^6, so a single mode a_j = c has
mass |c|^2 and energy j^2 |c|^2 + |c|^6 / 3.

Layout: ``FourierState.a`` stores the band |j| <= K with mode j at position
j + K.  ``step`` and ``evolve`` share one kernel that keeps the spectrum as an
N-point array in FFT order (mode j at index j mod N, which numpy's negative
indexing gives as ``spec[j]``) and reuses preallocated buffers.  Its linear
phase factors vanish outside the band, so the multiplication that applies
them is also the band projection.  ``conserved`` reads the same layout.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .normal_form import TorusSpec


class BlowUp(Exception):
    """Relative mass drift exceeded tolerance: integrator failure."""


@dataclass(frozen=True)
class GridSpec:
    K: int
    N: int
    dt: float

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be positive")
        if self.N < 4 * self.K + 4 or self.N & (self.N - 1):
            raise ValueError("N must be a power of two >= 4K+4")
        if self.dt == 0.0:
            raise ValueError("dt must be nonzero")

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.K, self.K + 1)


@dataclass
class FourierState:
    a: np.ndarray  # complex, index j stored at position j + K
    t: float = 0.0

    def copy(self) -> "FourierState":
        return FourierState(self.a.copy(), self.t)


@dataclass(frozen=True)
class ConservedSnapshot:
    mass: float
    momentum: float
    energy: float


@dataclass
class Trajectory:
    grid: GridSpec
    internal: tuple[int, ...]
    times: np.ndarray
    mass: np.ndarray
    momentum: np.ndarray
    energy: np.ndarray
    actions: np.ndarray  # (samples, n_internal) internal-mode actions
    ext_mass: np.ndarray
    mags: np.ndarray  # (samples, 2K+1) |a_j|^2 per sample
    watch: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("sample times must be strictly increasing")

    def to_csv(self) -> str:
        cols = ["t", "mass", "momentum", "energy"]
        cols += [f"I_{'pqm'[i]}" for i in range(len(self.internal))]
        cols += ["ext_mass"] + [f"mode_{j}" for j in self.watch]
        rows = [",".join(cols)]
        K = self.grid.K
        for i in range(len(self.times)):
            vals = [self.times[i], self.mass[i], self.momentum[i], self.energy[i]]
            vals += list(self.actions[i]) + [self.ext_mass[i]]
            vals += [np.sqrt(self.mags[i, j + K]) for j in self.watch]
            rows.append(",".join(repr(float(v)) for v in vals))
        return "\n".join(rows) + "\n"


@dataclass
class GrowthFit:
    rate: float
    stderr: float
    window: tuple[float, float]
    dominant_modes: tuple[int, ...]
    flag: str = ""  # "WindowNotFound" when growth never starts

    def to_json(self) -> str:
        return json.dumps({
            "rate": self.rate,
            "stderr": self.stderr,
            "window": list(self.window),
            "dominant_modes": list(self.dominant_modes),
            "flag": self.flag,
        }, indent=2)


# ---------------------------------------------------------------------------

class _SplitStep:
    """Strang split-step workspace for one grid, started from the band
    coefficients ``a``: the spectrum in FFT order, the band-masked linear
    phases and every buffer a step needs, so stepping allocates no arrays.
    """

    def __init__(self, grid: GridSpec, a: np.ndarray):
        self.dt = grid.dt
        self.modes = j = grid.modes
        self.half = np.zeros(grid.N, dtype=complex)
        self.half[j] = np.exp(-1j * j * j * (grid.dt / 2.0))
        self.full = self.half * self.half
        self.spec = np.zeros(grid.N, dtype=complex)
        self.spec[j] = a
        self.u = np.empty(grid.N, dtype=complex)
        self.phase = np.empty(grid.N, dtype=complex)
        self.w = np.empty(grid.N)
        self.w2 = np.empty(grid.N)

    def coefficients(self) -> np.ndarray:
        """Band coefficients, mode j at position j + K (a new array)."""
        return self.spec[self.modes]

    def run(self, n: int) -> None:
        """n steps, with the linear half phases of adjacent steps fused."""
        spec, u, phase, w, w2 = self.spec, self.u, self.phase, self.w, self.w2
        ur, ui, pr, pi = u.real, u.imag, phase.real, phase.imag
        spec *= self.half
        for i in range(n):
            np.fft.ifft(spec, norm="forward", out=u)
            np.multiply(ur, ur, out=w)
            np.multiply(ui, ui, out=w2)
            w += w2
            np.multiply(w, w, out=w)
            w *= -self.dt
            np.cos(w, out=pr)
            np.sin(w, out=pi)
            u *= phase
            np.fft.fft(u, norm="forward", out=spec)
            spec *= self.full if i < n - 1 else self.half


def conserved(state: FourierState, grid: GridSpec) -> ConservedSnapshot:
    mags = np.abs(state.a) ** 2
    j = grid.modes
    spec = np.zeros(grid.N, dtype=complex)
    spec[j] = state.a
    u = np.fft.ifft(spec, norm="forward")
    sextic = float(np.mean(np.abs(u) ** 6))
    return ConservedSnapshot(
        float(mags.sum()),
        float((j * mags).sum()),
        float((j * j * mags).sum() + sextic / 3.0),
    )


def step(state: FourierState, grid: GridSpec) -> FourierState:
    """One Strang split step: exact linear half phase, exact nonlinear phase
    in physical space, linear half phase; band truncation dealiases."""
    kernel = _SplitStep(grid, state.a)
    kernel.run(1)
    return FourierState(kernel.coefficients(), state.t + grid.dt)


def prepare_torus_state(spec: TorusSpec, seed_modes: Sequence[int],
                        seed_amp: float, grid: GridSpec,
                        seed: int | None = 0) -> FourierState:
    """Torus point |a_m|^2 = nu * rho_i plus a small perturbation on the seed
    modes.  ``seed`` picks deterministic pseudorandom phases; None means
    zero phase."""
    if seed_amp < 0:
        raise ValueError("seed_amp must be nonnegative")
    K = grid.K
    a = np.zeros(2 * K + 1, dtype=complex)
    for m, r in zip(spec.internal, spec.rho):
        a[m + K] = np.sqrt(spec.nu * float(r))
    if seed is None:
        phases = np.zeros(len(seed_modes))
    else:
        phases = np.random.default_rng(seed).uniform(0, 2 * np.pi, len(seed_modes))
    for m, phi in zip(seed_modes, phases):
        if m in spec.internal:
            raise ValueError("seed modes must be external")
        if abs(m) > K:
            raise ValueError("seed mode outside band")
        a[m + K] = seed_amp * np.exp(1j * phi)
    return FourierState(a, 0.0)


def evolve(state: FourierState, grid: GridSpec, t_end: float,
           sample_every: int = 1, internal: Sequence[int] = (),
           watch: Sequence[int] = (), mass_tol: float = 1e-6,
           stop_ext_mass: float | None = None) -> Trajectory:
    """Evolve to t_end, sampling every ``sample_every`` steps.

    Linear half phases of adjacent steps are fused between samples (exact
    phase algebra).  Aborts with BlowUp when the relative mass drift exceeds
    ``mass_tol``; stops early once the external mass passes
    ``stop_ext_mass`` (saturation cut for growth runs).  Integrates forward
    only: a grid with dt < 0 is refused before the first step (``step``
    accepts it).
    """
    if grid.dt < 0:
        raise ValueError("evolve integrates forward in time: dt must be positive")
    n_steps = int(round(t_end / grid.dt))
    if n_steps < 1:
        raise ValueError("t_end shorter than one step")
    K = grid.K
    iidx = np.array([m + K for m in internal], dtype=int)
    mask_ext = np.ones(2 * K + 1, dtype=bool)
    mask_ext[iidx] = False

    times, masses, momenta, energies = [], [], [], []
    actions, exts, mags_all = [], [], []

    def record(st: FourierState):
        snap = conserved(st, grid)
        mags = np.abs(st.a) ** 2
        times.append(st.t)
        masses.append(snap.mass)
        momenta.append(snap.momentum)
        energies.append(snap.energy)
        actions.append(mags[iidx].copy())
        exts.append(float(mags[mask_ext].sum()))
        mags_all.append(mags)
        return snap, exts[-1]

    snap0, _ = record(state)
    mass0 = snap0.mass
    kernel = _SplitStep(grid, state.a)
    done = 0
    while done < n_steps:
        chunk = min(sample_every, n_steps - done)
        kernel.run(chunk)
        done += chunk
        t = state.t + done * grid.dt
        snap, ext = record(FourierState(kernel.coefficients(), t))
        if mass0 > 0 and abs(snap.mass - mass0) > mass_tol * mass0:
            raise BlowUp(
                f"relative mass drift {abs(snap.mass - mass0) / mass0:.3e} "
                f"exceeds {mass_tol:.1e} at t={t:.3f}")
        if stop_ext_mass is not None and ext >= stop_ext_mass:
            break
    return Trajectory(grid, tuple(internal), np.array(times), np.array(masses),
                      np.array(momenta), np.array(energies),
                      np.array(actions).reshape(len(times), len(iidx)),
                      np.array(exts), np.array(mags_all), tuple(watch))


def fit_growth_rate(traj: Trajectory, nu: float, rho: Sequence[float],
                    grow_factor: float = 100.0,
                    saturation_fraction: float = 1e-2) -> GrowthFit:
    """Amplitude growth rate (1/2) d log(ext mass)/dt on the automatic window
    [first sample with ext mass >= grow_factor * initial,
     first sample with ext mass >= saturation_fraction * nu * min rho].

    When the growth threshold is never reached the trajectory is declared
    stable: rate 0 with flag WindowNotFound.
    """
    if len(traj.times) < 50:
        raise ValueError("need at least 50 samples to fit")
    ext = traj.ext_mass
    # The t=0 sample precedes the quasi-static dressing of the perturbation;
    # the first evolved sample is the meaningful reference level.
    base = ext[1] if len(ext) > 1 else ext[0]
    sat = saturation_fraction * nu * float(min(rho))
    start_hits = np.nonzero(ext >= grow_factor * base)[0]
    start_hits = start_hits[start_hits > 0]
    if len(start_hits) == 0:
        return GrowthFit(0.0, 0.0, (float(traj.times[0]), float(traj.times[-1])),
                         (), "WindowNotFound")
    i0 = int(start_hits[0])
    sat_hits = np.nonzero(ext >= sat)[0]
    i1 = int(sat_hits[0]) if len(sat_hits) else len(ext) - 1
    if i1 - i0 < 10:
        i0 = max(0, i1 - 10)
    t = traj.times[i0:i1 + 1]
    y = 0.5 * np.log(ext[i0:i1 + 1])
    (slope, intercept), cov = np.polyfit(t, y, 1, cov=True)
    K = traj.grid.K
    mags_end = traj.mags[i1].copy()
    for m in traj.internal:
        mags_end[m + K] = 0.0
    order = np.argsort(mags_end)[::-1]
    total = mags_end.sum()
    dom, acc = [], 0.0
    for idx in order:
        dom.append(int(idx) - K)
        acc += mags_end[idx]
        if acc >= 0.9 * total:
            break
    return GrowthFit(float(slope), float(np.sqrt(cov[0, 0])),
                     (float(t[0]), float(t[-1])), tuple(sorted(dom)))


class WindowNotFound(Exception):
    pass


def scaling_experiment(internal: Sequence[int], rho: Sequence[float],
                       nu_list: Sequence[float], grid: GridSpec,
                       seed_modes: Sequence[int], seed_amp_scale: float = 1e-8,
                       sample_every: int = 20, grow_factor: float = 100.0,
                       mass_tol: float = 1e-6, seed: int = 0,
                       horizon_factor: float = 40.0) -> tuple[float, dict]:
    """Fit growth rates across nu and return the log-log slope (expected 2).

    Each run uses seed amplitude seed_amp_scale * sqrt(nu) and a horizon of
    horizon_factor / nu^2, stopping early at saturation.
    """
    if len(nu_list) < 3:
        raise ValueError("need at least 3 nu values")
    fits = {}
    for nu in nu_list:
        if nu * max(rho) > 0.2:
            raise ValueError(f"nu*max(rho) = {nu * max(rho):.3f} too large")
        if nu * max(rho) > 0.1:
            warnings.warn("nu*max(rho) exceeds 0.1; perturbative accuracy degrades")
        spec = TorusSpec(tuple(internal), tuple(rho), nu)
        state = prepare_torus_state(spec, seed_modes, seed_amp_scale * np.sqrt(nu),
                                    grid, seed=seed)
        sat = 1e-2 * nu * float(min(rho))
        traj = evolve(state, grid, horizon_factor / nu**2, sample_every,
                      internal=internal, mass_tol=mass_tol,
                      stop_ext_mass=2.0 * sat)
        fit = fit_growth_rate(traj, nu, rho, grow_factor=grow_factor)
        if fit.flag:
            raise WindowNotFound(f"no growth window at nu={nu}")
        fits[nu] = fit
    x = np.log([nu for nu in nu_list])
    y = np.log([fits[nu].rate for nu in nu_list])
    slope = float(np.polyfit(x, y, 1)[0])
    return slope, fits
