"""Pseudospectral split-step simulation of the truncated quintic NLS
i u_t + u_xx = |u|^4 u on the circle, with conserved-quantity tracking and
exponential-growth-rate fitting for torus stability experiments.

Normalization: mass = sum |a_j|^2, momentum = sum j |a_j|^2,
energy = sum j^2 |a_j|^2 + (1/3) * mean_x |u|^6, so a single mode a_j = c has
mass |c|^2 and energy j^2 |c|^2 + |c|^6 / 3.

Layout: ``FourierState.a`` stores the band |j| <= K with mode j at position
j + K.  Only the kernel, which ``conserved`` and ``evolve`` share, holds
the spectrum as an N-point array in FFT order (mode j at index j mod N,
numpy's ``spec[j]``); it steps and samples in preallocated buffers.  Its
linear phase factors vanish outside the band, so the multiplication that
applies them is also the band projection.

FFTs: the module calls the gufuncs that ``np.fft.fft``/``ifft`` end in,
``numpy.fft._pocketfft_umath.fft``/``ifft``, with the scale factors that
``norm="forward"`` passes them (1/N forward, 1 inverse), so every transform
is ``np.fft``'s bit for bit.  The ``np.fft`` wrappers' argument handling
costs 5-8 us per call, which made up about half of a step at N = 128 on a
2-vCPU Xeon VM.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.fft import _pocketfft_umath as _pfu

from .normal_form import TorusSpec

SATURATION_FRACTION = 1e-2
# the fewest samples fit_growth_rate fits a rate to
MIN_FIT_SAMPLES = 50


def saturation_mass(nu: float, rho: Sequence) -> float:
    """The external mass SATURATION_FRACTION * nu * min(rho) at which a
    growth run saturates."""
    return SATURATION_FRACTION * nu * float(min(rho))


class BlowUp(Exception):
    """Non-finite mass, or relative mass drift over tolerance: integrator
    failure."""


@dataclass(frozen=True)
class GridSpec:
    K: int
    N: int
    dt: float

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be positive")
        # |u|^4 u of a band |j| <= K reaches |j| <= 5K; N >= 6K+1 keeps its
        # aliases outside the band
        if self.N < 6 * self.K + 1 or self.N & (self.N - 1):
            raise ValueError("N must be a power of two >= 6K+1")
        if self.dt == 0.0 or not math.isfinite(self.dt):
            raise ValueError("dt must be finite and nonzero")

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.K, self.K + 1)


@dataclass
class FourierState:
    a: np.ndarray  # complex, index j stored at position j + K
    t: float = 0.0


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
    phases and every buffer a step or a sample needs, so stepping allocates
    no arrays."""

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

    def sample(self) -> tuple[np.ndarray, ConservedSnapshot]:
        """The band's |a_j|^2 (a new array, mode j at position j + K) and the
        conserved quantities; uses ``u`` and ``w`` as scratch, as a step does."""
        j, u, w = self.modes, self.u, self.w
        mags = np.abs(self.coefficients()) ** 2
        _pfu.ifft(self.spec, 1.0, out=u)
        np.abs(u, out=w)
        np.power(w, 6, out=w)
        sextic = float(np.mean(w))
        return mags, ConservedSnapshot(float(mags.sum()), float((j * mags).sum()),
                                       float((j * j * mags).sum() + sextic / 3.0))

    def run(self, n: int) -> None:
        """n steps, with the linear half phases of adjacent steps fused."""
        spec, u, phase, w, w2 = self.spec, self.u, self.phase, self.w, self.w2
        ur, ui, pr, pi = u.real, u.imag, phase.real, phase.imag
        inv_n = 1.0 / len(spec)
        spec *= self.half
        for i in range(n):
            _pfu.ifft(spec, 1.0, out=u)
            np.multiply(ur, ur, out=w)
            np.multiply(ui, ui, out=w2)
            w += w2
            np.multiply(w, w, out=w)
            w *= -self.dt
            np.cos(w, out=pr)
            np.sin(w, out=pi)
            u *= phase
            _pfu.fft(u, inv_n, out=spec)
            spec *= self.full if i < n - 1 else self.half


def conserved(state: FourierState, grid: GridSpec) -> ConservedSnapshot:
    """Mass, momentum and energy of ``state``, sampled by a fresh kernel."""
    return _SplitStep(grid, state.a).sample()[1]


def _band_positions(modes: Sequence[int], K: int, role: str) -> np.ndarray:
    """The positions j + K of ``modes`` in the band layout; ValueError for a
    mode outside |j| <= K, whose position would wrap or overrun."""
    for m in modes:
        if abs(m) > K:
            raise ValueError(f"{role} mode {m} outside the band |j| <= {K}")
    return np.array([m + K for m in modes], dtype=int)


def prepare_torus_state(spec: TorusSpec, seed_modes: Sequence[int],
                        seed_amp: float, grid: GridSpec,
                        seed: int = 0) -> FourierState:
    """Torus point |a_m|^2 = nu * rho_i plus a small perturbation on the seed
    modes.  ``seed`` picks deterministic pseudorandom phases.  Internal and
    seed modes must lie in the band."""
    if seed_amp < 0:
        raise ValueError("seed_amp must be nonnegative")
    if any(m in spec.internal for m in seed_modes):
        raise ValueError("seed modes must be external")
    a = np.zeros(2 * grid.K + 1, dtype=complex)
    for i, r in zip(_band_positions(spec.internal, grid.K, "internal"), spec.rho):
        a[i] = np.sqrt(spec.nu * float(r))
    phases = np.random.default_rng(seed).uniform(0, 2 * np.pi, len(seed_modes))
    for i, phi in zip(_band_positions(seed_modes, grid.K, "seed"), phases):
        a[i] = seed_amp * np.exp(1j * phi)
    return FourierState(a, 0.0)


def _step_count(grid: GridSpec, t_end: float, sample_every: int = 1) -> int:
    """The steps ``evolve`` takes to ``t_end``, once it has refused dt < 0
    (which the kernel itself would step backward), ``sample_every < 1``, a
    non-finite ``t_end`` and one shorter than a step."""
    if grid.dt < 0:
        raise ValueError("evolve integrates forward in time: dt must be positive")
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    n_steps = int(round(t_end / grid.dt))
    if n_steps < 1:
        raise ValueError("t_end shorter than one step")
    return n_steps


def _require_fit_samples(n_samples: int) -> None:
    """Refuse a growth fit on fewer than MIN_FIT_SAMPLES samples."""
    if n_samples < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples to fit")


def evolve(state: FourierState, grid: GridSpec, t_end: float,
           sample_every: int = 1, internal: Sequence[int] = (),
           watch: Sequence[int] = (), mass_tol: float = 1e-6,
           stop_ext_mass: float | None = None) -> Trajectory:
    """Evolve to t_end, sampling every ``sample_every`` steps.

    Linear half phases of adjacent steps are fused between samples (exact
    phase algebra).  Aborts with BlowUp when a sample's mass is not finite
    or its relative drift exceeds ``mass_tol`` (inf: no drift guard); stops
    early once the external mass passes ``stop_ext_mass`` (saturation cut
    for growth runs).  Integrates forward only: what ``_step_count`` refuses,
    a NaN or negative ``mass_tol`` and an internal or watched mode outside
    the band are refused up front.
    """
    n_steps = _step_count(grid, t_end, sample_every)
    if not mass_tol >= 0:
        raise ValueError(f"mass_tol must be nonnegative, got {mass_tol}")
    K = grid.K
    iidx = _band_positions(internal, K, "internal")
    _band_positions(watch, K, "watched")
    mask_ext = np.ones(2 * K + 1, dtype=bool)
    mask_ext[iidx] = False
    kernel = _SplitStep(grid, state.a)
    rows, mags_all = [], []  # rows: (t, mass, momentum, energy, ext_mass)

    def record(t: float) -> tuple[float, float]:
        mags, snap = kernel.sample()
        ext = float(mags[mask_ext].sum())
        rows.append((t, snap.mass, snap.momentum, snap.energy, ext))
        mags_all.append(mags)
        return snap.mass, ext

    mass0, _ = record(state.t)
    done = 0
    while done < n_steps:
        chunk = min(sample_every, n_steps - done)
        kernel.run(chunk)
        done += chunk
        t = state.t + done * grid.dt
        mass, ext = record(t)
        if not math.isfinite(mass):
            raise BlowUp(f"mass is {mass} at t={t:.3f}")
        if mass0 > 0 and abs(mass - mass0) > mass_tol * mass0:
            raise BlowUp(
                f"relative mass drift {abs(mass - mass0) / mass0:.3e} "
                f"exceeds {mass_tol:.1e} at t={t:.3f}")
        if stop_ext_mass is not None and ext >= stop_ext_mass:
            break
    times, masses, momenta, energies, exts = (np.array(col) for col in zip(*rows))
    mags = np.array(mags_all)
    return Trajectory(grid, tuple(internal), times, masses, momenta, energies,
                      mags[:, iidx], exts, mags, tuple(watch))


def fit_growth_rate(traj: Trajectory, nu: float, rho: Sequence[float],
                    grow_factor: float = 100.0) -> GrowthFit:
    """Amplitude growth rate (1/2) d log(ext mass)/dt on the automatic window
    [first evolved sample with ext mass >= grow_factor * the first evolved
     sample's, first sample with ext mass >= SATURATION_FRACTION * nu * min rho].

    When the growth threshold is never reached the trajectory is declared
    stable: rate 0 with flag WindowNotFound.
    """
    _require_fit_samples(len(traj.times))
    ext = traj.ext_mass
    # The t=0 sample precedes the quasi-static dressing of the perturbation;
    # the first evolved sample is the meaningful reference level.
    base = ext[1]
    sat = saturation_mass(nu, rho)
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
    # dominant modes: the fewest largest external modes holding 90% of their mass
    order = np.argsort(mags_end)[::-1]
    n = int(np.searchsorted(np.cumsum(mags_end[order]), 0.9 * mags_end.sum())) + 1
    return GrowthFit(float(slope), float(np.sqrt(cov[0, 0])), (float(t[0]), float(t[-1])),
                     tuple(sorted(int(i) - K for i in order[:n])))


class WindowNotFound(Exception):
    pass


def _growth_horizon(nu: float, grid: GridSpec, sample_every: int,
                    t_end: float | None = None) -> float:
    """A growth run's horizon, ``t_end`` or by default 40 / nu^2.  Refuses a
    run too short to fit: un-stopped, it takes 1 + ceil(steps / sample_every)
    samples (its start, one every ``sample_every`` steps, and its last)."""
    t_end = 40.0 / nu**2 if t_end is None else t_end
    n_steps = _step_count(grid, t_end, sample_every)
    _require_fit_samples(1 + -(-n_steps // sample_every))
    return t_end


def growth_run(spec: TorusSpec, grid: GridSpec, seed_modes: Sequence[int],
               sample_every: int, mass_tol: float, t_end: float | None = None,
               seed_amp_scale: float = 1e-8, seed: int = 0) -> Trajectory:
    """The torus ``spec`` seeded on ``seed_modes`` with amplitude
    seed_amp_scale * sqrt(nu) and phases from ``seed``, evolved to ``t_end``
    (default 40 / nu^2) watching the seed modes, and stopped once the external
    mass reaches 2 * saturation_mass.  A run too short to fit never steps."""
    t_end = _growth_horizon(spec.nu, grid, sample_every, t_end)
    state = prepare_torus_state(spec, seed_modes, seed_amp_scale * np.sqrt(spec.nu),
                                grid, seed=seed)
    return evolve(state, grid, t_end, sample_every, internal=spec.internal,
                  watch=seed_modes, mass_tol=mass_tol,
                  stop_ext_mass=2.0 * saturation_mass(spec.nu, spec.rho))


def scaling_experiment(internal: Sequence[int], rho: Sequence[float],
                       nu_list: Sequence[float], grid: GridSpec,
                       seed_modes: Sequence[int], seed_amp_scale: float = 1e-8,
                       sample_every: int = 20, grow_factor: float = 100.0,
                       mass_tol: float = 1e-6, seed: int = 0) -> tuple[float, dict, dict]:
    """The log-log slope (expected 2) of the growth rate against nu, fitted
    to a ``growth_run`` at each nu, with the fits and the trajectories keyed
    by nu.  Every nu is checked before the first run steps."""
    if len(nu_list) < 3:
        raise ValueError("need at least 3 nu values")
    for nu in nu_list:
        if nu * max(rho) > 0.2:
            raise ValueError(f"nu*max(rho) = {nu * max(rho):.3f} too large")
        if nu * max(rho) > 0.1:
            warnings.warn("nu*max(rho) exceeds 0.1; perturbative accuracy degrades")
        _growth_horizon(nu, grid, sample_every)
    fits, trajs = {}, {}
    for nu in nu_list:
        spec = TorusSpec(tuple(internal), tuple(rho), nu)
        traj = trajs[nu] = growth_run(spec, grid, seed_modes, sample_every, mass_tol,
                                      seed_amp_scale=seed_amp_scale, seed=seed)
        fit = fits[nu] = fit_growth_rate(traj, nu, rho, grow_factor=grow_factor)
        if fit.flag:
            raise WindowNotFound(f"no growth window at nu={nu}")
    rates = [fits[nu].rate for nu in nu_list]
    return float(np.polyfit(np.log(nu_list), np.log(rates), 1)[0]), fits, trajs
