"""Split-step integrator: conservation, convergence, symmetry, growth fits."""

import hashlib

import numpy as np
import pytest

from qnls import normal_form as nf
from qnls import resonance as rs
from qnls import sim


def step(state, grid):
    """One Strang split step of ``state`` by the kernel that ``evolve`` runs:
    exact linear half phase, exact nonlinear phase in physical space, linear
    half phase; band truncation dealiases."""
    kernel = sim._SplitStep(grid, state.a)
    kernel.run(1)
    return sim.FourierState(kernel.coefficients(), state.t + grid.dt)


def band_state(grid, support=3, amp=0.05, seed=1):
    rng = np.random.default_rng(seed)
    a = np.zeros(2 * grid.K + 1, dtype=complex)
    for j in range(-support, support + 1):
        a[j + grid.K] = amp * (rng.standard_normal() + 1j * rng.standard_normal())
    return sim.FourierState(a, 0.0)


def single_mode(grid, j, c):
    a = np.zeros(2 * grid.K + 1, dtype=complex)
    a[j + grid.K] = c
    return sim.FourierState(a, 0.0)


# ---------------------------------------------------------------------------
# conserved quantities

def test_conserved_mode_zero():
    grid = sim.GridSpec(8, 64, 0.01)
    snap = sim.conserved(single_mode(grid, 0, 1.0), grid)
    assert snap.mass == pytest.approx(1.0)
    assert snap.momentum == pytest.approx(0.0)
    assert snap.energy == pytest.approx(1.0 / 3.0)


def test_conserved_mode_one():
    grid = sim.GridSpec(8, 64, 0.01)
    snap = sim.conserved(single_mode(grid, 1, 1.0), grid)
    assert snap.mass == pytest.approx(1.0)
    assert snap.momentum == pytest.approx(1.0)
    assert snap.energy == pytest.approx(1.0 + 1.0 / 3.0)


def test_conserved_flagship_torus():
    grid = sim.GridSpec(32, 256, 0.01)
    cat = rs.enumerate_sets((-3, 10, -6))
    spec = nf.TorusSpec((-3, 10, -6), (2.0, 1.0, 9.0), 0.01)
    state = sim.prepare_torus_state(spec, (), 0.0, grid)
    snap = sim.conserved(state, grid)
    nu = 0.01
    assert snap.mass == pytest.approx(nu * 12.0, rel=1e-12)
    assert snap.momentum == pytest.approx(nu * (-3 * 2 + 10 * 1 - 6 * 9), rel=1e-12)


# ---------------------------------------------------------------------------
# single step structure

def test_single_mode_exact_phase():
    # one Fourier mode evolves by a pure phase: linear j^2 plus |c|^4
    grid = sim.GridSpec(8, 64, 0.037)
    c = 0.3 + 0.4j
    j = 2
    state = step(single_mode(grid, j, c), grid)
    expected = c * np.exp(-1j * (j**2 + abs(c) ** 4) * grid.dt)
    assert state.a[j + grid.K] == pytest.approx(expected, abs=1e-14)
    assert state.t == pytest.approx(grid.dt)


def test_step_mass_per_step():
    grid = sim.GridSpec(16, 128, 0.01)
    state = band_state(grid)
    m0 = sim.conserved(state, grid).mass
    state = step(state, grid)
    assert abs(sim.conserved(state, grid).mass - m0) < 1e-12 * m0


def test_richardson_second_order():
    # global error ratio ~ 4 when halving dt
    grid_c = sim.GridSpec(16, 128, 0.02)
    grid_m = sim.GridSpec(16, 128, 0.01)
    grid_f = sim.GridSpec(16, 128, 0.005)
    finals = []
    for grid in (grid_c, grid_m, grid_f):
        state = band_state(grid)
        for _ in range(round(1.0 / grid.dt)):
            state = step(state, grid)
        finals.append(state.a)
    err_cm = np.linalg.norm(finals[0] - finals[2])
    err_mf = np.linalg.norm(finals[1] - finals[2])
    # against the fine solution the coarse/medium error ratio approaches
    # (4 - 1) / (1 - 1/4) ... simpler: coarse-med vs med-fine slope
    ratio = np.linalg.norm(finals[0] - finals[1]) / err_mf
    assert ratio == pytest.approx(4.0, rel=0.15)
    assert err_cm > err_mf


def test_time_reversibility():
    grid = sim.GridSpec(16, 128, 0.01)
    back = sim.GridSpec(16, 128, -0.01)
    state0 = band_state(grid)
    state = state0
    for _ in range(200):
        state = step(state, grid)
    for _ in range(200):
        state = step(state, back)
    assert np.linalg.norm(state.a - state0.a) < 1e-9


def test_gauge_covariance():
    # multiplying the state by a global phase commutes with the flow
    grid = sim.GridSpec(16, 128, 0.01)
    state = band_state(grid)
    phase = np.exp(1.23j)
    a1 = step(sim.FourierState(state.a * phase, 0.0), grid).a
    a2 = step(state, grid).a * phase
    assert np.linalg.norm(a1 - a2) < 1e-13


def test_galilean_index_shift():
    # boosting by one mode index conjugates one step by the multiplier
    # exp(-i (2j - 1) dt): frequency shift plus the induced translation,
    # which commutes with the modulus-dependent nonlinear phase
    grid = sim.GridSpec(8, 64, 0.01)
    state = band_state(grid, support=1, seed=3)
    stepped = step(state, grid)
    shifted = np.roll(state.a, 1)
    stepped_shifted = step(sim.FourierState(shifted, 0.0), grid)
    js = np.arange(-grid.K, grid.K + 1)
    undo = np.exp(1j * (2 * js - 1) * grid.dt)
    recovered = np.roll(stepped_shifted.a * undo, -1)
    assert np.linalg.norm(recovered - stepped.a) < 1e-12


# ---------------------------------------------------------------------------
# reference oracle: the split step in its textbook band layout

def oracle_step(a, grid):
    """One Strang step on the 2K+1 band coefficients: half phase, pad to N
    points, ifft, exp(-i|u|^4 dt), fft, unpad to the band, half phase."""
    K, N = grid.K, grid.N
    half = np.exp(-1j * grid.modes**2 * (grid.dt / 2.0))
    b = a * half
    A = np.zeros(N, dtype=complex)
    A[:K + 1] = b[K:]
    A[-K:] = b[:K]
    u = np.fft.ifft(A) * N
    u = u * np.exp(-1j * np.abs(u) ** 4 * grid.dt)
    B = np.fft.fft(u) / N
    return np.concatenate((B[-K:], B[:K + 1])) * half


# the thm3-unstable and thm2-stable grids, a backward step, and the tightest
# dealiased grid of test_evolve_mass_tolerance_guard (N = 32 >= 6K+1 = 31)
@pytest.mark.parametrize("K,N,dt", [(32, 256, 5e-3), (16, 128, 0.05),
                                    (16, 128, -0.01), (5, 32, 0.05)])
def test_kernel_matches_oracle(K, N, dt):
    grid = sim.GridSpec(K, N, dt)
    # the whole band is occupied, so the truncation discards mass every step
    state = band_state(grid, support=K)
    n_steps, every = 1000, 7
    a, stepped = state.a, state
    oracle_mags = [np.abs(a) ** 2]
    for n in range(1, n_steps + 1):
        a = oracle_step(a, grid)
        stepped = step(stepped, grid)
        if n % every == 0 or n == n_steps:
            oracle_mags.append(np.abs(a) ** 2)
    assert np.abs(stepped.a - a).max() < 1e-13
    if dt > 0:  # a Trajectory needs increasing sample times
        # fused half phases between samples, and a short last chunk
        traj = sim.evolve(state, grid, n_steps * dt, sample_every=every,
                          mass_tol=1.0)
        assert traj.times[-1] == pytest.approx(n_steps * dt)
        assert np.abs(traj.mags - np.array(oracle_mags)).max() < 1e-13


@pytest.mark.parametrize("N", [32, 128, 256])
def test_fft_binding_matches_numpy_fft(N):
    # the kernel calls the gufuncs behind np.fft with the factors that
    # norm="forward" passes them, so its transforms are np.fft's, bit for bit
    rng = np.random.default_rng(N)
    x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    fwd = sim._pfu.fft(x, 1.0 / N, out=np.empty_like(x))
    inv = sim._pfu.ifft(x, 1.0, out=np.empty_like(x))
    assert np.array_equal(fwd, np.fft.fft(x, norm="forward"))
    assert np.array_equal(inv, np.fft.ifft(x, norm="forward"))


# sha256 of Trajectory.to_csv() for 2,000 steps of the growth-unstable and
# horizon-stable benchmark tori (seed amplitude 1e-3 sqrt(nu), phases from
# seed 0), recorded with the kernel that called np.fft.fft/ifft(norm=
# "forward"); numpy 2.4.6 on x86-64.  Any change to the arithmetic of a step
# or of conserved() moves them.
@pytest.mark.parametrize("internal,rho,nu,grid_args,seed_modes,every,tol,digest", [
    ((-3, 10, -6), (2.0, 1.0, 9.0), 0.02, (32, 256, 5e-3), (1, 9), 40, 1e-3,
     "9820d6b310ae0f24de7dfb2581457ac6cb55f2ab8a99893d6f8130b4bc811740"),
    ((0, 1), (1.0, 1.0), 0.01, (16, 128, 0.05), (2, -1), 100, 1e-6,
     "ab311c34e178cd91b7f7b7fdf9e9c42d87b92b0b426919cab75c0338867e26a0"),
], ids=["growth-unstable", "horizon-stable"])
def test_trajectory_csv_golden(internal, rho, nu, grid_args, seed_modes, every,
                               tol, digest):
    grid = sim.GridSpec(*grid_args)
    spec = nf.TorusSpec(internal, rho, nu)
    state = sim.prepare_torus_state(spec, seed_modes, 1e-3 * np.sqrt(nu), grid,
                                    seed=0)
    traj = sim.evolve(state, grid, 2000 * grid.dt, every, internal=internal,
                      watch=seed_modes, mass_tol=tol)
    assert len(traj.times) == 2000 // every + 1
    assert hashlib.sha256(traj.to_csv().encode()).hexdigest() == digest


def _stop_path_by_hand(spec, grid):
    state = sim.prepare_torus_state(spec, (1, 9), 1e-2 * np.sqrt(spec.nu), grid, seed=0)
    return sim.evolve(state, grid, 40.0 / spec.nu**2, 40, internal=spec.internal,
                      watch=(1, 9), mass_tol=1e-3,
                      stop_ext_mass=2 * sim.saturation_mass(spec.nu, spec.rho))


def _stop_path_growth_run(spec, grid):
    return sim.growth_run(spec, grid, (1, 9), 40, 1e-3, seed_amp_scale=1e-2)


@pytest.mark.parametrize("run", [_stop_path_by_hand, _stop_path_growth_run],
                         ids=["by-hand", "growth_run"])
def test_trajectory_stop_path_golden(run):
    # the growth-unstable benchmark torus with seed amplitude 1e-2 sqrt(nu)
    # reaches the saturation cut after 34,680 steps (868 samples); sha256 of
    # Trajectory.to_csv() and GrowthFit.to_json(), recorded with conserved()
    # sampling a zero-padded copy of the band; numpy 2.4.6 on x86-64.
    # growth_run is the hand-wired seed, horizon and stop, bit for bit
    internal, rho, nu = (-3, 10, -6), (2.0, 1.0, 9.0), 0.02
    traj = run(nf.TorusSpec(internal, rho, nu), sim.GridSpec(32, 256, 5e-3))
    fit = sim.fit_growth_rate(traj, nu, rho, grow_factor=10.0)
    assert len(traj.times) == 868
    assert traj.ext_mass[-1] >= 2 * sim.saturation_mass(nu, rho) > traj.ext_mass[-2]
    assert (hashlib.sha256(traj.to_csv().encode()).hexdigest()
            == "eb8bc422c7e6f1ab165a81bcf30fc1ae78e7213ea8b2701e3fa561203e93810d")
    assert (hashlib.sha256(fit.to_json().encode()).hexdigest()
            == "3a829de72920e2b3070df8d627c02e6766b50edc0cf11773d6d9b0045f435d41")


# ---------------------------------------------------------------------------
# evolve / trajectory bookkeeping

def test_evolve_long_run_drift():
    grid = sim.GridSpec(16, 128, 0.01)
    state = band_state(grid)
    traj = sim.evolve(state, grid, t_end=100.0, sample_every=100)
    drift = abs(traj.mass[-1] - traj.mass[0]) / traj.mass[0]
    assert drift < 1e-11
    mdrift = abs(traj.momentum[-1] - traj.momentum[0])
    assert mdrift < 1e-11
    edrift = abs(traj.energy[-1] - traj.energy[0]) / abs(traj.energy[0])
    assert edrift < 1e-7  # bounded splitting oscillation, not secular


def test_evolve_records_initial_sample():
    grid = sim.GridSpec(8, 64, 0.01)
    traj = sim.evolve(single_mode(grid, 1, 0.1), grid, t_end=0.1,
                      sample_every=2)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.1)


def test_evolve_mass_tolerance_guard():
    # a strong band-filling state loses mass through truncation; the guard
    # trips (N = 32 is the smallest dealiased grid for K = 5)
    grid = sim.GridSpec(5, 32, 0.05)
    rng = np.random.default_rng(0)
    a = 0.9 * (rng.standard_normal(11) + 1j * rng.standard_normal(11))
    with pytest.raises(sim.BlowUp):
        sim.evolve(sim.FourierState(a, 0.0), grid, t_end=50.0,
                   sample_every=10, mass_tol=1e-12)


def test_evolve_rejects_backward_integration():
    # step runs backward (test_time_reversibility); evolve refuses up front
    # instead of failing on decreasing sample times after every step
    back = sim.GridSpec(16, 128, -0.01)
    with pytest.raises(ValueError, match="forward"):
        sim.evolve(band_state(back), back, t_end=-10.0)


@pytest.mark.parametrize("t_end", [float("inf"), float("nan")], ids=["inf", "nan"])
def test_evolve_rejects_non_finite_t_end(t_end):
    # the step count round(t_end / dt) has no integer value
    grid = sim.GridSpec(8, 64, 0.01)
    with pytest.raises(ValueError, match="t_end"):
        sim.evolve(single_mode(grid, 1, 0.1), grid, t_end=t_end)


@pytest.mark.parametrize("tol", [float("nan"), -1e-6], ids=["nan", "negative"])
def test_evolve_rejects_nan_or_negative_mass_tol(tol):
    # drift > nan * mass0 is never true, so a NaN tolerance would silently
    # turn the BlowUp guard off; inf is how a caller asks for no guard
    grid = sim.GridSpec(5, 32, 0.05)
    rng = np.random.default_rng(0)
    a = 0.9 * (rng.standard_normal(11) + 1j * rng.standard_normal(11))
    state = sim.FourierState(a, 0.0)
    with pytest.raises(ValueError, match="mass_tol"):
        sim.evolve(state, grid, t_end=50.0, sample_every=10, mass_tol=tol)
    traj = sim.evolve(state, grid, t_end=50.0, sample_every=10,
                      mass_tol=float("inf"))
    assert traj.mass[-1] < 0.1 * traj.mass[0]


def test_evolve_stops_on_non_finite_mass():
    # |u|^4 overflows, so the nonlinear phase and every later sample are
    # NaN; a drift test against NaN is never true, even with no drift guard
    grid = sim.GridSpec(4, 32, 0.01)
    with np.errstate(all="ignore"), pytest.raises(sim.BlowUp, match="mass is nan at t=0.010"):
        sim.evolve(single_mode(grid, 1, 1e80), grid, t_end=1.0, mass_tol=float("inf"))


@pytest.mark.parametrize("internal,watch,message", [
    ((), (-6,), "watched mode -6 outside the band"),
    ((5,), (), "internal mode 5 outside the band"),
    ((-5, 1), (1,), "internal mode -5 outside the band"),
], ids=["watched", "internal", "negative-internal"])
def test_evolve_rejects_modes_outside_the_band(internal, watch, message):
    # a negative position j + K used to wrap: mode -6 at K = 4 wrote mode
    # 3's column under the header mode_-6
    grid = sim.GridSpec(4, 32, 0.01)
    with pytest.raises(ValueError, match=message):
        sim.evolve(single_mode(grid, 1, 0.1), grid, t_end=0.1, internal=internal, watch=watch)


@pytest.mark.parametrize("every", [0, -3])
def test_evolve_rejects_nonpositive_sample_every(every):
    # a step count below one per sample would never reach t_end
    grid = sim.GridSpec(8, 64, 0.01)
    with pytest.raises(ValueError, match="sample_every"):
        sim.evolve(single_mode(grid, 1, 0.1), grid, t_end=0.1, sample_every=every)


def test_trajectory_csv():
    grid = sim.GridSpec(8, 64, 0.01)
    traj = sim.evolve(single_mode(grid, 1, 0.1), grid, t_end=0.05,
                      internal=(1,), watch=(0, 2))
    lines = traj.to_csv().splitlines()
    assert lines[0].split(",")[:5] == ["t", "mass", "momentum", "energy", "I_p"]
    assert len(lines) == len(traj.times) + 1


# ---------------------------------------------------------------------------
# initial data

def test_prepare_torus_reproducible():
    grid = sim.GridSpec(32, 256, 0.01)
    spec = nf.TorusSpec((-3, 10, -6), (2.0, 1.0, 9.0), 0.01)
    s1 = sim.prepare_torus_state(spec, (1, 9), 1e-8, grid, seed=7)
    s2 = sim.prepare_torus_state(spec, (1, 9), 1e-8, grid, seed=7)
    s3 = sim.prepare_torus_state(spec, (1, 9), 1e-8, grid, seed=8)
    assert np.array_equal(s1.a, s2.a)
    assert not np.array_equal(s1.a, s3.a)
    for j, r in zip((-3, 10, -6), (2.0, 1.0, 9.0)):
        assert abs(s1.a[j + grid.K]) == pytest.approx(np.sqrt(0.01 * r))


def test_prepare_torus_rejects_bad_seeds():
    grid = sim.GridSpec(8, 64, 0.01)
    spec = nf.TorusSpec((0, 2), (1.0, 1.0), 0.01)
    with pytest.raises(ValueError):
        sim.prepare_torus_state(spec, (0,), 1e-8, grid)  # internal mode
    with pytest.raises(ValueError):
        sim.prepare_torus_state(spec, (99,), 1e-8, grid)  # out of band


@pytest.mark.parametrize("internal", [(-10, 1), (10, 1)], ids=["negative", "positive"])
def test_prepare_torus_rejects_internal_modes_outside_the_band(internal):
    # mode -10 at K = 8 used to wrap onto mode 7, and mode 10 to overrun
    grid = sim.GridSpec(8, 64, 0.01)
    spec = nf.TorusSpec(internal, (1.0, 1.0), 0.01)
    with pytest.raises(ValueError, match=f"internal mode {internal[0]} outside the band"):
        sim.prepare_torus_state(spec, (2,), 1e-8, grid)


def test_grid_validation():
    with pytest.raises(ValueError):
        sim.GridSpec(16, 60, 0.01)  # not a power of two
    with pytest.raises(ValueError):
        sim.GridSpec(16, 32, 0.01)  # too small for the band
    with pytest.raises(ValueError):
        sim.GridSpec(11, 64, 0.01)  # 4K+4 but not 6K+1: aliases the quintic term
    sim.GridSpec(10, 64, 0.01)  # N = 6K+4
    for dt in (0.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="dt"):
            sim.GridSpec(16, 128, dt)


# ---------------------------------------------------------------------------
# growth-rate fitting

def test_fit_growth_rate_synthetic():
    # exact exponential in the external mass reproduces the planted rate
    rate = 2.5e-3
    times = np.linspace(0.0, 4000.0, 400)
    ext = 1e-16 * np.exp(2 * rate * times)
    grid = sim.GridSpec(8, 64, 0.01)
    mags = np.zeros((len(times), 17))
    mags[:, 8 + 1] = np.sqrt(ext)
    traj = sim.Trajectory(grid, (0,), times, np.ones_like(times),
                          np.zeros_like(times), np.ones_like(times),
                          np.ones((len(times), 1)), ext, mags, ())
    fit = sim.fit_growth_rate(traj, 0.01, (1.0,), grow_factor=100.0)
    assert not fit.flag
    assert fit.rate == pytest.approx(rate, rel=1e-6)
    assert fit.dominant_modes == (1,)


def _dominant_by_running_sum(mags_end, internal, K):
    """The fewest largest external modes holding 90% of their |a_j|^2, added
    one at a time: the reference for fit_growth_rate's cumulative sum."""
    mags_end = mags_end.copy()
    for m in internal:
        mags_end[m + K] = 0.0
    total = mags_end.sum()
    dom, acc = [], 0.0
    for idx in np.argsort(mags_end)[::-1]:
        dom.append(int(idx) - K)
        acc += mags_end[idx]
        if acc >= 0.9 * total:
            break
    return tuple(sorted(dom))


def test_dominant_modes_match_the_running_sum():
    # heavy-tailed random spectra, so the 90% cut falls after one to many modes
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, 4000.0, 400)
    ext = 1e-16 * np.exp(5e-3 * times)
    grid = sim.GridSpec(8, 64, 0.01)
    sizes = set()
    for _ in range(200):
        mags = rng.exponential(size=(len(times), 17)) ** rng.uniform(1, 8)
        traj = sim.Trajectory(grid, (0,), times, np.ones_like(times),
                              np.zeros_like(times), np.ones_like(times),
                              np.ones((len(times), 1)), ext, mags, ())
        dom = sim.fit_growth_rate(traj, 0.01, (1.0,)).dominant_modes
        assert dom == _dominant_by_running_sum(mags[-1], (0,), grid.K)
        sizes.add(len(dom))
    assert min(sizes) == 1 and max(sizes) > 8


def test_fit_growth_rate_no_window():
    times = np.linspace(0.0, 100.0, 120)
    ext = np.full_like(times, 1e-16)
    grid = sim.GridSpec(8, 64, 0.01)
    traj = sim.Trajectory(grid, (0,), times, np.ones_like(times),
                          np.zeros_like(times), np.ones_like(times),
                          np.ones((len(times), 1)), ext,
                          np.zeros((len(times), 17)), ())
    fit = sim.fit_growth_rate(traj, 0.01, (1.0,))
    assert fit.flag == "WindowNotFound"
    assert fit.rate == 0.0


def test_scaling_requires_three_points():
    grid = sim.GridSpec(16, 128, 0.01)
    with pytest.raises(ValueError):
        sim.scaling_experiment((0, 1), (1.0, 1.0), [0.01, 0.02], grid, (2,))
