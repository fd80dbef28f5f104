"""The A2 divisor table as ``small_divisors.enumerate_A2_expressions`` built
it with full-lattice masks and one global sort of row keys: the reference
that the counted build reproduces column for column."""

from __future__ import annotations

import numpy as np

from qnls.normal_form import EffectiveHamiltonian, shift_forms, twice_gap_form
from qnls.resonance import default_bound
from qnls.small_divisors import (KINDS, OMEGA_K, OMEGA_K_PLUS_LAMBDA, OMEGA_K_PLUS_MINUS,
                                 OMEGA_K_PLUS_PLUS, DivisorTable, _enclose, _pad_b_root)


def enumerate_A2_expressions(eff: EffectiveHamiltonian, k_max: int) -> DivisorTable:
    """Every divisor family in one pass over the lattice.

    The lattice with its mass sum(k), momentum, integer part and Omega form
    is built once as arrays.  Each family is a mask over it, combined with
    spectral atoms: scalar Lambda_j (integer part j^2, the lambda form of
    ``shift_forms``, no pad) or a coupled block's eigenvalue branches
    (role, form, pad).  Rows are sorted into nested-loop order: base
    families interleaved per k, then each block's families in ``eff.blocks``
    order; j ascends in a family.  External modes range over
    |j| <= ``default_bound(internal)``, the default catalog bound.
    """
    spec = eff.spec
    internal = spec.internal
    n = len(internal)
    mode_max = default_bound(internal)
    *omegas, lam = (np.array(f, dtype=float) for f in shift_forms(n))
    omega_coef = np.array(omegas)
    none = np.zeros_like(lam)
    iset = list(set(internal))
    blocked = list({m for blk in eff.blocks for m in blk.modes})
    skip = iset + blocked

    # every nonzero k with |k|_inf <= k_max, in itertools.product order.
    # int32 holds any lattice point, lattice index or mode the table can
    # have, as the lattice and the mode range are arrays that long; sums
    # and products over them are taken in int64
    lattice = np.indices((max(2 * k_max + 1, 0),) * n, dtype=np.int32).reshape(n, -1).T - k_max
    lattice = lattice[lattice.any(axis=1)]
    L = len(lattice)
    mass = lattice.sum(axis=1)
    mom = lattice @ np.array(internal, dtype=np.int64)
    I0 = lattice @ np.array([m * m for m in internal], dtype=np.int64)
    families = []  # (kind, n_modes, block, pad, filtered, Lambda coefficients)
    # per family, its row count and its entry of each column: an array over
    # its rows, or one number shared by all of them
    sizes = []
    parts = {name: [] for name in ("key", "lat", "mode0", "mode1", "int_part")}

    def emit(idx, kind, modes, int_part=None, coef=None, pad=0.0, slot=0, sub=0, block=-1):
        """A family of rows over lattice indices ``idx``; int_part None
        marks them filtered."""
        filtered = int_part is None
        sizes.append(len(idx))
        key = (((block + 1) * L + idx.astype(np.int64)) * 8 + slot) * (2 * mode_max + 1) + sub
        m = (*modes, 0, 0)
        for name, v in zip(parts, (key, idx, m[0], m[1], 0 if filtered else int_part)):
            parts[name].append(v)
        families.append((KINDS.index(kind), len(modes), block, pad, filtered,
                         none if filtered else coef))

    def emit_with_scalar(idx, j, kind, lead, int_part, coef, pad, slot, block=-1):
        """Rows ending in scalar Lambda_j: filtered if j is internal, absent if blocked."""
        inner = np.isin(j, iset)
        emit(idx[inner], kind, (*lead, j[inner]), slot=slot, block=block)
        keep = ~np.isin(j, skip)
        emit(idx[keep], kind, (*lead, j[keep]), int_part[keep], coef, pad, slot, block=block)

    # slots order the families of one k: OmegaK 0, single 1 (block branches
    # 0-1 by role), pairs 2, differences 3, block branch +- Lambda_j 4-7
    every = np.arange(L, dtype=np.int32)
    emit(every, OMEGA_K, (), I0, none)

    # Omega.k + Lambda_j : a single eta factor, mass forces sum(k) = -1
    # and momentum then pins j.
    one = every[mass == -1]
    emit(every[mass != -1], OMEGA_K_PLUS_LAMBDA, (), slot=1)
    j = -mom[one]
    emit_with_scalar(one, j, OMEGA_K_PLUS_LAMBDA, (), I0[one] + j * j, lam, 0.0, slot=1)

    # Omega.k + Lambda_j + Lambda_l : two eta factors on the momentum line;
    # Omega.k + Lambda_j - Lambda_l : one eta, one zeta; the scalar shifts
    # cancel exactly, and same-|mode| pairs share a cluster.
    jj = np.arange(-mode_max, mode_max + 1)
    for sgn, mask, kind, coef, slot in ((1, mass == -2, OMEGA_K_PLUS_PLUS, 2 * lam, 2),
                                        (-1, (mass == 0) & (mom != 0), OMEGA_K_PLUS_MINUS,
                                         none, 3)):
        idx = every[mask]
        ll = -sgn * (mom[idx, None] + jj)  # momentum: mom + j + sgn * l = 0
        ok = (jj <= ll) if sgn > 0 else (np.abs(jj) != np.abs(ll))
        ok &= (np.abs(ll) <= mode_max) & ~np.isin(jj, skip) & ~np.isin(ll, skip)
        r, c = np.nonzero(ok)
        j, l = jj[c], ll[r, c]
        emit(idx[r], kind, (j, l), I0[idx[r]] + j * j + sgn * l * l, coef, slot=slot, sub=c)
    del ll, ok

    # coupled-block divisor families
    for b, blk in enumerate(eff.blocks):
        # the block's own monomial is carried by the normal form (its divisor
        # vanishes identically), so its families must not test it
        resident = _resident(blk.k, k_max, L)

        def pair(mask, kind, modes, int_part, coef, pad, slot):
            """A block's own pair family; its defining monomial is filtered."""
            emit(every[mask & resident], kind, modes, slot=slot, block=b)
            idx = every[mask & ~resident]
            emit(idx, kind, modes, I0[idx] + int_part, coef, pad, slot, block=b)

        # blk.modes is (s_role, t_role); an E block's one mode plays both
        s_role, t_role = blk.modes[0], blk.modes[-1]
        roles = list({s_role, t_role})
        if blk.kind == "B":
            # a = (Lambda_t - Lambda_s)/2 = nu^2 (lambda + k.omega/2) and
            # b = Lambda_t - a, over nu^2
            gap = np.array(twice_gap_form(blk.k), dtype=float) / 2
            amax = spec.nu**2 * float(np.max(np.abs(_enclose(gap, spec.domain))))
            pad1 = _pad_b_root(spec, blk, amax)
            # slack for the frame ambiguity of chart-dependent nu^2 shifts:
            # the bound on |2a|, exactly twice amax
            slack = 2 * amax
            branch_coef, branch_pad = lam - gap, pad1 + slack
            # eigenvalue pair sum: trace of the block, creation pair
            pair((mass == -2) & (mom + s_role + t_role == 0), OMEGA_K_PLUS_PLUS, blk.modes,
                 s_role**2 + t_role**2, 2 * (lam - gap), slack, 2)
            # eigenvalue pair difference: >= 2|Im| when hyperbolic
            pair((mass == 0) & (mom == 0), OMEGA_K_PLUS_MINUS, blk.modes, 0, none, 2 * pad1, 3)
        else:
            # energy-conserving blocks (elliptic couplings): eigenvalue pairs
            # perturb (s_role^2, t_role^2); pad covers the rotation of the
            # block eigenvalues away from the scalar shifts.
            branch_coef, branch_pad = lam, (abs(blk.eigenvalues[-1].real - blk.eigenvalues[0].real)
                                            + 2 * abs(blk.coupling))
            if blk.kind == "E":
                # creation pair (s, s): divisor 2 Lambda_s + Omega.k
                pair((mass == -2) & (mom + 2 * s_role == 0), OMEGA_K_PLUS_PLUS,
                     (s_role, s_role), 2 * s_role * s_role, 2 * lam, branch_pad, 2)
            elif s_role != t_role:
                # zeta_s eta_t pair difference within the block
                pair((mass == 0) & (mom - s_role + t_role == 0), OMEGA_K_PLUS_MINUS,
                     (s_role, t_role), t_role * t_role - s_role * s_role, none, 2 * branch_pad, 3)

        for r, role in enumerate(roles):
            # single branches, one family per momentum content (for the
            # even-gap two-mode torus these force half-integer lattice
            # components, removing the families entirely)
            idx = every[(mass == -1) & (mom + role == 0)]
            emit(idx, OMEGA_K_PLUS_LAMBDA, (role,), I0[idx] + role * role, branch_coef,
                 branch_pad, r, block=b)
            # mixed: eigenvalue branch +- scalar Lambda_j
            for slot, sgn in ((4 + r, 1), (6 + r, -1)):
                idx = every[mass == -1 - sgn]
                j = -sgn * (mom[idx] + role)
                emit_with_scalar(idx, j, OMEGA_K_PLUS_PLUS if sgn > 0 else OMEGA_K_PLUS_MINUS,
                                 (role,), I0[idx] + role * role + sgn * j * j,
                                 branch_coef + sgn * lam, branch_pad, slot, block=b)

    del mass, mom, I0  # I0 now lives on only as a family's integer part
    order = np.argsort(np.concatenate(parts.pop("key")), kind="stable")

    def column(entries, dtype):
        """A column in row order, from one entry per family."""
        pieces = [np.broadcast_to(v, (size,)) for v, size in zip(entries, sizes)]
        return np.concatenate(pieces, dtype=dtype, casting="same_kind")[order]

    # each column is gathered once, releasing its per-family entries as it
    # goes, widest first
    int_part = column(parts.pop("int_part"), np.int64)
    modes = np.empty((len(order), 2), dtype=np.int32)
    modes[:, 0] = column(parts.pop("mode0"), np.int32)
    modes[:, 1] = column(parts.pop("mode1"), np.int32)
    lat = column(parts.pop("lat"), np.int32)
    kind, n_modes, block, pad, filtered, coef = zip(*families)
    return DivisorTable(
        lattice, lat=lat, family=column(range(len(families)), np.int32), modes=modes,
        int_part=int_part, labels=tuple(f"{blk.kind}{blk.modes}" for blk in eff.blocks),
        omega_coef=omega_coef, fam_kind=np.array(kind, dtype=np.int8),
        fam_n_modes=np.array(n_modes, dtype=np.int8), fam_block=np.array(block),
        fam_pad=np.array(pad, dtype=float), fam_filtered=np.array(filtered),
        fam_coef=np.array(coef))


def _resident(k: tuple[int, ...], k_max: int, L: int) -> np.ndarray:
    """Mask of +-k over the L-point lattice of ``enumerate_A2_expressions``,
    found by index: the lattice is the product-order cube of side
    2 k_max + 1 with its centre, zero, removed, so a point past the centre
    sits one place earlier than in the cube."""
    mask = np.zeros(L, dtype=bool)
    if 0 < max(abs(x) for x in k) <= k_max:
        side = (2 * k_max + 1,) * len(k)
        for s in (1, -1):
            at = int(np.ravel_multi_index([s * x + k_max for x in k], side))
            mask[at - (at > L // 2)] = True
    return mask
