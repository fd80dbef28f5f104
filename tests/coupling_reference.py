"""A block's coupling as ``normal_form.block_coupling`` computed it, apart
from the block builder, and the pair-creation pad that A2 took from it at a
second ``TorusSpec`` made at the box's upper corner: the references that
``_block``'s one coupling evaluation and ``small_divisors._pad_b_root``'s
box-edge bound reproduce bit for bit."""

from __future__ import annotations

import math
from typing import Sequence

from qnls.normal_form import TorusSpec, _rounded, coupling_count
from qnls.resonance import RESONANT_EXPONENTS


def block_coupling(spec: TorusSpec, kind: str, s: int, t: int, witness: Sequence[int]) -> float:
    """The coupling of the block of ``kind`` over ``witness`` with external
    modes s and t: ``coupling_count`` times nu^2 prod rho_m^{|k_m|/2}, that
    is nu^2 rho_a rho_b for two second-order factors and
    nu^2 rho_a sqrt(rho_b rho_c) for one second- and two first-order ones,
    taken at ``spec``'s rho."""
    k = RESONANT_EXPONENTS[kind]
    full = [spec.internal.index(m) for e, m in zip(k, witness) if abs(e) == 2]
    half = [spec.internal.index(m) for e, m in zip(k, witness) if abs(e) == 1]
    coupling = coupling_count(kind, witness, s, t) * spec.nu**2
    num, den2 = spec._rho_num, spec._rho_den**2
    if half:
        return coupling * spec.rho_float[full[0]] * math.sqrt(
            _rounded(num[half[0]] * num[half[1]], den2))
    return coupling * _rounded(num[full[0]] * num[full[1]], den2)


def _pad_b_root(spec: TorusSpec, blk, amax: float) -> float:
    """Uniform bound on |sqrt(a^2 - c^2)| of the pair-creation block over the
    domain (covers both the real and the imaginary branch); ``amax`` bounds
    |a| there, and the coupling c, increasing in every rho, is bounded by
    its value at the domain's upper corner."""
    corner = TorusSpec(spec.internal, tuple(hi for _, hi in spec.domain), spec.nu)
    return math.hypot(amax, block_coupling(corner, blk.kind, *blk.modes, blk.witness))
