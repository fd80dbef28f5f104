"""The split-step kernel as ``sim._SplitStep.run`` stepped with eleven numpy
calls a step: |u|^2 as ur * ur plus ui * ui in a second N-point buffer, and
every ``out`` passed by keyword.  The reference that the ten-call kernel
reproduces bit for bit."""

from __future__ import annotations

import numpy as np

from qnls.sim import GridSpec, _pfu, _SplitStep


class ElevenCallSplitStep(_SplitStep):
    """``_SplitStep`` with the eleven-call ``run``, kept verbatim."""

    def __init__(self, grid: GridSpec, a: np.ndarray):
        super().__init__(grid, a)
        self.w2 = np.empty(grid.N)

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
