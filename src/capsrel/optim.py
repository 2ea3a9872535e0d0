"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np

from .autodiff import NonFiniteError, ShapeError, Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Bias-corrected Adam over a name -> Tensor dict (default lr 0.001)."""

    def __init__(self, params: dict[str, Tensor], lr: float = 0.001):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        """Apply one update from the accumulated gradients.

        Parameters with no gradient this round are left untouched (their
        moments do not advance either, keeping disconnected parameters
        exactly fixed).
        """
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ShapeError(
                    f"gradient shape {g.shape} does not match parameter "
                    f"{name!r} shape {p.data.shape}")
            if not np.all(np.isfinite(g)):
                raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)

    def state_dict(self) -> dict:
        return {
            "step": self.step_count,
            "m": {k: a.tolist() for k, a in self.m.items()},
            "v": {k: a.tolist() for k, a in self.v.items()},
        }

    def load_state_dict(self, state: dict) -> None:
        self.step_count = int(state["step"])
        for k in self.m:
            self.m[k] = np.asarray(state["m"][k], dtype=np.float64).reshape(
                self.m[k].shape)
            self.v[k] = np.asarray(state["v"][k], dtype=np.float64).reshape(
                self.v[k].shape)
