"""Loss functions rho(.) and their local scaling behaviour.

A loss here is a function of the estimation error alone.  Power losses
rho(eps) = |eps|^t cover everything the bound engines quote numbers for;
custom losses are accepted wherever a bound only needs rho evaluations, but
the local (asymptotic) engines additionally need the scaling function

    omega(s) = lim_{u->0} rho(s*u) / rho(u),

which equals |s|^t for the power family and must be supplied explicitly for
anything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["LossSpec", "RatePower", "eval_rho", "omega"]


@dataclass(frozen=True)
class LossSpec:
    """A loss rho with the flags the engines route on.

    kind is "power" or "custom".  For power losses ``t`` is the exponent and
    convexity is decided by t >= 1.  Custom losses carry their evaluator and
    optionally an omega function, elementwise over arrays; without one they
    are rejected by the local engines.
    """

    kind: str
    t: Optional[float] = None
    evaluator: Optional[Callable[[float], float]] = None
    convex: bool = True
    symmetric: bool = True
    omega_fn: Optional[Callable[[float], float]] = None

    @staticmethod
    def power(t: float) -> "LossSpec":
        if not 0 < t < np.inf:
            raise ValueError("power loss needs a finite exponent t > 0")
        return LossSpec(kind="power", t=float(t), convex=t >= 1.0, symmetric=True)

    @staticmethod
    def mse() -> "LossSpec":
        return LossSpec.power(2.0)

    @staticmethod
    def custom(evaluator: Callable[[float], float], *, convex: bool,
               symmetric: bool, omega: Optional[Callable[[float], float]] = None
               ) -> "LossSpec":
        return LossSpec(kind="custom", evaluator=evaluator, convex=convex,
                        symmetric=symmetric, omega_fn=omega)

    def describe(self) -> str:
        """Short stable identifier used in reports and manifests."""
        if self.kind == "power":
            if self.t == 2.0:
                return "mse"
            if self.t == 1.0:
                return "mae"
            return f"power:{self.t:g}"
        return "custom"


@dataclass(frozen=True)
class RatePower:
    """Rate bookkeeping for local bounds.

    The test points contract at xi = v^(-xi_exponent) and the risk is
    normalized by zeta = v^(zeta_exponent), where v is the sample size n or
    the observation time T.  For a power-t loss, zeta_exponent = t * xi_exponent,
    since the normalizer is 1/rho(xi).
    """

    xi_exponent: float
    zeta_exponent: float
    variable: str = "n"

    def __post_init__(self):
        if not self.xi_exponent > 0:
            raise ValueError("xi_exponent must be positive")
        if not self.zeta_exponent > 0:
            raise ValueError("zeta_exponent must be positive")
        if self.variable not in ("n", "T"):
            raise ValueError("rate variable must be 'n' or 'T'")

    def with_power_loss(self, t: float) -> "RatePower":
        """Descriptor for the same contraction rate under a power-t loss."""
        return RatePower(self.xi_exponent, t * self.xi_exponent, self.variable)

    def render(self) -> str:
        return f"{self.variable}^{self.zeta_exponent:g}"


def eval_rho(loss: LossSpec, eps: float) -> float:
    """Evaluate rho(eps)."""
    if loss.kind == "power":
        return abs(eps) ** loss.t
    return float(loss.evaluator(eps))


def omega(loss: LossSpec, s):
    """Scaling function omega(s), elementwise over an array s (a custom
    omega_fn takes arrays too); |s|^t for power losses, by float_power, the C
    library's pow on arrays and scalars alike (power may use a SIMD pow on an
    array, off by an ulp from the scalar call)."""
    if loss.kind == "power":
        out = np.float_power(np.abs(s), loss.t)
    elif loss.omega_fn is None:
        raise ValueError("custom loss without a supplied omega is not usable "
                         "in local bounds")
    else:
        out = np.asarray(loss.omega_fn(s), dtype=float)
    return float(out) if np.ndim(out) == 0 else out
