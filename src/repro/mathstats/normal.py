"""Normal distributions, their non-central moments (Table 3), and ``erfinv``."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["NormalDistribution", "erfinv", "noncentral_moment"]

# Wichura's AS241 (PPND16) rational approximations of the normal
# quantile, highest power first: numerator, then denominator (whose
# constant term is 1). Relative error about 1e-16 in each region.
_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
_INTERMEDIATE = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0, 1.0),
)
_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_SQRT2 = math.sqrt(2.0)


def _ratio(coefficients, r: float) -> float:
    (a7, a6, a5, a4, a3, a2, a1, a0), (b7, b6, b5, b4, b3, b2, b1, b0) = coefficients
    top = ((((((a7 * r + a6) * r + a5) * r + a4) * r + a3) * r + a2) * r + a1) * r + a0
    bottom = ((((((b7 * r + b6) * r + b5) * r + b4) * r + b3) * r + b2) * r + b1) * r + b0
    return top / bottom


def erfinv(y: float) -> float:
    """The inverse error function: the ``x`` with ``erf(x) == y``.

    Wichura's AS241 normal quantile at ``p = (1 + |y|) / 2``, divided by
    ``sqrt(2)``, then one Newton step. The step corrects on
    ``math.erf`` for ``|y| <= 0.5``; beyond, it corrects on
    ``math.erfc`` against ``1 - |y|``, which is exact there, because
    ``erf`` cannot resolve the tails. The result is within 4 ulp of
    ``scipy.special.erfinv`` (``tests/test_numerics.py``), odd to the
    bit, ``erfinv(0.0) == 0.0``, ``erfinv(±1) == ±inf``, and NaN
    outside ``[-1, 1]``.
    """
    a = abs(y)
    if not a < 1.0:
        return math.copysign(math.inf, y) if a == 1.0 else math.nan
    if a <= 0.85:
        # AS241's central region |p - 1/2| <= 0.425, where p - 1/2 = a/2.
        q = 0.5 * a
        x = q * _ratio(_CENTRAL, 0.180625 - q * q) / _SQRT2
    else:
        r = math.sqrt(-math.log(0.5 * (1.0 - a)))
        if r <= 5.0:
            x = _ratio(_INTERMEDIATE, r - 1.6) / _SQRT2
        else:
            x = _ratio(_FAR, r - 5.0) / _SQRT2
    if x == 0.0:
        return y
    slope = _TWO_OVER_SQRT_PI * math.exp(-x * x)
    if a <= 0.5:
        x -= (math.erf(x) - a) / slope
    else:
        x += (math.erfc(x) - (1.0 - a)) / slope
    return math.copysign(x, y)


def noncentral_moment(mean: float, variance: float, k: int) -> float:
    """E[X^k] for X ~ N(mean, variance).

    Uses the recursion m_k = mean * m_{k-1} + (k-1) * variance * m_{k-2},
    which reproduces Table 3 of the paper for k <= 4 and extends to any k.
    """
    if k < 0:
        raise ValueError(f"moment order must be nonnegative, got {k}")
    previous, current = 1.0, mean  # m_0, m_1
    if k == 0:
        return previous
    for order in range(2, k + 1):
        previous, current = current, mean * current + (order - 1) * variance * previous
    return current


@dataclass(frozen=True)
class NormalDistribution:
    """N(mean, variance) with the operations the predictor needs."""

    mean: float
    variance: float

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError(f"negative variance: {self.variance}")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def pdf(self, x: float) -> float:
        if self.variance == 0:
            return math.inf if x == self.mean else 0.0
        z = (x - self.mean) / self.std
        return math.exp(-0.5 * z * z) / (self.std * math.sqrt(2 * math.pi))

    def cdf(self, x: float) -> float:
        if self.variance == 0:
            return 1.0 if x >= self.mean else 0.0
        z = (x - self.mean) / (self.std * math.sqrt(2))
        return 0.5 * (1.0 + math.erf(z))

    def quantile(self, p: float) -> float:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {p}")
        if self.variance == 0:
            return self.mean
        return self.mean + self.std * math.sqrt(2) * erfinv(2 * p - 1)

    def interval(self, confidence: float) -> tuple[float, float]:
        """Central interval containing ``confidence`` probability mass."""
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        tail = (1.0 - confidence) / 2.0
        return self.quantile(tail), self.quantile(1.0 - tail)

    def prob_within(self, low: float, high: float) -> float:
        """P(low <= X <= high), treating the interval as closed.

        The degenerate variance == 0 case is a point mass at the mean:
        all the probability lies inside any interval containing the mean.
        The generic cdf difference would get the boundary wrong there
        (cdf is right-continuous, so cdf(mean) - cdf(mean - eps) = 1 but
        cdf(mean + eps) - cdf(mean) = 0); for a continuous normal the
        open/closed distinction is immaterial.
        """
        if self.variance == 0:
            return 1.0 if low <= self.mean <= high else 0.0
        return max(self.cdf(high) - self.cdf(low), 0.0)

    def moment(self, k: int) -> float:
        return noncentral_moment(self.mean, self.variance, k)

    def scale(self, factor: float) -> "NormalDistribution":
        return NormalDistribution(self.mean * factor, self.variance * factor * factor)

    def shift(self, offset: float) -> "NormalDistribution":
        return NormalDistribution(self.mean + offset, self.variance)

    def __add__(self, other: "NormalDistribution") -> "NormalDistribution":
        """Sum of independent normals."""
        return NormalDistribution(
            self.mean + other.mean, self.variance + other.variance
        )
