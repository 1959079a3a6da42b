"""Hecke-eigenvalue polynomials, local L-factors as truncated series,
the Rankin-Selberg style root-pairing operation, Newton power sums,
place-pair arithmetic, spectral summands, and the numeric bound checks.

Eigenvalue multisets are never stored as roots: a parameter set is the
polynomial prod (1 - z_i T) by its ascending coefficient list (constant
term 1, nonzero leading coefficient), and all structural computation is
exact on coefficients.  Floats appear only in check_bounds, which
extracts roots numerically under a documented tolerance
(`SatakeParams.float_roots`).  numpy is imported inside that call, not
with this module, so only `lfun bounds` and selftest criterion 11
(`acceptance`) load it.  The
root-pairing operation and the power sums share one implementation of
Newton's identities: the pairing is the composed product, whose power
sums are the products of its factors' power sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    InvalidData,
    NonIntegralExponent,
    NonInvertibleRoots,
    RootFindingFailed,
    TooLarge,
)


@dataclass(frozen=True)
class SatakeParams:
    """prod_{i=1}^r (1 - z_i T) by ascending coefficients."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0] != 1:
            raise InvalidData("constant coefficient must be 1")
        if len(self.coeffs) >= 2 and self.coeffs[-1] == 0:
            raise InvalidData("leading coefficient must be nonzero (roots nonzero)")

    @staticmethod
    def from_coeffs(vals) -> "SatakeParams":
        return SatakeParams(tuple(Fraction(v) for v in vals))

    @staticmethod
    def from_roots(roots) -> "SatakeParams":
        coeffs = [Fraction(1)]
        for z in roots:
            z = Fraction(z)
            coeffs = [a - z * b for a, b in zip(coeffs + [Fraction(0)], [Fraction(0)] + coeffs)]
        return SatakeParams(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def float_roots(self):
        """The z_i as complex floats (reciprocals of the T-roots)."""
        if self.degree == 0:
            return []
        import numpy as np

        try:
            desc = [float(c) for c in reversed(self.coeffs)]
        except OverflowError:
            raise RootFindingFailed("a coefficient is past the float range") from None
        try:
            troots = np.roots(desc)
        except Exception as e:  # pragma: no cover - numpy failure
            raise RootFindingFailed(str(e)) from e
        if len(troots) != self.degree or any(abs(t) < 1e-300 for t in troots):
            raise RootFindingFailed("unreliable root extraction")
        return [1 / t for t in troots]


@dataclass(frozen=True)
class PlaceData:
    deg: int
    params: SatakeParams

    def __post_init__(self):
        if self.deg < 1:
            raise InvalidData("place degree must be >= 1")


@dataclass(frozen=True)
class PowerSeries:
    """Truncated power series: coefficients c_0 ... c_D."""

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise InvalidData("coefficient list must have length order+1")

    @staticmethod
    def one(order: int) -> "PowerSeries":
        return PowerSeries(order, (Fraction(1),) + (Fraction(0),) * order)

    def mul(self, other: "PowerSeries") -> "PowerSeries":
        d = min(self.order, other.order)
        out = [Fraction(0)] * (d + 1)
        for i, a in enumerate(self.coeffs[: d + 1]):
            if a:
                for j in range(d + 1 - i):
                    out[i + j] += a * other.coeffs[j]
        return PowerSeries(d, tuple(out))


def local_factor(pd: PlaceData, order: int) -> PowerSeries:
    """Series of 1 / P(T^deg) to the given order, by exact division."""
    if order < 0:
        raise InvalidData("order must be >= 0")
    denom = [Fraction(0)] * (order + 1)
    for k, c in enumerate(pd.params.coeffs):
        if k * pd.deg <= order:
            denom[k * pd.deg] = c
    top = pd.params.degree * pd.deg  # denom[k] is zero past it
    out = [Fraction(0)] * (order + 1)
    out[0] = Fraction(1)
    for m in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, min(m, top) + 1):
            if denom[k]:
                acc += denom[k] * out[m - k]
        out[m] = -acc
    return PowerSeries(order, tuple(out))


def partial_l(places, order: int) -> PowerSeries:
    """Product of the local factors, truncated; independent of order of
    the place list."""
    if order < 0:  # before PowerSeries.one, which would fail on its length
        raise InvalidData("order must be >= 0")
    acc = PowerSeries.one(order)
    for pd in places:
        acc = acc.mul(local_factor(pd, order))
    return acc


# ---------------------------------------------------------------------------
# the root-pairing operation


def _power_sums(coeffs, count: int) -> list[Fraction]:
    """[p_1, ..., p_count] of the z_i of prod (1 - z_i T), by Newton's
    identities p_k = -k c_k - sum_{0<i<k} c_i p_{k-i} (c_i = 0 past the
    degree)."""
    ps: list[Fraction] = []
    for k in range(1, count + 1):
        acc = Fraction(-k * coeffs[k] if k < len(coeffs) else 0)
        for i in range(1, min(k, len(coeffs))):
            acc -= coeffs[i] * ps[k - i - 1]
        ps.append(acc)
    return ps


def _coeffs_from_power_sums(ps) -> list[Fraction]:
    """Ascending coefficients of prod (1 - z_i T) of degree len(ps) from
    the power sums of the z_i: Newton's identities solved for c_k."""
    coeffs = [Fraction(1)]
    for k in range(1, len(ps) + 1):
        acc = ps[k - 1]
        for i in range(1, k):
            acc += coeffs[i] * ps[k - i - 1]
        coeffs.append(-acc / k)
    return coeffs


def star_convolve(a: SatakeParams, b: SatakeParams) -> SatakeParams:
    """The parameter set with roots {alpha_i beta_j}: the composed
    product.  Its power sums are p_k(A) p_k(B), and Newton's identities
    map the first deg A * deg B of them back to coefficients (Bostan,
    Flajolet, Salvy, Schost, J. Symb. Comput. 41, 2006)."""
    ra, rb = a.degree, b.degree
    if ra == 0 or rb == 0:
        return b if ra == 0 else a
    deg_c = ra * rb
    ps = [x * y for x, y in zip(_power_sums(a.coeffs, deg_c), _power_sums(b.coeffs, deg_c))]
    return SatakeParams(tuple(_coeffs_from_power_sums(ps)))


def power_sum(p: SatakeParams, nu: int) -> Fraction:
    """S^(nu) = sum z_i^nu by Newton's identities on the coefficients;
    negative nu uses the reciprocal-root polynomial."""
    if nu == 0:
        raise InvalidData("nu must be nonzero")
    if p.degree == 0:
        return Fraction(0)
    if nu < 0:
        if p.coeffs[-1] == 0:
            raise NonInvertibleRoots("leading coefficient vanishes")
        lead = p.coeffs[-1]
        rev = tuple(c / lead for c in reversed(p.coeffs))
        return power_sum(SatakeParams(rev), -nu)
    return _power_sums(p.coeffs, nu)[-1]


def place_pair_stats(deg_inf: int, deg_o: int) -> tuple[int, int]:
    """(gcd, lcm): the number of closed points of the product place and
    their common residue degree."""
    if deg_inf < 1 or deg_o < 1:
        raise InvalidData("degrees must be positive")
    d = gcd(deg_inf, deg_o)
    return d, deg_inf * deg_o // d


def spectral_term(
    trace_pi: Fraction,
    r: int,
    deg_xi: int,
    n: int,
    params_inf: SatakeParams,
    deg_inf: int,
    params_o: SatakeParams,
    deg_o: int,
    q: int,
) -> Fraction:
    """q^{(r-1) deg(xi) n} * Tr * S_inf^{(-deg(xi) n / deg(inf))}
    * S_o^{(deg(xi) n / deg(o))}, exact when the exponents are integral."""
    if n < 1 or deg_xi < 1:
        raise InvalidData("deg(xi) and n must be positive")
    if r < 1:
        raise InvalidData("r must be at least 1")
    if q < 2:
        raise InvalidData("q must be at least 2")
    if deg_inf < 1 or deg_o < 1:
        raise InvalidData("place degrees must be positive")
    total = deg_xi * n
    if total % deg_inf != 0 or total % deg_o != 0:
        raise NonIntegralExponent(
            f"deg(xi) n = {total} not divisible by both place degrees"
        )
    s_inf = power_sum(params_inf, -(total // deg_inf))
    s_o = power_sum(params_o, total // deg_o)
    return Fraction(q) ** ((r - 1) * total) * Fraction(trace_pi) * s_inf * s_o


def check_bounds(pd: PlaceData, q: int, mode: str, tol: float) -> bool:
    """Numeric eigenvalue bounds.

    mode "JS": every |z_i|^{1/deg} strictly inside
    (q^{-1/2} + tol, q^{1/2} - tol); mode "RP": every |z_i| within tol
    of 1.  Roots are extracted with floating point at tolerance tol."""
    if not 0 < tol < 1:
        raise InvalidData("tolerance must be in (0, 1)")
    if q < 2:
        raise InvalidData("q must be at least 2")
    mode = mode.upper()
    if mode not in ("JS", "RP"):
        raise InvalidData("mode must be JS or RP")
    roots = pd.params.float_roots()
    if mode == "RP":
        return all(abs(abs(z) - 1.0) <= tol for z in roots)
    try:
        lo, hi = q ** (-0.5), q**0.5
    except OverflowError:
        raise TooLarge("q is past the float range of the bound check") from None
    for z in roots:
        mag = abs(z) ** (1.0 / pd.deg)
        if not (lo + tol < mag < hi - tol):
            return False
    return True


def is_rank_splittable(charpoly_table, candidates_1, candidates_2) -> bool:
    """Does every table entry factor as the root-pairing of the two
    per-place candidates?  The checkable shadow of the bookkeeping that
    declares a table negligible for the current rank."""
    for (x, y), params in charpoly_table.items():
        if x not in candidates_1 or y not in candidates_2:
            return False
        expected = star_convolve(candidates_1[x], candidates_2[y])
        if expected.coeffs != params.coeffs:
            return False
    return True
