"""The geometric side at desk scale: normalization and stratum identification.

Monic real polynomials are acted on by substitutions X -> rho*X + gamma with
rho > 0; outside the orbit of the pure powers (X + a)^n each orbit contains a
unique representative with vanishing second-highest coefficient and
coefficient norm one, found here by centering and a monotone bisection.

Stratum identification deliberately takes factored input with exact root
data; numerical multiplicity detection is ill-posed and out of scope.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .homology import InvariantError
from .strata import StratumCell


class PolynomialError(Exception):
    pass


class SigmaOrbitError(PolynomialError):
    """The polynomial is a pure power (X + a)^n, which has no normal form."""


@dataclass(frozen=True)
class MonicPolynomial:
    """X^n + c_{n-1} X^{n-1} + ... + c_0; coefficients ascending, exact or float."""

    coefficients: tuple  # (c_0, ..., c_{n-1})

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if not self.coefficients:
            raise PolynomialError("degree must be at least 1")

    @property
    def degree(self):
        return len(self.coefficients)

    def __call__(self, x):
        acc = 1
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def shifted(self, gamma):
        """Coefficients of f(X + gamma), again monic of the same degree."""
        n = self.degree
        coeffs = list(self.coefficients) + [1]
        out = [0] * (n + 1)
        # Horner expansion in (X + gamma)
        for c in reversed(coeffs):
            carry = 0
            for i in range(n + 1):
                out[i], carry = carry + gamma * out[i], out[i]
            out[0] += c
        return MonicPolynomial(tuple(out[:n]))

    def __str__(self):
        terms = ["X^%d" % self.degree]
        for i in range(self.degree - 1, -1, -1):
            c = self.coefficients[i]
            if c:
                terms.append("%+g*X^%d" % (float(c), i) if i else "%+g" % float(c))
        return " ".join(terms)


def parse_monic(text):
    """Ascending coefficient list including the leading 1, e.g. "1,-2,1"."""
    values = [Fraction(p.strip()) for p in text.split(",")]
    if len(values) < 2 or values[-1] != 1:
        raise PolynomialError("expected an ascending list ending in the leading 1")
    return MonicPolynomial(tuple(values[:-1]))


def _h(coeffs, n, rho):
    return sum((c / rho ** (n - i)) ** 2 for i, c in enumerate(coeffs))


def affine_normalize(f, tolerance=1e-12):
    """Normal form under X -> rho*X + gamma: (g, rho, gamma).

    gamma centers the polynomial (kills the X^(n-1) term); rho is the unique
    positive scale giving squared coefficient norm 1, found by bracketing and
    bisection on the strictly decreasing norm function.
    """
    n = f.degree
    gamma = -Fraction(f.coefficients[-1]) / n if isinstance(
        f.coefficients[-1], (int, Fraction)
    ) else -f.coefficients[-1] / n
    centered = f.shifted(gamma)
    body = [float(c) for c in centered.coefficients[: n - 1]]
    if all(c == 0 for c in centered.coefficients[: n - 1]):
        raise SigmaOrbitError("pure power (X + a)^n: %s" % f)
    exact = all(isinstance(c, (int, Fraction)) for c in centered.coefficients)
    if exact and sum(Fraction(c) ** 2 for c in centered.coefficients[: n - 1]) == 1:
        return centered, 1, gamma
    lo = hi = 1.0
    while _h(body, n, hi) > 1.0:
        hi *= 2.0
    while _h(body, n, lo) < 1.0:
        lo /= 2.0
    if not _h(body, n, lo) >= 1.0 >= _h(body, n, hi):
        raise PolynomialError("norm function failed to bracket 1")
    while hi - lo > tolerance * hi:
        mid = (lo + hi) / 2.0
        if not _h(body, n, lo) >= _h(body, n, mid) >= _h(body, n, hi):
            raise InvariantError("norm function must decrease across the bracket")
        if _h(body, n, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    rho = (lo + hi) / 2.0
    coeffs = tuple(
        float(c) / rho ** (n - i) for i, c in enumerate(centered.coefficients)
    )
    return MonicPolynomial(coeffs), rho, gamma


@dataclass(frozen=True)
class FactoredPolynomial:
    """Strictly increasing real roots with multiplicities, plus elliptic factors.

    Elliptic factors are pairs (p, q) standing for X^2 + p X + q with
    p^2 < 4 q.
    """

    real_roots: tuple  # ((root, multiplicity), ...), roots strictly increasing
    quadratics: tuple = ()

    def __post_init__(self):
        roots = tuple((Fraction(r), int(m)) for r, m in self.real_roots)
        quads = tuple((Fraction(p), Fraction(q)) for p, q in self.quadratics)
        object.__setattr__(self, "real_roots", roots)
        object.__setattr__(self, "quadratics", quads)
        for (r1, _), (r2, _) in zip(roots, roots[1:]):
            if not r1 < r2:
                raise PolynomialError("real roots must be strictly increasing")
        if any(m < 1 for _, m in roots):
            raise PolynomialError("multiplicities must be positive")
        for p, q in quads:
            if not p * p < 4 * q:
                raise PolynomialError(
                    "factor X^2 + %s X + %s has real roots" % (p, q)
                )

    @property
    def degree(self):
        return sum(m for _, m in self.real_roots) + 2 * len(self.quadratics)

    def expand(self):
        """The corresponding MonicPolynomial with exact coefficients."""
        coeffs = [Fraction(1)]
        for r, m in self.real_roots:
            for _ in range(m):
                coeffs = [0] + coeffs
                for i in range(len(coeffs) - 1):
                    coeffs[i] -= r * coeffs[i + 1]
        for p, q in self.quadratics:
            old = coeffs
            coeffs = [Fraction(0)] * (len(old) + 2)
            for i, c in enumerate(old):
                coeffs[i + 2] += c
                coeffs[i + 1] += p * c
                coeffs[i] += q * c
        return MonicPolynomial(tuple(coeffs[:-1]))


def cell_of(f):
    """The stratum cell of a factored polynomial: multiplicities in root order."""
    return StratumCell(tuple(m for _, m in f.real_roots), f.degree)


def stabilize(f, m):
    """Append (m - n)/2 copies of the factor X^2 + 1."""
    n = f.degree
    if m < n or (m - n) % 2:
        raise PolynomialError("target degree must be n + 2k")
    extra = tuple((Fraction(0), Fraction(1)) for _ in range((m - n) // 2))
    return FactoredPolynomial(f.real_roots, f.quadratics + extra)


_FACTOR = re.compile(r"\(([^()]*)\)(?:\^([0-9]+))?")
_LINEAR = re.compile(r"^x([+-][0-9]+(?:/[0-9]+)?)?$")
_QUADRATIC = re.compile(
    r"^x\^2(?:([+-](?:[0-9]+(?:/[0-9]+)?)?)\*?x)?([+-][0-9]+(?:/[0-9]+)?)?$"
)


def parse_factored(text):
    """Factored syntax like "(x-1)^2 (x-3) (x^2+1)"; exact rational constants."""
    roots = {}
    quads = []
    consumed = 0
    for match in _FACTOR.finditer(text):
        if text[consumed : match.start()].strip():
            raise PolynomialError(
                "cannot parse %r" % text[consumed : match.start()]
            )
        consumed = match.end()
        body = match.group(1).replace(" ", "").lower()
        exp = int(match.group(2) or 1)
        linear = _LINEAR.match(body)
        quadratic = _QUADRATIC.match(body)
        if linear:
            root = -Fraction(linear.group(1) or 0)
            roots[root] = roots.get(root, 0) + exp
        elif quadratic:
            raw_p = quadratic.group(1) or "0"
            if raw_p in ("+", "-"):
                raw_p += "1"  # bare +x / -x
            p = Fraction(raw_p)
            q = Fraction(quadratic.group(2) or 0)
            quads.extend([(p, q)] * exp)
        else:
            raise PolynomialError("cannot parse factor (%s)" % body)
    if text[consumed:].strip() or not (roots or quads):
        raise PolynomialError("cannot parse %r" % text)
    real = tuple(sorted(roots.items()))
    return FactoredPolynomial(real, tuple(quads))
