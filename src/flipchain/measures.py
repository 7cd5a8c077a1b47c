"""Cylinder measures on the base space and their modular functions.

Two measure families are implemented:

* ``Bernoulli(lam)``: the product measure with per-site weights
  (lam for outcome 0, 1-lam for outcome 1).  With ``lam`` given as a
  ``fractions.Fraction`` every weight, integral and modular-function value is
  computed in exact rational arithmetic.
* ``IsingBoltzmann(J)``: the nearest-neighbour Boltzmann measure at depth D,
  weight ``exp(H_D(p)) / Z_D`` with ``H_D(p) = -J * sum_k s_k s_{k+1}``
  (``s_k = +1`` for bit 0, ``-1`` for bit 1) and free ends.  The exponent is
  written without a separate inverse temperature; the sign and magnitude of J
  carry it.

Cylinder weights at different depths are projectively consistent, so every
function depending on finitely many sites has a well-defined integral.  Both
families transform under finite flips by a positive multiplier, the modular
function: ``weight(p ^ w) = weight(p) / delta((p, w))``.

Tables are built once per process for each (measure kind, exactness,
parameter, depth) and returned read-only: the weight tables, the Ising bond
coefficients, the prefix index and the per-site Bernoulli ratio rows that the
delta tables are multiplied from.  Delta tables themselves depend on the word
as well, so they are assembled from the cached pieces on every call (also
read-only).  Exactness is part of the key because ``Bernoulli(0.5) ==
Bernoulli(Fraction(1, 2))``, yet only the second one computes in rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .errors import DepthTooSmall, InvalidSpec
from .groupoid import FlipWord, GroupoidElement, Prefix, check_depth


_TABLES: dict = {}


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def _cached(key: tuple, build) -> np.ndarray:
    """The table stored under key, built (and made read-only) on first use."""
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = _read_only(build())
    return table


def _index(depth: int) -> np.ndarray:
    """The prefix masks 0 .. 2**depth - 1."""
    return _cached(("index", depth), lambda: np.arange(1 << depth))


def _site_bit(idx: np.ndarray, site: int) -> np.ndarray:
    return (idx >> (site - 1)) & 1


class CylinderFunction:
    """A function of the first `depth` coordinates, as a table of 2**depth values.

    Entry ``values[m]`` is the value at the prefix with bitmask m.  The dtype
    is whatever the caller supplies; object arrays of Fractions give exact
    arithmetic, float64/complex128 give the fast path.
    """

    __slots__ = ("depth", "values")

    def __init__(self, depth: int, values):
        check_depth(depth)
        arr = np.asarray(values)
        if arr.shape != (1 << depth,):
            raise ValueError(
                f"expected {1 << depth} values for depth {depth}, got {arr.shape}"
            )
        self.depth = depth
        self.values = arr

    @classmethod
    def constant(cls, value, depth: int = 0) -> "CylinderFunction":
        if isinstance(value, Fraction):
            arr = np.full(1 << depth, value, dtype=object)
        elif isinstance(value, complex):
            arr = np.full(1 << depth, value, dtype=np.complex128)
        else:
            arr = np.full(1 << depth, float(value))
        return cls(depth, arr)

    @classmethod
    def zero(cls, depth: int, dtype=np.float64) -> "CylinderFunction":
        if dtype is object:
            return cls(depth, np.zeros(1 << depth, dtype=object) + Fraction(0))
        return cls(depth, np.zeros(1 << depth, dtype=dtype))

    @classmethod
    def psi(cls, k: int, depth: int, exact: bool = False) -> "CylinderFunction":
        """The site observable: +1 where bit k is 0, -1 where it is 1."""
        if k < 1:
            raise ValueError(f"site indices are 1-based, got {k}")
        if depth < k:
            raise DepthTooSmall(f"psi_{k} needs depth >= {k}, got {depth}")
        vals = 1 - 2 * _site_bit(_index(depth), k)
        if exact:
            return cls(depth, np.array([int(v) for v in vals], dtype=object))
        return cls(depth, vals.astype(np.float64))

    @property
    def exact(self) -> bool:
        return self.values.dtype == object

    def __call__(self, p: Prefix):
        if p.depth < self.depth:
            raise DepthTooSmall(
                f"depth-{self.depth} function evaluated on depth-{p.depth} prefix"
            )
        return self.values[p.bits & ((1 << self.depth) - 1)]

    def lift(self, depth: int) -> "CylinderFunction":
        """The same function read at a greater depth (padding invariance)."""
        if depth == self.depth:
            return self
        if depth < self.depth:
            raise DepthTooSmall(f"cannot lower depth {self.depth} to {depth}")
        check_depth(depth)
        return CylinderFunction(depth, np.tile(self.values, 1 << (depth - self.depth)))

    def shift(self, word: FlipWord) -> "CylinderFunction":
        """The composed function x -> f(x ^ word)."""
        f = self.lift(max(self.depth, word.horizon))
        return CylinderFunction(f.depth, f.values[_index(f.depth) ^ word.mask])

    def conj(self) -> "CylinderFunction":
        return CylinderFunction(self.depth, np.conjugate(self.values))

    def _binary(self, other, op):
        if isinstance(other, CylinderFunction):
            d = max(self.depth, other.depth)
            return CylinderFunction(d, op(self.lift(d).values, other.lift(d).values))
        return CylinderFunction(self.depth, op(self.values, other))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    def __rmul__(self, other):
        return CylinderFunction(self.depth, other * self.values)

    def __neg__(self):
        return CylinderFunction(self.depth, -self.values)

    def __repr__(self):
        return f"CylinderFunction(depth={self.depth}, values={self.values!r})"


@dataclass(frozen=True)
class Bernoulli:
    """Product measure: weight lam for bit 0, 1-lam for bit 1, at every site."""

    lam: object  # float or Fraction in (0, 1)

    kind = "bernoulli"

    def __post_init__(self):
        lam = self.lam
        if not isinstance(lam, (float, Fraction)):
            raise InvalidSpec(f"lambda must be a float or Fraction, got {type(lam)}")
        if not 0 < lam < 1:
            raise InvalidSpec(f"lambda must lie strictly between 0 and 1, got {lam}")

    @property
    def exact(self) -> bool:
        return isinstance(self.lam, Fraction)

    def _key(self, *rest) -> tuple:
        # the parameter's type carries the exactness: 0.5 == Fraction(1, 2)
        return (self.kind, type(self.lam), self.lam) + rest

    def _pair(self):
        one = Fraction(1) if self.exact else 1.0
        return self.lam, one - self.lam

    def weight_table(self, depth: int) -> np.ndarray:
        check_depth(depth)
        return _cached(self._key("weight", depth), lambda: self._weights(depth))

    def _weights(self, depth: int) -> np.ndarray:
        w0, w1 = self._pair()
        dtype = object if self.exact else np.float64
        if depth == 0:
            return np.array([w0 + w1], dtype=dtype)  # the single weight 1
        site = np.array([w0, w1], dtype=dtype)
        # site k is bit k-1, so later sites occupy more significant bits.
        return reduce(lambda acc, _: np.kron(site, acc), range(depth - 1), site)

    def cylinder_weight(self, p: Prefix):
        if p.depth < 1:
            raise ValueError("cylinder weights need depth >= 1")
        w0, w1 = self._pair()
        out = w0 / w0  # exact or float one
        for k in range(1, p.depth + 1):
            out = out * (w1 if p.bit(k) else w0)
        return out

    def min_delta_depth(self, word: FlipWord) -> int:
        return word.horizon

    def _ratio(self):
        w0, w1 = self._pair()
        return w1 / w0  # (1 - lam) / lam

    def _delta_table_signed(self, word: FlipWord, depth: int, sign: int) -> np.ndarray:
        if depth < word.horizon:
            raise DepthTooSmall(
                f"delta for horizon {word.horizon} needs depth >= {word.horizon}"
            )
        check_depth(depth)
        acc = _cached(self._key("one", depth), lambda: self._ones(depth))
        for k in word.sites:
            acc = acc * _cached(
                self._key("ratio", depth, k, sign),
                lambda: self._ratio_row(depth, k, sign),
            )
        return _read_only(acc)

    def _ones(self, depth: int) -> np.ndarray:
        r = self._ratio()
        return np.full(1 << depth, r / r, dtype=object if self.exact else np.float64)

    def _ratio_row(self, depth: int, site: int, sign: int) -> np.ndarray:
        """The factor of one site in the delta (sign +1) or inverse (-1) table."""
        r = self._ratio()
        hi, lo = (r, 1 / r) if sign > 0 else (1 / r, r)
        return np.where(_site_bit(_index(depth), site) == 1, hi, lo)

    def delta_table(self, word: FlipWord, depth: int) -> np.ndarray:
        """Modular function ((x, word)) for every depth-`depth` prefix x."""
        return self._delta_table_signed(word, depth, +1)

    def delta_inv_table(self, word: FlipWord, depth: int) -> np.ndarray:
        return self._delta_table_signed(word, depth, -1)

    def delta(self, g: GroupoidElement):
        """Modular function of a single transition: prod ratio**(2 x_i - 1)."""
        if g.point.depth < g.flips.horizon:
            raise DepthTooSmall("prefix too shallow for the flip word")
        r = self._ratio()
        out = r / r
        for k in g.flips.sites:
            out = out * (r if g.point.bit(k) else 1 / r)
        return out

    def to_json(self) -> dict:
        lam = str(self.lam) if self.exact else float(self.lam)
        return {"kind": "bernoulli", "lambda": lam}


def ising_bond_coefficients(depth: int) -> np.ndarray:
    """Integer table C with C[p] = sum_{k<depth} s_k s_{k+1} at prefix p.

    The depth-D chain energy with free ends is H_D = -J * C.
    """
    check_depth(depth)
    return _cached(("bonds", depth), lambda: _bond_sums(depth))


def _bond_sums(depth: int) -> np.ndarray:
    idx = _index(depth)
    c = np.zeros(idx.shape, dtype=np.int64)
    for k in range(1, depth):
        s_k = 1 - 2 * _site_bit(idx, k)
        s_next = 1 - 2 * _site_bit(idx, k + 1)
        c += s_k * s_next
    return c


def ising_energy_coefficient(g: GroupoidElement) -> int:
    """S(g) in units of J: the integer with S = J * coefficient.

    Computed from the bonds touching a flipped site; the prefix must resolve
    every such bond, hence depth >= horizon + 1.
    """
    w = g.flips
    if not w:
        return 0
    if g.point.depth < w.horizon + 1:
        raise DepthTooSmall(
            f"transition energy needs depth >= {w.horizon + 1}, got {g.point.depth}"
        )
    bonds = set()
    for j in w.sites:
        if j >= 2:
            bonds.add(j - 1)
        bonds.add(j)
    src = g.point ^ w

    def s(p, k):
        return 1 - 2 * p.bit(k)

    # S = H(x ^ w) - H(x) = -J * sum_bonds (s s' at source - s s' at target),
    # so the J-coefficient is the negated bond-product difference.
    coeff = 0
    for k in sorted(bonds):
        coeff -= s(src, k) * s(src, k + 1) - s(g.point, k) * s(g.point, k + 1)
    return coeff


@dataclass(frozen=True)
class IsingBoltzmann:
    """Boltzmann measure of the free-end chain: weight exp(H_D) / Z_D."""

    J: float

    kind = "ising"
    exact = False

    def __post_init__(self):
        if not isinstance(self.J, (int, float)) or isinstance(self.J, bool):
            raise InvalidSpec(f"J must be a real number, got {type(self.J)}")
        if not math.isfinite(self.J):
            raise InvalidSpec(f"J must be finite, got {self.J}")

    def _key(self, *rest) -> tuple:
        return (self.kind, type(self.J), self.J) + rest

    def weight_table(self, depth: int) -> np.ndarray:
        check_depth(depth)
        key = self._key("weight", depth)
        if depth == 0:
            return _cached(key, lambda: np.array([1.0]))
        # read on every call, not only in the build, so that the calls into
        # the bond coefficients do not depend on what is already cached
        c = ising_bond_coefficients(depth)

        def build():
            w = np.exp(-self.J * c)
            return w / math.fsum(w)

        return _cached(key, build)

    def cylinder_weight(self, p: Prefix):
        if p.depth < 1:
            raise ValueError("cylinder weights need depth >= 1")
        return self.weight_table(p.depth)[p.bits]

    def min_delta_depth(self, word: FlipWord) -> int:
        return word.horizon + 1 if word else 0

    def _delta_exponent(self, word: FlipWord, depth: int) -> np.ndarray:
        if depth < self.min_delta_depth(word):
            raise DepthTooSmall(
                f"Ising delta for horizon {word.horizon} needs depth >= "
                f"{word.horizon + 1}"
            )
        check_depth(depth)
        c = ising_bond_coefficients(depth)
        # -S = J * (C[x ^ w] - C[x]); independent of depth >= horizon + 1.
        return self.J * (c[_index(depth) ^ word.mask] - c)

    def delta_table(self, word: FlipWord, depth: int) -> np.ndarray:
        return _read_only(np.exp(self._delta_exponent(word, depth)))

    def delta_inv_table(self, word: FlipWord, depth: int) -> np.ndarray:
        return _read_only(np.exp(-self._delta_exponent(word, depth)))

    def delta(self, g: GroupoidElement) -> float:
        return math.exp(-self.J * ising_energy_coefficient(g))

    def to_json(self) -> dict:
        return {"kind": "ising", "J": float(self.J)}


MeasureSpec = Bernoulli | IsingBoltzmann


def measure_from_json(doc: dict) -> MeasureSpec:
    """Parse {"kind":"bernoulli","lambda":...} or {"kind":"ising","J":...}."""
    try:
        kind = doc["kind"]
    except (TypeError, KeyError):
        raise InvalidSpec(f"measure document needs a 'kind' field: {doc!r}")
    if kind == "bernoulli":
        if "lambda" not in doc:
            raise InvalidSpec("bernoulli measure needs a 'lambda' field")
        return Bernoulli(parse_lambda(doc["lambda"]))
    if kind == "ising":
        if "J" not in doc:
            raise InvalidSpec("ising measure needs a 'J' field")
        return IsingBoltzmann(float(doc["J"]))
    raise InvalidSpec(f"unknown measure kind {kind!r}")


def parse_lambda(value) -> object:
    """Interpret a lambda parameter; strings parse exactly ('3/10', '0.3')."""
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    raise InvalidSpec(f"cannot interpret lambda value {value!r}")


def cylinder_weight(spec: MeasureSpec, p: Prefix):
    """Weight of the depth-D cylinder at prefix p."""
    return spec.cylinder_weight(p)


def modular_delta(spec: MeasureSpec, g: GroupoidElement):
    """The modular function of a transition under the given measure."""
    return spec.delta(g)


def integrate(spec: MeasureSpec, f: CylinderFunction):
    """Integral of a cylinder function against the measure.

    Exact inputs (rational weights and values) give an exact result; float
    inputs are accumulated with compensated summation, so the result does not
    depend on any chunking of the table.
    """
    weights = spec.weight_table(f.depth)
    if f.exact or weights.dtype == object:
        total = 0
        for v, w in zip(f.values.tolist(), weights.tolist()):
            total += v * w
        return total
    prod = f.values * weights
    if np.iscomplexobj(prod):
        return complex(math.fsum(prod.real), math.fsum(prod.imag))
    return math.fsum(prod)


def partition_function_brute(J: float, n: int) -> float:
    """Z_n as the explicit sum of exp(H_n) over all 2**n configurations."""
    if n < 1:
        raise ValueError("partition function needs n >= 1")
    check_depth(n)
    return math.fsum(np.exp(-J * ising_bond_coefficients(n)))


def partition_function(J: float, n: int) -> float:
    """Z_n by the transfer recursion over the last spin.

    Tracks the partial sums conditioned on the final spin value; each added
    site multiplies by the bond factor exp(-J s s').  Agrees with the brute
    force sum to floating-point accuracy.
    """
    if n < 1:
        raise ValueError("partition function needs n >= 1")
    up, down = 1.0, 1.0  # length-1 chain, conditioned on its single spin
    f_same, f_diff = math.exp(-J), math.exp(J)
    for _ in range(n - 1):
        up, down = f_same * up + f_diff * down, f_diff * up + f_same * down
    return up + down


def partition_function_closed_form(J: float, n: int) -> float:
    """The (2 cosh J)**n closed form; see partition_report.

    Disagrees with the free-end sum by one factor of 2 cosh J / 2: the
    recursion gives 2 * (2 cosh J)**(n-1).  Reported verbatim and flagged,
    never used as ground truth.
    """
    return (2.0 * math.cosh(J)) ** n


def partition_report(J: float, n: int, tol: float = 1e-12) -> dict:
    """Compare all partition-function routes and the ratio identity.

    The ratio identity Z_n / Z_k = (2 cosh J)**(n-k) holds for the free-end
    chain (and also under the quoted closed form); it is checked for every
    k < n.
    """
    brute = partition_function_brute(J, n)
    recursion = partition_function(J, n)
    closed = partition_function_closed_form(J, n)
    rel = abs(brute - recursion) / max(abs(brute), 1e-300)
    ratio_dev = 0.0
    for k in range(1, n):
        expected = (2.0 * math.cosh(J)) ** (n - k)
        got = brute / partition_function_brute(J, k)
        ratio_dev = max(ratio_dev, abs(got - expected) / abs(expected))
    flag = abs(closed - brute) / max(abs(brute), 1e-300) > tol
    return {
        "J": J,
        "n": n,
        "brute_force": brute,
        "recursion": recursion,
        "closed_form": closed,
        "rel_dev_brute_recursion": rel,
        "ratio_identity_max_rel_dev": ratio_dev,
        "discrepancy_flag": flag,
        "closed_form_over_brute": closed / brute,
    }


def pushforward_projection_check(spec: MeasureSpec, n: int, k: int) -> dict:
    """Verify that dropping the last n-k sites maps the depth-n measure onto
    the depth-k one.  Exhaustive over all 2**k cylinders."""
    if not n > k >= 1:
        raise ValueError(f"need n > k >= 1, got n={n}, k={k}")
    fine = spec.weight_table(n)
    coarse = spec.weight_table(k)
    # mask m = (high bits << k) + low bits: rows of the reshape are the
    # dropped-site patterns.
    marginal = fine.reshape(1 << (n - k), 1 << k).sum(axis=0)
    dev = np.abs(marginal - coarse)
    exact = bool(spec.exact and np.all(dev == 0))
    return {
        "measure": spec.to_json(),
        "n": n,
        "k": k,
        "max_abs_deviation": float(np.max(dev)),
        "exact_zero": exact,
    }


def translation_covariance_check(spec: MeasureSpec, w: FlipWord, depth: int) -> dict:
    """Verify weight(p ^ w) = delta((p, w))**-1 * weight(p) on every cylinder.

    This is the push-forward/Radon-Nikodym property of the measure under the
    flip action; the Ising case needs depth >= horizon + 1 so the energy
    difference is fully resolved (DepthTooSmall otherwise).
    """
    if depth < spec.min_delta_depth(w):
        raise DepthTooSmall(
            f"covariance check for horizon {w.horizon} needs depth >= "
            f"{spec.min_delta_depth(w)}, got {depth}"
        )
    weights = spec.weight_table(depth)
    lhs = weights[_index(depth) ^ w.mask]
    rhs = spec.delta_inv_table(w, depth) * weights
    dev = np.abs(lhs - rhs)
    if spec.exact:
        rel = max((d / r for d, r in zip(dev.tolist(), rhs.tolist())), default=0)
        return {
            "measure": spec.to_json(),
            "word": list(w.sites),
            "depth": depth,
            "max_rel_deviation": float(rel),
            "exact_zero": bool(np.all(dev == 0)),
        }
    rel = float(np.max(dev / rhs)) if len(dev) else 0.0
    return {
        "measure": spec.to_json(),
        "word": list(w.sites),
        "depth": depth,
        "max_rel_deviation": rel,
        "exact_zero": False,
    }
