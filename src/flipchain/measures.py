"""Cylinder measures on the base space and their modular functions.

Two measure families are implemented:

* ``Bernoulli(lam)``: the product measure with per-site weights
  (lam for outcome 0, 1-lam for outcome 1).  A ``fractions.Fraction`` lam = a/q
  makes every table exact: weight a**(D-|x|) b**|x| / q**D, with b = q - a,
  and delta b**2k a**2(m-k) / (ab)**m for an m-site word with k ones in x.
* ``IsingBoltzmann(J)``: the nearest-neighbour Boltzmann measure at depth D,
  weight ``exp(H_D(p)) / Z_D`` with ``H_D(p) = -J * sum_k s_k s_{k+1}``
  (``s_k = +1`` for bit 0, ``-1`` for bit 1) and free ends.  The exponent is
  written without a separate inverse temperature; the sign and magnitude of J
  carry it.  The energy difference of a flip, S = H(p ^ w) - H(p), has one
  table, ``ising_energy_table`` (in units of J): the delta table e^{-S} and
  the energy table both read it.

Cylinder weights at different depths are projectively consistent, so every
function depending on finitely many sites has a well-defined integral.  Both
families transform under finite flips by a positive multiplier, the modular
function: ``weight(p ^ w) = weight(p) / delta((p, w))``.

Each measure owns the generator of its modular flow (``ising.tt_evolve``),
the transition energy S = -log delta, as ``energy_table``: delta = e^{-S} for
both families.  The Bernoulli energy is ``step * -k`` on the integer index k
of ``lattice_table``.  The integer prefix tables are bit counts: the index
k = 2 popcount(x & w) - popcount(w), the Ising bond sum C = b - 2
popcount(B(x)) with the bond map B(x) = (x ^ (x >> 1)) & (2**b - 1) of the
b = D - 1 bonds, and the popcounts by which exact tables gather their few
distinct values, whose integer numerators the exact checks compare over one
denominator.  Float delta tables stay per-site products, because deltas
gathered or built as ratio**k would round differently.

Tables are built once per process for each (measure kind, exactness,
parameter, depth) and returned read-only: the weight tables, the Ising bond
coefficients, the prefix index and the float Bernoulli ratio rows.  Delta
tables depend on the word, so each call assembles its own (read-only).
Exactness is in the key, since ``Bernoulli(0.5) == Bernoulli(Fraction(1, 2))``.

The inverse delta table is the delta table read across the flip: delta is a
cocycle, so delta((x, w))**-1 = delta((x ^ w, w)).  Read at x ^ w, each
Bernoulli site row is the inverse site factor, and the Ising energy changes
sign, so the gather gives the same bits as a separate inverse build would.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .errors import DepthTooSmall, InvalidSpec
from .groupoid import FlipWord, check_depth


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


def _bit_count(bits: np.ndarray) -> np.ndarray:
    """The number of set bits of every entry, as int64."""
    return np.bitwise_count(bits).astype(np.int64)


def _across_flip(delta: np.ndarray, word: FlipWord, depth: int) -> np.ndarray:
    """A word's delta table read at x ^ word: the inverse table, by the cocycle law."""
    return _read_only(delta[_index(depth) ^ word.mask])


def _exceeds(dev: float, worst: float) -> bool:
    """Whether dev is worse than worst: NaN beats every number (max() would drop it)."""
    return not (math.isnan(worst) or dev <= worst)


def _worse(worst: float, dev: float) -> float:
    """The larger deviation, NaN if either one is."""
    return dev if _exceeds(dev, worst) else worst


def worst_by_check(rows) -> tuple[dict, dict]:
    """Worst deviation per check over (witness, {check: deviation}) rows.

    Worsts start at 0.0, keep the first row's key order, and NaN beats every
    number.  A check's witness is that of the first row to reach its worst;
    there is none while the worst is 0.0.
    """
    worst, witness = {}, {}
    for wit, devs in rows:
        for key, dev in devs.items():
            if _exceeds(dev, worst.setdefault(key, 0.0)):
                worst[key] = dev
                witness[key] = wit
    return worst, witness


def _max_abs_rows(rows: np.ndarray) -> np.ndarray:
    """Largest absolute entry of every row of a 2-d table, as float64: 0.0
    for a row without entries, NaN where any entry is NaN."""
    if rows.dtype == object:  # Fractions or Python complex, read as float once
        rows = np.abs(rows).astype(np.float64)
    if np.iscomplexobj(rows):
        return np.abs(rows).max(axis=1, initial=0.0)
    # the two extremes give the same value without an |rows| copy of the
    # input; 0.0 + and 0.0 - read -0.0 as 0.0 and integers as float
    return np.maximum(0.0 + rows.max(axis=1, initial=0), 0.0 - rows.min(axis=1, initial=0))


def _max_abs(arr: np.ndarray) -> float:
    """Largest absolute entry; NaN if any entry is NaN."""
    return float(_max_abs_rows(arr.reshape(1, -1))[0])


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
            return cls(depth, np.full(1 << depth, value, dtype=object))
        return cls(depth, np.full(1 << depth, float(value)))

    @classmethod
    def psi(cls, k: int, depth: int, exact: bool = False) -> "CylinderFunction":
        """The site observable: +1 where bit k is 0, -1 where it is 1."""
        if k < 1:
            raise ValueError(f"site indices are 1-based, got {k}")
        if depth < k:
            raise DepthTooSmall(f"psi_{k} needs depth >= {k}, got {depth}")
        vals = 1 - 2 * _site_bit(_index(depth), k)
        return cls(depth, vals.astype(object if exact else np.float64))

    @property
    def exact(self) -> bool:
        return self.values.dtype == object

    def lift(self, depth: int) -> "CylinderFunction":
        """The same function read at a greater depth (padding invariance)."""
        if depth == self.depth:
            return self
        if depth < self.depth:
            raise DepthTooSmall(f"cannot lower depth {self.depth} to {depth}")
        check_depth(depth)
        return CylinderFunction(depth, np.tile(self.values, 1 << (depth - self.depth)))

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

    def _ints(self, depth: int, word: FlipWord | None = None) -> tuple[list, int, np.ndarray]:
        """The exact weight (no word) or delta table as its distinct numerators
        x**(m-j) y**j, their denominator and each prefix's popcount j."""
        a, q = self.lam.as_integer_ratio()
        b = q - a
        x, y, base, m, mask = ((a, b, q, depth, -1) if word is None else
                               (a * a, b * b, a * b, word.mask.bit_count(), word.mask))
        return ([x ** (m - j) * y ** j for j in range(m + 1)], base ** m,
                _bit_count(_index(depth) & mask))

    def _fractions(self, depth: int, word: FlipWord | None = None) -> np.ndarray:
        row, den, counts = self._ints(depth, word)
        return _read_only(np.array([Fraction(n, den) for n in row], dtype=object)[counts])

    def weight_table(self, depth: int) -> np.ndarray:
        check_depth(depth)
        return _cached(self._key("weight", depth), lambda: self._weights(depth))

    def _weights(self, depth: int) -> np.ndarray:
        if self.exact:
            return self._fractions(depth)
        site = np.array([self.lam, 1.0 - self.lam])
        # site k is bit k-1, so later sites occupy more significant bits.
        return reduce(lambda acc, _: np.kron(site, acc), range(depth), np.ones(1))

    def min_delta_depth(self, word: FlipWord) -> int:
        return word.horizon

    @property
    def step(self) -> float:
        """The lattice spacing log((1 - lam) / lam) of the energies."""
        return math.log((1 - float(self.lam)) / float(self.lam))

    def max_log_delta(self, depth: int) -> float:
        """The largest |log delta| of a word at depth, depth |log(b / a)| for
        the word of every site; also the spread of the log-weights there."""
        a, q = self.lam.as_integer_ratio()
        return depth * abs(math.log(q - a) - math.log(a))  # exact ints: no float cast to overflow

    def lattice_table(self, word: FlipWord, depth: int) -> np.ndarray:
        """Integer table of k = sum over flipped sites of (2 x_j - 1), the
        exact lattice index of log delta = step * k."""
        if depth < word.horizon:
            raise DepthTooSmall(f"horizon {word.horizon} needs depth >= {word.horizon}")
        return 2 * _bit_count(_index(depth) & word.mask) - word.mask.bit_count()

    def energy_table(self, word: FlipWord, depth: int) -> np.ndarray:
        """The transition energy S = -log delta = step * -k."""
        return self.step * -self.lattice_table(word, depth)

    def _ratio_row(self, depth: int, site: int) -> np.ndarray:
        """The factor of one site in the delta table: r where its bit is 1, else 1/r."""
        r = (1.0 - self.lam) / self.lam
        return np.where(_site_bit(_index(depth), site) == 1, r, 1 / r)

    def delta_table(self, word: FlipWord, depth: int) -> np.ndarray:
        """Modular function ((x, word)) for every depth-`depth` prefix x."""
        if depth < word.horizon:
            raise DepthTooSmall(
                f"delta for horizon {word.horizon} needs depth >= {word.horizon}"
            )
        check_depth(depth)
        if self.exact:
            return self._fractions(depth, word)
        acc = _cached(("ones", depth), lambda: np.ones(1 << depth))
        for k in word.sites:
            acc = acc * _cached(self._key("ratio", depth, k),
                                lambda: self._ratio_row(depth, k))
        return _read_only(acc)

    def delta_inv_table(self, word: FlipWord, depth: int) -> np.ndarray:
        return _across_flip(self.delta_table(word, depth), word, depth)

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
    """C = b - 2 * (broken bonds), b = depth - 1 the bond count: bond k, between
    sites k and k + 1, is bit k - 1 of the bond map B(x) = x ^ (x >> 1)."""
    idx, bonds = _index(depth), max(depth - 1, 0)
    return bonds - 2 * _bit_count((idx ^ idx >> 1) & ((1 << bonds) - 1))


def ising_energy_table(word: FlipWord, depth: int) -> np.ndarray:
    """Integer table of S / J = C[x] - C[x ^ word], where S(x, w) = H(x ^ w) -
    H(x) is the transition energy; depth >= horizon + 1 resolves every bond.

    Callers multiply by J after the integer difference: J * (-k) == -(J * k)
    bit for bit, so the energy and both delta tables round alike.
    """
    if word and depth < word.horizon + 1:
        raise DepthTooSmall(f"Ising energy for horizon {word.horizon} needs "
                            f"depth >= {word.horizon + 1}, got {depth}")
    c = ising_bond_coefficients(depth)
    return c - c[_index(depth) ^ word.mask]


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
        # read on every call, not only in the build, so that the calls into
        # the bond coefficients do not depend on what is already cached
        c = ising_bond_coefficients(depth)

        def build():
            w = np.exp(-self.J * c)
            return w / math.fsum(w)

        return _cached(self._key("weight", depth), build)

    def min_delta_depth(self, word: FlipWord) -> int:
        return word.horizon + 1 if word else 0

    def max_log_delta(self, depth: int) -> float:
        """The largest |log delta| of a word at depth, 2 |J| (depth - 1): a word
        of alternate sites turns every bond; also the spread of the log-weights."""
        return 2 * abs(self.J) * max(depth - 1, 0)

    def delta_table(self, word: FlipWord, depth: int) -> np.ndarray:
        """e^{-S}; independent of depth >= horizon + 1."""
        return _read_only(np.exp(-self.J * ising_energy_table(word, depth)))

    def delta_inv_table(self, word: FlipWord, depth: int) -> np.ndarray:
        return _across_flip(self.delta_table(word, depth), word, depth)

    def energy_table(self, word: FlipWord, depth: int) -> np.ndarray:
        """The transition energy S = -log delta = H(x ^ w) - H(x)."""
        return float(self.J) * ising_energy_table(word, depth)

    def to_json(self) -> dict:
        return {"kind": "ising", "J": float(self.J)}


MeasureSpec = Bernoulli | IsingBoltzmann


def parse_lambda(value) -> object:
    """Interpret a lambda parameter; strings parse exactly ('3/10', '0.3')."""
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise InvalidSpec(f"lambda {value!r} has a zero denominator") from None
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise InvalidSpec(f"cannot interpret lambda value {value!r}")


def integrate(spec: MeasureSpec, f: CylinderFunction):
    """Integral of a cylinder function against the measure.

    Exact inputs (rational weights and values) give an exact result; float
    inputs are accumulated with compensated summation, so the result does not
    depend on any chunking of the table.
    """
    return _integrate_rows(spec, f.depth, f.values[None, :])[0]


def _integrate_rows(spec: MeasureSpec, depth: int, rows: np.ndarray) -> list:
    """The integral of every row of a (rows, 2**depth) table, as integrate
    gives it."""
    weights = spec.weight_table(depth)
    if rows.dtype == object or weights.dtype == object:
        weights = weights.tolist()
        out = []
        for row in rows.tolist():
            total = 0
            for v, w in zip(row, weights):
                total += v * w
            out.append(total)
        return out
    prod = rows * weights
    # one row of Python floats at a time: fsum reads lists fastest
    if not np.iscomplexobj(prod):
        return [math.fsum(row.tolist()) for row in prod]
    return [complex(math.fsum(re.tolist()), math.fsum(im.tolist()))
            for re, im in zip(prod.real, prod.imag)]


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


# The largest |log x| of a finite float64 x.
LOG_FLOAT_MAX = math.log(sys.float_info.max)


def check_fits(spec: MeasureSpec, depth: int) -> None:
    """Refuse a measure whose tables at depth leave float64: its largest
    |log delta| there, the spread of its log-weights too, above LOG_FLOAT_MAX."""
    bound = spec.max_log_delta(depth)
    if bound > LOG_FLOAT_MAX:
        raise InvalidSpec(f"the largest |log delta| at depth {depth} is {bound:.6g}, past "
                          f"log(float64 max) = {LOG_FLOAT_MAX:.2f}: its tables leave float64")


# (2 cosh J)**n <= 2**n e**(|J| n) bounds partition_report, and 2**n < e**14 at n <= 20.
_PARTITION_EXPONENT_CAP = LOG_FLOAT_MAX - 14


def partition_report(J: float, n: int, tol: float = 1e-12) -> dict:
    """Compare all partition-function routes and the ratio identity.

    The ratio identity Z_n / Z_k = (2 cosh J)**(n-k) holds for the free-end
    chain (and also under the quoted closed form); it is checked for every
    k < n.
    """
    if n < 1:
        raise InvalidSpec(f"partition functions need n >= 1, got {n}")
    if abs(J) * n > _PARTITION_EXPONENT_CAP:
        raise InvalidSpec(f"|J| n = {abs(J) * n:g} exceeds {_PARTITION_EXPONENT_CAP:.2f}, "
                          "past which the partition functions overflow float64")
    brute = partition_function_brute(J, n)
    recursion = partition_function(J, n)
    closed = partition_function_closed_form(J, n)
    rel = abs(brute - recursion) / max(abs(brute), 1e-300)
    ratio_dev = 0.0
    for k in range(1, n):
        expected = (2.0 * math.cosh(J)) ** (n - k)
        got = brute / partition_function_brute(J, k)
        ratio_dev = _worse(ratio_dev, abs(got - expected) / abs(expected))
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


def _numerators(spec: MeasureSpec, depth: int, word: FlipWord | None = None):
    """The weight (no word) or delta table as (numerators, denominator): Python
    ints over one int for an exact measure, the float table over 1 otherwise."""
    if spec.exact:
        row, den, counts = spec._ints(depth, word)
        return np.array(row, dtype=object)[counts], den
    return (spec.weight_table(depth) if word is None else spec.delta_table(word, depth)), 1


def pushforward_projection_check(spec: MeasureSpec, n: int, k: int) -> dict:
    """Verify that dropping the last n-k sites maps the depth-n measure onto
    the depth-k one.  Exhaustive over all 2**k cylinders."""
    if not n > k >= 1:
        raise ValueError(f"need n > k >= 1, got n={n}, k={k}")
    fine, den = _numerators(spec, n)
    coarse, coarse_den = _numerators(spec, k)
    # mask m = (high bits << k) + low bits: rows of the reshape are the
    # dropped-site patterns.
    marginal = fine.reshape(1 << (n - k), 1 << k).sum(axis=0)
    dev = np.abs(marginal - coarse * (den // coarse_den))
    exact = bool(spec.exact and np.all(dev == 0))
    return {
        "measure": spec.to_json(),
        "n": n,
        "k": k,
        "max_abs_deviation": float(np.max(dev) / den),
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
    weights, _ = _numerators(spec, depth)
    delta, den = _numerators(spec, depth, w)
    lhs = weights[_index(depth) ^ w.mask] * den
    rhs = _across_flip(delta, w, depth) * weights  # delta**-1 is delta across the flip
    dev = np.abs(lhs - rhs)
    return {
        "measure": spec.to_json(),
        "word": list(w.sites),
        "depth": depth,
        "max_rel_deviation": float(np.max(dev / rhs)),
        "exact_zero": bool(spec.exact and np.all(dev == 0)),
    }
