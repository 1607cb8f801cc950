"""Two-parameter deformation algebras and their combinatorial quantities.

A deformation replaces each nonnegative integer n by a positive "deformed
number" [n].  Every algebra here is either tau-structured,

    [n] = (tau1^n - tau2^n) / (tau1 - tau2)     if tau1 != tau2,
    [n] = n * tau1^(n-1)                        if tau1 == tau2,

or carries a custom number rule.  From [n] we build factorials
[n]! = [1][2]...[n], binomial coefficients [m]!/([n]![m-n]!) (computed as
the shorter quotient of a falling factorial by a factorial) and falling
factorials [n][n-1]...[n-i+1].

The presets differ only in how the structure constants (tau1, tau2) derive
from base parameters (p, q) with 0 < q < p <= 1:

    jagannathan-srinivasa     (p, q)
    q-deformation             (1, q)
    quesne                    (p, 1/q)
    chakrabarty-jagannathan   (1/p, q)

Replacing (p, q) by (1/p, 1/q) inverts the structure constants.  The
resulting inverse algebra satisfies, for every tau-structured algebra,

    binom_inv(m, n) = (tau1*tau2)^(-n(m-n)) * binom(m, n).

Exact mode demands rational parameters; decimal input switches the algebra
to approximate mode, where comparisons use a relative tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple, Union

from .errors import ModeMixError, UnderflowError, ValidationError
from .records import Record
from .scalars import DEFAULT_TOL, Scalar, check_uniform_mode, integer_ratios, parse_scalar, scalar_str, scalars_close

JAGANNATHAN_SRINIVASA = "jagannathan-srinivasa"
Q_DEFORMATION = "q-deformation"
QUESNE = "quesne"
CHAKRABARTY_JAGANNATHAN = "chakrabarty-jagannathan"
ARIK_COON = "arik-coon"

# The identity suites of `rpq.identities`, named here so the CLI can list
# them without loading that module.
IDENTITY_IDS = ("hs1", "hs2", "hsa", "hsb", "cauchy")

NumberRule = Callable[[int], Scalar]


class AlgebraSpec(Record):
    """A deformation: base parameters, structure constants, number rule.

    `number_rule` is None for tau-structured algebras; otherwise it maps
    n >= 0 to [n] directly and identity checks run in diagnostic mode.

    `exact` is False when a parameter is a float.  It is derived, not
    passed, and takes part in equality and hashing, so an exact and an
    approximate algebra with equal parameter values (1/2 and 0.5) differ.
    In exact mode an int parameter is stored as a Fraction, so every value
    derived from it (a deformed number, a weight) is a Fraction too.

    Deformed numbers, factorials, binomials, monomials tau1^a tau2^b, the
    inverse algebra, `describe()` and the hash (at the first hash) are
    memoised on the instance.  They take no part in equality, hashing or
    repr, so `replace()` starts fresh ones, and they are freed with it.
    """

    _fields = ("name", "p", "q", "tau1", "tau2", "number_rule", "tol")
    _compared = _fields + ("exact",)

    def __init__(
        self,
        name: str,
        p: Optional[Scalar],
        q: Optional[Scalar],
        tau1: Optional[Scalar],
        tau2: Optional[Scalar],
        number_rule: Optional[NumberRule] = None,
        tol: float = DEFAULT_TOL,
    ) -> None:
        present = [v for v in (p, q, tau1, tau2) if v is not None]
        if not present and number_rule is None:
            raise ValidationError("algebra needs structure constants or a number rule")
        check_uniform_mode(present, f"algebra {name!r}")
        for v in present:
            if v <= 0:
                raise ValidationError(f"algebra {name!r}: parameters must be positive")
        if number_rule is None and (tau1 is None or tau2 is None):
            raise ValidationError(f"algebra {name!r}: tau-structured form needs tau1 and tau2")
        if not (isinstance(tol, (int, float, Fraction)) and math.isfinite(tol) and tol >= 0):
            raise ValidationError(f"tol: need a finite tolerance >= 0, got {tol!r}")
        exact = not any(isinstance(v, float) for v in present)
        if exact:
            p, q, tau1, tau2 = (Fraction(v) if type(v) is int else v for v in (p, q, tau1, tau2))
        super().__init__(name, p, q, tau1, tau2, number_rule, tol)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "_numbers", [])
        object.__setattr__(self, "_factorials", [])
        object.__setattr__(self, "_binomials", {})
        object.__setattr__(self, "_monomials", {})
        object.__setattr__(self, "_inverse", None)
        object.__setattr__(self, "_described", {})
        object.__setattr__(self, "_hash", None)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._key(self)))
        return self._hash

    @property
    def tau_structured(self) -> bool:
        return self.number_rule is None

    def close(self, a: Scalar, b: Scalar) -> bool:
        return scalars_close(a, b, self.exact, self.tol)

    def describe(self) -> dict:
        """Resolved-parameter mapping used in CLI echoes and JSON output,
        formatted once and copied per call."""
        out = self._described
        if not out:
            out["algebra"], out["mode"] = self.name, "exact" if self.exact else "approximate"
            for key in ("p", "q", "tau1", "tau2"):
                if getattr(self, key) is not None:
                    out[key] = scalar_str(getattr(self, key))
            if not self.exact:
                out["tol"] = repr(self.tol)
        return dict(out)


def coerce_scalar(value: Union[Scalar, str], approximate: bool) -> Scalar:
    """A number, or a string `parse_scalar` reads, as a float in approximate
    mode and as a Fraction otherwise; a float in exact mode is refused."""
    if isinstance(value, str):
        value = parse_scalar(value)
    if isinstance(value, bool) or not isinstance(value, (Fraction, float, int)):
        raise ValidationError(f"not a number: {value!r}")
    if approximate:
        return float(value)
    if isinstance(value, float):
        raise ModeMixError("float parameter in exact mode; pass rationals or use approximate mode")
    return Fraction(value)


def _preset_parameters(p, q, tol):
    """Parse/validate base parameters under the standing range 0 < q < p <= 1."""
    raw = []
    for v in (p, q):
        raw.append(parse_scalar(v) if isinstance(v, str) else v)
    approximate = any(isinstance(v, float) for v in raw)
    if approximate and not all(isinstance(v, float) for v in raw):
        raise ModeMixError("p and q must both be rational or both be decimal")
    p, q = (coerce_scalar(v, approximate) for v in raw)
    if not 0 < q < p <= 1:
        raise ValidationError(f"preset parameters need 0 < q < p <= 1, got p={p}, q={q}")
    return p, q, tol


def jagannathan_srinivasa(p, q, tol: float = DEFAULT_TOL) -> AlgebraSpec:
    """Deformation with (tau1, tau2) = (p, q)."""
    p, q, tol = _preset_parameters(p, q, tol)
    return AlgebraSpec(JAGANNATHAN_SRINIVASA, p, q, p, q, tol=tol)


def q_deformation(q, tol: float = DEFAULT_TOL) -> AlgebraSpec:
    """Single-parameter deformation, (tau1, tau2) = (1, q)."""
    if isinstance(q, str):
        q = parse_scalar(q)
    one = 1.0 if isinstance(q, float) else Fraction(1)
    p, q, tol = _preset_parameters(one, q, tol)
    return AlgebraSpec(Q_DEFORMATION, p, q, p, q, tol=tol)


def quesne(p, q, tol: float = DEFAULT_TOL) -> AlgebraSpec:
    """Deformation with (tau1, tau2) = (p, 1/q)."""
    p, q, tol = _preset_parameters(p, q, tol)
    return AlgebraSpec(QUESNE, p, q, p, 1 / q, tol=tol)


def chakrabarty_jagannathan(p, q, tol: float = DEFAULT_TOL) -> AlgebraSpec:
    """Deformation with (tau1, tau2) = (1/p, q)."""
    p, q, tol = _preset_parameters(p, q, tol)
    return AlgebraSpec(CHAKRABARTY_JAGANNATHAN, p, q, 1 / p, q, tol=tol)


def arik_coon(q, tol: float = DEFAULT_TOL) -> AlgebraSpec:
    """One-parameter rule [n] = (q^n - q^-n)/(q - q^-1), exposed as a custom
    number rule; identity checks on it are diagnostic only."""
    if isinstance(q, str):
        q = parse_scalar(q)
    approximate = isinstance(q, float)
    q = coerce_scalar(q, approximate)
    if q <= 0 or q == 1:
        raise ValidationError(f"arik-coon needs q > 0, q != 1, got q={q}")
    qinv = 1 / q

    def rule(n: int) -> Scalar:
        if n == 0:
            return 0.0 if approximate else Fraction(0)
        return (q**n - qinv**n) / (q - qinv)

    return AlgebraSpec(ARIK_COON, None, q, q, qinv, number_rule=rule, tol=tol)


def custom_algebra(
    name: str,
    *,
    tau1: Optional[Scalar] = None,
    tau2: Optional[Scalar] = None,
    numbers: Optional[Union[NumberRule, Sequence[Scalar]]] = None,
    tol: float = DEFAULT_TOL,
) -> AlgebraSpec:
    """Build an algebra from explicit structure constants and/or a number rule.

    A sequence for `numbers` is read as [0], [1], [2], ...; it must start at
    0 and stay positive afterwards.
    """
    rule: Optional[NumberRule] = None
    if numbers is not None:
        if callable(numbers):
            rule = numbers
        else:
            table = tuple(numbers)

            def rule(n: int, _table=table) -> Scalar:
                if n >= len(_table):
                    raise ValidationError(f"custom sequence of {name!r} has no entry for n={n}")
                return _table[n]

        if rule(0) != 0:
            raise ValidationError("custom number rule must give [0] = 0")
        probe = 1
        while probe <= 3:
            try:
                value = rule(probe)
            except ValidationError:
                break
            if value <= 0:
                raise ValidationError(f"custom number rule must be positive for n >= 1, got [{probe}] = {value}")
            probe += 1
    return AlgebraSpec(name, None, None, tau1, tau2, number_rule=rule, tol=tol)


def classical_algebra() -> AlgebraSpec:
    """Undeformed limit: tau1 = tau2 = 1, hence [n] = n exactly."""
    return AlgebraSpec("classical", None, None, Fraction(1), Fraction(1))


_ALIASES = {
    "js": JAGANNATHAN_SRINIVASA,
    "q": Q_DEFORMATION,
    "cj": CHAKRABARTY_JAGANNATHAN,
    "ac": ARIK_COON,
}


def make_preset(name: str, p=None, q=None, tol: float = DEFAULT_TOL) -> AlgebraSpec:
    """Preset factory keyed by name (long form or short alias)."""
    canonical = _ALIASES.get(name, name)
    if canonical == Q_DEFORMATION:
        if q is None:
            raise ValidationError("q: required for the q-deformation preset")
        if p is not None:
            pv = parse_scalar(p) if isinstance(p, str) else p
            if pv != 1:
                raise ValidationError("p: q-deformation fixes p = 1")
        return q_deformation(q, tol=tol)
    if canonical == ARIK_COON:
        if q is None:
            raise ValidationError("q: required for the arik-coon preset")
        return arik_coon(q, tol=tol)
    if canonical in (JAGANNATHAN_SRINIVASA, QUESNE, CHAKRABARTY_JAGANNATHAN):
        if p is None or q is None:
            raise ValidationError(f"p, q: required for the {canonical} preset")
        factory = {
            JAGANNATHAN_SRINIVASA: jagannathan_srinivasa,
            QUESNE: quesne,
            CHAKRABARTY_JAGANNATHAN: chakrabarty_jagannathan,
        }[canonical]
        return factory(p, q, tol=tol)
    raise ValidationError(f"preset: unknown algebra {name!r}")


def load_algebra_config(text: str) -> AlgebraSpec:
    """Load a preset from a key=value text record.

    Recognised keys: name, p, q, mode (exact|approximate), tol.  Values for
    p and q are rational strings like "9/10"; mode=approximate converts them
    to floats.
    """
    fields = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    if "name" not in fields:
        raise ValidationError("config: missing field name")
    mode = fields.get("mode", "exact")
    if mode not in ("exact", "approximate"):
        raise ValidationError(f"mode: must be exact or approximate, got {mode!r}")
    try:
        tol = float(fields["tol"]) if "tol" in fields else DEFAULT_TOL
    except ValueError:
        raise ValidationError(f"tol: expected a number, got {fields['tol']!r}") from None

    def read(key):
        if key not in fields:
            return None
        value = parse_scalar(fields[key])
        return float(value) if mode == "approximate" else value

    return make_preset(fields["name"], p=read("p"), q=read("q"), tol=tol)


def deformed_number(alg: AlgebraSpec, n: int) -> Scalar:
    """[n]: n-th deformed number, [0] = 0 and [1] = 1 for every preset."""
    if n < 0:
        raise ValidationError(f"n: deformed number needs n >= 0, got {n}")
    if alg.number_rule is not None:
        value = alg.number_rule(n)
        if alg.exact and isinstance(value, float):
            raise ModeMixError(f"algebra {alg.name!r}: number rule gave a float [{n}] in exact mode")
        return value
    numbers = alg._numbers
    if n >= len(numbers):
        t1, t2 = alg.tau1, alg.tau2
        for m in range(len(numbers), n + 1):
            if t1 == t2:
                numbers.append(m * t1 ** (m - 1) if m else (0.0 if isinstance(t1, float) else Fraction(0)))
            else:
                numbers.append((t1**m - t2**m) / (t1 - t2))
    return numbers[n]


def deformed_factorial(alg: AlgebraSpec, n: int) -> Scalar:
    """[n]! = [1][2]...[n], with [0]! = 1."""
    if n < 0:
        raise ValidationError(f"n: factorial needs n >= 0, got {n}")
    factorials = alg._factorials
    if not factorials:
        factorials.append(Fraction(1) if alg.exact else 1.0)
    for m in range(len(factorials), n + 1):
        factorials.append(factorials[m - 1] * deformed_number(alg, m))
    return factorials[n]


def deformed_binomial(alg: AlgebraSpec, m: int, n: int) -> Scalar:
    """[m]! / ([n]! [m-n]!) for m >= n >= 0, in both modes as the shorter
    product [m][m-1]...[m-j+1] / [j]!, j = min(n, m-n): a large m builds
    no [m]!, whose exact value has O(m^2) bits and whose float overflows
    long before the binomial does."""
    value = alg._binomials.get((m, n))
    if value is None:
        if not 0 <= n <= m:
            raise ValidationError(f"binomial needs m >= n >= 0, got m={m}, n={n}")
        j = min(n, m - n)
        value = alg._binomials[(m, n)] = deformed_falling_factorial(alg, m, j) / deformed_factorial(alg, j)
    return value


# The 1 and 0 of each mode, shared by the empty and the vanishing products.
_UNITS = {True: (Fraction(1), Fraction(0)), False: (1.0, 0.0)}


def binomial_or_zero(alg: AlgebraSpec, m: int, n: int) -> Scalar:
    """Binomial with the summation-friendly convention: 1 when n = 0 (any m),
    0 when n < 0 or 0 <= m < n."""
    if 0 < n <= m:
        value = alg._binomials.get((m, n))
        return deformed_binomial(alg, m, n) if value is None else value
    one, zero = _UNITS[alg.exact]
    return one if n == 0 else zero


_TINY = 2.0**-1022  # the least positive normal float


def _exact_monomial(alg: AlgebraSpec, a: int, b: int) -> Fraction:
    """tau1^a * tau2^b exactly, a float tau read as the rational it is."""
    return Fraction(alg.tau1) ** a * Fraction(alg.tau2) ** b


def tau_monomial(alg: AlgebraSpec, a: int, b: int) -> Scalar:
    """tau1^a * tau2^b, memoised per (a, b).  A float power or product out
    of the normal range (overflowed, 0.0 or subnormal) gives way to the
    exact one rounded once: 0.0 or OverflowError if its logs put it far out
    of range, OverflowError for an inf or nan tau."""
    value = alg._monomials.get((a, b))
    if value is None:
        t1, t2 = alg.tau1, alg.tau2
        try:
            x, y = t1**a, t2**b
        except OverflowError:
            x = y = 0.0
        value = x * y
        if isinstance(value, float) and not (min(x, y) >= _TINY and _TINY <= value < math.inf):
            integer_ratios((t1, t2))  # OverflowError for an inf or nan tau
            log2 = a * math.log2(t1) + b * math.log2(t2)
            if log2 > 1100:
                raise OverflowError(f"tau1^{a} tau2^{b} is past the float range")
            value = float(_exact_monomial(alg, a, b)) if log2 > -1100 else 0.0
        alg._monomials[(a, b)] = value
    return value


def _closed_pair(alg: AlgebraSpec, a: int, b: int, factors: Sequence[Scalar]) -> Tuple[int, int]:
    """The closed value tau1^a tau2^b * prod(factors), exact, as an
    unreduced (numerator, denominator) pair of ints, which a table brings
    to one denominator with its other closed values (`pmf.make_table`), as
    an identity sum does its terms.  Floats are read as the dyadic
    rationals they are (`scalars.integer_ratios`), so the product of
    decimal factors is exact too; a float with no ratio (inf or nan) raises
    OverflowError."""
    numerator = denominator = 1
    for top, bottom in integer_ratios((tau_monomial(alg, a, b), *factors)):
        numerator *= top
        denominator *= bottom
    return numerator, denominator


def deformed_falling_factorial(alg: AlgebraSpec, n: int, i: int) -> Scalar:
    """[n][n-1]...[n-i+1]; empty product 1 for i = 0, and 0 once i > n."""
    if n < 0 or i < 0:
        raise ValidationError(f"falling factorial needs n, i >= 0, got n={n}, i={i}")
    one, zero = _UNITS[alg.exact]
    if i == 0:
        return one
    if i > n:
        return zero
    out = one
    for j in range(i):
        out *= deformed_number(alg, n - j)
    return out


def inverse_algebra(alg: AlgebraSpec) -> AlgebraSpec:
    """The algebra with p -> 1/p, q -> 1/q (hence tau -> 1/tau), built once
    per instance so its own memos are shared by every caller."""
    if alg._inverse is None:
        if alg.number_rule is not None:
            raise ValidationError(f"algebra {alg.name!r}: cannot invert a custom number rule")

        def flip(v):
            return None if v is None else 1 / v

        inv = alg.replace(p=flip(alg.p), q=flip(alg.q), tau1=flip(alg.tau1), tau2=flip(alg.tau2))
        object.__setattr__(alg, "_inverse", inv)
    return alg._inverse


class MonomialFit(Record):
    """Relation lhs * tau1^a * tau2^b == rhs, when such exponents exist."""

    _fields = ("exact", "found", "a", "b")
    _defaults = {"a": 0, "b": 0}

    def describe(self) -> dict:
        return {"exact": self.exact, "found": self.found, "a": self.a, "b": self.b}


def _has_foreign_prime(value: int, base: int) -> bool:
    """True when `value` >= 1 has a prime factor that does not divide `base`:
    else no prime's exponent in `value` reaches its bit length L, and
    `value` divides base^L."""
    return pow(base, value.bit_length(), value) != 0


def _log_and_size(x: Scalar) -> Tuple[float, float]:
    """(log x, the size of the logs it is computed from).  An exact value
    takes the logs of its numerator and denominator, so no size of rational
    overflows a float."""
    if isinstance(x, float):
        value = math.log(x)
        return value, abs(value)
    x = Fraction(x)
    top, bottom = math.log(x.numerator), math.log(x.denominator)
    return top - bottom, top + bottom


def fit_monomial(alg: AlgebraSpec, lhs: Scalar, rhs: Scalar, bound: int) -> MonomialFit:
    """Search integer exponents |a|, |b| <= bound with lhs*tau1^a*tau2^b = rhs.

    Equality is exact in exact mode; in approximate mode it is a relative
    comparison with the algebra's tolerance.  The search prefers small |a|
    then small |b|, so a degenerate tau1 = 1 axis reports a = 0.

    Each a is screened with float logs first: a match needs
    |log(rhs/lhs) - a log tau1 - b log tau2| <= width for some |b| <= bound,
    where width is -log(1 - tol) (0 when exact) plus a bound on the rounding
    of the logs.  Only the exponents that pass are tested for equality (or
    closeness), so the screen skips no match.
    """
    if alg.exact:
        close = lhs == rhs
    else:
        close = math.isclose(lhs, rhs, rel_tol=alg.tol)
    if close:
        return MonomialFit(True, True, 0, 0)
    if alg.tau1 is None or alg.tau2 is None:
        return MonomialFit(False, False, 0, 0)
    if lhs == 0:
        return MonomialFit(False, False, 0, 0)
    bound = max(0, bound)
    t1, t2 = alg.tau1, alg.tau2
    ratio = rhs / lhs
    offsets = [0]
    for step in range(1, bound + 1):
        offsets.extend((step, -step))
    if alg.exact:
        # A monomial in tau1, tau2 has no prime outside theirs.
        base = math.prod(t.numerator * t.denominator for t in (Fraction(t1), Fraction(t2)))
        ratio = Fraction(ratio)
        if ratio <= 0 or any(_has_foreign_prime(v, base) for v in (ratio.numerator, ratio.denominator)):
            return MonomialFit(False, False, 0, 0)
        width = 0.0
    elif not 0 < ratio < math.inf:  # signs differ, or 0.0, inf or nan: no monomial matches
        return MonomialFit(False, False, 0, 0)
    elif alg.tol < 0.9:
        width = -math.log1p(-alg.tol)
    else:
        width = math.inf  # no screen
    screened = None  # (a, the b to test) in search order
    if width < math.inf:
        log_ratio, size = _log_and_size(ratio)
        log_t1, size1 = _log_and_size(t1)
        log_t2, size2 = _log_and_size(t2)
        # Each log is within a few ulps of its size; 1e-9 leaves a wide margin.
        width += 1e-9 * (1 + size + bound * (size1 + size2))
        if t2 == 1:  # every b matches alike; b = 0 is the smallest |b|
            screened = [(a, (0,)) for a in offsets if abs(log_ratio - a * log_t1) <= width]
        elif width < 0.5 * abs(log_t2):
            # At most one b lies within half of the centre: the nearest.
            c0, c1, half = log_ratio / log_t2, log_t1 / log_t2, width / abs(log_t2)
            screened = []
            for a in offsets:
                center = c0 - a * c1
                b = round(center)
                if abs(center - b) <= half and -bound <= b <= bound:
                    screened.append((a, (b,)))
    if screened is None:  # the logs do not narrow b down
        screened = [(a, range(-bound, bound + 1)) for a in offsets]
    if alg.exact:
        for a, bs in screened:
            for b in bs:
                if _exact_monomial(alg, a, b) == ratio:
                    return MonomialFit(False, True, a, b)
    else:
        # Relative comparison lets at most one b match each a unless tau2 = 1;
        # it sits next to b0 = log(need) / log(tau2).  The candidates b0 - 1,
        # b0, b0 + 1 are tried in order of (|b|, b < 0).
        log_t2 = None if t2 == 1 else math.log(t2)
        for a, _ in screened:
            try:
                need = ratio / t1**a
            except (OverflowError, ZeroDivisionError):
                need = 0.0
            # Past the float range, logs place b and `_decimal_match` decides.
            need = need if 0 < need < math.inf else None
            log_need = math.log(ratio) - a * math.log(t1) if need is None else math.log(need)
            if log_t2 is None:
                candidates = (0,)
            else:
                b0 = round(log_need / log_t2)
                step = 1 if b0 >= 0 else -1
                candidates = (0, 1, -1) if b0 == 0 else (b0 - step, b0, b0 + step)
            for b in candidates:
                if abs(b) <= bound and _decimal_match(alg, ratio, need, a, b):
                    return MonomialFit(False, True, a, b)
    return MonomialFit(False, False, 0, 0)


def _decimal_match(alg: AlgebraSpec, ratio: float, need: Optional[float], a: int, b: int) -> bool:
    """Whether tau2^b is within the tolerance of need = ratio / tau1^a, in
    floats, or else exactly, the floats read as the rationals they are."""
    if need is not None:
        try:
            return math.isclose(alg.tau2**b, need, rel_tol=alg.tol)
        except OverflowError:
            pass
    x, y = _exact_monomial(alg, a, b), Fraction(ratio)
    return abs(x - y) <= Fraction(alg.tol) * max(x, y)


class RecurrenceEntry(Record):
    _fields = ("m", "n", "variant_a", "variant_b")


class TriangularRecurrenceReport(Record):
    """Pass/fail map of the two one-step binomial recurrences.

    Variant A: [m over n] = tau1^n [m-1 over n] + tau2^(m-n) [m-1 over n-1].
    Variant B swaps the tau exponents.  Both hold for tau-structured
    algebras; custom rules may satisfy neither.
    """

    _fields = ("algebra", "mmax", "entries", "variant_a_holds", "variant_b_holds")


def check_triangular_recurrence(alg: AlgebraSpec, mmax: int) -> TriangularRecurrenceReport:
    """Both recurrences at every 1 <= n <= m <= mmax.  Each m passes the
    dimension guard (`lattice.check_dimension`), in order, before any
    binomial is computed."""
    # Imported here so that loading this module does not load `lattice`.
    from .lattice import check_dimension

    if mmax < 1:
        raise ValidationError(f"mmax: need mmax >= 1, got {mmax}")
    if alg.tau1 is None or alg.tau2 is None:
        raise ValidationError("triangular recurrence needs structure constants")
    for m in range(1, mmax + 1):
        check_dimension(m)
    t1, t2 = alg.tau1, alg.tau2
    entries = []
    ok_a = ok_b = True
    for m in range(1, mmax + 1):
        for n in range(1, m + 1):
            lhs = deformed_binomial(alg, m, n)
            rhs_a = t1**n * binomial_or_zero(alg, m - 1, n) + t2 ** (m - n) * binomial_or_zero(alg, m - 1, n - 1)
            rhs_b = t2**n * binomial_or_zero(alg, m - 1, n) + t1 ** (m - n) * binomial_or_zero(alg, m - 1, n - 1)
            if not (alg.exact or lhs and rhs_a and rhs_b):  # each side is positive: a decimal 0.0 underflowed
                side = "lhs" if not lhs else "variant a rhs" if not rhs_a else "variant b rhs"
                raise UnderflowError(f"triangular m={m} n={n}: the {side} is 0.0")
            a_ok = alg.close(lhs, rhs_a)
            b_ok = alg.close(lhs, rhs_b)
            ok_a &= a_ok
            ok_b &= b_ok
            entries.append(RecurrenceEntry(m, n, a_ok, b_ok))
    return TriangularRecurrenceReport(alg.name, mmax, tuple(entries), ok_a, ok_b)


def compositions(k: int):
    """Ordered tuples of positive integers summing to k (grouping schemes)."""
    if k < 1:
        raise ValidationError(f"k: compositions need k >= 1, got {k}")
    for cuts in range(1 << (k - 1)):
        sizes = []
        run = 1
        for bit in range(k - 1):
            if cuts >> bit & 1:
                sizes.append(run)
                run = 1
            else:
                run += 1
        sizes.append(run)
        yield tuple(sizes)
