"""Two-parameter deformation algebras and their combinatorial quantities.

A deformation replaces each nonnegative integer n by a positive "deformed
number" [n].  Every algebra here is either tau-structured,

    [n] = (tau1^n - tau2^n) / (tau1 - tau2)     if tau1 != tau2,
    [n] = n * tau1^(n-1)                        if tau1 == tau2,

or carries a custom number rule.  From [n] we build factorials
[n]! = [1][2]...[n], binomial coefficients [m]!/([n]![m-n]!) and falling
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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .errors import ValidationError, ModeMixError
from .scalars import DEFAULT_TOL, Scalar, check_uniform_mode, parse_scalar, scalars_close

JAGANNATHAN_SRINIVASA = "jagannathan-srinivasa"
Q_DEFORMATION = "q-deformation"
QUESNE = "quesne"
CHAKRABARTY_JAGANNATHAN = "chakrabarty-jagannathan"
ARIK_COON = "arik-coon"
CUSTOM = "custom"

PRESET_NAMES = (
    JAGANNATHAN_SRINIVASA,
    Q_DEFORMATION,
    QUESNE,
    CHAKRABARTY_JAGANNATHAN,
)

# The identity suites of `rpq.identities`, named here so the CLI can list
# them without loading that module.
IDENTITY_IDS = ("hs1", "hs2", "hsa", "hsb", "cauchy")

NumberRule = Callable[[int], Scalar]


@dataclass(frozen=True)
class AlgebraSpec:
    """A deformation: base parameters, structure constants, number rule.

    `number_rule` is None for tau-structured algebras; otherwise it maps
    n >= 0 to [n] directly and identity checks run in diagnostic mode.

    `exact` is False when a parameter is a float.  It is derived, not
    passed, and takes part in equality and hashing, so an exact and an
    approximate algebra with equal parameter values (1/2 and 0.5) differ.

    Deformed numbers, factorials, binomials and monomials tau1^a tau2^b are
    memoised in tables held by the instance.  They take no part in
    equality, hashing or repr, so `replace()` starts fresh ones, and they
    are freed with the algebra.
    """

    name: str
    p: Optional[Scalar]
    q: Optional[Scalar]
    tau1: Optional[Scalar]
    tau2: Optional[Scalar]
    number_rule: Optional[NumberRule] = None
    tol: float = DEFAULT_TOL
    exact: bool = field(init=False, repr=False)
    _numbers: list = field(default_factory=list, init=False, repr=False, compare=False)
    _factorials: list = field(default_factory=list, init=False, repr=False, compare=False)
    _binomials: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _monomials: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        present = [v for v in (self.p, self.q, self.tau1, self.tau2) if v is not None]
        if not present and self.number_rule is None:
            raise ValidationError("algebra needs structure constants or a number rule")
        check_uniform_mode(present, f"algebra {self.name!r}")
        for v in present:
            if v <= 0:
                raise ValidationError(f"algebra {self.name!r}: parameters must be positive")
        if self.number_rule is None and (self.tau1 is None or self.tau2 is None):
            raise ValidationError(f"algebra {self.name!r}: tau-structured form needs tau1 and tau2")
        if not (isinstance(self.tol, (int, float, Fraction)) and math.isfinite(self.tol) and self.tol >= 0):
            raise ValidationError(f"tol: need a finite tolerance >= 0, got {self.tol!r}")
        object.__setattr__(self, "exact", not any(isinstance(v, float) for v in present))

    @property
    def tau_structured(self) -> bool:
        return self.number_rule is None

    def number(self, n: int) -> Scalar:
        return deformed_number(self, n)

    def factorial(self, n: int) -> Scalar:
        return deformed_factorial(self, n)

    def binomial(self, m: int, n: int) -> Scalar:
        return deformed_binomial(self, m, n)

    def falling(self, n: int, i: int) -> Scalar:
        return deformed_falling_factorial(self, n, i)

    def inverse(self) -> "AlgebraSpec":
        return inverse_algebra(self)

    def close(self, a: Scalar, b: Scalar) -> bool:
        return scalars_close(a, b, self.exact, self.tol)

    def describe(self) -> dict:
        """Resolved-parameter mapping used in CLI echoes and JSON output."""
        from .scalars import scalar_str

        out = {"algebra": self.name, "mode": "exact" if self.exact else "approximate"}
        for key in ("p", "q", "tau1", "tau2"):
            v = getattr(self, key)
            if v is not None:
                out[key] = scalar_str(v)
        if not self.exact:
            out["tol"] = repr(self.tol)
        return out


def _coerce(value: Union[Scalar, str], approximate: bool) -> Scalar:
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
    p, q = (_coerce(v, approximate) for v in raw)
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
    return AlgebraSpec(QUESNE, p, q, p, 1 / q if isinstance(q, float) else Fraction(1) / q, tol=tol)


def chakrabarty_jagannathan(p, q, tol: float = DEFAULT_TOL) -> AlgebraSpec:
    """Deformation with (tau1, tau2) = (1/p, q)."""
    p, q, tol = _preset_parameters(p, q, tol)
    tau1 = 1 / p if isinstance(p, float) else Fraction(1) / p
    return AlgebraSpec(CHAKRABARTY_JAGANNATHAN, p, q, tau1, q, tol=tol)


def arik_coon(q, tol: float = DEFAULT_TOL) -> AlgebraSpec:
    """One-parameter rule [n] = (q^n - q^-n)/(q - q^-1), exposed as a custom
    number rule; identity checks on it are diagnostic only."""
    if isinstance(q, str):
        q = parse_scalar(q)
    approximate = isinstance(q, float)
    q = _coerce(q, approximate)
    if q <= 0 or q == 1:
        raise ValidationError(f"arik-coon needs q > 0, q != 1, got q={q}")
    qinv = 1 / q if approximate else Fraction(1) / q

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
        return alg.number_rule(n)
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
    """[m]! / ([n]! [m-n]!) for m >= n >= 0."""
    value = alg._binomials.get((m, n))
    if value is None:
        if not 0 <= n <= m:
            raise ValidationError(f"binomial needs m >= n >= 0, got m={m}, n={n}")
        if alg.exact:
            # The same rational from the shorter product, so a large m does
            # not build [m]!, whose exact value has O(m^2) bits.
            j = min(n, m - n)
            value = deformed_falling_factorial(alg, m, j) / deformed_factorial(alg, j)
        else:
            value = deformed_factorial(alg, m) / (deformed_factorial(alg, n) * deformed_factorial(alg, m - n))
        alg._binomials[(m, n)] = value
    return value


def binomial_or_zero(alg: AlgebraSpec, m: int, n: int) -> Scalar:
    """Binomial with the summation-friendly convention: 1 when n = 0 (any m),
    0 when n < 0 or 0 <= m < n."""
    if 0 < n <= m:
        value = alg._binomials.get((m, n))
        return deformed_binomial(alg, m, n) if value is None else value
    one = Fraction(1) if alg.exact else 1.0
    return one if n == 0 else one * 0


def tau_monomial(alg: AlgebraSpec, a: int, b: int) -> Scalar:
    """tau1^a * tau2^b, memoised per (a, b)."""
    value = alg._monomials.get((a, b))
    if value is None:
        value = alg._monomials[(a, b)] = alg.tau1**a * alg.tau2**b
    return value


def deformed_falling_factorial(alg: AlgebraSpec, n: int, i: int) -> Scalar:
    """[n][n-1]...[n-i+1]; empty product 1 for i = 0, and 0 once i > n."""
    if n < 0 or i < 0:
        raise ValidationError(f"falling factorial needs n, i >= 0, got n={n}, i={i}")
    one = Fraction(1) if alg.exact else 1.0
    if i == 0:
        return one
    if i > n:
        return one * 0
    out = one
    for j in range(i):
        out *= deformed_number(alg, n - j)
    return out


def inverse_algebra(alg: AlgebraSpec) -> AlgebraSpec:
    """The algebra with p -> 1/p, q -> 1/q (hence tau -> 1/tau)."""
    if alg.number_rule is not None:
        raise ValidationError(f"algebra {alg.name!r}: cannot invert a custom number rule")

    def flip(v):
        if v is None:
            return None
        return 1 / v if isinstance(v, float) else Fraction(1) / v

    return replace(alg, p=flip(alg.p), q=flip(alg.q), tau1=flip(alg.tau1), tau2=flip(alg.tau2))


@dataclass(frozen=True)
class MonomialFit:
    """Relation lhs * tau1^a * tau2^b == rhs, when such exponents exist."""

    exact: bool
    found: bool
    a: int = 0
    b: int = 0

    def describe(self) -> dict:
        return {"exact": self.exact, "found": self.found, "a": self.a, "b": self.b}


def _has_foreign_prime(value: int, base: int) -> bool:
    """True when `value` has a prime factor that does not divide `base`."""
    common = math.gcd(value, base)
    while common > 1:
        value //= common
        common = math.gcd(value, common)
    return value != 1


def fit_monomial(alg: AlgebraSpec, lhs: Scalar, rhs: Scalar, bound: int) -> MonomialFit:
    """Search integer exponents |a|, |b| <= bound with lhs*tau1^a*tau2^b = rhs.

    Equality is exact in exact mode; in approximate mode it is a relative
    comparison with the algebra's tolerance.  The search prefers small |a|
    then small |b|, so a degenerate tau1 = 1 axis reports a = 0.
    """
    if alg.exact:
        close = lhs == rhs
    else:
        close = math.isclose(lhs, rhs, rel_tol=alg.tol)
    if close:
        return MonomialFit(exact=True, found=True)
    if not alg.tau_structured and (alg.tau1 is None or alg.tau2 is None):
        return MonomialFit(exact=False, found=False)
    if lhs == 0:
        return MonomialFit(exact=False, found=False)
    bound = max(0, bound)
    t1, t2 = alg.tau1, alg.tau2
    ratio = rhs / lhs
    offsets = [0]
    for step in range(1, bound + 1):
        offsets.extend((step, -step))
    if alg.exact:
        # A monomial in tau1, tau2 has no prime outside theirs.
        base = math.prod(t.numerator * t.denominator for t in (Fraction(t1), Fraction(t2)))
        exact_ratio = Fraction(ratio)
        if ratio <= 0 or any(_has_foreign_prime(v, base) for v in (exact_ratio.numerator, exact_ratio.denominator)):
            return MonomialFit(exact=False, found=False)
        t2_pow = {}
        for b in offsets:
            t2_pow.setdefault(t2**b, b)  # tau2 = 1: keep the smallest |b|
        for a in offsets:
            need = ratio / t1**a
            if need in t2_pow:
                return MonomialFit(exact=False, found=True, a=a, b=t2_pow[need])
    else:
        # Relative comparison lets at most one b match each a unless tau2 = 1;
        # it sits next to b0 = log(need) / log(tau2).  The candidates b0 - 1,
        # b0, b0 + 1 are tried in order of (|b|, b < 0).
        log_t2 = None if t2 == 1 else math.log(t2)
        for a in offsets:
            need = ratio / t1**a
            if log_t2 is None:
                candidates = (0,)
            elif 0 < need < math.inf:
                b0 = round(math.log(need) / log_t2)
                step = 1 if b0 >= 0 else -1
                candidates = (0, 1, -1) if b0 == 0 else (b0 - step, b0, b0 + step)
            else:
                continue
            for b in candidates:
                if abs(b) <= bound and math.isclose(t2**b, need, rel_tol=alg.tol):
                    return MonomialFit(exact=False, found=True, a=a, b=b)
    return MonomialFit(exact=False, found=False)


@dataclass(frozen=True)
class RecurrenceEntry:
    m: int
    n: int
    variant_a: bool
    variant_b: bool


@dataclass(frozen=True)
class TriangularRecurrenceReport:
    """Pass/fail map of the two one-step binomial recurrences.

    Variant A: [m over n] = tau1^n [m-1 over n] + tau2^(m-n) [m-1 over n-1].
    Variant B swaps the tau exponents.  Both hold for tau-structured
    algebras; custom rules may satisfy neither.
    """

    algebra: str
    mmax: int
    entries: tuple
    variant_a_holds: bool
    variant_b_holds: bool


def check_triangular_recurrence(alg: AlgebraSpec, mmax: int) -> TriangularRecurrenceReport:
    if mmax < 1:
        raise ValidationError(f"mmax: need mmax >= 1, got {mmax}")
    if not alg.tau_structured and (alg.tau1 is None or alg.tau2 is None):
        raise ValidationError("triangular recurrence needs structure constants")
    t1, t2 = alg.tau1, alg.tau2
    entries = []
    ok_a = ok_b = True
    for m in range(1, mmax + 1):
        for n in range(1, m + 1):
            lhs = deformed_binomial(alg, m, n)
            rhs_a = t1**n * binomial_or_zero(alg, m - 1, n) + t2 ** (m - n) * binomial_or_zero(alg, m - 1, n - 1)
            rhs_b = t2**n * binomial_or_zero(alg, m - 1, n) + t1 ** (m - n) * binomial_or_zero(alg, m - 1, n - 1)
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
