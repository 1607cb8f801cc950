"""Layer tracing for the rpq benchmark, installed from outside the package.

`Tracer.install` replaces the public functions of the layer modules with
wrappers wherever an rpq module holds a reference to them: in the module that
defines the function and in every module that imported the name, so calls
made inside the package are seen as well.  Spans (name, start, end, parent)
are kept in memory and handed out when tracing ends; the hot algebra
functions only count calls.  Nothing is installed unless `install` is called,
so untraced runs execute the package unmodified.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from time import perf_counter

LAYER_MODULES = (
    "rpq.cli",
    "rpq.lattice",
    "rpq.algebra",
    "rpq.pmf",
    "rpq.first_kind",
    "rpq.second_kind",
    "rpq.identities",
    "rpq.sampler",
    "rpq.serialize",
)

DERIVED = (
    "marginal_pmf",
    "conditional_pmf",
    "grouped_pmf",
    "grouped_marginal_pmf",
    "grouped_conditional_pmf",
)

SERIALIZE_FUNCTIONS = (
    ("rpq.serialize", "config_header"),
    ("rpq.serialize", "table_to_csv"),
    ("rpq.serialize", "table_to_json_obj"),
    ("rpq.serialize", "moments_to_csv"),
    ("rpq.serialize", "moments_to_json_obj"),
    ("rpq.serialize", "batch_to_csv"),
    ("rpq.serialize", "batch_to_json_obj"),
    ("rpq.serialize", "dumps_json"),
    ("rpq.identities", "reports_to_csv"),
    ("rpq.identities", "reports_to_json_obj"),
)

IDENTITY_SUITES = ("hs1", "hs2", "hsa", "hsb", "cauchy")


# Observers update the counters after a wrapped call returns.

def _count_points(counts, args, kwargs, result):
    counts["lattice.points_listed"] += result


def _binomial(counts, args, kwargs, result):
    counts["algebra.binomial_calls"] += 1


def _fit(counts, args, kwargs, result):
    counts["algebra.fit_monomial_calls"] += 1
    counts["algebra.fit_found"] += bool(result.found)


def _make_table(counts, args, kwargs, result):
    counts["pmf.make_table_calls"] += 1
    counts["pmf.rows_normalized"] += len(result.probabilities)
    z = result.z_enumerated
    if isinstance(z, Fraction):
        bits = z.numerator.bit_length() + z.denominator.bit_length()
        counts["pmf.normalizer_bits"] = max(counts.get("pmf.normalizer_bits", 0), bits)


def _verify(counts, args, kwargs, result):
    counts["identities.reports"] += len(result)
    counts["identities.exact"] += sum(1 for r in result if r.exact_match)


def _hsb(counts, args, kwargs, result):
    if kwargs.get("mirror"):
        counts["identities.hsb_mirror_retries"] += 1


def _draws(counts, args, kwargs, result):
    counts["sampler.draws"] += len(result.draws)


def _bytes_out(counts, args, kwargs, result):
    if isinstance(result, str):
        counts["serialize.bytes_out"] += len(result.encode("utf-8"))


def _suite_span(args, kwargs):
    suite = args[0] if args else kwargs.get("identity")
    return f"identities.{suite}" if suite in IDENTITY_SUITES else "identities.other"


def _targets():
    """(module, function, span name or None, observer) for every wrapper."""
    out = [
        ("rpq.cli", "main", "cli", None),
        ("rpq.lattice", "count_points", None, _count_points),
        ("rpq.lattice", "enumerate_points", "lattice.enumerate", None),
        ("rpq.lattice", "weighted_sum", "lattice.weighted_sum", None),
        ("rpq.algebra", "deformed_binomial", None, _binomial),
        ("rpq.algebra", "fit_monomial", "algebra.fit_monomial", _fit),
        ("rpq.pmf", "make_table", "pmf.make_table", _make_table),
        ("rpq.pmf", "oracle_expectation", "pmf.oracle_expectation", None),
        ("rpq.identities", "verify_identity", _suite_span, _verify),
        ("rpq.identities", "hsb_lhs", None, _hsb),
        ("rpq.sampler", "sample", "sampler.sample", _draws),
        ("rpq.sampler", "sequential_sample", "sampler.sequential_sample", _draws),
        ("rpq.sampler", "path_probabilities", "sampler.path_probabilities", None),
    ]
    for kind in ("first_kind", "second_kind"):
        module = f"rpq.{kind}"
        out.append((module, "joint_pmf", f"{kind}.joint_pmf", None))
        out.extend((module, name, f"{kind}.derived", None) for name in DERIVED)
        out.append((module, "bivariate_moments", f"{kind}.moments", None))
    out.extend((module, name, "serialize", _bytes_out) for module, name in SERIALIZE_FUNCTIONS)
    return out


class Tracer:
    """Spans and counters for one traced stretch of work in this process."""

    def __init__(self):
        self.spans = []
        self.counts = _Counts()
        self._stack = []
        self._patched = []
        self._caches_start = None

    def _wrap(self, fn, span, observe):
        spans, stack, counts = self.spans, self._stack, self.counts

        if span is None:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                observe(counts, args, kwargs, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                name = span(args, kwargs) if callable(span) else span
                index = len(spans)
                spans.append(None)
                stack.append(index)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[index] = (name, start, end, stack[-1] if stack else -1)
                if observe is not None:
                    observe(counts, args, kwargs, result)
                return result

        return wrapper

    def install(self):
        for name in LAYER_MODULES:
            __import__(name)
        self._caches_start = _cache_stats()
        modules = [m for n, m in list(sys.modules.items()) if n == "rpq" or n.startswith("rpq.")]
        for module_name, attr, span, observe in _targets():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, span, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
        return self

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()
        for name, (hits, misses, entries) in _cache_stats().items():
            hits0, misses0, _ = self._caches_start[name]
            self.counts[f"{name}.hits"] += hits - hits0
            self.counts[f"{name}.misses"] += misses - misses0
            self.counts[f"{name}.entries"] = entries

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def dump(self):
        """Spans and plain counters in a JSON-ready form."""
        return {"spans": [list(s) for s in self.spans], "counts": dict(self.counts)}


class _Counts(dict):
    def __missing__(self, key):
        return 0


CACHED = (
    ("algebra.factorial", "rpq.algebra", "deformed_factorial"),
    ("first_kind.joint", "rpq.first_kind", "joint_pmf"),
    ("second_kind.joint", "rpq.second_kind", "joint_pmf"),
)


def _cache_stats():
    """(hits, misses, entries) of each cached function, zeros if it has no
    `cache_info`."""
    out = {}
    for name, module, attr in CACHED:
        info = getattr(getattr(sys.modules[module], attr), "cache_info", None)
        stats = info() if info is not None else None
        out[name] = (stats.hits, stats.misses, stats.currsize) if stats else (0, 0, 0)
    return out


def span_seconds(spans):
    """(self, inclusive) seconds per span name.  Self time is a span's
    duration minus the part its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    own, inclusive = {}, {}
    for (name, start, end, _), inner in zip(spans, child):
        own[name] = own.get(name, 0.0) + (end - start) - inner
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
    return own, inclusive


class LayerTotals:
    """Per-layer figures merged over every traced process of a run."""

    def __init__(self):
        self.seconds = {}  # self time per span name
        self.inclusive = {}
        self.counts = _Counts()

    def add(self, dump):
        for totals, times in zip((self.seconds, self.inclusive), span_seconds(dump["spans"])):
            for name, value in times.items():
                totals[name] = totals.get(name, 0.0) + value
        for key, value in dump["counts"].items():
            if key == "pmf.normalizer_bits" or key.endswith(".entries"):
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value

    def metrics(self, passes):
        """Per-layer metrics per pass over the workload's op list.

        Times are self times, except that each identity suite reports the
        whole time spent in it, enumeration and fits included."""
        s = lambda name: self.seconds.get(name, 0.0) / passes
        whole = lambda name: self.inclusive.get(name, 0.0) / passes
        c = self.counts
        per_pass = lambda key: c[key] / passes
        ratio = lambda num, den: c[num] / c[den] if c[den] else 0.0
        hit_ratio = lambda name: ratio(f"{name}.hits", f"{name}.calls")
        for name, _, _ in CACHED:
            c[f"{name}.calls"] = c[f"{name}.hits"] + c[f"{name}.misses"]
        return {
            "lattice.points_listed": per_pass("lattice.points_listed"),
            "lattice.enumerate_s": s("lattice.enumerate"),
            "lattice.weighted_sum_s": s("lattice.weighted_sum"),
            "algebra.binomial_calls": per_pass("algebra.binomial_calls"),
            "algebra.factorial_cache_hit_ratio": hit_ratio("algebra.factorial"),
            "algebra.factorial_cache_entries": c["algebra.factorial.entries"],
            "algebra.fit_monomial_calls": per_pass("algebra.fit_monomial_calls"),
            "algebra.fit_monomial_s": s("algebra.fit_monomial"),
            "algebra.fit_found_ratio": ratio("algebra.fit_found", "algebra.fit_monomial_calls"),
            "pmf.make_table_calls": per_pass("pmf.make_table_calls"),
            "pmf.make_table_s": s("pmf.make_table"),
            "pmf.rows_normalized": per_pass("pmf.rows_normalized"),
            "pmf.normalizer_bits": c["pmf.normalizer_bits"],
            "pmf.oracle_expectation_s": s("pmf.oracle_expectation"),
            "first_kind.joint_pmf_s": s("first_kind.joint_pmf"),
            "second_kind.joint_pmf_s": s("second_kind.joint_pmf"),
            "first_kind.joint_cache_hit_ratio": hit_ratio("first_kind.joint"),
            "second_kind.joint_cache_hit_ratio": hit_ratio("second_kind.joint"),
            "first_kind.derived_s": s("first_kind.derived"),
            "second_kind.derived_s": s("second_kind.derived"),
            "first_kind.moments_s": s("first_kind.moments"),
            "second_kind.moments_s": s("second_kind.moments"),
            **{f"identities.{suite}_s": whole(f"identities.{suite}") for suite in IDENTITY_SUITES},
            "identities.reports": per_pass("identities.reports"),
            "identities.exact_ratio": ratio("identities.exact", "identities.reports"),
            "identities.hsb_mirror_retries": per_pass("identities.hsb_mirror_retries"),
            "identities.approx_fit_disagreements": per_pass("identities.approx_fit_disagreements"),
            "sampler.sample_s": s("sampler.sample"),
            "sampler.sequential_sample_s": s("sampler.sequential_sample"),
            "sampler.path_probabilities_s": s("sampler.path_probabilities"),
            "sampler.draws": per_pass("sampler.draws"),
            "serialize.s": s("serialize"),
            "serialize.bytes_out": per_pass("serialize.bytes_out"),
            "cli.self_s": s("cli"),
        }
