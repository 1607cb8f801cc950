"""Benchmark of the rpq package: `verify`, `tabulate` and `query` workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports `rpq` from `src/` and exits
with code 2 if that is missing.  Each workload is a seeded list of ops.  The
CLI workloads (`verify`, `tabulate`) start one fresh interpreter per op, as a
user typing `rpq` commands does; `query` makes library calls in this process
against joint laws built during set-up, after one untimed pass that fills
its caches.  The op list is run in whole passes, one op after another (a
closed loop with one client, no threads), until `--seconds` have passed and
the rarest kind of op has run at least 16 times; every output is checked
(see checks.py).

With `--trace 0` the last stdout line reports the end-to-end metrics, with
`--trace 1` the per-layer metrics of BENCHMARK.json: the first half of the
time runs untraced, the second half with the layer tracer installed, and
the ratio of the two pass times is the tracing overhead.  Inputs, spans
and outputs go to `.perfbench/<workload>/` under the checkout.

Every time in the end-to-end metrics is in reference seconds: seconds on a
core where a fixed piece of exact arithmetic (`speed_probe`) takes 1 ms.  On
a shared host the cores change speed by up to 2x in phases of seconds;
process CPU time slows with wall time, so no other clock removes that.  The
probe runs in this process between ops, and each measured time is
multiplied by the probe's reference time over its current time.  The probe
does not touch rpq, so a slower program still reads slower.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import LayerTotals, Tracer  # noqa: E402

WORKLOADS = ("verify", "tabulate", "query")
SETUP_PROBES = 9
OP_CPU_LIMIT_S = 150
PROBE_REF_S = 0.001  # the speed probe's time on the reference core
PROBE_EVERY_S = 0.25  # shorter than the host's phases of one speed

CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))


def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (OP_CPU_LIMIT_S, OP_CPU_LIMIT_S))


def run_child(cmd, **streams):
    """Run a child to its exit and wait for it.

    No wait timeout is passed: subprocess then polls in steps of up to 50 ms,
    which would quantize every timing.  A runaway child is stopped by its
    CPU-time limit instead (it ends with SIGXCPU, a nonzero exit)."""
    return subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, preexec_fn=_limit_cpu, **streams)


def speed_probe():
    """Median seconds of three runs of a fixed exact-arithmetic loop, about
    1 ms each on a 2-core Xeon VM under Python 3.11 in its fast phases."""
    samples = []
    for _ in range(3):
        start = perf_counter()
        total = Fraction(0)
        for i in range(1, 200):
            total += Fraction(3, i) * Fraction(i + 1, 7)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


class HostSpeed:
    """Factor that turns measured seconds into reference seconds."""

    def __init__(self):
        self.at = None
        self.value = 1.0

    def scale(self, fresh=False):
        """The factor from the last probe, probing again when it is older
        than PROBE_EVERY_S or `fresh` is set."""
        if fresh or self.at is None or perf_counter() - self.at >= PROBE_EVERY_S:
            self.value = PROBE_REF_S / speed_probe()
            self.at = perf_counter()
        return self.value

    def around(self, fn):
        """Run fn() and return (reference seconds, result); the factor is
        the geometric mean of fresh probes before and after the call."""
        before = self.scale(fresh=True)
        start = perf_counter()
        result = fn()
        seconds = perf_counter() - start
        return seconds * (before * self.scale(fresh=True)) ** 0.5, result


def _sizes(name):
    return workloads.TINY if name == "tiny" else workloads.FULL


def _import_rpq():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rpq

    if Path(rpq.__file__).resolve().parent != SRC / "rpq":
        raise ImportError(f"rpq imported from {rpq.__file__}, not from {SRC}")
    return rpq


def _fail(label, message):
    print(f"FAILED {label}: {message}", file=sys.stderr)


class CliWorkload:
    """Ops that each run one `rpq` command in a fresh interpreter."""

    def __init__(self, name, seed, sizes, workdir, reference, speed):
        self.speed = speed
        if name == "verify":
            self.ops = workloads.verify_ops(seed, sizes)
        else:
            self.ops = workloads.tabulate_ops(seed, str(workdir), sizes)
        self.workdir = workdir
        self.reference = reference
        self.verified = {}  # op index -> sha256 of an output that passed its check
        self.parsed = {}  # op index -> exact reports, the twin of an approximate op
        self.disagreements = {}
        self.dumps = []

    def run_op(self, i, totals):
        op = self.ops[i]
        if totals is None:
            cmd = [sys.executable, "-m", "rpq.cli", *op["argv"]]
        else:
            trace_file = self.workdir / "op-trace.json"
            cmd = [sys.executable, str(BENCH / "bootstrap.py"), str(trace_file), *op["argv"]]
        seconds, proc = self.speed.around(
            lambda: run_child(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE))
        if proc.returncode != 0:
            _fail(op["label"], f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-500:]}")
            return seconds, False
        ok = self.check(i, proc.stdout)
        if totals is not None:
            dump = json.loads(trace_file.read_text())
            totals.add(dump)
            totals.counts["identities.approx_fit_disagreements"] += self.disagreements.get(i, 0)
            self.dumps.append({"op": op["label"], **dump})
        return seconds, ok

    def check(self, i, stdout):
        """Check op i's output in full, unless it is byte-identical to an
        output of the same op that already passed."""
        op = self.ops[i]
        try:
            data = Path(op["output"]).read_bytes() if op.get("output") else stdout
            digest = hashlib.sha256(data).hexdigest()
            if self.verified.get(i) == digest:
                return True
            twin = self.parsed.get(op["check"].get("twin"))
            reports, disagreements = checks.check_cli_output(
                op, data.decode("utf-8"), self.reference, twin)
        except Exception as exc:  # any malformed output is a failed op, not a crash
            _fail(op["label"], f"{type(exc).__name__}: {exc}")
            return False
        if reports is not None:
            self.parsed[i] = reports
        self.disagreements[i] = disagreements
        self.verified[i] = digest
        return True

    def finish(self):
        for op in self.ops:
            if op.get("output"):
                Path(op["output"]).unlink(missing_ok=True)
        (self.workdir / "op-trace.json").unlink(missing_ok=True)

    @staticmethod
    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def build_joints(specs):
    """The joint laws a query run reads, built through the library."""
    from rpq import first_kind, make_preset, second_kind

    joints, params = [], []
    for _, kind, preset, p, q, k, n in specs:
        alg = make_preset(preset, p=None if preset == "q" else p, q=q)
        module = first_kind if kind == "first" else second_kind
        ps = (first_kind.FirstKindParams if kind == "first" else second_kind.SecondKindParams)(alg, k, n)
        params.append(ps)
        joints.append(module.joint_pmf(ps))
    return joints, params


class QueryWorkload:
    """Library calls in this process against three joints built in set-up."""

    def __init__(self, seed, sizes, reference, speed):
        self.speed = speed
        specs = workloads.query_joints(seed, sizes)
        self.joints, self.params = build_joints(specs)
        self.ops = workloads.query_ops(seed, [t.support for t in self.joints], sizes)
        self.calls = [self._bind(op) for op in self.ops]
        self.checker = checks.QueryChecker(self.joints, specs, reference)
        self.verified = {}
        self.dumps = []

    def _bind(self, op):
        """(module, function name, args) of one op; the function is looked up
        at call time so an installed tracer sees the call."""
        from rpq import first_kind, sampler, second_kind
        from rpq.first_kind import GroupingScheme

        j = op["joint"]
        module = first_kind if op["kind"] == "first" else second_kind
        params = self.params[j]
        name = op["fn"]
        if name == "conditional":
            return module, "conditional_pmf", (params, tuple(op["given"]), op["m"])
        if name == "marginal":
            return module, "marginal_pmf", (params, op["r"])
        if name == "moments":
            return module, "bivariate_moments", (params, op["i1"], op["i2"])
        if name == "sample":
            return sampler, "sample", (self.joints[j], op["seed"], op["count"])
        if name == "sequential":
            return sampler, "sequential_sample", (params, op["seed"], op["count"])
        scheme = GroupingScheme(tuple(op["scheme"]))
        if name == "grouped":
            return module, "grouped_pmf", (params, scheme)
        if name == "grouped_marginal":
            return module, "grouped_marginal_pmf", (params, scheme, op["nu"])
        return module, "grouped_conditional_pmf", (params, scheme, tuple(op["given"]))

    def run_op(self, i, totals):
        module, name, args = self.calls[i]
        scale = self.speed.scale()
        start = perf_counter()
        try:
            result = getattr(module, name)(*args)
        except Exception as exc:  # a raising call is a failed op
            _fail(f"query {i} {name}", f"{type(exc).__name__}: {exc}")
            return (perf_counter() - start) * scale, False
        seconds = (perf_counter() - start) * scale
        digest = checks.result_digest(result)
        if self.verified.get(i) == digest:
            return seconds, True
        try:
            self.checker.check(self.ops[i], result)
        except Exception as exc:
            _fail(f"query {i} {name}", f"{type(exc).__name__}: {exc}")
            return seconds, False
        self.verified[i] = digest
        return seconds, True

    def finish(self):
        pass

    @staticmethod
    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_probe(workload, seed, sizes_name, workdir):
    """What one cold start does before the first op: import rpq and build
    the inputs; for `query` also the joint laws the queries read."""
    _import_rpq()
    sizes = _sizes(sizes_name)
    if workload == "query":
        specs = workloads.query_joints(seed, sizes)
        joints, _ = build_joints(specs)
        workloads.query_ops(seed, [t.support for t in joints], sizes)
    else:
        import rpq.cli  # noqa: F401

        if workload == "verify":
            workloads.verify_ops(seed, sizes)
        else:
            workloads.tabulate_ops(seed, workdir, sizes)


def time_setup(workload, seed, sizes_name, workdir, probes, speed):
    """Median time, in reference seconds, of `probes` fresh interpreters
    running setup_probe."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "run.setup_probe(sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5])")
    cmd = [sys.executable, "-c", code, str(BENCH), workload, str(seed), sizes_name, str(workdir)]
    samples = []
    for attempt in range(probes + 1):
        seconds, proc = speed.around(lambda: run_child(cmd, stdout=subprocess.DEVNULL))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        if attempt:  # the first start compiles bytecode and warms the file cache
            samples.append(seconds)
    return statistics.median(samples)


def min_passes(ops):
    """Fewest passes in which the rarest kind of op runs at least 16 times.

    The tail is the 11th-slowest op.  With 16 ops of the slowest kind it is
    the 6th-fastest of them: it does not jump between kinds as the pass
    count changes from run to run, nor rest on the few ops whose time the
    speed probe misjudged most."""
    rarest = min(Counter(op.get("label") or (op["fn"], op["joint"]) for op in ops).values())
    return -(-16 // rarest)


def run_passes(work, budget, traced, totals=None, at_least=1):
    """Whole passes over the op list until `budget` seconds have passed and
    at least `at_least` passes are done.

    Returns one list of (seconds, ok, units) per pass."""
    passes = []
    start = perf_counter()
    while len(passes) < at_least or perf_counter() - start < budget:
        tracer = Tracer().install() if traced and isinstance(work, QueryWorkload) else None
        results = []
        try:
            for i, op in enumerate(work.ops):
                seconds, ok = work.run_op(i, totals if traced else None)
                results.append((seconds, ok, op.get("units", 1)))
        finally:
            if tracer is not None:
                tracer.uninstall()
                dump = tracer.dump()
                totals.add(dump)
                work.dumps.append(dump)
        passes.append(results)
    return passes


def tail(latencies):
    """(value, percentile, count): the highest percentile with at least ten
    ops beyond it, or the maximum when there are fewer than 20 ops."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, n
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n, n


def pass_wall(passes):
    """Mean time of one pass over the op list, in reference seconds."""
    return statistics.fmean(sum(s for s, _, _ in p) for p in passes)


def run(workload, seed, seconds, trace, sizes_name="full", workdir=None, reference=None,
        setup_probes=SETUP_PROBES):
    """One benchmark run; returns the result object printed as the last line."""
    _import_rpq()
    sizes = _sizes(sizes_name)
    workdir = Path(workdir) if workdir is not None else ROOT / ".perfbench" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    if reference is None:
        reference = json.loads((BENCH / "reference.json").read_text())
    speed = HostSpeed()
    if workload == "query":
        work = QueryWorkload(seed, sizes, reference, speed)
    else:
        work = CliWorkload(workload, seed, sizes, workdir, reference, speed)
    (workdir / "ops.json").write_text(json.dumps(work.ops, indent=1))

    # The long-lived query process fills its caches in one untimed pass; a
    # CLI op starts a cold interpreter every time, as a user's command does.
    warmup = run_passes(work, 0, traced=False) if workload == "query" else []
    plain = run_passes(work, seconds / 2 if trace else seconds, traced=False,
                       at_least=1 if trace else min_passes(work.ops))
    peak_rss_mb = work.peak_rss_mb()  # read before the set-up probes add children
    totals = LayerTotals() if trace else None
    traced = run_passes(work, seconds / 2, traced=True, totals=totals) if trace else []
    work.finish()
    setup_s = None if trace else time_setup(workload, seed, sizes_name, workdir, setup_probes, speed)

    results = [r for p in warmup + plain + traced for r in p]
    attempted = len(results)
    failed = sum(1 for _, ok, _ in results if not ok)
    latencies = [s for p in plain for s, _, _ in p]
    tail_value, tail_pct, tail_n = tail(latencies)
    summary = (f"# {workload} seed={seed} passes={len(warmup)}+{len(plain)}+{len(traced)} ops={attempted} "
               f"failed={failed} error_rate={failed / attempted:.4g} "
               f"op_tail=p{tail_pct:.2f} of {tail_n} ops")

    if trace:
        (workdir / "trace.json").write_text(json.dumps(work.dumps))
        values = totals.metrics(len(traced))
        values["trace.overhead_ratio"] = pass_wall(traced) / pass_wall(plain)
        units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": pass_wall(plain),
            "throughput": sum(u for p in plain for _, _, u in p) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_tail_ms": tail_value * 1000,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    return summary, {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rpq" / "__init__.py").is_file():
        print(f"error: no rpq package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    # One core for this process and every child: the host's cores change
    # speed independently, and the probe must time the core that runs the ops.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        summary, result = run(args.workload, args.seed, args.seconds, args.trace)
    except Exception:
        traceback.print_exc()
        return 1
    print(summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
