"""Write reference.json: the digest of every exact output a workload can ask
for, at the full and the tiny sizes, computed through the library.

    python3 perfbench/make_reference.py

Run it from the root of a checkout whose outputs are known good.  A change
that alters exact-mode results on purpose regenerates the file and says so.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from rpq import GroupingScheme, make_preset, verify_identity  # noqa: E402
from rpq.identities import IDENTITY_IDS, reports_to_json_obj  # noqa: E402

import checks  # noqa: E402
import workloads as w  # noqa: E402
from run import build_joints  # noqa: E402


def table_digest(table):
    return checks.table_digest(table.support, table.weights, table.probabilities)


def report_digest(alg, kmax):
    reports = [r for suite in IDENTITY_IDS for r in verify_identity(suite, alg, kmax)]
    return checks.report_digest(reports_to_json_obj(reports))


def main():
    from rpq import first_kind

    out = {}
    for sizes in (w.FULL, w.TINY):
        kmax = str(sizes.kmax)
        for p, q in w.JS_GRID:
            out[w.verify_key("js", p, q, kmax)] = report_digest(make_preset("js", p=p, q=q), sizes.kmax)
            specs = [
                (w.table_key("first", "js", p, q, *sizes.first), "first", "js", p, q, *sizes.first),
                (w.table_key("second", "js", p, q, *sizes.second), "second", "js", p, q, *sizes.second),
                (w.table_key("first", "js", p, q, *sizes.query_first), "first", "js", p, q, *sizes.query_first),
                (w.table_key("second", "js", p, q, *sizes.query_second), "second", "js", p, q,
                 *sizes.query_second),
            ]
            joints, params = build_joints(specs)
            for spec, table in zip(specs, joints):
                out[spec[0]] = table_digest(table)
            k, n = sizes.grouped
            grouped_params = build_joints([(None, "first", "js", p, q, k, n)])[1][0]
            for scheme in sizes.schemes:
                table = first_kind.grouped_pmf(grouped_params, GroupingScheme(scheme))
                out[w.table_key("grouped-first", "js", p, q, k, n, scheme)] = table_digest(table)
            first_kind.joint_pmf.cache_clear()
        for q in w.Q_GRID:
            out[w.verify_key("q", "1", q, kmax)] = report_digest(make_preset("q", q=q), sizes.kmax)
            spec = (w.table_key("first", "q", "1", q, *sizes.query_first), "first", "q", "1", q,
                    *sizes.query_first)
            out[spec[0]] = table_digest(build_joints([spec])[0][0])
        print(f"{len(out)} digests", file=sys.stderr)
    (BENCH / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
