"""`rpq verify` writes each report once, as text, in chunks.

The reference is the document the CLI wrote before it streamed, computed
here from the library: `dumps_json` of {config, reports:
reports_to_json_obj(...), schema_version} for JSON, and `config_header`
plus `reports_to_csv(...)` for CSV, with the config the CLI echoes and the
reports of every suite the run names, in order.
"""

import io
from contextlib import redirect_stdout

import pytest

from rpq import cli, identities, serialize
from rpq.algebra import IDENTITY_IDS
from rpq.identities import reports_to_csv, reports_to_json_obj, verify_identity

# Each preset at (p, q) = (9/10, 1/2) and at its decimal twin.
PRESETS = {
    "js": (("--p", "9/10", "--q", "1/2"), ("--p", "0.9", "--q", "0.5")),
    "q": (("--q", "1/2"), ("--q", "0.5")),
    "quesne": (("--p", "9/10", "--q", "1/2"), ("--p", "0.9", "--q", "0.5")),
    "cj": (("--p", "9/10", "--q", "1/2"), ("--p", "0.9", "--q", "0.5")),
    "ac": (("--q", "1/2"), ("--q", "0.5")),
}


def _reference(argv):
    """The document of `argv` as one whole-document write."""
    args = cli.build_parser().parse_args(argv)
    alg = cli._make_algebra(args)
    config = cli._config(args, alg, suite=args.suite, kmax=args.kmax,
                         nmax=args.kmax if args.nmax is None else args.nmax)
    suites = IDENTITY_IDS if args.suite == "all" else (args.suite,)
    reports = [r for suite in suites
               for r in verify_identity(suite, alg, args.kmax, args.nmax, literal_window=args.literal_window)]
    config["exact_count"] = f"{sum(r.exact_match for r in reports)}/{len(reports)}"
    config["fitted_count"] = f"{sum(r.monomial_found for r in reports)}/{len(reports)}"
    if args.format == "json":
        return serialize.dumps_json({"config": serialize._plain(config), "reports": reports_to_json_obj(reports),
                                     "schema_version": serialize.SCHEMA_VERSION})
    return serialize.config_header(config) + reports_to_csv(reports)


def _stdout(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def _chunks(argv):
    args = cli.build_parser(argv).parse_args(argv)
    return list(cli._cmd_verify(args, cli._make_algebra(args)))


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("exact", (True, False), ids=("exact", "decimal"))
@pytest.mark.parametrize("preset", PRESETS)
def test_stream_equals_the_whole_document(preset, exact, fmt):
    base = ("verify", "--preset", preset, *PRESETS[preset][not exact], "--format", fmt)
    runs = [("--suite", "all", "--kmax", str(kmax)) for kmax in range(1, 6)]
    runs += [("--suite", suite, "--kmax", "3") + extra for suite in IDENTITY_IDS
             for extra in ((), ("--nmax", "0"), ("--nmax", "5"))]
    runs += [("--suite", suite, "--kmax", "4", "--literal-window") for suite in ("hs1", "hsa", "all")]
    for run in runs:
        argv = base + run
        assert _stdout(argv) == _reference(argv), argv


@pytest.mark.parametrize("chunk_rows", (1, 7, 100))
@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_chunk_boundaries_keep_the_bytes(chunk_rows, fmt, monkeypatch):
    argv = ("verify", "--suite", "all", "--preset", "js", "--p", "9/10", "--q", "1/2", "--kmax", "4",
            "--format", fmt)
    reference = _reference(argv)
    monkeypatch.setattr(serialize, "CHUNK_ROWS", chunk_rows)
    chunks = _chunks(argv)
    counts = [identities.report_count(suite, 4) for suite in IDENTITY_IDS]
    # One head, a chunk per CHUNK_ROWS reports of each suite, and for JSON a tail.
    assert len(chunks) == 1 + sum(-(-count // chunk_rows) for count in counts) + (fmt == "json")
    assert all(type(chunk) is str for chunk in chunks)
    assert "".join(chunks) == reference


def test_json_at_kmax_5_arrives_in_chunks():
    argv = ("verify", "--suite", "all", "--preset", "js", "--p", "9/10", "--q", "1/2", "--kmax", "5",
            "--format", "json")
    chunks = _chunks(argv)
    assert len(chunks) > 2 and "".join(chunks) == _reference(argv)


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_a_run_with_no_reports(fmt):
    argv = ("verify", "--suite", "hs1", "--preset", "js", "--p", "9/10", "--q", "1/2", "--kmax", "1",
            "--nmax", "0", "--format", fmt)
    out = _stdout(argv)
    assert out == _reference(argv)
    if fmt == "json":
        assert '\n  "reports": [],\n' in out and '"exact_count": "0/0"' in out
    else:
        assert "# exact_count=0/0\n" in out and out.endswith("# tau2=1/2\nidentity,k,n,m,groups,exact,a,b\n")


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_every_byte_is_text_a_named_writer_returns(fmt, monkeypatch):
    # The benchmark's tracer counts output bytes as the str results of these functions.
    returned = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            returned.append(result)
            return result
        return wrapper

    for module, name in ((serialize, "dumps_json"), (serialize, "config_header"),
                         (identities, "reports_to_csv"), (identities, "reports_to_json_obj")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    monkeypatch.setattr(serialize, "CHUNK_ROWS", 7)
    for kmax, nmax in (("4", ()), ("1", ("--nmax", "0"))):
        returned.clear()
        out = _stdout(("verify", "--suite", "all", "--preset", "js", "--p", "9/10", "--q", "1/2", "--kmax", kmax,
                       *nmax, "--format", fmt))
        assert sum(len(text) for text in returned if isinstance(text, str)) == len(out)
