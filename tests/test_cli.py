import errno
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from rpq import jagannathan_srinivasa, second_kind
from rpq.cli import main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_tabulate_first_kind_csv():
    code, out, err = run_cli(
        "tabulate", "--kind", "first", "--preset", "q", "--q", "1/2",
        "--k", "2", "--n", "1", "--format", "csv",
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    data = [line for line in lines if not line.startswith("#")]
    assert data[0] == "x1,x2,weight,probability"
    assert data[1:] == ["0,0,1,4/7", "0,1,1/2,2/7", "1,0,1/4,1/7"]
    assert "# subcommand=tabulate" in lines
    assert "# q=1/2" in lines


def test_verify_all_pass():
    code, out, err = run_cli("verify", "--suite", "hs1", "--preset", "q", "--q", "1/2", "--kmax", "8")
    assert code == 0
    rows = [line for line in out.strip().splitlines() if not line.startswith("#")][1:]
    assert rows and all(row.split(",")[5] == "true" for row in rows)
    assert any(line.startswith("# exact_count=") for line in out.splitlines())


def test_verify_triangular():
    code, out, _ = run_cli("verify", "--suite", "triangular", "--preset", "js",
                           "--p", "9/10", "--q", "1/2", "--kmax", "5")
    assert code == 0
    rows = [line for line in out.strip().splitlines() if not line.startswith("#")][1:]
    assert all(row.endswith("true,true") for row in rows)


def test_validation_exit_code_names_field():
    code, out, err = run_cli("tabulate", "--kind", "first", "--preset", "q", "--q", "1/2",
                             "--k", "2", "--n", "4")
    assert code == 2
    assert out == ""
    assert "n:" in err and "k+1" in err


def test_unknown_preset_exit_code():
    code, _, err = run_cli("tabulate", "--preset", "bogus", "--q", "1/2", "--k", "1", "--n", "1")
    assert code == 2
    assert "preset" in err


def test_malformed_rational_exit_code():
    code, _, err = run_cli("tabulate", "--preset", "q", "--q", "1/0", "--k", "1", "--n", "1")
    assert code == 2
    assert "denominator" in err


def test_overlong_rational_exit_code(tmp_path):
    # Past the interpreter's limit on the digits of an int read from text.
    nines = "9" * 5000
    code, out, err = run_cli("tabulate", "--preset", "js", "--p", f"1/{nines}", "--q", f"1/1{nines}",
                             "--k", "2", "--n", "1")
    assert (code, out) == (2, "") and "is too long" in err
    path = tmp_path / "algebra.cfg"
    path.write_text(f"name=js\np=1/{nines}\nq=1/1{nines}\n")
    code, out, err = run_cli("tabulate", "--algebra-config", str(path), "--k", "2", "--n", "1")
    assert (code, out) == (2, "") and "is too long" in err


def test_exact_output_past_the_int_digit_limit():
    """Rationals with more digits than the interpreter converts from an int
    to text are written in full, in CSV and JSON."""
    argv = ("tabulate", "--kind", "second", "--preset", "js", "--p", "9/10", "--q", "1/2",
            "--k", "1", "--n", "2200")
    (code, csv_out, err), (json_code, json_out, json_err) = run_cli(*argv), run_cli(*argv, "--format", "json")
    assert (code, err, json_code, json_err) == (0, "", 0, "")
    rows = [line.split(",") for line in csv_out.splitlines() if not line.startswith("#")][1:]
    obj = json.loads(json_out)
    stream = second_kind.joint_stream(
        second_kind.SecondKindParams(jagannathan_srinivasa(Fraction(9, 10), Fraction(1, 2)), 1, 2200))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [[str(x), str(stream.weights[x]), str(stream.probabilities[x])] for x in range(2201)]
        assert max(len(weight) for _, weight, _ in expected) > limit
        assert rows == expected
        assert [[str(row["point"][0]), row["weight"], row["probability"]] for row in obj["rows"]] == expected
        assert obj["z_enumerated"] == str(stream.z_enumerated)
    finally:
        sys.set_int_max_str_digits(limit)


def test_capacity_exit_code():
    code, out, err = run_cli("tabulate", "--kind", "second", "--preset", "q", "--q", "1/2",
                             "--k", "14", "--n", "14")
    assert code == 3
    assert out == ""
    assert "guard" in err


def test_json_round_trip_byte_identical():
    code, out, _ = run_cli("tabulate", "--kind", "second", "--preset", "js", "--p", "9/10",
                           "--q", "1/2", "--k", "2", "--n", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert json.dumps(obj, sort_keys=True, indent=2) + "\n" == out
    assert obj["schema_version"] == 1
    assert obj["config"]["mode"] == "exact"


def test_byte_determinism():
    argv = ("sample", "--kind", "first", "--preset", "q", "--q", "1/2", "--k", "2", "--n", "1",
            "--seed", "11", "--count", "500", "--format", "csv")
    assert run_cli(*argv) == run_cli(*argv)


def test_decimal_input_banner():
    code, out, _ = run_cli("tabulate", "--preset", "q", "--q", "0.5", "--k", "1", "--n", "1")
    assert code == 0
    assert "# mode=approximate" in out
    assert "# note=decimal parameters force approximate mode" in out


def test_conditional_and_marginal_commands():
    code, out, _ = run_cli("conditional", "--preset", "q", "--q", "1/2", "--k", "2", "--n", "1",
                           "--given", "0", "--m", "2")
    assert code == 0
    assert "1,1/2,1/3" in out.replace("\r", "")
    code, out, _ = run_cli("marginal", "--preset", "q", "--q", "1/2", "--k", "2", "--n", "1", "--r", "1")
    assert code == 0
    assert "0,3/2,6/7" in out


def test_zero_probability_conditioning_exit_code():
    code, _, err = run_cli("conditional", "--preset", "q", "--q", "1/2", "--k", "3", "--n", "1",
                           "--given", "1,1")
    assert code == 2
    assert "given" in err


def test_grouped_command():
    code, out, _ = run_cli("grouped", "--preset", "q", "--q", "1/2", "--k", "2", "--n", "1",
                           "--groups", "2")
    assert code == 0
    data = [line for line in out.strip().splitlines() if not line.startswith("#")]
    assert data == ["y1,weight,probability", "0,1,4/7", "1,3/4,3/7"]


def test_moments_command_json():
    code, out, _ = run_cli("moments", "--kind", "second", "--preset", "q", "--q", "1/2",
                           "--k", "2", "--n", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert all(entry["match"] for entry in obj["moments"])


def test_sample_json_expected_frequencies():
    code, out, _ = run_cli("sample", "--preset", "q", "--q", "1/2", "--k", "2", "--n", "1",
                           "--seed", "4", "--count", "1000", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    expected = {tuple(row["point"]): row["expected"] for row in obj["frequencies"]}
    assert expected[(0, 0)] == "4/7"


def test_sequential_sample_cli():
    code, out, _ = run_cli("sample", "--preset", "q", "--q", "1/2", "--k", "2", "--n", "1",
                           "--seed", "4", "--count", "50", "--sequential")
    assert code == 0
    code2, out2, err = run_cli("sample", "--kind", "second", "--preset", "q", "--q", "1/2",
                               "--k", "2", "--n", "1", "--seed", "4", "--count", "5", "--sequential")
    assert code2 == 0 and err == "" and "# sequential=True" in out2.splitlines()


@pytest.mark.parametrize("argv, code, err", [
    (("--k", "3", "--n", "2", "--seed", "1", "--count", "0"), 2, "error: count: need count >= 1, got 0\n"),
    (("--k", "3", "--n", "5", "--seed", "1", "--count", "10"), 2,
     "error: n: first kind needs 0 <= n <= k+1, got n=5, k=3\n"),
    (("--kind", "second", "--k", "16", "--n", "16", "--seed", "1", "--count", "10"), 3,
     "error: 601080390 lattice points exceed the guard (10000000)\n"),
], ids=("count-0", "n-out-of-range", "second-k16-n16"))
@pytest.mark.parametrize("sequential", ((), ("--sequential",)), ids=("inverse-cdf", "sequential"))
def test_sample_refusals(argv, code, err, sequential):
    assert run_cli("sample", *sequential, "--preset", "js", "--p", "9/10", "--q", "1/2", *argv) == (code, "", err)


# 601,080,390 joint points, past the guard (exit 3): a command validates
# its own arguments first, before it takes the joint's guard.
K16 = ("--kind", "second", "--k", "16", "--n", "16")


@pytest.mark.parametrize("argv, err", [
    (("conditional", "--kind", "first", "--given", "2"), "given: capacity-one occupancies are 0/1, got (2,)"),
    (("conditional", "--kind", "second", "--given=-1,0"), "given: occupancies are nonnegative, got (-1, 0)"),
    (("conditional", "--given", "1,x"), "given: expected comma-separated integers, got '1,x'"),
    (("grouped", "--groups", "2,x"), "groups: expected comma-separated integers, got '2,x'"),
    (("marginal", *K16, "--r", "99"), "r: marginal needs 1 <= r < k, got r=99, k=16"),
    (("conditional", *K16, "--given", "0,1", "--m", "99"), "conditional needs 1 <= r < m <= k, got r=2, m=99, k=16"),
    (("grouped", *K16, "--groups", "8,9"), "scheme: group sizes (8, 9) must sum to k=16"),
    (("moments", *K16, "--i1", "0"), "moment orders must be >= 1, got i1=0, i2=1"),
], ids=("first-given-2", "negative-given", "given-not-integers", "groups-not-integers",
        "k16-marginal-r", "k16-conditional-m", "k16-groups-sum", "k16-moment-order"))
def test_model_command_refusals(argv, err):
    size = () if "--k" in argv else ("--k", "3", "--n", "2")
    assert run_cli(*argv, "--preset", "js", "--p", "9/10", "--q", "1/2", *size) == (2, "", f"error: {err}\n")


def test_output_file_and_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("RPQ_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run_cli("tabulate", "--preset", "q", "--q", "1/2", "--k", "1", "--n", "1",
                           "--output", "table.csv")
    assert code == 0 and out == ""
    text = (tmp_path / "table.csv").read_text()
    assert "x1,weight,probability" in text


def test_algebra_config_file(tmp_path):
    path = tmp_path / "algebra.cfg"
    path.write_text("name=jagannathan-srinivasa\np=9/10\nq=1/2\nmode=exact\n")
    code, out, _ = run_cli("tabulate", "--algebra-config", str(path), "--k", "1", "--n", "1")
    assert code == 0
    assert "# algebra=jagannathan-srinivasa" in out


def test_output_into_missing_directory_exit_code(tmp_path):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli("tabulate", "--preset", "q", "--q", "1/2", "--k", "1", "--n", "1",
                             "--output", str(path))
    assert code == 2
    assert out == "" and not path.exists()
    assert str(path) in err


def test_large_n_second_kind_table_exits_zero():
    code, out, err = run_cli("tabulate", "--kind", "second", "--preset", "q", "--q", "1/2",
                             "--k", "1", "--n", "2000")
    assert code == 0, err
    assert len([line for line in out.splitlines() if not line.startswith("#")]) == 2002


@pytest.mark.parametrize("make", [
    lambda path: None,
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"\xff\xfe"),
], ids=("missing", "directory", "not-utf8"))
def test_unreadable_algebra_config_exit_code(tmp_path, make):
    path = tmp_path / "alg.cfg"
    make(path)
    out_path = tmp_path / "x.csv"
    code, out, err = run_cli("tabulate", "--algebra-config", str(path), "--k", "1", "--n", "1",
                             "--output", str(out_path))
    assert code == 2
    assert out == "" and not out_path.exists()
    assert "algebra-config" in err and str(path) in err


def test_approximate_overflow_exit_code():
    code, out, err = run_cli("tabulate", "--kind", "second", "--preset", "cj", "--p", "0.1",
                             "--q", "0.05", "--k", "6", "--n", "30")
    assert code == 2 and out == ""
    assert "p, q" in err and "exact mode" in err


TINY = ("--preset", "js", "--p", "1e-200", "--q", "1e-300")


@pytest.mark.parametrize("argv", [
    ("tabulate", "--kind", "first", "--k", "4", "--n", "2") + TINY,
    ("tabulate", "--kind", "second", "--k", "4", "--n", "2") + TINY,
    ("marginal", "--kind", "first", "--k", "4", "--n", "2", "--r", "1") + TINY,
    ("sample", "--k", "4", "--n", "2", "--seed", "1", "--count", "3", "--sequential") + TINY,
    ("verify", "--suite", "hs1", "--kmax", "3") + TINY,
    ("verify", "--suite", "cauchy", "--kmax", "3") + TINY,
    # [2 over 1] rounds to 0.0 though tau1 + tau2 is near 1e-200.
    ("verify", "--suite", "triangular", "--kmax", "3") + TINY,
    # The rhs [1075 over 1074] rounds to 0.0; no fit reads it.
    ("verify", "--suite", "hsb", "--preset", "js", "--p", "0.5", "--q", "0.25", "--kmax", "1", "--nmax", "1080"),
    ("moments", "--kind", "first", "--preset", "js", "--p", "1e-300", "--q", "1e-310",
     "--k", "2", "--n", "1"),
    # Positive weights that round to 0.0, with nothing divided by zero.
    ("tabulate", "--preset", "q", "--q", "1e-310", "--kind", "first", "--k", "4", "--n", "4"),
], ids=" ".join)
def test_approximate_underflow_exit_code(argv):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert "p, q" in err and "underflowed" in err and "exact mode" in err


def test_decimal_verify_reports_every_n_whose_rhs_is_in_range():
    # Up to n = 1073 the rhs is a positive float (2e-323 at n = 1073, a
    # subnormal), so no report is refused; n = 1074 is (see above).
    code, out, err = run_cli("verify", "--suite", "hsb", "--preset", "js", "--p", "0.5", "--q", "0.25",
                             "--kmax", "1", "--nmax", "1073")
    assert code == 0 and err == ""
    assert "# exact_count=1/1074" in out.splitlines()
    assert sum(line.startswith("hsb,") for line in out.splitlines()) == 1074


def test_underflowed_table_writes_no_output_file(tmp_path):
    target = tmp_path / "table.csv"
    code, out, err = run_cli("tabulate", "--preset", "q", "--q", "1e-310", "--kind", "first",
                             "--k", "4", "--n", "4", "--output", str(target))
    assert code == 2 and out == "" and not target.exists()
    assert "the probability of (1, 1, 0, 1) is 0.0" in err


def test_exact_mode_division_by_zero_is_not_an_underflow(monkeypatch):
    from rpq import cli

    def divide(args, alg):
        return [str(1 / (alg.q - alg.q))]

    monkeypatch.setitem(cli._COMMANDS, "tabulate", divide)
    with pytest.raises(ZeroDivisionError):
        run_cli("tabulate", "--preset", "js", "--p", "9/10", "--q", "1/2", "--k", "2", "--n", "1")


@pytest.mark.parametrize("suite", ("hs1", "triangular", "all"))
def test_negative_nmax_exit_code(suite):
    code, out, err = run_cli("verify", "--suite", suite, "--preset", "js", "--p", "9/10",
                             "--q", "1/2", "--kmax", "3", "--nmax", "-2")
    assert code == 2 and out == ""
    assert "nmax: need nmax >= 0" in err


def test_triangular_suite_refuses_nmax():
    argv = ("verify", "--suite", "triangular", "--preset", "js", "--p", "9/10", "--q", "1/2",
            "--kmax", "3")
    code, out, err = run_cli(*argv, "--nmax", "3")
    assert (code, out) == (2, "") and err.startswith("error: nmax:")
    # The suite's config names no nmax.
    for fmt in ("csv", "json"):
        code, out, err = run_cli(*argv, "--format", fmt)
        assert code == 0 and err == "" and "nmax" not in out


def test_invalid_tolerance_exit_code(tmp_path):
    base = ("tabulate", "--preset", "js", "--p", "0.9", "--q", "0.5", "--k", "2", "--n", "1")
    for tol in ("-1", "nan", "inf"):
        code, out, err = run_cli(*base, "--tol", tol)
        assert code == 2 and out == "" and "tol" in err, tol
    path = tmp_path / "algebra.cfg"
    path.write_text("name=js\np=9/10\nq=1/2\nmode=approximate\ntol=abc\n")
    code, out, err = run_cli("tabulate", "--algebra-config", str(path), "--k", "2", "--n", "1")
    assert code == 2 and out == "" and "tol" in err
    # One point, whose probability is exactly 1.
    code, out, _ = run_cli(*base[:-1], "0", "--tol", "0")
    assert code == 0 and "# tol=0.0" in out


K14_JSON = ("tabulate", "--kind", "first", "--preset", "js", "--p", "9/10", "--q", "1/2",
            "--k", "14", "--n", "7", "--format", "json")


class _WriteLog(io.StringIO):
    """A stdout that records the size of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_table_output_is_written_in_bounded_chunks():
    log = _WriteLog()
    with redirect_stdout(log), redirect_stderr(io.StringIO()):
        assert main(list(K14_JSON)) == 0
    size = len(log.getvalue())
    assert size > 3_000_000
    assert len(log.sizes) > 10
    assert max(log.sizes) <= min(1 << 20, size // 10)


def test_failed_chunk_write_exits_2_and_leaves_no_file(tmp_path, monkeypatch):
    from rpq import cli

    class DiskFull:
        """A text file whose second write fails as a full disk does."""

        def __init__(self, handle):
            self.handle, self.writes = handle, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def fileno(self):
            return self.handle.fileno()

        def write(self, text):
            self.writes += 1
            if self.writes > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return self.handle.write(text)

    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: DiskFull(open(*args, **kwargs)),
                        raising=False)
    path = tmp_path / "table.json"
    code, out, err = run_cli(*K14_JSON, "--output", str(path))
    assert code == 2 and out == ""
    assert str(path) in err and os.strerror(errno.ENOSPC) in err
    assert not path.exists()


def test_closed_stdout_pipe_ends_quietly():
    import rpq

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rpq.__file__)))
    with subprocess.Popen([sys.executable, "-m", "rpq.cli", *K14_JSON], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        # The 3 MB document cannot fit in the pipe, so the writer is still
        # writing when the reader goes.
        assert proc.stdout.read(10) == b"{\n  \"confi"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0 and err == b""


# Parser texts at 80 columns.  The parser gives options only to the
# subcommand its argv names; every text a user can see must read as it does
# with all the options of every subcommand.
TOP_HELP = """\
usage: rpq [-h]
           {tabulate,marginal,conditional,grouped,moments,sample,verify} ...

Deformed occupancy distributions with an exact enumeration oracle.

positional arguments:
  {tabulate,marginal,conditional,grouped,moments,sample,verify}
    tabulate            joint occupancy table
    marginal            law of a leading prefix
    conditional         law of a middle block given a prefix
    grouped             law of consecutive urn blocks
    moments             closed-form moments vs the enumeration oracle
    sample              reproducible inverse-CDF draws
    verify              identity suites with discrepancy fits

options:
  -h, --help            show this help message and exit
"""

VERIFY_HELP = """\
usage: rpq verify [-h] [--preset PRESET] [--p P] [--q Q]
                  [--algebra-config ALGEBRA_CONFIG] [--tol TOL]
                  [--format {csv,json}] [--output OUTPUT] --suite
                  {hs1,hs2,hsa,hsb,cauchy,triangular,all} --kmax KMAX
                  [--nmax NMAX] [--literal-window]

options:
  -h, --help            show this help message and exit
  --preset PRESET       algebra preset name or alias (js, q, quesne, cj)
  --p P                 base parameter, rational string like "9/10"
  --q Q                 base parameter, rational string like "1/2"
  --algebra-config ALGEBRA_CONFIG
                        path of a key=value algebra record
  --tol TOL             relative tolerance in approximate mode
  --format {csv,json}
  --output OUTPUT       output path (relative paths honor $RPQ_OUTPUT_DIR)
  --suite {hs1,hs2,hsa,hsb,cauchy,triangular,all}
  --kmax KMAX
  --nmax NMAX
  --literal-window      diagnostic: drop the capacity cap on occupancy sums
"""

TABULATE_HELP = """\
usage: rpq tabulate [-h] [--kind {first,second}] [--preset PRESET] [--p P]
                    [--q Q] [--algebra-config ALGEBRA_CONFIG] [--tol TOL] --k
                    K --n N [--format {csv,json}] [--output OUTPUT]

options:
  -h, --help            show this help message and exit
  --kind {first,second}
  --preset PRESET       algebra preset name or alias (js, q, quesne, cj)
  --p P                 base parameter, rational string like "9/10"
  --q Q                 base parameter, rational string like "1/2"
  --algebra-config ALGEBRA_CONFIG
                        path of a key=value algebra record
  --tol TOL             relative tolerance in approximate mode
  --k K                 number of leading urns
  --n N                 number of balls
  --format {csv,json}
  --output OUTPUT       output path (relative paths honor $RPQ_OUTPUT_DIR)
"""


def _usage(help_text):
    return help_text.split("\n\n")[0] + "\n"


PARSER_TEXTS = [
    (("-h",), 0, TOP_HELP, ""),
    (("verify", "-h"), 0, VERIFY_HELP, ""),
    (("tabulate", "-h"), 0, TABULATE_HELP, ""),
    (("bogus",), 2, "", _usage(TOP_HELP) + "rpq: error: argument subcommand: invalid choice: 'bogus' (choose from "
     "'tabulate', 'marginal', 'conditional', 'grouped', 'moments', 'sample', 'verify')\n"),
    ((), 2, "", _usage(TOP_HELP) + "rpq: error: the following arguments are required: subcommand\n"),
    (("verify", "--preset", "js", "--kmax", "3"), 2, "",
     _usage(VERIFY_HELP) + "rpq verify: error: the following arguments are required: --suite\n"),
    (("tabulate", "--preset", "q", "--q", "1/2", "--k", "2"), 2, "",
     _usage(TABULATE_HELP) + "rpq tabulate: error: the following arguments are required: --n\n"),
]


@pytest.mark.parametrize("argv, code, out, err", PARSER_TEXTS, ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
def test_parser_texts(argv, code, out, err, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got_out, got_err = io.StringIO(), io.StringIO()
    with redirect_stdout(got_out), redirect_stderr(got_err), pytest.raises(SystemExit) as stop:
        main(list(argv))
    assert (stop.value.code, got_out.getvalue(), got_err.getvalue()) == (code, out, err)


@pytest.mark.parametrize("suite, message", [
    ("hs2", "10015005 lattice points exceed the guard (10000000)"),
    ("hsb", "10015005 lattice points exceed the guard (10000000)"),
    ("hs1", "dimension 21 exceeds the guard (20)"),
])
def test_verify_capacity_guard_fires_on_the_same_tuple(suite, message):
    # Each tuple's box is counted before its family is walked: hs2 and hsb
    # stop at k = 9, n = 20 (C(29, 9) points).  A kmax past the dimension
    # guard is refused before any tuple is planned.
    sizes = ("--kmax", "21") if suite == "hs1" else ("--kmax", "9", "--nmax", "20")
    code, out, err = run_cli("verify", "--suite", suite, "--preset", "q", "--q", "1/2", *sizes)
    assert (code, out, err) == (3, "", f"error: {message}\n")
    code, out, err = run_cli("verify", "--suite", suite, "--preset", "q", "--q", "1/2", "--kmax", "21")
    assert (code, out, err) == (3, "", "error: dimension 21 exceeds the guard (20)\n")


def _capped(argv, timeout=20):
    """`python -m rpq.cli argv` in a child limited to 1 GB of address space
    and `timeout` seconds, so a guard that stops firing fails the test
    instead of exhausting the machine."""
    import resource

    import rpq

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rpq.__file__)))
    return subprocess.run([sys.executable, "-m", "rpq.cli", *argv], env=env, capture_output=True, text=True,
                          timeout=timeout, preexec_fn=limit)


@pytest.mark.parametrize("argv, message", [
    (("--suite", "hs2", "--kmax", "1", "--nmax", "99999999"), "100000000 identity reports exceed the guard (100000)"),
    (("--suite", "cauchy", "--kmax", "3", "--nmax", "99999999"),
     "900000000 identity reports exceed the guard (100000)"),
    (("--suite", "hsa", "--kmax", "25"), "dimension 25 exceeds the guard (20)"),
    (("--suite", "all", "--kmax", "20", "--nmax", "1"), "3146245 identity reports exceed the guard (100000)"),
])
def test_verify_refuses_a_run_past_the_report_or_dimension_guard_before_planning(argv, message):
    proc = _capped(["verify", "--preset", "q", "--q", "1/2", *argv])
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("command", (
    ("tabulate",), ("marginal", "--r", "1"), ("conditional", "--given", "1"), ("grouped", "--groups", "1"),
    ("moments",), ("sample", "--seed", "1", "--count", "1"), ("sample", "--sequential", "--seed", "1", "--count", "1"),
))
@pytest.mark.parametrize("kind", ("first", "second"))
def test_a_model_command_refuses_a_dimension_past_the_guard(command, kind):
    # The params refuse k before any support of k coordinates is built.
    proc = _capped([command[0], "--kind", kind, "--preset", "js", "--p", "9/10", "--q", "1/2",
                    "--k", "99999999999", "--n", "1", *command[1:]])
    message = "error: dimension 99999999999 exceeds the guard (20)\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", message)


@pytest.mark.parametrize("suite", ("cauchy", "triangular"))
def test_cauchy_and_triangular_pass_the_dimension_guard(suite):
    # Each k (each m) passes the guard before any sum.  The runs go to a
    # subprocess with a timeout, so a guard that stops firing fails here
    # instead of summing for hours.
    import rpq

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rpq.__file__)))
    argv = [sys.executable, "-m", "rpq.cli", "verify", "--suite", suite, "--preset", "js",
            "--p", "9/10", "--q", "1/2", "--kmax"]
    refused = subprocess.run(argv + ["21"], env=env, capture_output=True, text=True, timeout=30)
    assert (refused.returncode, refused.stdout, refused.stderr) == (
        3, "", "error: dimension 21 exceeds the guard (20)\n")
    passed = subprocess.run(argv + ["20"], env=env, capture_output=True, text=True, timeout=60)
    assert passed.returncode == 0 and passed.stdout and passed.stderr == ""


def test_decimal_derived_laws_take_a_model_whose_closed_total_leaves_the_float_range():
    # The closed values of this model are finite floats whose exact sum is
    # past the float range.  A derived law reads that total for its sign
    # only, from the integers, so it takes the model, as tabulate does.
    model = ("--kind", "second", "--preset", "cj", "--p", "0.1", "--q", "0.05", "--k", "3", "--n", "40")
    for command in (("tabulate",), ("marginal", "--r", "1"), ("marginal", "--r", "2"), ("grouped", "--groups", "1,2"),
                    ("conditional", "--given", "1")):
        code, out, err = run_cli(*command, *model, "--format", "json")
        assert (code, err) == (0, ""), command
        assert json.loads(out)["kind"].startswith("second"), command


def test_decimal_hsa_factors_stay_in_the_float_range_of_the_summands():
    # At tau1 = 1e-5 a group factor with tau1^(-S_j (m_j - r_j)) in it
    # passes the float range by k = 8, where every factor of the summands
    # themselves is finite; the n-free factors read the balls after their
    # group instead, so each stays between 1 and the summand's own.
    code, out, err = run_cli("verify", "--suite", "hsa", "--preset", "js", "--p", "1e-5", "--q", "1e-6",
                             "--kmax", "8", "--format", "csv")
    assert (code, err) == (0, "")
    assert "# exact_count=1920/1920" in out.splitlines()
