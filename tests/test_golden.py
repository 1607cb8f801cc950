"""Golden-output gate: exact-mode CLI output is byte-deterministic by
contract, so a refactor or speed-up must leave these stdout digests alone.

A digest that changes on purpose (a new header line, a new field) is
updated here in the same change that alters the output, and the change
says so.
"""

import hashlib

import pytest

from test_cli import run_cli

JS = ("--preset", "js", "--p", "9/10", "--q", "1/2")
Q = ("--preset", "q", "--q", "1/2")
QUESNE = ("--preset", "quesne", "--p", "9/10", "--q", "1/2")
CJ = ("--preset", "cj", "--p", "9/10", "--q", "1/2")
VERIFY = ("verify", "--suite", "all", "--kmax", "5")

GOLDEN = {
    VERIFY + JS + ("--format", "json"): "d878be7340d4b95a25d740c796c6e4239537f60f5f067dc328580a3735c905f8",
    VERIFY + JS + ("--format", "csv"): "9a0107f8078cf9f73dcee926033a00eb9ec0c41e0b2825cfd5cb74fa5d46d733",
    VERIFY + Q + ("--format", "json"): "38d3793b355bd92c4860db91f33c7b85c99f9321191c0b7bd0898d22a1d78ba0",
    VERIFY + Q + ("--format", "csv"): "5ddf4a8a7d06731c1b186e3d864546a2f17cdb33f3b47d014d8b5048032ed3f6",
    VERIFY + QUESNE + ("--format", "json"): "8cf9556e44ed5b21dbc03341244ddc863fc88e3478a62bb056ad1137ea63ec96",
    VERIFY + CJ + ("--format", "json"): "78badbc702ca59c306a233b550d2685fe6caeb3a3a7a6591d61efc4b52cd4884",
    ("verify", "--suite", "hsa", "--kmax", "4", "--literal-window") + JS + ("--format", "json"):
        "eff35e8f40a7cf29f485ed27cdea66a481146adc7499203db4ca4214e16e0de4",
    ("tabulate", "--kind", "first") + JS + ("--k", "6", "--n", "3", "--format", "csv"):
        "5706af99109499183cf8df09b1db006bd3af92e9abab29f9471086b29745cc2d",
    ("tabulate", "--kind", "second") + Q + ("--k", "4", "--n", "3", "--format", "json"):
        "8314d7505d76392db29450b5098d82ee3a97ecd6ea68dcfb32fa8ccafd0dcf22",
    ("marginal", "--kind", "first") + JS + ("--k", "3", "--n", "2", "--r", "1", "--format", "csv"):
        "04dddfd706fa3ae293db0ed49451224096599e5ad876fd0ea7e8c0c2e98f5211",
    ("grouped", "--kind", "second") + JS + ("--k", "3", "--n", "2", "--groups", "2,1", "--format", "json"):
        "d7990e150c407c62c32242932160cdae958a3bb533303e4df8e655850d1c3c1c",
    ("moments", "--kind", "second") + CJ + ("--k", "3", "--n", "2", "--format", "csv"):
        "c0f3746436addde9acdb69925ddf79771781801a4a43249b69886ebb737eebec",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_golden_stdout(argv):
    code, out, err = run_cli(*argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[argv]
