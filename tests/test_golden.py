"""Golden-output gate: exact-mode CLI output is byte-deterministic by
contract, so a refactor or speed-up must leave these stdout digests alone.

A digest that changes on purpose (a new header line, a new field) is
updated here in the same change that alters the output, and the change
says so.
"""

import hashlib

import pytest

from rpq import (
    FirstKindParams,
    SecondKindParams,
    chakrabarty_jagannathan,
    compositions,
    hs1_lhs,
    hs2_lhs,
    hsa_lhs,
    hsb_lhs,
    jagannathan_srinivasa,
    q_deformation,
)
from rpq.occupancy import GroupingScheme, grouped_conditional_pmf, grouped_marginal_pmf
from rpq.serialize import dumps_json, table_to_json_obj
from test_cli import run_cli

JS = ("--preset", "js", "--p", "9/10", "--q", "1/2")
JS_DECIMAL = ("--preset", "js", "--p", "0.9", "--q", "0.5")
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
    ("conditional", "--kind", "first") + JS + ("--k", "6", "--n", "3", "--given", "0,1", "--format", "csv"):
        "d2e3b35124f4f9b219f3c18468b22e74a57d0c4080efa679bcfc823fd6d013e5",
    ("conditional", "--kind", "second") + Q + ("--k", "4", "--n", "4", "--given", "1,0", "--m", "3", "--format", "json"):
        "c12ae059532455c74d675084e4872d182950125418137cee698b05c7c8b2ea4c",
    ("sample", "--kind", "first") + JS + ("--k", "5", "--n", "3", "--seed", "11", "--count", "200", "--format", "csv"):
        "2c91e67174d73748741d4964a4e91cda586957feee5e8f958322336b616c6a01",
    ("sample", "--kind", "second") + CJ + ("--k", "3", "--n", "4", "--seed", "12", "--count", "200", "--format", "json"):
        "c3e94f08c2f66e220d8368339eefd9f5f33323f2523461df9c26cd79987f76e8",
    ("sample", "--kind", "first", "--sequential") + Q + ("--k", "5", "--n", "2", "--seed", "13", "--count", "200", "--format", "csv"):
        "64a3d2c283dfe866648e2a84d3c23eb21467f55058bad6cdd06b4a95ddfd8eb0",
    ("sample", "--kind", "second", "--sequential") + JS + ("--k", "4", "--n", "3", "--seed", "14", "--count", "200", "--format", "json"):
        "f105cff7eaf53158cd6a7dd33c206a62d4c17be0329e69ef545f5edeac71d038",
    ("moments", "--kind", "second") + JS + ("--k", "3", "--n", "3", "--format", "json"):
        "0b69b7b5c143367aa33a5c5293507d1608dd17703636ff6400852aa4958ebe2c",
    ("tabulate", "--kind", "second") + JS + ("--k", "5", "--n", "4", "--format", "json"):
        "d10a064f3d49730d5bc1ae6830157c0abe722c429a5148efddccb6c6ce83ca5b",
    ("grouped", "--kind", "second") + JS + ("--k", "6", "--n", "4", "--groups", "2,3,1", "--format", "json"):
        "a8e1875c26439be74085c32aff54ee5de0d4731193017e43760986e905eef480",
    ("tabulate", "--kind", "first") + JS + ("--k", "8", "--n", "4", "--format", "json"):
        "9e32a9301550b9a3c74281b878ff9502358e9df220a6d374d3c1b8d05a54c4e8",
    ("grouped", "--kind", "first") + JS + ("--k", "8", "--n", "4", "--groups", "3,2,3", "--format", "csv"):
        "1d839d1d6eb9589e25561188f2bbcc71c5f5fcf5d75a8b0620e05d09952e4867",
    ("marginal", "--kind", "second") + JS + ("--k", "5", "--n", "4", "--r", "2", "--format", "json"):
        "87bf83ca421dc852953c6f880487bdd611b006de8d9c6bbc008ab559f76eb3a0",
    # Mid-size tables (6,435 rows) pin the streamed CSV and JSON writers past
    # the first chunk; the decimal table pins approximate-mode float text.
    ("tabulate", "--kind", "first") + JS + ("--k", "14", "--n", "7", "--format", "csv"):
        "3794d6eab0d1670e0e8796c85548ce00884703814fdcbc754274c4cd0d2baa6f",
    ("tabulate", "--kind", "first") + JS + ("--k", "14", "--n", "7", "--format", "json"):
        "12ffd943a4cdda08b5bf1cd99e6d76129cfffad3b03699bf96e0df5484049577",
    ("tabulate", "--kind", "second") + JS_DECIMAL + ("--k", "6", "--n", "5", "--format", "csv"):
        "46984a9f9d7cb868d1f661a487ab3fb835d45b4ea3ac0ab1b4f4e0eeb613fdac",
    ("tabulate", "--kind", "second") + JS_DECIMAL + ("--k", "6", "--n", "5", "--format", "json"):
        "baa400c20557af6d57b5e4ae0a2d37051b0d9538b9823d8078cc735afb90b231",
    # Decimal identity suites pin the float bits of every lhs and rhs: each
    # lhs the exact sum of its float terms rounded once.
    VERIFY + JS_DECIMAL + ("--format", "json"): "093c81192ea597eb6795689b61560a29ac21e7245ac43ecb1e7849fb559ef31a",
    VERIFY + JS_DECIMAL + ("--format", "csv"): "91f51a93fea0c0b6a02256416ae6cc05463023840ebd68f7fe4003c620481523",
    ("moments", "--kind", "first") + JS + ("--k", "4", "--n", "2", "--format", "csv"):
        "3f79df03a4956fff8f2eac72eae278ab6c981a5f6779801f3c9e027363a5c4fc",
    # Decimal derived tables pin the float bits of the joint-induced masses
    # and (in JSON) of the closed-form cross-checks of both kinds: each the
    # exact value (a sum of float weights, a product of float factors)
    # rounded once.
    ("marginal", "--kind", "first") + JS_DECIMAL + ("--k", "5", "--n", "3", "--r", "2", "--format", "csv"):
        "3a99cc4d3bf5804f6d88d5a6bcf134e405b610ff9764377447945ad25e80ee6d",
    ("marginal", "--kind", "second") + JS_DECIMAL + ("--k", "4", "--n", "3", "--r", "2", "--format", "json"):
        "5b352d854b492951e036163a490bf45a3060ff52893b50ddd59de636a4513ecb",
    ("conditional", "--kind", "first") + JS_DECIMAL + ("--k", "6", "--n", "3", "--given", "0,1", "--format", "json"):
        "4d70b6d36843c4fd3fd41d1a37ec9149cbaca0c5e23360fefda5acc884195548",
    ("conditional", "--kind", "second") + JS_DECIMAL + ("--k", "4", "--n", "4", "--given", "1,0", "--m", "3", "--format", "csv"):
        "5ca8cbd1000b5ef45dfabe45d4da816c46e9c7c5e98981f950f65e39ecdcdad9",
    ("grouped", "--kind", "first") + JS_DECIMAL + ("--k", "6", "--n", "3", "--groups", "2,3,1", "--format", "json"):
        "204cb705645b781507b78ff19318dba01f8a3298ea65660384ef8ec7740d7600",
    ("grouped", "--kind", "second") + JS_DECIMAL + ("--k", "5", "--n", "4", "--groups", "2,1,2", "--format", "csv"):
        "c9bb9b3bcc37321aafaf3d1fd74839ac7cab0631fae877eebd57a7418929f7ad",
    # Decimal inverse-CDF draws: thresholds from the exact sums of float
    # weights, and the float probabilities of the drawn points.
    ("sample", "--kind", "first") + JS_DECIMAL + ("--k", "5", "--n", "3", "--seed", "11", "--count", "200", "--format", "json"):
        "2c782d5e8f822830d766550f575c487babca877642ef9da21cd6193da919cc98",
    ("sample", "--kind", "second", "--preset", "cj", "--p", "0.9", "--q", "0.5", "--k", "3", "--n", "4", "--seed", "12",
     "--count", "200", "--format", "csv"):
        "f9ea33b1e74a140484c162a1ad6e7e03c6bab751d35840a3b60e841436e6aaa9",
    # Long rationals: masses, probabilities and closed-form cross-checks with
    # numerators of hundreds of digits, and sequential draws over their steps.
    ("marginal", "--kind", "second") + JS + ("--k", "2", "--n", "400", "--r", "1", "--format", "csv"):
        "fa52190f3878f5aa51fc333d3b71c4e4747fe1bc21f6d69c8a0b7a22803fc930",
    ("conditional", "--kind", "second") + JS + ("--k", "3", "--n", "120", "--given", "7", "--format", "json"):
        "5fdf845086701a702b49c862fc3b9d8f0df094d13017b4201308da460aa54a15",
    ("sample", "--kind", "second", "--sequential") + JS + ("--k", "3", "--n", "180", "--seed", "21", "--count", "1000",
                                                           "--format", "csv"):
        "6b01f631561d7bedf7c926e215cc0ec43ca51e132f2656336a4e4d3da577f97e",
    # The triangular recurrence map in both layouts, and its decimal twin.
    ("verify", "--suite", "triangular", "--kmax", "6") + JS + ("--format", "csv"):
        "c33bd505817e6fc054a7eaed060ad0a4c57b2a9a68cd2aec1e0f522e5ef06a94",
    ("verify", "--suite", "triangular", "--kmax", "6") + JS + ("--format", "json"):
        "e1088f89871e49a56504483a33a63922f5fc01638faaaf156695950903b7d0ee",
    ("verify", "--suite", "triangular", "--kmax", "6") + JS_DECIMAL + ("--format", "json"):
        "079f19f23f6784908602bf653e36d7defef0ba985f53aa8fe87ba080e245fd5f",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_golden_stdout(argv):
    code, out, err = run_cli(*argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[argv]


# Library laws no CLI command prints: the grouped marginal and grouped
# conditional tables of every scheme with at least two blocks, at every nu
# and every conditioning prefix the marginal supports.  The JSON carries the
# joint-induced masses and the closed-form cross-check of each table.
LIBRARY_CASES = {
    ("first", "js-exact", 5, 3):
        "f4ddf136f82a9a83f6470fbfd551d6d0410d1f29a1e34a6b3aace79d58f95fd1",
    ("first", "js-decimal", 5, 3):
        "dbad7f17e3786a26a67ea25004e5941c907430d5c58bfe9131b54453afada0e3",
    ("first", "q-exact", 6, 4):
        "e3bd59e58c642a6c26658d46ede7b802d89a3d647dc94ed9b4cbb74250016f64",
    ("second", "js-exact", 4, 3):
        "6625d0c775d3332783db9b064eaae59c22e8ccec04e2459b14135b5298f2ba8a",
    ("second", "js-decimal", 4, 3):
        "09f578e07d7b71e2da3942740dd0b0d00668a78310071975c550facbb3ce51e6",
    ("second", "q-exact", 5, 2):
        "dba9365ba3b196035a6cd5518ac80889592bc9abadbcbb5aaf3121d245bea514",
}

# repr of every per-tuple identity sum for k <= 5 (both windows of hs1 and
# hsa, every grouping of hsa and hsb): the float bits of the decimal twin,
# and the exact Fractions of the rational algebras.
IDENTITY_SUM_DIGESTS = {
    "js-exact": "c3f36963c698e723b57c20f539b4a90fc118bb816a29adaa59f549214abd088c",
    "js-decimal": "b1b796d02a32573d9fc336c624aa67760e182991b9254ef3f328122bdb03a341",
    "q-exact": "7cf54825c62103895c369ddccf32caec4ef62edf46342367cf8582d751c2a93f",
    "cj-exact": "4388668e9127e5f97a48f6e16b3478671c3197508b12254e91239795df18bc51",
}


LIBRARY_ALGEBRAS = {
    "js-exact": jagannathan_srinivasa("9/10", "1/2"),
    "js-decimal": jagannathan_srinivasa(0.9, 0.5),
    "q-exact": q_deformation("1/2"),
    "cj-exact": chakrabarty_jagannathan("9/10", "1/2"),
}


def _grouped_laws_text(kind, alg, k, n):
    params = (FirstKindParams if kind == "first" else SecondKindParams)(alg, k, n)
    out = []
    for sizes in compositions(k):
        scheme = GroupingScheme(sizes)
        for nu in range(1, len(sizes)):
            marginal = grouped_marginal_pmf(params, scheme, nu)
            out.append(dumps_json(table_to_json_obj(marginal)))
            for given in marginal.support:
                out.append(dumps_json(table_to_json_obj(grouped_conditional_pmf(params, scheme, given))))
    return "".join(out)


def _identity_sums_text(alg):
    out = []
    for k in range(1, 6):
        for literal in (False, True):
            for n in range(1, k + 2):
                out.append(repr(hs1_lhs(alg, k, n, literal_window=literal)))
                for groups in compositions(k):
                    out.append(repr(hsa_lhs(alg, k, n, groups, literal_window=literal)))
        for n in range(0, 6):
            out.append(repr(hs2_lhs(alg, k, n)))
            for groups in compositions(k):
                out.append(repr(hsb_lhs(alg, k, n, groups)))
    return "\n".join(out)


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", list(LIBRARY_CASES), ids=lambda c: "-".join(map(str, c)))
def test_golden_grouped_marginal_and_conditional_laws(case):
    kind, algebra, k, n = case
    assert _digest(_grouped_laws_text(kind, LIBRARY_ALGEBRAS[algebra], k, n)) == LIBRARY_CASES[case]


@pytest.mark.parametrize("algebra", list(IDENTITY_SUM_DIGESTS))
def test_golden_per_tuple_identity_sums(algebra):
    assert _digest(_identity_sums_text(LIBRARY_ALGEBRAS[algebra])) == IDENTITY_SUM_DIGESTS[algebra]
