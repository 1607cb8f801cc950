"""What `import rpq` and each CLI command load, and the names the package
resolves on first use."""

import os
import subprocess
import sys

import pytest

import rpq

MODELS_AND_SAMPLER = {"rpq.occupancy", "rpq.first_kind", "rpq.second_kind", "rpq.pmf", "rpq.sampler"}


def _modules(code):
    """Every module in sys.modules after `code` runs in a fresh interpreter."""
    script = code + "\nimport sys\nprint(' '.join(sys.modules), file=sys.stderr)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rpq.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def _loaded(code):
    """The rpq modules in sys.modules after `code` runs in a fresh interpreter."""
    return {m for m in _modules(code) if m == "rpq" or m.startswith("rpq.")}


def _main(*argv):
    return f"from rpq.cli import main\nassert main({list(argv)!r}) == 0"


def test_bare_import_loads_no_submodule():
    assert _loaded("import rpq") == {"rpq"}
    base = {"rpq", "rpq.cli", "rpq.algebra", "rpq.errors", "rpq.records", "rpq.scalars", "rpq.serialize"}
    assert _loaded("import rpq.cli") == base
    assert _loaded("import rpq.cli\nrpq.cli.verify_identity") == base | {"rpq.identities", "rpq.lattice"}


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_verify_loads_neither_model_nor_the_sampler(fmt):
    loaded = _loaded(_main("verify", "--suite", "all", "--preset", "js", "--p", "9/10", "--q", "1/2",
                           "--kmax", "3", "--format", fmt))
    assert "rpq.identities" in loaded
    assert not loaded & MODELS_AND_SAMPLER


def test_first_kind_table_loads_neither_the_second_kind_identities_nor_sampler():
    loaded = _loaded(_main("tabulate", "--kind", "first", "--preset", "q", "--q", "1/2",
                           "--k", "3", "--n", "2"))
    assert {"rpq.occupancy", "rpq.first_kind", "rpq.pmf"} <= loaded
    assert not loaded & {"rpq.second_kind", "rpq.identities", "rpq.sampler"}


def test_second_kind_table_loads_no_first_kind():
    loaded = _loaded(_main("tabulate", "--kind", "second", "--preset", "q", "--q", "1/2",
                           "--k", "3", "--n", "2"))
    assert {"rpq.occupancy", "rpq.second_kind", "rpq.pmf"} <= loaded
    assert not loaded & {"rpq.first_kind", "rpq.identities", "rpq.sampler"}


JS = ("--preset", "js", "--p", "9/10", "--q", "1/2")
COMMANDS = {
    "verify": ("verify", "--suite", "all", *JS, "--kmax", "3"),
    "first": ("tabulate", "--kind", "first", *JS, "--k", "4", "--n", "2"),
    "second": ("tabulate", "--kind", "second", *JS, "--k", "3", "--n", "2"),
    "grouped": ("grouped", "--kind", "first", *JS, "--k", "4", "--n", "2", "--groups", "2,2"),
    "sample": ("sample", "--kind", "second", *JS, "--k", "3", "--n", "2", "--seed", "7", "--count", "20"),
}


def test_the_cli_loads_no_dataclasses_nor_inspect():
    assert not _modules("import rpq.cli") & {"dataclasses", "inspect"}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_a_command_loads_neither_dataclasses_inspect_nor_the_other_format(command, fmt):
    loaded = _modules(_main(*COMMANDS[command], "--format", fmt))
    assert not loaded & {"dataclasses", "inspect"}
    assert fmt in loaded and ({"csv", "json"} - {fmt}).isdisjoint(loaded)


def test_public_names_resolve_to_their_submodule_objects_on_each_read():
    for name in rpq.__all__:
        value = getattr(rpq, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("rpq.") and getattr(home, name) is value
        assert name not in vars(rpq)


def test_star_import_and_submodule_attributes():
    namespace = {}
    exec("from rpq import *", namespace)
    assert all(namespace[name] is getattr(rpq, name) for name in rpq.__all__)
    from rpq import second_kind as sk

    assert rpq.second_kind is sk and sk.SecondKindParams is rpq.SecondKindParams


def test_dir_lists_the_public_names():
    assert set(rpq.__all__) <= set(dir(rpq))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rpq.no_such_name
    assert not hasattr(rpq, "first_kind_params")
    assert not hasattr(rpq.cli, "no_such_name")
