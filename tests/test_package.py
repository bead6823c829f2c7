"""The package API, and which layers a command loads."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import ecount
from ecount import certified, cli, counts, exact, oracles, specials
from ecount.certified import EForm, IntervalReal
from ecount.errors import DomainError

# The package's public names, as they stood when every layer was
# imported eagerly.
_ALL = [
    "BoundsChain",
    "CertifiedFloor",
    "DerangementPoly",
    "DomainError",
    "EForm",
    "GammaQuery",
    "IntegralIdentity",
    "IntervalReal",
    "InvariantViolation",
    "PathCycleCounts",
    "PrecisionCapError",
    "QuadratureResult",
    "average_path_length",
    "bound_M",
    "bound_N",
    "brute_cycles",
    "brute_derangements",
    "brute_paths",
    "certified_floor",
    "certified_floor_info",
    "chain_check",
    "cycle_count",
    "cycle_length_sum",
    "derangement_eq2",
    "derangement_eq3",
    "derangement_eq4",
    "derangement_eq5",
    "derangement_eq6",
    "derangement_lambda",
    "derangement_thm7",
    "derangements",
    "dpoly",
    "dpoly_eval",
    "eform_bounds",
    "eform_eval",
    "eform_lt",
    "eform_sign",
    "enclose_e",
    "enclose_e_inv",
    "exp_enclosure",
    "factorial",
    "frac_e_nfact",
    "hyp1f1",
    "hyp2f0",
    "hyp2f0_identity_check",
    "hyp2f0_special",
    "inc_gamma_int",
    "integral_identities",
    "partial_sum_pos",
    "path_argmax_lengths",
    "path_count",
    "path_count_by_length",
    "path_cycle_counts",
    "path_length_sum",
    "quad_gamma",
    "__version__",
]
_LAYERS = ("certified", "counts", "errors", "exact", "oracles", "specials")


def test_all_is_unchanged():
    assert ecount.__all__ == _ALL


def test_each_name_is_its_layers_object():
    for name in _ALL[:-1]:
        value = getattr(ecount, name)
        layer = value.__module__
        assert layer in {f"ecount.{lay}" for lay in _LAYERS}, name
        assert getattr(import_module(layer), name) is value, name
    for layer in _LAYERS:
        assert getattr(ecount, layer) is import_module(f"ecount.{layer}")


# The names a layer exports beyond its entry of ecount._LAYERS.
_LAYER_EXTRAS = {
    "certified": ("DEFAULT_PRECISION_CAP", "ceil_log2", "fraction_to_decimal"),
    "oracles": (
        "EnumerationResult", "MAX_BRUTE_DERANGEMENTS", "MAX_BRUTE_PATHS", "MAX_BRUTE_CYCLES",
    ),
}


@pytest.mark.parametrize("layer", _LAYERS)
def test_a_layers_all_is_its_entry_of_the_package_list(layer):
    module = import_module(f"ecount.{layer}")
    names = module.__all__
    assert names == [*ecount._LAYERS[layer], *_LAYER_EXTRAS.get(layer, ())]
    assert len(set(names)) == len(names)
    assert all(hasattr(module, name) for name in names)
    assert not set(_LAYER_EXTRAS.get(layer, ())) & set(ecount.__all__)


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from ecount import *", namespace)
    assert set(_ALL) <= set(namespace)
    assert set(_ALL) <= set(dir(ecount))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ecount.no_such_name
    assert not hasattr(ecount, "_bound_M_family")


def test_names_are_looked_up_on_every_access(monkeypatch):
    def fake(n):
        return -n

    monkeypatch.setattr(counts, "path_count", fake)
    assert ecount.path_count is fake
    assert "path_count" not in vars(ecount)


# --- the value records ------------------------------------------------------

_IV = IntervalReal(Fraction(1, 3), Fraction(1, 2))
_F = EForm(-2, 1, 0)

# Each immutable record of the library and the CLI with sample field
# values, all of them given.  (cli.SuiteResult, the verify suites' mutable
# tally, is not a value record.)
_RECORDS = [
    (certified.CertifiedFloor, (2, 64)),
    (certified.IntervalReal, (Fraction(1, 3), Fraction(1, 2))),
    (counts.PathCycleCounts, (4, 5, 11, 10, 36)),
    (counts.BoundsChain, (5, _F, ((1, Fraction(1, 5), _F),))),
    (exact.DerangementPoly, (2, (2, 2, 1))),
    (oracles.EnumerationResult, (5, 11)),
    (oracles.QuadratureResult, (_IV, 7, Fraction(1, 10**9))),
    (specials.GammaQuery, (3, Fraction(-1, 2), 96)),
    (specials.IntegralIdentity, ("int_0^1", _F, _IV)),
    (cli.Op, (("n",), abs, "routes", {"m": 3})),
]


def _fields(cls) -> tuple[str, ...]:
    return getattr(cls, "_fields", None) or cls.__slots__


@pytest.mark.parametrize("cls, values", _RECORDS, ids=[c.__name__ for c, _ in _RECORDS])
def test_records_behave_as_frozen_values(cls, values):
    fields = _fields(cls)
    record = cls(*values)
    assert record == cls(**dict(zip(fields, values)))
    assert [getattr(record, f) for f in fields] == list(values)
    # Fields left out take their defaults.
    defaults = getattr(cls, "_field_defaults", {})
    short = cls(*values[: len(fields) - len(defaults)])
    assert all(getattr(short, f) == v for f, v in defaults.items())
    # Equal by value, and hashed by value where every field is hashable.
    twin = cls(*copy.deepcopy(values))
    assert twin == record and twin is not record
    if not any(isinstance(v, dict) for v in values):
        assert hash(twin) == hash(record)
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)
    ) + ")"
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls and clone == record


def test_interval_endpoints_become_fractions_in_order():
    iv = IntervalReal(1, "3/2")
    assert (type(iv.lo), type(iv.hi)) == (Fraction, Fraction)
    assert iv == IntervalReal(Fraction(1), Fraction(3, 2))
    assert IntervalReal(2, 2).width == 0
    with pytest.raises(DomainError, match="out of order"):
        IntervalReal(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(AttributeError):
        del iv.lo
    assert iv != (iv.lo, iv.hi)


# --- what a fresh interpreter loads ---------------------------------------

_SRC = str(Path(__file__).resolve().parents[1] / "src")

# Modules that no command below needs: the old command-line and record
# libraries, the modules they pulled in, the installed-package metadata
# reader, and json, which only a command that writes JSON loads.
_UNNEEDED = ("click", "dataclasses", "inspect", "importlib.metadata", "json")

# Runs the CLI on its arguments, then prints the loaded ecount layers and
# the loaded modules of _UNNEEDED as the last two lines of stderr.
_PROBE = f"""
import sys
try:
    from ecount.cli import main
    main()
finally:
    print(*sorted(m[7:] for m in sys.modules if m.startswith("ecount.")), file=sys.stderr)
    print(*[m for m in {_UNNEEDED!r} if m in sys.modules], file=sys.stderr)
"""


def _run_fresh(
    code: str, *args: str, options: tuple[str, ...] = ()
) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *options, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def _loaded(*args: str) -> tuple[set[str], set[str]]:
    """The ecount layers and the modules of _UNNEEDED that `ecount ARGS`
    loads in a fresh interpreter."""
    proc = _run_fresh(_PROBE, *args)
    assert proc.returncode == 0, proc.stderr
    layers, unneeded = proc.stderr.splitlines()[-2:]
    return set(layers.split()), set(unneeded.split())


@pytest.mark.parametrize(
    "args, absent",
    [
        (("compute", "derangements", "--n", "5"), {"counts", "oracles", "specials"}),
        (("compute", "dpoly-eval", "--n", "5", "--x", "1/2"), {"counts", "oracles", "specials"}),
        (("compute", "paths", "--n", "5"), {"oracles", "specials"}),
        (("verify", "paths-cycles", "--n-range", "3..4"), {"oracles", "specials"}),
        (("table", "bounds", "--n", "3"), {"oracles", "specials"}),
    ],
)
def test_a_command_loads_only_the_layers_it_calls(args, absent):
    loaded, unneeded = _loaded(*args)
    assert "cli" in loaded
    assert not loaded & absent, loaded
    assert not unneeded, unneeded


def test_version_is_the_package_version():
    proc = _run_fresh("from ecount.cli import main; main()", "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"ecount, version {ecount.__version__}\n" == "ecount, version 0.1.0\n"
    assert proc.stderr == ""
    assert _loaded("--version") == ({"cli", "errors"}, set())
    # One source for the version: setuptools reads ecount.__version__.
    pyproject = (Path(_SRC).parent / "pyproject.toml").read_text(encoding="utf-8")
    assert 'dynamic = ["version"]' in pyproject
    assert 'version = {attr = "ecount.__version__"}' in pyproject


def test_importtime_reports_the_layers_a_command_loads():
    # What the CI step reads: `-X importtime` lists a layer that the
    # package loads on first use, and no module of _UNNEEDED.
    proc = _run_fresh(
        "from ecount.cli import main; main()", "compute", "paths", "--n", "5",
        options=("-X", "importtime"),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    imported = {line.rsplit("|", 1)[-1].strip() for line in lines if "|" in line}
    assert {"ecount.exact", "ecount.certified", "ecount.counts"} <= imported
    assert not imported & {"ecount.oracles", "ecount.specials", *_UNNEEDED}


def test_import_ecount_loads_no_layer():
    code = "import sys, ecount; print(sorted(m for m in sys.modules if m.startswith('ecount')))"
    proc = _run_fresh(code)
    assert proc.stdout == "['ecount']\n", proc.stderr
