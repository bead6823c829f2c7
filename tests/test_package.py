"""The package API, and which layers a command loads."""

import ast
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
from ecount.errors import DomainError, InvariantViolation, PrecisionCapError, _name

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
        (("compute", "inc-gamma", "--n", "3", "--z", "1/2"), {"oracles"}),
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


def _unreferenced_private_definitions(src: Path) -> list[str]:
    """Private (not dunder) functions and classes defined in src/*.py that
    no Name, Attribute or import alias in those files refers to."""
    defined, used = set(), set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(defined - used)


def test_every_private_definition_is_used_in_the_package():
    # A private helper that only the tests call is dead API: the tests
    # build what they need from the code the package runs.
    assert _unreferenced_private_definitions(Path(_SRC) / "ecount") == []


# A 5,000-digit value: past Python's default limit of 4,300 digits for
# int-to-str, so a message that wrote it out would raise ValueError.
_HUGE = 10**5000

# One call per wide argument: a negative n, m, p, bits or den, a wide or
# tiny x or z, a wide sign, pair vertex and root.
_WIDE_PROBES = {
    "factorial n": lambda: exact.factorial(-_HUGE),
    "partial_sum_pos n": lambda: exact.partial_sum_pos(-_HUGE),
    "derangements n": lambda: exact.derangements(-_HUGE),
    "dpoly_eval n": lambda: exact.dpoly_eval(-_HUGE, Fraction(1, 2)),
    "from_integers den": lambda: EForm.from_integers(1, 0, 0, -_HUGE),
    "enclose_e p": lambda: certified.enclose_e(-_HUGE),
    "eform_bounds p": lambda: certified.eform_bounds(EForm(0, 1, 0), -_HUGE),
    "eform_bounds p past the cap": lambda: certified.eform_bounds(EForm(0, 1, 0), _HUGE),
    "frac_e_nfact n": lambda: certified.frac_e_nfact(-_HUGE),
    "path_count n": lambda: counts.path_count(-_HUGE),
    "derangement_eq5 m": lambda: counts.derangement_eq5(5, -_HUGE),
    "chain_check m": lambda: counts.chain_check(5, -_HUGE),
    "quad_gamma n": lambda: oracles.quad_gamma(-_HUGE, 0, Fraction(1, 10**9)),
    "quad_gamma z": lambda: oracles.quad_gamma(3, _HUGE, Fraction(1, 10**9)),
    "quad_gamma negative z": lambda: oracles.quad_gamma(3, -_HUGE, Fraction(1, 10**9)),
    "quad_gamma tol": lambda: oracles.quad_gamma(3, 0, Fraction(1, _HUGE**2)),
    "hyp2f0_identity_check n": lambda: specials.hyp2f0_identity_check(-_HUGE, 2),
    "hyp2f0_special sign": lambda: specials.hyp2f0_special(3, _HUGE),
    "exp_enclosure x": lambda: specials.exp_enclosure(Fraction(_HUGE), 10),
    "exp_enclosure bits": lambda: specials.exp_enclosure(1, -_HUGE),
    "inc_gamma_int n": lambda: specials.inc_gamma_int(specials.GammaQuery(-_HUGE, 1, 10)),
    "inc_gamma_int z": lambda: specials.inc_gamma_int(specials.GammaQuery(3, -_HUGE, 10)),
    "hyp1f1 x": lambda: specials.hyp1f1(2, _HUGE, 10),
    "hyp1f1 tiny x": lambda: specials.hyp1f1(2, Fraction(1, _HUGE), 10),
    "integral_identities n": lambda: specials.integral_identities(-_HUGE),
    "brute_paths pair": lambda: oracles.brute_paths(5, (0, _HUGE)),
    "brute_cycles root": lambda: oracles.brute_cycles(5, -_HUGE),
}


def test_a_value_is_written_out_up_to_256_bits_and_named_by_bit_lengths_past_them():
    top = (1 << 256) - 1
    assert _name(top) == str(top)
    assert _name(Fraction(-top, top - 2)) == f"{-top}/{top - 2}" == str(Fraction(-top, top - 2))
    assert (_name((7, 1)), _name((-1, 2)), _name("n=3")) == ("7", "-1/2", "n=3")
    assert _name(-top - 1) == _name(Fraction(top + 1)) == "a value of 257 bits"
    assert _name((1, top + 1)) == "a rational with a 1-bit numerator and a 257-bit denominator"


@pytest.mark.parametrize("probe", sorted(_WIDE_PROBES))
def test_arguments_of_any_size_get_an_answer_or_a_typed_error(probe):
    # Each value in a message is written out only up to 256 bits, so a
    # refusal stays its typed error, in one short line, under the limit.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(4300)
    try:
        _WIDE_PROBES[probe]()
    except (DomainError, PrecisionCapError, InvariantViolation) as exc:
        assert len(str(exc)) < 1000, str(exc)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
