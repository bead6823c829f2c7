"""The package API, and which layers a command loads."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import ecount
from ecount import counts

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


# --- what a fresh interpreter loads ---------------------------------------

_SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs the CLI on its arguments, then prints the loaded ecount layers as
# the last line of stderr.
_PROBE = """
import sys
try:
    from ecount.cli import main
    main()
finally:
    print(*sorted(m[7:] for m in sys.modules if m.startswith("ecount.")), file=sys.stderr)
"""


def _run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=60
    )


def _loaded_layers(*args: str) -> set[str]:
    proc = _run_fresh(_PROBE, *args)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


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
    loaded = _loaded_layers(*args)
    assert "cli" in loaded
    assert not loaded & absent, loaded


def test_import_ecount_loads_no_layer():
    code = "import sys, ecount; print(sorted(m for m in sys.modules if m.startswith('ecount')))"
    proc = _run_fresh(code)
    assert proc.stdout == "['ecount']\n", proc.stderr
