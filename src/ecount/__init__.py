"""Exact counting in complete graphs, certified by interval enclosures of e.

Each layer is imported when one of its names is first used (PEP 562):
`import ecount` alone loads none of them.  Names are looked up in their
layer on every access and never stored here, so a monkeypatched layer
attribute is the one the package hands out.
"""

import sys

__version__ = "0.1.0"

# The public names, by the layer that defines them: the one list of them.
# Each layer's __all__ reads its entry here, so a new public name is one
# edit here (and one in tests/test_package.py::_ALL).
_LAYERS = {
    "certified": (
        "CertifiedFloor",
        "EForm",
        "IntervalReal",
        "certified_floor",
        "certified_floor_info",
        "eform_bounds",
        "eform_eval",
        "eform_lt",
        "eform_sign",
        "enclose_e",
        "enclose_e_inv",
        "frac_e_nfact",
    ),
    "counts": (
        "BoundsChain",
        "PathCycleCounts",
        "average_path_length",
        "bound_M",
        "bound_N",
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
        "path_argmax_lengths",
        "path_count",
        "path_count_by_length",
        "path_cycle_counts",
        "path_length_sum",
    ),
    "errors": ("DomainError", "InvariantViolation", "PrecisionCapError"),
    "exact": (
        "DerangementPoly",
        "derangements",
        "dpoly",
        "dpoly_eval",
        "factorial",
        "partial_sum_pos",
    ),
    "oracles": (
        "QuadratureResult",
        "brute_cycles",
        "brute_derangements",
        "brute_paths",
        "quad_gamma",
    ),
    "specials": (
        "GammaQuery",
        "IntegralIdentity",
        "exp_enclosure",
        "hyp1f1",
        "hyp2f0",
        "hyp2f0_identity_check",
        "hyp2f0_special",
        "inc_gamma_int",
        "integral_identities",
    ),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = [*sorted(_LAYER_OF), "__version__"]


def _layer(layer: str):
    # __import__, not importlib.import_module: only the import statement's
    # path reports the layer in `python -X importtime`.
    module = f"{__name__}.{layer}"
    __import__(module)
    return sys.modules[module]


def __getattr__(name: str):
    # A layer's own name gives the layer module, as `ecount.counts` did
    # when this package imported every layer.
    if name in _LAYERS:
        return _layer(name)
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_layer(layer), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYERS, *__all__})
