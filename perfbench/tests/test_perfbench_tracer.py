"""The tracer wraps every public library function wherever it is bound."""

import importlib

import pytest

import tracer as tracing


@pytest.fixture
def installed():
    tr = tracing.Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def _originals():
    out = {}
    for layer in tracing.LIBRARY_LAYERS:
        module = importlib.import_module(f"ecount.{layer}")
        for name, fn in tracing.public_functions(module):
            out[id(fn)] = f"ecount.{layer}.{name}"
    return out


def test_every_layer_has_public_functions():
    originals = _originals()
    for layer in tracing.LIBRARY_LAYERS:
        assert any(q.startswith(f"ecount.{layer}.") for q in originals.values()), layer


def test_no_public_function_is_bound_without_a_wrapper():
    originals = _originals()
    tr = tracing.Tracer()
    tr.install()
    try:
        _assert_all_wrapped(originals)
    finally:
        tr.uninstall()


def _assert_all_wrapped(originals):
    unwrapped = [
        f"{module.__name__}.{attr} -> {originals[id(value)]}"
        for module in tracing.ecount_modules()
        for attr, value in vars(module).items()
        if id(value) in originals
    ]
    assert unwrapped == []
    for layer in tracing.LIBRARY_LAYERS:
        module = importlib.import_module(f"ecount.{layer}")
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name)
            if callable(value) and getattr(value, "__module__", None) == module.__name__:
                if not isinstance(value, type):
                    assert tracing.is_wrapper(value), f"{layer}.{name}"


def test_uninstall_restores_originals():
    from ecount import counts

    before = counts.certified_floor
    tr = tracing.Tracer()
    tr.install()
    wrapper = counts.certified_floor
    assert wrapper is not before
    tr.uninstall()
    assert counts.certified_floor is before
    tr.install()  # switched on again around a later operation
    assert counts.certified_floor is wrapper
    tr.uninstall()
    assert counts.certified_floor is before


def test_cross_module_call_lands_in_the_callee_layer(installed):
    from ecount import counts

    assert counts.derangement_eq2(7) == 1854
    spans = installed.spans
    root = spans[0]
    assert (root[tracing.LAYER], root[tracing.NAME]) == ("counts", "derangement_eq2")
    children = [s for s in spans if s[tracing.PARENT] == 0]
    assert ("certified", "certified_floor") in {(s[0], s[1]) for s in children}
    summary = tracing.summarize(spans)
    assert summary["counts.calls"] == 1
    assert summary["certified.calls"] >= 3  # floor, floor_info, eval, enclosure
    assert summary["exact.calls"] >= 1
    total_self = sum(summary[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert total_self == pytest.approx(summary["trace.root_span_s"], rel=1e-9, abs=1e-12)


def test_self_time_subtracts_children():
    spans = [
        ["counts", "f", -1, 0, 100, False, None],
        ["certified", "g", 0, 10, 40, False, None],
        ["exact", "h", 1, 15, 25, False, None],
        ["certified", "g", 0, 50, 70, True, None],
    ]
    s = tracing.summarize(spans)
    assert s["counts.self_s"] == pytest.approx(50e-9)
    assert s["certified.self_s"] == pytest.approx(40e-9)
    assert s["exact.self_s"] == pytest.approx(10e-9)
    assert s["certified.raised"] == 1
    assert s["counts.raised"] == 0


def test_raised_counts_exceptions_leaving_a_layer(installed):
    from ecount import counts
    from ecount.errors import DomainError

    with pytest.raises(DomainError):
        counts.derangement_eq3(1)
    summary = tracing.summarize(installed.spans)
    assert summary["counts.raised"] == 1
