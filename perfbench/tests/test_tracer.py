import types

import numpy as np
import pytest

from layers import tail
from tracer import Tracer


def make_module():
    mod = types.SimpleNamespace()

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) + mod.leaf(x)

    mod.leaf, mod.outer = leaf, outer
    return mod


def test_spans_nest_and_self_time_excludes_children():
    mod = make_module()
    tracer = Tracer()
    tracer.wrap([mod], "leaf", "leaf", annotate=lambda a, r: {"out": r})
    tracer.wrap([mod], "outer", "outer")
    assert mod.outer(1) == 4
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "leaf", "leaf"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert tracer.spans[1].attrs == {"out": 2}
    own = tracer.self_seconds()
    children = tracer.spans[1].seconds + tracer.spans[2].seconds
    assert own[0] == pytest.approx(tracer.spans[0].seconds - children)
    assert tracer.within("outer") == [True, True, True]


def test_restore_puts_the_original_back():
    mod = make_module()
    original = mod.leaf
    tracer = Tracer()
    tracer.wrap([mod], "leaf", "leaf")
    assert mod.leaf is not original
    tracer.restore()
    assert mod.leaf is original


def test_wrap_refuses_owners_that_hold_different_objects():
    a, b = make_module(), make_module()
    with pytest.raises(RuntimeError):
        Tracer().wrap([a, b], "leaf", "leaf")


def test_span_closes_when_the_call_raises():
    mod = types.SimpleNamespace(fail=lambda: 1 / 0)
    tracer = Tracer()
    tracer.wrap([mod], "fail", "fail")
    with pytest.raises(ZeroDivisionError):
        mod.fail()
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer.begin("next").parent is None


def test_memory_span_records_the_allocation_peak():
    mod = types.SimpleNamespace(alloc=lambda: float(np.ones(2**20).sum()))
    tracer = Tracer()
    tracer.wrap([mod], "alloc", "alloc", memory=True)
    assert mod.alloc() == 2**20
    assert tracer.spans[0].attrs["alloc_peak_mb"] >= 8.0


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 41))
    assert tail(values) == (30, 75.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
