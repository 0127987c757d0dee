"""The benchmark's traced run (perfbench/trace.py) wraps pipeline functions
by module attribute name and call shape.  These checks fail when a
refactor renames, removes or re-shapes one of them; they run no Ray work.
"""

from __future__ import annotations

import inspect

from perfbench.trace import Tracer, patched

from scheduler_ray.pipelines import checkpoint, flagship, streaming
from scheduler_ray.sources import nq
from scheduler_ray.stages import canonicalize, link
from scheduler_ray.state import manifest

MODULES = (checkpoint, flagship, streaming, nq, canonicalize, link, manifest)


def _functions():
    return {
        (m.__name__, k): v
        for m in MODULES
        for k, v in vars(m).items()
        if callable(v)
    }


def test_traced_run_wraps_live_attributes():
    """Entering the traced run's patch block getattr()s every wrapped
    attribute (AttributeError if one is gone); leaving it restores them."""
    before = _functions()
    with patched(Tracer()):
        during = _functions()
    wrapped = {k for k in before if during[k] is not before[k]}
    assert {
        ("scheduler_ray.stages.canonicalize", "collect_sameas_edges"),
        ("scheduler_ray.stages.canonicalize", "lut_ref_from_edges"),
        ("scheduler_ray.pipelines.flagship", "canonicalize_stage"),
        ("scheduler_ray.pipelines.flagship", "canonical_triples"),
        ("scheduler_ray.pipelines.streaming", "write_canonical_single_pass"),
    } <= wrapped
    assert _functions() == before


def test_traced_call_shapes():
    """The wrappers forward exactly the call shapes the pipelines use."""
    kinds = inspect.Parameter
    # collect_sameas_edges(tri): one positional argument
    (edges_param,) = inspect.signature(canonicalize.collect_sameas_edges).parameters.values()
    assert edges_param.kind is kinds.POSITIONAL_OR_KEYWORD
    # lut_ref_from_edges(edges, **kwargs): nothing positional after edges
    _, *rest = inspect.signature(canonicalize.lut_ref_from_edges).parameters.values()
    assert all(p.kind is kinds.KEYWORD_ONLY for p in rest)
    # write_canonical_single_pass(triples, out_dir, **kw)
    params = list(inspect.signature(streaming.write_canonical_single_pass).parameters.values())
    assert [p.name for p in params[:2]] == ["triples", "out_dir"]
    assert all(p.kind is kinds.KEYWORD_ONLY for p in params[2:])
    # canonical_triples reaches the rewrite through the flagship module
    # global, and imports the edge/LUT builders from canonicalize at call
    # time (so the wrapped module attributes are the ones it calls)
    names = flagship.canonical_triples.__code__.co_names
    assert "canonicalize_stage" in names
    assert not hasattr(flagship, "collect_sameas_edges")
    assert not hasattr(flagship, "lut_ref_from_edges")
