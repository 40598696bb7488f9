"""The piggyback max-flow (``schedule.maximum_flow``) against scipy's and
against a brute-force minimum cut.

scipy's ``maximum_flow(method="dinic")`` stays the reference for the flow
on every edge; this file is the only place that imports
``scipy.sparse.csgraph``.  The grants of ``_slice_flow`` are also checked
without scipy: feasible, and as large as the smallest cut.
"""

from itertools import combinations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow as scipy_maximum_flow

from cachebc import schedule
from cachebc.placement import SubMessageLayout


def scipy_flows(n, edges, source, sink):
    """scipy's Dinic flow on each of ``edges``, as Python ints."""
    rows, cols, caps = zip(*edges)
    graph = csr_matrix((caps, (rows, cols)), shape=(n, n), dtype=np.int32)
    flow = scipy_maximum_flow(graph, source, sink, method="dinic").flow.toarray()
    return [int(flow[u, v]) for u, v, _ in edges]


@st.composite
def slice_cases(draw):
    """A layout with K0 = 2..6 cached receivers, any t, equal fragments of
    1..50 bits, and per-phase wants of 0..3 fragments' worth, so that both
    shortfalls and augmenting paths through reverse edges occur."""
    K0 = draw(st.integers(2, 6))
    t = draw(st.integers(1, K0 - 1))
    subsets = tuple(combinations(range(1, K0 + 1), t))
    frag = draw(st.integers(1, 50))
    layout = SubMessageLayout(
        K0=K0, t=t, tau=len(subsets), F=1, n=1, subsets=subsets,
        piece_bits=(frag,) * len(subsets) + (0,), padded_piece_bits=(frag,) * len(subsets) + (0,),
        cached_rate=0.0, uncached_rate=0.0,
    )
    want = np.array(draw(st.lists(st.integers(0, 3 * frag), min_size=K0, max_size=K0)))
    return layout, want


def slice_flow(layout, want):
    """``_slice_flow``'s grants and the max-flow calls it made, as
    (n, edges, source, sink, flows)."""
    calls, real = [], schedule.maximum_flow

    def record(n, edges, source, sink):
        flows = real(n, edges, source, sink)
        calls.append((n, list(edges), source, sink, flows))
        return flows

    schedule.maximum_flow = record
    try:
        grant = schedule._slice_flow(layout, want)
    finally:
        schedule.maximum_flow = real
    return grant, calls


@st.composite
def digraphs(draw):
    """A digraph on 2..9 nodes without self-loops, about half of all node
    pairs joined, capacities 1..20, a few edges repeated, the edges in any
    order; and a distinct source and sink."""
    n = draw(st.integers(2, 9))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [(u, v, draw(st.integers(1, 20))) for (u, v), k in zip(pairs, keep) if k]
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=2))
    source = draw(st.integers(0, n - 1))
    sink = draw(st.integers(0, n - 2))
    return n, draw(st.permutations(edges)), source, sink + (sink >= source)


@settings(max_examples=300, deadline=None)
@given(case=slice_cases())
def test_slice_flow_equals_scipy_on_every_edge(case):
    layout, want = case
    grant, calls = slice_flow(layout, want)
    if not want.any():
        assert calls == [] and not grant.any()
        return
    (n, edges, source, sink, flows), = calls
    ref = scipy_flows(n, edges, source, sink)
    assert flows == ref
    assert all(type(f) is int for f in flows)
    K0 = layout.K0
    for (u, v, _), f in zip(edges, ref):
        if 1 <= u <= K0 and v != sink:
            assert grant[u - 1, v - 1 - K0] == f


@settings(max_examples=300, deadline=None)
@given(case=digraphs())
def test_maximum_flow_equals_scipy_on_every_edge(case):
    n, edges, source, sink = case
    assume(edges)
    assert schedule.maximum_flow(n, edges, source, sink) == scipy_flows(n, edges, source, sink)


def min_cut(layout, want):
    """The smallest source-to-sink cut of the piggyback network, by trying
    every set of phase and fragment nodes on the source's side."""
    K0, tau, frag = layout.K0, layout.tau, layout.piece_bits[:layout.tau]
    best = None
    for side in range(1 << (K0 + tau)):
        phase = [side >> (k - 1) & 1 for k in range(1, K0 + 1)]
        piece = [side >> (K0 + i) & 1 for i in range(tau)]
        cut = sum(int(want[k]) for k in range(K0) if not phase[k])
        cut += sum(frag[i] for i in range(tau) if piece[i])
        cut += sum(
            frag[i] for i, S in enumerate(layout.subsets) if not piece[i]
            for k in S if phase[k - 1]
        )
        best = cut if best is None else min(best, cut)
    return best


@settings(max_examples=200, deadline=None)
@given(case=slice_cases())
def test_slice_flow_grants_are_feasible_and_maximal(case):
    layout, want = case
    grant = schedule._slice_flow(layout, want)
    K0, tau = layout.K0, layout.tau
    assert grant.shape == (K0, tau) and (grant >= 0).all()
    for i, S in enumerate(layout.subsets):
        assert all(grant[k - 1, i] == 0 for k in range(1, K0 + 1) if k not in S)
    assert (grant.sum(axis=1) <= want).all()
    assert (grant.sum(axis=0) <= np.array(layout.piece_bits[:tau])).all()
    if K0 + tau <= 10:
        assert grant.sum() == min_cut(layout, want)
