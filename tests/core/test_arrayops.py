"""Property tests for the shared numpy primitives in ``repro.arrayops``.

Each primitive is compared with a plain dict/loop reference on small
random inputs: empty arrays, negative values, int32 extremes, int64
values whose ranges overflow the packed key (the ``np.unique``
fallback), markers and queries at the same position, and pops on an
empty stack.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.arrayops import (
    dense_keys,
    group_bounds,
    latest_prior,
    lex_order,
    lifo_match,
    prev_same_key,
    segmented_cumsum,
)

I32, I64 = np.iinfo(np.int32), np.iinfo(np.int64)

#: Value pools: few distinct values so rows collide often.
POOLS = {
    "small": (np.int32, [-3, -1, 0, 1, 2, 7]),
    "int32": (np.int32, [int(I32.min), -1, 0, 1, int(I32.max)]),
    # One column's range alone overflows the packed key.
    "int64": (np.int64, [int(I64.min), -(2**62), 0, 5, 2**62, int(I64.max)]),
    # Each range fits, but two such columns together do not.
    "wide": (np.int64, [-(2**40), 0, 3, 2**40]),
    # The range fits, but not with a row index appended (lex_order).
    "near": (np.int64, [0, 1, 2**61]),
    "bool": (np.bool_, [False, True]),
}


@st.composite
def key_columns(draw, max_cols=3, max_rows=25):
    """1..max_cols equally long columns, each drawn from one value pool."""
    n = draw(st.integers(0, max_rows))
    cols = []
    for _ in range(draw(st.integers(1, max_cols))):
        dtype, pool = POOLS[draw(st.sampled_from(sorted(POOLS)))]
        values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        cols.append(np.array(values, dtype=dtype))
    return cols


def _rows(cols):
    return [tuple(int(c[i]) for c in cols) for i in range(len(cols[0]))]


@settings(max_examples=200, deadline=None)
@given(key_columns())
def test_dense_keys_preserve_row_order(cols):
    key = dense_keys(*cols)
    rows = _rows(cols)
    assert key.dtype == np.int64 and len(key) == len(rows)
    assert (key >= 0).all()
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            assert (key[i] == key[j]) == (a == b)
            assert (key[i] < key[j]) == (a < b)


def test_dense_keys_overflowing_and_float_columns():
    wide = np.array([2**40, -(2**40), 0, 2**40, 7], dtype=np.int64)
    flt = np.array([0.5, -1.0, 0.5, np.inf, -0.0])
    key = dense_keys(wide, wide[::-1].copy(), flt)
    rows = list(zip(wide.tolist(), wide[::-1].tolist(), flt.tolist()))
    ranks = {r: i for i, r in enumerate(sorted(set(rows)))}
    assert np.argsort(key, kind="stable").tolist() == sorted(
        range(len(rows)), key=lambda i: ranks[rows[i]]
    )
    assert len(set(key.tolist())) == len(set(rows))


@settings(max_examples=200, deadline=None)
@given(key_columns())
def test_lex_order_is_stable_lexsort(cols):
    rows = _rows(cols)
    expected = sorted(range(len(rows)), key=lambda i: (rows[i], i))
    assert lex_order(*cols).tolist() == expected
    assert lex_order(*cols).tolist() == np.lexsort(cols[::-1]).tolist()


@st.composite
def marker_queries(draw):
    """Markers and queries over positions 0..29 (a query may share a
    marker's position); keys from one value pool."""
    dtype, pool = POOLS[draw(st.sampled_from(["small", "int32", "int64"]))]
    positions = st.lists(st.integers(0, 29), unique=True, max_size=20)
    m_pos, q_pos = draw(positions), draw(positions)
    m_key = draw(st.lists(st.sampled_from(pool), min_size=len(m_pos), max_size=len(m_pos)))
    q_key = draw(st.lists(st.sampled_from(pool), min_size=len(q_pos), max_size=len(q_pos)))
    return (
        np.array(m_pos, dtype=np.int64), np.array(m_key, dtype=dtype),
        np.array(q_pos, dtype=np.int64), np.array(q_key, dtype=dtype),
    )


@settings(max_examples=300, deadline=None)
@given(marker_queries())
def test_latest_prior_matches_loop(case):
    m_pos, m_key, q_pos, q_key = case
    expected = []
    for qp, qk in zip(q_pos.tolist(), q_key.tolist()):
        prior = [p for p, k in zip(m_pos.tolist(), m_key.tolist()) if k == qk and p < qp]
        expected.append(max(prior, default=-1))
    got = latest_prior(m_pos, m_key, q_pos, q_key)
    assert got.dtype == np.int64
    assert got.tolist() == expected


def test_latest_prior_marker_at_query_position_is_not_prior():
    pos = np.array([0, 1, 2, 3], dtype=np.int64)
    key = np.array([5, 5, 5, 5])
    # Every row is both a marker and a query: each sees the one before.
    assert latest_prior(pos, key, pos, key).tolist() == [-1, 0, 1, 2]


def _reference_lifo(pos, key, is_open):
    """Per-key stack over position order, with the depth allowed to go
    negative: a pop on an empty stack is unmatched, and opens below depth
    zero are never matched (a plain stack until a key's first bad pop)."""
    close_for_open = [-1] * len(pos)
    open_for_close = [-1] * len(pos)
    depth: dict[int, int] = {}
    stacks: dict[int, dict[int, int]] = {}
    for i in sorted(range(len(pos)), key=lambda i: pos[i]):
        k = key[i]
        d = depth.get(k, 0)
        slots = stacks.setdefault(k, {})
        if is_open[i]:
            if d >= 0:
                slots[d] = i
            depth[k] = d + 1
        else:
            depth[k] = d - 1
            if d - 1 >= 0:
                j = slots.pop(d - 1)
                open_for_close[i] = j
                close_for_open[j] = i
    return close_for_open, open_for_close


@st.composite
def paren_streams(draw):
    """Opens/closes over a few keys at unique positions, in shuffled
    input order; closes may outnumber opens (pops on an empty stack)."""
    n = draw(st.integers(0, 30))
    pos = draw(st.lists(st.integers(0, 10**6), unique=True, min_size=n, max_size=n))
    dtype, pool = POOLS[draw(st.sampled_from(["small", "int32", "int64"]))]
    key = draw(st.lists(st.sampled_from(pool[:3]), min_size=n, max_size=n))
    is_open = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return (
        np.array(pos, dtype=np.int64), np.array(key, dtype=dtype),
        np.array(is_open, dtype=bool),
    )


@settings(max_examples=300, deadline=None)
@given(paren_streams())
def test_lifo_match_matches_stack_loop(case):
    pos, key, is_open = case
    close_for_open, open_for_close = lifo_match(pos, key, is_open)
    ref_cfo, ref_ofc = _reference_lifo(pos.tolist(), key.tolist(), is_open.tolist())
    assert close_for_open.tolist() == ref_cfo
    assert open_for_close.tolist() == ref_ofc


def test_lifo_match_pop_on_empty_stack():
    pos = np.arange(5, dtype=np.int64)
    key = np.zeros(5, dtype=np.int64)
    is_open = np.array([False, True, False, True, True])
    close_for_open, open_for_close = lifo_match(pos, key, is_open)
    assert open_for_close[0] == -1  # nothing to pop
    assert (close_for_open[[1, 3, 4]] == -1).all()


@settings(max_examples=200, deadline=None)
@given(key_columns(max_cols=1), st.randoms(use_true_random=False))
def test_prev_same_key_matches_slot_dict(cols, rnd):
    key = cols[0]
    pos = np.array(rnd.sample(range(-50, 50), len(key)), dtype=np.int64)
    prev, order = prev_same_key(key, pos)
    last, expected = {}, [-1] * len(key)
    for i in sorted(range(len(key)), key=lambda i: pos[i]):
        expected[i] = last.get(int(key[i]), -1)
        last[int(key[i])] = i
    assert prev.tolist() == expected
    assert order.tolist() == sorted(range(len(key)), key=lambda i: (int(key[i]), pos[i]))


@st.composite
def sorted_runs(draw):
    keys = draw(st.lists(st.integers(-5, 5), max_size=30))
    return np.array(sorted(keys), dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(sorted_runs())
def test_group_bounds_matches_loop(sorted_key):
    starts, keys = group_bounds(sorted_key)
    ref = [i for i in range(len(sorted_key)) if i == 0 or sorted_key[i] != sorted_key[i - 1]]
    assert starts.tolist() == ref
    assert keys.tolist() == [int(sorted_key[i]) for i in ref]


@settings(max_examples=200, deadline=None)
@given(sorted_runs(), st.data())
def test_segmented_cumsum_matches_loop(sorted_key, data):
    values = np.array(
        data.draw(st.lists(
            st.integers(int(I32.min), int(I32.max)),
            min_size=len(sorted_key), max_size=len(sorted_key),
        )),
        dtype=np.int64,
    )
    starts, _ = group_bounds(sorted_key)
    got = segmented_cumsum(values, starts)
    expected, running = [], 0
    for i, v in enumerate(values.tolist()):
        running = v if i in set(starts.tolist()) else running + v
        expected.append(running)
    assert got.tolist() == expected


def test_empty_inputs():
    empty = np.zeros(0, dtype=np.int64)
    assert dense_keys(empty, empty).tolist() == []
    assert lex_order(empty).tolist() == []
    assert latest_prior(empty, empty, empty, empty).tolist() == []
    assert latest_prior(np.array([1]), np.array([0]), empty, empty).tolist() == []
    assert latest_prior(empty, empty, np.array([1]), np.array([0])).tolist() == [-1]
    assert [a.tolist() for a in lifo_match(empty, empty, empty.astype(bool))] == [[], []]
    assert [a.tolist() for a in prev_same_key(empty, empty)] == [[], []]
    starts, keys = group_bounds(empty)
    assert starts.tolist() == [] and keys.tolist() == []
    assert segmented_cumsum(empty, starts).tolist() == []
