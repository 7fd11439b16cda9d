"""The optimizer's restart stream and eps levels against numpy, bit for bit.

``pcg.doubles`` computes ``SeedSequence([seed, stream]) -> PCG64`` and
``Generator.random`` in Python ints; ``optimizer._linspace`` is the float64
``linspace`` formula. Both are compared with numpy itself.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dismed import pcg
from dismed.optimizer import _linspace

_SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64]), st.integers(0, 2**130))
_STREAMS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**40]), st.integers(0, 2**40))


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@given(seed=_SEEDS, stream=_STREAMS, n=st.integers(1, 40))
@settings(max_examples=400, deadline=None)
def test_doubles_equal_generator_random(seed, stream, n):
    got = list(itertools.islice(pcg.doubles(seed, stream), n))
    want = np.random.default_rng(np.random.SeedSequence([seed, stream])).random(n)
    assert all(type(u) is float for u in got)
    assert _bits(got) == _bits(want)


@given(entropy=st.one_of(
    st.tuples(st.integers(max_value=-1), _STREAMS),
    st.tuples(_SEEDS, st.integers(max_value=-1)),
    st.tuples(st.floats(allow_nan=False), _STREAMS)))
@settings(max_examples=100, deadline=None)
def test_entropy_seed_sequence_refuses_is_refused_alike(entropy):
    with pytest.raises((TypeError, ValueError)) as numpy_refusal:
        np.random.SeedSequence(list(entropy))
    with pytest.raises(numpy_refusal.type) as refusal:
        pcg.doubles(*entropy)
    assert str(refusal.value) == str(numpy_refusal.value)


_ENDS = st.one_of(st.integers(-2**62, 2**62), st.floats(-1e300, 1e300),
                  st.sampled_from([0, 0.0, -0.0, 5e-324, -5e-324, 1.5e-323]))


@given(start=_ENDS, stop=_ENDS, k=st.integers(2, 12))
@settings(max_examples=500, deadline=None)
def test_eps_levels_equal_linspace(start, stop, k):
    got = _linspace(start, stop, k)
    assert all(type(v) is float for v in got)
    assert _bits(got) == _bits(np.linspace(start, stop, k))


@pytest.mark.parametrize("start, stop, k", [
    (2, 7, 6), (0.5, 3, 4), (3.25, 3.25, 5), (4, 4, 2), (6.0, -1.5, 7), (-3, -8, 12),
    (0.0, 1.5e-323, 8), (1.5e-323, 0.0, 8), (-5e-324, 5e-324, 12)])
def test_eps_levels_on_named_spans(start, stop, k):
    got = _linspace(start, stop, k)
    assert _bits(got) == _bits(np.linspace(start, stop, k))
    assert got[0] == start and got[-1] == stop


def test_a_subnormal_span_takes_the_step_zero_branch():
    start, stop, k = 0.0, 1.5e-323, 8
    assert (stop - start) / (k - 1) == 0.0
    # i * step would put every inner level on 0.0; i / div * delta does not
    assert _linspace(start, stop, k)[1:-1] != [0.0] * (k - 2)
