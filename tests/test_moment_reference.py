"""The live closed form against the reference kept in moment_reference.py.

The stacked engine (``_second_moment_rows``) and the float steady state
(``_steady_state``) are pinned bit for bit to the form in which the
divided differences went through ``_integrals``, ``_g_pair`` and ``_g``
and the steady state through ``_steady_pair``: every margin and moment
through float.hex, NaN rows included, every refusal by its type and text,
and every warning.  The draws are stacks of preparations inside the
physical triangle, on its edges and exactly on the defective line
eta1 + eta2 = 0.5, at gains up to 1e200 (unstable drifts among them),
log-uniform kappa, both backends, and the steady state or one time, 0
included.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

import moment_reference
from test_sweep_equivalence import exact, preparations, run
from ycel import YcelError, dynamics, prefactors_from_inversions


def refusal(error):
    return None if error is None else (type(error), str(error))


def stacked(engine, cols, kappa, backend, at_time):
    """The margins, rows and refusals of one _second_moment_rows call."""
    margin, rows, errors = engine._second_moment_rows(cols, kappa, backend, at_time)
    return exact(margin.tolist()), exact(rows.tolist()), [refusal(e) for e in errors]


def steady(engine, pref, kappa, backend):
    """The margin, moments and warnings of one _steady_state call, or its refusal."""
    try:
        (margin, moments), caught = run(engine._steady_state, pref, kappa, backend)
    except YcelError as exc:
        return refusal(exc)
    return exact((margin, moments.as_tuple())), caught


# A is the gain rate in units of kappa, up to 1e200.
GAINS = st.one_of(st.floats(0.05, 3.0), st.floats(-3.0, 200.0).map(lambda e: 10.0 ** e))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(points=st.lists(st.tuples(preparations(), GAINS), min_size=1, max_size=12),
       kappa=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
       at_time=st.one_of(st.none(), st.just(0.0), st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e)),
       backend=st.sampled_from(["ehrenfest", "paper-literal"]))
@example(points=[((0.25, 0.25), 1.0), ((-0.5, -0.5), 3.0), ((0.0, 0.5), 1e200)], kappa=1.0,
         at_time=None, backend="paper-literal")
@example(points=[((0.25, 0.25), 1.0), ((-0.5, -0.5), 3.0), ((0.0, 0.5), 1e200)], kappa=1e-3,
         at_time=0.0, backend="ehrenfest")
@example(points=[((0.1, 0.4), 2.0), ((1.0, 1.0), 0.5)], kappa=1e3, at_time=1e4,
         backend="ehrenfest")
def test_drawn_stacks_match_the_reference_closed_form(points, kappa, at_time, backend):
    # the time is in 1/kappa
    at_time = None if at_time is None else at_time / kappa
    prefs = [prefactors_from_inversions(*point, gain * kappa) for point, gain in points]
    cols = np.array([tuple(p) for p in prefs])
    assert stacked(dynamics, cols, kappa, backend, at_time) == \
        stacked(moment_reference, cols, kappa, backend, at_time)
    for pref in prefs:
        assert steady(dynamics, pref, kappa, backend) == \
            steady(moment_reference, pref, kappa, backend)
