"""The ordered map: same results with and without its forked child.

`_par._FORK_AFTER_S = 0` makes every map of three or more items fork after
its first item, and `_par._WORKERS` sets the worker count the map believes
it has, so both paths run on any machine.
"""

import os
import threading
from fractions import Fraction

import pytest

from gaugecalc import PointFunction, _par
from gaugecalc.calculus import mct_experiment
from gaugecalc.mc import ControlFunction1D, chebyshev_points, verify_mc


@pytest.fixture
def forks(monkeypatch):
    """Force the fork path; the list counts the forks of this process."""
    calls = []
    real_fork, caller = os.fork, os.getpid()

    def counting_fork():
        assert os.getpid() == caller, "a forked child forked again"
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(_par, "_FORK_AFTER_S", 0.0)
    monkeypatch.setattr(_par, "_WORKERS", 2)
    yield calls
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def serial(monkeypatch, fn, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(_par, "_WORKERS", 1)
        return fn(*args, **kwargs)


def _mct_family(K):
    members, antis = [], []
    for k in range(1, K + 1):
        thr = Fraction(1, k * k)
        members.append(PointFunction.from_expr(f"ite(x<{thr},{k},1/sqrt(x))"))
        antis.append(PointFunction.from_expr(f"ite(x<{thr},{k}*x,2*sqrt(x)-1/{k})"))
    return members, antis


def test_mct_experiment_is_bit_identical(forks, monkeypatch):
    members, antis = _mct_family(24)

    def run():
        report = mct_experiment(
            members, PointFunction.builtin("inv_sqrt"), (0, 1), K=24, tol=1e-2,
            F_seq=antis, F=PointFunction.from_expr("2*sqrt(x)"),
        )
        return repr((report.rows, report.to_json_dict(),
                     report.control_verdict.to_json_dict()))

    alone = serial(monkeypatch, run)
    assert not forks
    assert run() == alone
    assert len(forks) == 2  # the column and the control's verdict


def test_verify_mc_is_bit_identical(forks, monkeypatch):
    def run():
        return verify_mc(
            PointFunction.builtin("hk_primitive"),
            PointFunction.builtin("hk_derivative"),
            ControlFunction1D.identity((-1, 1)), (-1, 1),
            chebyshev_points(-1, 1, 12),
        ).to_json_dict()

    alone = serial(monkeypatch, run)
    assert repr(run()) == repr(alone)
    assert len(forks) == 1


class Bad(Exception):
    pass


# after item 0 the rest, 1..9, splits: the child takes 2, 4, 6, 8
@pytest.mark.parametrize("bad", [{4}, {3}, {2, 3}, {3, 4}, {4, 9}],
                         ids=["child", "parent", "child-first", "parent-first",
                              "both"])
def test_first_failure_in_input_order_surfaces(forks, monkeypatch, bad):
    def fn(x):
        if x in bad:
            raise Bad(f"item {x} failed")
        return x * x

    with pytest.raises(Bad) as alone:
        serial(monkeypatch, _par.parallel_map, fn, range(10))
    with pytest.raises(Bad) as split:
        _par.parallel_map(fn, range(10))
    assert str(split.value) == str(alone.value) == f"item {min(bad)} failed"
    assert len(forks) == 1


def test_unpicklable_results_are_computed_here(forks):
    out = _par.parallel_map(lambda x: (lambda: x), range(7))
    assert [g() for g in out] == list(range(7))
    assert len(forks) == 1


def test_results_in_input_order(forks):
    assert _par.parallel_map(str, range(11)) == [str(i) for i in range(11)]
    assert len(forks) == 1


def test_a_map_inside_a_forked_map_stays_serial(forks):
    out = _par.parallel_map(lambda x: _par.parallel_map(abs, [x, -x, x]), range(6))
    assert out == [[x, x, x] for x in range(6)]
    # item 0's own map forks before the outer map does; none forks after
    # it, here or in the child (a fork there fails the child, and the items
    # computed again here would fork)
    assert len(forks) == 2


def test_short_and_cheap_maps_do_not_fork(forks, monkeypatch):
    assert _par.parallel_map(abs, [-1, -2]) == [1, 2]
    assert not forks
    monkeypatch.setattr(_par, "_FORK_AFTER_S", 0.05)
    assert _par.parallel_map(abs, range(-500, 0)) == list(range(500, 0, -1))
    assert not forks


def test_no_fork_while_another_thread_is_alive(forks):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _par.parallel_map(abs, range(-9, 0)) == list(range(9, 0, -1))
    finally:
        stop.set()
        thread.join()
    assert not forks
