"""Bit-level pins of the simplex search's reports.

Each case runs ``solve_general`` on a fixed window and cost and compares the
report against values recorded before any change to the search: every bit of
``w_star`` and ``cost_at_w_star`` (as ``float.hex``), the evaluation count
and ``converged``.  The golden traces reach the search only at K=3 on the
reference problem; these cases add K=2, 4 and 6 (centroids over three or
more points), an optimum that pins a coordinate at the floor, an exhausted
budget and a cost with a degenerate region.  A change that claims the same
search must leave every pin unchanged.

Pins were recorded with numpy 2.4.6 (OpenBLAS 0.3.31), Python 3.11, x86-64.
"""
import numpy as np
import pytest

from autoscale import DegenerateInputError, solve_general, uniform_weights, window_cost

from helpers import constant_window, random_window


def _low_cond(win):
    return lambda w: window_cost("low-cond", w, win)


def _random_low_cond(seed, k):
    rng = np.random.default_rng(seed)
    win = random_window(rng, k=k, d=k + 3, n=4)
    return _low_cond(win), uniform_weights(k), {"seed": seed}


def _floor_pinned():
    # the third task's gradient is 1e5 times longer: the unconstrained
    # optimum would scale it below the floor
    win = constant_window(np.diag([1.0, 2.0, 1e5]), n=2)
    return _low_cond(win), uniform_weights(3), {"seed": 0}


def _budget_exhausted():
    rng = np.random.default_rng(44)
    win = random_window(rng, k=4, d=6, n=3)
    return _low_cond(win), uniform_weights(4), {"seed": 2, "budget": 150}


def _degenerate_region():
    # w_0 read through a quadratic cost whose only magnitude is task 0's:
    # the cost is w_0 ** 2 for a WeightVector and an array alike
    probe = constant_window(np.diag([1.0, 0.0, 0.0]))
    win = random_window(np.random.default_rng(45), k=3, d=5, n=3)

    def cost(w):
        if window_cost("equal-grad-norm", w, probe) > 1.5 ** 2:
            raise DegenerateInputError("synthetic dead zone")
        return window_cost("low-cond", w, win)

    return cost, uniform_weights(3), {"seed": 1}


CASES = {
    "low-cond-k2": lambda: _random_low_cond(40, 2),
    "low-cond-k3": lambda: _random_low_cond(41, 3),
    "low-cond-k4": lambda: _random_low_cond(42, 4),
    "low-cond-k6": lambda: _random_low_cond(43, 6),
    "floor-pinned": _floor_pinned,
    "budget-exhausted": _budget_exhausted,
    "degenerate-region": _degenerate_region,
}


def solve_case(name):
    cost, w_init, kwargs = CASES[name]()
    report = solve_general(cost, w_init=w_init, **kwargs)
    return (tuple(float(v).hex() for v in report.w_star.w),
            float(report.cost_at_w_star).hex(), report.iterations, report.converged)


PINS = {
    "low-cond-k2": (("0x1.00d1ffd0e574bp+0", "0x1.fe5c005e3516ap-1"),
                    "0x1.b33e628178d98p+0", 390, True),
    "low-cond-k3": (("0x1.14780d1d4d011p+0", "0x1.e9c6dc510b476p-1",
                     "0x1.ed4909745ab69p-1"),
                    "0x1.3d8381c8248bfp+1", 886, True),
    "low-cond-k4": (("0x1.974304dbfbf50p-1", "0x1.3a12883d797adp+0",
                     "0x1.28b1b795c7ce2p+0", "0x1.a3347b7d8178bp-1"),
                    "0x1.79bca7885ecaap+1", 1605, True),
    "low-cond-k6": (("0x1.18c4feb63b24bp+0", "0x1.83129aa11ff74p-1",
                     "0x1.c255c977a2e77p-1", "0x1.abab1aad0fb4ap-1",
                     "0x1.ea0206b8e21e8p-1", "0x1.79b03e8a6a827p+0"),
                    "0x1.7317538d00625p+2", 2954, True),
    "floor-pinned": (("0x1.fffba184d7754p+0", "0x1.fffba184db872p-1",
                      "0x1.a36e2eb1c432dp-14"),
                     "0x1.4002bb12f07d4p+2", 1230, True),
    "budget-exhausted": (("0x1.dbbc80ab944a7p-1", "0x1.df1f4b2917d34p-1",
                          "0x1.c80748705e9fap-1", "0x1.3e8e75dd7aa16p+0"),
                         "0x1.41f4b2ca8f1afp+2", 150, False),
    "degenerate-region": (("0x1.eee3332130abep-1", "0x1.fe5d9327a71f4p-1",
                           "0x1.095f9cdb941a6p+0"),
                          "0x1.a42690cf3ef49p+1", 2317, True),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_solver_report_is_pinned(name):
    assert solve_case(name) == PINS[name]
