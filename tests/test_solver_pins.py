"""Bit-level pins of the simplex search's reports.

Each case runs ``solve_general`` on a fixed window and cost and compares the
report against values recorded before any change to the search: every bit of
``w_star`` and ``cost_at_w_star`` (as ``float.hex``), the evaluation count,
``converged``, and a SHA-256 over the bytes of every point handed to the
cost, in call order.  The last pin catches a change that reorders or
replaces evaluations and still lands on the same optimum.  The golden traces
reach the search only at K=3 on the reference problem; these cases add K=2,
4 and 6 (centroids over three or more points), an optimum that pins a
coordinate at the floor, an exhausted budget and a cost with a degenerate
region.  A change that claims the same search must leave every pin unchanged.

Pins were recorded with numpy 2.4.6 (OpenBLAS 0.3.31), Python 3.11, x86-64.
"""
import hashlib

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
    points = hashlib.sha256()

    def recorded(w):
        points.update(np.asarray(w, dtype=float).tobytes())
        return cost(w)

    report = solve_general(recorded, w_init=w_init, **kwargs)
    return (tuple(float(v).hex() for v in report.w_star.w),
            float(report.cost_at_w_star).hex(), report.iterations, report.converged,
            points.hexdigest())


PINS = {
    "low-cond-k2": (("0x1.00d1ffd0e574bp+0", "0x1.fe5c005e3516ap-1"),
                    "0x1.b33e628178d98p+0", 390, True,
                    "43ab89f6ce423548d4a7aeb4fcbd0726b9eb715a1017cd38097403427506f634"),
    "low-cond-k3": (("0x1.14780d1d4d011p+0", "0x1.e9c6dc510b476p-1",
                     "0x1.ed4909745ab69p-1"),
                    "0x1.3d8381c8248bfp+1", 886, True,
                    "a37e830026bb3d657dbcdb9d55a0b93b1a420568caba4bc90977e6b4ccedcec3"),
    "low-cond-k4": (("0x1.974304dbfbf50p-1", "0x1.3a12883d797adp+0",
                     "0x1.28b1b795c7ce2p+0", "0x1.a3347b7d8178bp-1"),
                    "0x1.79bca7885ecaap+1", 1605, True,
                    "f5c259417882f36dabba7de3015d939726e020cd1996616a65fe0921995a464f"),
    "low-cond-k6": (("0x1.18c4feb63b24bp+0", "0x1.83129aa11ff74p-1",
                     "0x1.c255c977a2e77p-1", "0x1.abab1aad0fb4ap-1",
                     "0x1.ea0206b8e21e8p-1", "0x1.79b03e8a6a827p+0"),
                    "0x1.7317538d00625p+2", 2954, True,
                    "e979ddb495c386583bffc75e91da5cde94eff19f0b65eb1cc91a8bca4414c8fe"),
    "floor-pinned": (("0x1.fffba184d7754p+0", "0x1.fffba184db872p-1",
                      "0x1.a36e2eb1c432dp-14"),
                     "0x1.4002bb12f07d4p+2", 1230, True,
                     "98f660d833d0981d5b97f6c55f9f45a7d1ed8be6628fd53b8d9b1a80d93cf332"),
    "budget-exhausted": (("0x1.dbbc80ab944a7p-1", "0x1.df1f4b2917d34p-1",
                          "0x1.c80748705e9fap-1", "0x1.3e8e75dd7aa16p+0"),
                         "0x1.41f4b2ca8f1afp+2", 150, False,
                         "2136710a52f35705556f76418e8e46c46cde270cd10d0f70e4e285d34a28455a"),
    "degenerate-region": (("0x1.eee3332130abep-1", "0x1.fe5d9327a71f4p-1",
                           "0x1.095f9cdb941a6p+0"),
                          "0x1.a42690cf3ef49p+1", 2317, True,
                          "055b9bb93c1c3ed9d27d2e34d12e9c8d5b7edf7564005bd19735c3c31d7a33c8"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_solver_report_is_pinned(name):
    assert solve_case(name) == PINS[name]
