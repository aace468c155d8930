"""The profile's Taylor jets as they were before they took arrays of t,
frozen for tests: one scalar t, each jet a list of floats.

_h_derivatives(t, order) is [h(t), ..., h^(order)(t)] at one finite
t >= 0. The jets over arrays in orbitfold.smoothing must give the same
bytes at every entry.
"""

import math

from orbitfold.smoothing import ARG_DEAD_EPS, E_RATE


def _jet_mul(a, b):
    m = len(a)
    out = [0.0] * m
    for i, ai in enumerate(a):
        if ai == 0.0:
            continue
        for j in range(m - i):
            out[i + j] += ai * b[j]
    return out


def _jet_div(a, b):
    m = len(a)
    out = [0.0] * m
    out[0] = a[0] / b[0]
    for k in range(1, m):
        s = a[k]
        for j in range(1, k + 1):
            s -= b[j] * out[k - j]
        out[k] = s / b[0]
    return out


def _jet_exp(a):
    m = len(a)
    out = [0.0] * m
    out[0] = math.exp(a[0])
    for k in range(1, m):
        s = 0.0
        for j in range(1, k + 1):
            s += j * a[j] * out[k - j]
        out[k] = s / k
    return out


def _jet_e(t, order):
    if t <= ARG_DEAD_EPS:
        return [0.0] * (order + 1)
    w = [-E_RATE / math.sqrt(t)]
    for j in range(1, order + 1):
        w.append(w[-1] * (0.5 - j) / (j * t))
    return _jet_exp(w)


def _jet_e_reflected(t, order):
    inner = _jet_e(1.0 - t, order)
    return [(-1.0) ** k * c for k, c in enumerate(inner)]


def h_derivatives(t, order):
    if t <= ARG_DEAD_EPS:
        return [0.0] * (order + 1)
    identity = ([t, 1.0] + [0.0] * order)[:order + 1]
    if t >= 1.0 - ARG_DEAD_EPS:
        return identity
    et = _jet_e(t, order)
    er = _jet_e_reflected(t, order)
    den = [x + y for x, y in zip(et, er)]
    g = _jet_div(et, den)
    h = _jet_mul(g, identity)
    return [c * math.factorial(k) for k, c in enumerate(h)]
