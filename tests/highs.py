"""Solve a :class:`flexshop.milp.MilpModel` in process with HiGHS, through scipy.

A test oracle only: the package stays stdlib-only, and the tests that use
this module skip when scipy is missing. Every variable is a non-negative
column, the binaries its integer columns bounded by 1, and the objective is
``Cmax``, as in the LP text :func:`flexshop.milp.emit_lp` writes.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, OptimizeResult, milp
from scipy.sparse import coo_array

from flexshop.milp import MilpModel


def solve_model(model: MilpModel, time_limit: float) -> OptimizeResult:
    """:func:`scipy.optimize.milp` on the model; `status` 0 means proven optimal."""
    binaries = list(model.binaries)
    names = binaries + list(model.continuous)
    column = {name: n for n, name in enumerate(names)}
    rows, cols, coefs, lower, upper = [], [], [], [], []
    for r, (_, terms, sense, rhs) in enumerate(model.constraints):
        for coef, var in terms:
            rows.append(r)
            cols.append(column[var])
            coefs.append(coef)
        lower.append(-np.inf if sense == "<=" else rhs)
        upper.append(np.inf if sense == ">=" else rhs)
    matrix = coo_array((coefs, (rows, cols)), shape=(len(lower), len(names))).tocsr()
    objective = np.zeros(len(names))
    objective[column["Cmax"]] = 1
    integral = np.zeros(len(names))
    integral[:len(binaries)] = 1
    col_upper = np.full(len(names), np.inf)
    col_upper[:len(binaries)] = 1
    return milp(objective, integrality=integral, bounds=Bounds(0, col_upper),
                constraints=LinearConstraint(matrix, lower, upper), options={"time_limit": time_limit})
