"""Every numerical tolerance of the package, one line each on what it guards."""

import sys

# Mass and probability sums, kernels, marginals, plan paths, KR >= nested and the oracle LP's rows (HiGHS's feasibility tolerances) agree within it.
TOL = 1e-9
# Plan cells, reduced costs, point masses, oracle LP masses below zero and demo residuals up to it are rounding.
SNAP = 1e-12
# Rounding per term summed: of sibling and lift mass sums (kept bit for bit), two-source and simplex remainders, reduced costs (x max cost).
ROUNDING = 4 * sys.float_info.epsilon
# The nested distance and the bicausal LP oracle's value agree within it.
ORACLE_TOL = 1e-8
