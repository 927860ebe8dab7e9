"""Every numerical tolerance of the package, one line each on what it guards."""

import sys

# Mass and probability sums, kernels, marginals, plan paths and KR >= nested agree within it.
TOL = 1e-9
# Plan cells, breakpoint gaps, reduced costs, point masses and demo residuals up to it are rounding.
SNAP = 1e-12
# Sibling probabilities and lift masses summing to 1 within it are kept bit for bit.
ROUNDING = 4 * sys.float_info.epsilon
# The nested distance and the bicausal LP oracle's value agree within it.
ORACLE_TOL = 1e-8
