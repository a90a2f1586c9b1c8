"""Output checks at nbar = 85, shared by run.py (CLI artifacts) and child.py (the
in-process passes).  The reference values are the paper's, as pinned by
tests/test_acceptance.py criteria 1, 2 and 5.
"""

CHECK_NBAR = 85
ALPHA, ALPHA_TOL = 168.225, 0.01
GAMMA0, GAMMA0_TOL = 0.0117465, 1e-6
PRODUCT_REL_TOL = 0.01
# packet counts at t = 0, t_rev/3 - T_cl/3 and t_rev/2 - 0.05 T_cl
PACKETS = [1, 3, 2]


def fit_ok(alpha, gamma0):
    return abs(alpha - ALPHA) <= ALPHA_TOL and abs(gamma0 - GAMMA0) <= GAMMA0_TOL


def product_rel_err(grid_product, closed_product):
    """|grid-route dr*dp_r at t = 0 / closed-form dr*dp_r - 1|."""
    return abs(grid_product / closed_product - 1.0)


def packets_ok(counts):
    return list(counts[: len(PACKETS)]) == PACKETS
