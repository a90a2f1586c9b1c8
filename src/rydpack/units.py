"""Unit conversions at the I/O boundary.

All internal computation is in atomic units (hbar = e = m_e = 1): lengths in
bohr, energies in hartree, times in atomic time units.  SI values are produced
only when writing reports, using a single pinned conversion constant.
"""

ATOMIC_TIME_S = 2.418884326e-17  # seconds per atomic time unit


def au_to_ns(t_au: float) -> float:
    return t_au * (ATOMIC_TIME_S * 1e9)


def au_to_ps(t_au: float) -> float:
    return t_au * (ATOMIC_TIME_S * 1e12)
