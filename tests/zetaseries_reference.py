"""References for the two-variable layer that only the tests use.

`zeta_substitute` applies zeta -> zeta^a and q -> q^b to a whole
ZetaQExpansion, regular coefficients and pole list.  The package maps only
a pole list (`doublesum._substituted_poles`, which this reference uses for
the poles), since diffexp compares the substituted kernel as a stream of
halves.
"""

from __future__ import annotations

from qbrackets.doublesum import _substituted_poles
from qbrackets.zetaseries import ZetaLaurent, ZetaQExpansion


def zeta_substitute(a: ZetaQExpansion, zeta_power: int, q_power: int) -> ZetaQExpansion:
    """zeta -> zeta^zeta_power and q -> q^q_power; poles map orderwise."""
    if zeta_power < 1 or q_power < 1:
        raise ValueError("substitution powers must be >= 1")
    regular = {
        e * q_power: ZetaLaurent({m * zeta_power: c for m, c in lau.terms.items()})
        for e, lau in a.regular.items()
    }
    return ZetaQExpansion(regular, a.truncation * q_power, _substituted_poles(a.pole, zeta_power))
