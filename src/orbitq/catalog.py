"""Golden spectral registry: closed-form bundle rows per case.

Independent of the computed route (parity classification + multiplier
extraction): these rows are hand-transcribed closed forms, used as the
comparison oracle in the sweep tests and as the source of the vacuum
labels `orbit table` prints.  a/b are stored as given (no ordering
convention); compare them as multisets.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .jordan import lookup_case

TWIST_PLAIN = "L0"
TWIST_F0 = "f0L0"

Q = Fraction

# a and b are None where the row is not valid
GoldenRow = namedtuple("GoldenRow", "twist r0 a b valid vacuum_label")


def _row(twist, r0, a, b, label, valid=True):
    return GoldenRow(twist, Q(r0), None if a is None else Q(a),
                     None if b is None else Q(b), valid, label)


_FIXED = {
    "E6:6": [_row(TWIST_PLAIN, Q(5, 2), Q(3, 2), 2, "C")],
    "E7:7": [_row(TWIST_PLAIN, 4, 2, 3, "C")],
    "E8:8": [_row(TWIST_PLAIN, 7, 3, 5, "C")],
    "F4:4": [_row(TWIST_PLAIN, 2, Q(3, 2), 2, "C (x) S^1 C^2")],
    "E6:2": [_row(TWIST_PLAIN, 3, 2, 3, "C (x) S^2 C^2")],
    "E7:-5": [_row(TWIST_PLAIN, 5, 3, 5, "C (x) S^4 C^2")],
    "E8:-24": [_row(TWIST_PLAIN, 9, 5, 9, "C (x) S^8 C^2")],
    "G2:2": [_row(TWIST_PLAIN, 1, Q(4, 3), Q(5, 3), "S^2 C^2 (x) C")],
}


def golden_rows(case_id: str) -> list:
    """Bundle rows for one case; [] where no half-form bundle exists."""
    if case_id in _FIXED:
        return list(_FIXED[case_id])
    case = lookup_case(case_id)  # validates the id
    if case_id.startswith("SO:"):
        p, q = (int(x) for x in case_id[3:].split(","))
        if p == 3 and q == 3:
            return [
                _row(TWIST_PLAIN, Q(1, 2), Q(1, 2), 1, "S_o^0 C^3 (x) C"),
                _row(TWIST_F0, 1, Q(3, 2), Q(3, 2), "C^2 (x) C^2"),
            ]
        if p == 3 and q % 2 == 0:
            return [_row(TWIST_PLAIN, Q(q - 2, 2), Q(q - 2, 2), Q(q - 1, 2),
                         f"S^{q - 3} C^2 (x) C")]
        if (p + q) % 2 == 0:
            return [_row(TWIST_PLAIN, Q(q - 2, 2), Q(q - 2, 2), Q(q - p + 2, 2),
                         f"S_o^{(q - p) // 2} C^{p} (x) C")]
        return []  # p,q >= 4 with p+q odd
    n = int(case_id[3:])
    if n == 3:
        return [
            _row(TWIST_PLAIN, Q(1, 2), Q(3, 4), Q(5, 4), "C^2"),
            _row(TWIST_F0, 1, None, None, "S^3 C^2", valid=False),
        ]
    if n % 2 == 0:
        return [
            _row(TWIST_PLAIN, Q(n - 2, 4), Q(1, 2), Q(n, 4), "C"),
            _row(TWIST_F0, Q(n, 4), Q(3, 2), Q(n + 2, 4), f"C^{n}"),
        ]
    return []  # odd n >= 5


def vacuum_label(case_id: str, twist: str) -> str:
    for row in golden_rows(case_id):
        if row.twist == twist:
            return row.vacuum_label
    return ""
