"""Golden list of the 21 known 5x5 sign-change-matrix classes.

This is the reference classification the n=5 enumeration is expected to
reproduce; entries are stored in their customary display form and
canonicalized on comparison.  The enumeration is checked against it only
through `compare_with_reference`, which reports matches, misses, and any
surplus classes rather than silently reconciling them.

Note: the raw pattern enumeration actually produces one class beyond these
21 (see README); the comparison machinery exists precisely to surface that
kind of discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumeration import canonicalize_w
from .signchange import SignChangeMatrix

_KNOWN_5 = (
    ((0, 1, 2, 2, 2), (1, 0, 1, 3, 3), (2, 1, 0, 2, 4), (2, 3, 2, 0, 2), (2, 3, 4, 2, 0)),
    ((0, 1, 2, 2, 3), (1, 0, 1, 3, 2), (2, 1, 0, 2, 3), (2, 3, 2, 0, 3), (3, 2, 3, 3, 0)),
    ((0, 1, 2, 3, 2), (1, 0, 1, 2, 3), (2, 1, 0, 1, 4), (3, 2, 1, 0, 3), (2, 3, 4, 3, 0)),
    ((0, 1, 2, 3, 3), (1, 0, 1, 2, 2), (2, 1, 0, 1, 3), (3, 2, 1, 0, 2), (3, 2, 3, 2, 0)),
    ((0, 1, 2, 2, 3), (1, 0, 1, 3, 4), (2, 1, 0, 2, 3), (2, 3, 2, 0, 1), (3, 4, 3, 1, 0)),
    ((0, 1, 2, 3, 4), (1, 0, 1, 2, 3), (2, 1, 0, 1, 2), (3, 2, 1, 0, 1), (4, 3, 2, 1, 0)),
    ((0, 1, 2, 2, 2), (1, 0, 1, 1, 3), (2, 1, 0, 2, 4), (2, 1, 2, 0, 2), (2, 3, 4, 2, 0)),
    ((0, 1, 2, 2, 3), (1, 0, 1, 1, 2), (2, 1, 0, 2, 3), (2, 1, 2, 0, 1), (3, 2, 3, 1, 0)),
    ((0, 1, 2, 2, 3), (1, 0, 1, 1, 4), (2, 1, 0, 2, 3), (2, 1, 2, 0, 3), (3, 4, 3, 3, 0)),
    ((0, 1, 2, 2, 2), (1, 0, 1, 3, 3), (2, 1, 0, 2, 2), (2, 3, 2, 0, 2), (2, 3, 2, 2, 0)),
    ((0, 1, 2, 2, 2), (1, 0, 1, 1, 1), (2, 1, 0, 2, 2), (2, 1, 2, 0, 2), (2, 1, 2, 2, 0)),
    ((0, 1, 2, 1, 4), (1, 0, 1, 2, 3), (2, 1, 0, 1, 2), (1, 2, 1, 0, 3), (4, 3, 2, 3, 0)),
    ((0, 1, 3, 2, 2), (1, 0, 2, 3, 3), (3, 2, 0, 1, 3), (2, 3, 1, 0, 2), (2, 3, 3, 2, 0)),
    ((0, 1, 3, 2, 3), (1, 0, 2, 3, 4), (3, 2, 0, 1, 2), (2, 3, 1, 0, 1), (3, 4, 2, 1, 0)),
    ((0, 1, 2, 4, 3), (1, 0, 1, 3, 4), (2, 1, 0, 2, 3), (4, 3, 2, 0, 1), (3, 4, 3, 1, 0)),
    ((0, 1, 3, 2, 3), (1, 0, 2, 3, 4), (3, 2, 0, 3, 2), (2, 3, 3, 0, 1), (3, 4, 2, 1, 0)),
    ((0, 1, 3, 3, 3), (1, 0, 2, 4, 2), (3, 2, 0, 2, 2), (3, 4, 2, 0, 2), (3, 2, 2, 2, 0)),
    ((0, 1, 2, 4, 2), (1, 0, 1, 3, 3), (2, 1, 0, 2, 4), (4, 3, 2, 0, 2), (2, 3, 4, 2, 0)),
    ((0, 1, 2, 3, 3), (1, 0, 1, 4, 2), (2, 1, 0, 3, 3), (3, 4, 3, 0, 2), (3, 2, 3, 2, 0)),
    ((0, 1, 3, 2, 3), (1, 0, 2, 3, 2), (3, 2, 0, 3, 2), (2, 3, 3, 0, 3), (3, 2, 2, 3, 0)),
    ((0, 1, 3, 3, 3), (1, 0, 2, 2, 2), (3, 2, 0, 2, 2), (3, 2, 2, 0, 2), (3, 2, 2, 2, 0)),
)


def known_classes() -> tuple[SignChangeMatrix, ...]:
    """The 21 reference classes, n = 5, in display form (not canonicalized)."""
    return tuple(SignChangeMatrix(n=5, w=w, generic=True) for w in _KNOWN_5)


@dataclass(frozen=True)
class ReferenceComparison:
    """Outcome of matching enumerated classes against the reference list."""

    n: int
    num_enumerated: int
    num_reference: int
    matched: tuple[SignChangeMatrix, ...]
    missing: tuple[SignChangeMatrix, ...]   # in the reference, not enumerated
    extra: tuple[SignChangeMatrix, ...]     # enumerated, not in the reference

    @property
    def exact(self) -> bool:
        return not self.missing and not self.extra

    def summary(self) -> str:
        head = (f"n={self.n}: enumerated {self.num_enumerated} classes, "
                f"reference lists {self.num_reference}")
        if self.exact:
            return head + "; exact match"
        return head + f"; {len(self.missing)} missing, {len(self.extra)} extra"


def compare_with_reference(classes) -> ReferenceComparison:
    """Match canonical enumerated n=5 classes, an iterable of SignChangeMatrix
    canonical forms, against the canonicalized reference list (n=5 only)."""
    ref_canon = {canonicalize_w(w).w: w for w in known_classes()}
    enum_canon = {c.w: c for c in classes}
    matched = tuple(enum_canon[k] for k in sorted(ref_canon) if k in enum_canon)
    missing = tuple(ref_canon[k] for k in sorted(ref_canon) if k not in enum_canon)
    extra = tuple(enum_canon[k] for k in sorted(enum_canon) if k not in ref_canon)
    return ReferenceComparison(
        n=5,
        num_enumerated=len(enum_canon),
        num_reference=len(ref_canon),
        matched=matched,
        missing=missing,
        extra=extra,
    )
