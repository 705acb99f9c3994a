"""Critical-exponent bounds and per-dimension certificates.

The closed-form crude upper bound and the n-2 lower bound come first; the
interesting part converts a sign-change matrix W into per-entry exponent
bounds by two local rules and aggregates those over all enumerated W classes
of a dimension into a certificate for every generic invertible DN matrix of
that size (extended to all DN matrices by continuity/reducibility).

Entry rules, given w = W[i][j]:
  * w <= 1 keeps the entry nonnegative for every t > 0 (bound 0): the only
    root available is the forced one at t = 0.
  * w == 2 allows negativity only on a sub-interval of (0, 1) (bound 1).
  * if every value in the entry's row is <= 4, the row rule applies with
    bound M+1 where M = number of row entries > 2; likewise for the column;
    the minimum of all applicable rules wins.
  * entries of 5 or more in both the row and the column leave the entry
    unbounded by these rules (math.inf), which the certificate reports
    instead of masking.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

from .enumeration import enumerate_w_classes
from .signchange import InvalidWError, SignChangeMatrix, validate_sign_change_matrix

UNBOUNDED = math.inf


def k_of_n(n: int) -> int:
    """Sign-change budget of an n-by-n generic W: (n^2-4n+3)/2 for odd n,
    (n^2-5n+6)/2 for even n."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if n % 2:
        return (n * n - 4 * n + 3) // 2
    return (n * n - 5 * n + 6) // 2


def crude_bound(n: int) -> float:
    """Dimension-only upper bound k(n) + 1 on the critical exponent:
    (n^2-4n+5)/2 for odd n, (n^2-5n+8)/2 for even n."""
    return float(k_of_n(n) + 1)


def lower_bound(n: int) -> float:
    """Tridiagonal witnesses force the critical exponent up to n - 2."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return float(n - 2)


@dataclass(frozen=True)
class EntryBoundMatrix:
    """Per-entry critical-exponent upper bounds derived from a W matrix.

    Entries are floats; math.inf marks entries the rules cannot bound.
    """

    n: int
    bound: tuple[tuple[float, ...], ...]

    def max_bound(self) -> float:
        return max(max(row) for row in self.bound)

    def num_unbounded(self) -> int:
        return sum(1 for row in self.bound for v in row if v == UNBOUNDED)


def entry_bounds_from_w(W: SignChangeMatrix) -> EntryBoundMatrix:
    """Apply the entry rules to every position of W; min over applicable rules."""
    result = validate_sign_change_matrix(W)
    if not result.ok:
        raise InvalidWError("; ".join(result.violations))
    # row rule, M+1 for rows with every entry <= 4 (so M counts the 3s and 4s);
    # column j mirrors row j (W symmetric)
    row = [r.count(3) + r.count(4) + 1.0 if max(r) <= 4 else UNBOUNDED for r in W.w]
    # list comprehensions, not generators: this runs once per class
    bound = tuple([
        tuple([0.0 if v <= 1 else 1.0 if v == 2 else ri if ri < rj else rj  # row bounds are >= 1
               for v, rj in zip(r, row)])
        for r, ri in zip(W.w, row)])
    return EntryBoundMatrix(n=W.n, bound=bound)


@dataclass(frozen=True)
class ClassCertificate:
    """One enumerated W class with its entry bounds (max computed once)."""

    w: SignChangeMatrix
    bounds: EntryBoundMatrix

    @cached_property
    def max_bound(self) -> float:
        return self.bounds.max_bound()

    @property
    def certified(self) -> bool:
        return self.max_bound < UNBOUNDED


@dataclass(frozen=True)
class CertificateReport:
    """Certificate for a whole dimension.

    certified_upper is the max entry bound over fully bounded classes; when
    every class is bounded it covers all generic invertible DN matrices of
    size n, and by continuity/reducibility all DN matrices of size n.
    """

    n: int
    num_classes: int
    certified_upper: float
    lower: float
    crude_upper: float
    conclusion: str
    classes: tuple[ClassCertificate, ...]

    @property
    def num_uncertified(self) -> int:
        return sum(1 for c in self.classes if not c.certified)

    @property
    def complete(self) -> bool:
        return self.num_uncertified == 0

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "num_classes": self.num_classes,
            "certified_upper": _json_bound(self.certified_upper),
            "lower": self.lower,
            "crude_upper": self.crude_upper,
            "conclusion": self.conclusion,
            "classes": [
                {
                    "w": [list(row) for row in c.w.w],
                    "entry_bounds": [[_json_bound(v) for v in row]
                                     for row in c.bounds.bound],
                    "max_bound": _json_bound(c.max_bound),
                }
                for c in self.classes
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _json_bound(v: float):
    return "unbounded" if v == UNBOUNDED else v


def certify_dimension(n: int) -> CertificateReport:
    """Enumerate the W classes of dimension n and bound every entry of each.

    The conclusion pins m(n) exactly when the certified upper bound meets the
    n-2 lower bound; otherwise it reports the bracket, or how many classes
    escaped the rules.  Above KEY_MAX_N the enumeration raises
    DimensionTooLargeError.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    classes = enumerate_w_classes(n)
    certs = tuple(ClassCertificate(w=w, bounds=entry_bounds_from_w(w)) for w in classes)
    maxima = [c.max_bound for c in certs]
    finite = [m for m in maxima if m < UNBOUNDED]
    certified_upper = max(finite) if finite else UNBOUNDED
    low = lower_bound(n)
    crude = crude_bound(n)
    bad = sum(1 for m in maxima if m == UNBOUNDED)
    if bad:
        conclusion = (f"certification incomplete: {bad}/{len(certs)} classes have "
                      f"unbounded entries; m({n}) <= {crude:g} still holds")
    elif certified_upper == low:
        conclusion = f"m({n}) = {low:g}"
    else:
        conclusion = f"{low:g} <= m({n}) <= {certified_upper:g}"
    return CertificateReport(
        n=n,
        num_classes=len(certs),
        certified_upper=certified_upper,
        lower=low,
        crude_upper=crude,
        conclusion=conclusion,
        classes=certs,
    )
