"""Symmetric-matrix foundation: parsing, DN checks, spectral decomposition,
the eigenvalue policy, real matrix powers and irreducibility.

A matrix is doubly nonnegative (DN) when it is symmetric positive
semi-definite and entry-wise nonnegative.  Real powers A^t are taken in the
spectral sense, sum(lambda_k^t x_k x_k^T), which is the object all other
modules analyze.  Every lambda^t comes from one private power table, which
holds the t < 0 and overflow rules; ``fractional_power`` (one t) and
``grid_entry_values`` (a grid of t) give A^t from it.

Everything here is immutable and side-effect free; values can be shared
freely across threads.  A decomposition's eigenvalue groups, generic flag,
clamped eigenvalues and entry coefficients are filled in on first use, from its
immutable arrays, so two threads racing on them compute the same value.  The
one exception is the zero-coordinate verdict ``generic`` reads:
``spectral_decompose`` stores it when it builds the decomposition, from the
mask its sign fix-up computes anyway, so each decomposition tests its
coordinates once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

# Tolerances: fixed rules that no caller overrides.  Each is relative to one
# scale, with no fixed floor, so A and s*A (s > 0) get the same decisions; the
# scale is documented at the point of use, and tests pin behavior at exactly
# these values.
SYM_TOL = 1e-12          # |a_ij - a_ji| <= SYM_TOL * max |a_ij| is accepted on input
ORTHO_TOL = 1e-12        # |U^T U - I| bound
RECON_TOL = 1e-10        # |U diag(lam) U^T - A| bound, relative to max |a_ij|
PSD_TOL = 1e-10          # eigenvalue >= -PSD_TOL * lam_1 counts as nonnegative
INVERT_TOL = 1e-10       # lam_n > INVERT_TOL * lam_1 counts as invertible
MERGE_TOL = 1e-8         # a positive eigenvalue within MERGE_TOL * its group's first joins it
ZERO_COORD_TOL = 1e-8    # an eigenvector coordinate <= this times its column's largest is zero
EIG_SNAP_TOL = 1e-13     # eigenvalue noise: |lam| <= EIG_SNAP_TOL * max |lam| is snapped to
                         # exact zero, and values this close share a group
_GRID_BLOCK = 2**22      # products u_ik u_jk grid_entry_values holds at once (32 MiB)


class MatrixFormatError(ValueError):
    """Matrix text is malformed (wrong counts, non-numeric token)."""


class NotSymmetricError(ValueError):
    """Asymmetry of the input exceeds the symmetry tolerance."""


class NegativeEigenvalueError(ValueError):
    """An eigenvalue lies below the PSD tolerance band."""


class ZeroToNegativePowerError(ValueError):
    """A zero eigenvalue (or dropped zero base) cannot be raised to t < 0."""


class NotIrreducibleError(ValueError):
    """The matrix graph is disconnected where irreducibility is required."""


class NotDoublyNonnegativeError(ValueError):
    """The matrix fails the DN check where DN is required."""


class NotPrimitiveError(RuntimeError):
    """No power up to the guaranteed index became entry-wise positive."""


@dataclass(frozen=True)
class SymMatrix:
    """Dense real symmetric matrix.  ``entries`` is read-only, shape (n, n)."""

    n: int
    entries: np.ndarray

    @classmethod
    def from_array(cls, a) -> "SymMatrix":
        """Validate and symmetrize an array-like.

        Asymmetry up to ``SYM_TOL * max_abs_entry`` is averaged away; anything
        larger raises NotSymmetricError.  The zero matrix, with asymmetry 0,
        passes.
        """
        arr = np.array(a, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise MatrixFormatError(f"expected a nonempty square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise MatrixFormatError("matrix entries must be finite")
        scale = np.abs(arr).max()
        asym = np.abs(arr - arr.T).max()
        if asym > SYM_TOL * scale:
            raise NotSymmetricError(f"asymmetry {asym:.3e} exceeds {SYM_TOL:.1e} * {scale:.3e}")
        # halve first only where arr + arr.T overflows: (arr + arr.T) / 2 is exact on subnormals
        sym = (arr + arr.T) / 2.0 if scale <= np.finfo(float).max / 2 else arr / 2 + arr.T / 2
        sym.setflags(write=False)
        return cls(n=sym.shape[0], entries=sym)

    def max_abs(self) -> float:
        return float(np.abs(self.entries).max())

    def __array__(self, dtype=None, copy=None):
        """A copy of ``entries``; with ``copy=False``, ``entries`` itself
        (read-only), and ValueError when ``dtype`` needs a cast."""
        if copy is False:
            if dtype is not None and np.dtype(dtype) != self.entries.dtype:
                raise ValueError(f"casting the entries to {np.dtype(dtype)} needs a copy")
            return self.entries
        return np.array(self.entries, dtype=dtype)


@dataclass(frozen=True)
class DnReport:
    """Outcome of the doubly-nonnegative check; always returned, never raised."""

    is_nonnegative: bool
    is_psd: bool
    is_dn: bool
    min_entry: float
    min_eigenvalue: float
    is_invertible: bool
    is_irreducible: bool
    num_distinct_eigenvalues: int


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues sorted non-increasing; eigenvectors as orthonormal columns.

    Column signs are canonical: the first nonzero coordinate, by the one
    rule ``_nonzero_coords``, is positive.  The eigenvalue policy every
    module reads lives here, each part computed at most once and read-only:
    ``group_starts`` says which eigenvalues count as equal, zero always a
    group of its own, ``singular`` whether there is a zero, and ``generic``
    whether every coefficient has a sign (see ``signchange``).  The entry
    polynomials f_ij(t) = sum_k c_ijk b_k^t follow from it: ``entry_bases``
    are the b_k of the other groups, ``entry_coefficients`` the c_ijk of
    every entry.  Each part is filled in on first use, except whether every
    coordinate is nonzero, which ``spectral_decompose`` stores from its sign
    fix-up (a decomposition built directly computes it on first use).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @cached_property
    def group_starts(self) -> np.ndarray:
        """Start index of each group of coinciding eigenvalues (see
        ``_group_starts``); its size is the distinct-eigenvalue count."""
        starts = _group_starts(self.eigenvalues)
        starts.setflags(write=False)
        return starts

    @cached_property
    def generic(self) -> bool:
        """n eigenvalue groups, no zero coordinate (``_nonzero_coords``): no zero coefficient."""
        return self.group_starts.size == self.n and self._coords_nonzero

    @cached_property
    def _coords_nonzero(self) -> bool:
        """Whether ``_nonzero_coords`` holds for every coordinate;
        ``spectral_decompose`` fills it in from its sign fix-up's mask."""
        return bool(_nonzero_coords(self.eigenvectors).all())

    @cached_property
    def clamped_eigenvalues(self) -> np.ndarray:
        """``clamp_psd(eigenvalues)``: raises NegativeEigenvalueError on a
        matrix that is not PSD."""
        lam = clamp_psd(self.eigenvalues)
        lam.setflags(write=False)
        return lam

    @cached_property
    def entry_bases(self) -> np.ndarray:
        """The first clamped eigenvalue of every group but the zero group
        (see ``singular``): positive and strictly decreasing."""
        starts = self.group_starts
        bases = self.clamped_eigenvalues[starts[:starts.size - self.singular]]
        bases.setflags(write=False)
        return bases

    @cached_property
    def _entry_base_tuple(self) -> tuple[float, ...]:
        """``entry_bases`` as Python floats: the bases of every ``entry_exppoly``."""
        return tuple(self.entry_bases.tolist())

    @property
    def singular(self) -> bool:
        """Whether A has a zero eigenvalue: its last value, read unclamped
        so that a matrix that is not PSD still answers, is <= 0.  The entry
        polynomials then lack the zero group and only represent A^t for t > 0."""
        return bool(self.eigenvalues[-1] <= 0.0)

    @cached_property
    def entry_coefficients(self) -> np.ndarray:
        """(n, n, K) tensor whose [i, j] row holds entry (i, j)'s
        coefficients: the products u_ik u_jk summed over each group, one per
        base of ``entry_bases``; with n groups, the products themselves."""
        u = self.eigenvectors
        coeffs = u[:, None, :] * u[None, :, :]
        if self.group_starts.size < self.n:  # reduceat returns one-term groups as they are
            coeffs = np.add.reduceat(coeffs, self.group_starts, axis=-1)
        coeffs = coeffs[..., :self.entry_bases.size]
        coeffs.setflags(write=False)
        return coeffs


def parse_matrix(text: str) -> SymMatrix:
    """Read a matrix from text: '#' comment lines, then n, then n rows of n numbers."""
    return SymMatrix.from_array(_read_square_rows(text))


def format_matrix(A: SymMatrix) -> str:
    """Serialize in the matrix text format at full (round-trip) precision."""
    lines = [str(A.n)]
    for row in A.entries:
        lines.append(" ".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def _read_square_rows(text: str) -> list[list[float]]:
    """The n rows of n numbers below a dimension line n, blank and '#' lines
    skipped.  The dimension must be a finite integer >= 1."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            rows.append([float(tok) for tok in stripped.split()])
        except ValueError as exc:
            raise MatrixFormatError(f"line {lineno}: non-numeric token ({exc})") from None
    if not rows:
        raise MatrixFormatError("empty input")
    if len(rows[0]) != 1:
        raise MatrixFormatError("first data line must hold the dimension only")
    nf = rows[0][0]
    if not (nf.is_integer() and nf >= 1):
        raise MatrixFormatError(f"bad dimension {nf!r}")
    n = int(nf)
    if len(rows) - 1 != n:
        raise MatrixFormatError(f"expected {n} matrix rows, found {len(rows) - 1}")
    for idx, row in enumerate(rows[1:], start=1):
        if len(row) != n:
            raise MatrixFormatError(f"row {idx} has {len(row)} entries, expected {n}")
    return rows[1:]


def spectral_decompose(A: SymMatrix) -> SpectralDecomposition:
    """Eigendecomposition by LAPACK (``np.linalg.eigh``), then sorted
    non-increasing, sign-canonicalized and zero-snapped."""
    lam, vecs = np.linalg.eigh(A.entries)
    return _finish_decomposition(lam, vecs)


def _finish_decomposition(diag: np.ndarray, vecs: np.ndarray) -> SpectralDecomposition:
    order = np.argsort(-diag, kind="stable")
    lam = diag[order]
    # Snap rounding-noise eigenvalues to exact zero.  Rank-deficient input
    # leaves residues around 1e-16 * scale; raised to a small power t those
    # residues would contribute O(1) phantom terms (e.g. (1e-16)^0.01 ~ 0.7),
    # so downstream consumers need true zeros here.
    scale = float(max(lam[0], -lam[-1])) if lam.size else 0.0  # max |lam|, lam sorted
    lam[np.abs(lam) <= EIG_SNAP_TOL * scale] = 0.0
    u = vecs[:, order]  # a copy: the sign fix-up negates its columns in place
    nonzero = _nonzero_coords(u)  # |u| is unchanged by the fix-up
    # a column with no nonzero coordinate is all zeros, and -0.0 < 0 is false
    lead = u[np.argmax(nonzero, axis=0), np.arange(u.shape[1])]
    np.negative(u, out=u, where=lead < 0.0)
    lam.setflags(write=False)
    u.setflags(write=False)
    dec = SpectralDecomposition(eigenvalues=lam, eigenvectors=u)
    vars(dec)["_coords_nonzero"] = bool(nonzero.all())  # fills the cached_property
    return dec


def _nonzero_coords(u: np.ndarray) -> np.ndarray:
    """The one zero-coordinate rule: |u_ik| > ZERO_COORD_TOL * max_j |u_jk|."""
    coords = np.abs(u)
    return coords > ZERO_COORD_TOL * coords.max(axis=0)


def check_dn(A: SymMatrix, dec: SpectralDecomposition | None = None) -> DnReport:
    """Report nonnegativity, positive semi-definiteness (``_is_psd``),
    invertibility (lam_n > INVERT_TOL * lam_1), irreducibility, and the
    distinct-eigenvalue count (``_group_starts``).

    ``dec`` is A's decomposition when the caller already holds one;
    without it A is decomposed here.
    """
    if dec is None:
        dec = spectral_decompose(A)
    lam = dec.eigenvalues
    min_entry = float(A.entries.min())
    min_eig = float(lam[-1])
    is_nonneg = min_entry >= 0.0
    is_psd = _is_psd(lam)
    return DnReport(
        is_nonnegative=is_nonneg,
        is_psd=is_psd,
        is_dn=is_nonneg and is_psd,
        min_entry=min_entry,
        min_eigenvalue=min_eig,
        is_invertible=min_eig > INVERT_TOL * float(lam[0]),
        is_irreducible=is_irreducible(A),
        num_distinct_eigenvalues=dec.group_starts.size,
    )


def _group_starts(lam: np.ndarray) -> np.ndarray:
    """Start indices of the groups of a non-increasing eigenvalue array.

    A positive value joins the current group while it lies within
    MERGE_TOL times the group's own first value, so the groups of s * lam
    are those of lam for every s > 0.  Comparing with the first value rather
    than the neighbour keeps a chain of close values from collapsing into
    one group wider than the tolerance.  A value <= 0 never joins a group
    that starts above 0, whose power it cannot share; values <= 0 join each
    other within MERGE_TOL * |lam_1|, so the zero group of a PSD spectrum,
    clamped negatives included, is one group.  No tolerance is below
    EIG_SNAP_TOL * max |lam|, which also scales with lam: eigh resolves
    every value only to about eps * max |lam|, so a repeated eigenvalue far
    below lam_1 comes back split by rounding and must still be one group.
    """
    values = lam.tolist()
    noise = EIG_SNAP_TOL * max(values[0], -values[-1])  # max |lam|, values sorted
    zero_tol = MERGE_TOL * abs(values[0])
    first, tol = np.inf, 0.0  # no group yet: the first value starts one
    starts = []
    for k, v in enumerate(values):
        if first - v > tol or v <= 0.0 < first:
            starts.append(k)
            first = v
            tol = MERGE_TOL * v if v > 0.0 else zero_tol  # read once per group
            if tol < noise:
                tol = noise
    return np.array(starts, dtype=np.intp)


def fractional_power(dec: SpectralDecomposition, t: float) -> SymMatrix:
    """Real power sum(lambda_k^t x_k x_k^T) = (u * lambda^t) u^T, O(n^2) in
    memory; non-PSD input, t < 0 on a singular matrix and a power beyond
    float64 raise as in ``_power_table``.  0^0 = 1, so A^0 = I even for
    singular A.  A non-finite t raises ValueError."""
    if not np.isfinite(t):
        raise ValueError(f"power t must be finite, got {t!r}")
    powed = _power_table(dec.clamped_eigenvalues, np.array([t], dtype=float), dec.singular)
    return SymMatrix.from_array((dec.eigenvectors * powed[:, 0]) @ dec.eigenvectors.T)


def grid_entry_values(dec: SpectralDecomposition, ts) -> np.ndarray:
    """(n, n, T) array with [i, j, a] = (A^{ts[a]})_{ij}: the products
    u_ik u_jk times the (n, T) power table, one matmul per block of rows i.

    Much faster than building n^2 ExpPoly objects when every entry of every
    power on a grid is needed; the table is ``_power_table`` of every clamped
    eigenvalue, zero included, so its t < 0 and overflow rules apply.  A
    block holds at most _GRID_BLOCK products: one block up to n = 161.

    The value at one t can differ in its last bits with the grid's length:
    ``np.power`` and the matmul kernel both round a column by the window, so
    ``dncrit scan`` can print different 17th digits for one t under two windows.
    """
    powed = _power_table(dec.clamped_eigenvalues, np.asarray(ts, dtype=float), dec.singular)
    u, n = dec.eigenvectors, dec.n
    out = np.empty((n, n, powed.shape[1]))
    rows = max(1, _GRID_BLOCK // n**2)
    for i in range(0, n, rows):
        _grid_rows(u, powed, slice(i, i + rows), out=out[i:i + rows])
    return out


def _grid_rows(u: np.ndarray, powed: np.ndarray, rows: slice, out=None) -> np.ndarray:
    """(r, n, T) values of the rows ``rows`` of A^t from the eigenvectors u and
    the (n, T) power table: the one product of ``grid_entry_values`` (per row
    block) and ``dncrit scan`` (per row); a row's values do not depend on its block."""
    return np.matmul(u[rows, None, :] * u[None, :, :], powed, out=out)


def _power_table(bases: np.ndarray, ts: np.ndarray, singular: bool) -> np.ndarray:
    """(K, T) table of bases[k] ** ts[a]: the one source of eigenvalue
    powers, and the one place their two rules live.  0^t has no value for
    t < 0, so a negative t raises ZeroToNegativePowerError when the matrix
    is ``singular``, whether ``bases`` holds its zero or not.  A power beyond
    float64 raises ValueError naming the first such t, with no RuntimeWarning."""
    if singular and np.any(ts < 0.0):
        raise ZeroToNegativePowerError("t < 0 with a zero eigenvalue")
    with np.errstate(over="ignore", invalid="ignore"):
        table = np.power(bases[:, None], ts)
    if not table.max(initial=0.0) < np.inf:  # NaN fails too; the table is >= 0
        t = float(np.ravel(ts)[np.isfinite(table).all(axis=0).argmin()])
        raise ValueError(f"A^t is not finite in float64 at t={t!r}")
    return table


@cache
def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, built once per n: the strict-upper entries,
    row-major, which the exponents scan and the order of a W key's digits."""
    upper = np.triu_indices(n, 1)
    for a in upper:
        a.setflags(write=False)  # one cached pair serves every caller
    return upper


def _is_psd(lam: np.ndarray) -> bool:
    """The one PSD rule, on a non-increasing spectrum:
    lam_n >= -PSD_TOL * lam_1, so it holds for A exactly when for s * A."""
    return bool(lam[-1] >= -PSD_TOL * float(lam[0]))


def clamp_psd(eigenvalues: np.ndarray) -> np.ndarray:
    """Zero out the negative values of a non-increasing spectrum that
    ``_is_psd`` accepts; raise NegativeEigenvalueError, naming lam_n and
    lam_1, on one it rejects."""
    lam = np.asarray(eigenvalues, dtype=float)
    if not _is_psd(lam):
        raise NegativeEigenvalueError(
            f"eigenvalue {lam[-1]:.6e} below -{PSD_TOL:.1e} * {lam[0]:.3e}"
        )
    return np.where(lam < 0.0, 0.0, lam)


def matrix_power_t(A: SymMatrix, t: float) -> SymMatrix:
    """Convenience: decompose A and return A^t."""
    return fractional_power(spectral_decompose(A), t)


def is_irreducible(A: SymMatrix) -> bool:
    """True iff the graph with edges a_ij != 0 (i != j) is connected; n=1 is
    true.  Depth-first search from vertex 0 on rows packed into Python ints
    (bit j of row k: a_kj != 0): O(n^2) for any pattern, sparse or dense."""
    packed = np.packbits(A.entries != 0.0, axis=1, bitorder="little")
    rows = [int.from_bytes(row, "little") for row in packed]
    seen = todo = 1  # bit sets: vertices reached, and those whose row is unread
    while todo:
        low = todo & -todo
        new = rows[low.bit_length() - 1] & ~seen
        seen, todo = seen | new, (todo ^ low) | new
    return seen == (1 << A.n) - 1
