"""Symmetric-matrix foundation: parsing, DN checks, spectral decomposition,
the eigenvalue policy, real matrix powers and irreducibility.

A matrix is doubly nonnegative (DN) when it is symmetric positive
semi-definite and entry-wise nonnegative.  Real powers A^t are taken in the
spectral sense, sum(lambda_k^t x_k x_k^T), which is the object all other
modules analyze.

Everything here is immutable and side-effect free; values can be shared
freely across threads.  A decomposition's eigenvalue groups, clamped
eigenvalues and entry coefficients are filled in on first use, from its
immutable arrays, so two threads racing on them compute the same value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Default tolerances.  All relative thresholds are scaled as documented at
# the point of use; tests pin behavior at exactly these values.
SYM_TOL = 1e-12          # relative asymmetry accepted on input
ORTHO_TOL = 1e-12        # |U^T U - I| bound
RECON_TOL = 1e-10        # |U diag(lam) U^T - A| bound, relative to max |a_ij|
PSD_TOL = 1e-10          # eigenvalue >= -PSD_TOL * max(1, lam_1) counts as nonnegative
INVERT_TOL = 1e-10       # lam_n > INVERT_TOL * max(1, lam_1) counts as invertible
SIGN_TOL = 1e-8          # eigenvector sign canonicalization threshold
MERGE_TOL = 1e-8         # eigenvalues closer than MERGE_TOL * max(1, lam_1) coincide
EIG_SNAP_TOL = 1e-13     # |lam| <= EIG_SNAP_TOL * max |lam| is snapped to exact zero


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
    def from_array(cls, a, sym_tol: float = SYM_TOL) -> "SymMatrix":
        """Validate and symmetrize an array-like.

        Asymmetry up to ``sym_tol * max_abs_entry`` is averaged away; anything
        larger raises NotSymmetricError.
        """
        arr = np.array(a, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise MatrixFormatError(f"expected a nonempty square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise MatrixFormatError("matrix entries must be finite")
        scale = np.abs(arr).max()
        asym = np.abs(arr - arr.T).max()
        if asym > sym_tol * max(scale, 1e-300):
            raise NotSymmetricError(f"asymmetry {asym:.3e} exceeds {sym_tol:.1e} * {scale:.3e}")
        sym = (arr + arr.T) / 2.0
        sym.setflags(write=False)
        return cls(n=sym.shape[0], entries=sym)

    def max_abs(self) -> float:
        return float(np.abs(self.entries).max())

    def __array__(self, dtype=None, copy=None):
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

    Column signs are canonical: the first coordinate with magnitude above
    SIGN_TOL is positive.  The eigenvalue policy every module reads lives
    here, each part computed at most once and read-only: ``group_starts``
    says which eigenvalues count as equal and ``clamped_eigenvalues`` which
    count as zero.  The entry polynomials f_ij(t) = sum_k c_ijk b_k^t follow
    from it: ``entry_bases`` are the b_k, ``entry_coefficients`` the c_ijk of
    every entry at once, and ``singular`` says that a zero base was dropped.
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
    def clamped_eigenvalues(self) -> np.ndarray:
        """``clamp_psd(eigenvalues)``: raises NegativeEigenvalueError on a
        matrix that is not PSD."""
        lam = clamp_psd(self.eigenvalues)
        lam.setflags(write=False)
        return lam

    @cached_property
    def entry_bases(self) -> np.ndarray:
        """The first clamped eigenvalue of each group, strictly decreasing;
        a zero base is dropped (see ``singular``)."""
        bases = self.clamped_eigenvalues[self.group_starts]
        if bases[-1] == 0.0:
            bases = bases[:-1]
        bases.setflags(write=False)
        return bases

    @property
    def singular(self) -> bool:
        """Whether a zero base, and its coefficients, were dropped: the entry
        polynomials then only represent A^t for t > 0."""
        return self.entry_bases.size < self.group_starts.size

    @cached_property
    def entry_coefficients(self) -> np.ndarray:
        """(n, n, K) tensor whose [i, j] row holds entry (i, j)'s
        coefficients: the products u_ik u_jk summed over each group, one per
        base of ``entry_bases``."""
        u = self.eigenvectors
        coeffs = np.add.reduceat(u[:, None, :] * u[None, :, :], self.group_starts, axis=-1)
        coeffs = coeffs[..., :self.entry_bases.size]
        coeffs.setflags(write=False)
        return coeffs


def parse_matrix(text: str, sym_tol: float = SYM_TOL) -> SymMatrix:
    """Read a matrix from text: '#' comment lines, then n, then n rows of n numbers."""
    return SymMatrix.from_array(_read_square_rows(text), sym_tol=sym_tol)


def format_matrix(A: SymMatrix) -> str:
    """Serialize in the matrix text format at full (round-trip) precision."""
    lines = [str(A.n)]
    for row in A.entries:
        lines.append(" ".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def _read_numeric_rows(text: str) -> list[list[float]]:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            rows.append([float(tok) for tok in stripped.split()])
        except ValueError as exc:
            raise MatrixFormatError(f"line {lineno}: non-numeric token ({exc})") from None
    return rows


def _read_square_rows(text: str) -> list[list[float]]:
    """The n rows of n numbers below a dimension line n, as read by
    _read_numeric_rows.  The dimension must be a finite integer >= 1."""
    rows = _read_numeric_rows(text)
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
    scale = float(np.abs(lam).max()) if lam.size else 0.0
    lam[np.abs(lam) <= EIG_SNAP_TOL * scale] = 0.0
    u = vecs[:, order]
    # A column's first entry past SIGN_TOL is its first True; a column with
    # none has argmax 0 and an entry within SIGN_TOL there, so it keeps its sign.
    lead = u[np.argmax(np.abs(u) > SIGN_TOL, axis=0), np.arange(u.shape[1])]
    u = np.where(lead < -SIGN_TOL, -u, u)
    lam.setflags(write=False)
    u.setflags(write=False)
    return SpectralDecomposition(eigenvalues=lam, eigenvectors=u)


def check_dn(A: SymMatrix, psd_tol: float = PSD_TOL,
             dec: SpectralDecomposition | None = None) -> DnReport:
    """Report nonnegativity, positive semi-definiteness, invertibility,
    irreducibility, and the distinct-eigenvalue count.

    ``dec`` is A's decomposition when the caller already holds one;
    without it A is decomposed here.
    """
    if dec is None:
        dec = spectral_decompose(A)
    lam = dec.eigenvalues
    scale = max(1.0, float(lam[0]))
    min_entry = float(A.entries.min())
    min_eig = float(lam[-1])
    is_nonneg = min_entry >= 0.0
    is_psd = min_eig >= -psd_tol * scale
    return DnReport(
        is_nonnegative=is_nonneg,
        is_psd=is_psd,
        is_dn=is_nonneg and is_psd,
        min_entry=min_entry,
        min_eigenvalue=min_eig,
        is_invertible=min_eig > INVERT_TOL * scale,
        is_irreducible=is_irreducible(A),
        num_distinct_eigenvalues=dec.group_starts.size,
    )


def _group_starts(lam: np.ndarray) -> np.ndarray:
    """Start indices of the groups of a non-increasing eigenvalue array.

    A value joins the current group while it lies within
    MERGE_TOL * max(1, |lam_1|) of the group's first value.  Comparing with
    the first value rather than the neighbour keeps a chain of close values
    from collapsing into one group wider than the tolerance.
    """
    tol = MERGE_TOL * max(1.0, abs(float(lam[0])))
    starts = [0]
    for k in range(1, lam.size):
        if lam[starts[-1]] - lam[k] > tol:
            starts.append(k)
    return np.array(starts, dtype=np.intp)


def fractional_power(dec: SpectralDecomposition, t: float, psd_tol: float = PSD_TOL) -> SymMatrix:
    """Real power sum(lambda_k^t x_k x_k^T).

    Eigenvalues within the PSD tolerance band below zero are clamped to 0;
    anything lower raises NegativeEigenvalueError.  Conventions: 0^t = 0 for
    t > 0 and 0^0 = 1, so A^0 = I even for singular A.  A non-finite t
    raises ValueError.
    """
    if not np.isfinite(t):
        raise ValueError(f"power t must be finite, got {t!r}")
    lam = clamp_psd(dec.eigenvalues, psd_tol)
    if t < 0 and np.any(lam == 0.0):
        raise ZeroToNegativePowerError(f"t={t} < 0 with a zero eigenvalue")
    powered = np.power(lam, t)
    u = dec.eigenvectors
    result = (u * powered) @ u.T
    return SymMatrix.from_array((result + result.T) / 2.0, sym_tol=np.inf)


def clamp_psd(eigenvalues: np.ndarray, psd_tol: float = PSD_TOL) -> np.ndarray:
    """Zero out tiny negative eigenvalues; reject genuinely negative ones."""
    lam = np.asarray(eigenvalues, dtype=float)
    scale = max(1.0, float(lam.max(initial=0.0)))
    if lam.min() < -psd_tol * scale:
        raise NegativeEigenvalueError(
            f"eigenvalue {lam.min():.6e} below -{psd_tol:.1e} * {scale:.3e}"
        )
    return np.where(lam < 0.0, 0.0, lam)


def matrix_power_t(A: SymMatrix, t: float, psd_tol: float = PSD_TOL) -> SymMatrix:
    """Convenience: decompose A and return A^t."""
    return fractional_power(spectral_decompose(A), t, psd_tol=psd_tol)


def is_irreducible(A: SymMatrix) -> bool:
    """True iff the graph with edges |a_ij| > 0 (i != j) is connected; n=1 is true."""
    n = A.n
    if n == 1:
        return True
    adj = np.abs(A.entries) > 0.0
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(adj[i])[0]:
            if i != j and not seen[j]:
                seen[j] = True
                stack.append(j)
    return bool(seen.all())

