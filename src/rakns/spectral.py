"""Periodic-grid fields, spectral differentiation, and compilation of
differential polynomials into grid evaluators."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, NoReturn

import numpy as np

if TYPE_CHECKING:
    from .diffpoly import DiffPoly


class SpectralError(Exception):
    pass


class UnreducedInput(SpectralError):
    """compile_plan needs a reduced polynomial (psi/psibar jets only)."""


class FieldFormatError(SpectralError):
    """A field file that does not follow the format: bad input, not a failed check."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: n points (power of two) on [0, L)."""

    n: int
    length: float

    def __post_init__(self):
        if self.n < 16 or self.n & (self.n - 1):
            raise ValueError("n must be a power of two, >= 16")
        if not (self.length > 0 and math.isfinite(self.length)):
            raise ValueError("length must be finite and positive")
        if not self.length / self.n > 0:
            raise ValueError(f"length {self.length} over {self.n} points: the spacing underflows to 0")

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n) * (self.length / self.n)

    @property
    def xi(self) -> np.ndarray:
        """Angular wavenumbers in FFT ordering, 2*pi*m/L."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.length / self.n)

    @property
    def dx(self) -> float:
        return self.length / self.n


@dataclass(frozen=True)
class Field:
    """Complex samples of psi on a grid, with a timestamp."""

    grid: Grid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, got {v.shape}")
        if not np.all(np.isfinite(v.view(float))):
            raise ValueError("field contains NaN/Inf samples")
        if not math.isfinite(self.time):
            raise ValueError(f"field time must be finite, got {self.time}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@lru_cache(maxsize=64)
def _multipliers(grid: Grid, orders: tuple) -> np.ndarray:
    """Fourier multipliers (i xi)^order, one row per order, with the Nyquist
    mode zeroed for odd orders so that real fields keep real derivatives."""
    mults = np.array([(1j * grid.xi) ** o for o in orders])
    mults[[o % 2 == 1 for o in orders], grid.n // 2] = 0.0
    mults.setflags(write=False)
    return mults


def _samples(f: Field | np.ndarray, grid: Grid | None) -> tuple[np.ndarray, Grid]:
    if isinstance(f, Field):
        return f.values, f.grid
    if grid is None:
        raise ValueError("grid required when passing raw samples")
    return np.asarray(f, dtype=complex), grid


def spectral_derivative(f: Field | np.ndarray, order: int, grid: Grid | None = None) -> np.ndarray:
    """n-th derivative by Fourier multiplier (i xi)^n (Nyquist mode zeroed
    for odd n)."""
    values, grid = _samples(f, grid)
    if order == 0:
        return values.copy()
    return np.fft.ifft(np.fft.fft(values) * _multipliers(grid, (order,))[0])


@dataclass(frozen=True, eq=False)
class EvalPlan:
    """Compiled evaluator for a weighted sum w_1 P_1 + ... + w_m P_m of
    reduced differential polynomials: the program only, not the sources.

    The monomials of all P_j are merged, each keeping one coefficient per
    P_j, so every jet and monomial is computed once however many polynomials
    share it; the weights (i^k alpha_k'(t) for a flow spec) are supplied at
    evaluation time.  psibar jets are the conjugated psi jets (conjugation
    commutes with d/dx for the real variable x).

    The program runs over one workspace of ``rows`` grid rows.  Each
    monomial is its sorted sequence of factors, and every prefix of two or
    more factors is one product row, made once from the row of the prefix
    one shorter, so monomials that begin alike share their products.  The
    rows are psi and its jets at ``orders``, a row of ones if a monomial is
    constant (``unit``), the products that are monomials, the other
    products, and last the psibar jets in use (``conj``).  ``scatter`` puts
    each monomial's coefficients, one per source, at its row of the block
    from ``first``.  The block's head rows that are jets are the linear
    monomials.  ``_BoundPlan``, the one evaluator of a plan, scales the
    block and adds up its rows, not by a BLAS matrix-vector product
    (OpenBLAS threads one of this size, and on a loaded 2-core host each
    handoff can wait 8 ms); its ``integrals``, the one route of the
    conserved integrals, sums each column over the block's grid sums.
    """

    orders: tuple  # distinct positive jet orders, ascending
    rows: int  # workspace rows
    unit: int | None  # row of ones for a constant monomial, if any
    conj: tuple  # (row, psi jet row) per psibar jet in use
    products: tuple  # (row, a, b): row = a * b, each after its operands
    fill: int  # head rows a stage fills: psi and the jets the products and conj read
    first: int  # scatter row i is workspace row first + i
    scatter: np.ndarray  # (block rows, m): each monomial's coefficients at its row


def compile_plan(*polys: DiffPoly) -> EvalPlan:
    """One plan for the reduced polynomials P_1, ..., P_m (psi/psibar jets
    only), evaluated by ``eval_rhs`` as sum_j w_j P_j."""
    for h in polys:
        bad = h.symbols() & {"phi", "phibar"}
        if bad:
            raise UnreducedInput(f"plan source must be reduced; found {sorted(bad)}")
    merged: dict = {}
    for j, h in enumerate(polys):
        for m in h.terms:
            merged.setdefault(m.factors, [0j] * len(polys))[j] = complex(m.coeff)
    # A monomial's factor sequence: (conjugated, order) once per power.
    seqs = [tuple(sorted((v.symbol == "psibar", v.order) for v, e in facs for _ in range(e))) for facs in merged]
    orders = tuple(sorted({o for s in seqs for _, o in s} - {0}))
    prefixes = sorted({s[:k] for s in seqs for k in range(2, len(s) + 1)})
    inner = set(prefixes) - set(seqs)
    conj = sorted({o for s in seqs for c, o in s if c})
    # A row per factor sequence; sorted order runs every prefix before its
    # extensions, and putting inner prefixes last keeps the monomials together.
    order = [((False, o),) for o in (0,) + orders] + ([()] if () in seqs else [])
    order += sorted(prefixes, key=lambda p: p in inner) + [((True, o),) for o in conj]
    at = {seq: r for r, seq in enumerate(order)}
    mono = [at[s] for s in seqs]
    first, last = min(mono, default=0), max(mono, default=-1)
    scatter = np.zeros((last + 1 - first, len(polys)), dtype=complex)
    for r, cs in zip(mono, merged.values()):
        scatter[r - first] = cs
    products = tuple((at[p], at[p[:-1]], at[p[-1:]]) for p in prefixes)
    conj = tuple((at[(True, o),], at[(False, o),]) for o in conj)
    return EvalPlan(
        orders=orders,
        rows=len(order),
        unit=at.get(()),
        conj=conj,
        products=products,
        fill=max((r + 1 for p in products + conj for r in p[1:] if r <= len(orders)), default=0),
        first=first,
        scatter=scatter,
    )


def _coefficients(plan: EvalPlan, weights) -> np.ndarray:
    """The coefficient of each row of the block for the source weights
    (unit weights for None)."""
    return plan.scatter.sum(axis=1) if weights is None else plan.scatter @ np.asarray(weights)


def eval_rhs(
    plan: EvalPlan, f: Field | np.ndarray, grid: Grid | None = None, weights=None
) -> np.ndarray:
    """Evaluate sum_j weights[j] P_j pointwise over the grid (unit weights
    by default), from a Field or from raw samples plus their grid: the plan
    bound to the grid, evaluated from the FFT of the samples
    (``_BoundPlan.value``).  The bind refuses a grid so short that
    (i xi)^order overflows."""
    values, grid = _samples(f, grid)
    return _BoundPlan(plan, grid).value(np.fft.fft(values), weights)


class _BoundPlan:
    """An EvalPlan bound to one grid, the one code that evaluates a plan.
    A bind makes the workspace, row views and multipliers, and refuses a
    grid so short that (i xi)^order overflows; a fill is one batched
    inverse FFT of psi-hat to psi and its jets, then the product program.
    A call is the nonlinear part of a stepper stage at the source weights:
    it fills the plan's ``fill`` rows and sums the block's rows after the
    jet rows.  ``symbol`` is the rest, the linear monomials' Fourier symbol
    sum_r c_r (i xi)^(order r), a sum of the bound multiplier rows.
    ``value`` fills every jet and sums the whole block.  ``integrals`` does
    the same fill and returns psi's samples, a view of the workspace that a
    caller keeps by copying, and each source's grid integral, its scatter
    column over the block's grid sums.
    """

    def __init__(self, plan: EvalPlan, grid: Grid):
        ws = np.empty((plan.rows, grid.n), dtype=complex)
        top = 1 + len(plan.orders)  # rows of psi and its jets
        mults = _multipliers(grid, (0,) + plan.orders)  # row 0 is (i xi)^0 = 1
        if not np.all(np.isfinite(mults[-1].view(float))):  # the top order overflows first, on a short grid
            raise ValueError(f"grid length {grid.length:g} is too short for {grid.n} points: "
                             f"(i xi)^{max(plan.orders)} overflows")
        self.plan, self.dx = plan, grid.dx
        self.rows = list(ws)  # a list index costs less than an array index
        self.stage = mults[: plan.fill], ws[: plan.fill]  # the fill of a call
        self.every = mults, ws[:top]  # the fill of value and integrals
        self.linear = mults[plan.first : top]  # the multipliers of the block's jet rows
        self.block = ws[plan.first : plan.first + len(plan.scatter)]
        self.skip = max(plan.first, top) - plan.first  # block rows that are linear jets
        self.terms = self.block[self.skip :]

    def _fill(self, psi_hat: np.ndarray, mults: np.ndarray, jets: np.ndarray) -> None:
        np.multiply(psi_hat, mults, out=jets)
        np.fft.ifft(jets, axis=-1, out=jets)
        plan, rows = self.plan, self.rows
        for r, src in plan.conj:
            np.conj(rows[src], out=rows[r])
        if plan.unit is not None:  # a reused workspace holds it scaled
            rows[plan.unit].fill(1.0)
        for r, a, b in plan.products:
            np.multiply(rows[a], rows[b], out=rows[r])

    def __call__(self, psi_hat: np.ndarray, weights) -> np.ndarray:
        self._fill(psi_hat, *self.stage)
        self.terms *= _coefficients(self.plan, weights)[self.skip :, None]
        return self.terms.sum(axis=0)

    def symbol(self, weights) -> np.ndarray:
        rows = zip(self.linear, _coefficients(self.plan, weights))
        return sum((c * m for m, c in rows), np.zeros_like(self.rows[0]))

    def value(self, psi_hat: np.ndarray, weights) -> np.ndarray:
        self._fill(psi_hat, *self.every)
        self.block *= _coefficients(self.plan, weights)[:, None]
        return self.block.sum(axis=0)

    def integrals(self, psi_hat: np.ndarray) -> tuple:
        self._fill(psi_hat, *self.every)
        sums = self.block.sum(axis=1)
        return self.rows[0], tuple((self.plan.scatter.T @ sums * self.dx).tolist())


@lru_cache(maxsize=256)
def _cached_plan(*polys: DiffPoly) -> EvalPlan:
    return compile_plan(*polys)


def flow_plan(table, spec) -> EvalPlan:
    """Plan of the spec's flows H_k, one source per entry, to be weighted by
    ``spec.weights(t)``; ``table`` is a hierarchy FlowTable."""
    return _cached_plan(*(table.H[k] for k, _ in spec.entries))


def residual(f_minus: Field, f0: Field, f_plus: Field, spec) -> float:
    """L-inf norm of psi_t - sum_k i^k alpha_k'(t) H_k(psi) at f0, with psi_t
    the derivative at f0.time of the quadratic through the three fields at
    their own times (Fornberg, Math. Comp. 51, 1988): the centred difference
    of the outer fields, plus a term that is exactly 0 when the two steps
    are equal.  Times that do not increase raise SpectralError, and so does
    a value that is not finite, so that no verdict can drop it; a grid so
    short that xi^order overflows is refused before, where eval_rhs binds
    the plan (ValueError)."""
    if f_minus.grid != f0.grid or f_plus.grid != f0.grid:
        raise SpectralError("residual fields must share a grid")
    h1, h2 = f0.time - f_minus.time, f_plus.time - f0.time
    if not (h1 > 0 and h2 > 0):
        times = ", ".join(repr(f.time) for f in (f_minus, f0, f_plus))
        raise SpectralError(f"residual fields must step forward in time, got t = {times}")
    from .hierarchy import default_flow_table

    table = default_flow_table(max((k for k, _ in spec.entries), default=1))
    with np.errstate(all="ignore"):
        # (h1 - h2)/(h1 h2) (h1 (f+ - f0) + h2 (f- - f0))/(h1 + h2), 0 at equal
        # steps, written with no product h1 h2 to underflow at tiny steps
        psi_t = (f_plus.values - f_minus.values) / (f_plus.time - f_minus.time) + (h1 - h2) / (h1 + h2) * (
            (f_plus.values - f0.values) / h2 + (f_minus.values - f0.values) / h1
        )
        rhs = eval_rhs(flow_plan(table, spec), f0, weights=spec.weights(f0.time))
        r = float(np.max(np.abs(psi_t - rhs)))
    if not math.isfinite(r):
        raise SpectralError(f"residual is not finite ({r}) at t={f0.time:.6g}")
    return r


def conserved_integral(f: Field, table, k: int) -> complex:
    """Grid integral of the k-th conserved density from the FFT of the
    field: the one-density plan, bound as the run records bind theirs."""
    from .hierarchy import conserved_density

    return _BoundPlan(_cached_plan(conserved_density(table, k)), f.grid).integrals(np.fft.fft(f.values))[1][0]


# -- field file I/O ----------------------------------------------------------

FIELD_MAGIC = "# akns-field v1"
_SAMPLE_ROW = np.dtype([("i", np.int64), ("re", float), ("im", float)])


def format_samples(values: np.ndarray) -> str:
    """The sample lines 'index re im' of ``values``, floats with 17
    significant digits so that every double reads back to itself: one %
    format of the interleaved columns (%.17g gives the bytes of {:.17g})."""
    n = len(values)
    cols: list = [None] * (3 * n)
    cols[0::3], cols[1::3], cols[2::3] = range(n), values.real.tolist(), values.imag.tolist()
    return ("%d %.17g %.17g\n" * n) % tuple(cols)


def write_field(f: Field, path) -> None:
    """Write ``f`` as a field file: the magic line, the line
    ``n=.. L=.. t=..``, then ``format_samples`` of the values, in one write."""
    header = f"{FIELD_MAGIC}\nn={f.grid.n} L={f.grid.length:.17g} t={f.time:.17g}\n"
    with open(path, "w") as fh:
        fh.write(header + format_samples(f.values))


def read_field(path) -> Field:
    """The Field of a field file.  After the two header lines, each
    non-blank line is 'index re im' in numpy's text grammar: an ASCII
    decimal integer and two ASCII decimal floats separated by whitespace,
    with no digit-group underscores and no comments; the indices come in
    any order.  A byte outside ASCII is read as a lone surrogate, which no
    token holds.  numpy's parser reads all sample lines in one call; only
    a file that fails it, or the checks of index range and repeats, is
    scanned again, line by line, to name its first bad line.  The values
    must be finite (``Field``)."""
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        header = fh.readline().rstrip("\n")
        if header != FIELD_MAGIC:
            raise FieldFormatError(f"bad field file header: {header!r}")
        meta = fh.readline().strip()
        try:
            kv = dict(item.split("=", 1) for item in meta.split())
            n, t = int(kv["n"]), float(kv["t"])
            grid = Grid(n, float(kv["L"]))
            if not math.isfinite(t):
                raise ValueError(f"t={kv['t']} is not finite")
        except (KeyError, ValueError) as exc:
            raise FieldFormatError(f"bad field file metadata {meta!r}: need n=, L=, t= ({exc})") from None
        body = fh.read()
    lines = body.split("\n")
    rows = np.empty(0, _SAMPLE_ROW)
    if body.strip():  # loadtxt warns on a body with no data
        try:
            rows = np.loadtxt(lines, dtype=_SAMPLE_ROW, comments=None, ndmin=1)
        except ValueError:
            _raise_first_bad_line(lines, n)
    idx = rows["i"]
    if len(rows) and not (idx.min() >= 0 and idx.max() < n and np.bincount(idx).max() == 1):
        _raise_first_bad_line(lines, n)
    if len(rows) != n:
        raise FieldFormatError(f"expected {n} samples, got {len(rows)}")
    values = np.empty(n, dtype=complex)
    values.real[idx], values.imag[idx] = rows["re"], rows["im"]
    return Field(grid, values, t)


def _raise_first_bad_line(lines, n: int) -> NoReturn:
    """Raise the error of the first sample line (file line 3 on) that is not
    'index re im' in read_field's grammar, or whose index is out of range or
    repeated.  read_field calls it only when one of its lines is such a
    line.  int() and float() read numpy's grammar once a token is ASCII and
    has no digit-group underscores."""
    seen = set()
    for lineno, line in enumerate(lines, start=3):
        parts = line.split()
        if not parts:
            continue
        try:
            idx_s, re_s, im_s = parts
            if not all(p.isascii() and "_" not in p for p in parts):
                raise ValueError
            idx = int(idx_s)
            float(re_s), float(im_s)
        except ValueError:
            raise FieldFormatError(f"line {lineno}: expected 'index re im', got {line.strip()!r}") from None
        if not 0 <= idx < n:
            raise FieldFormatError(f"sample index {idx} out of range for n={n}")
        if idx in seen:
            raise FieldFormatError(f"sample index {idx} repeated")
        seen.add(idx)
    raise FieldFormatError("sample lines do not parse")  # a grammar gap: fail closed


def sample_onto_grid(
    sampler,
    grid: Grid,
    times,
    t: float = 0.0,
    images: int = 0,
) -> Field:
    """Evaluate an analytic sampler on grid nodes.

    The sampler's x origin is placed at L/2 so decaying profiles have
    their tails at the period seam.  ``images`` adds that
    many periodic image copies on each side (sum over x + mL), which
    removes the derivative jump at the seam for decaying profiles; the
    images of an exact decaying solution interact only through
    exponentially small cross terms, so the periodized samples still
    solve the flow to that accuracy.
    """
    x = grid.nodes - grid.length / 2.0
    with np.errstate(over="ignore", invalid="ignore"):  # Field refuses a sample that is not finite
        values = np.asarray(sampler(x, times), dtype=complex)
        for m in range(1, images + 1):
            values = values + sampler(x + m * grid.length, times)
            values = values + sampler(x - m * grid.length, times)
    return Field(grid, values, t)
