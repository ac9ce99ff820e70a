"""Periodic-grid fields, spectral differentiation, and compilation of
differential polynomials into grid evaluators."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .diffpoly import GR_ZERO, DiffPoly, Monomial, jet
from .hierarchy import conserved_density, default_flow_table


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
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def _checked(cls, grid: Grid, values: np.ndarray, time: float) -> "Field":
        """A Field of complex samples of the grid's shape, already checked
        finite, in a new array that nothing else holds: it is made read-only
        in place, neither checked again nor copied."""
        values.setflags(write=False)
        f = object.__new__(cls)
        for name, value in (("grid", grid), ("values", values), ("time", time)):
            object.__setattr__(f, name, value)
        return f


@lru_cache(maxsize=64)
def _multipliers(grid: Grid, orders: tuple) -> np.ndarray:
    """Fourier multipliers (i xi)^order, one row per order, with the Nyquist
    mode zeroed for odd orders so that real fields keep real derivatives.
    No orders give zero rows, the symbol columns of a spec with no flows."""
    mults = np.array([(1j * grid.xi) ** o for o in orders]).reshape(len(orders), grid.n)
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
    reduced differential polynomials.

    The monomials of all P_j are merged, each keeping one coefficient per
    P_j, so every jet and monomial is computed once however many polynomials
    share it; the weights (i^k alpha_k'(t) for a flow spec) are supplied at
    evaluation time.  psibar jets are obtained by conjugating the
    corresponding psi jets (conjugation commutes with d/dx for the real
    variable x).

    The monomials compile into a product program over one workspace of
    ``rows`` grid rows.  Each monomial is its sorted sequence of factors,
    and every prefix of two or more factors is one product row, made once
    from the row of the prefix one shorter, so monomials that begin alike
    share their products.  The rows are psi and its jets at ``orders``, a
    row of ones if a monomial is constant (``unit``), the products that are
    monomials, the other products, and last the psibar jets in use
    (``conj``, one conjugation each).  ``scatter`` holds ``matrix`` for
    the block of rows from ``first`` that carries every coefficient: just
    the monomials when the linear ones are the top jets, as in the flows.
    The weighted sum scales that block and adds up its rows.  It is not a
    BLAS matrix-vector product: OpenBLAS runs one of this size on two
    threads, and on a loaded 2-core host each handoff can wait 8 ms.
    """

    orders: tuple  # distinct positive jet orders, ascending
    coeffs: tuple  # per monomial: exact coefficients, one per source
    matrix: np.ndarray  # the same coefficients as complex, (monomials, m)
    factors: tuple  # per monomial: ((conjugated, order, exponent), ...)
    rows: int  # workspace rows
    unit: int | None  # row of ones for a constant monomial, if any
    conj: tuple  # (row, psi jet row) per psibar jet in use
    products: tuple  # (row, a, b): row = a * b, each after its operands
    first: int  # scatter row i is workspace row first + i
    scatter: np.ndarray  # (block rows, m): matrix placed at each monomial's row

    def decompile(self) -> DiffPoly:
        """P_1 + ... + P_m, rebuilt from the compiled monomials."""
        terms = []
        for cs, facs in zip(self.coeffs, self.factors):
            d = {jet("psibar" if conj else "psi", o): e for conj, o, e in facs}
            terms.append(Monomial(sum(cs[1:], cs[0]), tuple(sorted(d.items()))))
        return DiffPoly(terms)


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
            merged.setdefault(m.factors, [GR_ZERO] * len(polys))[j] = m.coeff
    factors = tuple(
        tuple((v.symbol == "psibar", v.order, e) for v, e in facs) for facs in merged
    )
    coeffs = tuple(tuple(cs) for cs in merged.values())
    matrix = np.array([[complex(c) for c in cs] for cs in coeffs], dtype=complex)
    matrix = matrix.reshape(len(coeffs), len(polys))
    orders = tuple(sorted({o for facs in factors for _, o, _ in facs} - {0}))

    seqs = [tuple(sorted((c, o) for c, o, e in facs for _ in range(e))) for facs in factors]
    prefixes = sorted({s[:k] for s in seqs for k in range(2, len(s) + 1)})
    inner = set(prefixes) - set(seqs)
    conj = sorted({o for facs in factors for c, o, _ in facs if c})
    # A row per factor sequence; sorted order runs every prefix before its
    # extensions, and putting inner prefixes last keeps the monomials together.
    order = [((False, o),) for o in (0,) + orders] + ([()] if () in seqs else [])
    order += sorted(prefixes, key=lambda p: p in inner) + [((True, o),) for o in conj]
    at = {seq: r for r, seq in enumerate(order)}
    mono = [at[s] for s in seqs]
    first, last = min(mono, default=0), max(mono, default=-1)
    scatter = np.zeros((last + 1 - first, len(polys)), dtype=complex)
    scatter[[r - first for r in mono]] = matrix
    return EvalPlan(
        orders=orders,
        coeffs=coeffs,
        matrix=matrix,
        factors=factors,
        rows=len(order),
        unit=at.get(()),
        conj=tuple((at[(True, o),], at[(False, o),]) for o in conj),
        products=tuple((at[p], at[p[:-1]], at[p[-1:]]) for p in prefixes),
        first=first,
        scatter=scatter,
    )


def _coefficients(plan: EvalPlan, weights) -> np.ndarray:
    """The coefficient of each row of the block for the source weights
    (unit weights for None)."""
    return plan.scatter.sum(axis=1) if weights is None else plan.scatter @ np.asarray(weights)


def _run_program(plan: EvalPlan, rows: list) -> None:
    """Run the product program on the workspace ``rows``, psi and its jets
    filled in.  ``rows`` holds a view per row: a list index costs less than
    an array index, and the program makes two to three per row."""
    for r, src in plan.conj:
        np.conj(rows[src], out=rows[r])
    if plan.unit is not None:  # a reused workspace holds it scaled
        rows[plan.unit].fill(1.0)
    for r, a, b in plan.products:
        np.multiply(rows[a], rows[b], out=rows[r])


def _weighted_sum(plan: EvalPlan, rows: list, terms: np.ndarray, coeffs) -> np.ndarray:
    """Run the product program on ``rows`` and return the weighted sum of
    the block ``terms``, which it scales in place."""
    _run_program(plan, rows)
    terms *= coeffs[:, None]
    return terms.sum(axis=0)


def _workspace(plan: EvalPlan, values: np.ndarray, grid: Grid) -> np.ndarray:
    """A new workspace for the plan with psi and its jets filled in: one
    forward FFT and one batched inverse FFT."""
    ws = np.empty((plan.rows, grid.n), dtype=complex)
    ws[0] = values
    if plan.orders:
        jets = ws[1 : 1 + len(plan.orders)]
        np.multiply(np.fft.fft(values), _multipliers(grid, plan.orders), out=jets)
        np.fft.ifft(jets, axis=-1, out=jets)
    return ws


def eval_rhs(
    plan: EvalPlan, f: Field | np.ndarray, grid: Grid | None = None, weights=None
) -> np.ndarray:
    """Evaluate sum_j weights[j] P_j pointwise over the grid (unit weights
    by default), from a Field or from raw samples plus their grid.  Each
    call has a workspace of its own, so it keeps no memory between calls."""
    values, grid = _samples(f, grid)
    ws = _workspace(plan, values, grid)
    terms = ws[plan.first : plan.first + len(plan.scatter)]
    return _weighted_sum(plan, list(ws), terms, _coefficients(plan, weights))


class _BoundPlan:
    """An EvalPlan bound to one grid and one set of source weights, for a
    stepper that works on psi-hat: the workspace, its row views, the
    coefficients and the multipliers (i xi)^(0, orders) are made once.  A
    call takes psi and its jets from psi-hat by one batched inverse FFT,
    so it makes no forward FFT, and runs the product program of eval_rhs.
    """

    def __init__(self, plan: EvalPlan, grid: Grid, weights):
        ws = np.empty((plan.rows, grid.n), dtype=complex)
        self.plan = plan
        self.rows = list(ws)
        self.mults = _multipliers(grid, (0,) + plan.orders)  # row 0 is (i xi)^0 = 1
        self.jets = ws[: len(self.mults)]
        self.terms = ws[plan.first : plan.first + len(plan.scatter)]
        self.coeffs = _coefficients(plan, weights)

    def __call__(self, psi_hat: np.ndarray) -> np.ndarray:
        np.multiply(psi_hat, self.mults, out=self.jets)
        np.fft.ifft(self.jets, axis=-1, out=self.jets)
        return _weighted_sum(self.plan, self.rows, self.terms, self.coeffs)


@lru_cache(maxsize=256)
def _cached_plan(*polys: DiffPoly) -> EvalPlan:
    return compile_plan(*polys)


def flow_plan(table, spec) -> EvalPlan:
    """Plan of the spec's flows H_k, one source per entry, to be weighted by
    ``spec.weights(t)``; ``table`` is a hierarchy FlowTable."""
    return _cached_plan(*(table.H[k] for k, _ in spec.entries))


def residual(f_minus: Field, f0: Field, f_plus: Field, spec) -> float:
    """L-inf norm of psi_t - sum_k i^k alpha_k'(t) H_k(psi), with psi_t from
    the centered difference of the outer fields."""
    if f_minus.grid != f0.grid or f_plus.grid != f0.grid:
        raise SpectralError("residual fields must share a grid")
    dm = f0.time - f_minus.time
    dp = f_plus.time - f0.time
    if not (dm > 0 and abs(dm - dp) <= 1e-12 * max(dm, dp)):
        raise SpectralError("residual fields must be equally spaced in time")
    table = default_flow_table(max((k for k, _ in spec.entries), default=1))
    dt = 0.5 * (dm + dp)
    psi_t = (f_plus.values - f_minus.values) / (2.0 * dt)
    rhs = eval_rhs(flow_plan(table, spec), f0, weights=spec.weights(f0.time))
    return float(np.max(np.abs(psi_t - rhs)))


def conserved_integral(f: Field, table, k: int) -> complex:
    """Grid integral of the k-th conserved density (mean times L)."""
    vals = eval_rhs(_cached_plan(conserved_density(table, k)), f)
    return complex(np.mean(vals) * f.grid.length)


def _conserved_integrals(f: Field, table, orders) -> tuple:
    """conserved_integral(f, table, k) for each k of orders, from one plan
    of their densities: its workspace is filled and its program run once,
    and each density sums its scatter column of the block's grid sums."""
    plan = _cached_plan(*(conserved_density(table, k) for k in orders))
    ws = _workspace(plan, f.values, f.grid)
    _run_program(plan, list(ws))
    sums = ws[plan.first : plan.first + len(plan.scatter)].sum(axis=1)
    return tuple((plan.scatter.T @ sums * (f.grid.length / f.grid.n)).tolist())


# -- field file I/O ----------------------------------------------------------

FIELD_MAGIC = "# akns-field v1"


def write_field(f: Field, path) -> None:
    samples = zip(f.values.real.tolist(), f.values.imag.tolist())
    lines = [FIELD_MAGIC, f"n={f.grid.n} L={f.grid.length:.17g} t={f.time:.17g}"]
    lines.extend(f"{i} {re:.17g} {im:.17g}" for i, (re, im) in enumerate(samples))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_field(path) -> Field:
    """The Field of a field file.  The sample lines are split once and each
    column is converted in one pass; only a file that fails those checks is
    scanned again, line by line, to name its first bad line."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != FIELD_MAGIC:
            raise FieldFormatError(f"bad field file header: {header!r}")
        meta = fh.readline().strip()
        try:
            kv = dict(item.split("=", 1) for item in meta.split())
            n, t = int(kv["n"]), float(kv["t"])
            grid = Grid(n, float(kv["L"]))
        except (KeyError, ValueError) as exc:
            raise FieldFormatError(f"bad field file metadata {meta!r}: need n=, L=, t= ({exc})") from None
        lines = fh.read().split("\n")
    rows = [parts for parts in map(str.split, lines) if parts]
    try:
        idx_s, re_s, im_s = zip(*rows, strict=True) if rows else ((), (), ())
        idx = np.array(list(map(int, idx_s)), dtype=np.int64)
        re_ = np.fromiter(map(float, re_s), float, len(rows))
        im = np.fromiter(map(float, im_s), float, len(rows))
        ok = not rows or (idx.min() >= 0 and idx.max() < n and np.bincount(idx).max() == 1)
    except (ValueError, OverflowError):
        ok = False
    if not ok:
        _raise_first_bad_line(lines, n)
    if len(rows) != n:
        raise FieldFormatError(f"expected {n} samples, got {len(rows)}")
    values = np.empty(n, dtype=complex)
    values.real[idx], values.imag[idx] = re_, im
    return Field(grid, values, t)


def _raise_first_bad_line(lines, n: int) -> None:
    """Raise the error of the first sample line (file line 3 on) that is not
    'index re im', or whose index is out of range or repeated.  read_field
    calls it only when one of its lines is such a line."""
    seen = set()
    for lineno, line in enumerate(lines, start=3):
        if not line.strip():
            continue
        try:
            idx_s, re_s, im_s = line.split()
            idx = int(idx_s)
            float(re_s), float(im_s)
        except ValueError:
            raise FieldFormatError(f"line {lineno}: expected 'index re im', got {line.strip()!r}") from None
        if not 0 <= idx < n:
            raise FieldFormatError(f"sample index {idx} out of range for n={n}")
        if idx in seen:
            raise FieldFormatError(f"sample index {idx} repeated")
        seen.add(idx)


def sample_onto_grid(
    sampler,
    grid: Grid,
    times,
    t: float | None = None,
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
    values = np.asarray(sampler(x, times), dtype=complex)
    for m in range(1, images + 1):
        values = values + sampler(x + m * grid.length, times)
        values = values + sampler(x - m * grid.length, times)
    timestamp = 0.0 if t is None else t
    return Field(grid, values, timestamp)
