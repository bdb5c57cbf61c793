"""Distribution primitives the models share.

Two laws, the ones the models read: the standard normal, which normal_mean
samples, and Student t, which behrens_fisher inverts.  :func:`cdf` and
:func:`quantile` take Student t's degrees of freedom as ``df`` and read
``df=None`` as the standard normal; :func:`sample` draws the standard normal.
Alongside them sit the binomial tables and the uniform order-statistic
sampler the models share.  The models evaluate their own closed forms with
the same special functions, each module reading them through
:mod:`confbel._special`, which imports ``scipy.special`` on first use.

CDFs and quantiles are the double-precision special functions
``scipy.special`` ships (``ndtr``/``ndtri``, ``stdtr``/``stdtrit``).  The
binomial model calls :func:`binom_cdf_table`, an exact log-space
probability-mass summation, and :func:`binom_inverse_cdf`, the minimal ``k``
with ``F(k) >= u``, itself.  Samplers are inverse-CDF transforms of
PCG64DXSM uniforms (see :mod:`confbel.mc`); the order-statistic sampler draws
the (min, max) pair from its exact joint law, two uniforms a pair whatever
the sample size.
"""

from __future__ import annotations

import functools

import numpy as np

from . import _special as special
from .mc import MCConfig


def _check_df(df) -> None:
    """``None`` (the standard normal), or Student t's integer ``df >= 1``."""
    if df is not None and not (df >= 1 and float(df).is_integer()):
        raise ValueError(f"Student t requires integer df >= 1, got {df!r}")


def binom_log_pmf(n: int, k, p) -> np.ndarray:
    """Log binomial pmf, stable for any (k, p) including the p in {0, 1} edges.

    Broadcasts over ``k`` and ``p``.
    """
    k = np.asarray(k, dtype=float)
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            special.gammaln(n + 1.0)
            - special.gammaln(k + 1.0)
            - special.gammaln(n - k + 1.0)
            + special.xlogy(k, p)
            + special.xlog1py(n - k, -p)
        )
    return out


def binom_cdf_table(n: int, p: float) -> np.ndarray:
    """Exact cumulative table ``F(0..n)`` with ``F(n)`` pinned to 1."""
    k = np.arange(n + 1)
    pmf = np.exp(binom_log_pmf(n, k, p))
    cum = np.cumsum(pmf)
    cum[-1] = 1.0
    return np.minimum(cum, 1.0)


# Guide cells per table entry, and the cap on cells per table.
GUIDE_CELLS_PER_OUTCOME = 32
GUIDE_MAX_CELLS = 1 << 16


@functools.lru_cache(maxsize=16)
def _binom_guide(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """``binom_cdf_table(n, p)`` and its guide cells, both read-only.

    The ``m`` cells (a power of two, the smallest at least
    ``GUIDE_CELLS_PER_OUTCOME * (n + 1)``, at most ``GUIDE_MAX_CELLS``) split
    [0, 1) at ``j/m``.  With ``g[j] = #(table < j/m)``, cell ``j`` holds
    ``g[j]`` when no table entry lies in ``[j/m, (j + 1)/m)`` and -1
    otherwise (Chen & Asau 1974; docs/decisions.md, "Guide-table binomial
    draws")."""
    table = binom_cdf_table(n, p)
    m = min(1 << (GUIDE_CELLS_PER_OUTCOME * (n + 1) - 1).bit_length(), GUIDE_MAX_CELLS)
    g = np.searchsorted(table, np.arange(m + 1) / m, side="left")
    cells = np.where(g[1:] == g[:-1], g[:-1], -1)
    table.flags.writeable = cells.flags.writeable = False
    return table, cells


def binom_inverse_cdf(n: int, p: float, u):
    """``min{k : F(k) >= u}`` for every key of ``u``: ``np.searchsorted(
    binom_cdf_table(n, p), u, side="left")``, read from the guide cells in
    O(1) a key.  Keys in a cell that holds a table entry, keys off [0, 1)
    and NaN take the search itself.  Shape of ``u`` in, integers out."""
    table, cells = _binom_guide(n, float(p))
    keys = np.asarray(u, dtype=float)
    flat = keys.reshape(-1)
    inside = (flat >= 0.0) & (flat < 1.0)
    # u * m is exact (m is a power of two); keys off [0, 1) and NaN read cell 0
    x = cells[(np.where(inside, flat, 0.0) * len(cells)).astype(np.intp)]
    need = (x < 0) | ~inside
    x[need] = np.searchsorted(table, flat[need], side="left")
    out = x.reshape(keys.shape)
    return out if out.ndim else out[()]


def cdf(x, df=None):
    """CDF at ``x`` (scalar or array; array in, array out) of the standard
    normal, or of Student t with ``df`` degrees of freedom."""
    _check_df(df)
    xs = np.asarray(x, dtype=float)
    out = special.ndtr(xs) if df is None else special.stdtr(df, xs)
    return out if np.ndim(x) else float(out)


def quantile(p, df=None):
    """Inverse CDF: scipy.special's inverses of the special functions
    :func:`cdf` evaluates (``ndtri``, ``stdtrit``), so ``cdf(quantile(p))``
    returns ``p`` to within about 1e-15.  ``p`` must lie strictly inside
    (0, 1)."""
    _check_df(df)
    ps = np.asarray(p, dtype=float)
    if not np.all((ps > 0.0) & (ps < 1.0)):  # also rejects NaN
        raise ValueError("quantile requires 0 < p < 1")
    ps = np.atleast_1d(ps)
    out = special.ndtri(ps) if df is None else special.stdtrit(df, ps)
    return float(out[0]) if np.ndim(p) == 0 else out


def sample(mc: MCConfig) -> np.ndarray:
    """``mc.reps`` standard normal draws, reproducible from the stream key."""
    return special.ndtri(mc.uniforms())


def sample_uniform_minmax(n: int, mc: MCConfig) -> np.ndarray:
    """(reps, 2) array of (min, max) order statistics of ``n`` iid uniforms,
    drawn from their exact joint law with two uniforms a row:
    ``max = (1 - V1)^(1/n)``, and given it the other ``n - 1`` points are
    iid Uniform(0, max), so ``min = max (1 - (1 - V2)^(1/(n - 1)))``."""
    if n < 2:
        raise ValueError("order-statistic pairs need n >= 2")
    v = mc.generator().random((mc.reps, 2))
    hi = np.exp(np.log1p(-v[:, 0]) / n)
    lo = -hi * np.expm1(np.log1p(-v[:, 1]) / (n - 1))
    return np.column_stack([lo, hi])
