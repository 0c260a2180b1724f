"""Turning score matrices back into spans and labels.

Extraction follows the token-linking rule: a span (i, j) with type u is
emitted iff its head-tail cell, its head-to-[T] cell and its [T]-to-tail cell
all clear the threshold::

    Z[i, j] >= delta  and  Z[i, k_u] >= delta  and  Z[k_u, j] >= delta

with delta = 0 by default.  The comparison is inclusive, which is why masked
cells must be -inf rather than 0.  ``oracle_decode`` re-derives the same set
by brute-force enumeration and exists purely as a correctness oracle.

Classification reads the [CLST] row/column pair instead: single-label picks
``argmax_y sigmoid(Z[j, y]) * sigmoid(Z[y, j])`` (ties break to the lowest
candidate index), multi-label keeps every label whose both directions exceed
the classification threshold strictly (0.9 by default).  The sigmoid is the
expression ``scipy.special.expit`` evaluates, ``1 / (1 + exp(-x))``, with the
C math library's ``expf`` (float32 scores) or ``exp`` (any other), which are
the functions expit calls, so every product and decision is bitwise expit's
without loading ``scipy.special``.  A process without those symbols falls
back to expit itself.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from .errors import NoCandidates, NonFiniteScores
from .query import Query, fill_scored
from .schema import LevelMode


@dataclass(frozen=True)
class TypedSpan:
    """One decoded span: owning group, type label, token and char extents."""

    group: int
    label: str
    i: int          # query index of the span's first text token
    j: int          # query index of the last text token (inclusive)
    start: int      # character offsets into the source text
    end: int
    surface: str


@dataclass(frozen=True)
class ClsDecision:
    """Labels chosen for one prefix group on a classification level."""

    group: int
    labels: tuple[str, ...]


def _span_of(query: Query, group: int, label: str, iq: int, jq: int) -> TypedSpan:
    a = iq - query.text_start
    b = jq - query.text_start
    start = query.text.offsets[a][0]
    end = query.text.offsets[b][1]
    return TypedSpan(group=group, label=label, i=iq, j=jq, start=start, end=end,
                     surface=query.source[start:end])


def _check_finite(z: np.ndarray, query: Query) -> None:
    # -inf is the mask value and stays legal; NaN in a scored cell compares
    # false against every threshold and would decode silently as "no hit".
    nan = np.isnan(z)
    if nan.any() and fill_scored(query, np.zeros_like(nan), nan).any():
        raise NonFiniteScores("score matrix holds NaN in a scored cell")


def decode_ie(z: np.ndarray, query: Query, delta: float = 0.0) -> list[TypedSpan]:
    """All spans satisfying the three-cell linking rule, deduplicated and
    sorted by (i, j, group, label).

    Only scored cells are read.  Per type marker only the rows with a head
    hit and the columns with a tail hit can hold a span, so the head-tail
    cells are searched on that sub-grid alone."""
    _check_finite(z, query)
    t0 = query.text_start
    t = slice(t0, t0 + query.text_len)
    heads = (z[t, query.marker_pos] >= delta).T    # [k, text]
    tails = z[query.marker_pos, t] >= delta        # [k, text]
    spans = []
    for k in np.flatnonzero(heads.any(axis=1) & tails.any(axis=1)).tolist():
        m = query.type_markers[k]
        rows = heads[k].nonzero()[0]
        cols = tails[k].nonzero()[0]
        a, b = ((z[t, t][rows[:, None], cols] >= delta)
                & (rows[:, None] <= cols)).nonzero()
        for i, j in zip(rows[a].tolist(), cols[b].tolist()):
            spans.append(_span_of(query, m.group, m.label, t0 + i, t0 + j))
    spans.sort(key=lambda s: (s.i, s.j, s.group, s.label))
    return spans


def oracle_decode(z: np.ndarray, query: Query, delta: float = 0.0) -> list[TypedSpan]:
    """Literal restatement of the inference rule: enumerate every text pair
    (i, j) and every [T] marker k and test the three cells directly."""
    text_idx = list(query.text_positions())
    spans = []
    for i in text_idx:
        for j in text_idx:
            if i > j:
                continue
            for m in query.type_markers:
                k = m.pos
                if z[i, j] >= delta and z[i, k] >= delta and z[k, j] >= delta:
                    spans.append(_span_of(query, m.group, m.label, i, j))
    spans.sort(key=lambda s: (s.i, s.j, s.group, s.label))
    return spans


@functools.cache
def _sigmoid():
    """The sigmoid of one score, bitwise ``scipy.special.expit``'s.

    expit computes ``1 / (1 + exp(-x))`` in the input's precision with the C
    library's ``expf`` or ``exp``; both are bound here from the running
    process, which links libm already.  numpy's exp is not libm's and gives
    different last bits.  A float32 score returns ``np.float32``, as expit
    does, so ``> delta`` still compares in float32; any other score returns
    ``np.float64``.  Where the process has no such symbols, this is expit.
    """
    try:
        libm = ctypes.CDLL(None)
        expf, exp = libm.expf, libm.exp
    except (OSError, AttributeError, TypeError):
        # No process handle (Windows' CDLL refuses None) or no such symbol.
        # Deferred: scipy.special costs ~24 MB resident.
        from scipy.special import expit
        return expit
    expf.argtypes, expf.restype = [ctypes.c_float], ctypes.c_float
    exp.argtypes, exp.restype = [ctypes.c_double], ctypes.c_double
    f32, f64 = np.float32, np.float64
    one = f32(1)

    def sigmoid(x):
        if type(x) is f32:
            return one / (one + f32(expf(-x)))
        return f64(1.0 / (1.0 + exp(-float(x))))

    return sigmoid


def cls_products(z: np.ndarray, query: Query) -> list[tuple[int, str, float]]:
    """Two-direction sigmoid products for every (group, label) candidate.
    This is the quantity single-label ensembles multiply across sub-queries."""
    if query.clst_pos is None:
        raise NoCandidates("query was not built in a classification mode")
    _check_finite(z, query)
    sigmoid = _sigmoid()
    j = query.clst_pos
    return [
        (m.group, m.label, float(sigmoid(z[j, m.pos])) * float(sigmoid(z[m.pos, j])))
        for m in query.type_markers
    ]


def argmax_label(products: dict[str, float], order) -> str:
    """The label with the largest product; exact ties go to the label that
    comes first in ``order``, the group's candidate types."""
    rank = {label: i for i, label in enumerate(order)}
    return min(products, key=lambda label: (-products[label], rank[label]))


def decode_cls_multi(z: np.ndarray, query: Query,
                     delta: float = 0.9) -> tuple[ClsDecision, ...]:
    """Every label whose both direction sigmoids strictly exceed delta.
    The label set may legitimately be empty."""
    if query.mode is LevelMode.EXTRACT or query.clst_pos is None:
        raise NoCandidates("query was not built in a classification mode")
    _check_finite(z, query)
    sigmoid = _sigmoid()
    j = query.clst_pos
    decisions = []
    for g in range(len(query.groups)):
        markers = [m for m in query.type_markers if m.group == g]
        if not markers:
            raise NoCandidates(f"group {g} has no candidate labels")
        labels = tuple(
            m.label for m in markers
            if sigmoid(z[j, m.pos]) > delta and sigmoid(z[m.pos, j]) > delta
        )
        decisions.append(ClsDecision(group=g, labels=labels))
    return tuple(decisions)

