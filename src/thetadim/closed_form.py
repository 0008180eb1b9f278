"""Closed-form metric bases for ``C_{p,q,r}`` graphs via case dispatch.

Every valid (p, q, r) falls into exactly one case family, keyed by how the
middle count q compares with the outer counts p and r (after at most one
outer swap, since ``C_{p,q,r}`` and ``C_{r,q,p}`` are isomorphic):

    ZeroPath  one outer path is empty (r = 0, or p = 0 after a swap)
    T1        middle strictly dominant: q > p > r
    T2        middle ties an outer: p = q (or r = q before the swap)
    T3        an outer strictly dominant: p > q and p > r
    T4        equal outers: p = r

Each family splits into parts on q - r, giving 15 tags total.  One branch
of ``_case`` states a part as the paper does: a landmark-set formula W, a
partition of the vertices into index ranges, and per-range distance-vector
formulas.  The dimension is the size of W: 3 for tags T2-P2 and T4-P1, 2
for every other part.

The tables are transcribed literally and treated as claims: BFS distances
are ground truth, and the verification sweep records any divergence as a
table discrepancy instead of trusting the formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .theta import _require_valid, _swap

CASE_TAGS: tuple[str, ...] = (
    "ZeroPath-P1",
    "ZeroPath-P2",
    "T1-P1",
    "T1-P2",
    "T1-P3",
    "T2-P1",
    "T2-P2",
    "T2-P3",
    "T3-P1",
    "T3-P2",
    "T3-P3",
    "T4-P1",
    "T4-P2",
    "T4-P3a",
    "T4-P3b",
)


@dataclass(frozen=True)
class TheoremCase:
    """Dispatch outcome: the governing tag, and whether the outer paths were
    swapped (formulas then run in ``C_{r,q,p}`` labels and pull back)."""

    tag: str
    swapped: bool


@dataclass(frozen=True)
class ClosedFormResult:
    """Formula landmarks of a triple, with its case.

    ``landmarks`` are in the caller's labeling and in coordinate order, the
    order the case tables use, so distance vectors computed against them are
    comparable with :func:`formula_representation`.
    """

    case: TheoremCase
    landmarks: tuple[int, ...]

    @property
    def basis(self) -> tuple[int, ...]:
        return tuple(sorted(self.landmarks))

    @property
    def dimension(self) -> int:
        return len(self.landmarks)


def _fl(a: int) -> int:
    """Mathematical floor of a/2 (negative-safe)."""
    return a // 2


def _ce(a: int) -> int:
    """Mathematical ceiling of a/2 (negative-safe)."""
    return -((-a) // 2)


def _dispatch(p: int, q: int, r: int) -> tuple[str, tuple[int, int, int], bool]:
    """Tag, parameters in dispatch labeling, and whether a swap happened."""
    _require_valid(p, q, r)
    if r == 0 or p == 0:
        swapped = p == 0
        pp, rr = (r, p) if swapped else (p, r)
        return ("ZeroPath-P1" if pp == 1 else "ZeroPath-P2"), (pp, q, rr), swapped
    if p == r:
        d = q - r
        if d in (2, 4):
            tag = "T4-P1"
        elif d > 2:
            tag = "T4-P2"
        elif d == 1:
            tag = "T4-P3a"
        else:
            tag = "T4-P3b"
        return tag, (p, q, r), False
    if p == q or r == q:
        swapped = r == q
        pp, rr = (r, p) if swapped else (p, r)
        d = q - rr
        tag = "T2-P1" if d < 2 else ("T2-P2" if d == 2 else "T2-P3")
        return tag, (pp, q, rr), swapped
    swapped = r > p
    pp, rr = (r, p) if swapped else (p, r)
    if q > pp:
        if q - rr == 2:
            tag = "T1-P1"
        elif pp - rr == 1:
            tag = "T1-P2"
        else:
            tag = "T1-P3"
        return tag, (pp, q, rr), swapped
    d = q - rr
    tag = "T3-P1" if d < 2 else ("T3-P2" if d == 2 else "T3-P3")
    return tag, (pp, q, rr), swapped


def dispatch_case(p: int, q: int, r: int) -> TheoremCase:
    """Map a valid triple to the single case tag governing it."""
    tag, _, swapped = _dispatch(p, q, r)
    return TheoremCase(tag=tag, swapped=swapped)


def closed_form_basis(p: int, q: int, r: int) -> ClosedFormResult:
    """Closed-form metric basis for ``C_{p,q,r}`` in the caller's labeling."""
    return _closed_form(p, q, r)[0]


def dimension_by_path_lengths(p: int, q: int, r: int) -> int:
    """Redundant dimension predicate on hub-to-hub path lengths.

    Dimension 3 exactly when the three path lengths are all equal, or two
    are equal and the third exceeds them by exactly 2.  Kept independent of
    the case dispatch so a transcription slip in either one shows up as a
    disagreement between the two.
    """
    _require_valid(p, q, r)
    a, b, c = sorted((p + 1, q - 1, r + 1))
    return 3 if (a == b == c) or (a == b and c == a + 2) else 2


_Cell = tuple[int, int, Callable[[int], tuple[int, ...]]]


def _case(tag: str, p: int, q: int, r: int) -> tuple[tuple[int, ...], list[_Cell]]:
    """Landmarks W, in coordinate order, and partition cells ``(lo, hi,
    formula)`` of a case, in dispatch labeling.

    Ranges are inclusive and taken literally; a range with lo > hi is empty.
    The formulas substitute the vertex index for A.
    """
    if tag == "ZeroPath-P1":
        return (1, 2), [
            (p, p, lambda A: (1 - A, 2 - A)),
            (p + 1, p + 1, lambda A: (A - 1, 2 - A)),
            (p + 2, p + _ce(q), lambda A: (A - 1, A - 2)),
            (p + _ce(q) + 1, p + _ce(q) + 1, lambda A: (p + q + 1 - A, A - 2)),
            (p + _ce(q) + 2, p + q, lambda A: (p + q + 1 - A, p + q + 1 - A)),
        ]
    if tag == "ZeroPath-P2":
        h = _fl(p)
        return (1, h + 1), [
            (1, h + 1, lambda A: (A - 1, h + 1 - A)),
            (h + 2, h + 2, lambda A: (A - 1, A - h - 1)),
            (h + 3, p, lambda A: (p + 3 - A, A - h - 1)),
            (p + 1, p + _fl(q), lambda A: (A - p, A + h - p)),
            (p + _ce(q), p + _ce(q), lambda A: (A - p, 2 * p + q - A - h)),
            (p + _ce(q) + 1, p + q, lambda A: (p + q + 2 - A, 2 * p + q - A - h)),
        ]
    if tag == "T1-P1":
        return (1, p + 2), [
            (1, p - 1, lambda A: (A - 1, A + 1)),
            (p, p, lambda A: (A - 1, p + q - (A + 1))),
            (p + 1, p + 2, lambda A: (A - p, p + 2 - A)),
            (p + 3, p + q - 1, lambda A: (A - p, A - (p + 2))),
            (p + q, p + q, lambda A: (2 * p + q - A, A - (p + 2))),
            (p + q + 1, p + q + r, lambda A: (A + 1 - (p + q), A + 1 - (p + q))),
        ]
    if tag == "T1-P2":
        h = _fl(q - r)
        return (1, _fl(p + r) + 1), [
            (1, p, lambda A: (A - 1, p - A)),
            (p + 1, p + h, lambda A: (A - p, A - 1)),
            (p + 1 + h, p + q - h, lambda A: (A - p, p + q + 1 - A)),
            (p + q + 1 - h, p + q, lambda A: (2 * p + q - A, p + q + 1 - A)),
            (p + q + 1, p + q + r, lambda A: (A + 1 - (p + q), p + q + r + 2 - A)),
        ]
    if tag in ("T1-P3", "T3-P3"):
        m = _fl(p + r)
        h = _fl(q - r)
        k = _fl(p - r)
        return (1, m + 1), [
            (1, m + 1, lambda A: (A - 1, m + 1 - A)),
            (m + 2, p + 1 - k, lambda A: (A - 1, A - m - 1)),
            (p + 2 - k, p, lambda A: (p + r + 3 - A, A - m - 1)),
            (p + 1, p + h, lambda A: (A - p, A + m - p)),
            (p + 1 + h, p + q - h, lambda A: (A - p, 2 * p + q - m - A)),
            (p + q + 1 - h, p + q, lambda A: (p + q + r + 2 - A, 2 * p + q - m - A)),
            (p + q + 1, p + q + r, lambda A: (A + 1 - (p + q), 2 * p + q + r + 1 - m - A)),
        ]
    if tag == "T2-P1":
        c = _ce(r - q)
        return (1, p), [
            (1, p, lambda A: (A - 1, p - A)),
            (p + 1, p + q, lambda A: (A - p, p + q + 1 - A)),
            (p + q + 1, p + q + c, lambda A: (A + 1 - (p + q), A - q)),
            (p + q + 1 + c, p + q + r - c, lambda A: (A + 1 - (p + q), p + q + r + 2 - A)),
            (p + q + r + 1 - c, p + q + r, lambda A: (2 * p + q + r + 1 - A, p + q + r + 2 - A)),
        ]
    if tag == "T2-P2":
        return (1, 2, p + 2), [
            (1, 1, lambda A: (A - 1, 2 - A, A + 1)),
            (2, p - 1, lambda A: (A - 1, A - 2, A + 1)),
            (p, p, lambda A: (A - 1, A - 2, A - 1)),
            (p + 1, p + 1, lambda A: (A - p, A + 1 - p, p + 2 - A)),
            (p + 2, p + q - 1, lambda A: (A - p, A + 1 - p, A - (p + 2))),
            (p + q, p + q, lambda A: (A - p, A - (1 + p), A - (p + 2))),
            (p + q + 1, p + q + r, lambda A: (A + 1 - (p + q), A + 2 - (p + q), A + 1 - (p + q))),
        ]
    if tag == "T2-P3":
        m = _fl(p + r)
        h = _fl(q - r)
        k = _fl(p - r)
        return (1, m + 1), [
            (1, m + 1, lambda A: (A - 1, 1 + m - A)),
            (m + 2, p + 1 - k, lambda A: (A - 1, A - (1 + m))),
            (p + 2 - k, p, lambda A: (p + r + 3 - A, A - (1 + m))),
            (p + 1, p + k, lambda A: (A - p, A + m - p)),
            (p + 1 + h, p + q - h, lambda A: (A - p, 3 * p - (m + A))),
            (p + q + 1 - h, p + q, lambda A: (p + q + r + 2 - A, 3 * p - (m + A))),
            (p + q + 1, p + q + r, lambda A: (A + 1 - (p + q), 2 * p + q + r + 1 - (m + A))),
        ]
    if tag == "T3-P1":
        m = _fl(p + q)
        return (1, m), [
            (1, m, lambda A: (A - 1, m - A)),
            (m + 1, p - _ce(p - q), lambda A: (A - 1, A - m)),
            (p + 1 - _ce(p - q), p, lambda A: (p + q + 1 - A, A - m)),
            (p + 1, p + 1, lambda A: (A - p, m)),
            (p + 2, p + q, lambda A: (A - p, 2 * p + q - m - A)),
            (p + q + 1, p + q + 1 + _fl(r - q), lambda A: (A + 1 - (p + q), A + m - (p + q))),
            (p + q + 2 + _fl(r - q), p + q + r - _ce(r - q),
             lambda A: (A + 1 - (p + q), 2 * p + q + r + 2 - (A + m))),
            (p + q + r + 1 - _ce(r - q), p + q + r,
             lambda A: (p + 2 * q + r + 1 - A, 2 * p + q + r + 2 - (A + m))),
        ]
    if tag == "T3-P2":
        m = _fl(p + q)
        k = _fl(p - q)
        return (1, p + 2), [
            (1, m - 1, lambda A: (A - 1, A + 1)),
            (m, p - k, lambda A: (A - 1, p + q - (A + 1))),
            (p + 1 - k, p, lambda A: (p + q + 1 - A, p + q - (A + 1))),
            (p + 1, p + 1, lambda A: (A - p, p + 2 - A)),
            (p + 2, p + q, lambda A: (A - p, A - (p + 2))),
            (p + q + 1, p + q + r, lambda A: (A + 1 - (p + q), A + 1 - (p + q))),
        ]
    if tag == "T4-P1":
        h = _fl(q - p)
        return (1, 2, h + p + 1), [
            (1, 1, lambda A: (A - 1, 2 - A, A + h)),
            (2, p, lambda A: (A - 1, A - 2, A + h)),
            (p + 1, p + 1 + h, lambda A: (A - p, A + 1 - p, p + 1 + h - A)),
            (p + 2 + h, p + q - 1 - h, lambda A: (A - p, A + 1 - p, A - (p + 1 + h))),
            (p + q - h, p + q, lambda A: (2 * p + q - A, 2 * p + q - 1 - A, A - (p + 1 + h))),
            (p + q + 1, p + q + r - 1,
             lambda A: (A + 1 - (p + q), A + 2 - (p + q), A + h - (p + q))),
            (p + q + r, p + q + r,
             lambda A: (A + 1 - (p + q), A - (p + q), A + h - (p + q))),
        ]
    if tag == "T4-P2":
        c = _ce(q - r)
        b = _ce(q - p - 2)
        return (1, p + 2), [
            (1, p, lambda A: (A - 1, A + 1)),
            (p + 1, p + 1, lambda A: (A - p, p + 2 - A)),
            (p + 2, p + q - c, lambda A: (A - p, A - (p + 2))),
            (p + q + 1 - c, 2 * p + 2 + b, lambda A: (2 * p + q - A, A - (p + 2))),
            (2 * p + 3 + b, p + q, lambda A: (2 * p + q - A, 2 * p + q + 2 - A)),
            (p + q + 1, p + q + r, lambda A: (A + 1 - (p + q), A + 1 - (p + q))),
        ]
    if tag == "T4-P3a":
        # C_{1,2,1} is the one triple where v_floor((p+q)/2) collapses onto
        # v_1; the hub v_{p+1} is the size-2 completion that stays resolving
        # there, while the cells keep the generic landmark and so diverge.
        return (1, _fl(p + q) if p > 1 else p + 1), [
            (1, p, lambda A: (A - 1, p - A)),
            (p + 1, p + 1, lambda A: (A - p, p)),
            (p + 2, p + q - 1, lambda A: (A - p, p + q + 1 - A)),
            (p + q, p + q, lambda A: (p, p + q + 1 - A)),
            (p + q + 1, p + q + r, lambda A: (A + 1 - (p + q), p + q + r + 2 - A)),
        ]
    if tag == "T4-P3b":
        m = _fl(p + q)
        k = _fl(p - q)
        return (1, m), [
            (1, m, lambda A: (A - 1, m - A)),
            (m + 1, p - k, lambda A: (A - 1, A - m)),
            (p + 1 - k, p, lambda A: (p + q + 1 - A, A - m)),
            (p + 1, p + 1, lambda A: (A - p, m)),
            (p + 2, p + q, lambda A: (A - p, p + q + r + 1 - m - A)),
            (p + q + 1, p + q + 1 + _ce(r - q), lambda A: (A + 1 - (p + q), A + m - (p + q))),
            (p + q + 2 + _ce(r - q), p + q + r - _ce(r - q),
             lambda A: (A + 1 - (p + q), 2 * p + q + r + 2 - (A + m))),
            (p + q + r + 1 - _ce(r - q), p + q + r,
             lambda A: (p + 2 * q + r + 1 - A, 2 * p + q + r + 2 - (A + m))),
        ]
    raise ValueError(f"unknown case tag {tag!r}")


_Claims = tuple[tuple[int, ...] | str, ...]


def _closed_form(p: int, q: int, r: int) -> tuple[ClosedFormResult, Callable[[], _Claims]]:
    """The result of :func:`closed_form_basis`, and a call that evaluates its
    case table into :func:`formula_representation`, from one dispatch.

    No cell formula is evaluated until the second value is called.
    """
    tag, (pp, qq, rr), swapped = _dispatch(p, q, r)
    landmarks, cells = _case(tag, pp, qq, rr)
    if swapped:
        # the swap of C_{r,q,p} is the inverse of the swap of C_{p,q,r}
        landmarks = tuple(_swap(r, q, p, w) for w in landmarks)

    def claims() -> _Claims:
        n = p + q + r
        entries: list[tuple[int, ...] | str] = ["uncovered"] * n
        for lo, hi, fn in cells:
            for a in range(max(lo, 1), min(hi, n) + 1):
                claim, seen = fn(a), entries[a - 1]
                entries[a - 1] = claim if seen in ("uncovered", claim) else "ambiguous"
        if swapped:
            entries = [entries[_swap(p, q, r, v) - 1] for v in range(1, n + 1)]
        return tuple(entries)

    return ClosedFormResult(case=TheoremCase(tag=tag, swapped=swapped), landmarks=landmarks), claims


def formula_representation(p: int, q: int, r: int) -> tuple[tuple[int, ...] | str, ...]:
    """Table-claimed distance vectors of every vertex, indexed by v - 1.

    Each entry is the vector to the landmarks of :func:`closed_form_basis`,
    in coordinate order, or ``"uncovered"`` when no cell contains the vertex,
    or ``"ambiguous"`` when overlapping cells claim different vectors.
    Compare the entries with BFS distances; BFS is authoritative.
    """
    return _closed_form(p, q, r)[1]()
