"""Exact integral homology of simplicial complexes and graded chain complexes.

Everything runs over arbitrary-precision Python integers.  One routine,
``_reduce``, takes every complex from its cells to its Smith form.  It runs
one coreduction, which pairs a cell with its only remaining facet when that
coefficient is +-1; the critical cells it leaves form a Morse complex, chain
equivalent to the input and usually a few dozen cells where the input has
thousands or hundreds of thousands.  It checks d(d(x)) = 0 on the critical
cells by exact sums, reduces each degree's boundary between them with a
dense Smith core, and checks the cells' Euler characteristic against the
Betti numbers.  A graded chain complex feeds it its cell table; a simplicial
complex feeds it its augmented chains from a face table, which stores each
face as its last vertex and the indices of its facets, and a face is decoded
only when read.  Both table builders are here: ``_face_table`` takes given
faces level by level as vertex tuples, and ``_chain_table`` grows an order
complex's chains from a poset's up-sets.

All homology here uses the reduced convention.  The empty complex has a single
reduced homology group Z in degree -1; a point has none.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, chain, combinations, compress, repeat
from operator import add, index, lt


class InvariantError(Exception):
    """A check that holds by construction failed; the message names it.

    Raised, not asserted, so that ``python -O`` keeps every check.
    """


class BoundarySquareError(InvariantError):
    """A graded boundary failed d(d(x)) = 0; message names the offender."""


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(matrix):
    """Invariant factors d1 | d2 | ... | dr of an integer matrix.

    ``matrix`` is a sequence of rows.  Returns a tuple of positive integers
    forming a divisibility chain, which is checked; the zero matrix yields ().
    """
    factors = _dense_snf([list(row) for row in matrix])
    for a, b in zip(factors, factors[1:]):
        if b % a:
            raise InvariantError(
                "invariant factors %r are not a divisibility chain" % (factors,)
            )
    return tuple(factors)


def _dense_snf(m):
    """Smith reduction of a dense integer matrix; returns positive factors."""
    if not m or not m[0]:
        return []
    nr, nc = len(m), len(m[0])
    factors = []
    t = 0
    while t < min(nr, nc):
        piv = None
        for i in range(t, nr):
            row = m[i]
            for j in range(t, nc):
                v = row[j]
                if v and (piv is None or abs(v) < piv[0]):
                    piv = (abs(v), i, j)
        if piv is None:
            break
        _, i0, j0 = piv
        if i0 != t:
            m[t], m[i0] = m[i0], m[t]
        if j0 != t:
            for row in m:
                row[t], row[j0] = row[j0], row[t]
        p = m[t][t]
        clean = True
        for i in range(t + 1, nr):
            if m[i][t]:
                q = m[i][t] // p
                if q:
                    mt, mi = m[t], m[i]
                    for j in range(t, nc):
                        mi[j] -= q * mt[j]
                if m[i][t]:
                    clean = False
        for j in range(t + 1, nc):
            if m[t][j]:
                q = m[t][j] // p
                if q:
                    for i in range(t, nr):
                        m[i][j] -= q * m[i][t]
                if m[t][j]:
                    clean = False
        if not clean:
            continue
        p = abs(m[t][t])
        offender = None
        for i in range(t + 1, nr):
            row = m[i]
            for j in range(t + 1, nc):
                if row[j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            mt, mo = m[t], m[offender]
            for j in range(t, nc):
                mt[j] += mo[j]
            continue
        factors.append(p)
        t += 1
    return factors


# ---------------------------------------------------------------------------
# Homology results


@dataclass(frozen=True)
class HomologyResult:
    """Reduced integral homology: per degree a Betti number and torsion factors."""

    groups: tuple  # sorted tuple of (degree, betti, torsion-tuple), all nontrivial

    @staticmethod
    def of(groups):
        """Normalize a {degree: (betti, torsion)} mapping, dropping trivial rows.

        Every number passes through ``operator.index``: a float is a TypeError.
        """
        norm = []
        for q in sorted(groups):
            betti, torsion = groups[q]
            betti = index(betti)
            torsion = tuple(x for x in map(index, torsion) if x > 1)
            if betti or torsion:
                norm.append((index(q), betti, torsion))
        return HomologyResult(tuple(norm))

    def betti(self, q):
        for degree, betti, _ in self.groups:
            if degree == q:
                return betti
        return 0

    def torsion(self, q):
        for degree, _, torsion in self.groups:
            if degree == q:
                return torsion
        return ()

    def to_json(self):
        return json.dumps(
            {
                "reduced": True,
                "groups": [
                    {"degree": q, "betti": b, "torsion": list(t)}
                    for q, b, t in self.groups
                ],
            }
        )

    def __str__(self):
        if not self.groups:
            return "0"
        parts = []
        for q, b, t in self.groups:
            summands = (["Z^%d" % b if b > 1 else "Z"] if b else []) + [
                "Z/%d" % m for m in t
            ]
            parts.append("H_%d = %s" % (q, " + ".join(summands)))
        return "; ".join(parts)

    to_text = __str__

    def to_csv(self):
        rows = ("%d,%d,%s" % (q, b, ";".join(map(str, t))) for q, b, t in self.groups)
        return "\n".join(["degree,betti,torsion", *rows])


def sphere_homology(d):
    """Reduced homology of S^d; d = -1 is the empty complex."""
    return HomologyResult.of({d: (1, ())})


def suspension_shift(result, k):
    """Push every homology group up by k degrees (k-fold suspension)."""
    return HomologyResult(tuple((q + k, b, t) for q, b, t in result.groups))


# ---------------------------------------------------------------------------
# Chain complexes


class ChainComplex:
    """Graded free Z-complex: per-degree generator labels and boundary columns.

    Its one stored form is ``_table``: the cells of all degrees numbered in
    degree order, each cell's facet indices and their coefficients, and the
    index where each degree starts.  Given columns, ``boundaries[q]``
    mapping a degree-q generator's index to {index in degree q-1: integer
    coefficient}, are validated and numbered into it, and ``boundaries`` is
    decoded from it only when first read.  The generator sequences are kept
    as given, not copied, and a label is read only to name an offender.
    d(d(x)) = 0 is summed exactly on construction, column by column as given.
    """

    def __init__(self, generators, boundaries):
        gens = {q: generators[q] for q in sorted(generators) if generators[q]}
        starts = list(accumulate(map(len, gens.values()), initial=0))
        first = dict(zip(gens, starts))
        facets, coefficients, given = [()] * starts[-1], [()] * starts[-1], []
        for q, cols in boundaries.items():
            if q not in gens:
                raise ValueError("boundary in degree %d without generators" % q)
            for c, col in cols.items():
                if not col:
                    continue
                if not 0 <= c < len(gens[q]):
                    raise ValueError("boundary column %d out of range" % c)
                try:
                    rows = list(map(index, col))
                    coefficients[first[q] + c] = tuple(map(index, col.values()))
                except TypeError:
                    msg = "non-integer boundary row or coefficient in degree %d, column %d"
                    raise ValueError(msg % (q, c)) from None
                if min(rows) < 0 or max(rows) >= len(gens.get(q - 1, ())):
                    raise ValueError("boundary row out of range in degree %d" % q)
                facets[first[q] + c] = [r + first[q - 1] for r in rows]
                given.append(first[q] + c)
        self.generators, self._table = gens, (facets, coefficients, starts[:-1])
        _check_squares_to_zero(facets, coefficients, None, self._label, given)

    @classmethod
    def _numbered(cls, generators, split, starts, order):
        """The complex of cells numbered in degree order, given as ``split``:
        each cell's +1 facets, then its -1 facets, in the table, ``generators``
        in ascending degree.  Only the caller can vouch for the cells' shape;
        d(d(x)) = 0 is still checked, on ``split`` and the cells in ``order``."""
        self = object.__new__(cls)
        plus, minus = split
        facets = list(map(add, plus, minus))
        coefficients = list(map(_signs, map(len, plus), map(len, minus)))
        self.generators, self._table = generators, (facets, coefficients, starts)
        _check_squares_to_zero(facets, coefficients, split, self._label, order)
        return self

    @cached_property
    def boundaries(self):
        """The columns by degree, decoded from the table when first read."""
        facets, coefficients, starts = self._table
        boundaries = {}
        for k, (q, start) in enumerate(zip(self.generators, starts)):
            for c in range(start, start + len(self.generators[q])):
                if facets[c]:  # its rows lie in the degree before, from starts[k - 1]
                    col = dict(zip([r - starts[k - 1] for r in facets[c]], coefficients[c]))
                    boundaries.setdefault(q, {})[c - start] = col
        return boundaries

    def _label(self, c):
        """The generator label of cell c of the table."""
        k = bisect_right(self._table[2], c) - 1
        return self.generators[self.degrees()[k]][c - self._table[2][k]]

    def degrees(self):
        return list(self.generators)


# the coefficients of p facets of sign +1, then m of -1: one immutable tuple per
# shape, shared by every cell of that shape in every table
_signs = lru_cache(maxsize=None)(lambda p, m: (1,) * p + (-1,) * m)


def _check_squares_to_zero(facets, coefficients, split, name, order):
    """Raise BoundarySquareError unless d(d(x)) = 0 on the cells of a table.

    ``facets[c]`` lists the indices of cell c's facets, ``coefficients[c]``
    their coefficients in the same order, and ``name(c)`` names cell c, read
    only to name an offender.  The cells are checked in ``order``; the first
    offender raises, its nonzero entries in the order their rows were reached.

    A column is summed exactly unless ``split``, given only by
    ``ChainComplex._numbered``, holds each cell's +1 facets and its -1 facets:
    it then passes when the rows it reaches positively and negatively,
    gathered by list extends, are equal once sorted.  An offender is always
    summed exactly.
    """
    plus, minus = split or ((), ())
    for c in order:
        if split:
            up, down = [], []
            for r in plus[c]:
                up += plus[r]
                down += minus[r]
            for r in minus[c]:
                up += minus[r]
                down += plus[r]
            up.sort()
            down.sort()
            if up == down:
                continue
        acc = {}
        for r, v in zip(facets[c], coefficients[c]):
            for r2, v2 in zip(facets[r], coefficients[r]):
                acc[r2] = acc.get(r2, 0) + v * v2
        surv = {name(r2): v for r2, v in acc.items() if v}
        if surv:
            raise BoundarySquareError("d(d(%r)) = %r is nonzero" % (name(c), surv))


def _coreduce(facets, coefficients):
    """The critical cells of a coreduction matching and their Morse boundaries.

    Cells are numbered in degree order: ``facets[c]`` lists the indices of
    cell c's facets, all below c, and ``coefficients[c]`` their boundary
    coefficients in the same order.  The queue starts with every cell that
    has exactly one facet, in index order.  While a queued live cell has
    exactly one live facet and its coefficient is +-1, the two are paired;
    otherwise the lowest live cell, all of whose facets are gone, is
    critical.  Removal order makes the matching acyclic (Mrozek & Batko,
    *Coreduction homology algorithm*, 2009).

    Boundaries come from the flow of each removed cell onto the critical
    cells, memoised in removal order (Harker, Mischaikow, Mrozek & Nanda,
    FoCM 2014).  A critical cell flows to itself and an upper cell to 0.  The
    lower cell t of a pair (t, s) flows to -[ds:t] times the sum of
    [ds:r] * flow(r) over the other facets r of s, all removed before t.  A
    critical cell's boundary is the sum of [dc:r] * flow(r) over its facets.
    Returns {critical cell: its boundary {critical cell: coefficient}}, in
    index order.
    """
    n = len(facets)
    cofaces = [[] for _ in range(n)]
    for c, fs in enumerate(facets):
        for f in fs:
            cofaces[f].append(c)
    live = bytearray(b"\x01") * n
    count = list(map(len, facets))  # live facets
    flow = {}  # nonzero flows only: cell -> {critical cell: coefficient}
    boundary = {}
    queue = deque([c for c, k in enumerate(count) if k == 1])
    popleft, append = queue.popleft, queue.append

    def facet_flow(c, scale):
        # a live facet has no flow yet, so the paired one adds nothing
        acc = {}
        cs = coefficients[c]
        for k, f in enumerate(facets[c]):
            if f in flow:
                v = scale * cs[k]
                for x, w in flow[f].items():
                    acc[x] = acc.get(x, 0) + v * w
        return {x: v for x, v in acc.items() if v}

    lowest = 0
    while True:
        if queue:
            s = popleft()
            if count[s] != 1 or not live[s]:
                continue
            fs = facets[s]
            k = 0
            while not live[fs[k]]:
                k += 1
            e = coefficients[s][k]
            if e != 1 and e != -1:
                continue
            t = fs[k]
            if flow:  # every flow is 0 until a cell is critical
                down = facet_flow(s, -e)
                if down:
                    flow[t] = down
            live[t] = live[s] = 0
            for up in cofaces[t]:
                count[up] = left = count[up] - 1
                if left == 1:
                    append(up)
        else:
            while lowest < n and not live[lowest]:
                lowest += 1
            if lowest == n:
                break
            boundary[lowest] = facet_flow(lowest, 1)
            flow[lowest] = {lowest: 1}
            s = lowest
            live[s] = 0
        for up in cofaces[s]:  # the upper cell of a pair, or the critical one
            count[up] = left = count[up] - 1
            if left == 1:
                append(up)
    return boundary


def _reduce(facets, coefficients, starts, degrees, label, euler_cells):
    """Reduced homology of cells numbered in degree order, by one coreduction.

    ``facets`` and ``coefficients`` are as ``_coreduce`` reads them, the cells
    of degree ``degrees[k]`` start at ``starts[k]``, and ``label(c)`` names
    cell c, read only to name an offender.  The critical cells, numbered in
    index order, make a cell table of their Morse boundaries; d(d(x)) = 0 is
    summed exactly on it, and each degree's boundary goes through the dense
    Smith reduction, whose factors are checked to be a divisibility chain.

    Betti_q = critical cells in degree q - rank d_q - rank d_{q+1};
    torsion_q = invariant factors of d_{q+1} exceeding 1.  ``euler_cells``,
    the Euler characteristic of all the cells, is checked against the Betti
    numbers'.
    """
    boundary = _coreduce(facets, coefficients)
    cells = list(boundary)
    position = dict(zip(cells, range(len(cells))))
    rows = [[position[x] for x in col] for col in boundary.values()]
    values = [tuple(col.values()) for col in boundary.values()]
    _check_squares_to_zero(rows, values, None, lambda i: label(cells[i]), range(len(rows)))
    first = [bisect_left(cells, s) for s in starts] + [len(cells)]
    factors = {}
    for k, q in enumerate(degrees):  # a column's rows are the degree before's
        low, lo, hi = first[k - 1], first[k], first[k + 1]
        if any(rows[lo:hi]):
            matrix = [[0] * (hi - lo) for _ in range(low, lo)]
            for j in range(lo, hi):
                for i, v in zip(rows[j], values[j]):
                    matrix[i - low][j - lo] = v
            factors[q] = smith_normal_form(matrix)
    groups = {}
    for k, q in enumerate(degrees):
        up = factors.get(q + 1, ())
        betti = first[k + 1] - first[k] - len(factors.get(q, ())) - len(up)
        groups[q] = (betti, tuple(d for d in up if d > 1))
    euler_betti = sum(-b if q % 2 else b for q, (b, _) in groups.items())
    if euler_cells != euler_betti:
        raise InvariantError(
            "Euler characteristic mismatch: %d from cells, %d from Betti numbers"
            % (euler_cells, euler_betti)
        )
    return HomologyResult.of(groups)


def chain_homology(complex_):
    """Exact homology of a ChainComplex, by ``_reduce`` on its cell table; the
    generators' Euler characteristic is checked against the Betti numbers."""
    gens = complex_.generators
    euler = sum(-len(g) if q % 2 else len(g) for q, g in gens.items())
    return _reduce(*complex_._table, list(gens), complex_._label, euler)


# ---------------------------------------------------------------------------
# Simplicial complexes


_NOT_CLOSED = "not downward closed: %r present, %r missing"


def _face_table(n, levels):
    """The face table of given faces on n vertices, fed level by level.

    Each level is a sequence of vertex tuples, each face's parent (itself
    without its last vertex j) in the level before; cell 0 is ``()`` and new
    cells are numbered in the order fed.  The table holds each cell's last
    vertex, its facets (``facets[c][k]`` is cell c without its vertex k, sign
    (-1)^k) and the first cell of each size, then the cell count.  A level's
    parents, its last facets, are all looked up by tuple first; then facet k
    < len(parent) is the child by j of the parent's facet k, under the
    integer key ``facet * n + j`` among the level before.  A failed lookup is
    a missing face and raises ValueError naming its highest missing vertex.
    """
    last, facets, starts = [-1], [()], [0, 1]
    cells, known = {(): 0}, {}  # cells of the level before, by tuple and by key
    for level in levels:
        try:
            parents = list(map(cells.__getitem__, [face[:-1] for face in level]))
        except KeyError:
            face = next(face for face in level if face[:-1] not in cells)
            raise ValueError(_NOT_CLOSED % (face, face[:-1])) from None
        below, cells, known = known, {}, {}
        get = below.__getitem__
        for face, p in zip(level, parents):
            j = face[-1]
            try:
                row = [get(f * n + j) for f in facets[p]]
            except KeyError:
                k = max(k for k, f in enumerate(facets[p]) if f * n + j not in below)
                raise ValueError(_NOT_CLOSED % (face, face[:k] + face[k + 1 :])) from None
            row.append(p)
            cells[face] = known[p * n + j] = len(last)
            last.append(j)
            facets.append(tuple(row))
        starts.append(len(last))
    return last, facets, starts


def _chain_table(up):
    """The face table of the chains of a poset with strict up-sets ``up``.

    Cell 0 is ``()``; the children of chain p, p + (j,) for j in
    ``up[last(p)]``, are numbered consecutively, level by level in the order
    of their parents, as ``_face_table`` lays them out.  Dropping
    a vertex of p other than its last from child i gives child i of that
    facet of p; dropping p's last gives p's sibling by j, at j's rank in the
    up-set of p's parent; the last facet is p.  So one zip makes a sibling
    group and only the sibling is looked up.  A missing rank is a missing
    face and raises ValueError; by induction, every face is checked.  Facet
    entries are items of one list of cell numbers, one object per number.
    """
    n = len(up)  # the last rank is cell 0's, read as rank[last[0]]
    rank = [dict(zip(u, range(len(u)))) for u in [*up, range(n)]]
    cells = list(range(n + 1))
    last, facets, starts = [-1, *range(n)], [()] + [(0,)] * n, [0, 1]
    children = {0: cells[1:]}  # of each cell of the level before that has any
    lo, hi = 1, n + 1
    while lo < hi:
        starts.append(hi)
        get, groups, c = children.__getitem__, [], hi
        for p in range(lo, hi):
            u = up[last[p]]
            if u:
                *fs, pp = facets[p]
                r = rank[last[pp]]
                siblings = map(children[pp].__getitem__, map(r.__getitem__, u))
                try:
                    facets.extend(zip(*map(get, fs), siblings, repeat(cells[p])))
                except KeyError:
                    j = next(j for j in u if j not in r)
                    face = _face((last, facets, starts), p) + (j,)
                    raise ValueError(_NOT_CLOSED % (face, face[:-2] + (j,))) from None
                last.extend(u)
                groups.append((p, c, c + len(u)))
                c += len(u)
        cells.extend(range(hi, c))
        children = {p: cells[a:b] for p, a, b in groups}
        lo, hi = hi, c
    return last, facets, starts


def _face(table, c):
    """Cell c of a face table as a vertex tuple, read back through its parents."""
    face = ()
    while c:
        face, c = (table[0][c],) + face, table[1][c][-1]
    return face


def _faces(table):
    """Every cell of a face table as a vertex tuple, ``()`` first."""
    last, facets, _ = table
    faces = [()]
    for c in range(1, len(last)):
        faces.append(faces[facets[c][-1]] + (last[c],))
    return faces


def _checked_levels(n, faces):
    """Faces given as tuples, checked and fed to ``_face_table`` level by level.

    Each level is checked (sorted duplicate-free tuples of vertices below n)
    and sorted only once the level before has been built, and then yielded.
    Sorted levels give the order of chain enumeration.
    """
    by_size = {}
    for face in faces:
        by_size.setdefault(len(face), []).append(face)
    for size in sorted(by_size):
        level = by_size[size]
        for face in level:
            if not isinstance(face, tuple) or not face or not all(map(lt, face, face[1:])):
                raise ValueError("face %r is not a sorted duplicate-free tuple" % (face,))
            if face[0] < 0 or face[-1] >= n:
                raise ValueError("face %r has out-of-range vertices" % (face,))
        level.sort()
        yield level


@dataclass(frozen=True)
class SimplicialComplex:
    """Finite abstract simplicial complex on an indexed vertex set.

    Faces are nonempty sorted tuples of vertex indices, closed under taking
    nonempty subsets.  The empty complex (no faces) is allowed.

    ``_table`` is the face table ``simplicial_homology`` reads: cells ``()``
    and then the faces level by level, each level in chain-enumeration order
    (by parent cell, then last vertex, so lexicographic for given faces),
    each cell's facets and the level starts.  Faces given from outside are
    checked level by level as ``_face_table`` builds it; ``order_complex``
    builds its complex with ``_of_chains``, whose table ``_chain_table``
    grows from the up-sets, and such a complex decodes ``faces`` only when
    they are first read.
    """

    vertices: tuple
    faces: frozenset
    _table: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.vertices)
        table = _face_table(n, _checked_levels(n, self.faces))
        object.__setattr__(self, "_table", table)

    def __getattr__(self, name):
        if name != "faces":  # a complex of chains decodes its faces when first read
            raise AttributeError(name)
        object.__setattr__(self, "faces", frozenset(_faces(self._table)[1:]))
        return self.faces

    @classmethod
    def _of_chains(cls, vertices, up):
        """The complex of the chains of a poset on ``vertices``, vertex i with
        strict up-set ``up[i]``, its table grown by ``_chain_table``.

        Its chains are its faces only when each is a sorted tuple, which only
        the caller can vouch for.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "_table", _chain_table(up))
        return self

    @staticmethod
    def generated(vertices, facets):
        """Downward closure of the given faces (vertex-index collections)."""
        faces = set()
        for facet in facets:
            top = tuple(sorted(set(facet)))
            for k in range(1, len(top) + 1):
                faces.update(combinations(top, k))
        return SimplicialComplex(tuple(vertices), frozenset(faces))

    @property
    def dimension(self):
        return len(self._table[2]) - 3  # a start per size 0..d+1, then the count

    def facets(self):
        """Faces maximal under inclusion: those that no cell lists as a facet."""
        listed = set(chain.from_iterable(self._table[1]))
        cells = set(range(1, len(self._table[0]))) - listed
        return sorted(_face(self._table, c) for c in cells)

    def euler_characteristic(self):
        s = self._table[2]  # faces of size k: s[k + 1] - s[k]
        return sum((-1) ** k * (s[k] - s[k + 1]) for k in range(1, len(s) - 1))


def simplicial_homology(complex_):
    """Reduced integral homology of the augmented simplicial chain complex.

    It is computed by ``_reduce`` on the complex's face table, however built
    (see ``SimplicialComplex``): cells ``()`` (the augmentation cell, degree
    -1) and then the faces level by level, with their facets from the table
    and, as coefficients, one shared alternating-sign tuple per face size.
    ``_coreduce`` first pairs the augmentation cell with the first vertex,
    and the matching depends on cell order: in the table's chain-enumeration
    order, 45 of the 509,428 faces of the order complex of C_λ for
    (1,2,3,4,5,6) stay critical, where an arbitrary order within each
    dimension left 83.  A face is decoded only to name an offender.  The
    Euler characteristic checked against the Betti numbers is the faces',
    less 1 for the augmentation cell.
    """
    table = complex_._table
    starts = table[2]  # a start per size 0..d+1, then the count
    coefficients = []
    for size in range(len(starts) - 1):
        signs = tuple(-1 if k & 1 else 1 for k in range(size))
        coefficients += [signs] * (starts[size + 1] - starts[size])
    return _reduce(
        table[1],
        coefficients,
        starts[:-1],
        range(-1, len(starts) - 2),
        lambda c: _face(table, c) or "*",
        complex_.euler_characteristic() - 1,
    )
