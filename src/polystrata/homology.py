"""Exact integral homology of simplicial complexes and graded chain complexes.

Everything runs over arbitrary-precision Python integers.  One routine,
``_reduce``, takes every complex from its cells to its Smith form.  It runs
one coreduction, which pairs a cell with its only remaining facet when that
coefficient is +-1; the critical cells it leaves form a Morse complex, chain
equivalent to the input and usually a few dozen cells where the input has
thousands or hundreds of thousands.  It checks d(d(x)) = 0 on the critical
cells, reduces each degree's boundary between them with a dense Smith core,
and checks the cells' Euler characteristic against the Betti numbers.  A
graded chain complex feeds it its columns; a simplicial complex feeds it its
augmented chains from a face table, which one routine builds from faces fed
level by level as (parent face, new last vertex) pairs and which stores each
face as that last vertex and the indices of its facets: facets are found
under integer keys, no face tuple is hashed, and a face is decoded only when
read.  An order complex feeds its chains to the table as they are enumerated.

All homology here uses the reduced convention.  The empty complex has a single
reduced homology group Z in degree -1; a point has none.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, combinations
from operator import lt


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
        """Normalize a {degree: (betti, torsion)} mapping, dropping trivial rows."""
        norm = []
        for q in sorted(groups):
            betti, torsion = groups[q]
            torsion = tuple(int(x) for x in torsion if x > 1)
            if betti or torsion:
                norm.append((q, int(betti), torsion))
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

    ``boundaries[q]`` maps the index of a degree-q generator to a dict
    {index in degree q-1: coefficient}.  The complex keeps the generator
    sequences and the column dicts as given, without copying them, so the
    caller must not change them afterwards; it reads a label only to name
    an offender.  d(d(x)) = 0 is checked on construction.
    """

    def __init__(self, generators, boundaries):
        self.generators = {q: gens for q, gens in generators.items() if gens}
        self.boundaries = {
            q: {c: col for c, col in cols.items() if col}
            for q, cols in boundaries.items()
        }
        for q, cols in self.boundaries.items():
            if q not in self.generators:
                raise ValueError("boundary in degree %d without generators" % q)
            ncols = len(self.generators[q])
            nlow = len(self.generators.get(q - 1, ()))
            for c, col in cols.items():
                if not 0 <= c < ncols:
                    raise ValueError("boundary column %d out of range" % c)
                if min(col) < 0 or max(col) >= nlow:
                    raise ValueError("boundary row out of range in degree %d" % q)
        _check_squares_to_zero(
            self.generators, self.boundaries, lambda q, i: self.generators[q][i]
        )

    def degrees(self):
        return sorted(self.generators)


def _check_squares_to_zero(cells, boundaries, name):
    """Raise BoundarySquareError unless d(d(x)) = 0 on every column.

    ``boundaries[q]`` maps the index of a degree-q cell to its column
    {index in degree q-1: coefficient}, ``len(cells[q])`` counts the degree-q
    cells, and ``name(q, i)`` names cell i of degree q, read only to name an
    offender.  Each column of d_q is summed into one reused list over the
    degree-(q-2) cells, then read back and reset over the same terms: nonzero
    entries are reported in the order their rows were reached.
    """
    for q, cols in boundaries.items():
        lower = boundaries.get(q - 1)
        if not lower:
            continue
        low = [()] * len(cells[q - 1])
        for r, col in lower.items():
            low[r] = tuple(col.items())
        acc = [0] * len(cells[q - 2])
        for c, col in cols.items():
            for r, v in col.items():
                for r2, v2 in low[r]:
                    acc[r2] += v * v2
            surv = {}
            for r in col:
                for r2, _ in low[r]:
                    if acc[r2]:
                        surv[name(q - 2, r2)] = acc[r2]
                        acc[r2] = 0
            if surv:
                raise BoundarySquareError(
                    "d(d(%r)) = %r is nonzero" % (name(q, c), surv)
                )


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
            if flow:  # every flow is 0 until a cell is critical
                down = facet_flow(s, -e)
                if down:
                    flow[fs[k]] = down
            removed = fs[k], s
        else:
            while lowest < n and not live[lowest]:
                lowest += 1
            if lowest == n:
                break
            boundary[lowest] = facet_flow(lowest, 1)
            flow[lowest] = {lowest: 1}
            removed = (lowest,)
        for c in removed:
            live[c] = 0
            for up in cofaces[c]:
                count[up] -= 1
                if count[up] == 1:
                    append(up)
    return boundary


def _reduce(facets, coefficients, starts, degrees, label, euler_cells):
    """Reduced homology of cells numbered in degree order, by one coreduction.

    ``facets`` and ``coefficients`` are as ``_coreduce`` reads them, the cells
    of degree ``degrees[k]`` start at ``starts[k]``, and ``label(q, c)`` names
    cell c of degree q, read only to name an offender.  The critical cells are
    grouped by degree, d(d(x)) = 0 is checked on their Morse boundaries, and
    each degree's boundary goes through the dense Smith reduction, whose
    factors are checked to be a divisibility chain.

    Betti_q = critical cells in degree q - rank d_q - rank d_{q+1};
    torsion_q = invariant factors of d_{q+1} exceeding 1.  ``euler_cells``,
    the Euler characteristic of all the cells, is checked against the Betti
    numbers'.
    """
    boundary = _coreduce(facets, coefficients)
    critical = {q: [] for q in degrees}
    columns, position = {}, {}
    for c, col in boundary.items():  # a column's cells come before its own
        q = degrees[bisect_right(starts, c) - 1]
        cells = critical[q]
        position[c] = len(cells)
        if col:
            columns.setdefault(q, {})[len(cells)] = {
                position[x]: v for x, v in col.items()
            }
        cells.append(c)
    _check_squares_to_zero(critical, columns, lambda q, i: label(q, critical[q][i]))
    factors = {}
    for q, cols in columns.items():
        matrix = [[0] * len(critical[q]) for _ in critical[q - 1]]
        for j, col in cols.items():
            for i, v in col.items():
                matrix[i][j] = v
        factors[q] = smith_normal_form(matrix)
    groups = {}
    for q, cells in critical.items():
        up = factors.get(q + 1, ())
        betti = len(cells) - len(factors.get(q, ())) - len(up)
        groups[q] = (betti, tuple(d for d in up if d > 1))
    euler_betti = sum(-b if q % 2 else b for q, (b, _) in groups.items())
    if euler_cells != euler_betti:
        raise InvariantError(
            "Euler characteristic mismatch: %d from cells, %d from Betti numbers"
            % (euler_cells, euler_betti)
        )
    return HomologyResult.of(groups)


def chain_homology(complex_):
    """Exact homology of a ChainComplex, by ``_reduce``.

    The degrees' generators are numbered one after another, each with its
    column as facets and coefficients, and their Euler characteristic is the
    one checked against the Betti numbers.
    """
    degrees = complex_.degrees()
    gens = complex_.generators
    facets, coefficients, starts = [], [], []
    for q in degrees:
        low = starts[-1] if q - 1 in gens else 0
        size = len(gens[q])
        fs, cs = [()] * size, [()] * size
        for c, col in complex_.boundaries.get(q, {}).items():
            fs[c] = [r + low for r in col]
            cs[c] = tuple(col.values())
        starts.append(len(facets))
        facets += fs
        coefficients += cs
    first = dict(zip(degrees, starts))
    euler = sum(-len(g) if q % 2 else len(g) for q, g in gens.items())
    label = lambda q, c: gens[q][c - first[q]]
    return _reduce(facets, coefficients, starts, degrees, label, euler)


# ---------------------------------------------------------------------------
# Simplicial complexes


def _face_table(n, levels):
    """The face table of faces on n vertices, fed level by level.

    Each level is a sequence of pairs (parent cell, new last vertex j); cell
    0 is ``()`` and new cells are numbered in the order fed.  The table holds
    each cell's last vertex, its facets (``facets[c][k]`` is cell c without
    its vertex k, sign (-1)^k) and the first cell of each size, then the cell
    count; no face tuple is built.  The last facet is the parent, and facet
    k < len(parent) the child by j of the parent's facet k, looked up under
    the integer key ``facet * n + j`` among the level before.  A failed
    lookup is a missing face and raises ValueError.
    """
    last, facets, starts = [-1], [()], [0, 1]
    known = {}  # a level's cells by parent * n + last vertex
    for level in levels:
        below, known = known, {}
        get = below.__getitem__
        for p, j in level:
            try:
                row = [get(f * n + j) for f in facets[p]]
            except KeyError:
                face = _face((last, facets, starts), p) + (j,)
                k = max(k for k, f in enumerate(facets[p]) if f * n + j not in below)
                raise ValueError(
                    "not downward closed: %r present, %r missing"
                    % (face, face[:k] + face[k + 1 :])
                ) from None
            row.append(p)
            known[p * n + j] = len(last)
            last.append(j)
            facets.append(tuple(row))
        starts.append(len(last))
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

    Each level is checked, sorted and paired with its parents (the faces
    without their last vertex, which must be present) only once the level
    before has been built.  Sorted levels give the order of chain
    enumeration.
    """
    by_size = {}
    for face in faces:
        by_size.setdefault(len(face), []).append(face)
    parent = {(): 0}
    start = 1
    for size in sorted(by_size):
        level = by_size[size]
        for face in level:
            if not isinstance(face, tuple) or not face or not all(map(lt, face, face[1:])):
                raise ValueError("face %r is not a sorted duplicate-free tuple" % (face,))
            if face[0] < 0 or face[-1] >= n:
                raise ValueError("face %r has out-of-range vertices" % (face,))
        level.sort()
        pairs = []
        for face in level:
            p = parent.get(face[:-1])
            if p is None:
                raise ValueError(
                    "not downward closed: %r present, %r missing" % (face, face[:-1])
                )
            pairs.append((p, face[-1]))
        yield pairs
        parent = dict(zip(level, range(start, start + len(level))))
        start += len(level)


@dataclass(frozen=True)
class SimplicialComplex:
    """Finite abstract simplicial complex on an indexed vertex set.

    Faces are nonempty sorted tuples of vertex indices, closed under taking
    nonempty subsets.  The empty complex (no faces) is allowed.

    ``_table`` is the face table ``simplicial_homology`` reads, built by
    ``_face_table``: cells ``()`` and then the faces level by level, each
    level in chain-enumeration order (by parent cell, then last vertex, so
    lexicographic for given faces), each cell's facets and the level starts.
    Faces given from outside are checked one by one as the table is built;
    ``order_complex`` grows its chains straight into the table through
    ``_grown``, which decodes ``faces`` only when they are first read.
    """

    vertices: tuple
    faces: frozenset
    _table: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.vertices)
        table = _face_table(n, _checked_levels(n, self.faces))
        object.__setattr__(self, "_table", table)

    def __getattr__(self, name):
        if name != "faces":  # a grown complex decodes its faces when first read
            raise AttributeError(name)
        object.__setattr__(self, "faces", frozenset(_faces(self._table)[1:]))
        return self.faces

    @classmethod
    def _grown(cls, vertices, levels):
        """The complex whose faces are fed to ``_face_table`` as ``levels``.

        The faces must be sorted tuples of vertex indices, which only the
        caller can vouch for; downward closure is still checked.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "_table", _face_table(len(vertices), levels))
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

    It is computed by ``_reduce`` on the complex's face table: cells ``()``
    (the augmentation cell, degree -1) and then the faces level by level,
    with their facets from the table and, as coefficients, one shared
    alternating-sign tuple per face size.  ``_coreduce`` first pairs the
    augmentation cell with the first vertex, and the matching depends on cell
    order: in the table's chain-enumeration order, 45 of the 509,428 faces of
    the order complex of C_λ for (1,2,3,4,5,6) stay critical, where an
    arbitrary order within each dimension left 83.  A face is decoded only to
    name an offender.  The Euler characteristic checked against the Betti
    numbers is the faces', less 1 for the augmentation cell.
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
        lambda q, c: _face(table, c) or "*",
        complex_.euler_characteristic() - 1,
    )
