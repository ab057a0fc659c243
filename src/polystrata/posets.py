"""Generic finite posets: order complexes, face posets, quotients, products, closures.

A Poset stores an indexed tuple of hashable element keys and an irredundant
cover relation on indices; the full order is derived on demand and cached.
All values are immutable after construction.
"""

from __future__ import annotations

import json
from itertools import product

from .homology import SimplicialComplex


class PosetError(Exception):
    pass


class CycleError(PosetError):
    """The transitive closure of the proposed covers contains a cycle."""


class ClosureLawError(PosetError):
    """A map failed one of the closure-operator laws; message holds a witness."""

    def __init__(self, law, witness):
        self.law = law
        self.witness = witness
        super().__init__("closure law violated (%s): witness %r" % (law, witness))


class Poset:
    __slots__ = ("elements", "covers", "_index", "_up", "_above", "_heights")

    def __init__(self, elements, covers):
        self.elements = tuple(elements)
        n = len(self.elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != n:
            raise PosetError("duplicate element keys")
        covers = frozenset((int(a), int(b)) for a, b in covers)
        for a, b in covers:
            if not (0 <= a < n and 0 <= b < n):
                raise PosetError("cover index out of range")
            if a == b:
                raise PosetError("reflexive cover (%d, %d)" % (a, b))
        self.covers = covers
        self._up = [[] for _ in range(n)]
        for a, b in sorted(covers):
            self._up[a].append(b)
        order = self._topological_order()
        above = [set() for _ in range(n)]
        for i in reversed(order):
            for j in self._up[i]:
                above[i].add(j)
                above[i] |= above[j]
        self._above = [frozenset(s) for s in above]
        # irredundancy: no cover implied by a 2-step path
        for a, b in covers:
            for mid in self._up[a]:
                if b in self._above[mid]:
                    raise PosetError(
                        "redundant cover (%r, %r)"
                        % (self.elements[a], self.elements[b])
                    )
        self._heights = None

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_le(elements, le):
        """Build from a reflexive order test ``le(x, y)`` by transitive reduction."""
        elements = tuple(elements)
        n = len(elements)
        below = [
            {j for j in range(n) if j != i and le(elements[j], elements[i])}
            for i in range(n)
        ]
        for i in range(n):
            if any(i in below[j] and j in below[i] for j in below[i]):
                raise CycleError("relation is not antisymmetric")
        covers = set()
        for i in range(n):
            for j in below[i]:
                if not any(j in below[k] for k in below[i]):
                    covers.add((j, i))
        return Poset(elements, covers)

    @staticmethod
    def chain(keys):
        keys = tuple(keys)
        return Poset(keys, {(i, i + 1) for i in range(len(keys) - 1)})

    @staticmethod
    def antichain(keys):
        return Poset(tuple(keys), set())

    # -- basic queries -------------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def index(self, key):
        return self._index[key]

    def _topological_order(self):
        n = len(self.elements)
        indeg = [0] * n
        for _, b in self.covers:
            indeg[b] += 1
        stack = [i for i in range(n) if indeg[i] == 0]
        order = []
        while stack:
            i = stack.pop()
            order.append(i)
            for j in self._up[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    stack.append(j)
        if len(order) != n:
            raise CycleError("cover relation contains a directed cycle")
        return order

    def lt(self, x, y):
        return self._index[y] in self._above[self._index[x]]

    def leq(self, x, y):
        return x == y or self.lt(x, y)

    def above(self, x):
        """Strictly larger elements of x."""
        return frozenset(self.elements[j] for j in self._above[self._index[x]])

    def heights(self):
        """Length of the longest chain below each element (by index)."""
        if self._heights is None:
            h = [0] * len(self.elements)
            for i in self._topological_order():
                for j in self._up[i]:
                    h[j] = max(h[j], h[i] + 1)
            self._heights = h
        return self._heights

    def maximal_elements(self):
        return tuple(
            self.elements[i] for i in range(len(self.elements)) if not self._up[i]
        )

    def minimal_elements(self):
        has_lower = {b for _, b in self.covers}
        return tuple(
            self.elements[i]
            for i in range(len(self.elements))
            if i not in has_lower
        )

    def dual(self):
        return Poset(self.elements, {(b, a) for a, b in self.covers})

    def subposet(self, keys):
        keep = set(keys)
        keys = [k for k in self.elements if k in keep]
        return Poset.from_le(keys, self.leq)

    # -- exports -------------------------------------------------------------

    def to_json(self):
        return json.dumps(
            {
                "elements": [str(e) for e in self.elements],
                "covers": sorted([a, b] for a, b in self.covers),
            }
        )

    def to_dot(self, name="poset"):
        lines = ["digraph %s {" % name, "  rankdir=BT;", "  node [shape=box];"]
        for i, e in enumerate(self.elements):
            lines.append('  n%d [label="%s"];' % (i, str(e).replace('"', "'")))
        by_height = {}
        for i, h in enumerate(self.heights()):
            by_height.setdefault(h, []).append(i)
        for h in sorted(by_height):
            lines.append(
                "  { rank=same; %s }" % " ".join("n%d;" % i for i in by_height[h])
            )
        for a, b in sorted(self.covers):
            lines.append("  n%d -> n%d;" % (a, b))
        lines.append("}")
        return "\n".join(lines) + "\n"


class GroupAction:
    """Generators of a group of order-automorphisms, as index permutations."""

    def __init__(self, poset, generators):
        self.poset = poset
        n = len(poset.elements)
        gens = []
        for g in generators:
            g = tuple(int(x) for x in g)
            if sorted(g) != list(range(n)):
                raise PosetError("generator is not a permutation of the index set")
            for a, b in poset.covers:
                if (g[a], g[b]) not in poset.covers:
                    raise PosetError(
                        "generator does not map covers to covers: (%d, %d)" % (a, b)
                    )
            gens.append(g)
        self.generators = tuple(gens)

    @staticmethod
    def trivial(poset):
        return GroupAction(poset, [])

    def orbits(self):
        """Orbits as sorted tuples of element indices, sorted by least member."""
        n = len(self.poset.elements)
        seen = [False] * n
        orbits = []
        for i in range(n):
            if seen[i]:
                continue
            orbit = {i}
            stack = [i]
            seen[i] = True
            while stack:
                x = stack.pop()
                for g in self.generators:
                    y = g[x]
                    if not seen[y]:
                        seen[y] = True
                        orbit.add(y)
                        stack.append(y)
            orbits.append(tuple(sorted(orbit)))
        return sorted(orbits)


def order_complex(poset):
    """Complex of all nonempty chains; vertex i is element i of the poset."""
    n = len(poset.elements)
    up = [sorted(poset._above[i]) for i in range(n)]
    faces = set()

    def extend(chain):
        faces.add(tuple(sorted(chain)))
        for nxt in up[chain[-1]]:
            extend(chain + (nxt,))

    for i in range(n):
        extend((i,))
    return SimplicialComplex(poset.elements, frozenset(faces))


def face_poset(complex_):
    """Faces of a simplicial complex ordered by inclusion, smallest first."""
    faces = sorted(complex_.faces, key=lambda f: (len(f), f))
    return Poset.from_le(faces, lambda x, y: set(x) <= set(y))


def quotient_poset(poset, action):
    """Poset of orbits; orbit X <= Y iff some member of X is below some of Y.

    Antisymmetry of the orbit relation is checked, not assumed; a violation
    raises CycleError naming a witness pair of orbits.
    """
    orbits = action.orbits()
    above = poset._above
    k = len(orbits)
    orbit_sets = [set(o) for o in orbits]
    leq = [[False] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            if a == b:
                leq[a][b] = True
                continue
            leq[a][b] = any(
                not orbit_sets[b].isdisjoint(above[x]) or x in orbit_sets[b]
                for x in orbits[a]
            )
    for a in range(k):
        for b in range(a + 1, k):
            if leq[a][b] and leq[b][a]:
                raise CycleError(
                    "orbit relation is not antisymmetric: orbits of %r and %r"
                    % (poset.elements[orbits[a][0]], poset.elements[orbits[b][0]])
                )
    keys = [tuple(poset.elements[i] for i in o) for o in orbits]
    pos = {key: i for i, key in enumerate(keys)}
    return Poset.from_le(keys, lambda x, y: leq[pos[x]][pos[y]])


def product_of_chains(k, m):
    """Componentwise order on k chains of m elements each; m**k elements."""
    if k < 0 or m < 1:
        raise PosetError("need k >= 0 and m >= 1")
    elements = sorted(product(range(m), repeat=k))
    index = {e: i for i, e in enumerate(elements)}
    covers = set()
    for e in elements:
        for pos in range(k):
            if e[pos] + 1 < m:
                f = e[:pos] + (e[pos] + 1,) + e[pos + 1 :]
                covers.add((index[e], index[f]))
    return Poset(elements, covers)


def closure_image(poset, f):
    """Induced subposet on the image of a verified closure operator.

    ``f`` maps element keys to element keys and must be order-preserving,
    inflationary and idempotent; the first violated law raises
    ClosureLawError with a witness.
    """
    mapping = {x: f(x) for x in poset.elements}
    for x, y in mapping.items():
        if y not in poset._index:
            raise ClosureLawError("totality", (x, y))
    for x, y in mapping.items():
        if not poset.leq(x, y):
            raise ClosureLawError("inflationary", (x, y))
    for a, b in poset.covers:
        x, y = poset.elements[a], poset.elements[b]
        if not poset.leq(mapping[x], mapping[y]):
            raise ClosureLawError("order-preserving", (x, y))
    for x, y in mapping.items():
        if mapping[y] != y:
            raise ClosureLawError("idempotent", (x, y))
    image = sorted(set(mapping.values()), key=poset.index)
    return poset.subposet(image)


# ---------------------------------------------------------------------------
# Isomorphism testing


def _refine_colors(poset, colors):
    """Iterated neighborhood refinement of vertex colors on the Hasse diagram."""
    n = len(poset.elements)
    down = [[] for _ in range(n)]
    up = [[] for _ in range(n)]
    for a, b in poset.covers:
        up[a].append(b)
        down[b].append(a)
    while True:
        signatures = [
            (
                colors[i],
                tuple(sorted(colors[j] for j in up[i])),
                tuple(sorted(colors[j] for j in down[i])),
            )
            for i in range(n)
        ]
        palette = {sig: c for c, sig in enumerate(sorted(set(signatures)))}
        new = [palette[sig] for sig in signatures]
        if new == colors:
            return colors
        colors = new


def check_isomorphism(p, q, mapping):
    """True iff ``mapping`` (P-key -> Q-key) preserves and reflects covers."""
    if len(p.elements) != len(q.elements):
        return False
    if set(mapping) != set(p.elements) or set(mapping.values()) != set(q.elements):
        return False
    mapped = {
        (q.index(mapping[p.elements[a]]), q.index(mapping[p.elements[b]]))
        for a, b in p.covers
    }
    return mapped == q.covers


def are_isomorphic(p, q):
    """An order-isomorphism P -> Q as a key dict, or None.

    Backtracking seeded by height and iterated degree refinement; the found
    mapping is re-verified to preserve and reflect covers before returning.
    """
    n = len(p.elements)
    if n != len(q.elements) or len(p.covers) != len(q.covers):
        return None
    pc = _refine_colors(p, [h for h in p.heights()])
    qc = _refine_colors(q, [h for h in q.heights()])
    if sorted(pc) != sorted(qc):
        return None
    up_p = [[] for _ in range(n)]
    down_p = [[] for _ in range(n)]
    for a, b in p.covers:
        up_p[a].append(b)
        down_p[b].append(a)
    q_up = {(a, b) for a, b in q.covers}
    up_q = [[] for _ in range(n)]
    down_q = [[] for _ in range(n)]
    for a, b in q.covers:
        up_q[a].append(b)
        down_q[b].append(a)
    q_by_color = {}
    for j, c in enumerate(qc):
        q_by_color.setdefault(c, []).append(j)
    assignment = [None] * n
    used = [False] * n

    def pick_next():
        # most constrained first: many mapped neighbors, then rare color
        best, best_key = None, None
        for i in range(n):
            if assignment[i] is not None:
                continue
            mapped = sum(assignment[x] is not None for x in up_p[i]) + sum(
                assignment[x] is not None for x in down_p[i]
            )
            key = (-mapped, len(q_by_color[pc[i]]), i)
            if best_key is None or key < best_key:
                best, best_key = i, key
        return best

    def candidates(i):
        # intersect neighbor images where available, else the color class
        cand = None
        for b in up_p[i]:
            jj = assignment[b]
            if jj is not None:
                s = set(down_q[jj])
                cand = s if cand is None else cand & s
        for a in down_p[i]:
            jj = assignment[a]
            if jj is not None:
                s = set(up_q[jj])
                cand = s if cand is None else cand & s
        if cand is None:
            cand = set(q_by_color[pc[i]])
        return sorted(j for j in cand if not used[j] and qc[j] == pc[i])

    def backtrack(depth):
        if depth == n:
            return True
        i = pick_next()
        for j in candidates(i):
            ok = True
            for b in up_p[i]:
                jj = assignment[b]
                if jj is not None and (j, jj) not in q_up:
                    ok = False
                    break
            if ok:
                for a in down_p[i]:
                    jj = assignment[a]
                    if jj is not None and (jj, j) not in q_up:
                        ok = False
                        break
            if not ok:
                continue
            assignment[i] = j
            used[j] = True
            if backtrack(depth + 1):
                return True
            assignment[i] = None
            used[j] = False
        return False

    if not backtrack(0):
        return None
    mapping = {
        p.elements[i]: q.elements[assignment[i]] for i in range(n)
    }
    assert check_isomorphism(p, q, mapping)
    return mapping
