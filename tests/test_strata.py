from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polystrata import homology, strata
from polystrata.compositions import compositions_of_type, positions
from polystrata.homology import (
    BoundarySquareError,
    ChainComplex,
    HomologyResult,
    InvariantError,
    chain_homology,
    sphere_homology,
)
from polystrata.strata import (
    StratumCell,
    StratumError,
    boundary,
    boundary_of_chain,
    closure_cells,
    closure_poset,
    complement_cohomology,
    fills_space,
    pol_chain_complex,
    pol_homology,
    stabilization_report,
)
from polystrata.verify import partitions_of

# ---------------------------------------------------------------------------
# Oracle: the closure, boundary and chain complex computed on part tuples,
# independently of the boundary-set keys in ``strata``


def _runs_of_twos(parts):
    """Maximal runs of 2's as (start, end) part indices, 1-based inclusive."""
    runs, start = [], None
    for k, a in enumerate(parts):
        if a == 2:
            if start is None:
                start = k
        elif start is not None:
            runs.append((start + 1, k))
            start = None
    if start is not None:
        runs.append((start + 1, len(parts)))
    return runs


def oracle_moves(parts, n):
    out = []
    for i in range(len(parts) - 1):
        out.append(parts[:i] + (parts[i] + parts[i + 1],) + parts[i + 2 :])
    if sum(parts) + 2 <= n:
        for slot in range(len(parts) + 1):
            out.append(parts[:slot] + (2,) + parts[slot:])
    return out


def oracle_closure(partition, n):
    """Part tuples of the closure cells in ambient degree n."""
    seen = set(compositions_of_type(partition))
    frontier = list(seen)
    while frontier:
        parts = frontier.pop()
        for nxt in oracle_moves(parts, n):
            assert len(nxt) - sum(nxt) == len(parts) - sum(parts) - 1
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def oracle_boundary(parts, n, literal_parity=False):
    """{part tuple: coefficient}, by the run of 2's a new part lands in."""
    out = {}
    for i in range(1, len(parts)):
        merged = parts[: i - 1] + (parts[i - 1] + parts[i],) + parts[i + 1 :]
        out[merged] = out.get(merged, 0) + (-1) ** i
    if sum(parts) + 2 <= n:
        inserted = {
            parts[:slot] + (2,) + parts[slot:] for slot in range(len(parts) + 1)
        }
        for b in sorted(inserted):
            matches = []
            for j1, j2 in _runs_of_twos(b):
                # deleting one 2 of the run must recover the original parts
                recovered = b[: j1 - 1] + (2,) * (j2 - j1) + b[j2:]
                if recovered == parts:
                    matches.append((j1, j2))
            assert len(matches) == 1
            j1, j2 = matches[0]
            if literal_parity:
                vanishes = (j2 - j1) % 2 == 0
            else:
                vanishes = (j2 - j1 + 1) % 2 == 0
            if not vanishes:
                out[b] = out.get(b, 0) + (-1) ** (j1 - 1)
    return {c: v for c, v in out.items() if v}


def oracle_faces(key, n, literal_parity=False):
    """Every move out of a cell as one interleaved tuple (target key,
    coefficient, target key, ...), by the same bit walk as ``strata._faces``
    but unsplit."""
    insert = key.bit_length() < n
    out = []
    rest = key
    below = k = twos = 0
    while rest:
        bit = rest & -rest
        rest ^= bit
        twos = twos + 1 if below << 2 == bit else 0
        if k and rest:
            out += key ^ bit, -1 if k & 1 else 1
        if insert and key & 7 * bit != 5 * bit:
            span = twos if literal_parity else twos + 1
            sign = -1 if (k - twos) & 1 else 1
            out += (key & (2 * bit - 1)) | (key & -bit) << 2, sign if span & 1 else 0
        below = bit
        k += 1
    return tuple(out)


def closures_up_to(weight, n_max):
    """(partition, n) for every closure of weight <= ``weight`` and n <= n_max."""
    return [
        (partition, n)
        for w in range(weight + 1)
        for partition in partitions_of(w)
        for n in range(w, n_max + 1, 2)
    ]


def oracle_split(facets, coefficients):
    """Oracle: each cell's facets with coefficient +1, and those with -1,
    read off a finished table all of whose coefficients are +-1."""
    plus, minus = [], []
    for fs, cs in zip(facets, coefficients):
        p, m = [], []
        for r, v in zip(fs, cs):
            assert v in (1, -1), v
            (p if v == 1 else m).append(r)
        plus.append(p)
        minus.append(m)
    return plus, minus


def oracle_chain_complex(n, boundaries):
    """Part-tuple generators and index boundary columns by cell dimension."""
    dim = lambda parts: len(parts) + n - sum(parts)
    by_dim = {}
    for parts in sorted(boundaries, key=lambda c: (dim(c), c)):
        by_dim.setdefault(dim(parts), []).append(parts)
    index = {parts: i for cs in by_dim.values() for i, parts in enumerate(cs)}
    columns = {}
    for d, cs in by_dim.items():
        cols = {}
        for c, parts in enumerate(cs):
            if boundaries[parts]:
                cols[c] = {index[t]: v for t, v in boundaries[parts].items()}
        if cols:
            columns[d] = cols
    return {d: tuple(cs) for d, cs in by_dim.items()}, columns


def _total_cell_count(n):
    """Cells of the whole degree-n space: every composition of a weight of
    n's parity, the empty one included."""
    total = 0
    for m in range(n % 2, n + 1, 2):
        total += 1 if m == 0 else 2 ** (m - 1)
    return total


def by_parts(chain, n):
    assert all(cell.ambient == n for cell in chain)
    return {cell.parts: v for cell, v in chain.items()}


partitions = st.lists(st.integers(1, 4), min_size=0, max_size=4).map(
    lambda p: tuple(sorted(p))
)


def cells_strategy():
    def build(parts):
        m = sum(parts)
        return st.integers(0, 3).map(lambda k: StratumCell(parts, m + 2 * k))

    return st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple).flatmap(build)


class TestStratumCell:
    def test_dimension(self):
        assert StratumCell((2, 1), 3).dimension == 2
        assert StratumCell((2, 1), 5).dimension == 4
        assert StratumCell((), 4).dimension == 4

    def test_parity_enforced(self):
        with pytest.raises(StratumError):
            StratumCell((2,), 3)
        with pytest.raises(StratumError):
            StratumCell((2, 2), 2)

    def test_str(self):
        assert str(StratumCell((1, 2), 5)) == "(1,2)@5"


class TestClosure:
    def test_single_cell_closure(self):
        assert closure_cells((3,), 3) == frozenset({StratumCell((3,), 3)})

    def test_two_part_closure(self):
        cells = {c.parts for c in closure_cells((1, 2), 3)}
        assert cells == {(1, 2), (2, 1), (3,)}

    def test_insertion_move(self):
        cells = {c.parts for c in closure_cells((3,), 5)}
        assert cells == {(3,), (2, 3), (3, 2), (5,)}

    def test_empty_partition(self):
        # only conjugate-pair collisions and their merges are reachable
        cells = {c.parts for c in closure_cells((), 4)}
        assert cells == {(), (2,), (2, 2), (4,)}

    def test_total_cell_count(self):
        # compositions of every weight of the right parity, plus the empty cell
        assert _total_cell_count(2) == 3
        assert _total_cell_count(3) == 5
        assert _total_cell_count(4) == 11

    @given(partitions, st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_dimensions_bounded(self, partition, k):
        n = sum(partition) + 2 * k
        if n == 0:
            return
        top = len(partition) + 2 * k
        for cell in closure_cells(partition, n):
            assert 0 <= cell.dimension <= top
            assert cell.ambient == n


class TestRuns:
    def test_runs_of_twos(self):
        # the oracle's run finder
        assert _runs_of_twos((2, 2, 1, 2)) == [(1, 2), (4, 4)]
        assert _runs_of_twos((1, 3)) == []
        assert _runs_of_twos((2,)) == [(1, 1)]


class TestBoundary:
    def test_merge_signs(self):
        result = boundary(StratumCell((1, 2, 3), 6))
        assert result == {
            StratumCell((3, 3), 6): -1,
            StratumCell((1, 5), 6): 1,
        }

    def test_insertion_into_empty(self):
        result = boundary(StratumCell((), 4))
        assert result == {StratumCell((2,), 4): 1}

    def test_even_run_vanishes(self):
        # inserting next to an existing 2 creates a run of length 2
        result = boundary(StratumCell((2,), 4))
        assert StratumCell((2, 2), 4) not in result

    def test_odd_run_sign(self):
        # a run of one 2 starting at part j1 contributes (-1)^(j1-1)
        result = boundary(StratumCell((1,), 3))
        assert result == {StratumCell((2, 1), 3): 1, StratumCell((1, 2), 3): -1}

    def test_boundary_terms_drop_dimension_by_one(self):
        cell = StratumCell((1, 2), 5)
        for target, coeff in boundary(cell).items():
            assert coeff != 0
            assert target.dimension == cell.dimension - 1

    @given(cells_strategy())
    @settings(max_examples=100, deadline=None)
    def test_d_squared_zero(self, cell):
        assert boundary_of_chain(boundary(cell)) == {}

    def test_literal_parity_fails_d_squared(self):
        cell = StratumCell((1, 1), 4)
        square = boundary_of_chain(
            boundary(cell, literal_parity=True), literal_parity=True
        )
        assert square == {StratumCell((2, 2), 4): -1}


class TestAgainstOracle:
    @pytest.mark.parametrize("weight", range(9))
    def test_keys_match_tuple_oracle(self, weight):
        for partition in partitions_of(weight):
            for n in range(weight, 13, 2):
                cells = oracle_closure(partition, n)
                assert {c.parts for c in closure_cells(partition, n)} == cells
                bounds = {parts: oracle_boundary(parts, n) for parts in cells}
                for parts in cells:
                    cell = StratumCell(parts, n)
                    assert by_parts(boundary(cell), n) == bounds[parts]
                    assert by_parts(
                        boundary(cell, literal_parity=True), n
                    ) == oracle_boundary(parts, n, literal_parity=True)
                generators, columns = oracle_chain_complex(n, bounds)
                complex_ = pol_chain_complex(partition, n)
                assert {
                    d: tuple(c.parts for c in cs) for d, cs in complex_.generators.items()
                } == generators
                assert complex_.boundaries == columns

    def test_parts_match_positions_decoding(self):
        # every boundary set below 2**14: bit 0 set, so the odd ints
        for key in range(1, 2**14, 2):
            bounds = positions(key)
            assert strata._parts(key) == tuple(
                b - a for a, b in zip(bounds, bounds[1:])
            )
        assert strata._parts(1) == ()

    @pytest.mark.parametrize("weight", range(7))
    def test_poset_covers_match_oracle_moves(self, weight):
        for partition in partitions_of(weight):
            for n in range(weight, 11, 2):
                poset = closure_poset(partition, n)
                labels = [c.parts for c in poset.elements]
                covers = {(labels[a], labels[b]) for a, b in poset.covers}
                assert covers == {
                    (low, parts)
                    for parts in oracle_closure(partition, n)
                    for low in oracle_moves(parts, n)
                }

    def test_parts_order_matches_parts(self):
        # every boundary set below 2**14, sorted by its string and by its parts
        keys = range(1, 2**14, 2)
        assert sorted(keys, key=strata._mask_order) == sorted(keys, key=strata._parts)

    def test_one_label_per_cell(self, monkeypatch):
        # no label to build and reduce the complex; one per cell once all are read
        built = []
        init = StratumCell.__post_init__
        monkeypatch.setattr(
            StratumCell, "__post_init__", lambda c: built.append(c) or init(c)
        )
        complex_ = pol_chain_complex((1, 1, 1, 1), 8)
        chain_homology(complex_)
        assert built == []
        cells = [cell for gens in complex_.generators.values() for cell in gens]
        assert built == cells
        assert len(cells) == sum(map(len, complex_.generators.values()))

    def test_homology_leaves_boundaries_undecoded(self, monkeypatch):
        # pol_homology and chain_homology read the cell table, not the columns
        reduced = []
        reduce = strata.chain_homology
        monkeypatch.setattr(
            strata, "chain_homology", lambda c: reduced.append(c) or reduce(c)
        )
        assert pol_homology((1, 1, 2), 8) == chain_homology(
            pol_chain_complex((1, 1, 2), 8)
        )
        complex_ = pol_chain_complex((1, 1, 1, 1), 8)
        chain_homology(complex_)
        for c in reduced + [complex_]:
            assert "boundaries" not in vars(c)

    def test_split_moves_match_interleaved_oracle(self):
        # each closure cell's +1, -1 and 0 targets, in the oracle's order
        keys = {}
        for partition, n in closures_up_to(8, 12):
            keys.setdefault(n, set()).update(
                key for level, _ in strata._closure(partition, n) for key in level
            )
        for n, cells in keys.items():
            for key in cells:
                for literal in (False, True):
                    moves = iter(oracle_faces(key, n, literal))
                    expected = [], [], []
                    for target, v in zip(moves, moves):
                        expected[(1, -1, 0).index(v)].append(target)
                    assert strata._faces(key, n, literal) == expected, (key, n)

    def test_move_out_of_the_closure_raises(self, monkeypatch):
        # a move that keeps the dimension has no row in degree d - 1
        faces = strata._faces
        monkeypatch.setattr(
            strata, "_faces", lambda key, n: (lambda p, m, z: (p, m, z + [key]))(*faces(key, n))
        )
        with pytest.raises(InvariantError) as info:
            pol_chain_complex((1, 2), 5)
        # the first cell of the next level in composition order, named by its
        # first source in composition order
        assert str(info.value) == "move from (1,2)@5 leaves the dimension-3 closure cells"

    @pytest.mark.parametrize("weight", range(8))
    def test_levels_descend_one_dimension(self, weight):
        for partition in partitions_of(weight):
            for n in range(weight, 13, 2):
                levels = strata._closure(partition, n)
                dimensions = []
                for keys, moves in levels:
                    assert keys == sorted(keys, key=strata._mask_order)
                    assert moves == [strata._faces(key, n) for key in keys]
                    cells = [StratumCell(strata._parts(key), n) for key in keys]
                    assert len({cell.dimension for cell in cells}) == 1
                    dimensions.append(cells[0].dimension)
                top = dimensions[0]
                assert dimensions == list(range(top, top - len(levels), -1))
                parts = [strata._parts(key) for keys, _ in levels for key in keys]
                assert len(parts) == len(set(parts))
                assert set(parts) == oracle_closure(partition, n)

    def test_levels_dropped_once_read(self, monkeypatch):
        # pol_chain_complex pops every level of the walk it is handed
        walks = []
        closure = strata._closure
        monkeypatch.setattr(
            strata, "_closure", lambda *a: walks.append(closure(*a)) or walks[-1]
        )
        complex_ = pol_chain_complex((1, 1, 2), 8)
        assert walks == [[]]
        assert chain_homology(complex_) == pol_homology((1, 1, 2), 8)

    def test_literal_parity_square_names_cells(self, monkeypatch):
        faces = strata._faces
        monkeypatch.setattr(strata, "_faces", lambda key, n: faces(key, n, True))
        with pytest.raises(BoundarySquareError) as info:
            pol_chain_complex((1, 1), 4)
        assert str(info.value) == (
            "d(d(StratumCell(parts=(1, 1), ambient=4)))"
            " = {StratumCell(parts=(2, 2), ambient=4): -1} is nonzero"
        )


class TestSignedMoves:
    """The d(d(x)) = 0 check and the reduction read one complex."""

    def test_check_reads_the_table_split(self, monkeypatch):
        given = []
        check = homology._check_squares_to_zero
        monkeypatch.setattr(
            homology,
            "_check_squares_to_zero",
            lambda f, c, split, *a: given.append(split) or check(f, c, split, *a),
        )
        for partition, n in closures_up_to(8, 12):
            complex_ = pol_chain_complex(partition, n)
            (split,) = given
            facets, coefficients, _ = complex_._table
            assert oracle_split(facets, coefficients) == split, (partition, n)
            given.clear()

    def test_only_the_strata_walk_hands_over_a_split(self, monkeypatch):
        # the Morse complex and given columns are summed exactly
        given = []
        check = homology._check_squares_to_zero
        monkeypatch.setattr(
            homology,
            "_check_squares_to_zero",
            lambda f, c, split, *a: given.append((f, split)) or check(f, c, split, *a),
        )
        complex_ = pol_chain_complex((1,) * 8, 12)
        chain_homology(complex_)
        (table, split), (critical, morse) = given
        facets, coefficients, _ = complex_._table
        assert table is facets and split == oracle_split(facets, coefficients)
        assert morse is None and 0 < len(critical) < len(facets)
        given.clear()
        complex_ = ChainComplex({0: ("a", "b"), 1: ("e",)}, {1: {0: {0: -1, 1: 1}}})
        assert given == [(complex_._table[0], None)]

    @pytest.mark.parametrize("partition,n", [((1,) * 8, 12), ((1, 2, 2), 9), ((), 6)])
    def test_one_coefficient_tuple_per_shape(self, partition, n):
        facets, coefficients, _ = pol_chain_complex(partition, n)._table
        shapes = {}
        for fs, cs in zip(facets, coefficients):
            p, m = cs.count(1), cs.count(-1)
            assert cs == (1,) * p + (-1,) * m and len(fs) == p + m
            shapes.setdefault((p, m), set()).add(id(cs))
        assert all(len(ids) == 1 for ids in shapes.values())

    def test_generators_slice_to_labels(self):
        complex_ = pol_chain_complex((1, 2), 5)
        for cells in complex_.generators.values():
            labels = [cells[i] for i in range(len(cells))]
            assert cells[0:2] == labels[0:2]
            assert cells[::-1] == labels[::-1]
            assert all(isinstance(c, StratumCell) for c in cells[:])


class TestHomology:
    def test_point_stratum(self):
        # the unique degree-n cell of its own type compactifies to a circle
        assert pol_homology((3,), 3) == sphere_homology(1)

    def test_full_space(self):
        assert pol_homology((), 2) == HomologyResult.of({})

    def test_closed_disk_bundle_case(self):
        assert pol_homology((2,), 4) == sphere_homology(3)

    def test_chain_complex_validates(self):
        complex_ = pol_chain_complex((1, 2), 5)
        assert sum(len(g) for g in complex_.generators.values()) == len(
            closure_cells((1, 2), 5)
        )

    def test_weight_exceeds_ambient(self):
        with pytest.raises(StratumError):
            closure_cells((3, 3), 4)

    @pytest.mark.parametrize("part", [1.5, Fraction(3, 2)])
    def test_non_integer_part_refused(self, part):
        # not truncated to the closure of (1,)
        with pytest.raises(ValueError):
            closure_cells((part,), 3)


class TestClosurePoset:
    def test_covers_drop_dimension(self):
        poset = closure_poset((1, 2), 5)
        for a, b in poset.covers:
            assert poset.elements[a].dimension == poset.elements[b].dimension - 1

    def test_maximal_elements_are_type_cells(self):
        poset = closure_poset((1, 2), 3)
        cells = poset.elements
        maximal = [c for c in cells if not any(poset.lt(c, y) for y in cells)]
        assert {c.parts for c in maximal} == {(1, 2), (2, 1)}


class TestComplement:
    def test_smallest_discriminant_complement(self):
        result = complement_cohomology((2,), 2)
        assert result == HomologyResult.of({0: (1, ())})

    def test_full_closure_rejected(self):
        # every degree-1 polynomial has a real root: the complement is empty
        with pytest.raises(StratumError, match=r"closure of \(1,\) fills the whole degree-1"):
            complement_cohomology((1,), 1)

    def test_full_closure_rejected_before_building(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built a closure")

        monkeypatch.setattr(strata, "_closure", refuse)
        with pytest.raises(StratumError):
            complement_cohomology((1,), 1)
        with pytest.raises(StratumError):
            complement_cohomology((), 0)

    def test_fills_space_agrees_with_cell_count_and_duality(self):
        # the closure is the whole space iff it has every cell, iff its
        # compactification is the n-sphere: H_n = Z
        cases = 0
        for n in range(11):
            for weight in range(n % 2, n + 1, 2):
                for partition in partitions_of(weight) if weight else [()]:
                    full = len(closure_cells(partition, n)) == _total_cell_count(n)
                    assert fills_space(partition, n) == full, (partition, n)
                    assert (pol_homology(partition, n).betti(n) == 1) == full
                    cases += 1
        assert cases == 253

    def test_elliptic_region_complement_is_contractible(self):
        assert complement_cohomology((), 2) == HomologyResult.of({})

    def test_linking_a_curve_in_three_space(self):
        result = complement_cohomology((3,), 3)
        assert result == HomologyResult.of({1: (1, ())})

    def test_duality_degrees_in_range(self):
        result = complement_cohomology((2,), 6)
        assert all(0 <= q < 6 for q, _, _ in result.groups)


class TestStabilization:
    def test_report_shape(self):
        report = stabilization_report((2,), 2, 8)
        assert report.ambients == (2, 4, 6, 8)
        assert len(report.tables) == 4
        assert len(report.first_unstable) == 3

    def test_constant_table_for_the_discriminant(self):
        report = stabilization_report((2,), 2, 8)
        assert all(u is None for u in report.first_unstable)
        assert all(t == HomologyResult.of({0: (1, ())}) for t in report.tables)

    def test_unstable_degree_detected(self):
        report = stabilization_report((3,), 3, 7)
        assert report.first_unstable[0] == 1
        assert report.first_unstable[1] is None

    @pytest.mark.parametrize("partition", [(2,), (3,), (1, 2)])
    def test_elliptic_factor_adds_a_real_rooted_subcomplex(self, partition):
        # the two facts behind the stable range q < n - d_A of the complement
        # tables: the weight-(n+2) cells form a subcomplex A, and the quotient
        # by A is the degree-n complex shifted up by 2
        for n in range(sum(partition), 9, 2):
            upper = closure_cells(partition, n + 2)
            real_rooted = {c for c in upper if c.weight == n + 2}
            rest = upper - real_rooted
            for cell in real_rooted:
                assert set(boundary(cell)) <= real_rooted
            assert {c.parts for c in rest} == {
                c.parts for c in closure_cells(partition, n)
            }
            for cell in rest:
                shifted = {
                    c.parts: v for c, v in boundary(cell).items() if c.weight <= n
                }
                lower = StratumCell(cell.parts, n)
                assert shifted == {c.parts: v for c, v in boundary(lower).items()}

    def test_csv_export(self):
        report = stabilization_report((2,), 2, 4)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "n,degree,betti,torsion"
        assert len(lines) == 3

    def test_csv_ends_lines_in_lf(self):
        text = stabilization_report((1, 2), 3, 9).to_csv()
        assert "\r" not in text and text.endswith("\n") and not text.endswith("\n\n")

    @pytest.mark.parametrize("partition, low", [((1,), 3), ((2,), 2), ((1, 2), 3), ((), 2)])
    def test_default_n_min_is_the_lowest_nonempty_complement(self, partition, low):
        report = stabilization_report(partition, None, 9)
        assert report.ambients[0] == low
        assert report == stabilization_report(partition, low, 9)

    def test_first_unstable_is_the_lowest_differing_degree(self):
        # the oracle: compare Betti numbers and torsion degree by degree
        for weight in range(1, 6):
            for partition in partitions_of(weight):
                report = stabilization_report(partition, None, 11)
                pairs = zip(report.tables, report.tables[1:])
                for (t1, t2), unstable in zip(pairs, report.first_unstable):
                    differ = [
                        q
                        for q in range(12)
                        if (t1.betti(q), t1.torsion(q)) != (t2.betti(q), t2.torsion(q))
                    ]
                    assert unstable == (differ[0] if differ else None), partition

    def test_bad_ranges(self):
        with pytest.raises(StratumError):
            stabilization_report((2,), 3, 7)
        with pytest.raises(StratumError):
            stabilization_report((2,), 4, 2)
