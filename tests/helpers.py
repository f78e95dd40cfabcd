"""Shared assertion helpers, independent of the library's internal checks."""

from fractions import Fraction

from blockstoch.family import SetFamily, WeightFunction, classify_membership
from blockstoch.graphs import (
    AssociatedGraph,
    Path,
    block_vertex_counts,
    is_primitive,
)


def assert_valid_witness(family: SetFamily, w: WeightFunction, witness) -> None:
    """A witness must split w into two distinct admissible halves."""
    for half in (witness.w_plus, witness.w_minus):
        report = classify_membership(family, half)
        assert report.nonnegative
        assert report.stochastic
    assert witness.w_plus != witness.w_minus
    average = (witness.w_plus + witness.w_minus).scaled(Fraction(1, 2))
    assert average == w
    assert witness.epsilon > 0


def assert_cycle_pieces(
    graph: AssociatedGraph,
    family: SetFamily,
    cycle: Path,
    pieces: tuple[Path, ...],
) -> None:
    """Re-check the four advertised decomposition properties from scratch."""
    covered: set[int] = set()
    for piece in pieces:
        assert piece.is_cycle
        assert len(set(piece.vertices)) == len(piece.vertices)
        for g, h in piece.edges():
            assert graph.adjacent(g, h)
        counts = block_vertex_counts(family, piece.vertices)
        assert is_primitive(family, piece) or any(
            c >= 3 for c in counts.values()
        )
        covered |= set(piece.vertices)
    assert covered == set(cycle.vertices)
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            shared = set(pieces[i].vertices) & set(pieces[j].vertices)
            if j == i + 1:
                shared_edges = {
                    frozenset(e) for e in pieces[i].edges()
                } & {frozenset(e) for e in pieces[j].edges()}
                assert len(shared) == 2
                assert len(shared_edges) == 1
            else:
                assert len(shared) <= 1


# Dense exact elimination, kept as the reference for the sparse kernel in
# blockstoch.oracle: rows are full lists of Fractions.


def dense_rref(aug: list[list[Fraction]], ncols: int) -> list[int]:
    """Row-reduce in place over the first ``ncols`` columns; return pivot columns."""
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        pv = aug[r][c]
        if pv != 1:
            aug[r] = [v / pv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == len(aug):
            break
    return pivots


def dense_rank(rows: list[list[Fraction]], ncols: int) -> int:
    return len(dense_rref([row[:] for row in rows], ncols))


def dense_solve_all_ones(rows: list[list[Fraction]], ncols: int):
    """Unique solution of ``rows @ x = 1``, or None if absent or non-unique."""
    aug = [row[:] + [Fraction(1)] for row in rows]
    pivots = dense_rref(aug, ncols)
    for i in range(len(pivots), len(aug)):
        if aug[i][ncols] != 0:
            return None
    if len(pivots) < ncols:
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = aug[i][ncols]
    return x


def dense_kernel_vector(rows: list[list[Fraction]], ncols: int):
    """A nonzero exact solution of ``rows @ x = 0``, or None at full column rank."""
    reduced = [row[:] for row in rows]
    pivots = dense_rref(reduced, ncols)
    if len(pivots) == ncols:
        return None
    free = next(c for c in range(ncols) if c not in pivots)
    x = [Fraction(0)] * ncols
    x[free] = Fraction(1)
    for i, c in enumerate(pivots):
        x[c] = -reduced[i][free]
    return x


def sparse_rows(matrix: list[list[Fraction]]) -> list[dict[int, Fraction]]:
    """The nonzero entries of each dense row, by column."""
    return [{c: v for c, v in enumerate(row) if v != 0} for row in matrix]


def dense_row(row: dict[int, Fraction], width: int) -> list[Fraction]:
    return [row.get(c, Fraction(0)) for c in range(width)]
