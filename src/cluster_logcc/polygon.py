"""Triangulated convex polygons and path expansions of cluster variables.

Conventions used throughout (and by the CLI file formats):

* The polygon for rank n has n + 3 vertices, labeled 0..n+2 counterclockwise.
* A triangulation carries 2n + 3 labeled edges: labels 1..n are its diagonals
  (in construction/file order) and labels n+1..2n+3 are the boundary edges,
  label n+1 being {n+2, 0} and label n+1+j being {j-1, j} for j = 1..n+2.
* The order in which a chord crosses the diagonals is read from vertex
  labels, never from coordinates; the tests check it against exact
  intersection points of a convex embedding (tests/oracles.py).
* Flipping diagonal k keeps the label k on the new diagonal, so mutation
  directions and diagonal labels stay aligned.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Sequence, Tuple

from .poly import LaurentPoly, poly_to_json

Pair = Tuple[int, int]


def _norm_pair(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


def crosses(e1: Sequence[int], e2: Sequence[int]) -> bool:
    """Whether two chords of a convex polygon cross in their interiors.

    Chords sharing an endpoint never cross; otherwise crossing means the
    endpoint pairs strictly interleave in cyclic order.
    """
    a, b = _norm_pair(*e1)
    c, d = _norm_pair(*e2)
    if len({a, b, c, d}) < 4:
        return False
    return (a < c < b) != (a < d < b)


def _adjacent(u: int, v: int, size: int) -> bool:
    return (u - v) % size in (1, size - 1)


def chords(size: int) -> Iterator[Pair]:
    """The chords {a, b}, a < b, of the size-gon in ascending (a, b) order."""
    for a in range(size):
        for b in range(a + 2, size):
            if not _adjacent(a, b, size):
                yield a, b


class Triangulation(NamedTuple):
    """A labeled triangulation of the (n+3)-gon."""

    n: int
    edges: Tuple[Pair, ...]  # index = label - 1

    @property
    def size(self) -> int:
        return self.n + 3

    @property
    def num_edges(self) -> int:
        return 2 * self.n + 3

    def pair_of(self, label: int) -> Pair:
        if not 1 <= label <= self.num_edges:
            raise IndexError(f"edge label {label} out of range 1..{self.num_edges}")
        return self.edges[label - 1]

    def label_of(self, pair: Sequence[int]) -> int:
        p = _norm_pair(*pair)
        try:
            return self.edges.index(p) + 1
        except ValueError:
            raise KeyError(f"{p} is not an edge of this triangulation") from None

    def diagonal_pairs(self) -> Tuple[Pair, ...]:
        return self.edges[: self.n]


def _boundary_edges(n: int) -> List[Pair]:
    size = n + 3
    out = [_norm_pair(size - 1, 0)]
    out.extend((j - 1, j) for j in range(1, size))
    return out


def from_diagonals(n: int, diagonals: Sequence[Sequence[int]]) -> Triangulation:
    """Build a triangulation from its n diagonals, validating everything."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    size = n + 3
    if len(diagonals) != n:
        raise ValueError(f"expected {n} diagonals, got {len(diagonals)}")
    pairs: List[Pair] = []
    for d in diagonals:
        u, v = d
        if not (0 <= u < size and 0 <= v < size):
            raise ValueError(f"diagonal {d!r} has vertices outside 0..{size - 1}")
        if u == v or _adjacent(u, v, size):
            raise ValueError(f"{d!r} is not a diagonal of the {size}-gon")
        pairs.append(_norm_pair(u, v))
    if len(set(pairs)) != n:
        raise ValueError("diagonals are not distinct")
    for i in range(n):
        for j in range(i + 1, n):
            if crosses(pairs[i], pairs[j]):
                raise ValueError(f"diagonals {pairs[i]} and {pairs[j]} cross")
    return Triangulation(n, tuple(pairs) + tuple(_boundary_edges(n)))


def zigzag(n: int) -> Triangulation:
    """The snake triangulation whose exchange matrix is the standard rank-n one.

    The snake starts with the diagonal {1, n+2}; for odd n the second diagonal
    re-anchors at the low vertex ({1, n+1}), for even n at the high vertex
    ({2, n+2}).  The two shapes are mirror images; the parity choice keeps the
    sign pattern of the resulting exchange matrix aligned with a_n_matrix.
    """
    lo, hi = 1, n + 2
    diags = [(lo, hi)]
    low_anchor = n % 2 == 1
    for t in range(1, n):
        if (t % 2 == 1) == low_anchor:
            hi -= 1
        else:
            lo += 1
        diags.append((lo, hi))
    return from_diagonals(n, diags)


def fan(n: int) -> Triangulation:
    """All diagonals from vertex 0: label i carries {0, i+1}."""
    return from_diagonals(n, [(0, i + 1) for i in range(1, n + 1)])


def flip(tri: Triangulation, k: int) -> Triangulation:
    """Replace diagonal k by the other diagonal of its quadrilateral.

    The new diagonal keeps label k.
    """
    if not 1 <= k <= tri.n:
        raise IndexError(f"can only flip diagonals 1..{tri.n}, got {k}")
    u, w = tri.pair_of(k)
    edge_set = set(tri.edges)
    p, q = (
        t
        for t in range(tri.size)
        if t not in (u, w) and _norm_pair(u, t) in edge_set and _norm_pair(w, t) in edge_set
    )
    new_edges = list(tri.edges)
    new_edges[k - 1] = _norm_pair(p, q)
    return Triangulation(tri.n, tuple(new_edges))


# ---- path expansion ----


class TPath(NamedTuple):
    """An admissible path: vertex sequence plus the edge labels walked."""

    vertices: Tuple[int, ...]
    edge_labels: Tuple[int, ...]


def diagonals_crossing(tri: Triangulation, a: int, b: int) -> List[int]:
    """Labels of diagonals crossing the chord {a, b}, nearest to a first.

    The order is read from vertex labels alone.  A crossing diagonal has one
    end u on the counterclockwise arc from a to b and its other end w on the
    arc back.  Diagonals of a triangulation never cross, so sorting on how
    far u lies counterclockwise of a, then on how far w lies clockwise of a,
    puts the nearest crossing first.  Vertices outside 0..size-1, or a pair
    that spans no diagonal, are a ValueError; enumerate_t_paths shares this
    check.
    """
    size = tri.size
    if not (0 <= a < size and 0 <= b < size):
        raise ValueError(f"vertices must lie in 0..{size - 1}")
    if a == b or _adjacent(a, b, size):
        raise ValueError(f"vertices {a} and {b} do not span a diagonal")

    def offsets(k: int) -> Pair:
        u_ccw, w_ccw = sorted((v - a) % size for v in tri.pair_of(k))
        return u_ccw, size - w_ccw

    gamma = _norm_pair(a, b)
    return sorted((k for k in range(1, tri.n + 1) if crosses(tri.pair_of(k), gamma)), key=offsets)


def enumerate_t_paths(tri: Triangulation, a: int, b: int) -> List[TPath]:
    """All admissible paths from a to b, in deterministic order.

    A path walks labeled edges of the triangulation, never reusing a label,
    and ends after an odd number of steps.  Every even-numbered step must
    walk an edge crossing the chord {a, b}, and the crossing edges used
    (at any step) must appear ordered by their crossing point's distance
    from a.  Output is sorted by (length, label sequence).
    """
    size = tri.size
    order = diagonals_crossing(tri, a, b)
    prox = {lab: i for i, lab in enumerate(order)}
    incident: Dict[int, List[Tuple[int, int]]] = {v: [] for v in range(size)}
    for lab in range(1, tri.num_edges + 1):
        u, w = tri.pair_of(lab)
        incident[u].append((lab, w))
        incident[w].append((lab, u))
    for v in incident:
        incident[v].sort()

    results: List[TPath] = []
    used = set()
    verts = [a]
    labs: List[int] = []

    def walk(current: int, last_cross: int) -> None:
        if current == b:
            # a crossing edge is never incident to b, so arrivals happen at
            # odd steps and no admissible path continues past b
            if len(labs) % 2 == 1:
                results.append(TPath(tuple(verts), tuple(labs)))
            return
        even_step = (len(labs) + 1) % 2 == 0
        for lab, other in incident[current]:
            if lab in used:
                continue
            ci = prox.get(lab)
            if even_step:
                if ci is None or ci <= last_cross:
                    continue
            elif ci is not None and ci <= last_cross:
                continue
            used.add(lab)
            verts.append(other)
            labs.append(lab)
            walk(other, ci if ci is not None else last_cross)
            used.remove(lab)
            verts.pop()
            labs.pop()

    walk(a, -1)
    results.sort(key=lambda P: (len(P.edge_labels), P.edge_labels))
    return results


def tpath_monomial(tri: Triangulation, path: TPath) -> LaurentPoly:
    """The Laurent monomial of a path: odd steps multiply, even steps divide.

    All 2n+3 edge variables participate (variable index = label - 1), so the
    boundary edges walked stay visible as frozen variables.
    """
    exps = [0] * tri.num_edges
    for i, lab in enumerate(path.edge_labels):
        exps[lab - 1] += -1 if (i + 1) % 2 == 0 else 1
    return LaurentPoly._trusted(tri.num_edges, {tuple(exps): 1})  # clean as built


def expand_variable(tri: Triangulation, a: int, b: int) -> LaurentPoly:
    """The cluster variable of the chord {a, b} as a sum over admissible paths.

    The sum lives in all 2n+3 edge variables, boundary edges kept as frozen
    variables; boundary_to_one turns it into the coefficient-free variable.
    """
    return path_sum(tri, enumerate_t_paths(tri, a, b))


def path_sum(tri: Triangulation, paths: Iterable[TPath]) -> LaurentPoly:
    """The sum of the paths' monomials in all 2n+3 edge variables, one add per path."""
    total = LaurentPoly.zero(tri.num_edges)
    for path in paths:
        total = total + tpath_monomial(tri, path)
    return total


def boundary_to_one(tri: Triangulation, p: LaurentPoly) -> LaurentPoly:
    """p with the boundary edge variables set to 1: a polynomial in the n diagonals."""
    return p.substitute_ones(range(tri.n, tri.num_edges))


def crossing_d_vector(tri: Triangulation, gamma: Sequence[int]) -> Tuple[int, ...]:
    """Crossing counts of the chord gamma with each diagonal (0 or 1 each).

    gamma must not itself be a diagonal of the triangulation; the caller
    owns that degenerate case (its denominator data is -e_k, not a crossing
    count).  Vertices off the polygon, or a pair that spans no diagonal,
    raise diagonals_crossing's ValueError.
    """
    crossing = set(diagonals_crossing(tri, *gamma))
    if _norm_pair(*gamma) in tri.diagonal_pairs():
        raise ValueError(f"{gamma!r} belongs to the triangulation")
    return tuple(1 if k in crossing else 0 for k in range(1, tri.n + 1))


# ---- serialization ----


def triangulation_to_json(tri: Triangulation) -> dict:
    return {"ngon": tri.size, "diagonals": [list(p) for p in tri.diagonal_pairs()]}


def triangulation_from_json(obj: Mapping) -> Triangulation:
    """Read {"ngon": int, "diagonals": [[u, v], ...]}; a malformed object is a ValueError."""
    if not isinstance(obj, Mapping) or type(obj.get("ngon")) is not int:
        raise ValueError("triangulation JSON must be an object with an integer 'ngon'")
    ngon, diagonals = obj["ngon"], obj.get("diagonals")
    if not isinstance(diagonals, (list, tuple)) or not all(
        isinstance(d, (list, tuple)) and len(d) == 2 and all(type(v) is int for v in d)
        for d in diagonals
    ):
        raise ValueError("triangulation 'diagonals' must be a list of integer vertex pairs")
    if ngon < 4:
        raise ValueError("polygon must have at least 4 vertices")
    return from_diagonals(ngon - 3, [tuple(d) for d in diagonals])


def tpath_to_json(tri: Triangulation, path: TPath) -> dict:
    """A path's vertices, edge labels and coefficient-free monomial."""
    return {
        "vertices": list(path.vertices),
        "edges": list(path.edge_labels),
        "monomial": poly_to_json(boundary_to_one(tri, tpath_monomial(tri, path))),
    }
