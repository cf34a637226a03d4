"""Independent reference implementations used to cross-check the fast paths.

Everything here is written for clarity over speed: dense arrays, explicit
loops, and only public package names (no underscore-prefixed import; a test
in test_exactness.py checks this).  Every reference builds on LaurentPoly
and its ring operations, which slow_poly_mul checks in turn.  Beyond that,
each shares with the package only what its docstring names:

- plain_principal_states starts from principal_state and steps with the
  package's state_step, so it checks the sweep and its memo, not the
  companion recursions (dense_cg_step and dense_d_vector_step check those);
- plain_flip_graph steps with the package's flip;
- free_path_sum reads its paths from the package's enumerate_t_paths;
- plain_div_exact is long division that finds each lead by max over the
  remainder, where the package pops it from a heap; plain_mutate divides
  with it.  fraction_skew_symmetrizable keeps its scales as Fractions,
  where the package cross-multiplies integer pairs;
- geometric_crossing_order and assert_valid_t_path share only crosses
  with the package.  The package reads the order in which a chord crosses
  the diagonals from vertex labels; these read it from exact intersection
  points of a convex embedding (intersection_parameter, in Fractions);
- rotation_b_matrix is the tests' only exchange-matrix rule for a
  triangulation: the package has none, since its path expansion never
  reads a seed.  boundary_seed shares only geometric_seed with the
  package, which turns that matrix into a seed;
- plain_logcc_witness forms the numerator with normalize_denominator and
  scans it with is_log_concave.  The package scans the Laurent polynomial
  where it lies and forms the numerator only for a witness.

The searches key seeds with plain_seed_key, never with the package's
canonical_seed_key, and share no stepping code with the sweep they check.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Dict, Tuple

from cluster_logcc import (
    InexactDivisionError,
    LaurentPoly,
    Seed,
    a_n_matrix,
    crosses,
    enumerate_t_paths,
    flip,
    is_log_concave,
    normalize_denominator,
    poly_to_json,
    principal_state,
    state_step,
)
from cluster_logcc.pattern import DEFAULT_BUDGET, geometric_seed
from cluster_logcc.poly import LogConcavityResult


def dense_log_concave(p: LaurentPoly) -> bool:
    """Brute-force log-concavity over the full bounding box of the support.

    Materializes the coefficient array on the box (absent monomials are 0)
    and tests c[e]^2 >= c[e - u] * c[e + u] for every lattice point e and
    every coordinate direction u, skipping neighbors outside the box.
    """
    if not p.terms:
        raise ValueError("zero polynomial")
    m = p.num_vars
    if m == 0:
        return True
    lo = [min(e[i] for e in p.terms) for i in range(m)]
    hi = [max(e[i] for e in p.terms) for i in range(m)]
    box: Dict[Tuple[int, ...], int] = {}
    for point in product(*(range(lo[i], hi[i] + 1) for i in range(m))):
        box[point] = p.terms.get(point, 0)
    for point, c in box.items():
        for axis in range(m):
            left = list(point)
            right = list(point)
            left[axis] -= 1
            right[axis] += 1
            lv = box.get(tuple(left))
            rv = box.get(tuple(right))
            if lv is None or rv is None:
                continue
            if c * c < lv * rv:
                return False
    return True


def scan_log_concave(p: LaurentPoly) -> LogConcavityResult:
    """Axis-aligned log-concavity, line by line over each line's whole range.

    For each axis the terms are grouped into lines by their remaining
    coordinates; lines are visited in sorted order, and every position from
    the line's least to its greatest is checked, absent coefficients read as
    0.  The first failing (axis, point) is returned.  Same input errors as
    is_log_concave.
    """
    if not p:
        raise ValueError("log-concavity is undefined for the zero polynomial")
    for e, c in p.terms.items():
        if c < 0:
            raise ValueError(f"negative coefficient {c} at {e}")
    for axis in range(p.num_vars):
        lines: Dict[Tuple[int, ...], Dict[int, int]] = {}
        for e, c in p.terms.items():
            rest = e[:axis] + e[axis + 1 :]
            lines.setdefault(rest, {})[e[axis]] = c
        for rest in sorted(lines):
            vals = lines[rest]
            for i in range(min(vals), max(vals) + 1):
                mid = vals.get(i, 0)
                if mid * mid < vals.get(i - 1, 0) * vals.get(i + 1, 0):
                    return LogConcavityResult(False, axis, rest[:axis] + (i,) + rest[axis:])
    return LogConcavityResult(True, None, None)


def plain_logcc_witness(p: LaurentPoly, n: int, **extra):
    """The log-concavity witness of p's numerator over the first n variables,
    or None: normalise first, then check the numerator's signs and scan it.
    The kind comes first, then extra, then axis and point, then the poly."""
    numerator = normalize_denominator(p, n).numerator
    out = {"kind": "not-log-concave", **extra}
    if any(c < 0 for c in numerator.coefficients()):
        out["kind"] = "negative-coefficient"
    else:
        res = is_log_concave(numerator)
        if res.ok:
            return None
        out["axis"] = res.axis
        out["point"] = list(res.point)
    out["poly"] = poly_to_json(numerator)
    return out


def plain_cluster_monomials(clusters, deg):
    """Every monomial of total degree at most deg in each cluster's variables.

    Yields (cluster index, exponents, value): clusters in sequence, then all
    (deg+1)^n exponent vectors in ascending lexicographic order, those of
    sum above deg dropped.  Every product is multiplied out in every
    cluster, shared variable sets included; only each distinct variable's
    power table is built once.
    """
    powers: Dict[tuple, list] = {}
    for idx, cluster in enumerate(clusters):
        tables = []
        for x in cluster:
            table = powers.get(x.key())
            if table is None:
                table = [LaurentPoly.const(x.num_vars, 1)]
                for _ in range(deg):
                    table.append(table[-1] * x)
                powers[x.key()] = table
            tables.append(table)
        for m in product(range(deg + 1), repeat=len(tables)):
            if sum(m) > deg:
                continue
            value = tables[0][0]
            for table, e in zip(tables, m):
                if e:
                    value = value * table[e]
            yield idx, m, value


def slow_poly_mul(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Schoolbook product, term by term."""
    terms: Dict[Tuple[int, ...], int] = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return LaurentPoly(p.num_vars, terms)


def plain_div_exact(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Long division by lex leading terms, each lead found by max over the
    whole remainder; the package's division keeps its leads in a heap.

    Both operands are shifted into the polynomial range first.  Returns the
    quotient, or raises InexactDivisionError with the remainder reached.
    """
    m = p.num_vars
    if not p:
        return LaurentPoly.zero(m)
    smin = [min(e[j] for e in p.terms) for j in range(m)]
    dmin = [min(e[j] for e in d.terms) for j in range(m)]
    rem = {tuple(a - b for a, b in zip(e, smin)): c for e, c in p.terms.items()}
    q_terms = {tuple(a - b for a, b in zip(e, dmin)): c for e, c in d.terms.items()}
    q_lead = max(q_terms)
    quotient: Dict[Tuple[int, ...], int] = {}
    while rem:
        lead = max(rem)
        texp = tuple(a - b for a, b in zip(lead, q_lead))
        coeff, left = divmod(rem[lead], q_terms[q_lead])
        if left or any(e < 0 for e in texp):
            witness = {tuple(a + b for a, b in zip(e, smin)): c for e, c in rem.items()}
            raise InexactDivisionError("division is not exact", LaurentPoly(m, witness))
        quotient[texp] = coeff
        for e, c in q_terms.items():
            ne = tuple(a + b for a, b in zip(texp, e))
            rem[ne] = rem.get(ne, 0) - coeff * c
            if not rem[ne]:
                del rem[ne]
    offset = [a - b for a, b in zip(smin, dmin)]
    return LaurentPoly(m, {tuple(a + b for a, b in zip(e, offset)): c for e, c in quotient.items()})


def fraction_skew_symmetrizable(B) -> bool:
    """Whether some positive diagonal D makes D*B skew-symmetric, with the
    scales as Fractions: d_j = d_i b_ij / -b_ji along each nonzero entry."""
    n = len(B)
    if any(len(row) != n or row[i] != 0 for i, row in enumerate(B)):
        return False
    if any(
        (B[i][j] == 0) != (B[j][i] == 0) or B[i][j] * B[j][i] > 0
        for i in range(n)
        for j in range(n)
    ):
        return False
    scale = [None] * n
    for start in range(n):
        if scale[start] is None:
            scale[start] = Fraction(1)
            stack = [start]
            while stack:
                i = stack.pop()
                for j in range(n):
                    if B[i][j]:
                        implied = scale[i] * Fraction(B[i][j], -B[j][i])
                        if scale[j] is None:
                            scale[j] = implied
                            stack.append(j)
                        elif scale[j] != implied:
                            return False
    return True


def plain_eliminate(prod, basis, lead_index):
    """Greedy graded-lex elimination with the ring operations.

    Each step subtracts basis[i].value.scale(c) from a new polynomial.
    Returns the nonzero constants by basis index and the residual.
    """
    coeffs: Dict[int, int] = {}
    while prod:
        lead = max(prod.terms, key=lambda e: (sum(e), e))
        i = lead_index.get(lead)
        if i is None:
            break
        c = prod.terms[lead]
        coeffs[i] = coeffs.get(i, 0) + c
        prod = prod - basis[i].value.scale(c)
    return {i: c for i, c in sorted(coeffs.items()) if c != 0}, prod


def plain_chart_tables(basis, coefficients):
    """Expansion constants as one table per chart, one scan per chart.

    Chart by chart, every constant's alias list is scanned for entries on
    that chart; charts with no entry are left out.
    """
    tables = {}
    for chart in range(1, 6):
        entries = {}
        for idx, coeff in coefficients.items():
            for alias_chart, m in basis[idx].aliases:
                if alias_chart == chart:
                    entries[m] = coeff
        if entries:
            tables[chart] = LaurentPoly(2, entries)
    return tables


def _dense_mul(A, B):
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(len(B))) for j in range(len(B[0])))
        for i in range(len(A))
    )


def _dense_add(A, B, sign=1):
    return tuple(tuple(a + sign * b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def _dense_pos(A):
    return tuple(tuple(max(e, 0) for e in row) for row in A)


def dense_cg_step(C, G, B_t, B0, k):
    """The matrix form of one C/G mutation step, by dense products.

    C' = C (J_k + [B_t]_+^{row k}) + [-C]_+^{col k} B_t
    G' = G (J_k + [B_t]_+^{col k}) - B0 [C]_+^{col k}
    where J_k is the identity with entry (k, k) negated and the row/col
    superscripts zero out all other rows/columns.  Directions are 1-based.
    """
    n = len(C)
    kk = k - 1
    J = tuple(
        tuple((-1 if i == kk else 1) if i == j else 0 for j in range(n)) for i in range(n)
    )
    pos_b = _dense_pos(B_t)
    row_k = tuple(row if i == kk else (0,) * n for i, row in enumerate(pos_b))
    col_k = tuple(tuple(e if j == kk else 0 for j, e in enumerate(row)) for row in pos_b)
    neg_c_col = tuple(tuple(max(-e, 0) if j == kk else 0 for j, e in enumerate(row)) for row in C)
    pos_c_col = tuple(tuple(max(e, 0) if j == kk else 0 for j, e in enumerate(row)) for row in C)
    C2 = _dense_add(_dense_mul(C, _dense_add(J, row_k)), _dense_mul(neg_c_col, B_t))
    G2 = _dense_add(_dense_mul(G, _dense_add(J, col_k)), _dense_mul(B0, pos_c_col), sign=-1)
    return C2, G2


def dense_d_vector_step(D, B, k):
    """Denominator-vector recursion with every sum taken over all rows.

    d'_k = -d_k + max(sum_i [b_ik]_+ d_i, sum_i [-b_ik]_+ d_i), componentwise;
    other columns are untouched.  Directions are 1-based.
    """
    n = len(D)
    kk = k - 1
    out = [list(row) for row in D]
    for j in range(n):
        s_plus = sum(max(B[i][kk], 0) * D[j][i] for i in range(n))
        s_minus = sum(max(-B[i][kk], 0) * D[j][i] for i in range(n))
        out[j][kk] = -D[j][kk] + max(s_plus, s_minus)
    return tuple(tuple(row) for row in out)


def plain_check_separation(seed, G, B0):
    """The separation check with both specializations by substitute_ones.

    For each cluster position i, the variable with the frozen variables set
    to 1 is compared with x^{g_i} F_i(y-hat), where F_i is the variable with
    the exchangeable ones set to 1 and y-hat_t = prod_j x_j^{b0_jt}.
    Returns (index, specialized variable, reconstructed form) per mismatch.
    """
    n = seed.n
    mismatches = []
    for i in range(n):
        lhs = seed.cluster[i].substitute_ones(range(n, 2 * n))
        fpoly = seed.cluster[i].substitute_ones(range(n))
        hat_terms: Dict[tuple, int] = {}
        for cexp, coeff in fpoly.terms.items():
            exp = tuple(sum(cexp[t] * B0[j][t] for t in range(n)) for j in range(n))
            hat_terms[exp] = hat_terms.get(exp, 0) + coeff
        g_col = tuple(G[j][i] for j in range(n))
        rhs = LaurentPoly(n, hat_terms).shift(g_col)
        if lhs != rhs:
            mismatches.append((i, lhs, rhs))
    return mismatches


def dense_mutate_matrix(B, k):
    """Matrix mutation by the full entry formula, every entry recomputed.

    b'_ij = -b_ij if i = k or j = k, else b_ij + [b_ik]_+ b_kj + b_ik [-b_kj]_+.
    """
    n = len(B)
    kk = k - 1
    return tuple(
        tuple(
            -B[i][j]
            if kk in (i, j)
            else B[i][j] + max(B[i][kk], 0) * B[kk][j] + B[i][kk] * max(-B[kk][j], 0)
            for j in range(n)
        )
        for i in range(n)
    )


def trop_mul(a, b):
    """Product in the tropical semifield on exponent vectors: a + b."""
    if len(a) != len(b):
        raise ValueError(f"rank mismatch: {len(a)} vs {len(b)}")
    return tuple(e + f for e, f in zip(a, b))


def trop_inverse(a):
    """Inverse in the tropical semifield: -a."""
    return tuple(-e for e in a)


def trop_oplus(a, b):
    """Tropical sum: the componentwise minimum of the exponents."""
    if len(a) != len(b):
        raise ValueError(f"rank mismatch: {len(a)} vs {len(b)}")
    return tuple(min(e, f) for e, f in zip(a, b))


def trop_one_oplus(a):
    """1 (+) a: the componentwise minimum with 0."""
    return trop_oplus((0,) * len(a), a)


def trop_split_pm(a):
    """The pair (a / (1 (+) a), 1 / (1 (+) a)): exponents [a]_+ and [-a]_+."""
    h = trop_one_oplus(a)
    return trop_mul(a, trop_inverse(h)), trop_inverse(h)


def plain_mutate(seed, k):
    """Seed mutation with every exchange binomial multiplied out and divided
    by plain_div_exact.

    Coefficients take the tropical semifield route, through the trop_*
    helpers above: with h = 1 (+) y_k, the binomial's frozen monomials are
    y_k / h and 1 / h, y_k becomes y_k^-1, and y_i becomes
    y_i y_k^{[b_ki]_+} h^{-b_ki}.
    """
    n = seed.n
    kk = k - 1
    yk = seed.y[kk].exponents
    h = trop_one_oplus(yk)
    plus, minus = trop_split_pm(yk)
    m = seed.num_vars
    pos = LaurentPoly.monomial(m, (0,) * n + plus)
    neg = LaurentPoly.monomial(m, (0,) * n + minus)
    for j in range(n):
        bjk = seed.B[j][kk]
        if bjk > 0:
            pos = pos * seed.cluster[j] ** bjk
        elif bjk < 0:
            neg = neg * seed.cluster[j] ** (-bjk)
    new_x = plain_div_exact(pos + neg, seed.cluster[kk])
    new_y = [y.exponents for y in seed.y]
    new_y[kk] = trop_inverse(yk)
    for i in range(n):
        if i != kk:
            bki = seed.B[kk][i]
            gain = tuple(e * max(bki, 0) for e in yk)
            loss = tuple(f * -bki for f in h)
            new_y[i] = trop_mul(trop_mul(new_y[i], gain), loss)
    new_cluster = list(seed.cluster)
    new_cluster[kk] = new_x
    return Seed(
        dense_mutate_matrix(seed.B, k),
        tuple(tuple(y[r] for y in new_y) for r in range(seed.num_frozen)),
        tuple(new_cluster),
        seed.history + (k,),
    )


def plain_seed_key(seed):
    """Canonical form of any seed under simultaneous permutation of positions.

    The variables' key()s in sorted order, with the columns of the frozen
    rows and the rows and columns of B permuted alike.  Labels are not read,
    so keys compare across sweeps and outside them.
    """
    perm = sorted(range(seed.n), key=lambda i: seed.cluster[i].key())
    return (
        tuple(seed.cluster[p].key() for p in perm),
        tuple(tuple(row[p] for p in perm) for row in seed.frozen),
        tuple(tuple(seed.B[pr][pc] for pc in perm) for pr in perm),
    )


def plain_exchange_graph(seed, budget=None, step=None):
    """Breadth-first search over plain_mutate, with no exchange memo.

    Same visiting order and budget rule as the package's search: classes are
    yielded in the order first reached, level by level, and the first step
    that reaches a new class once `budget` classes (default DEFAULT_BUDGET)
    are known raises RuntimeError.  step(s, k) replaces plain_mutate when
    given.
    """
    return _level_search(seed, seed.n, step or plain_mutate, plain_seed_key, budget)


def plain_principal_states(n, budget=None):
    """Every principal state of the rank-n pattern, one state_step per edge.

    The same level-by-level search, stepping each state in every direction
    with state_step and no exchange memo, and keying each class on
    plain_seed_key of its seed.
    """
    return _level_search(
        principal_state(a_n_matrix(n)), n, state_step, lambda st: plain_seed_key(st.seed), budget
    )


def plain_flip_graph(start, budget=None):
    """Every triangulation reachable from start by flips, with no seeds.

    The same level-by-level search, stepping each triangulation with flip
    in every direction and keying each on its set of diagonals.
    """
    return list(
        _level_search(start, start.n, flip, lambda tri: frozenset(tri.diagonal_pairs()), budget)
    )


def _level_search(start, n, step, key, budget):
    if budget is None:
        budget = DEFAULT_BUDGET
    known = {key(start)}
    yield start
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            for k in range(1, n + 1):
                t = step(s, k)
                t_key = key(t)
                if t_key not in known:
                    if len(known) >= budget:
                        raise RuntimeError("exchange graph not closed within budget")
                    known.add(t_key)
                    nxt.append(t)
                    yield t
        frontier = nxt


def free_path_sum(tri, a, b):
    """The coefficient-free variable of chord {a, b}, summed path by path.

    Each admissible path contributes a monomial in the n diagonal variables:
    odd steps multiply, even steps divide, and boundary edges are skipped
    (they evaluate to 1).  The paths come from enumerate_t_paths; the
    monomial rule and the sum are this function's own.
    """
    terms: Dict[Tuple[int, ...], int] = {}
    for path in enumerate_t_paths(tri, a, b):
        exps = [0] * tri.n
        for step, lab in enumerate(path.edge_labels, start=1):
            if lab <= tri.n:
                exps[lab - 1] += 1 if step % 2 == 1 else -1
        e = tuple(exps)
        terms[e] = terms.get(e, 0) + 1
    return LaurentPoly(tri.n, terms)


def intersection_parameter(chord, a, b):
    """The exact t in (0, 1) at which chord meets the segment from a to b.

    Vertex v sits at (v, v^2): points on a parabola are in strictly convex
    position, with 0..size-1 counterclockwise.  With A, B, C, D the points
    of a, b and the chord's ends, solving (A + t(B - A) - C) x (D - C) = 0
    gives t = (C - A) x (D - C) / (B - A) x (D - C).
    """
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = ((v, v * v) for v in (a, b, *chord))
    den = (bx - ax) * (dy - cy) - (by - ay) * (dx - cx)
    if den == 0:
        raise ValueError(f"chord {chord} is parallel to segment {(a, b)}")
    return Fraction((cx - ax) * (dy - cy) - (cy - ay) * (dx - cx), den)


def geometric_crossing_order(tri, a, b):
    """Labels of the diagonals crossing chord {a, b}, by intersection_parameter."""
    gamma = tuple(sorted((a, b)))
    labels = [k for k in range(1, tri.n + 1) if crosses(tri.pair_of(k), gamma)]
    return sorted(labels, key=lambda k: intersection_parameter(tri.pair_of(k), a, b))


def assert_valid_t_path(tri, a, b, path):
    """Re-check a path against the admissibility rules, trusting no enumerator.

    Endpoints and connectivity, distinct labels, odd length, a crossing
    edge at every even step, and crossing edges in increasing
    intersection_parameter.  Raises ValueError naming the failed rule.
    """
    v, labs = path.vertices, path.edge_labels
    if len(v) != len(labs) + 1:
        raise ValueError("vertex/label length mismatch")
    if v[0] != a or v[-1] != b:
        raise ValueError("path endpoints differ from requested vertices")
    for i, lab in enumerate(labs):
        if tuple(sorted((v[i], v[i + 1]))) != tri.pair_of(lab):
            raise ValueError(f"step {i + 1} does not walk edge {lab}")
    if len(set(labs)) != len(labs):
        raise ValueError("edge labels repeat")
    if len(labs) % 2 == 0:
        raise ValueError("path length is even")
    gamma = tuple(sorted((a, b)))
    params = []
    for i, lab in enumerate(labs):
        edge_crosses = crosses(tri.pair_of(lab), gamma)
        if (i + 1) % 2 == 0 and not edge_crosses:
            raise ValueError(f"even step {i + 1} does not cross the expansion chord")
        if edge_crosses:
            params.append(intersection_parameter(tri.pair_of(lab), a, b))
    if any(p2 <= p1 for p1, p2 in zip(params, params[1:])):
        raise ValueError("crossing edges out of proximity order")


def rotation_b_matrix(tri):
    """The extended exchange matrix by the rotation rule, face by face.

    Two sides sharing a vertex v in a common triangle get +1 when sweeping
    the first onto the second about v through the triangle turns
    counterclockwise; with vertices numbered counterclockwise that compares
    the cyclic positions of the far endpoints after v.
    """
    n, size = tri.n, tri.size
    edges = set(tri.edges)
    B = [[0] * n for _ in range(tri.num_edges)]
    for face in combinations(range(size), 3):
        sides = list(combinations(face, 2))
        if not edges.issuperset(sides):
            continue
        for e_i, e_j in permutations(sides, 2):
            j = tri.label_of(e_j)
            if j > n:
                continue
            (v,) = set(e_i) & set(e_j)
            far_i, far_j = (e[0] if e[1] == v else e[1] for e in (e_i, e_j))
            before = (far_i - v - 1) % size < (far_j - v - 1) % size
            B[tri.label_of(e_i) - 1][j - 1] = 1 if before else -1
    return B


def boundary_seed(tri):
    """The triangulation's seed, its 2n+3 variables indexed by edge label - 1:
    the diagonals form the cluster and the boundary edges are frozen."""
    ext = rotation_b_matrix(tri)
    return geometric_seed(ext[: tri.n], ext[tri.n :])
