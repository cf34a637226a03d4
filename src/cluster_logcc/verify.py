"""Machine checks for the log-concavity claims and the exploratory searches.

Each checker returns a Report.  A report's status is "verified" or
"falsified" for claims with a definite expected outcome at the requested
scope, and "exploratory" for open-ended searches, where any violation found
is recorded as a witness instead of failing.  Reports carry no timing data
so that serialized output is byte-stable across runs.

Claim identifiers accepted by run_claim, each with the scope flags it reads
(_CHECKERS names them; a flag a claim does not read is a usage error):

  main1        every cluster variable over the snake triangulation has a
               log-concave numerator; path expansion and seed mutation must
               produce the same set of variables
  coeff012     numerator coefficients are 1 or 2 (coefficient-free), and
               all 1 when boundary edges are kept as frozen variables
  gyo21        the x->1 degree matrix equals the positive part of the
               denominator matrix, seed by seed (plus the companion-matrix
               duality and denominator cross-checks)
  fpoly        every x->1 specialization is log-concave with degrees 0/1
  separation   each variable factors as a frozen monomial times its x->1
               specialization evaluated at the hatted monomials
  a2-monomials rank-2 cluster monomials: log-concave numerators, the
               binomial closed form on the middle chart, and the supporting
               binomial-coefficient inequality
  conj-an      exploratory: log-concavity of cluster monomial numerators in
               higher ranks
  conj1-a2     exploratory: expansion constants of products of rank-2
               cluster monomials, arranged chart by chart, stay nonnegative
               and log-concave

The seed sweeps come from pattern.py.  fpoly reads the principal one's
seeds; gyo21 and separation read them with companions (principal_states).
main1, gyo21, fpoly and separation each also count the sweep's seeds
against Catalan(n + 1) and its variables against n(n + 3)/2.  The same
Catalan(n + 1) bounds every type-A sweep, conj-an's too: a sweep that meets
more classes stops with pattern's "exchange graph not closed within budget"
error, never with a truncated report.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .poly import (
    ExponentCodec,
    LaurentPoly,
    is_log_concave,
    normalize_denominator,
    poly_to_json,
)
from .pattern import (
    Matrix,
    a_n_matrix,
    check_separation,
    coefficient_free_seed,
    enumerate_exchange_graph,
    f_data,
    per_variable,
    principal_seed,
    principal_states,
)
from .polygon import boundary_to_one, chords, expand_variable, zigzag

WITNESS_CAP = 20


class Report:
    """A checker's findings; status and ok are read off the witness list."""

    def __init__(self, claim: str, scope: Dict[str, int], exploratory: bool = False) -> None:
        self.claim, self.scope, self.exploratory = claim, scope, exploratory
        self.witnesses: List[dict] = []
        self.stats: Dict[str, object] = {}
        self.found = 0  # witnesses passed to add(), kept or not

    def add(self, witness: dict) -> None:
        """Keep the first WITNESS_CAP witnesses of a scan; count the rest."""
        self.found += 1
        if self.found <= WITNESS_CAP:
            self.witnesses.append(witness)

    @property
    def status(self) -> str:
        """Exploratory for open searches; otherwise falsified iff a witness was found."""
        if self.exploratory:
            return "exploratory"
        return "falsified" if self.witnesses else "verified"

    @property
    def ok(self) -> bool:
        return not self.witnesses

    def to_json_dict(self) -> dict:
        """The report's JSON; a scan cut at WITNESS_CAP adds the uncut total
        as stats["num_witnesses"] after the claim's own stats."""
        stats = dict(self.stats)
        if self.found > WITNESS_CAP:
            stats["num_witnesses"] = self.found
        return {
            "claim": self.claim,
            "scope": dict(self.scope),
            "status": self.status,
            "witnesses": list(self.witnesses),
            "stats": stats,
        }


def _logcc_witness(p, n: int, codec: Optional[ExponentCodec] = None, **extra) -> Optional[dict]:
    """A witness unless p is log-concave; a negative coefficient gives a
    negative-coefficient witness, never is_log_concave's ValueError.  With a
    codec, p is its packed terms: codec.scan checks them, only a witness
    unpacks them.  p is scanned where it lies (a shift moves no coefficient
    and keeps the scan order); only a witness forms the numerator over the
    first n variables, and its point and poly are in those coordinates.
    """
    out = {"kind": "not-log-concave", **extra}
    res = None
    if any(c < 0 for c in (p.values() if codec else p.coefficients())):
        out["kind"] = "negative-coefficient"
    else:
        res = codec.scan(p) if codec else is_log_concave(p)
        if res.ok:
            return None
    if codec:
        p = codec.unpack(p)
    d = [-e for e in p.min_degrees()[:n]] + [0] * (p.num_vars - n)
    if res is not None:
        out["axis"] = res.axis
        out["point"] = [a + b for a, b in zip(res.point, d)]
    out["poly"] = poly_to_json(p.shift(d))
    return out


def _mat_mul(A: Matrix, B: Matrix) -> Matrix:
    """A B, adding row t of B into row i only where a_it != 0."""
    out = []
    for row in A:
        acc = [0] * len(B[0])
        for a, b_row in zip(row, B):
            if a:
                acc = [s + a * b for s, b in zip(acc, b_row)]
        out.append(tuple(acc))
    return tuple(out)


def _a_n_seeds(n: int) -> int:
    """Catalan(n + 1), the number of seeds of type A_n: each type-A sweep's
    budget and the seed count _check_counts expects.  A rank below 1 is the
    same ValueError a_n_matrix raises, not math.comb's."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    return math.comb(2 * n + 2, n + 1) // (n + 2)


def _check_counts(report: Report, n: int, num_seeds: int, **num_vars: int) -> None:
    """Witnesses unless the sweep met the Catalan(n + 1) seeds and each route
    (keyword) the n(n + 3)/2 variables of type A_n."""
    expected = _a_n_seeds(n)
    if num_seeds != expected:
        report.add({"kind": "seed-count", "expected": expected, "got": num_seeds})
    expected = n * (n + 3) // 2
    for route, got in num_vars.items():
        if got != expected:
            report.add({"kind": "count", "route": route, "expected": expected, "got": got})


# ---- claim checkers ----


def verify_main1(n: int) -> Report:
    """Numerator log-concavity for all variables over the snake triangulation.

    The variables are produced twice: by admissible-path expansion of every
    chord, and independently by exhausting seed mutation from the matching
    coefficient-free seed.  The sweep must find Catalan(n+1) seeds, the two
    sets must agree, the count must be n(n+3)/2, and every numerator must
    pass the log-concavity check.
    """
    report = Report("main1", {"rank": n})
    tri = zigzag(n)
    by_key: Dict[tuple, LaurentPoly] = {}
    for a, b in chords(tri.size):
        p = boundary_to_one(tri, expand_variable(tri, a, b))
        by_key[p.key()] = p

    num_seeds = 0
    variables: Dict[int, LaurentPoly] = {}
    for s in enumerate_exchange_graph(coefficient_free_seed(a_n_matrix(n)), _a_n_seeds(n)):
        num_seeds += 1
        per_variable(s, variables, lambda x: x)
    mutated = {x.key(): x for x in variables.values()}
    _check_counts(report, n, num_seeds, paths=len(by_key), mutation=len(mutated))
    for route, mine, other in (("paths-only", by_key, mutated), ("mutation-only", mutated, by_key)):
        for key in sorted(set(mine) - set(other)):
            report.add({"kind": "route-mismatch", "route": route, "poly": poly_to_json(mine[key])})

    max_coeff = 0
    for key in sorted(by_key):
        p = by_key[key]
        if not p:
            continue  # the zero polynomial is witnessed by the route comparison alone
        max_coeff = max(max_coeff, max(p.coefficients()))
        w = _logcc_witness(p, n)
        if w is not None:
            report.add(w)

    report.stats = {
        "num_variables": len(by_key),
        "num_seeds": num_seeds,
        "max_numerator_coefficient": max_coeff,
    }
    return report


def verify_coeff_bounds(n: int) -> Report:
    """Numerator coefficient bounds over the snake triangulation.

    Each chord is expanded once with the boundary edges kept as frozen
    variables, which must separate all paths (every coefficient 1); with
    the boundary set to 1 a monomial may only repeat twice.
    """
    report = Report("coeff012", {"rank": n})
    tri = zigzag(n)
    diag_pairs = set(tri.diagonal_pairs())
    num_chords = 0
    has_two = False
    for a, b in chords(tri.size):
        if (a, b) in diag_pairs:
            continue  # plain variables, coefficient 1 trivially
        num_chords += 1
        kept = expand_variable(tri, a, b)
        free = boundary_to_one(tri, kept)
        free_coeffs = set(free.coefficients())
        if not free_coeffs or not free_coeffs <= {1, 2}:
            report.add(
                {
                    "kind": "coefficient-free-out-of-range",
                    "chord": [a, b],
                    "coefficients": sorted(free_coeffs),
                    "poly": poly_to_json(free),
                }
            )
        if 2 in free_coeffs:
            has_two = True
        kept_coeffs = set(kept.coefficients())
        if kept_coeffs != {1}:
            report.add(
                {
                    "kind": "kept-coefficient-not-one",
                    "chord": [a, b],
                    "coefficients": sorted(kept_coeffs),
                    "poly": poly_to_json(kept),
                }
            )
    report.stats = {"num_chords": num_chords, "has_coefficient_two": has_two}
    return report


def verify_fd(n: int) -> Report:
    """Degree matrix vs denominator matrix at every principal seed.

    Checks, seed by seed: the x->1 degree matrix equals the entrywise
    positive part of the denominator matrix; the initial matrix intertwines
    the two companion matrices; denominator columns match the normalized
    denominators of the actual variables; coefficient exponent vectors match
    the columns of the coefficient companion matrix.

    The facts that read only the variable, its x->1 degree vector and its
    normalized denominator vector, are computed once per distinct variable
    (per_variable).  The comparisons with seed data run per seed, in the
    order above, on columns of D, C and the frozen rows split once per seed.
    """
    report = Report("gyo21", {"rank": n})
    num_seeds = 0

    def fd_vectors(x: LaurentPoly) -> Tuple[tuple, tuple]:  # (f-vector, d-vector)
        return x.substitute_ones(range(n)).max_degrees(), normalize_denominator(x, n).d_vector

    facts: Dict[int, Tuple[tuple, tuple]] = {}
    for idx, st in enumerate(principal_states(n, _a_n_seeds(n))):
        num_seeds += 1
        seed = st.seed
        cols = per_variable(seed, facts, fd_vectors)
        d_cols = list(zip(*st.D))
        if any(f != tuple(max(d, 0) for d in d_col) for (f, _), d_col in zip(cols, d_cols)):
            report.add(
                {
                    "kind": "degree-vs-denominator",
                    "seed_index": idx,
                    "history": list(seed.history),
                    "f_matrix": [[f[j] for f, _ in cols] for j in range(n)],
                    "d_matrix": [list(r) for r in st.D],
                }
            )
        if _mat_mul(st.B0, st.C) != _mat_mul(st.G, seed.B):
            report.add(
                {
                    "kind": "companion-duality",
                    "seed_index": idx,
                    "history": list(seed.history),
                    "C": [list(r) for r in st.C],
                    "G": [list(r) for r in st.G],
                }
            )
        columns = zip(cols, d_cols, zip(*st.C), zip(*seed.frozen))
        for i, ((_, d_vector), d_col, c_col, y_col) in enumerate(columns):
            if d_vector != d_col:
                report.add(
                    {
                        "kind": "denominator-column",
                        "seed_index": idx,
                        "position": i,
                        "expected": list(d_vector),
                        "got": list(d_col),
                    }
                )
            if y_col != c_col:
                report.add(
                    {
                        "kind": "coefficient-column",
                        "seed_index": idx,
                        "position": i,
                        "y": list(y_col),
                        "c": list(c_col),
                    }
                )
    _check_counts(report, n, num_seeds, mutation=len(facts))
    report.stats = {"num_seeds": num_seeds}
    return report


def verify_fpoly_logcc(n: int) -> Report:
    """Log-concavity and 0/1 degrees of all x->1 specializations.

    The F-polynomials read only the cluster variables, so this reads the
    principal sweep's seeds without principal_states' companions.
    """
    report = Report("fpoly", {"rank": n})
    num_seeds = 0
    memo: Dict[int, LaurentPoly] = {}
    fpolys: Dict[tuple, LaurentPoly] = {}
    for seed in enumerate_exchange_graph(principal_seed(a_n_matrix(n)), _a_n_seeds(n)):
        num_seeds += 1
        for fp in f_data(seed, memo=memo).f_polynomials:
            fpolys.setdefault(fp.key(), fp)
    _check_counts(report, n, num_seeds, mutation=len(memo))
    for key in sorted(fpolys):
        fp = fpolys[key]
        w = _logcc_witness(fp, 0)  # an F-polynomial is checked as it is
        if w is not None:
            report.add(w)
        fvec = fp.max_degrees()
        if not all(e in (0, 1) for e in fvec):
            report.add(
                {"kind": "degree-out-of-range", "degrees": list(fvec), "poly": poly_to_json(fp)}
            )
    report.stats = {"num_seeds": num_seeds, "num_f_polynomials": len(fpolys)}
    return report


def verify_separation(n: int) -> Report:
    """Monomial-times-specialization factorization at every principal seed.

    num_variables_checked counts the (seed, position) pairs covered.
    """
    report = Report("separation", {"rank": n})
    num_seeds = 0
    memo: dict = {}
    for idx, st in enumerate(principal_states(n, _a_n_seeds(n))):
        num_seeds += 1
        for i, lhs, rhs in check_separation(st.seed, st.G, st.B0, memo=memo):
            report.add(
                {
                    "kind": "separation-mismatch",
                    "seed_index": idx,
                    "history": list(st.seed.history),
                    "position": i,
                    "specialized": poly_to_json(lhs),
                    "reconstructed": poly_to_json(rhs),
                }
            )
    _check_counts(report, n, num_seeds, mutation=len(memo))
    report.stats = {"num_seeds": num_seeds, "num_variables_checked": n * num_seeds}
    return report


# ---- rank-2 cluster monomials and their expansion constants ----


def _a2_variables() -> Tuple[LaurentPoly, ...]:
    x1 = LaurentPoly.variable(2, 0)
    x2 = LaurentPoly.variable(2, 1)
    v = LaurentPoly(2, {(-1, 1): 1, (-1, 0): 1})  # (x2 + 1) / x1
    u = LaurentPoly(2, {(0, -1): 1, (-1, 0): 1, (-1, -1): 1})  # (x1 + x2 + 1) / (x1 x2)
    w = LaurentPoly(2, {(1, -1): 1, (0, -1): 1})  # (x1 + 1) / x2
    return x1, x2, v, u, w


def a2_charts() -> Tuple[Tuple[LaurentPoly, LaurentPoly], ...]:
    """The five rank-2 clusters, in cyclic order; adjacent charts share a variable."""
    x1, x2, v, u, w = _a2_variables()
    return ((x1, x2), (v, x2), (v, u), (w, u), (w, x1))


def _powers(z: LaurentPoly, deg: int) -> List[LaurentPoly]:
    """z^0, ..., z^deg, one multiplication per step."""
    table = [LaurentPoly.const(z.num_vars, 1)]
    for _ in range(deg):
        table.append(table[-1] * z)
    return table


def _exponent_vectors(n: int, deg: int) -> List[Tuple[int, ...]]:
    """The exponent vectors of length n with sum at most deg, in ascending
    lexicographic order: one extension step per coordinate, none discarded."""
    vectors: List[Tuple[int, ...]] = [()]
    for _ in range(n):
        vectors = [v + (e,) for v in vectors for e in range(deg + 1 - sum(v))]
    return vectors


def _cluster_monomials(
    clusters: Iterable[Sequence[LaurentPoly]], deg: int
) -> Tuple[ExponentCodec, Iterator[Tuple[int, Tuple[int, ...], Dict[int, int]]]]:
    """The monomials of total degree at most deg in each cluster's variables,
    each product of two or more variables formed in one cluster only.

    Returns the codec for the clusters' variables, and an iterator of
    (cluster index, exponents, value packed with it): clusters in sequence,
    then exponent vectors in ascending lexicographic order.  Each distinct
    variable (by key()) has one _powers table, packed once, and one bit.
    Products are formed on packed keys, of nonzero factors only, and a
    product of two or more variables whose variable set an earlier cluster
    held is skipped before any product: that cluster yielded it.  The
    constant and single-variable powers are yielded in every cluster, so
    rank-2 aliases stay whole.  A negative deg is a ValueError, raised
    before any cluster is read.
    """
    if deg < 0:
        raise ValueError("degree bound must be nonnegative")
    clusters = list(clusters)  # the codec's bound reads every variable
    distinct = {x.key(): x for cluster in clusters for x in cluster}
    codec = ExponentCodec.for_products(list(distinct.values()), deg)
    powers = {  # key() -> (bit, packed powers)
        key: (1 << i, [codec.pack(z) for z in _powers(x, deg)])
        for i, (key, x) in enumerate(distinct.items())
    }

    def monomials():
        held = set()  # variable sets of two or more that earlier clusters held
        for idx, cluster in enumerate(clusters):
            bits, tables = zip(*(powers[x.key()] for x in cluster))
            met = []
            for m in _exponent_vectors(len(tables), deg):
                mask = 0
                for bit, e in zip(bits, m):
                    if e:
                        mask |= bit
                if mask & (mask - 1):  # two or more variables
                    if mask in held:
                        continue
                    met.append(mask)
                value = None
                for table, e in zip(tables, m):
                    if e:
                        value = table[e] if value is None else codec.mul(value, table[e])
                yield idx, m, tables[0][0] if value is None else value
            held.update(met)

    return codec, monomials()


class BasisElement(NamedTuple):
    value: LaurentPoly
    degree: int
    leading: Tuple[int, int]
    aliases: Tuple[Tuple[int, Tuple[int, int]], ...]  # (chart, (m1, m2))


def _basis_element_json(elem: BasisElement) -> dict:
    return {
        "degree": elem.degree,
        "leading": list(elem.leading),
        "aliases": [[chart, list(m)] for chart, m in elem.aliases],
    }


def _pair_json(basis: List[BasisElement], i: int, j: int) -> dict:
    return {"left": _basis_element_json(basis[i]), "right": _basis_element_json(basis[j])}


def a2_basis(deg: int) -> List[BasisElement]:
    """All rank-2 cluster monomials of total degree at most deg, deduplicated.

    Monomials supported on a variable shared by two charts coincide as
    polynomials and are merged, keeping every (chart, exponents) alias; each
    is unpacked once.  Elements are sorted by graded-lex leading exponent
    (the largest packed key); leads are distinct and carry coefficient 1,
    which makes the greedy expansion in _eliminate well defined.
    """
    codec, monomials = _cluster_monomials(a2_charts(), deg)
    merged: Dict[frozenset, List] = {}
    for idx, m, value in monomials:
        degree, key = sum(m), frozenset(value.items())
        entry = merged.get(key)
        if entry is None:
            merged[key] = [value, degree, [(idx + 1, m)]]
        else:
            if entry[1] != degree:
                raise RuntimeError("inconsistent degree among aliases")
            entry[2].append((idx + 1, m))
    elements = []
    for terms, degree, aliases in merged.values():
        lead = max(terms)
        if terms[lead] != 1:
            raise RuntimeError("basis leading coefficient is not 1")
        value, lead = codec.unpack(terms), codec.decode(lead)
        elements.append(BasisElement(value, degree, lead, tuple(aliases)))
    elements.sort(key=lambda e: (sum(e.leading), e.leading))
    if len({e.leading for e in elements}) != len(elements):
        raise RuntimeError("leading exponents collide; greedy expansion is ambiguous")
    return elements


_ELIMINATION_GUARD = 1_000_000


def _eliminate(
    prod: Dict[int, int], basis: List[Dict[int, int]], lead_index: Dict[int, int]
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Greedy elimination of prod over the basis values on leading terms.

    All are on one ExponentCodec's keys, whose order is graded-lex, so the
    lead is the largest key.  Each step cancels it against the unique basis
    value carrying it, subtracting in place from prod (the caller gives it
    up).  Returns the nonzero constants by basis index and the residual, on
    the same keys, nonzero when some lead has no basis element.
    """
    coeffs: Dict[int, int] = {}
    rem = prod
    steps = 0
    while rem:
        steps += 1
        if steps > _ELIMINATION_GUARD:
            raise RuntimeError("expansion did not terminate within the step guard")
        lead = max(rem)
        i = lead_index.get(lead)
        if i is None:
            break
        c = rem[lead]
        coeffs[i] = coeffs.get(i, 0) + c
        for e, b in basis[i].items():
            acc = rem.get(e, 0) - c * b
            if acc:
                rem[e] = acc
            else:
                del rem[e]
    return {i: c for i, c in sorted(coeffs.items()) if c != 0}, rem


def _chart_tables(
    basis: List[BasisElement], coefficients: Dict[int, int]
) -> Dict[int, LaurentPoly]:
    """Arrange expansion constants as one exponent-indexed table per chart.

    One pass over the constants fills every chart's entries, in index order
    within each chart; the tables come back in ascending chart order.  The
    constants are the nonzero ints _eliminate returns, so each table's term
    dict is clean as built.
    """
    entries: Dict[int, Dict[tuple, int]] = {}
    for idx, coeff in coefficients.items():
        for chart, m in basis[idx].aliases:
            entries.setdefault(chart, {})[m] = coeff
    return {chart: LaurentPoly._trusted(2, entries[chart]) for chart in sorted(entries)}


def verify_a2_monomials(deg: int) -> Report:
    """Rank-2 cluster monomials up to total degree deg.

    Verified facts: every numerator is log-concave; on the middle chart the
    numerator coefficients are products of two binomial coefficients,
    C(m2, k) * C(m1 + m2 - k, l) at (k, l), with denominator exponents
    (m1 + m2, m2); and the inequality C(n, k)^2 >= C(n-1, k) * C(n+1, k)
    holds (checked for n up to 30), which is the slice-wise engine behind
    the closed form's log-concavity.
    """
    report = Report("a2-monomials", {"deg": deg})
    num_monomials = 0
    codec, monomials = _cluster_monomials(a2_charts(), deg)
    for idx, (m1, m2), value in monomials:
        chart = idx + 1
        num_monomials += 1
        w = _logcc_witness(value, 2, codec, chart=chart, exponents=[m1, m2])
        if w is not None:
            report.add(w)
        if chart == 3:
            nd = normalize_denominator(codec.unpack(value), 2)
            expected_terms = {  # positive binomials: clean as built
                (k, l): math.comb(m2, k) * math.comb(m1 + m2 - k, l)
                for k in range(m2 + 1)
                for l in range(m1 + m2 - k + 1)
            }
            if nd.numerator.terms != expected_terms or nd.d_vector != (m1 + m2, m2):
                report.add(
                    {
                        "kind": "closed-form-mismatch",
                        "chart": chart,
                        "exponents": [m1, m2],
                        "numerator": poly_to_json(nd.numerator),
                        "expected": poly_to_json(LaurentPoly(2, expected_terms)),
                        "d_vector": list(nd.d_vector),
                    }
                )

    def _c(nn: int, kk: int) -> int:
        return math.comb(nn, kk) if nn >= 0 else 0

    binom_rows = 31
    for nn in range(binom_rows):
        for kk in range(nn + 1):
            if _c(nn, kk) ** 2 < _c(nn - 1, kk) * _c(nn + 1, kk):
                report.add({"kind": "binomial-inequality", "n": nn, "k": kk})
    report.stats = {"num_monomials": num_monomials, "binomial_rows": binom_rows}
    return report


def explore_an_monomials(n: int, deg: int) -> Report:
    """Exploratory: numerator log-concavity of cluster monomials in rank n.

    Enumerates every cluster, every monomial in its variables up to total
    degree deg.  Violations are recorded as witnesses; none is expected, but
    the claim is open, so the report stays exploratory either way.  The
    monomials come packed from _cluster_monomials; the constant is skipped.
    Only a power of one variable recurs there, so only those are kept.
    """
    report = Report("conj-an", {"rank": n, "deg": deg}, exploratory=True)
    seeds = enumerate_exchange_graph(coefficient_free_seed(a_n_matrix(n)), _a_n_seeds(n))
    num_clusters = num_monomials = 0
    powers_seen = set()
    max_coeff = 0
    codec, monomials = _cluster_monomials((s.cluster for s in seeds), deg)
    for idx, m, value in monomials:
        num_clusters = idx + 1  # every cluster yields its constant monomial first
        if not any(m):
            continue
        if len(m) - m.count(0) == 1:
            key = frozenset(value.items())
            if key in powers_seen:
                continue
            powers_seen.add(key)
        num_monomials += 1
        max_coeff = max(max_coeff, max(value.values()))
        w = _logcc_witness(value, n, codec, seed_index=idx, exponents=list(m))
        if w is not None:
            report.add(w)
    report.stats = {
        "num_clusters": num_clusters,
        "num_monomials": num_monomials,
        "max_numerator_coefficient": max_coeff,
    }
    return report


def explore_a2_structure_constants(deg: int) -> Report:
    """Exploratory: expansion constants of pairwise products of basis elements.

    For every unordered pair of nonconstant basis elements whose degrees sum
    to at most deg, the product is expanded over the cluster monomial basis.
    Expected (and recorded as witnesses when violated): the expansion has no
    residual, every constant is nonnegative, and each chart's table of
    constants is log-concave.
    """
    report = Report("conj1-a2", {"deg": deg}, exploratory=True)
    basis = a2_basis(deg)
    codec = ExponentCodec.for_products(_a2_variables(), deg)
    packed = [codec.pack(e.value) for e in basis]
    lead_index = {codec.encode(e.leading): i for i, e in enumerate(basis)}
    nonconstant = [i for i, e in enumerate(basis) if e.degree > 0]
    num_pairs = 0
    max_constant = 0
    num_unresolved = 0
    for ai, i in enumerate(nonconstant):
        for j in nonconstant[ai:]:
            if basis[i].degree + basis[j].degree > deg:
                continue
            num_pairs += 1
            coeffs, residual = _eliminate(codec.mul(packed[i], packed[j]), packed, lead_index)
            if residual:
                num_unresolved += 1
                report.add(
                    {
                        "kind": "unresolved-residual",
                        "residual": poly_to_json(codec.unpack(residual)),
                        **_pair_json(basis, i, j),
                    }
                )
                continue
            negatives = {t: c for t, c in coeffs.items() if c < 0}
            if negatives:
                report.add(
                    {
                        "kind": "negative-constant",
                        "constants": [
                            [_basis_element_json(basis[t]), c] for t, c in negatives.items()
                        ],
                        **_pair_json(basis, i, j),
                    }
                )
            if coeffs:
                max_constant = max(max_constant, max(coeffs.values()))
            for chart, table in _chart_tables(basis, coeffs).items():
                if any(c <= 0 for c in table.coefficients()):
                    continue  # already witnessed above
                res = is_log_concave(table)
                if not res.ok:
                    report.add(
                        {
                            "kind": "table-not-log-concave",
                            "chart": chart,
                            "axis": res.axis,
                            "point": list(res.point),
                            "table": poly_to_json(table),
                            **_pair_json(basis, i, j),
                        }
                    )
    report.stats = {
        "num_basis": len(basis),
        "num_pairs": num_pairs,
        "max_constant": max_constant,
        "num_unresolved": num_unresolved,
    }
    return report


# Claim identifier -> (the scope flags it reads, its checker), in the order
# the CLI lists them.  A checker takes those flags' values in order.
_CHECKERS = {
    "main1": (("rank",), verify_main1),
    "coeff012": (("rank",), verify_coeff_bounds),
    "gyo21": (("rank",), verify_fd),
    "fpoly": (("rank",), verify_fpoly_logcc),
    "separation": (("rank",), verify_separation),
    "a2-monomials": (("deg",), verify_a2_monomials),
    "conj-an": (("rank", "deg"), explore_an_monomials),
    "conj1-a2": (("deg",), explore_a2_structure_constants),
}
CLAIM_IDS = tuple(_CHECKERS)


def run_claim(claim: str, rank: Optional[int] = None, deg: Optional[int] = None) -> Report:
    """Dispatch a claim identifier to its checker with the given scope.

    The scope flags the claim reads default to rank 3 and deg 6.  A flag it
    does not read must stay None, or a ValueError names the claim and flag.
    """
    if claim not in _CHECKERS:
        raise ValueError(f"unknown claim {claim!r}; expected one of {', '.join(CLAIM_IDS)}")
    reads, checker = _CHECKERS[claim]
    scope = {"rank": rank, "deg": deg}
    unread = [f"--{flag}" for flag, value in scope.items() if value is not None and flag not in reads]
    if unread:
        raise ValueError(f"claim {claim} does not read {', '.join(unread)}")
    defaults = {"rank": 3, "deg": 6}
    return checker(*(defaults[f] if scope[f] is None else scope[f] for f in reads))
