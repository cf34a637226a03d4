"""Seeds, mutation, and exchange-graph search for geometric-type patterns.

A seed holds n exchangeable cluster variables (exact Laurent polynomials in
an ambient ring of n + r variables, the last r being frozen) and the
extended exchange matrix: an n-by-n skew-symmetrizable exchange matrix B and
r frozen rows below it.  n and r are read off those matrices, never stored
beside them.  The seeds are of geometric type: coefficient y_i is column i
of the frozen rows, its exponent vector over the frozen variables, and one
matrix mutation rule mutates B and the frozen rows alike.
Mutation directions and matrix indices are 1-based in the public API,
matching diagonal labels on the polygon side; ambient variable indices are
0-based.

Alongside plain mutation this module tracks the companion data attached to a
mutation path: denominator vectors and the two integer matrices whose columns
record how coefficients and leading monomials transform.  Their recursions
are exercised against frozen expected values in the test suite.

Only this module labels seeds: enumerate_exchange_graph sets up each
sweep's memo and table, names clusters and facets by sorted labels, and
mutates only into classes it has not met; principal_states reads that
sweep.  per_variable keys a caller's per-variable work on the same labels,
in a dict from each label to one value that the sweep's seeds fill in any
order, so f_data, check_separation (one separation form per variable) and
the claims do it once per variable.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from math import gcd
from operator import index, sub

from .poly import LaurentPoly, poly_to_json

Matrix = Tuple[Tuple[int, ...], ...]

DEFAULT_BUDGET = 10000


# ---- integer matrix helpers ----


def _identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _as_matrix(rows: Sequence[Sequence[int]]) -> Matrix:
    """Rows as int tuples; a float entry is a TypeError, never truncated."""
    return tuple(tuple(map(index, row)) for row in rows)


# ---- exchange matrices ----


def a_n_matrix(n: int) -> Matrix:
    """The standard tridiagonal rank-n exchange matrix.

    Superdiagonal signs alternate; the starting sign depends on the parity
    of n so that the matrix agrees with the exchange matrix of the zigzag
    triangulation under the shared labeling convention.  Its Cartan
    counterpart (2 on the diagonal, -|b_ij| off it) is the rank-n chain.
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    B = [[0] * n for _ in range(n)]
    for i in range(1, n):  # 1-based position i of the superdiagonal entry (i, i+1)
        sign = (-1) ** i if n % 2 == 1 else (-1) ** (i + 1)
        B[i - 1][i] = sign
        B[i][i - 1] = -sign
    return _as_matrix(B)


def _mutate_rows(rows: Sequence[Tuple[int, ...]], row_k: Tuple[int, ...], kk: int) -> list:
    """The matrix mutation rule at 0-based kk, applied to rows other than kk.

    a'_ij = a_ij + |a_ik| b_kj when a_ik and b_kj have the same sign, and a_ij
    otherwise, for j != kk; a'_ik = -a_ik.  row_k is row kk of the exchange
    matrix.  Its positive and negative entries are listed once; a row with
    a_ik != 0 adds only over the entries of the matching sign, and a row with
    a_ik = 0 is reused as it is.
    """
    pos = [(j, b) for j, b in enumerate(row_k) if b > 0]
    neg = [(j, b) for j, b in enumerate(row_k) if b < 0]
    out = []
    for row in rows:
        a = row[kk]
        if a == 0:
            out.append(row)
            continue
        new = list(row)
        if a > 0:
            for j, b in pos:
                new[j] += a * b
        else:
            for j, b in neg:
                new[j] -= a * b
        new[kk] = -a
        out.append(tuple(new))
    return out


def mutate_matrix(B: Matrix, k: int) -> Matrix:
    """Matrix mutation in direction k (1-based); an involution.

    Row k is negated.  Every other row follows _mutate_rows, which reuses a
    row with b_ik = 0 and otherwise adds only over the nonzero entries of
    row k whose sign matches b_ik.
    """
    n = len(B)
    if not 1 <= k <= n:
        raise IndexError(f"direction {k} out of range 1..{n}")
    kk = k - 1
    out = _mutate_rows(B, B[kk], kk)  # b_kk = 0, so row k passes through
    out[kk] = tuple(-b for b in B[kk])
    return tuple(out)


def is_skew_symmetrizable(B: Sequence[Sequence[int]]) -> bool:
    """Whether some positive diagonal D makes D*B skew-symmetric."""
    n = len(B)
    if any(len(row) != n or row[i] != 0 for i, row in enumerate(B)):
        return False
    for i in range(n):
        for j in range(n):
            if (B[i][j] == 0) != (B[j][i] == 0):
                return False
            if B[i][j] * B[j][i] > 0:
                return False
    # d_j as an integer pair (p, q) meaning p / q, both positive; d_i b_ij = -d_j b_ji
    scale: List[Optional[Tuple[int, int]]] = [None] * n
    for start in range(n):
        if scale[start] is not None:
            continue
        scale[start] = (1, 1)
        stack = [start]
        while stack:
            i = stack.pop()
            p, q = scale[i]
            for j in range(n):
                if B[i][j] == 0:
                    continue
                num, den = p * abs(B[i][j]), q * abs(B[j][i])
                if scale[j] is None:
                    g = gcd(num, den)
                    scale[j] = (num // g, den // g)
                    stack.append(j)
                elif scale[j][0] * den != num * scale[j][1]:
                    return False
    return True


# ---- seeds ----


class TropicalElement(NamedTuple):
    """y_i as Seed.y reads it: column i of the frozen rows, not stored."""

    exponents: Tuple[int, ...]


class Seed:
    """A labeled seed: exchange matrix B, its frozen rows, cluster.

    frozen holds the num_frozen rows of n ints below B in the extended
    exchange matrix, and y reads its columns as the coefficients; n and
    num_frozen are read off B and frozen.  history records the mutation
    directions that produced the seed and is excluded from equality and
    hashing.  labels, set only inside a sweep, holds one small int per
    cluster variable from that sweep's intern table; it is excluded from
    equality, hashing, repr and seed_to_json.  Seeds are immutable:
    assigning an attribute is an AttributeError.
    """

    __slots__ = ("B", "frozen", "cluster", "history", "labels", "__weakref__")

    def __init__(
        self,
        B: Matrix,
        frozen: Matrix,
        cluster: Tuple[LaurentPoly, ...],
        history: Tuple[int, ...] = (),
        labels: Optional[Tuple[int, ...]] = None,
    ) -> None:
        set_ = object.__setattr__  # __setattr__ below refuses every assignment
        set_(self, "B", B)
        set_(self, "frozen", frozen)
        set_(self, "cluster", cluster)
        set_(self, "history", history)
        set_(self, "labels", labels)

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"cannot assign or delete {name!r}: seeds are immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.B, self.frozen, self.cluster) == (other.B, other.frozen, other.cluster)

    def __hash__(self) -> int:
        return hash((self.B, self.frozen, self.cluster))

    def __repr__(self) -> str:
        return (
            f"Seed(B={self.B!r}, frozen={self.frozen!r}, cluster={self.cluster!r}, "
            f"history={self.history!r})"
        )

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__
        return Seed, (self.B, self.frozen, self.cluster, self.history, self.labels)

    @property
    def n(self) -> int:
        return len(self.B)

    @property
    def num_frozen(self) -> int:
        return len(self.frozen)

    @property
    def num_vars(self) -> int:
        return self.n + self.num_frozen

    @property
    def y(self) -> Tuple[TropicalElement, ...]:
        """The coefficients, read-only: y_i is column i of the frozen rows.
        The package never reads this view; it serves outside readers."""
        return tuple(TropicalElement(tuple(row[i] for row in self.frozen)) for i in range(self.n))


def geometric_seed(B: Sequence[Sequence[int]], frozen_rows: Sequence[Sequence[int]] = ()) -> Seed:
    """Seed with exchange matrix B and one frozen variable per frozen row of n ints.

    y_i is column i of the frozen rows, and the cluster is the first n of
    the n + r ambient variables.
    """
    Bm, frozen = _as_matrix(B), _as_matrix(frozen_rows)
    if not is_skew_symmetrizable(Bm):
        raise ValueError("exchange matrix is not skew-symmetrizable")
    n, r = len(Bm), len(frozen)
    if any(len(row) != n for row in frozen):
        raise ValueError(f"each frozen row must hold {n} entries")
    cluster = tuple(LaurentPoly.variable(n + r, i) for i in range(n))
    return Seed(Bm, frozen, cluster)


def coefficient_free_seed(B: Sequence[Sequence[int]]) -> Seed:
    """Seed over the trivial semifield (no frozen variables)."""
    return geometric_seed(B)


def principal_seed(B: Sequence[Sequence[int]]) -> Seed:
    """Seed with one frozen variable per direction; y_i starts as generator i."""
    return geometric_seed(B, _identity(len(B)))


def _labelled(seed: Seed, table: dict) -> Seed:
    """seed labelled from table, which maps key() to label and gives a new
    variable the next free int; any labels seed carried are replaced."""
    labels = tuple(table.setdefault(x.key(), len(table)) for x in seed.cluster)
    return Seed(seed.B, seed.frozen, seed.cluster, seed.history, labels)


def _exchange_quotient(seed: Seed, kk: int, ck: Tuple[int, ...]) -> LaurentPoly:
    """The exchange binomial at 0-based kk divided by the outgoing variable."""
    n, m = seed.n, seed.num_vars
    zero_x = (0,) * n
    pos = LaurentPoly.monomial(m, zero_x + tuple(max(c, 0) for c in ck))
    neg = LaurentPoly.monomial(m, zero_x + tuple(max(-c, 0) for c in ck))
    for j in range(n):
        bjk = seed.B[j][kk]
        if bjk > 0:
            pos = pos * seed.cluster[j] ** bjk
        elif bjk < 0:
            neg = neg * seed.cluster[j] ** (-bjk)
    return (pos + neg).div_exact(seed.cluster[kk])


def mutate(
    seed: Seed, k: int, *, memo: Optional[dict] = None, table: Optional[dict] = None
) -> Seed:
    """Seed mutation in direction k (1-based).

    The new variable is the exchange binomial divided by the old one; that
    division must be exact (InexactDivisionError here means the ambient
    arithmetic or the seed data is corrupt, and aborts the computation).
    Without a memo it is always computed, and the new seed has no labels.
    A sweep passes each of its steps one exchange memo and one intern
    table, and its seeds carry labels from that table; a memo without a
    table, or a table without a memo, is a ValueError.  The memo is keyed
    on everything the binomial and the division read, by label: the
    outgoing variable, y_k and the sorted (b_jk, x_j) with b_jk != 0.  On a
    miss the new variable is computed, interned in the table once and
    stored with its label; a failed division stores nothing.  Either way
    the new seed's labels are the old ones with position k replaced.
    The frozen rows mutate with B by the same rule, _mutate_rows; when y_k
    is 1 (column k of the frozen rows all 0, as on coefficient-free seeds)
    the new seed reuses seed.frozen itself.
    """
    n = seed.n
    if not 1 <= k <= n:
        raise IndexError(f"direction {k} out of range 1..{n}")
    kk = k - 1
    ck = tuple(row[kk] for row in seed.frozen)
    if memo is None and table is None:
        new_x, labels = _exchange_quotient(seed, kk, ck), None
    else:
        labels = seed.labels
        if labels is None or memo is None or table is None:
            raise ValueError("a memoised mutation needs a memo and a seed labelled from its table")
        exchange = (
            labels[kk],
            ck,
            tuple(sorted([(b, label) for row, label in zip(seed.B, labels) if (b := row[kk])])),
        )
        found = memo.get(exchange)
        if found is None:
            new_x = _exchange_quotient(seed, kk, ck)
            found = memo[exchange] = (table.setdefault(new_x.key(), len(table)), new_x)
        label, new_x = found
        labels = labels[:kk] + (label,) + labels[k:]

    new_cluster = list(seed.cluster)
    new_cluster[kk] = new_x
    return Seed(
        mutate_matrix(seed.B, k),
        tuple(_mutate_rows(seed.frozen, seed.B[kk], kk)) if any(ck) else seed.frozen,
        tuple(new_cluster),
        seed.history + (k,),
        labels,
    )


# ---- companion data along mutation paths ----


def initial_d_matrix(n: int) -> Matrix:
    """Column i is the denominator vector of the initial variable x_i: -e_i."""
    return tuple(tuple(-1 if i == j else 0 for j in range(n)) for i in range(n))


def d_vector_step(D: Matrix, B: Matrix, k: int) -> Matrix:
    """Denominator-vector recursion: replace column k (1-based).

    d'_k = -d_k + max(sum_i [b_ik]_+ d_i, sum_i [-b_ik]_+ d_i), the maximum
    taken componentwise; other columns are untouched.  The nonzero entries of
    column k of B are listed once, split by sign, and each row of D computes
    only its entry k from those lists.
    """
    kk = k - 1
    plus = [(i, b) for i, row in enumerate(B) if (b := row[kk]) > 0]
    minus = [(i, -b) for i, row in enumerate(B) if (b := row[kk]) < 0]
    out = []
    for row in D:
        s_plus = 0
        for i, b in plus:
            s_plus += b * row[i]
        s_minus = 0
        for i, b in minus:
            s_minus += b * row[i]
        out.append(row[:kk] + ((s_plus if s_plus > s_minus else s_minus) - row[kk],) + row[k:])
    return tuple(out)


def cg_step(C: Matrix, G: Matrix, B_t: Matrix, B0: Matrix, k: int) -> Tuple[Matrix, Matrix]:
    """One mutation step of the coefficient and leading-monomial matrices.

    By definition
    C' = C (J_k + [B_t]_+^{row k}) + [-C]_+^{col k} B_t
    G' = G (J_k + [B_t]_+^{col k}) - B0 [C]_+^{col k}
    where J_k is the identity with entry (k, k) negated and the row/col
    superscripts zero out all other rows/columns.  Entrywise that is
    c'_ik = -c_ik and, for j != k,
    c'_ij = c_ij + [c_ik]_+ [b_kj]_+ - [-c_ik]_+ [-b_kj]_+,
    while G changes only in column k,
    g'_ik = -g_ik + sum_t g_it [b_tk]_+ - sum_t b0_it [c_tk]_+;
    these entry formulas are what is computed, sparsely.  The C rule is the
    matrix mutation rule on rows, so C goes through _mutate_rows: a row with
    c_ik = 0 is reused, any other adds only over the nonzero entries of row
    k of B_t whose sign matches c_ik.  The sums for column k of G run only
    over the nonzero [b_tk]_+ and [c_tk]_+.
    """
    kk = k - 1
    C2 = _mutate_rows(C, B_t[kk], kk)
    bcol_plus = [(t, b) for t, row in enumerate(B_t) if (b := row[kk]) > 0]
    ccol_plus = [(t, c) for t, row in enumerate(C) if (c := row[kk]) > 0]
    G2 = []
    for g_row, b0_row in zip(G, B0):
        g_kk = -g_row[kk]
        for t, b in bcol_plus:
            g_kk += g_row[t] * b
        for t, c in ccol_plus:
            g_kk -= b0_row[t] * c
        G2.append(g_row[:kk] + (g_kk,) + g_row[k:])
    return tuple(C2), tuple(G2)


class PatternState(NamedTuple):
    """A seed bundled with the matrix data its mutation path accumulated.

    B0 is the exchange matrix of the starting seed; the G recursion needs it
    at every step, so it rides along unchanged.
    """

    seed: Seed
    C: Matrix
    G: Matrix
    D: Matrix
    B0: Matrix


def principal_state(B: Sequence[Sequence[int]]) -> PatternState:
    seed = principal_seed(B)
    n = seed.n
    return PatternState(seed, _identity(n), _identity(n), initial_d_matrix(n), seed.B)


def state_step(state: PatternState, k: int, seed: Optional[Seed] = None) -> PatternState:
    """Step direction k; seed is the neighbour if built, else mutate(state.seed, k)."""
    C2, G2 = cg_step(state.C, state.G, state.seed.B, state.B0, k)
    D2 = d_vector_step(state.D, state.seed.B, k)
    return PatternState(mutate(state.seed, k) if seed is None else seed, C2, G2, D2, state.B0)


def per_variable(seed: Seed, memo: Optional[dict], fn: Callable[[LaurentPoly], object]) -> list:
    """fn of each cluster variable of seed, computed once per variable of a sweep.

    With memo None fn runs on every variable.  Otherwise memo maps the
    sweep's labels to fn's values, each filled the first time its label is
    seen, so the sweep's seeds may be read in any order; a seed without
    labels is then a ValueError.
    """
    if memo is None:
        return [fn(x) for x in seed.cluster]
    if seed.labels is None:
        raise ValueError("a per-variable memo needs a seed labelled by a sweep")
    for label, x in zip(seed.labels, seed.cluster):
        if label not in memo:
            memo[label] = fn(x)
    return [memo[label] for label in seed.labels]


class FData(NamedTuple):
    f_polynomials: Tuple[LaurentPoly, ...]

    @property
    def f_matrix(self) -> Matrix:
        """Per-generator maximum degrees; column i belongs to cluster variable i."""
        return tuple(zip(*(fp.max_degrees() for fp in self.f_polynomials)))


def f_data(seed: Seed, *, memo: Optional[dict] = None) -> FData:
    """Specialize x -> 1: the coefficient polynomials, with their f-matrix.

    Only meaningful for seeds with one frozen variable per direction (the
    principal setup).  A sweep's seeds may share one memo (per_variable):
    each variable is then specialized once.
    """
    n = seed.n
    if seed.num_frozen != n:
        raise ValueError("f-data needs a principal-coefficients seed")

    def specialize(x: LaurentPoly) -> LaurentPoly:
        return x.substitute_ones(range(n))

    return FData(tuple(per_variable(seed, memo, specialize)))


def check_separation(
    seed: Seed, G: Matrix, B0: Matrix, *, memo: Optional[dict] = None
) -> List[Tuple[int, LaurentPoly, LaurentPoly]]:
    """Compare each coefficient-free variable with its monomial-times-F form.

    Variable i, with the frozen variables set to 1, must equal
    x^{g_i} F_i(y-hat): F_i is the variable with the exchangeable ones set to
    1, and y-hat_t = prod_j x_j^{b0_jt}.  Returns mismatches as (index,
    specialized variable, reconstructed form); empty means the separation
    identity holds at this seed.

    Each variable's form is (lhs, F(y-hat), g*): its specialization, its
    F-polynomial at y-hat, and the one shift g* with F(y-hat).shift(g*) ==
    lhs, or None if either side is 0 or no shift matches.  A G column equal
    to g* passes; any other is shifted onto F(y-hat) and compared with lhs.
    A form reads only the variable and B0, so a sweep's seeds, read with one
    B0, may share one memo (per_variable): each form is built once per
    variable, and a G that differs from seed to seed is still checked.
    """
    n = seed.n
    if seed.num_frozen != n:
        raise ValueError("separation check needs a principal-coefficients seed")

    def form(x: LaurentPoly) -> tuple:
        lhs = x.substitute_ones(range(n, 2 * n))
        b0_rows = [[(t, b) for t, b in enumerate(row) if b] for row in B0]
        hat_terms: Dict[tuple, int] = {}
        for ye, c in x.substitute_ones(range(n)).terms.items():
            exp = tuple(sum(ye[t] * b for t, b in row) for row in b0_rows)
            hat_terms[exp] = hat_terms.get(exp, 0) + c
        f_hat = LaurentPoly._trusted(n, {e: c for e, c in hat_terms.items() if c})
        if not (lhs and f_hat):  # min_degrees is undefined on 0
            return lhs, f_hat, None
        g = tuple(map(sub, lhs.min_degrees(), f_hat.min_degrees()))
        return lhs, f_hat, g if f_hat.shift(g) == lhs else None

    mismatches = []
    for i, (lhs, f_hat, g) in enumerate(per_variable(seed, memo, form)):
        g_col = tuple(row[i] for row in G)
        if g_col != g and (rhs := f_hat.shift(g_col)) != lhs:
            mismatches.append((i, lhs, rhs))
    return mismatches


# ---- exchange graph ----


def canonical_seed_key(labels: Sequence[int]) -> tuple:
    """A sweep's name for a set of its variables: their labels, sorted.

    n labels name a class, n - 1 a facet (a cluster less one variable);
    names compare only within one sweep.  That labels suffice rests on CA IV
    Conj. 4.14 (Fomin-Zelevinsky, Compos. Math. 2007), proved for geometric
    type by Gekhtman-Shapiro-Vainshtein (Math. Res. Lett. 2008): a seed is
    fixed by its cluster, and two clusters are adjacent exactly when they
    share n - 1 variables.
    """
    return tuple(sorted(labels))


def enumerate_exchange_graph(seed: Seed, budget: Optional[int] = None) -> Iterator[Seed]:
    """Breadth-first search of seeds up to relabeling, yielding classes as found.

    The start is labelled from an intern table of this search's own,
    whatever labels it carried from another sweep; each step is mutate with
    that table and an exchange memo of its own, both looked up when the
    search starts.  Seeds are identified when they differ only by a
    simultaneous permutation of cluster entries, coefficients, and matrix
    rows/columns.  By CA IV Conj. 4.14, proved for geometric type (see
    canonical_seed_key), a seed is fixed by its cluster and two clusters are
    adjacent exactly when they share n - 1 variables, so each facet lies in
    exactly two classes.  The search keeps the open facets, those of one
    known class, toggling a class's n facets as it is yielded: a step whose
    facet is closed reaches a known class and is skipped, and mutate runs
    only for a step that reaches a new class.  A class is queued with the
    facet names computed at its yield, and its expansion reads those.
    Each class is yielded once, as the first seed that reached it, in the
    order reached, starting with seed itself; the search holds only the open
    facets and the queue of classes still to expand.  Classes are expanded
    in yield order, so the new neighbours of each class come out together,
    after those of earlier classes.  The first step that reaches a new
    class once `budget` classes are known raises RuntimeError: an exceeded
    budget is an error, never a truncation.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    table: dict = {}
    seed = _labelled(seed, table)
    step, key = partial(mutate, memo={}, table=table), canonical_seed_key

    def facets(labels: Tuple[int, ...]) -> Tuple[tuple, ...]:
        return tuple([key(labels[:kk] + labels[kk + 1 :]) for kk in range(len(labels))])

    names = facets(seed.labels)
    open_facets = set(names)
    classes = 1
    queue = deque([(seed, names)])  # each class with its facet names, named once
    yield seed
    while queue:
        s, names = queue.popleft()
        for kk, name in enumerate(names):
            if name not in open_facets:
                continue
            if classes >= budget:
                raise RuntimeError("exchange graph not closed within budget")
            t = step(s, kk + 1)
            classes += 1
            t_names = facets(t.labels)
            open_facets.symmetric_difference_update(t_names)
            queue.append((t, t_names))
            yield t


def principal_states(n: int, budget: Optional[int]) -> Iterator[PatternState]:
    """Every principal seed of the rank-n pattern, with its companion matrices.

    The seed sweep's seeds, in its order; each seed's companions are
    stepped once, from its parent's (history one step shorter).  The sweep
    expands classes in yield order, so states before the parent go.
    """
    start = principal_state(a_n_matrix(n))
    sweep = enumerate_exchange_graph(start.seed, budget)
    states = deque([start._replace(seed=next(sweep))])
    yield states[0]
    for seed in sweep:
        while states[0].seed.history != seed.history[:-1]:
            states.popleft()
        states.append(state_step(states[0], seed.history[-1], seed))
        yield states[-1]


# ---- serialization ----


def seed_to_json(seed: Seed) -> dict:
    return {
        "n": seed.n,
        "frozen": seed.num_frozen,
        "B": [list(row) for row in seed.B],
        "y": [[row[i] for row in seed.frozen] for i in range(seed.n)],
        "cluster": [poly_to_json(x) for x in seed.cluster],
        "history": list(seed.history),
    }
