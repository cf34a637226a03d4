import json
import math
from itertools import product

import pytest

from cluster_logcc import (
    LaurentPoly,
    a2_basis,
    a2_charts,
    explore_a2_structure_constants,
    explore_an_monomials,
    normalize_denominator,
    poly_to_json,
    run_claim,
    verify_a2_monomials,
    verify_coeff_bounds,
    verify_fd,
    verify_fpoly_logcc,
    verify_main1,
    verify_separation,
)

from cluster_logcc.poly import ExponentCodec

from oracles import plain_cluster_monomials, plain_eliminate, plain_logcc_witness


# ---- log-concavity witnesses ----


def _witness_cases(rng, n, num_vars):
    """Nonzero polynomials in num_vars variables, negative exponents only on
    the first n: four lines along the first axis, then random ones with
    positive coefficients, then with coefficients of both signs."""
    low = -3 if n else 0

    def line(*coeffs):  # the coefficients of x_1^low, x_1^(low + 1), ...
        rest = (0,) * (num_vars - 1)
        return LaurentPoly(num_vars, {(low + i,) + rest: c for i, c in enumerate(coeffs) if c})

    yield line(1, 0, 1)  # x^-3 + x^-1 when n > 0: an internal zero
    yield line(1, 1, 5)
    yield line(1, 2, 1)
    yield line(1, -2, 1)
    for coeffs in ((1, 2, 3, 9), (-3, -1, 1, 2, 6)):
        for _ in range(150):
            terms = {
                tuple(rng.randint(low if j < n else 0, 2) for j in range(num_vars)): rng.choice(coeffs)
                for _ in range(rng.randint(1, 6))
            }
            yield LaurentPoly(num_vars, terms)


@pytest.mark.parametrize("n,num_vars", [(1, 1), (2, 2), (3, 3), (0, 2), (1, 3)])
def test_in_place_log_concavity_witness_matches_the_normalised_scan(n, num_vars):
    import random

    import cluster_logcc.verify as verify

    rng = random.Random(20261020 + 10 * n + num_vars)
    kinds = set()
    for p in _witness_cases(rng, n, num_vars):
        want = json.dumps(plain_logcc_witness(p, n, chart=3, exponents=[1, 2]))
        got = verify._logcc_witness(p, n, chart=3, exponents=[1, 2])
        assert json.dumps(got) == want  # values and key order
        # the packed route: scanned on int keys, unpacked only for a witness
        codec = ExponentCodec.for_products([p], 1)
        packed = verify._logcc_witness(codec.pack(p), n, codec, chart=3, exponents=[1, 2])
        assert json.dumps(packed) == want
        kinds.add(None if got is None else got["kind"])
    assert kinds == {None, "not-log-concave", "negative-coefficient"}


# ---- rank-2 charts ----


def test_charts_agree_with_mutation():
    from cluster_logcc import coefficient_free_seed, mutate

    charts = a2_charts()
    seed = coefficient_free_seed(((0, 1), (-1, 0)))
    assert charts[0] == tuple(seed.cluster)
    for i in range(4):
        seed = mutate(seed, 1 + (i % 2))
        assert set(charts[i + 1]) == set(seed.cluster)


def test_adjacent_charts_share_a_variable():
    charts = a2_charts()
    for i in range(5):
        shared = set(charts[i]) & set(charts[(i + 1) % 5])
        assert len(shared) == 1


def _monomial(chart, m1, m2):
    z1, z2 = a2_charts()[chart - 1]
    return z1 ** m1 * z2 ** m2


def test_cluster_monomial_values():
    assert _monomial(1, 2, 1).terms == {(2, 1): 1}  # x1^2 x2
    vu = _monomial(3, 1, 1)  # v * u = (x2+1)(x1+x2+1) / (x1^2 x2)
    assert vu.terms == {
        (-1, 0): 1, (-1, -1): 1, (-2, 1): 1, (-2, 0): 2, (-2, -1): 1,
    }
    (elem,) = [e for e in a2_basis(2) if (3, (1, 1)) in e.aliases]
    assert elem.value == vu


def _unpacked_monomials(clusters, deg):
    """verify._cluster_monomials with each value unpacked."""
    from cluster_logcc.verify import _cluster_monomials

    codec, monomials = _cluster_monomials(clusters, deg)
    return [(idx, m, codec.unpack(value)) for idx, m, value in monomials]


def test_power_tables_match_repeated_squaring():
    want = [
        (chart - 1, (m1, m2), _monomial(chart, m1, m2))
        for chart in range(1, 6)
        for m1 in range(13)
        for m2 in range(13 - m1)
    ]
    assert _unpacked_monomials(a2_charts(), 12) == want


def test_conj_an_power_tables_match_repeated_squaring():
    from cluster_logcc import a_n_matrix, coefficient_free_seed, enumerate_exchange_graph

    n, deg = 3, 4
    values = {}
    for seed in enumerate_exchange_graph(coefficient_free_seed(a_n_matrix(n))):
        for m in product(range(deg + 1), repeat=n):
            if 0 < sum(m) <= deg:
                value = LaurentPoly.const(n, 1)
                for x, e in zip(seed.cluster, m):
                    value = value * x ** e
                values[value.key()] = value
    stats = explore_an_monomials(n, deg).stats
    assert stats["num_monomials"] == len(values)
    assert stats["max_numerator_coefficient"] == max(
        max(normalize_denominator(v, n).numerator.coefficients()) for v in values.values()
    )


def _count_products(monkeypatch):
    """Counts of LaurentPoly products and of packed products, as they are made."""
    calls = {"poly": 0, "packed": 0}

    def counting(cls, name, kind):
        honest = getattr(cls, name)

        def counted(*args):
            calls[kind] += 1
            return honest(*args)

        monkeypatch.setattr(cls, name, counted)

    counting(LaurentPoly, "__mul__", "poly")
    counting(ExponentCodec, "mul", "packed")
    return calls


def test_a2_monomials_builds_each_power_once(monkeypatch):
    calls = _count_products(monkeypatch)
    assert run_claim("a2-monomials", deg=8).ok
    # 8 power steps for each of the 5 distinct variables (adjacent charts
    # share one), then per chart one packed product per (m1, m2), m1, m2 >= 1,
    # m1 + m2 <= 8
    assert calls == {"poly": 5 * 8, "packed": 5 * math.comb(8, 2)}


@pytest.mark.parametrize(
    "claim,scope,calls",
    [
        ("a2-monomials", {"deg": 8}, 225),  # num_monomials
        ("conj-an", {"rank": 4, "deg": 4}, 770),  # num_monomials
        ("conj1-a2", {"deg": 8}, 4190),  # chart tables
    ],
)
def test_each_monomial_claim_makes_its_log_concavity_checks(monkeypatch, claim, scope, calls):
    import cluster_logcc.verify as verify

    # the cluster monomials are scanned packed, conj1-a2's tables unpacked
    seen = {"poly": 0, "packed": 0}
    honest_poly, honest_packed = verify.is_log_concave, ExponentCodec.scan

    def counting_poly(p):
        seen["poly"] += 1
        return honest_poly(p)

    def counting_packed(codec, terms):
        seen["packed"] += 1
        return honest_packed(codec, terms)

    monkeypatch.setattr(verify, "is_log_concave", counting_poly)
    monkeypatch.setattr(ExponentCodec, "scan", counting_packed)
    report = run_claim(claim, **scope)
    if claim == "conj1-a2":
        assert seen == {"poly": calls, "packed": 0}
    else:
        assert seen == {"poly": 0, "packed": calls}
        assert report.stats["num_monomials"] == calls


def test_exponent_vectors_match_filtered_product():
    from cluster_logcc.verify import _exponent_vectors

    for n in range(6):
        for deg in range(6):
            want = [m for m in product(range(deg + 1), repeat=n) if sum(m) <= deg]
            assert _exponent_vectors(n, deg) == want


def _first_occurrences(triples):
    seen = set()
    out = []
    for idx, m, value in triples:
        if value.key() not in seen:
            seen.add(value.key())
            out.append((idx, m, value.key()))
    return out


@pytest.mark.parametrize("n", range(1, 6))
def test_cluster_monomials_match_plain_enumerator(n):
    from cluster_logcc import a_n_matrix, coefficient_free_seed, enumerate_exchange_graph

    clusters = [
        s.cluster for s in enumerate_exchange_graph(coefficient_free_seed(a_n_matrix(n)))
    ]
    for deg in range(4 if n == 5 else 5):
        plain = list(plain_cluster_monomials(clusters, deg))
        fast = _unpacked_monomials(clusters, deg)
        # the skipped products are copies of earlier ones: the same
        # distinct monomials, met first at the same (index, exponents)
        assert _first_occurrences(fast) == _first_occurrences(plain)
        by_place = {(idx, m): value for idx, m, value in plain}
        for idx, m, value in fast:
            assert value == by_place[idx, m]


def test_conj_an_multiplies_each_monomial_once(monkeypatch):
    calls = _count_products(monkeypatch)
    report = run_claim("conj-an", rank=5, deg=3)
    assert report.stats == {
        "num_clusters": 132,
        "num_monomials": 720,
        "max_numerator_coefficient": 60,
    }
    # 640 in the sweep's exchange relations and 3 power steps for each of
    # the 20 variables, then 960 packed ones for the 660 distinct monomials
    # of two or more variables, one per further factor.  Multiplying every
    # cluster's products afresh takes 6,600 packed products.
    assert calls["poly"] <= 700 and calls["packed"] == 960


@pytest.mark.parametrize("n,deg", [(1, 2), (3, 4), (5, 3)])
def test_conj_an_report_matches_the_tuple_route(n, deg):
    # the claim forms and scans its monomials on packed keys; this route
    # forms every product as a LaurentPoly on exponent tuples, keeps each
    # distinct one where it is first met, and witnesses its numerator
    from cluster_logcc import a_n_matrix, coefficient_free_seed, enumerate_exchange_graph

    clusters = [
        s.cluster for s in enumerate_exchange_graph(coefficient_free_seed(a_n_matrix(n)))
    ]
    seen, witnesses, max_coeff = set(), [], 0
    for idx, m, value in plain_cluster_monomials(clusters, deg):
        if any(m) and value.key() not in seen:
            seen.add(value.key())
            max_coeff = max(max_coeff, max(value.coefficients()))
            w = plain_logcc_witness(value, n, seed_index=idx, exponents=list(m))
            witnesses += [w] if w else []
    want = {
        "claim": "conj-an",
        "scope": {"rank": n, "deg": deg},
        "status": "exploratory",
        "witnesses": witnesses,
        "stats": {
            "num_clusters": len(clusters),
            "num_monomials": len(seen),
            "max_numerator_coefficient": max_coeff,
        },
    }
    got = run_claim("conj-an", rank=n, deg=deg).to_json_dict()
    assert json.dumps(got) == json.dumps(want)


def test_conj_an_products_of_several_variables_never_recur():
    # explore_an_monomials keeps keys only for powers of one variable, on
    # the ground that every product of two or more is met once
    from cluster_logcc import a_n_matrix, coefficient_free_seed, enumerate_exchange_graph

    n, deg = 4, 4
    clusters = (s.cluster for s in enumerate_exchange_graph(coefficient_free_seed(a_n_matrix(n))))
    keys = [
        value.key() for _, m, value in _unpacked_monomials(clusters, deg) if len(m) - m.count(0) > 1
    ]
    assert len(keys) == len(set(keys)) > 0


# ---- basis ----


def test_basis_counts():
    # 5 D(D+1)/2 + 1 distinct monomials of total degree at most D
    assert len(a2_basis(0)) == 1
    assert len(a2_basis(1)) == 6
    assert len(a2_basis(2)) == 16
    assert len(a2_basis(4)) == 51


@pytest.mark.parametrize("d", range(9))
def test_basis_matches_plain_enumerator_grouped_by_polynomial(d):
    want = {}
    for idx, m, value in plain_cluster_monomials(a2_charts(), d):
        _, degrees, aliases = want.setdefault(value.key(), (value, set(), []))
        degrees.add(sum(m))
        aliases.append((idx + 1, m))
    got = {e.value.key(): (e.value, {e.degree}, list(e.aliases)) for e in a2_basis(d)}
    assert got == want
    assert len(got) == 5 * d * (d + 1) // 2 + 1


def test_negative_degree_is_refused_before_any_sweep_step(monkeypatch):
    import cluster_logcc.verify as verify

    # a one-class budget: any sweep step past the start raises
    monkeypatch.setattr(verify, "_a_n_seeds", lambda n: 1)
    with pytest.raises(RuntimeError, match="not closed within budget"):
        explore_an_monomials(3, 0)
    with pytest.raises(ValueError, match="^degree bound must be nonnegative$"):
        explore_an_monomials(3, -1)
    for check in (a2_basis, verify_a2_monomials):
        with pytest.raises(ValueError, match="^degree bound must be nonnegative$"):
            check(-1)


def test_basis_constant_element_is_shared_by_all_charts():
    basis = a2_basis(2)
    const = [e for e in basis if e.degree == 0]
    assert len(const) == 1
    assert const[0].value == LaurentPoly.const(2, 1)
    assert sorted(c for c, _ in const[0].aliases) == [1, 2, 3, 4, 5]


def test_basis_shared_variables_have_two_aliases():
    basis = a2_basis(1)
    by_aliases = sorted(len(e.aliases) for e in basis)
    assert by_aliases == [2, 2, 2, 2, 2, 5]  # five variables, one constant


def test_basis_leading_exponents_distinct():
    basis = a2_basis(5)
    leads = [e.leading for e in basis]
    assert len(leads) == len(set(leads))
    assert all(e.value.terms[e.leading] == 1 for e in basis)


# ---- structure constants ----


def _keyed_eliminate(prod, basis, lead_index):
    """verify._eliminate on packed copies of prod, the basis values and the
    lead index; arguments and results as plain_eliminate's."""
    from cluster_logcc.verify import _eliminate

    codec = ExponentCodec.for_products([prod, *(e.value for e in basis)], 1)
    coeffs, residual = _eliminate(
        codec.pack(prod),
        [codec.pack(e.value) for e in basis],
        {codec.encode(lead): i for lead, i in lead_index.items()},
    )
    return coeffs, codec.unpack(residual)


def _expand(prod, deg):
    """_eliminate over a2_basis(deg), which must agree with plain_eliminate."""
    basis = a2_basis(deg)
    lead_index = {e.leading: i for i, e in enumerate(basis)}
    coeffs, residual = _keyed_eliminate(prod, basis, lead_index)
    assert (coeffs, residual) == plain_eliminate(prod, basis, lead_index)
    return basis, coeffs, residual


def _constants_by_aliases(basis, coeffs):
    return {frozenset(basis[idx].aliases): c for idx, c in coeffs.items()}


def test_product_x1_times_v():
    # x1 * (x2+1)/x1 = x2 + 1
    basis, coeffs, residual = _expand(_monomial(1, 1, 0) * _monomial(2, 1, 0), 2)
    assert not residual
    x2_elem = frozenset({(1, (0, 1)), (2, (0, 1))})
    one_elem = frozenset({(c, (0, 0)) for c in range(1, 6)})
    assert _constants_by_aliases(basis, coeffs) == {x2_elem: 1, one_elem: 1}


def test_product_w_times_v():
    # (x1+1)/x2 * (x2+1)/x1 = u + 1
    basis, coeffs, residual = _expand(_monomial(4, 1, 0) * _monomial(2, 1, 0), 2)
    assert not residual
    u_elem = frozenset({(3, (0, 1)), (4, (0, 1))})
    one_elem = frozenset({(c, (0, 0)) for c in range(1, 6)})
    assert _constants_by_aliases(basis, coeffs) == {u_elem: 1, one_elem: 1}


def test_product_within_one_chart_is_a_single_element():
    basis, coeffs, residual = _expand(_monomial(3, 2, 1) * _monomial(3, 0, 2), 5)
    assert not residual
    ((aliases, c),) = _constants_by_aliases(basis, coeffs).items()
    assert c == 1
    assert (3, (2, 3)) in aliases


def test_in_place_elimination_matches_plain_loop(monkeypatch):
    import cluster_logcc.verify as verify

    # A slip that stops the lead from cancelling fails here, not after a
    # million steps.
    monkeypatch.setattr(verify, "_ELIMINATION_GUARD", 10_000)
    basis = a2_basis(6)
    lead_index = {e.leading: i for i, e in enumerate(basis)}
    products = [
        a.value * b.value
        for ai, a in enumerate(basis)
        for b in basis[ai:]
        if a.degree + b.degree <= 6
    ]
    for prod in products:
        assert _keyed_eliminate(prod, basis, lead_index) == plain_eliminate(prod, basis, lead_index)
    planted = _monomial(2, 2, 1) * _monomial(4, 1, 1) + LaurentPoly.monomial(2, (-5, -5))
    assert (-5, -5) not in lead_index
    coeffs, residual = _keyed_eliminate(planted, basis, lead_index)
    assert coeffs and residual == LaurentPoly.monomial(2, (-5, -5))
    assert (coeffs, residual) == plain_eliminate(planted, basis, lead_index)


def test_sparse_mat_mul_matches_dense_product():
    import random

    import cluster_logcc.verify as verify
    from oracles import _dense_mul

    rng = random.Random(20261018)
    for _ in range(200):
        rows, inner, cols = (rng.randint(1, 6) for _ in range(3))
        A = tuple(tuple(rng.choice((0, 0, 0, -2, -1, 1, 3)) for _ in range(inner)) for _ in range(rows))
        B = tuple(tuple(rng.randint(-4, 4) for _ in range(cols)) for _ in range(inner))
        assert verify._mat_mul(A, B) == _dense_mul(A, B)


def test_chart_tables_match_per_chart_scan():
    import cluster_logcc.verify as verify
    from oracles import plain_chart_tables

    basis = a2_basis(6)
    lead_index = {e.leading: i for i, e in enumerate(basis)}
    num_tables = 0
    for ai, a in enumerate(basis):
        for b in basis[ai:]:
            if a.degree + b.degree > 6:
                continue
            coeffs, _ = _keyed_eliminate(a.value * b.value, basis, lead_index)
            got = verify._chart_tables(basis, coeffs)
            want = plain_chart_tables(basis, coeffs)
            assert list(got.items()) == list(want.items())
            num_tables += len(got)
    assert num_tables > 0


def test_expansion_reassembles_the_product():
    product = _monomial(2, 1, 1) * _monomial(5, 1, 0)
    basis, coeffs, total = _expand(product, 3)
    for idx, c in coeffs.items():
        total = total + basis[idx].value.scale(c)
    assert total == product


# ---- claim checkers ----


def test_main1_small_ranks():
    for n in (1, 2, 3):
        r = verify_main1(n)
        assert r.ok and r.status == "verified"
        assert r.stats["num_variables"] == n * (n + 3) // 2
    assert verify_main1(3).stats["max_numerator_coefficient"] == 2


def test_coeff_bounds():
    r = verify_coeff_bounds(3)
    assert r.ok
    assert r.stats["has_coefficient_two"] is True
    assert verify_coeff_bounds(2).stats["has_coefficient_two"] is False


def test_each_chord_is_enumerated_once(capsys, monkeypatch):
    import cluster_logcc.cli as cli
    import cluster_logcc.polygon as polygon

    calls = 0
    honest = polygon.enumerate_t_paths

    def counting(tri, a, b):
        nonlocal calls
        calls += 1
        return honest(tri, a, b)

    monkeypatch.setattr(polygon, "enumerate_t_paths", counting)
    monkeypatch.setattr(cli, "enumerate_t_paths", counting)
    # coeff012 reads both bounds off one expansion of each of the 78 chords
    # of the 15-gon that are not diagonals of the snake
    assert run_claim("coeff012", rank=12).ok
    assert calls == 78
    calls = 0
    assert run_claim("main1", rank=6).ok
    assert calls == 27  # every chord of the 9-gon, diagonals included
    calls = 0
    assert cli.main(["tpaths", "--ngon", "6", "--from", "0", "--to", "3"]) == 0
    capsys.readouterr()
    assert calls == 1  # the listed paths are summed for the boundary-kept variable


def test_fd_and_friends():
    r = verify_fd(3)
    assert r.ok and r.witnesses == []
    assert r.stats["num_seeds"] == 14


def test_fpoly():
    r = verify_fpoly_logcc(3)
    assert r.ok
    # 9 variables; the three initial ones share the constant specialization
    assert r.stats["num_f_polynomials"] == 7


def test_separation_claim():
    assert verify_separation(2).ok
    assert verify_separation(3).ok


def test_a2_monomials_claim():
    r = verify_a2_monomials(6)
    assert r.ok
    assert r.stats["num_monomials"] == 5 * 28  # five charts, all (m1, m2) with sum <= 6


def test_exploratory_claims_clean_at_desk_scale():
    r = explore_an_monomials(2, 4)
    assert r.status == "exploratory" and r.ok
    r3 = explore_an_monomials(3, 3)
    assert r3.ok and r3.stats["num_clusters"] == 14
    rs = explore_a2_structure_constants(4)
    assert rs.status == "exploratory" and rs.ok
    assert rs.stats["num_unresolved"] == 0
    assert rs.stats["num_pairs"] > 0


def test_run_claim_dispatch_and_json():
    r = run_claim("main1", rank=2)
    obj = r.to_json_dict()
    assert set(obj) == {"claim", "scope", "status", "witnesses", "stats"}
    json.dumps(obj)  # serializable
    with pytest.raises(ValueError):
        run_claim("nonsense")


def test_budget_propagates(monkeypatch):
    import cluster_logcc.verify as verify

    monkeypatch.setattr(verify, "_a_n_seeds", lambda n: 3)
    with pytest.raises(RuntimeError):
        verify_main1(3)
    with pytest.raises(RuntimeError):
        verify_fd(3)


_SWEEP_CLAIMS = {  # claim -> the sweep it calls, its scope beside the rank
    "main1": ("enumerate_exchange_graph", {}),
    "gyo21": ("principal_states", {}),
    "fpoly": ("enumerate_exchange_graph", {}),
    "separation": ("principal_states", {}),
    "conj-an": ("enumerate_exchange_graph", {"deg": 1}),
}


@pytest.mark.parametrize("n,catalan", [(1, 2), (2, 5), (3, 14), (4, 42), (5, 132)])
@pytest.mark.parametrize("claim", list(_SWEEP_CLAIMS))
def test_each_sweep_claim_bounds_its_sweep_by_the_catalan_count(monkeypatch, claim, n, catalan):
    import cluster_logcc.verify as verify

    sweep, scope = _SWEEP_CLAIMS[claim]
    honest, budgets = getattr(verify, sweep), []

    def spy(start, budget):
        budgets.append(budget)
        return honest(start, budget)

    monkeypatch.setattr(verify, sweep, spy)
    run_claim(claim, rank=n, **scope)
    assert budgets == [catalan]


# ---- planted defects: each checker must be seen to fail ----


def _verify_report(capsys, claim, *scope):
    from cluster_logcc.cli import main

    code = main(["verify", "--claim", claim, *scope])
    return code, json.loads(capsys.readouterr().out)


def _falsified_report(capsys, claim, *scope):
    code, report = _verify_report(capsys, claim, *(scope or ("--rank", "3")))
    assert code == 1
    assert report["status"] == "falsified"
    assert len(report["witnesses"]) <= 20
    return report


def _falsified_kinds(capsys, claim):
    return {w["kind"] for w in _falsified_report(capsys, claim)["witnesses"]}


def test_planted_denominator_defect_falsifies_gyo21(capsys, monkeypatch):
    import cluster_logcc.pattern as pattern

    honest = pattern.d_vector_step

    def off_by_one(D, B, k):
        out = [list(row) for row in honest(D, B, k)]
        out[0][k - 1] += 1
        return tuple(tuple(row) for row in out)

    monkeypatch.setattr(pattern, "d_vector_step", off_by_one)
    report = _falsified_report(capsys, "gyo21")
    # 41 witnesses over 14 seeds; the report keeps the first 20 in scan order
    assert len(report["witnesses"]) == 20
    assert report["stats"] == {"num_seeds": 14, "num_witnesses": 41}
    assert [w["seed_index"] for w in report["witnesses"]] == sorted(
        w["seed_index"] for w in report["witnesses"]
    )
    kinds = {w["kind"] for w in report["witnesses"]}
    assert {"degree-vs-denominator", "denominator-column"} <= kinds


@pytest.mark.parametrize(
    "claim,kind", [("gyo21", "companion-duality"), ("separation", "separation-mismatch")]
)
def test_planted_g_matrix_defect_falsifies(capsys, monkeypatch, claim, kind):
    import cluster_logcc.pattern as pattern

    honest = pattern.cg_step

    def negated_entry(C, G, B_t, B0, k):
        C2, G2 = honest(C, G, B_t, B0, k)
        out = [list(row) for row in G2]
        out[k - 1][k - 1] = -out[k - 1][k - 1]
        return C2, tuple(tuple(row) for row in out)

    monkeypatch.setattr(pattern, "cg_step", negated_entry)
    assert kind in _falsified_kinds(capsys, claim)


def _always_failing_packed_scan(monkeypatch):
    from cluster_logcc import LogConcavityResult

    monkeypatch.setattr(
        ExponentCodec, "scan", lambda codec, terms: LogConcavityResult(False, 0, (0, 0))
    )


def test_always_failing_log_concavity_caps_a2_monomial_witnesses(capsys, monkeypatch):
    from cluster_logcc.cli import main

    _always_failing_packed_scan(monkeypatch)
    code = main(["verify", "--claim", "a2-monomials", "--deg", "4"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["status"] == "falsified"
    # 5 charts x 15 monomials of total degree at most 4, the first 20 kept
    assert len(report["witnesses"]) == 20
    assert report["stats"]["num_witnesses"] == 75
    assert {w["kind"] for w in report["witnesses"]} == {"not-log-concave"}


def test_a2_monomial_witnesses_keep_every_alias(monkeypatch):
    import cluster_logcc.verify as verify

    # every alias gets its own witness, in numerator coordinates
    _always_failing_packed_scan(monkeypatch)
    monkeypatch.setattr(verify, "WITNESS_CAP", 100)
    witnesses = verify_a2_monomials(4).witnesses
    assert [(w["chart"], w["exponents"]) for w in witnesses] == [
        (chart, [m1, m2]) for chart in range(1, 6) for m1 in range(5) for m2 in range(5 - m1)
    ]
    for w in witnesses:
        nd = normalize_denominator(_monomial(w["chart"], *w["exponents"]), 2)
        assert w["poly"] == poly_to_json(nd.numerator)
        assert w["point"] == list(nd.d_vector)


def test_planted_chart_variable_defect_falsifies_a2_monomials(capsys, monkeypatch):
    import cluster_logcc.verify as verify

    honest = verify._a2_variables

    def doubled_corner():
        x1, x2, v, u, w = honest()
        return x1, x2, v, u + LaurentPoly.monomial(2, (-1, -1)), w

    monkeypatch.setattr(verify, "_a2_variables", doubled_corner)
    report = _falsified_report(capsys, "a2-monomials", "--deg", "4")
    mismatches = [w for w in report["witnesses"] if w["kind"] == "closed-form-mismatch"]
    assert mismatches
    # the witness speaks in numerator coordinates, as normalize_denominator
    # gives them for the planted value
    _, _, v, u, _ = doubled_corner()
    for w in mismatches:
        m1, m2 = w["exponents"]
        nd = normalize_denominator(v ** m1 * u ** m2, 2)
        expected = {
            (k, l): math.comb(m2, k) * math.comb(m1 + m2 - k, l)
            for k in range(m2 + 1)
            for l in range(m1 + m2 - k + 1)
        }
        assert w["chart"] == 3 and m2 > 0
        assert w["numerator"] == poly_to_json(nd.numerator)
        assert w["expected"] == poly_to_json(LaurentPoly(2, expected))
        assert w["d_vector"] == list(nd.d_vector) == [m1 + m2, m2]


def test_planted_basis_defect_leaves_conj1_a2_residuals(capsys, monkeypatch):
    import cluster_logcc.verify as verify

    honest = verify.a2_basis

    def perturbed(deg):
        basis = honest(deg)
        e = basis[2]
        basis[2] = e._replace(value=e.value + LaurentPoly.monomial(2, (-1, 0)))
        return basis

    monkeypatch.setattr(verify, "a2_basis", perturbed)
    code, report = _verify_report(capsys, "conj1-a2", "--deg", "4")
    assert code == 1
    assert report["status"] == "exploratory"
    assert report["stats"]["num_unresolved"] > 0
    assert "unresolved-residual" in {w["kind"] for w in report["witnesses"]}
    # the residual is reported in the basis's exponents (e1, e2), not in
    # the packed int keys the elimination runs on
    (residual,) = [
        w["residual"]
        for w in report["witnesses"]
        if w["kind"] == "unresolved-residual"
        and w["left"]["aliases"] == [[3, [1, 1]]]
        and w["right"]["aliases"] == [[4, [1, 1]]]
    ]
    assert residual == poly_to_json(
        LaurentPoly(
            2,
            {(-4, -1): 1, (-4, 0): 4, (-4, 1): 6, (-4, 2): 4, (-4, 3): 1, (-1, -1): 1},
        )
    )


def test_planted_per_variable_denominator_defect_falsifies_every_slot(capsys, monkeypatch):
    import cluster_logcc.verify as verify
    from cluster_logcc import a_n_matrix, mutate, principal_seed
    from cluster_logcc.pattern import principal_states

    # one non-initial variable, chosen by value, gets a wrong denominator
    target = mutate(principal_seed(a_n_matrix(4)), 2).cluster[1]
    honest = verify.normalize_denominator

    def bumped(p, n):
        nd = honest(p, n)
        if p == target:
            return nd._replace(d_vector=(nd.d_vector[0] + 1,) + nd.d_vector[1:])
        return nd

    monkeypatch.setattr(verify, "normalize_denominator", bumped)
    slots = [
        (idx, i)
        for idx, st in enumerate(principal_states(4, None))
        for i, x in enumerate(st.seed.cluster)
        if x == target
    ]
    assert len(slots) == 10  # below the witness cap, so every slot is listed
    report = _falsified_report(capsys, "gyo21", "--rank", "4")
    assert {w["kind"] for w in report["witnesses"]} == {"denominator-column"}
    assert [(w["seed_index"], w["position"]) for w in report["witnesses"]] == slots
    assert report["stats"] == {"num_seeds": 42}


def _planted_first_f_polynomial(monkeypatch, defect):
    """At every seed, the first x->1 polynomial with at least 2 terms goes through defect."""
    import cluster_logcc.verify as verify

    honest = verify.f_data

    def planted(seed, *, memo=None):
        fd = honest(seed, memo=memo)
        fpolys = list(fd.f_polynomials)
        for i, fp in enumerate(fpolys):
            if len(fp.terms) >= 2:
                fpolys[i] = defect(fp)
                break
        return fd._replace(f_polynomials=tuple(fpolys))

    monkeypatch.setattr(verify, "f_data", planted)


def _negated_at(p, e):
    """p with the coefficient of its term at e negated."""
    return p - LaurentPoly.monomial(p.num_vars, e, 2 * p.terms[e])


def test_planted_squared_f_polynomial_falsifies_fpoly(capsys, monkeypatch):
    _planted_first_f_polynomial(monkeypatch, lambda fp: fp * fp)
    report = _falsified_report(capsys, "fpoly")
    assert [w["kind"] for w in report["witnesses"]] == ["degree-out-of-range"] * 6


def test_planted_negative_f_coefficient_falsifies_fpoly(capsys, monkeypatch):
    _planted_first_f_polynomial(monkeypatch, lambda fp: _negated_at(fp, max(fp.terms)))
    report = _falsified_report(capsys, "fpoly")
    assert [w["kind"] for w in report["witnesses"]] == ["negative-coefficient"] * 6
    assert all(
        min(int(t["coeff"]) for t in w["poly"]["terms"]) == -1 for w in report["witnesses"]
    )
    assert report["stats"] == {"num_seeds": 14, "num_f_polynomials": 12}


def _fail_log_concavity_from_three_terms(monkeypatch):
    """Both scans the claims call fail on three or more terms: is_log_concave
    (main1, fpoly, conj1-a2's tables) and the packed one (conj-an)."""
    import cluster_logcc.verify as verify
    from cluster_logcc import LogConcavityResult

    honest, honest_packed = verify.is_log_concave, ExponentCodec.scan

    def fails_from_three_terms(p):
        if len(p.terms) >= 3:
            return LogConcavityResult(False, 0, (0,) * p.num_vars)
        return honest(p)

    def packed_fails_from_three_terms(codec, terms):
        if len(terms) >= 3:
            return LogConcavityResult(False, 0, (0,) * codec.num_vars)
        return honest_packed(codec, terms)

    monkeypatch.setattr(verify, "is_log_concave", fails_from_three_terms)
    monkeypatch.setattr(ExponentCodec, "scan", packed_fails_from_three_terms)


def test_planted_log_concavity_failure_falsifies_fpoly(capsys, monkeypatch):
    _fail_log_concavity_from_three_terms(monkeypatch)
    report = _falsified_report(capsys, "fpoly")
    assert [w["kind"] for w in report["witnesses"]] == ["not-log-concave"] * 3


def test_planted_log_concavity_failure_falsifies_main1(capsys, monkeypatch):
    _fail_log_concavity_from_three_terms(monkeypatch)
    report = _falsified_report(capsys, "main1")
    assert [w["kind"] for w in report["witnesses"]] == ["not-log-concave"] * 3
    assert report["stats"] == {
        "num_variables": 9, "num_seeds": 14, "max_numerator_coefficient": 2,
    }


def test_planted_log_concavity_failure_is_a_conj_an_witness(capsys, monkeypatch):
    _fail_log_concavity_from_three_terms(monkeypatch)
    code, report = _verify_report(capsys, "conj-an", "--rank", "3", "--deg", "2")
    assert code == 1 and report["status"] == "exploratory"
    assert [w["kind"] for w in report["witnesses"]] == ["not-log-concave"] * 20
    assert report["stats"]["num_witnesses"] == 21


def test_planted_log_concavity_failure_is_a_conj1_a2_table_witness(capsys, monkeypatch):
    _fail_log_concavity_from_three_terms(monkeypatch)
    code, report = _verify_report(capsys, "conj1-a2", "--deg", "3")
    assert code == 1 and report["status"] == "exploratory"
    # the five tables with at least 3 constants, one in each chart
    assert [(w["kind"], w["chart"]) for w in report["witnesses"]] == [
        ("table-not-log-concave", chart) for chart in (3, 1, 4, 5, 2)
    ]


def _planted_chord_0_3(monkeypatch, defect):
    """The expansion of chord (0, 3), boundary edges kept, goes through defect(p)."""
    import cluster_logcc.verify as verify

    honest = verify.expand_variable

    def planted(tri, a, b):
        p = honest(tri, a, b)
        return defect(p) if (a, b) == (0, 3) else p

    monkeypatch.setattr(verify, "expand_variable", planted)


def _extra_lowest_term_on_chord_0_3(monkeypatch):
    """One more copy of the lowest-exponent term in the expansion of chord (0, 3)."""
    _planted_chord_0_3(monkeypatch, lambda p: p + LaurentPoly.monomial(p.num_vars, min(p.terms)))


def test_planted_doubled_path_falsifies_coeff012(capsys, monkeypatch):
    _extra_lowest_term_on_chord_0_3(monkeypatch)
    report = _falsified_report(capsys, "coeff012")
    assert [w["kind"] for w in report["witnesses"]] == ["kept-coefficient-not-one"]
    assert report["witnesses"][0]["chord"] == [0, 3]
    assert report["witnesses"][0]["coefficients"] == [1, 2]


def test_planted_doubled_path_falsifies_main1(capsys, monkeypatch):
    _extra_lowest_term_on_chord_0_3(monkeypatch)
    report = _falsified_report(capsys, "main1")
    assert [(w["kind"], w["route"]) for w in report["witnesses"]] == [
        ("route-mismatch", "paths-only"),
        ("route-mismatch", "mutation-only"),
    ]


def test_planted_negative_chord_coefficient_falsifies_main1(capsys, monkeypatch):
    _planted_chord_0_3(monkeypatch, lambda p: _negated_at(p, min(p.terms)))
    report = _falsified_report(capsys, "main1")
    assert [(w["kind"], w.get("route")) for w in report["witnesses"]] == [
        ("route-mismatch", "paths-only"),
        ("route-mismatch", "mutation-only"),
        ("negative-coefficient", None),
    ]
    assert min(int(t["coeff"]) for t in report["witnesses"][2]["poly"]["terms"]) == -1


def test_planted_zero_free_expansion_falsifies_coeff012(capsys, monkeypatch):
    import cluster_logcc.verify as verify
    from cluster_logcc.polygon import expand_variable, zigzag

    # chord (0, 3) keeps its expansion but loses every term when the boundary is set to 1
    honest = verify.boundary_to_one
    kept_0_3 = expand_variable(zigzag(3), 0, 3)

    def planted(tri, p):
        return LaurentPoly.zero(tri.n) if p == kept_0_3 else honest(tri, p)

    monkeypatch.setattr(verify, "boundary_to_one", planted)
    report = _falsified_report(capsys, "coeff012")
    assert [(w["kind"], w["chord"], w["coefficients"]) for w in report["witnesses"]] == [
        ("coefficient-free-out-of-range", [0, 3], [])
    ]


def test_planted_zero_expansion_falsifies_main1(capsys, monkeypatch):
    _planted_chord_0_3(monkeypatch, lambda p: LaurentPoly.zero(p.num_vars))
    report = _falsified_report(capsys, "main1")
    assert [(w["kind"], w["route"]) for w in report["witnesses"]] == [
        ("route-mismatch", "paths-only"),
        ("route-mismatch", "mutation-only"),
    ]
    assert report["witnesses"][0]["poly"]["terms"] == []


# ---- planted defects for the witness kinds the honest code never produces ----


def test_planted_repeated_variable_gives_main1_a_count_witness(capsys, monkeypatch):
    from cluster_logcc.polygon import expand_variable, zigzag

    # chord (0, 3) comes back as chord (0, 2)'s variable: one variable short
    _planted_chord_0_3(monkeypatch, lambda p: expand_variable(zigzag(3), 0, 2))
    report = _falsified_report(capsys, "main1")
    assert [(w["kind"], w["route"]) for w in report["witnesses"]] == [
        ("count", "paths"),
        ("route-mismatch", "mutation-only"),
    ]
    assert (report["witnesses"][0]["expected"], report["witnesses"][0]["got"]) == (9, 8)
    assert report["stats"]["num_variables"] == 8


def test_sweep_that_stops_at_its_start_gives_main1_a_mutation_count_witness(
    capsys, monkeypatch
):
    import cluster_logcc.pattern as pattern
    import cluster_logcc.verify as verify

    # the sweep yields only its start, labelled as a real sweep labels it, so
    # mutation finds x1, x2, x3 of the 9
    monkeypatch.setattr(
        verify,
        "enumerate_exchange_graph",
        lambda seed, budget=None: iter([pattern._labelled(seed, {})]),
    )
    report = _falsified_report(capsys, "main1")
    witnesses = report["witnesses"]
    assert witnesses[0] == {"kind": "seed-count", "expected": 14, "got": 1}
    assert [(w["kind"], w["route"]) for w in witnesses[1:]] == [("count", "mutation")] + [
        ("route-mismatch", "paths-only")
    ] * 6
    assert (witnesses[1]["expected"], witnesses[1]["got"]) == (9, 3)
    assert report["stats"]["num_seeds"] == 1


@pytest.mark.parametrize("claim", ["main1", "gyo21", "fpoly", "separation"])
def test_colliding_facets_give_a_seed_count_witness(capsys, monkeypatch, claim):
    import cluster_logcc.pattern as pattern

    # a facet name that drops its least label: facets collide, the sweep
    # takes a new class for a known one or a known one for new, and both
    # the seed count and the count of variables the sweep met must show it
    monkeypatch.setattr(pattern, "canonical_seed_key", lambda labels: tuple(sorted(labels))[1:])
    report = _falsified_report(capsys, claim, "--rank", "4")
    counts = [w for w in report["witnesses"] if w["kind"] in ("seed-count", "count")]
    assert counts == [
        {"kind": "seed-count", "expected": 42, "got": report["stats"]["num_seeds"]},
        {"kind": "count", "route": "mutation", "expected": 14, "got": 12},
    ]
    assert report["stats"]["num_seeds"] == 32


def test_planted_c_matrix_defect_gives_gyo21_coefficient_columns(capsys, monkeypatch):
    import cluster_logcc.pattern as pattern

    honest = pattern.cg_step

    def bumped_c_0k(C, G, B_t, B0, k):
        C2, G2 = honest(C, G, B_t, B0, k)
        out = [list(row) for row in C2]
        out[0][k - 1] += 1
        return tuple(tuple(row) for row in out), G2

    monkeypatch.setattr(pattern, "cg_step", bumped_c_0k)
    report = _falsified_report(capsys, "gyo21")
    kinds = [w["kind"] for w in report["witnesses"]]
    assert (kinds.count("coefficient-column"), kinds.count("companion-duality")) == (12, 8)
    assert report["stats"] == {"num_seeds": 14, "num_witnesses": 40}


def test_planted_binomial_defect_gives_a2_monomials_an_inequality_witness(capsys, monkeypatch):
    import types

    import cluster_logcc.verify as verify

    def comb(n, k):  # C(20, 1) one short: 19^2 < C(19, 1) * C(21, 1)
        return math.comb(n, k) - ((n, k) == (20, 1))

    monkeypatch.setattr(verify, "math", types.SimpleNamespace(comb=comb))
    report = _falsified_report(capsys, "a2-monomials", "--deg", "4")
    assert report["witnesses"] == [{"kind": "binomial-inequality", "n": 20, "k": 1}]


def test_planted_negated_constant_is_a_conj1_a2_witness(capsys, monkeypatch):
    import cluster_logcc.verify as verify

    honest = verify._eliminate
    products = []

    def negate_first_constant_once(prod, basis, lead_index):
        coeffs, residual = honest(prod, basis, lead_index)
        if not products:
            first = min(coeffs)
            coeffs = {**coeffs, first: -coeffs[first]}
        products.append(prod)
        return coeffs, residual

    monkeypatch.setattr(verify, "_eliminate", negate_first_constant_once)
    code, report = _verify_report(capsys, "conj1-a2", "--deg", "4")
    assert code == 1 and report["status"] == "exploratory"
    assert [w["kind"] for w in report["witnesses"]] == ["negative-constant"]
    assert [c for _, c in report["witnesses"][0]["constants"]] == [-1]
    assert report["stats"]["num_pairs"] == len(products) == 195
