"""Byte-level pins of every claim report at small scopes.

Each digest is the sha256 of the report exactly as `verify` emits it,
`json.dumps(report.to_json_dict(), indent=2) + "\\n"`.  A refactor of the
sweep, the companion-matrix step, the elimination loop or the chord loops
must leave all of them unchanged.  So must the seeds `cluster-logcc
mutate` dumps, which are pinned the same way, and the order in which the
flip search of tests/oracles.py lists triangulations (test_polygon.py
checks the seed sweep's classes against that order).
"""

import hashlib
import json

import pytest

from cluster_logcc.cli import main
from cluster_logcc.polygon import zigzag
from cluster_logcc.verify import run_claim
from oracles import plain_flip_graph


def _digest(obj) -> str:
    return hashlib.sha256((json.dumps(obj, indent=2) + "\n").encode()).hexdigest()


# claim -> digests at ranks 1..5
BY_RANK = {
    "main1": [
        "171c7c2a7e62820579487afd4e9f6f185f56733b82073f44c1a439b56c4e36b5",
        "b226aa5508748330a39bc013c2d28291e940f7fe183bf226d56ed663fb3cafbe",
        "0eb1350bdfa5ad37fb6a278bfd50d6482f54c843b41f443a2cadeed2ac4e1356",
        "4d6bac5df07ac0e256c0c3c7ff33a54cae1a3f3a7687c1c3d21d8dc5ed58efb9",
        "ec6250588c121abf7a84016138f9e281000aecbdb6aef41fad2dd90187dbb283",
    ],
    "coeff012": [
        "63acdbc9f1c1b258faf99e130fbb6d2e98b4adcde0d4cd91e0456fd592753515",
        "feab4e7e3bfbeb68ea5a2deb22c033c5bf62bfed6c0dc836cdec917e425b2704",
        "a606e28328b73db64da43a352e1a426e7fb14509625435b262cc9b222f08e5f1",
        "ac081a18d8fb211f994a57facf55f7ae70bb082b70a9f430afde53c6875bceb7",
        "94073487f8595f5d1b66d342c99bdb87ff599950e8ec92246c3eb8b8cde3fc85",
    ],
    "gyo21": [
        "c508e47902416a472b4c78b4657bd059ac923560dfbc8f810d08d4e6cbb335fb",
        "a261739f16341963cd8ee2ec6cd2dff8db386feba9a9049e05556e5a27c0f243",
        "3d49a5af9739e9676fa62585f91b5f4ce9697feb9beb136bae96557396131656",
        "6b8844add8efb5cfc83eb2064b7bc0d7ab2fa130f867d59bb70eca92b84a28cd",
        "9cf9814d36bea4cdc2eb4d220982ad0062193eb031ba48d9277c5ed9c625ea4a",
    ],
    "fpoly": [
        "96568fbdc65864e9ed2deefca4cd8a0dd8b17f62b8e16e2eecde6383c2e22f84",
        "3efd7847893ef1eb67e0209ca2331144f708bcdea7f5615f3cb720d16e25ed6a",
        "ae2df3ca58e233e00616942712ce064e38bab0cf8647aea5008aeff5b9fca178",
        "fcfaac02c3c951130f59236c23316d6ad2f3ba20628e635fb0e1637217878d66",
        "50e137d6b568a5404f1cf996655e50e1ab3014547953aa1d16be9c04921a94dc",
    ],
    "separation": [
        "c9985824ceb83cf578d5cbc0c432361d95cd02ade8596694cc63e1685a77f125",
        "4ae503b600ae1cc56d21a396782a0f6ad5ef4c4b48515edbb80aedf2e944efe1",
        "5c36381857c1b796b7e9f0f4fd53408dc32a10c7d0b9127503d526e10e277155",
        "e7f724d9525bf6f79378c005c1629cd169ef4bfb866720725f775a361b2bc553",
        "6e57100578fc3905d4952b2421d5da692a640989fad29a66cc661949a6b30594",
    ],
}

# claim -> digests at degrees 0..8
BY_DEGREE = {
    "a2-monomials": [
        "9f8c95d6cd6cbf892e8f37185c488e2081f293e1e0d27ea549854ec9890e96b3",
        "5909ab42837d4c881435ada0d6dcf681f04e9facfd82fae9a728e2bcb575f0a5",
        "ae5b13021145782ecc20e1c2660f4f80d2e74605eedf931d23249869667d85af",
        "0e103de26d1b1a45734985726399d51825186d5e8065d1d03134fa342d40f7b8",
        "a9b4b1a9f3d1d5defdaf4de0fcfd8d07b7ee3c9ea4ad7e6304648f253f49ce1f",
        "7344cf425596d68f10c194be39a5be59c886db13a2a8393b4adcb3e4645fe8f1",
        "19a2baf8fa3553769bf27533a0f62f71913d65ac50f97311289c693eb4122e99",
        "771c7c817a11072f90423b89a205e31e568ac94c0c50ec98102be48830990155",
        "ca45f462b3649a1c5bf9623c2b4aad62b954a05f4af836064bb1b8ddbabf9655",
    ],
    "conj1-a2": [
        "f1f78151fb98d4a71c70ff86adec55db1145652e634f105cf867095dde5d0346",
        "2e21d5e35930df6f4979ea6e899f4461ba3a42b9b71702a516f86f8a942e8909",
        "9c580d38c8461fa941fcce41705dc53640237af50aeea8fa19312477e9965ff2",
        "5aad4a5ad39eb9c306298841a4e443f4760dd406bef4c2636350448d3c9e6b79",
        "73e3bab1386f78120544e0484a64c6582ec7ff8e9b5230fed34d64134e301aed",
        "2fe55c63dd14d57e57017a14218221ed4e78bc2870a8a0457c1e531af0340713",
        "e24785c56351fb0c65c1943f95dc9800dd5022b05356726982e990161936a9b2",
        "622f77a53146d0580bbcabe8c296bda8c8a93cbba852c28eb67e818494d4ae76",
        "5b4fca8b0475becd770a080774b426fb3eac5375002d6f9ebe9ef57713566496",
    ],
}

# conj-an digests: row = rank 1..4, column = degree 1..4
CONJ_AN = [
    [
        "52763c7eb94c548aab2993d6f65a8628e11ef6c468212cd4e31e72756f54e9ef",
        "873576de130f598436544e5302ce536415d0b4ce976e098da36722949124c6db",
        "d0ba386a1be2dbdc6e4151183a6bb9f9acfea685a3a33316a2bb012dc4464a72",
        "17e17d63302d021b78be941e3c584ca0c6a47decee45948fbb1a6fd1c0b5888c",
    ],
    [
        "6b4c7cdff2ecd945e525aed947229d2ffae81df1760a3cd6d5962376a2d50b55",
        "7b786fb9c92baf5b6b1780a18dc8a426c370daa153b96d816bfcaa918623f3fd",
        "38823bb06d8fdc6f54107c7b35f23ab69dfc9f4219440ece210e759479a77b83",
        "a2574891dc4395396cc5acd2be367047e05c59b1461fc1479cac7ecff5d011b3",
    ],
    [
        "a58fd8e32109e34421e3552ad8dda124d496887ac35cba6a18b5ce525233af6c",
        "681f71550284a3175cbda3180493888328309937deaa2dcd7b3545d4cf83992c",
        "da20ff94ac4e5454c7c0523f1de1232d93d7602c80f8fd4b01624845add26c56",
        "e2a0554b3864ed2fc064efa23f07a56f4a9d56a479f8fdcbee77ecbb0dc111a0",
    ],
    [
        "3e14edfbe8b49b8c354683091300dd5def393919e8ab6499123ef348cbba2a06",
        "eeca690d5ac6d010b1c1b2395341ace04e01511da9fc6e25efcc30174a904c1f",
        "a8c0141ded145807151863597e3137232b8a5d0c9f5853c82264c4940df86a1d",
        "a353a06f7dd3771269f7f69c570ac76c06fa51e5b2460eafb056622f289a6d10",
    ],
]

# ordered diagonal lists of plain_flip_graph(zigzag(n)), n = 1..5
TRIANGULATIONS = [
    "67f03156022aaa47f2114dd77dd1c384cc5bda460872a5b7f353c280ef225a82",
    "d6710986b4f7d34eae458756c15ea0c2aa4bde8eb355a664a916fc918fd42e20",
    "f176805264c9c03c0af95b7f9b1e69a4c33cf667d8d28fbbe32a1b4bd4b69b79",
    "517e028be420d3f659391beea5b024ba7e96d949fbfaf89f73c68464ef76c95d",
    "ab67bd6c803645a8fafcb673b55901c6c2b098d554bdce35de024276b24adde7",
]

# `cluster-logcc mutate` output at ranks 1..4 on the path 1,2,3,4,3,2,1, each
# direction d taken as (d - 1) % rank + 1.  They pin seed_to_json's bytes.
MUTATE = {
    "free": [
        "0d760487a02e15b2696969054c13307f88799cab039842e726dbbf9412009b50",
        "cc3f5bcec6b79c09d19f1652d2071dbcac47070db89b6b64d9932fc9611b7526",
        "c28087c2ef9e3d6aa2752f3e70d171036bcb1b614ccb49dc186f62240d9ce1c3",
        "cb043303ba41a6ec700ed3add76504ff64ba07544499acf0bf5d2552113d7ea6",
    ],
    "principal": [
        "634d44aea2e30466ce6c7b2b368eafe23748922d40ad75e50586270ed5684554",
        "3afcf496c5c0d94ebce6ffd39c045eac3289b5206b7cb4147d0a92653f98a649",
        "95843f688875921c7763f71accb29498229c1c509d04c7008a98100d2040a077",
        "f34a5c5d9f1a89b4e3182e78550d1cab82d1c5995ea03bcd35b876b5f77014e0",
    ],
}


@pytest.mark.parametrize("claim", sorted(BY_RANK))
def test_rank_claim_reports(claim):
    got = [_digest(run_claim(claim, rank=n).to_json_dict()) for n in range(1, 6)]
    assert got == BY_RANK[claim]


@pytest.mark.parametrize("claim", sorted(BY_DEGREE))
def test_degree_claim_reports(claim):
    got = [_digest(run_claim(claim, deg=d).to_json_dict()) for d in range(9)]
    assert got == BY_DEGREE[claim]


@pytest.mark.parametrize("n", range(1, 5))
def test_conj_an_reports(n):
    got = [_digest(run_claim("conj-an", rank=n, deg=d).to_json_dict()) for d in range(1, 5)]
    assert got == CONJ_AN[n - 1]


def test_flip_search_order():
    got = [
        _digest([[list(p) for p in t.diagonal_pairs()] for t in plain_flip_graph(zigzag(n))])
        for n in range(1, 6)
    ]
    assert got == TRIANGULATIONS


@pytest.mark.parametrize("coeff", sorted(MUTATE))
def test_mutate_output(capsys, coeff):
    got = []
    for n in range(1, 5):
        path = ",".join(str((d - 1) % n + 1) for d in (1, 2, 3, 4, 3, 2, 1))
        assert main(["mutate", "--rank", str(n), "--coeff", coeff, "--path", path]) == 0
        got.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert got == MUTATE[coeff]


def test_fpoly_needs_no_companion_matrices(monkeypatch):
    import cluster_logcc.pattern as pattern

    def unreachable(*args):
        raise AssertionError("fpoly reads only the cluster variables of principal seeds")

    for name in ["state_step", "cg_step", "d_vector_step"]:
        monkeypatch.setattr(pattern, name, unreachable)
    got = [_digest(run_claim("fpoly", rank=n).to_json_dict()) for n in range(1, 6)]
    assert got == BY_RANK["fpoly"]


# the principal claims at rank 6 (132 seeds at rank 5, 429 here)
RANK_6 = {
    "gyo21": "291339eb42305d43186d6d2f015e96978f064a436ea3a95eb94c91a174c69125",
    "fpoly": "eac129ccde3c31d61352bce347451953bd9313349586881a9a2e02253ba385d4",
    "separation": "3e0b15a5f3492e42fef8693dd386d2ffdc4bb575f06a8fe827a65370fb3c0834",
}


@pytest.mark.parametrize("claim", sorted(RANK_6))
def test_principal_claim_reports_at_rank_6(claim):
    assert _digest(run_claim(claim, rank=6).to_json_dict()) == RANK_6[claim]


def _off_by_one_d(honest):
    def planted(D, B, k):
        out = [list(row) for row in honest(D, B, k)]
        out[0][k - 1] += 1
        return tuple(tuple(row) for row in out)

    return planted


def _negated_g_kk(honest):
    def planted(C, G, B_t, B0, k):
        C2, G2 = honest(C, G, B_t, B0, k)
        out = [list(row) for row in G2]
        out[k - 1][k - 1] = -out[k - 1][k - 1]
        return C2, tuple(tuple(row) for row in out)

    return planted


# Full falsified reports at rank 4 under the planted companion-step defects of
# test_verify.py: witness order, the kept 20 witnesses and num_witnesses.
PLANTED_RANK_4 = [
    ("d_vector_step", _off_by_one_d, "gyo21",
     "24d0f6db22b02e8e1280f5383ce896cafd1f5b2f1b2394d0e1625fd0093223d4"),
    ("cg_step", _negated_g_kk, "gyo21",
     "f06e0436a3bfb0ff767ca64734bd3efe555a79eff43793c0a5d1771f4db69803"),
    ("cg_step", _negated_g_kk, "separation",
     "aa2448b107e901222dd79a4d6321aacdb66e55e5b3f31871b87ed2d200897c8a"),
]


@pytest.mark.parametrize("step,plant,claim,digest", PLANTED_RANK_4)
def test_planted_defect_reports_at_rank_4(monkeypatch, step, plant, claim, digest):
    import cluster_logcc.pattern as pattern

    monkeypatch.setattr(pattern, step, plant(getattr(pattern, step)))
    report = run_claim(claim, rank=4)
    assert report.status == "falsified"
    assert _digest(report.to_json_dict()) == digest


def _bumped_c(honest):
    def planted(C, G, B_t, B0, k):
        C2, G2 = honest(C, G, B_t, B0, k)
        out = [list(row) for row in C2]
        out[0][k - 1] += 1
        return tuple(tuple(row) for row in out), G2

    return planted


# Uncapped falsified reports at ranks 3..5 under planted companion-step
# defects: every witness, in scan order, with its uncapped count.
PLANTED_UNCAPPED = [
    ("d_vector_step", _off_by_one_d, "gyo21", [41, 161, 626], [
        "c50281bd3ee12f68985a88bd4d42c9f8d492f570f8f1bd62bb2a3573c83cd2f5",
        "6c04c43c38407c0dfaadb9e0948430f509a1132fcf7cc36032484a13a285ec2b",
        "3e015f4827e3af6d5ce0cd77b2299f2c6c40efb24b67af89199edb7478506242",
    ]),
    ("cg_step", _negated_g_kk, "gyo21", [13, 41, 131], [
        "340c9cf4c9d33acc488f8f4a7113119bd40e527845c2581fc8bc3a7aaf55fa9f",
        "37fb4ccd4eccf08cbe9108ecc961d9e9b22f5b459c40401a9ab5ba175fb12b90",
        "467c866ae824e4433b62c36cd17e52aa2a9c4f2cebdda2dffa028117674e0a61",
    ]),
    ("cg_step", _bumped_c, "gyo21", [40, 154, 590], [
        "4bf50f2672191e22fb4809372856e05976b045b8a6949dc75ebe3a0aa7540ea6",
        "27a8002f1fa96f50d0e6892ea50d5e38c60b67cb0601937a2e5cfcad0fb1900a",
        "80781d5dce3e8adb304ddec590f28195f3bff39d3540cb5864864ca99a184dbf",
    ]),
    ("cg_step", _negated_g_kk, "separation", [24, 98, 414], [
        "8c76b391c11a7b9c49c2ad10782c27f08b274e3977029277c02645c524c9a37d",
        "6ae35915287398b59805a1cca358652e2e01c09e6fb05f88fa56a1e57ad7e0c2",
        "3df9746ec50e63be9681256d8af3ff80882fac68f9e18b26d85cf742c90fd0be",
    ]),
]


@pytest.mark.parametrize(
    "step,plant,claim,counts,digests",
    PLANTED_UNCAPPED,
    ids=["gyo21-d-off-by-one", "gyo21-g-negated", "gyo21-c-bumped", "separation-g-negated"],
)
def test_planted_defect_reports_uncapped(monkeypatch, step, plant, claim, counts, digests):
    import cluster_logcc.pattern as pattern
    import cluster_logcc.verify as verify

    monkeypatch.setattr(pattern, step, plant(getattr(pattern, step)))
    monkeypatch.setattr(verify, "WITNESS_CAP", 10**9)
    reports = [run_claim(claim, rank=n) for n in range(3, 6)]
    assert [r.found for r in reports] == [len(r.witnesses) for r in reports] == counts
    assert [_digest(r.to_json_dict()) for r in reports] == digests
