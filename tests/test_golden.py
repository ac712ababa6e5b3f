"""Frozen sha256 digests of fixed `--format json` reports.

Reports are exact and canonical, so their bytes pin down moduli, orders,
factors, counts and formatting at once.  A digest changes only when a report
changes on purpose; record the new one together with the reason.
"""

import hashlib

import pytest

from qorder.cli import main

GOLDEN = [
    (
        ("verify-theorem", "--grid"),
        "55e19b5baf1b383c73781a3dea57110910bff5199822fd8087b9abd16a12271c",
    ),
    (
        ("corollary2", "--grid"),
        "c1b33a64e290a81aed447920c4392985f6d25e68045b513340820015df6a0e83",
    ),
    (
        ("pnbt", "--grid"),
        "bb2bf5f574c8d453a32105b7d6fbcd9634d1c78d0e31db98b2dbafb11384d3dd",
    ),
    (
        ("--p", "3", "--s", "2", "--n", "3", "orders"),
        "b8383da7fe4a765406614a5c3a7f4857ae09df976502580446274c2568054ab7",
    ),
    (
        ("--p", "2", "--s", "8", "factor", "--n", "17"),
        "0ae6d4532453ae647a90395084ebf546514f9e452369da827eb2740320c56194",
    ),
    (
        ("--p", "5", "--s", "2", "--n", "2", "char-order", "3,7"),
        "12d3bafe7e4348b7a2f13a138834596277128e726403494fb95fed250024ad51",
    ),
    # Past the 2^14 table bound, on the coefficient-vector path.  Recorded from
    # a checkout of the commit before Frobenius and the action became matrices
    # there, when Frobenius was still a square-and-multiply.  The labels' element
    # orders are x^8+x^4+x^2+x+1 (not self-reciprocal), x^4+2x^3+x^2+2x+1 and (x+1)^6.
    (
        ("--p", "2", "--n", "15", "char-order", "0,0,1,0,1,0,0,0,0,0,0,1,1,1,1"),
        "a06b7352cb68a3d4f936ad9143d99170a9550808264883be94a598b336ec6dcf",
    ),
    (
        ("--p", "3", "--n", "10", "char-order", "0,2,0,2,0,1"),
        "0fc333e8a7488c6419728610aeaabb49d8d58622436f38ef81ec4d424d50282a",
    ),
    (
        ("--p", "2", "--s", "2", "--n", "8", "char-order", "1,1,0,0,2,2,1,2"),
        "c4260143bafc5d5d19d3c6b64a453a300694cac738d07fba464659454eb8b59c",
    ),
    # Factorizations over F_2 as bit masks.  Recorded from a checkout of the
    # commit before FqPoly kept F_2[x] in one int, when n = 1023 took about 6 s.
    # x^1023 - 1 has 107 irreducible factors of degrees 1, 2, 5 and 10;
    # x^1024 - 1 = (x + 1)^1024.
    (
        ("--p", "2", "factor", "--n", "1023"),
        "8b1e768b91541de0470c696423c849877ad8ef0f5ddd00297b437339b2f42b3f",
    ),
    (
        ("--p", "2", "factor", "--n", "1024"),
        "6581ba69abac1107fcb8d7412aacac3e49d2acb9593015a05ad81b8498788451",
    ),
    # Odd q with s = 2, recorded from a checkout of the commit before the tower
    # and FqPoly shared one coefficient-list multiply and reduction and F_{q^n}
    # added base-p digits.  F_{25^4} lies past the table bound; the label's
    # element order x^2 + 2x + 2 is not self-reciprocal.
    (
        ("--p", "5", "--s", "2", "--n", "4", "char-order", "1,20,3,18"),
        "fab16bc36b6f13b5963ddd2681a73aab7b93c4122ac7c75334c394c0fa8b7cde",
    ),
    (
        ("--p", "3", "--s", "2", "factor", "--n", "80"),
        "94dbaa01e43130230ee1f0c28c95b8ee87b24e0d2102f56baf75b2d53ffa8aa9",
    ),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_report_digest(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("QORDER_SEED", raising=False)
    assert main([*argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
