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
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_report_digest(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("QORDER_SEED", raising=False)
    assert main([*argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
