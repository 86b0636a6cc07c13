"""Exact output bits: sha256 digests of the files ``write_trace`` makes.

The reference checks in ``perfbench/golden.py`` compare costs only to a
relative tolerance; these digests pin every byte of three short games,
costs, payoffs, allocations and rates included.  No minimax defender
takes part, since its LP goes through LAPACK.  A change that moves any
output bit fails here; record the digests again only on purpose.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from reactive_defense.attackers import BestResponseAttacker, MultiAttacker, RandomPathAttacker
from reactive_defense.defenders import KnownEdgesDefender, ReactiveDefender
from reactive_defense.engine import run_game
from reactive_defense.generators import random_system
from reactive_defense.io import write_trace


def _br_system():
    # The br-game default system of perfbench: 20 edges, 3727 attacks.
    return random_system(random.Random(26), 30, 10)


GAMES = {
    "reactive-best-roa": (
        _br_system,
        ReactiveDefender,
        lambda: BestResponseAttacker("roa"),
        300,
        {
            "trace": "c5f4a0125aa0c1d6480136459411f0782870f4caf80b96fdfa8250da6728374c",
            "allocations": "2ab98075ff4f830190a198332314de7bbcee76e5d3461df9781543abdf1137ad",
            "summary": "6a1849524d7124ab9cb3a6b2ffcfcb0ed7d0c4d49f84301b1fb2b35dd0ca1e2b",
        },
    ),
    "reactive-best-profit": (
        _br_system,
        ReactiveDefender,
        lambda: BestResponseAttacker("profit"),
        300,
        {
            "trace": "8ae77db528b57566c883f2192da768ac99596b1df868d50050264167ff6c6abc",
            "allocations": "ceff396cd19b4e155acafef53bb289d3054bf6e2b8045f7ee4fbd544e4073a81",
            "summary": "85b9ce33a2fa6324f928da1665073fb509552d3e715c09d2930f35a580c3cdcf",
        },
    ),
    "known-multi-random": (
        # 13 edges, 187 attacks.
        lambda: random_system(random.Random(4)),
        KnownEdgesDefender,
        lambda: MultiAttacker([RandomPathAttacker() for _ in range(4)]),
        300,
        {
            "trace": "802d05b62eef697e29bf7e067fc3d7c7b225ef7bfae8a83f3827b416b8d50fce",
            "allocations": "12644dc41e227a11a0369a26713b6aac1ae36ae1ee1bb8635de82e9e8555eb7c",
            "summary": "22c0c0696d67e4fd8675460ef4a9c00e5309791149d1168f84d9b0d6499ef602",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GAMES))
def test_trace_files_match_recorded_digests(name, tmp_path):
    make_system, defender, attacker, rounds, digests = GAMES[name]
    trace = run_game(make_system(), defender(), attacker(), rounds, seed=5)
    paths = write_trace(trace, tmp_path)
    found = {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in paths.items()}
    assert found == digests
