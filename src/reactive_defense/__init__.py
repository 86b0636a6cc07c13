"""Repeated attack-defense games with a learning reactive defender.

A system is a directed graph with surfaced edges and rewarded vertices
(or a Horn-clause analog).  ``run_game`` plays a defender against an
attacker for a number of rounds; the analysis module checks the played
trace against the reactive defender's regret and return-on-attack
ceilings.  See the README for the command-line interface.
"""

from .analysis import profit_regret
from .attackers import BestResponseAttacker
from .defenders import ReactiveDefender
from .engine import run_game
from .fixtures import fixture

__version__ = "0.1.0"

__all__ = [
    "BestResponseAttacker",
    "ReactiveDefender",
    "__version__",
    "fixture",
    "profit_regret",
    "run_game",
]
