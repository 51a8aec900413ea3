"""LSCR query algorithms: UIS (Alg. 1), UIS* (Alg. 2), INS (Alg. 4),
the naive two-procedure baseline of Section 3, the bidirectional Meet
kernel the service runs by default (ours), and shared plumbing."""

from repro.core.base import LSCRAlgorithm
from repro.core.close import CloseMap, F, N, T
from repro.core.ins import INS
from repro.core.lcr import bfs_distance_ring, lcr_closure, lcr_reachable
from repro.core.meet import MeetSearch
from repro.core.naive import NaiveTwoProcedure
from repro.core.query import LSCRQuery
from repro.core.result import QueryResult, ResultAggregate
from repro.core.uis import UIS
from repro.core.uis_star import UISStar
from repro.core.witness import WitnessPath, find_witness, verify_witness

__all__ = [
    "CloseMap",
    "F",
    "INS",
    "LSCRAlgorithm",
    "LSCRQuery",
    "MeetSearch",
    "N",
    "NaiveTwoProcedure",
    "QueryResult",
    "ResultAggregate",
    "T",
    "UIS",
    "UISStar",
    "WitnessPath",
    "bfs_distance_ring",
    "find_witness",
    "lcr_closure",
    "lcr_reachable",
    "verify_witness",
]
