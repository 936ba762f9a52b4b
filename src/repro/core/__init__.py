"""The paper's primary contribution: exchange mechanisms.

Submodules implement the incoming request queue (:mod:`repro.core.irq`),
request trees (:mod:`repro.core.request_tree`), the n-way ring search
(:mod:`repro.core.ring_search`), candidate-ordering policies
(:mod:`repro.core.policies`), ring lifecycle and token validation
(:mod:`repro.core.ring`, :mod:`repro.core.token_protocol`), the
exchange-priority upload scheduler (:mod:`repro.core.scheduler`) and the
exchange manager that ties them together
(:mod:`repro.core.exchange_manager`).  The Bloom-filter request-tree
variant sketched in the paper's §V lives in :mod:`repro.core.bloom_tree`.
"""

from repro.core.irq import IncomingRequestQueue, RequestEntry
from repro.core.policies import (
    ExchangePolicy,
    LongestFirstPolicy,
    NoExchangePolicy,
    PairwiseOnlyPolicy,
    ShortestFirstPolicy,
    parse_mechanism,
)
from repro.core.request_tree import RequestTreeNode, build_snapshot
from repro.core.ring import ExchangeRing, RingEdge, edges_from_candidate
from repro.core.ring_search import RingCandidate, find_candidates

__all__ = [
    "ExchangePolicy",
    "ExchangeRing",
    "IncomingRequestQueue",
    "LongestFirstPolicy",
    "NoExchangePolicy",
    "PairwiseOnlyPolicy",
    "RequestEntry",
    "RequestTreeNode",
    "RingCandidate",
    "RingEdge",
    "ShortestFirstPolicy",
    "build_snapshot",
    "edges_from_candidate",
    "find_candidates",
    "parse_mechanism",
]
