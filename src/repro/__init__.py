"""repro — exchange-based incentive mechanisms for P2P file sharing.

A faithful, laptop-scale reproduction of Anagnostakis & Greenwald,
"Exchange-Based Incentive Mechanisms for Peer-to-Peer File Sharing"
(ICDCS 2004 / UPenn TR MS-CIS-03-27): a discrete-event simulator of a
slot-based file-sharing network in which peers give absolute priority to
pairwise and n-way ring exchanges, plus the request-tree search, token
validation, cheating analysis and every experiment of the paper's
evaluation section.

Quickstart::

    from repro import SimulationConfig, run_simulation

    result = run_simulation(SimulationConfig(exchange_mechanism="2-5-way"))
    print(result.summary.speedup_sharers_vs_freeloaders)
"""

from repro.config import SimulationConfig
from repro.context import SimContext
from repro.core.policies import (
    ExchangePolicy,
    LongestFirstPolicy,
    NoExchangePolicy,
    PairwiseOnlyPolicy,
    ShortestFirstPolicy,
    parse_mechanism,
)
from repro.errors import (
    CapacityError,
    ConfigError,
    MetricsError,
    ProtocolError,
    ReproError,
    RingError,
    SchedulingError,
    SimulationError,
    StorageError,
)
from repro.metrics.records import (
    DownloadRecord,
    SessionRecord,
    TerminationReason,
    TrafficClass,
)
from repro.metrics.summary import SimulationSummary
from repro.population import PeerClassSpec
from repro.scenario import (
    CapacityChange,
    DemandShift,
    FlashCrowd,
    MechanismRamp,
    PeerArrival,
    PeerDeparture,
    Phase,
    ScenarioDirector,
    StrategyShock,
)
from repro.simulation import FileSharingSimulation, SimulationResult, run_simulation
from repro.strategy import STRATEGY_RULES, StrategyDirector, StrategySpec

__version__ = "1.3.0"

__all__ = [
    "CapacityChange",
    "CapacityError",
    "ConfigError",
    "DemandShift",
    "DownloadRecord",
    "ExchangePolicy",
    "FileSharingSimulation",
    "FlashCrowd",
    "LongestFirstPolicy",
    "MechanismRamp",
    "MetricsError",
    "NoExchangePolicy",
    "PairwiseOnlyPolicy",
    "PeerArrival",
    "PeerClassSpec",
    "PeerDeparture",
    "Phase",
    "ProtocolError",
    "ReproError",
    "RingError",
    "ScenarioDirector",
    "SchedulingError",
    "SessionRecord",
    "ShortestFirstPolicy",
    "SimContext",
    "SimulationConfig",
    "SimulationError",
    "SimulationResult",
    "SimulationSummary",
    "StorageError",
    "STRATEGY_RULES",
    "StrategyDirector",
    "StrategyShock",
    "StrategySpec",
    "TerminationReason",
    "TrafficClass",
    "__version__",
    "parse_mechanism",
    "run_simulation",
]
