"""Core abstractions of the nFSM model: letters, protocols, network state."""

from repro.core.alphabet import (
    EPSILON,
    Alphabet,
    BoundingParameter,
    Letter,
    Observation,
    is_epsilon,
)
from repro.core.builder import ProtocolBuilder
from repro.core.errors import (
    AutomatonError,
    CompilationError,
    ExecutionError,
    GraphError,
    OutputNotReachedError,
    ProtocolNotVectorizableError,
    ProtocolSpecificationError,
    StoneAgeError,
    VerificationError,
)
from repro.core.interning import Interner
from repro.core.network import NetworkState, PortTable
from repro.core.protocol import (
    ExtendedProtocol,
    Protocol,
    ProtocolCensus,
    State,
    TableExtendedProtocol,
    TableProtocol,
    TransitionChoice,
    tabulate_extended,
)
from repro.core.results import (
    ExecutionResult,
    TransitionRecord,
    build_synchronous_result,
)

__all__ = [
    "EPSILON",
    "Alphabet",
    "AutomatonError",
    "BoundingParameter",
    "CompilationError",
    "ExecutionError",
    "ExecutionResult",
    "ExtendedProtocol",
    "GraphError",
    "Interner",
    "Letter",
    "NetworkState",
    "Observation",
    "OutputNotReachedError",
    "PortTable",
    "Protocol",
    "ProtocolBuilder",
    "ProtocolCensus",
    "ProtocolNotVectorizableError",
    "ProtocolSpecificationError",
    "State",
    "StoneAgeError",
    "TableExtendedProtocol",
    "TableProtocol",
    "TransitionChoice",
    "TransitionRecord",
    "VerificationError",
    "build_synchronous_result",
    "is_epsilon",
    "tabulate_extended",
]
