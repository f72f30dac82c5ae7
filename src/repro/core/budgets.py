"""Default execution budgets, shared by the engines, the run spec and the CLI.

An engine stops at its budget and reports an execution that has not reached
an output configuration; ``raise_on_timeout`` turns that into
:class:`~repro.core.errors.OutputNotReachedError`.
"""

#: Synchronous rounds, plain and dynamic environments alike.
DEFAULT_MAX_ROUNDS = 100_000

#: Processed events (node steps plus applied deliveries) of an asynchronous run.
DEFAULT_MAX_EVENTS = 5_000_000
