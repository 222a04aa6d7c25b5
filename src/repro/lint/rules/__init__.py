"""Rule modules of the protocol-contract analyzer.

Importing this package registers every rule with the core registry.  Each
module covers one family of engine invariants:

``determinism``  (DET0xx)
    Bit-identity across engines requires every random draw to come from
    ``ctx.rng`` and every send order to be deterministic.
``process_safety``  (PROC0xx)
    The sharded engine pickles protocol objects and per-node state across
    worker pipes (``sharding/workers.py``).
``wire``  (WIRE0xx)
    Payloads must stay inside the vocabulary the packed wire format
    round-trips (``sharding/wire.py``, property-tested in ``test_wire.py``).
``budget``  (BDG0xx)
    CONGEST messages carry O(log n) bits; whole containers in a payload can
    only violate ``message_bit_budget`` at scale.
``hooks``  (HOOK0xx)
    The sanctioned protocol life cycle: no sends after ``ctx.halt()``, no
    private context access, vectorized kernels paired with callback
    semantics.
``pipeline``  (PIPE0xx)
    Declared ``PhaseEffects`` drive phase fusion and prefix caching
    (``congest/pipeline.py``); hooks must not touch context keys their
    declaration omits.
"""

from repro.lint.rules import (  # noqa: F401
    budget,
    determinism,
    hooks,
    pipeline,
    process_safety,
    wire,
)
