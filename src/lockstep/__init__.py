"""Round-synchronous cooperation with bounded disagreement.

A fleet agrees each round on a shared value gossiped over an unreliable
timed network; any member that misses a message pulls the whole group onto a
default fallback value within one round. The package bundles the protocol
state machine, a deterministic discrete-event simulator with replayable
traces, trace checkers for the stability properties, a brute-force
round-granularity verifier, and a vehicle-platooning application of the
whole stack.

Each name is imported from its own module: ``protocol``, ``sim``,
``analysis``, ``oracle``, ``platoon`` or ``cli``. Importing the package
loads none of them, so ``import lockstep.protocol`` loads the protocol alone.
"""

__version__ = "0.1.0"
