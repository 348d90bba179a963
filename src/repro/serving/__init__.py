"""Concurrent serving layer: the front door of one EIL deployment.

The paper's production EIL served an entire community of practice from
one OmniFind index plus one synopsis database; this package is the
repro's equivalent of that serving tier:
:class:`~repro.serving.server.EILServer`, a thread-pool front door
with a bounded admission queue, deadline-aware rejection, load
shedding (:class:`~repro.errors.ServerOverloadedError`) and a circuit
breaker, surfaced through ``serving.*`` metrics.

Snapshot semantics: every engine mutation and its epoch bump run under
the write side of a writer-preferring read/write lock, every query
under the read side, so a query racing ``add_workbook`` /
``remove_deal`` always observes *some* quiesced epoch — never a torn
index.
"""

from repro.serving.server import EILServer

__all__ = ["EILServer"]
