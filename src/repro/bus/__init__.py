"""Bus models: the MBus memory bus and the QBus I/O bus.

The MBus (``repro.bus.mbus``) is the heart of the Firefly: a 100 ns
cycle, 4-cycle-per-operation shared bus with fixed-priority arbitration
and the ``MShared`` snoop-response wire.  The QBus (``repro.bus.qbus``)
is the standard DEC I/O bus, reached only through the I/O processor,
with mapping registers translating its 22-bit space into the Firefly's
physical space.
"""

from repro.bus.mbus import MBus, SnoopResult, Snooper
from repro.bus.qbus import QBus, QBusMap
from repro.bus.signals import TimingDiagram

__all__ = [
    "MBus",
    "QBus",
    "QBusMap",
    "Snooper",
    "SnoopResult",
    "TimingDiagram",
]
