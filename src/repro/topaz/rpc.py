"""The Topaz RPC transport model.

Paper §4.1: "Inter-address-space and inter-machine communications in
Topaz are handled by remote procedure calls", and §6 reports the
measured headline: "our RPC data transfer protocol, with multiple
outstanding calls, achieves very high performance.  The remote server
can sustain a bandwidth of 4.6 megabits per second using an average of
three concurrent threads."

The model distinguishes the two transports:

- **Inter-address-space** (same machine, via the Nub): a call is a
  context switch pair plus argument copying through a shared buffer —
  pure memory and scheduling work, no devices.
- **Inter-machine** (via the DEQNA): each call marshals, pushes its
  packets through the controller (QBus DMA + wire time + per-packet
  driver/interrupt overhead on the serialised controller path), waits
  for the remote server's turnaround and the reply, then unmarshals.
  One client thread leaves the controller idle during server
  turnaround and marshalling; additional threads fill those gaps until
  the controller path saturates — which, with the default constants,
  happens near 4.6 Mbit/s at about three threads (bench A5).

The remote machine is a fixed-turnaround responder (see
``DESIGN.md``'s substitution table).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.errors import ConfigurationError
from repro.common.stats import StatSet
from repro.io.ethernet import EthernetController, RemoteEndpoint
from repro.telemetry.probe import NULL_PROBE
from repro.topaz import ops
from repro.topaz.kernel import TopazKernel


@dataclass(frozen=True)
class RpcParams:
    """Costs of one bulk-data RPC call.

    Defaults are tuned so the saturated transport delivers the paper's
    ~4.6 Mbit/s: per packet, the serialised controller path costs the
    QBus DMA of the payload, the wire time, and
    ``driver_overhead_cycles`` of driver + interrupt + IPI work.
    """

    payload_bytes: int = 1400
    packets_per_call: int = 4
    reply_bytes: int = 64
    marshal_instructions: int = 150
    unmarshal_instructions: int = 100
    server_turnaround_cycles: int = 30_000

    def __post_init__(self) -> None:
        for field in ("payload_bytes", "packets_per_call", "reply_bytes"):
            value = getattr(self, field)
            if value <= 0:
                raise ConfigurationError(
                    f"RpcParams.{field} must be positive, got {value!r}")
        for field in ("marshal_instructions", "unmarshal_instructions",
                      "server_turnaround_cycles"):
            value = getattr(self, field)
            if value < 0:
                raise ConfigurationError(
                    f"RpcParams.{field} must be >= 0, got {value!r}")

    @property
    def data_bits_per_call(self) -> int:
        return self.payload_bytes * self.packets_per_call * 8


class RpcTransport:
    """Client-side machinery bound to one kernel + Ethernet controller."""

    def __init__(self, kernel: TopazKernel, ethernet: EthernetController,
                 buffer_qbus_address: int,
                 params: Optional[RpcParams] = None,
                 remote: Optional[RemoteEndpoint] = None) -> None:
        self.kernel = kernel
        self.ethernet = ethernet
        self.buffer_qbus_address = buffer_qbus_address
        self.params = params or RpcParams()
        self.remote = remote or RemoteEndpoint(
            self.params.server_turnaround_cycles)
        self.stats = StatSet("rpc")
        #: Telemetry probe; inert unless a TelemetryHub is attached.
        self.probe = NULL_PROBE

    # -- inter-machine calls ----------------------------------------------

    def call(self, cls: str = "rpc"):
        """Topaz program fragment: one bulk-data call (use ``yield from``).

        ``cls`` labels the request class for the causal assembler's
        per-class latency percentiles (e.g. ``"bulk"`` vs ``"ping"``).
        """
        p = self.params
        call_start = self.kernel.sim.now
        # Identity read: zero simulated cost, lets the call carry its
        # caller's trace context onto every event it causes.
        caller = yield ops.CurrentThread()
        ctx = self.kernel.causal.child(caller.ctx)
        yield ops.Compute(p.marshal_instructions)
        for packet in range(p.packets_per_call):
            yield ops.DeviceCall(
                self.ethernet.transmit_from(self.buffer_qbus_address,
                                            p.payload_bytes, ctx=ctx),
                label="rpc-tx")
            # Goodput is accounted per delivered packet (matching a
            # wire-side measurement, and avoiding call-granularity
            # quantisation in short windows).
            self.stats.incr("data_bits", p.payload_bytes * 8)
        turnaround_start = self.kernel.sim.now
        yield ops.DeviceCall(self.remote.service(self.kernel.sim),
                             label="rpc-server")
        if self.probe.active:
            self.probe.complete("rpc.turnaround", "rpc", turnaround_start,
                                self.kernel.sim.now - turnaround_start,
                                trace=ctx.trace_id, span=ctx.span_id)
        yield ops.DeviceCall(
            self.ethernet.receive_into(self.buffer_qbus_address,
                                       p.reply_bytes, ctx=ctx),
            label="rpc-rx")
        yield ops.Compute(p.unmarshal_instructions)
        self.stats.incr("calls")
        if self.probe.active:
            self.probe.complete("rpc.call", "rpc", call_start,
                                self.kernel.sim.now - call_start,
                                bits=p.data_bits_per_call,
                                packets=p.packets_per_call,
                                thread=caller.name, tid=caller.tid,
                                trace=ctx.trace_id, span=ctx.span_id,
                                parent_span=ctx.parent_id, cls=cls)

    # -- inter-address-space calls -------------------------------------------

    def local_call(self, argument_words: int = 16):
        """Topaz fragment: a same-machine RPC through the Nub.

        "Most of the speed difference in simple system calls is due to
        the context switch necessary because Taos runs as a user mode
        address space" (paper §6 footnote): the dominant cost here is
        the forced reschedule pair, modelled by two yields around the
        copy work.
        """
        start = self.kernel.sim.now
        caller = yield ops.CurrentThread()
        copy_instructions = max(4, argument_words // 2)
        yield ops.Compute(copy_instructions)
        yield ops.YieldCpu()              # into the server's space
        yield ops.Compute(copy_instructions)
        yield ops.YieldCpu()              # back to the caller
        self.stats.incr("local_calls")
        if self.probe.active:
            ctx = caller.ctx
            self.probe.complete("rpc.local", "rpc", start,
                                self.kernel.sim.now - start,
                                thread=caller.name, tid=caller.tid,
                                trace=ctx.trace_id if ctx else 0,
                                span=ctx.span_id if ctx else 0)

    # -- measurement ---------------------------------------------------------------

    def goodput_bits_per_second(self, window_cycles: int) -> float:
        """Payload bits/second of completed calls over the window."""
        if window_cycles <= 0:
            return 0.0
        return self.stats["data_bits"].windowed / (window_cycles * 1e-7)

    def mark_window(self) -> None:
        self.stats.mark_all()
