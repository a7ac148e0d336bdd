"""ASCII renderings of the paper's figures, built from live objects.

- **Figure 1** (Firefly system): rendered from a built
  :class:`~repro.system.machine.FireflyMachine` — boards, caches,
  memory modules and I/O devices are read from the object graph.
- **Figure 2** (internal structure of Topaz): rendered from a live
  :class:`~repro.topaz.kernel.TopazKernel`'s address-space table.
- **Figure 3** (cache line states): rendered from the FSM enumeration
  in :mod:`repro.cache.fsm` — i.e. from the protocol implementation
  itself.

(Figure 4, MBus timing, is rendered by
:class:`repro.bus.signals.TimingDiagram` from the live bus model's
``bus.op`` telemetry events, one per tenure.)
"""

from __future__ import annotations

from typing import List

from repro.cache.fsm import enumerate_transitions


def render_state_diagram(protocol_name: str = "firefly") -> str:
    """Figure 3: the protocol's state-transition table, measured."""
    transitions = enumerate_transitions(protocol_name)
    lines = [f"Cache line states: {protocol_name} protocol",
             "(arcs measured from the implementation; P = processor "
             "stimulus, M = bus stimulus)", ""]
    current = None
    for t in transitions:
        if t.start is not current:
            current = t.start
            lines.append(f"state {current.value}:")
        lines.append("  " + t.label().strip())
    return "\n".join(lines)


def render_system_diagram(machine) -> str:
    """Figure 1: the machine's boards and buses, from the object graph."""
    config = machine.config
    n = config.processors
    cache_kb = config.effective_cache.size_bytes // 1024
    lines: List[str] = []
    lines.append("Firefly System")
    lines.append("=" * 64)
    lines.append(f"primary processor board: CPU 0 ({config.timing.name}) "
                 f"+ FPU + {cache_kb} KB cache + QBus control")
    secondary_ids = list(range(1, n))
    for board, i in enumerate(range(0, len(secondary_ids), 2)):
        pair = secondary_ids[i:i + 2]
        cpus = " + ".join(f"CPU {c}" for c in pair)
        lines.append(f"secondary board {board + 1}: {cpus} "
                     f"({config.timing.name}, FPU + {cache_kb} KB cache each)")
    lines.append("-" * 64)
    bus_row = " ".join(f"[$ {c.snooper_id}]" for c in machine.caches)
    lines.append(f"caches on MBus:  {bus_row}")
    lines.append("MBus: 100 ns cycles, 4 cycles/op, 10 MB/s; "
                 "MShared + interrupt sidebands")
    lines.append("-" * 64)
    for module in machine.memory.modules:
        role = "master" if module.is_master else "slave"
        lines.append(f"memory module ({role}): {module.size_megabytes:.0f} MB "
                     f"@ word {module.base_word:#x}")
    lines.append("-" * 64)
    if machine.qbus is not None:
        lines.append("QBus (via CPU 0's cache; DMA does not allocate):")
        lines.append("  DEQNA Ethernet | RQDX3 disk | MDC display "
                     "(1024x768 mono, keyboard, mouse)")
    else:
        lines.append("QBus: not configured in this machine instance")
    lines.append("=" * 64)
    return "\n".join(lines)


def render_topaz_diagram(kernel) -> str:
    """Figure 2: Topaz's address spaces and the Nub, from a live kernel."""
    lines: List[str] = []
    lines.append("Internal Structure of Topaz")
    lines.append("=" * 60)
    spaces = list(kernel.address_spaces)
    user_spaces = [s for s in spaces if s.kind.value != "nub"]
    for space in user_spaces:
        threads = kernel.threads_in_space(space)
        thread_note = (f"{len(threads)} thread(s)" if threads
                       else "no threads yet")
        lines.append(f"| {space.name:<28} [{space.kind.value:<9}] "
                     f"{thread_note:>16} |")
    lines.append("|" + " " * 58 + "|")
    lines.append("|   user mode: RPC between all address spaces" +
                 " " * 13 + "|")
    lines.append("=" * 60)
    lines.append("| Nub (VAX kernel mode): virtual memory, thread "
                 "scheduler,  |")
    lines.append("|   simple device drivers, RPC transport" + " " * 18 + "|")
    lines.append("=" * 60)
    lines.append(f"hardware: {kernel.machine.config.processors} processors, "
                 f"{kernel.machine.config.effective_memory_megabytes} MB")
    return "\n".join(lines)
