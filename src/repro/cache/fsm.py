"""Protocol FSM enumeration: regenerating Figure 3 from live code.

The paper's Figure 3 is the state-transition diagram of a cache line
under processor (P) and memory-bus (M) stimuli, with the MShared
response in parentheses where it selects the successor.  Rather than
transcribing the figure, this module *measures* it: it builds a real
two-cache rig, places the focal cache's line in each state, applies
each stimulus, and records the observed successor state and bus
operations.  The Figure 3 benchmark then checks the enumeration against
a golden table typed in from the paper — so the figure is evidence that
the implemented protocol is the published one.

The same machinery enumerates the baseline protocols (their diagrams
appear in the Archibald & Baer survey), which the protocol unit tests
use to pin each baseline's state machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cache.line import LineState
from repro.cache.protocols import PROTOCOL_FACTS, protocol_by_name
from repro.common.errors import ConfigurationError
from repro.protodsl.oracle import LineRig

#: States each protocol's lines can occupy (besides INVALID), and the
#: state a *peer* cache naturally holds when it shares the line.
#: Generated from the DSL definitions' facts tables — these used to be
#: hand-maintained dictionaries that every new protocol had to edit.
PROTOCOL_STATES: Dict[str, Tuple[LineState, ...]] = {
    name: facts.states for name, facts in PROTOCOL_FACTS.items()
}

PEER_COSTATE: Dict[str, LineState] = {
    name: facts.peer_costate for name, facts in PROTOCOL_FACTS.items()
}


@dataclass(frozen=True)
class Transition:
    """One observed arc of the protocol FSM.

    ``peer_end`` records where the stimulus left the *peer* cache's
    line, when a peer was present (None otherwise) — the static
    verifier's structural pass uses it to prove that no arc parks the
    focal cache in a silent-write state while the peer still holds a
    copy.
    """

    start: LineState
    stimulus: str
    peer_holds: bool
    end: LineState
    bus_ops: Tuple[str, ...]
    peer_end: Optional[LineState] = None

    def label(self) -> str:
        """Compact rendering, e.g. ``S --P-write (MShared)--> S [MWrite]``.

        The parenthesised MShared response (the figure's convention) is
        only meaningful on processor-initiated arcs that reached the
        bus; M-side arcs are annotated with the operation alone.
        """
        annotation = ""
        if self.bus_ops and self.stimulus.startswith("P-"):
            annotation = " (MShared)" if self.peer_holds else " (not MShared)"
        ops = f" [{', '.join(self.bus_ops)}]" if self.bus_ops else ""
        return (f"{self.start.value:>3} --{self.stimulus}{annotation}--> "
                f"{self.end.value}{ops}")


def enumerate_transitions(protocol_name: str,
                          protocol=None) -> List[Transition]:
    """Every (state, stimulus, peer-presence) arc of a protocol's FSM.

    Redundant arcs — where the peer's presence cannot matter because no
    bus operation occurs — are collapsed to the ``peer_holds=False``
    variant.  ``protocol`` optionally overrides the instance probed
    (the static verifier passes deliberately mutated protocols through
    here); the name still selects the state vocabulary.
    """
    transitions: List[Transition] = []
    seen = set()
    for result in full_transition_table(protocol_name,
                                        protocol=protocol).values():
        if not result.bus_ops and result.peer_holds:
            continue  # peer unobservable without a bus op
        key = (result.start, result.stimulus, result.peer_holds,
               result.end, result.bus_ops)
        if key in seen:
            continue
        seen.add(key)
        transitions.append(result)
    return transitions


def full_transition_table(
        protocol_name: str, protocol=None,
) -> Dict[Tuple[LineState, str, bool], Transition]:
    """The complete, un-collapsed transition function over its domain.

    Unlike :func:`enumerate_transitions` (which drops arcs that a
    figure would not draw), every applicable (state, stimulus,
    peer-presence) combination is probed and kept: the static
    verifier's totality and determinism checks need the whole domain.
    M-side stimuli only apply to resident lines, and always with the
    peer as initiator, so their domain is (valid state, stimulus,
    False).

    Each cell is measured on one two-cache
    :class:`~repro.protodsl.oracle.LineRig` (cache 0 focal, cache 1
    the peer): clean copies match memory, dirty ones differ from it,
    and a present peer holds the protocol's co-state with the focal
    copy's data (memory's when the focal line is absent).
    """
    if protocol_name not in PROTOCOL_STATES:
        raise ConfigurationError(f"unknown protocol {protocol_name!r}")
    rig = LineRig(protocol if protocol is not None
                  else protocol_by_name(protocol_name), caches=2)
    absent = (LineState.INVALID.value, None)
    table: Dict[Tuple[LineState, str, bool], Transition] = {}
    for start in (LineState.INVALID,) + PROTOCOL_STATES[protocol_name]:
        focal = absent if start is LineState.INVALID \
            else (start.value, int(start.is_dirty))
        for stimulus in ("P-read", "P-write", "M-read", "M-write"):
            for peer_holds in (False, True):
                if stimulus.startswith("M-") and (
                        peer_holds or start is LineState.INVALID):
                    continue  # M-side: a resident line, the peer issues
                peer = ((PEER_COSTATE[protocol_name].value, focal[1] or 0)
                        if peer_holds else absent)
                rig.materialise(((focal, peer), 0))
                rig.apply(stimulus, 0 if stimulus.startswith("P-") else 1,
                          version=2)
                (end, _), (peer_end, _) = rig.observe()[0]
                table[(start, stimulus, peer_holds)] = Transition(
                    start=start,
                    stimulus=(stimulus if start is not LineState.INVALID
                              else stimulus + "-miss"),
                    peer_holds=peer_holds,
                    end=LineState(end),
                    bus_ops=rig.bus_ops(),
                    peer_end=LineState(peer_end) if peer_holds else None,
                )
    return table


def transition_map(protocol_name: str) -> Dict[Tuple[str, str, bool], str]:
    """{(start, stimulus, peer_holds): end} — handy for golden checks."""
    return {
        (t.start.value, t.stimulus, t.peer_holds): t.end.value
        for t in enumerate_transitions(protocol_name)
    }
