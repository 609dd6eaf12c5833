"""Known-bad: an epoch-delta note silently rematerialises the population.

The full-knowledge epoch delta's whole point is that hot-path membership
notes are O(1) or O(selectors) set writes; the regression shape is a note
quietly falling back to an explicit O(N) id set -- a comprehension over the
peer map, or a set() built from its keys -- which reintroduces the
per-event population cost the delta exists to kill.
"""

from repro.contracts import hot_path


class EpochDelta:
    def __init__(self, overlay):
        self._overlay = overlay
        self._epoch = 0
        self._exceptions = {}

    @hot_path
    def note_join(self, peer_id):
        self._epoch += 1
        candidates = [other for other in self._overlay._peers if other != peer_id]  # expect: RPL005
        self._exceptions[peer_id] = candidates

    @hot_path
    def note_leave(self, peer_id, selector_ids):
        self._epoch += 1
        survivors = set(self._overlay._peers.keys()) - {peer_id}  # expect: RPL005
        self._exceptions[peer_id] = survivors
