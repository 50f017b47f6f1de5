"""Placement arithmetic on machine calendars, the placement engine, and the checker.

The ground rules, shared by every routine here:

* Processing is resumable: work suspends over unavailability windows and the
  elapsed completion time grows by each window crossed.

* Starts may not fall inside a window. With a window [b, e], legal starts are
  s <= b - 1 or s >= e. Completions may touch a window begin (c <= b) or must
  clear its end (c >= e + 1), which recomputation from a legal start yields
  automatically.

* Setups are not resumable: the setup interval [start - setup_len, start]
  may touch window endpoints but never their interior, and on one machine a
  setup begins no earlier than the previous operation's completion.

* A successor may start once its predecessor's partial completion is reached,
  but must not complete earlier than the predecessor completes.
"""

from __future__ import annotations

from typing import Sequence

from .model import Instance, Schedule, ScheduledOp, Violation, refuse_unknown_ids

Calendar = Sequence[tuple[int, int]]
Floors = tuple[int, int, int]  # (setup length, start floor, least completion) of one append


class DecodeInfeasible(ValueError):
    """The decision structure admits no schedule (deadlock or fixed-op clash)."""


def _finish(calendar: Calendar, start: int, duration: int) -> int:
    """Completion time of `duration` work units from `start`, skipping windows."""
    t = start
    remaining = duration
    for b, e in calendar:
        if e <= t:
            continue
        if t + remaining <= b:
            break
        remaining -= max(0, b - t)
        t = e
    return t + remaining


def _latest_start(calendar: Calendar, completion: int, duration: int) -> int:
    """Latest start whose `duration` work units complete by `completion`: `_finish` run backwards."""
    t = completion
    remaining = duration
    for b, e in reversed(calendar):
        if b >= t:
            continue
        if t - remaining >= e:
            break
        remaining -= max(0, t - e)
        t = b
    return t - remaining


def _setup_fits(calendar: Calendar, setup_start: int, start: int) -> bool:
    return all(start <= b or setup_start >= e for b, e in calendar)


def _earliest_legal(calendar: Calendar, ready: int, setup_len: int) -> int:
    """Smallest start >= max(ready, setup_len) that is legal with its setup.

    A window [b, e] admits a start at b - 1 or earlier (the setup then also
    ends by b - 1 < b) or from e + setup_len on, so any start caught in
    between jumps to e + setup_len. Windows are ordered, so one pass settles.
    """
    s = max(ready, setup_len)
    for b, e in calendar:
        if s <= b - 1:
            break
        if s - setup_len >= e:
            continue
        s = e + setup_len
    return s


# ---------------------------------------------------------------------------
# Incremental placement shared by the solvers
# ---------------------------------------------------------------------------


class PlacementEngine:
    """One partial schedule, grown by appending operations to machine tails.

    `placed` maps each placed operation to its record in commit order, `seqs`
    lists each machine's operations in append order (its last operation is
    the last entry), `tail` maps each machine to that operation's completion,
    or 0 while the machine is empty, `pred_left` counts each operation's
    unplaced graph predecessors, and `ready` holds the unplaced operations
    whose count is zero. Only :meth:`commit` and :meth:`undo` change them;
    :meth:`undo` takes back the latest commit, the last entry of `placed`.
    The instance data a placement reads is bound once, at construction: `ops`
    (each operation record by id), `calendars` and `setups` (each machine's
    windows and setup object), the graph's `preds` and `succs`, and for
    :meth:`keeps_pin` each machine's pins, sorted by (start, op).
    `pair_setups` is None, and then :meth:`floors` reads each pair setup from
    the machine's setup object. A caller that reads the same pairs again and
    again, as the exact search does in sibling subtrees, sets it to a dict:
    :meth:`floors` then keys each pair setup by (last operation, operation,
    machine) and reads the setup object only the first time.

    A placement honors, in one shot: the release time, window legality of the
    start, the non-resumable setup ending exactly at the start and beginning
    no earlier than the machine's previous completion, predecessors' partial
    completions as a start floor, and predecessors' completions as a
    completion floor. Completion never falls as the start rises, so a start
    whose completion misses the floor is lifted to the first legal start past
    the latest start that completes before the floor; the placement stays
    left-tight. The floors come first, from :meth:`floors`, which reads no
    calendar and folds the completion floor into the append's least
    completion, so a caller may bound an append from one number before it
    passes them to :meth:`placement`.
    """

    def __init__(self, inst: Instance):
        self.ops = inst.ops_by_id
        self.calendars = {mc.id: mc.windows for mc in inst.machines}
        self.setups = {mc.id: mc.setup for mc in inst.machines}
        self.preds = inst.predecessors
        self.succs = inst.successors
        self._pins: dict[int, list[tuple[int, int]]] = {}  # machine -> every (pinned start, op) on it, ascending
        for k, start, i in sorted((*op.fixed, op.id) for op in inst.operations if op.fixed is not None):
            self._pins.setdefault(k, []).append((start, i))
        self.pair_setups: dict[tuple[int, int, int], int] | None = None  # (last op, op, machine) -> setup length
        self.placed: dict[int, ScheduledOp] = {}
        self.seqs: dict[int, list[int]] = {mc.id: [] for mc in inst.machines}
        self.tail: dict[int, int] = dict.fromkeys(self.seqs, 0)
        self.pred_left: dict[int, int] = {op.id: len(self.preds[op.id]) for op in inst.operations}
        self.ready: set[int] = {i for i, n in self.pred_left.items() if n == 0}

    def floors(self, op_id: int, machine_id: int) -> Floors:
        """(setup length, start floor, least completion) of appending `op_id` to `machine_id`'s tail.

        The start floor is the latest of the machine's tail plus the setup, the
        release and the predecessors' partial completions. The least
        completion is the later of the predecessors' latest completion and the
        start floor plus the processing time: windows only stretch the
        processing, so every placement completes at or after it. Neither holds
        a pin. Changes nothing but `pair_setups`, when it is a dict and the
        pair after the machine's last operation is new to it.
        """
        op = self.ops[op_id]
        seq = self.seqs[machine_id]
        if not seq:
            setup_len = self.setups[machine_id].first(op)
        elif self.pair_setups is None:
            setup_len = self.setups[machine_id].between(self.ops[seq[-1]], op)
        else:
            key = (seq[-1], op_id, machine_id)
            setup_len = self.pair_setups.get(key)
            if setup_len is None:
                setup_len = self.pair_setups[key] = self.setups[machine_id].between(self.ops[seq[-1]], op)
        start_floor = self.tail[machine_id] + setup_len
        if op.release > start_floor:
            start_floor = op.release

        completion_floor = 0
        for p in self.preds[op_id]:
            rec = self.placed[p]
            if rec.partial_completion > start_floor:
                start_floor = rec.partial_completion
            if rec.completion > completion_floor:
                completion_floor = rec.completion
        least = start_floor + op.eligible[machine_id]
        return setup_len, start_floor, completion_floor if completion_floor > least else least

    def placement(self, op_id: int, machine_id: int, floors: Floors) -> ScheduledOp:
        """Compute the earliest placement at `machine_id`'s tail; changes nothing.

        It starts from `floors`, the append's :meth:`floors` read in the
        current state. A pinned operation is placed as a free one whose start
        floor is raised to its pin. Raises DecodeInfeasible when its start then
        misses the pin, or its completion misses the least completion: a
        pinned operation is never lifted. A completion at or past the start
        floor plus the processing time can miss the least completion only
        where the predecessors' latest completion sets it, so that is the floor
        a missed completion is lifted to. The record is built positionally,
        in :class:`~flexshop.model.ScheduledOp`'s field order, which is
        cheaper than by keyword.
        """
        setup_len, start_floor, least_completion = floors
        op = self.ops[op_id]
        calendar = self.calendars[machine_id]
        proc = op.eligible[machine_id]
        pinned = None if op.fixed is None else op.fixed[1]
        if pinned is not None and pinned > start_floor:
            start_floor = pinned

        s = _earliest_legal(calendar, start_floor, setup_len)
        completion = _finish(calendar, s, proc)
        if pinned is not None and s != pinned:
            raise DecodeInfeasible(
                f"operation {op_id} is pinned to start {pinned} but the earliest "
                f"feasible start in this position is {s}")
        if completion < least_completion:
            if pinned is not None:  # a pinned operation is never lifted
                raise DecodeInfeasible(
                    f"operation {op_id} is pinned to start {pinned} yet must not "
                    f"complete before {least_completion}")
            s = _earliest_legal(calendar, _latest_start(calendar, least_completion - 1, proc) + 1, setup_len)
            completion = _finish(calendar, s, proc)

        return ScheduledOp(machine_id, s - setup_len, setup_len, s,
                           completion if op.theta_hundredths == 100 else _finish(calendar, s, op.partial_units(machine_id)),
                           completion)

    def keeps_pin(self, op_id: int, rec: ScheduledOp) -> bool:
        """Whether `rec.machine`'s earliest unplaced pin could still start on time right after `op_id` at `rec`.

        True when the machine has no unplaced pin or `op_id` is that pin;
        otherwise the pin, with its setup after `op_id`, must start exactly at
        its pinned start from `rec`'s completion, as :meth:`placement` would
        place it there. Its release and predecessors are not read. Changes
        nothing.
        """
        k = rec.machine
        for start, pin in self._pins.get(k, ()):
            if pin not in self.placed:  # the earliest unplaced pin
                if pin == op_id:
                    return True
                setup_len = self.setups[k].between(self.ops[op_id], self.ops[pin])
                return _earliest_legal(self.calendars[k], max(start, rec.completion + setup_len), setup_len) == start
        return True

    def commit(self, op_id: int, rec: ScheduledOp) -> None:
        """Append the ready operation `op_id` to its machine with placement `rec`."""
        self.placed[op_id] = rec
        self.seqs[rec.machine].append(op_id)
        self.tail[rec.machine] = rec.completion
        self.ready.remove(op_id)
        for j in self.succs[op_id]:
            self.pred_left[j] -= 1
            if not self.pred_left[j]:
                self.ready.add(j)

    def undo(self) -> None:
        """Reverse the latest commit."""
        op_id, rec = self.placed.popitem()
        seq = self.seqs[rec.machine]
        seq.pop()
        self.tail[rec.machine] = self.placed[seq[-1]].completion if seq else 0
        for j in self.succs[op_id]:
            self.ready.discard(j)
            self.pred_left[j] += 1
        self.ready.add(op_id)

    def schedule(self) -> Schedule:
        """A snapshot of the placed operations and the machine sequences."""
        return Schedule(ops=dict(self.placed), sequences={k: tuple(s) for k, s in self.seqs.items()})


# ---------------------------------------------------------------------------
# Checking an arbitrary schedule against an instance
# ---------------------------------------------------------------------------


def check_schedule(inst: Instance, sched: Schedule) -> list[Violation]:
    """Every broken scheduling rule, empty when the schedule is feasible.

    Raises ValueError, through :func:`~flexshop.model.refuse_unknown_ids`, when a
    record's id or machine, a sequence key or a sequence entry is not in the
    instance; everything else is reported, not raised. An operation listed twice
    in a row draws one structure row and is not compared with itself.
    """
    refuse_unknown_ids(inst, sched)
    out: list[Violation] = []
    ops = inst.ops_by_id

    for i in sorted(ops.keys() - sched.ops.keys()):
        out.append(Violation("structure", (i,), "operation missing from schedule"))

    # sequences must list exactly the operations placed on each machine, once
    seen_in_seq: dict[int, int] = {}
    for k, seq_ids in sorted(sched.sequences.items()):
        for i in seq_ids:
            if i in seen_in_seq:
                out.append(Violation("structure", (i,), "operation listed in more than one sequence position"))
            seen_in_seq[i] = k
    for i, so in sorted(sched.ops.items()):
        if seen_in_seq.get(i) != so.machine:
            out.append(Violation("structure", (i,), f"operation not listed in machine {so.machine}'s sequence"))
    for i, k in sorted(seen_in_seq.items()):
        if i not in sched.ops:
            out.append(Violation("structure", (i,), f"machine {k} sequence lists an unscheduled operation"))

    for i, so in sorted(sched.ops.items()):
        op = ops[i]
        eligible = so.machine in op.eligible

        if not eligible:
            out.append(Violation("assignment not eligible", (i,),
                                 f"machine {so.machine} is not in the eligible set"))
        if min(so.setup_start, so.setup_len, so.start, so.partial_completion, so.completion) < 0:
            out.append(Violation("structure", (i,), "negative time value"))
        if so.setup_start + so.setup_len != so.start:
            out.append(Violation("structure", (i,),
                                 f"setup interval [{so.setup_start}, {so.setup_start + so.setup_len}] does not end at start {so.start}"))
        if not so.start <= so.partial_completion <= so.completion:
            out.append(Violation("structure", (i,),
                                 f"times out of order: start {so.start}, partial {so.partial_completion}, completion {so.completion}"))
        if so.start < op.release:
            out.append(Violation("release violated", (i,),
                                 f"start {so.start} is before release {op.release}"))
        if op.fixed is not None and (so.machine, so.start) != op.fixed:
            out.append(Violation("fixed operation moved", (i,),
                                 f"pinned to machine {op.fixed[0]} at {op.fixed[1]}, scheduled on {so.machine} at {so.start}"))

        calendar = inst.machines_by_id[so.machine].windows
        for b, e in calendar:
            if b <= so.start <= e - 1:
                out.append(Violation("start inside unavailability", (i,),
                                     f"start {so.start} lies in window [{b}, {e}]"))
            if b < so.completion <= e:
                out.append(Violation("completion inside unavailability", (i,),
                                     f"completion {so.completion} lies in window [{b}, {e}]"))
            if b < so.partial_completion <= e:
                out.append(Violation("completion inside unavailability", (i,),
                                     f"partial completion {so.partial_completion} lies in window [{b}, {e}]"))
        if not _setup_fits(calendar, so.setup_start, so.start):
            out.append(Violation("setup inside unavailability", (i,),
                                 f"setup interval [{so.setup_start}, {so.start}] overlaps a window"))
        if eligible:
            want_c = _finish(calendar, so.start, op.eligible[so.machine])
            if so.completion != want_c:
                out.append(Violation("completion mismatch", (i,),
                                     f"completion {so.completion}, but start {so.start} yields {want_c}"))
            want_cb = _finish(calendar, so.start, op.partial_units(so.machine))
            if so.partial_completion != want_cb:
                out.append(Violation("partial completion mismatch", (i,),
                                     f"partial completion {so.partial_completion}, but start {so.start} yields {want_cb}"))

    for i, j in sorted(inst.arcs):
        if i not in sched.ops or j not in sched.ops:
            continue
        a, b = sched.ops[i], sched.ops[j]
        if a.partial_completion > b.start:
            out.append(Violation("precedence overlap violated", (i, j),
                                 f"partial completion {a.partial_completion} is after successor start {b.start}"))
        if a.completion > b.completion:
            out.append(Violation("precedence end order violated", (i, j),
                                 f"completion {a.completion} is after successor completion {b.completion}"))

    for k, seq_ids in sorted(sched.sequences.items()):
        setup = inst.machines_by_id[k].setup
        placed = [i for i in seq_ids if i in sched.ops]
        for prev, i in zip([None, *placed], placed):
            so = sched.ops[i]
            if so.machine != k or prev == i:
                continue  # already a structure violation
            if k in ops[i].eligible:
                if prev is None:
                    want = setup.first(ops[i])
                elif k in ops[prev].eligible:
                    want = setup.between(ops[prev], ops[i])
                else:
                    want = None  # predecessor misassigned; its own violation covers it
                if want is not None and so.setup_len != want:
                    out.append(Violation("setup length mismatch", (i,),
                                         f"setup length {so.setup_len} on machine {k}, rule requires {want}"))
            if prev is not None:
                prev_so = sched.ops[prev]
                if so.setup_start < prev_so.completion:
                    out.append(Violation("machine overlap", (prev, i),
                                         f"setup starts at {so.setup_start} before previous completion {prev_so.completion}"))

    return out
