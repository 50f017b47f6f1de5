import dataclasses
import re

import pytest

from flexshop.generator import GenParams, generate
from flexshop.model import (Instance, Machine, Operation, Schedule, ScheduledOp, SetupTable, Violation,
                            makespan, validate_instance)
from flexshop.rng import Rng
from flexshop.solvers import _Bounder
from flexshop.timing import DecodeInfeasible, PlacementEngine, check_schedule

from oracles import decode, iter_one_unit_left_shifts, oracle_completion, oracle_earliest, setup_legal, start_legal


def rules_of(violations):
    return {v.rule for v in violations}


def tampered(sched: Schedule, op_id: int, **changes) -> Schedule:
    ops = dict(sched.ops)
    ops[op_id] = dataclasses.replace(ops[op_id], **changes)
    return Schedule(ops=ops, sequences=sched.sequences)


# ---------------------------------------------------------------------------
# earliest start and completion: PlacementEngine.placement of a lone operation
# ---------------------------------------------------------------------------


def place_one(calendar, ready, setup_len, proc, partial, pred=None, pinned=None) -> ScheduledOp:
    """The engine's placement of operation 1 on machine 1, which holds nothing else.

    The operation is released at `ready` with first setup `setup_len`.
    theta_hundredths = 100 * partial // proc gives partial_units == partial
    exactly for every proc <= 100. With `pred` = (partial completion,
    completion), a predecessor runs alone from time 0 on a window-free machine
    2, so these become the operation's start floor and completion floor.
    Checks on the way that the floors' least completion is the later of that
    completion and the start floor plus `proc`, and that the placement
    completes no earlier.
    """
    ops = [Operation(1, 1, {1: proc}, theta_hundredths=100 * partial // proc, release=ready,
                     fixed=None if pinned is None else (1, pinned))]
    machines = [Machine(1, windows=tuple(calendar), setup=SetupTable({1: setup_len}, {}))]
    if pred is not None:
        ops.append(Operation(2, 1, {2: pred[1]}, theta_hundredths=100 * pred[0] // pred[1]))
        machines.append(Machine(2, setup=SetupTable({2: 0}, {})))
    assert ops[0].partial_units(1) == partial
    inst = Instance(num_machines=len(machines), operations=tuple(ops), arcs=() if pred is None else ((2, 1),),
                    machines=tuple(machines))
    engine = PlacementEngine(inst)
    if pred is not None:
        engine.commit(2, engine.placement(2, 2, engine.floors(2, 2)))
        assert times(engine.placed[2])[2:] == pred
    floors = engine.floors(1, 1)
    assert floors[2] == max(0 if pred is None else pred[1], floors[1] + proc)  # the least completion
    so = engine.placement(1, 1, floors)
    assert so.completion >= floors[2]
    return so


def random_pred(rng: Rng) -> tuple[int, int] | None:
    """No predecessor half the time, else its (partial completion, completion)."""
    if rng.bernoulli(1, 2):
        return None
    completion = rng.uniform(1, 40)
    return rng.uniform(1, completion), completion


def times(so: ScheduledOp) -> tuple[int, int, int, int]:
    return so.setup_start, so.start, so.partial_completion, so.completion


def completion_at(calendar, start, duration) -> int:
    """Completion of `duration` units pinned to `start`; a start inside a
    window raises DecodeInfeasible."""
    so = place_one(calendar, 0, 0, duration, duration, pinned=start)
    assert so.start == start
    return so.completion


def test_completion_time_resumes_after_window():
    cal = ((10, 15),)
    # 7 units done by t=10, the rest waits out the window
    assert completion_at(cal, 3, 8) == 16
    assert completion_at(cal, 0, 10) == 10  # finishes exactly at the window begin
    assert completion_at(cal, 15, 2) == 17
    assert completion_at((), 4, 5) == 9


def test_completion_time_rejects_start_inside_window():
    with pytest.raises(DecodeInfeasible, match="pinned"):
        completion_at(((10, 15),), 10, 1)
    with pytest.raises(DecodeInfeasible, match="pinned"):
        completion_at(((10, 15),), 14, 1)
    # the last legal moments around the window
    assert completion_at(((10, 15),), 9, 1) == 10
    assert completion_at(((10, 15),), 15, 1) == 16
    assert completion_at((), 5, 7) == 12


def test_earliest_start_example_single_window():
    assert times(place_one(((10, 15),), ready=5, setup_len=3, proc=9, partial=4)) == (2, 5, 9, 19)


def test_earliest_start_example_two_windows():
    res = place_one(((4, 6), (10, 15)), ready=5, setup_len=2, proc=3, partial=2)
    # ready=5 falls inside [4,6] for setup purposes, so the start jumps to 6+2
    assert times(res) == (6, 8, 10, 16)


def test_earliest_start_boundaries():
    cal = ((4, 6),)
    assert place_one(cal, 3, 0, 1, 1).start == 3
    assert place_one(cal, 4, 0, 1, 1).start == 6
    assert place_one(cal, 5, 0, 1, 1).start == 6
    # a setup may end exactly where a window begins
    assert times(place_one(cal, 2, 2, 1, 1)) == (0, 2, 3, 3)
    # but it may not straddle the window: ready 6 with a length-3 setup waits
    assert times(place_one(cal, 6, 3, 1, 1)) == (6, 9, 10, 10)


def test_earliest_start_setup_rides_up_to_the_window():
    cal = ((10, 15),)
    # ready 8: the setup [5, 8] ends before the window, two units run, the
    # window suspends the rest until 15
    assert times(place_one(cal, ready=8, setup_len=3, proc=4, partial=4)) == (5, 8, 17, 17)
    # ready 10 sits inside the window, so setup and start both move past it
    assert times(place_one(cal, ready=10, setup_len=3, proc=4, partial=4)) == (15, 18, 22, 22)
    assert times(place_one((), ready=0, setup_len=0, proc=1, partial=1)) == (0, 0, 1, 1)


def random_calendar(rng: Rng) -> tuple[tuple[int, int], ...]:
    windows = []
    t = 0
    for _ in range(rng.uniform(0, 3)):
        b = t + rng.uniform(1, 6)
        e = b + rng.uniform(1, 5)
        windows.append((b, e))
        t = e
    return tuple(windows)


def test_earliest_start_agrees_with_unit_step_oracle():
    rng = Rng(20240817)
    for _ in range(150):
        cal = random_calendar(rng)
        ready = rng.uniform(0, 20)
        setup = rng.uniform(0, 5)
        proc = rng.uniform(1, 12)
        partial = rng.uniform(1, proc)
        pred = random_pred(rng)
        got = place_one(cal, ready, setup, proc, partial, pred)
        want = oracle_earliest(cal, ready, setup, proc, partial, pred)
        assert times(got) == want, (cal, ready, setup, proc, partial, pred)
        assert start_legal(cal, got.start)
        assert completion_at(cal, got.start, proc) == oracle_completion(cal, got.start, proc)


def test_keeps_pin_agrees_with_unit_step_oracle():
    # op 1 ends at c on machine 1, and op 2 is pinned there at P with setup g after op 1;
    # op 3, pinned at 0, is placed first, so the method looks past it to op 2
    rng = Rng(20261020)
    outcomes = set()
    for _ in range(400):
        cal = random_calendar(rng)
        c, g, pin = rng.uniform(0, 25), rng.uniform(0, 6), rng.uniform(0, 30)
        inst = Instance(
            num_machines=1,
            operations=(Operation(1, 1, {1: 1}), Operation(2, 2, {1: 1}, fixed=(1, pin)),
                        Operation(3, 3, {1: 1}, fixed=(1, 0))),
            arcs=(),
            machines=(Machine(1, windows=cal, setup=SetupTable(
                {1: 0, 2: 0, 3: 0}, {(1, 2): g, (2, 1): 0, (1, 3): 0, (3, 1): 0, (2, 3): 0, (3, 2): 0})),))
        engine = PlacementEngine(inst)
        engine.commit(3, ScheduledOp(machine=1, setup_start=0, setup_len=0, start=0, partial_completion=0,
                                     completion=0))
        rec = ScheduledOp(machine=1, setup_start=c, setup_len=0, start=c, partial_completion=c, completion=c)
        want = c + g <= pin and start_legal(cal, pin) and setup_legal(cal, pin - g, pin)
        assert engine.keeps_pin(1, rec) == want, (cal, c, g, pin)
        assert engine.keeps_pin(2, rec)  # the pin itself always keeps its own start
        engine.commit(2, rec)
        assert engine.keeps_pin(1, rec)  # no unplaced pin is left
        outcomes.add(want)
    assert outcomes == {True, False}


def placement_or_none(engine, i, k):
    try:
        return engine.placement(i, k, engine.floors(i, k))
    except DecodeInfeasible:
        return None


def ready_pairs(inst, engine):
    return [(i, k) for i in sorted(engine.ready) for k in sorted(inst.ops_by_id[i].eligible)]


def ready_by_predecessors(inst, engine):
    """The unplaced operations whose graph predecessors are all placed."""
    return {op.id for op in inst.operations if op.id not in engine.placed
            and all(p in engine.placed for p in inst.predecessors[op.id])}


def named_trail(bounder: _Bounder) -> list[tuple[str, int, int]]:
    """The bounder's trail, each table given by its attribute name."""
    names = {id(bounder.head): "head", id(bounder.owed): "owed"}
    return [(names[id(table)], key, value) for table, key, value in bounder._trail]


@pytest.mark.parametrize("engine", [PlacementEngine, _Bounder], ids=lambda cls: cls.__name__)
def test_undo_restores_a_fresh_replay_of_the_prefix(engine):
    # a bounder's undo also restores the tables its bound is kept in
    rng = Rng(31337)
    undone = 0
    trailed = set()  # the tables of the compared trails
    for seed in range(1, 31):
        inst = generate(GenParams(n=2, o_min=2, o_max=4, m_min=2, m_max=3, q=2, seed=seed))
        state = engine(inst)
        log = []  # (op, machine) in commit order
        while True:
            options = [(i, rec) for i, k in ready_pairs(inst, state)
                       if (rec := placement_or_none(state, i, k)) is not None]
            if not options:
                break
            i, rec = options[rng.uniform(0, len(options) - 1)]
            state.commit(i, rec)
            log.append((i, rec.machine))
        assert log
        while log:
            log.pop()
            state.undo()
            replay = engine(inst)
            for j, k in log:
                replay.commit(j, replay.placement(j, k, replay.floors(j, k)))
            assert list(state.placed) == [j for j, _ in log]
            assert state.placed == replay.placed
            assert state.seqs == replay.seqs
            assert state.tail == replay.tail == {
                k: state.placed[seq[-1]].completion if seq else 0 for k, seq in state.seqs.items()}
            assert state.pred_left == replay.pred_left
            assert state.ready == replay.ready == ready_by_predecessors(inst, replay)
            pairs = ready_pairs(inst, replay)
            assert pairs == ready_pairs(inst, state) and pairs
            for j, k in pairs:
                assert placement_or_none(state, j, k) == placement_or_none(replay, j, k)
            if engine is _Bounder:
                assert (state.head, state.owed, named_trail(state), state._frames, state.bound) == (
                    replay.head, replay.owed, named_trail(replay), replay._frames, replay.bound)
                trailed.update(name for name, _, _ in named_trail(state))
            undone += 1
    assert undone >= 100
    assert trailed == (set() if engine is PlacementEngine else {"head", "owed"})


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def serial_instance() -> Instance:
    inst = Instance(
        num_machines=1,
        operations=(Operation(1, 1, {1: 3}), Operation(2, 1, {1: 3})),
        arcs=((1, 2),),
        machines=(Machine(1, setup=SetupTable({1: 2, 2: 3}, {(1, 2): 4, (2, 1): 4})),))
    assert validate_instance(inst) == []
    return inst


def overlap_instance() -> Instance:
    inst = Instance(
        num_machines=2,
        operations=(Operation(1, 1, {1: 4}, theta_hundredths=50), Operation(2, 1, {2: 2})),
        arcs=((1, 2),),
        machines=(Machine(1, setup=SetupTable({1: 0}, {})),
                  Machine(2, setup=SetupTable({2: 0}, {}))))
    assert validate_instance(inst) == []
    return inst


def lift_instance() -> Instance:
    # op 1 hands over after a single unit, but op 2 still must not end first
    inst = Instance(
        num_machines=2,
        operations=(Operation(1, 1, {1: 12}, theta_hundredths=1),
                    Operation(2, 1, {2: 3}, release=7)),
        arcs=((1, 2),),
        machines=(Machine(1, setup=SetupTable({1: 0}, {})),
                  Machine(2, windows=((10, 15),), setup=SetupTable({2: 0}, {}))))
    assert validate_instance(inst) == []
    return inst


def test_decode_serial_chain():
    sched = decode(serial_instance(), {1: 1, 2: 1}, {1: [1, 2]})
    assert sched.ops[1] == ScheduledOp(1, 0, 2, 2, 5, 5)
    assert sched.ops[2] == ScheduledOp(1, 5, 4, 9, 12, 12)
    assert sched.sequences == {1: (1, 2)}
    assert makespan(sched) == 12


def test_decode_partial_overlap_releases_successor_early():
    sched = decode(overlap_instance(), {1: 1, 2: 2}, {1: [1], 2: [2]})
    assert sched.ops[1] == ScheduledOp(1, 0, 0, 0, 2, 4)
    # op 2 starts at op 1's partial completion and is allowed to tie on the end
    assert sched.ops[2] == ScheduledOp(2, 2, 0, 2, 4, 4)


def test_decode_lifts_start_to_protect_end_order():
    sched = decode(lift_instance(), {1: 1, 2: 2}, {1: [1], 2: [2]})
    assert sched.ops[1].completion == 12
    # starting op 2 anywhere in 7..9 would finish it at 10 < 12; 8 is the
    # smallest start that carries enough work past the window
    assert (sched.ops[2].start, sched.ops[2].completion) == (8, 16)
    assert check_schedule(lift_instance(), sched) == []


def test_decoded_spans_account_for_down_time_exactly():
    # completion - start - processing equals the down time crossed, and the
    # partial mark obeys the same bookkeeping with the partial duration
    def down_time(windows, lo, hi):
        return sum(max(0, min(hi, e) - max(lo, b)) for b, e in windows)

    for build, assignment, sequences in [
            (serial_instance, {1: 1, 2: 1}, {1: [1, 2]}),
            (lift_instance, {1: 1, 2: 2}, {1: [1], 2: [2]}),
            (windowed_instance, {1: 1}, {1: [1]})]:
        inst = build()
        sched = decode(inst, assignment, sequences)
        for i, so in sched.ops.items():
            op = inst.ops_by_id[i]
            windows = inst.machines_by_id[so.machine].windows
            proc = op.eligible[so.machine]
            assert so.completion - so.start - proc == down_time(windows, so.start, so.completion)
            assert (so.partial_completion - so.start - op.partial_units(so.machine)
                    == down_time(windows, so.start, so.partial_completion))
    # the lift decode crosses a window, so the identity is not vacuous there
    lifted = decode(lift_instance(), {1: 1, 2: 2}, {1: [1], 2: [2]})
    assert lifted.ops[2].completion - lifted.ops[2].start == 3 + 5


def test_decode_lift_result_is_left_tight():
    inst = lift_instance()
    sched = decode(inst, {1: 1, 2: 2}, {1: [1], 2: [2]})
    for i, variant in iter_one_unit_left_shifts(inst, sched):
        assert variant.ops[i].start == sched.ops[i].start - 1
        assert check_schedule(inst, variant), f"shifting op {i} left went undetected"


def test_decode_deadlock():
    with pytest.raises(DecodeInfeasible, match="deadlock"):
        decode(serial_instance(), {1: 1, 2: 1}, {1: [2, 1]})


def test_decode_rejects_malformed_structure():
    inst = serial_instance()
    with pytest.raises(ValueError, match="cover exactly"):
        decode(inst, {1: 1}, {1: [1, 2]})
    with pytest.raises(ValueError, match="exactly once"):
        decode(inst, {1: 1, 2: 1}, {1: [1, 2, 2]})
    with pytest.raises(ValueError, match="exactly once"):
        decode(inst, {1: 1, 2: 1}, {1: [1]})
    with pytest.raises(ValueError, match="unknown machines"):
        decode(inst, {1: 1, 2: 1}, {1: [1, 2], 9: []})
    two = overlap_instance()
    with pytest.raises(ValueError, match="outside its eligible set"):
        decode(two, {1: 2, 2: 2}, {2: [1, 2]})
    with pytest.raises(ValueError, match="assigned to"):
        decode(two, {1: 1, 2: 2}, {1: [1, 2], 2: []})


def pinned_instance() -> Instance:
    inst = Instance(
        num_machines=1,
        operations=(Operation(1, 1, {1: 3}, fixed=(1, 5)), Operation(2, 1, {1: 10})),
        arcs=(),
        machines=(Machine(1, setup=SetupTable({1: 2, 2: 2}, {(1, 2): 1, (2, 1): 1})),))
    assert validate_instance(inst) == []
    return inst


def test_decode_pinned_op_lands_exactly():
    sched = decode(pinned_instance(), {1: 1, 2: 1}, {1: [1, 2]})
    assert (sched.ops[1].start, sched.ops[1].completion) == (5, 8)
    assert sched.ops[2].start == 9
    assert check_schedule(pinned_instance(), sched) == []


def test_decode_pinned_op_displaced_is_infeasible():
    with pytest.raises(DecodeInfeasible, match="pinned"):
        decode(pinned_instance(), {1: 1, 2: 1}, {1: [2, 1]})


def test_decode_pinned_op_cannot_undercut_predecessor_completion():
    inst = Instance(
        num_machines=2,
        operations=(Operation(1, 1, {1: 20}, theta_hundredths=5),
                    Operation(2, 1, {2: 3}, fixed=(2, 5))),
        arcs=((1, 2),),
        machines=(Machine(1, setup=SetupTable({1: 0}, {})),
                  Machine(2, setup=SetupTable({2: 0}, {}))))
    assert validate_instance(inst) == []
    with pytest.raises(DecodeInfeasible, match="complete before"):
        decode(inst, {1: 1, 2: 2}, {1: [1], 2: [2]})


def test_makespan_of_empty_schedule():
    assert makespan(Schedule(ops={}, sequences={})) == 0


# ---------------------------------------------------------------------------
# check_schedule
# ---------------------------------------------------------------------------


def test_checker_passes_decoded_schedules():
    for build, assignment, seqs in [
            (serial_instance, {1: 1, 2: 1}, {1: [1, 2]}),
            (overlap_instance, {1: 1, 2: 2}, {1: [1], 2: [2]}),
            (lift_instance, {1: 1, 2: 2}, {1: [1], 2: [2]})]:
        inst = build()
        assert check_schedule(inst, decode(inst, assignment, seqs)) == []


def test_checker_raises_on_unknown_ids():
    inst = serial_instance()
    sched = decode(inst, {1: 1, 2: 1}, {1: [1, 2]})
    ghost = Schedule(ops={**sched.ops, 9: sched.ops[1]}, sequences=sched.sequences)
    with pytest.raises(ValueError, match="unknown operations"):
        check_schedule(inst, ghost)
    with pytest.raises(ValueError, match="unknown machines"):
        check_schedule(inst, Schedule(ops=sched.ops, sequences={**sched.sequences, 7: ()}))
    with pytest.raises(ValueError, match="unknown operations"):
        check_schedule(inst, Schedule(ops=sched.ops, sequences={1: (1, 2, 9)}))


def test_checker_flags_setup_length_mismatch_alone():
    inst = serial_instance()
    sched = tampered(decode(inst, {1: 1, 2: 1}, {1: [1, 2]}), 2, setup_start=6, setup_len=3)
    bad = check_schedule(inst, sched)
    assert [v.rule for v in bad] == ["setup length mismatch"]
    assert bad[0].op_ids == (2,)


def test_checker_flags_end_order_alone():
    inst = lift_instance()
    sched = decode(inst, {1: 1, 2: 2}, {1: [1], 2: [2]})
    # the un-lifted placement: everything locally legal, but op 2 ends first
    early = tampered(sched, 2, setup_start=7, start=7, partial_completion=10, completion=10)
    assert [v.rule for v in check_schedule(inst, early)] == ["precedence end order violated"]


def test_checker_flags_machine_overlap():
    inst = serial_instance()
    base = decode(inst, {1: 1, 2: 1}, {1: [1, 2]})
    shoved = tampered(base, 2, setup_start=3, start=7, partial_completion=10, completion=10)
    assert "machine overlap" in rules_of(check_schedule(inst, shoved))


def test_checker_flags_partial_overlap():
    inst = overlap_instance()
    base = decode(inst, {1: 1, 2: 2}, {1: [1], 2: [2]})
    early = tampered(base, 2, setup_start=1, start=1, partial_completion=3, completion=3)
    got = rules_of(check_schedule(inst, early))
    assert "precedence overlap violated" in got


def test_checker_flags_release_violation():
    inst = lift_instance()
    base = decode(inst, {1: 1, 2: 2}, {1: [1], 2: [2]})
    # op 2 released at 7
    jumped = tampered(base, 2, setup_start=2, start=2, partial_completion=5, completion=5)
    got = rules_of(check_schedule(inst, jumped))
    assert "release violated" in got


def test_checker_flags_moved_pinned_op():
    inst = pinned_instance()
    base = decode(inst, {1: 1, 2: 1}, {1: [1, 2]})
    moved = tampered(base, 1, setup_start=4, start=6, partial_completion=9, completion=9)
    got = rules_of(check_schedule(inst, moved))
    assert "fixed operation moved" in got


def windowed_instance() -> Instance:
    inst = Instance(
        num_machines=1,
        operations=(Operation(1, 1, {1: 3}),),
        arcs=(),
        machines=(Machine(1, windows=((4, 6),), setup=SetupTable({1: 0}, {})),))
    assert validate_instance(inst) == []
    return inst


def test_checker_flags_start_inside_window():
    inst = windowed_instance()
    sched = Schedule(ops={1: ScheduledOp(1, 5, 0, 5, 9, 9)}, sequences={1: (1,)})
    assert "start inside unavailability" in rules_of(check_schedule(inst, sched))


def test_checker_flags_completion_inside_window():
    inst = windowed_instance()
    # claims the work does not pause for the window
    sched = Schedule(ops={1: ScheduledOp(1, 2, 0, 2, 5, 5)}, sequences={1: (1,)})
    got = rules_of(check_schedule(inst, sched))
    assert "completion inside unavailability" in got
    assert "completion mismatch" in got


def test_checker_flags_straddling_setup():
    inst = Instance(
        num_machines=1,
        operations=(Operation(1, 1, {1: 2}),),
        arcs=(),
        machines=(Machine(1, windows=((4, 6),), setup=SetupTable({1: 3}, {})),))
    sched = Schedule(ops={1: ScheduledOp(1, 3, 3, 6, 8, 8)}, sequences={1: (1,)})
    got = rules_of(check_schedule(inst, sched))
    assert "setup inside unavailability" in got


def test_checker_flags_completion_mismatches():
    inst = serial_instance()
    base = decode(inst, {1: 1, 2: 1}, {1: [1, 2]})
    assert "completion mismatch" in rules_of(check_schedule(inst, tampered(base, 2, completion=13)))
    assert "partial completion mismatch" in rules_of(
        check_schedule(inst, tampered(base, 2, partial_completion=11)))


def test_checker_flags_ineligible_assignment():
    inst = overlap_instance()
    sched = Schedule(ops={1: ScheduledOp(2, 0, 0, 0, 2, 4),
                          2: ScheduledOp(2, 4, 0, 4, 6, 6)},
                     sequences={1: (), 2: (1, 2)})
    assert "assignment not eligible" in rules_of(check_schedule(inst, sched))


def test_checker_reports_an_operation_moved_to_a_missing_machine():
    # a record's machine is an id like a sequence key: one the instance lacks is refused, not reported
    inst = serial_instance()
    moved = tampered(decode(inst, {1: 1, 2: 1}, {1: [1, 2]}), 1, machine=9)
    with pytest.raises(ValueError, match=re.escape("schedule references unknown machines [9]")):
        check_schedule(inst, moved)


def test_checker_flags_structural_holes():
    inst = serial_instance()
    base = decode(inst, {1: 1, 2: 1}, {1: [1, 2]})
    missing = Schedule(ops={1: base.ops[1]}, sequences=base.sequences)
    details = [v for v in check_schedule(inst, missing) if v.rule == "structure"]
    assert any("missing" in v.detail for v in details)
    assert any("unscheduled" in v.detail for v in details)
    unlisted = Schedule(ops=base.ops, sequences={1: (1,)})
    assert any("sequence" in v.detail for v in check_schedule(inst, unlisted)
               if v.rule == "structure")
    twice = Schedule(ops=base.ops, sequences={1: (1, 2, 1)})
    assert Violation("structure", (1,), "operation listed in more than one sequence position") \
        in check_schedule(inst, twice)


def test_left_shift_variants_touch_one_op_each():
    inst = serial_instance()
    sched = decode(inst, {1: 1, 2: 1}, {1: [1, 2]})
    seen = []
    for i, variant in iter_one_unit_left_shifts(inst, sched):
        seen.append(i)
        assert variant.ops[i].start == sched.ops[i].start - 1
        others = [j for j in variant.ops if j != i]
        assert all(variant.ops[j] == sched.ops[j] for j in others)
        assert check_schedule(inst, variant)
    assert seen == [1, 2]
