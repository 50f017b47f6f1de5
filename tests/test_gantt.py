import re

import pytest

from flexshop.gantt import render_svg
from flexshop.model import (MAX_TIME, Instance, Machine, Operation, Schedule, ScheduledOp, SetupTable,
                            validate_instance)

from flexshop.timing import check_schedule

from oracles import decode
from test_timing import lift_instance, serial_instance, tampered


def test_svg_structure():
    inst = serial_instance()
    sched = decode(inst, {1: 1, 2: 1}, {1: [1, 2]})
    svg = render_svg(inst, sched)
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" version="1.1"')
    assert svg.rstrip().endswith("</svg>")
    assert "makespan 12" in svg
    assert svg.count('fill="#3366cc"') == 2  # both setups drawn
    assert ">M1<" in svg


def test_svg_is_deterministic():
    inst = serial_instance()
    sched = decode(inst, {1: 1, 2: 1}, {1: [1, 2]})
    assert render_svg(inst, sched) == render_svg(inst, sched)


def test_windows_are_drawn_after_the_bars():
    inst = lift_instance()
    sched = decode(inst, {1: 1, 2: 2}, {1: [1], 2: [2]})
    svg = render_svg(inst, sched)
    window_at = svg.index('fill="#cc3333"')
    last_bar_at = svg.rindex('stroke="#333"')
    assert window_at > last_bar_at, "the window overlay must sit on top of the bars"
    # op 2 runs 8..16 across the window [10,15]: one bar spanning both sides
    assert "makespan 16" in svg


def test_empty_schedule_shows_rows_and_windows_only():
    inst = lift_instance()
    svg = render_svg(inst, Schedule(ops={}, sequences={1: (), 2: ()}))
    assert "makespan 0" in svg
    assert ">M1<" in svg and ">M2<" in svg
    assert "hsl(" not in svg and "#3366cc" not in svg
    assert svg.count('fill="#cc3333"') == 1  # machine 2's window still shows


def test_single_op_draws_one_bar_and_one_setup():
    inst = Instance(
        num_machines=1,
        operations=(Operation(1, 1, {1: 3}),),
        arcs=(),
        machines=(Machine(1, setup=SetupTable({1: 2}, {})),))
    assert validate_instance(inst) == []
    svg = render_svg(inst, decode(inst, {1: 1}, {1: [1]}))
    assert svg.count('fill="#3366cc"') == 1
    assert svg.count("hsl(") == 1
    assert "makespan 5" in svg


def test_bar_geometry_tracks_the_time_axis():
    # horizon 16 maps to 960 px, so one time unit is 60 px from x = 70
    inst = lift_instance()
    svg = render_svg(inst, decode(inst, {1: 1, 2: 2}, {1: [1], 2: [2]}))
    assert ('<rect x="70.00" y="34.00" width="720.00" height="26.00" '
            'fill="hsl(137,62%,58%)" stroke="#333" stroke-width="0.5"/>') in svg
    assert ('<rect x="550.00" y="70.00" width="480.00" height="26.00" '
            'fill="hsl(137,62%,58%)" stroke="#333" stroke-width="0.5"/>') in svg
    assert ('<rect x="670.00" y="68.00" width="300.00" height="30.00" '
            'fill="#cc3333" fill-opacity="0.45"/>') in svg


def test_jobs_get_distinct_colors():
    inst = serial_instance()
    sched = decode(inst, {1: 1, 2: 1}, {1: [1, 2]})
    svg = render_svg(inst, sched)
    assert 'hsl(137,62%,58%)' in svg  # both ops belong to job 1
    assert svg.count('hsl(137,62%,58%)') == 2


def test_a_far_window_gets_at_most_thirteen_ticks():
    # the axis reaches the window end, 10^10; a step table that stops at
    # 10,000 would draw a million ticks (163 MB of SVG)
    far = 10**10
    inst = Instance(
        num_machines=1,
        operations=(Operation(1, 1, {1: 3}),),
        arcs=(),
        machines=(Machine(1, windows=((far, far + 1),), setup=SetupTable({1: 2}, {})),))
    assert validate_instance(inst) == []
    svg = render_svg(inst, decode(inst, {1: 1}, {1: [1]}))
    labels = re.findall(r'fill="#666" text-anchor="middle">(\d+)<', svg)
    assert labels == [str(t) for t in range(0, far + 1, far // 10)]
    assert len(svg) < 10_000


def test_negative_times_and_times_out_to_64_bits_still_render():
    inst = serial_instance()
    for so in (ScheduledOp(1, -7, 2, -5, 0, 3), ScheduledOp(1, -MAX_TIME, 1, -MAX_TIME + 1, MAX_TIME, MAX_TIME)):
        svg = render_svg(inst, Schedule(ops={1: so}, sequences={1: (1,)}))
        assert f"makespan {so.completion}" in svg and svg.count('fill="#3366cc"') == 1


@pytest.mark.parametrize("kind", ["record-id", "record-machine", "sequence-key", "sequence-entry"])
def test_check_and_gantt_refuse_an_unknown_id_with_one_message(kind):
    inst = serial_instance()
    sched = decode(inst, {1: 1, 2: 1}, {1: [1, 2]})
    sched, unknown = {
        "record-id": (Schedule(ops={**sched.ops, 9: sched.ops[2]}, sequences=sched.sequences), "operations [9]"),
        "record-machine": (tampered(sched, 2, machine=7), "machines [7]"),
        "sequence-key": (Schedule(ops=sched.ops, sequences={**sched.sequences, 7: ()}), "machines [7]"),
        "sequence-entry": (Schedule(ops=sched.ops, sequences={1: (1, 2, 9)}), "operations [9]"),
    }[kind]
    with pytest.raises(ValueError) as checked:
        check_schedule(inst, sched)
    with pytest.raises(ValueError) as drawn:
        render_svg(inst, sched)
    assert str(checked.value) == str(drawn.value) == f"schedule references unknown {unknown}"
