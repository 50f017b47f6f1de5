import time
import tracemalloc

import pytest

from flexshop.milp import big_m_constants
from flexshop.model import (CycleError, Instance, Machine, Operation, SetupRule, SetupTable, Violation,
                            topological_order, validate_instance)
from flexshop.solvers import solve_exact

TWO_OP_TABLE = SetupTable({1: 2, 2: 2}, {(1, 2): 1, (2, 1): 4})


def two_op_instance(**kwargs) -> Instance:
    ops = kwargs.pop("operations", (Operation(1, 1, {1: 3}), Operation(2, 1, {1: 5})))
    machines = kwargs.pop("machines", (Machine(1, setup=TWO_OP_TABLE),))
    return Instance(num_machines=kwargs.pop("num_machines", 1), operations=ops,
                    arcs=kwargs.pop("arcs", ()), machines=machines)


def rules_of(report):
    return [v.rule for v in report]


def test_valid_instance_reports_nothing():
    assert validate_instance(two_op_instance()) == []


def test_operation_ids_must_be_dense_from_one():
    inst = two_op_instance(operations=(Operation(1, 1, {1: 3}), Operation(5, 1, {1: 5})))
    assert "operation ids" in rules_of(validate_instance(inst))


def test_empty_eligible_set_is_flagged():
    inst = two_op_instance(operations=(Operation(1, 1, {}), Operation(2, 1, {1: 5})))
    assert "eligibility" in rules_of(validate_instance(inst))


def test_eligible_machine_must_exist():
    inst = two_op_instance(operations=(Operation(1, 1, {1: 3, 9: 2}), Operation(2, 1, {1: 5})))
    report = validate_instance(inst)
    assert any(v.rule == "eligibility" and "9" in v.detail for v in report)
    # the explicit setup maps now also fail to cover machine 9's phantom entry
    assert len(report) >= 1


def test_processing_time_must_be_positive_integer():
    inst = two_op_instance(operations=(Operation(1, 1, {1: 0}), Operation(2, 1, {1: 5})))
    assert "processing time" in rules_of(validate_instance(inst))


def test_theta_range_and_placement():
    inst = two_op_instance(operations=(Operation(1, 1, {1: 3}, theta_hundredths=0),
                                       Operation(2, 1, {1: 5})))
    assert "overlap fraction" in rules_of(validate_instance(inst))
    # theta below 1 on an operation without successors is meaningless
    inst = two_op_instance(operations=(Operation(1, 1, {1: 3}, theta_hundredths=50),
                                       Operation(2, 1, {1: 5})))
    assert "overlap fraction" in rules_of(validate_instance(inst))
    # with a successor it is fine
    inst = two_op_instance(operations=(Operation(1, 1, {1: 3}, theta_hundredths=50),
                                       Operation(2, 1, {1: 5})), arcs=((1, 2),))
    assert validate_instance(inst) == []


def test_fixed_needs_singleton_eligible_set():
    inst = two_op_instance(
        operations=(Operation(1, 1, {1: 3}, fixed=(1, 30)), Operation(2, 1, {1: 5})))
    assert validate_instance(inst) == []
    inst = two_op_instance(
        num_machines=2,
        operations=(Operation(1, 1, {1: 3, 2: 3}, fixed=(1, 30)), Operation(2, 1, {1: 5})),
        machines=(Machine(1, setup=TWO_OP_TABLE), Machine(2, setup=SetupTable({1: 0}, {}))))
    report = validate_instance(inst)
    assert any(v.detail == "fixed operation must have singleton machine set" for v in report)


def test_fixed_start_before_release_is_flagged():
    def pinned(release, start):
        return two_op_instance(operations=(Operation(1, 1, {1: 3}, release=release, fixed=(1, start)),
                                           Operation(2, 1, {1: 5})))

    assert [str(v) for v in validate_instance(pinned(31, 30))] == ["fixed [1]: fixed start 30 is before release 31"]
    assert validate_instance(pinned(30, 30)) == []
    # a start or release that is not a valid time is reported as such, not compared
    assert rules_of(validate_instance(pinned(-5, 30))) == ["release"]
    assert [v.detail for v in validate_instance(pinned(31, "30"))] == [
        "fixed start must be a non-negative 64-bit integer, got '30'"]


def test_arc_validation():
    inst = two_op_instance(arcs=((1, 7),))
    assert any(v.rule == "arc" and "unknown" in v.detail for v in validate_instance(inst))
    inst = two_op_instance(arcs=((1, 1),))
    assert any("self-loop" in v.detail for v in validate_instance(inst))
    inst = two_op_instance(arcs=((1, 2), (1, 2)))
    assert any("duplicate" in v.detail for v in validate_instance(inst))
    inst = two_op_instance(
        operations=(Operation(1, 1, {1: 3}), Operation(2, 2, {1: 5})), arcs=((1, 2),))
    assert any("crosses jobs" in v.detail for v in validate_instance(inst))


def test_cycle_is_reported_with_witness():
    inst = two_op_instance(arcs=((1, 2), (2, 1)))
    report = validate_instance(inst)
    assert any(v.rule == "precedence" and "cycle" in v.detail for v in report)
    with pytest.raises(CycleError) as err:
        topological_order(inst)
    assert set(err.value.witness) >= {1, 2}
    assert str(err.value) == "precedence cycle: 1 -> 2 -> 1"


def test_cycle_witness_of_a_long_cycle_is_found_in_linear_time():
    # one cycle 1 -> 2 -> ... -> n -> 1: a walk that is quadratic in n takes many seconds
    n = 20_000
    inst = Instance(num_machines=1,
                    operations=tuple(Operation(i, 1, {1: 1}) for i in range(1, n + 1)),
                    arcs=tuple((i, i % n + 1) for i in range(1, n + 1)),
                    machines=(Machine(1, setup=SetupRule(0, 0, 0, 0)),))
    t0 = time.perf_counter()
    with pytest.raises(CycleError) as err:
        topological_order(inst)
    assert time.perf_counter() - t0 < 2.0
    assert err.value.witness == list(range(1, n + 1)) + [1]
    # the message is cut, the witness is not; unvalidated, the cycle reaches a library caller through the solver
    cut = "precedence cycle: 1 -> 2 -> 3 -> 4 -> 5 -> 6 -> 7 -> 8 -> 9 -> 10 -> 11 -> 12 -> 13 -> 14 ...[cut]"
    assert str(err.value) == cut
    with pytest.raises(CycleError) as err:
        solve_exact(inst)
    assert (str(err.value), len(err.value.witness)) == (cut, n + 1)
    report = validate_instance(inst)
    assert [v.op_ids for v in report if v.rule == "precedence"] == [tuple(err.value.witness)]


def test_calendar_windows_must_be_ordered_and_nonempty():
    mc = Machine(1, windows=((6, 4),), setup=TWO_OP_TABLE)
    assert "calendar" in rules_of(validate_instance(two_op_instance(machines=(mc,))))
    mc = Machine(1, windows=((2, 5), (5, 8)), setup=TWO_OP_TABLE)
    report = validate_instance(two_op_instance(machines=(mc,)))
    assert any("touch or overlap" in v.detail for v in report)


def test_setup_maps_must_cover_exactly_the_eligible_ops():
    mc = Machine(1, setup=SetupTable({1: 2}, {(1, 2): 1, (2, 1): 4}))
    report = validate_instance(two_op_instance(machines=(mc,)))
    assert any("first-setup keys" in v.detail for v in report)
    mc = Machine(1, setup=SetupTable({1: 2, 2: 2}, {(1, 2): 1}))
    report = validate_instance(two_op_instance(machines=(mc,)))
    assert any("pair-setup keys" in v.detail for v in report)


PAIR_KEYS = Violation("setup", (), "machine 1 pair-setup keys do not cover exactly its eligible pairs")


@pytest.mark.parametrize("pairs", [
    pytest.param({(1, 2): 1}, id="missing-pair"),
    pytest.param({(1, 2): 1, (1, 1): 0}, id="self-pair-in-place-of-a-missing-pair"),  # the key count still matches
    pytest.param({(1, 2): 1, (1, 3): 0}, id="non-host"),
    pytest.param({(1, 2): 1, "2,1": 0}, id="non-tuple"),
    pytest.param({(1, 2): 1, (2, 1, 1): 0}, id="three-ids"),
])
def test_each_wrong_pair_key_set_draws_the_one_pair_setup_message(pairs):
    report = validate_instance(two_op_instance(machines=(Machine(1, setup=SetupTable({1: 2, 2: 2}, pairs)),)))
    assert report == [PAIR_KEYS]


def test_pair_keys_are_checked_without_building_every_host_pair():
    # 1,000 hosts and an empty pair map: a set of all 999,000 ordered host pairs peaked at about 85 MB
    hosts = tuple(range(1, 1001))
    table = SetupTable(dict.fromkeys(hosts, 0), {})
    tracemalloc.start()
    try:
        report = table.violations(1, hosts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == [PAIR_KEYS]
    assert peak < 2**20, f"validating the pair keys peaked at {peak / 2**20:.2f} MB"


def test_big_m_worked_example_with_window():
    inst = two_op_instance(machines=(Machine(1, windows=((4, 6),), setup=TWO_OP_TABLE),))
    assert big_m_constants(inst) == (4, 20, 6)


@pytest.mark.parametrize("pin, m2", [(50, 94), (120, 134)])
def test_big_m_horizon_counts_from_the_latest_release_or_pin(pin, m2):
    # the release at 80 and the pin lie past the window's end at 6; from the later of them
    # m2 adds (3 + 4) for op 1 and (5 + 2) for op 2, as in the worked example with a window
    inst = two_op_instance(operations=(Operation(1, 1, {1: 3}, fixed=(1, pin)), Operation(2, 1, {1: 5}, release=80)),
                           machines=(Machine(1, windows=((4, 6),), setup=TWO_OP_TABLE),))
    assert validate_instance(inst) == []
    assert big_m_constants(inst) == (4, m2, 6)


def test_big_m_worked_example_without_windows():
    inst = Instance(num_machines=1, operations=(Operation(1, 1, {1: 5}),), arcs=(),
                    machines=(Machine(1, setup=SetupTable({1: 2}, {})),))
    assert big_m_constants(inst) == (2, 7, 0)


def test_big_m_rule_machine_uses_first_setup_as_worst_case():
    rule = SetupRule(st_smaller=2, st_larger=4, ct=3, vt=2)
    inst = Instance(num_machines=1,
                    operations=(Operation(1, 1, {1: 5}, size=3), Operation(2, 1, {1: 7}, size=5)),
                    arcs=(), machines=(Machine(1, setup=rule),))
    m1, m2, _ = big_m_constants(inst)
    assert m1 == rule.first(inst.operations[0]) == 9
    assert m2 == (5 + 9) + (7 + 9)


def test_big_m_setup_bound_is_zero_without_setups():
    inst = Instance(num_machines=1,
                    operations=(Operation(1, 1, {1: 4}), Operation(2, 1, {1: 6})),
                    arcs=(),
                    machines=(Machine(1, setup=SetupTable({1: 0, 2: 0}, {(1, 2): 0, (2, 1): 0})),))
    assert big_m_constants(inst) == (0, 10, 0)


def test_topological_order_without_arcs_sorts_ids():
    # declaration order of the operations tuple does not leak into the order
    inst = Instance(num_machines=1,
                    operations=(Operation(3, 3, {1: 1}), Operation(1, 1, {1: 1}),
                                Operation(2, 2, {1: 1})),
                    arcs=(),
                    machines=(Machine(1, setup=SetupTable({1: 0, 2: 0, 3: 0}, {
                        (a, b): 0 for a in (1, 2, 3) for b in (1, 2, 3) if a != b})),))
    assert validate_instance(inst) == []
    assert topological_order(inst) == [1, 2, 3]


def test_topological_order_prefers_lower_ids():
    inst = Instance(
        num_machines=1,
        operations=tuple(Operation(i, 1, {1: 1}) for i in range(1, 6)),
        arcs=((1, 4), (2, 4), (4, 5), (3, 5)),
        machines=(Machine(1, setup=SetupRule(0, 0, 0, 0)),))
    assert topological_order(inst) == [1, 2, 3, 4, 5]


def test_partial_units_rounds_up():
    assert Operation(1, 1, {1: 3}, theta_hundredths=50).partial_units(1) == 2
    assert Operation(1, 1, {1: 99}, theta_hundredths=1).partial_units(1) == 1
    assert Operation(1, 1, {1: 8}).partial_units(1) == 8


def test_setup_rule_feature_cases():
    rule = SetupRule(st_smaller=2, st_larger=4, ct=3, vt=5)
    small = Operation(1, 1, {1: 1}, size=2, color=1, varnish=1)
    big = Operation(2, 1, {1: 1}, size=6, color=2, varnish=1)
    assert rule.between(small, big) == 2 + 3      # growing size, color change
    assert rule.between(big, small) == 4 + 3      # shrinking size, color change
    assert rule.between(small, small) == 0
    assert rule.first(small) == rule.first(big) == 4 + 3 + 5
    # the first-setup bound takes whichever size constant is larger
    assert SetupRule(st_smaller=5, st_larger=2, ct=1, vt=1).first(small) == 7
