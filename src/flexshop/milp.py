"""Mixed-integer model construction, LP-format export, and row evaluation.

The model minimizes the makespan ``Cmax`` over machine assignment binaries
``x_i_k``, immediate-predecessor binaries ``yI_i_j_k`` (operation i directly
precedes j on machine k), per-window indicator binaries (``v`` start past the
window, ``w`` completion past it, ``wb`` likewise for the partial
completion), and continuous start/completion/setup quantities. All input
data is integral, every coefficient stays integral, and row evaluation is
exact integer arithmetic.

Three constants derived from the instance data alone make the indicator
rows work: ``m1`` bounds setup lengths, ``m3`` bounds window ends, ``m2``
bounds the schedule horizon, counted from the latest window end, release or
pinned start; see :func:`big_m_constants`.

One deliberate deviation from the obvious chain-count formulation: per
machine the immediate-predecessor pairs satisfy ``sum(y) >= sum(x) - 1``
rather than equality, so an entirely unused machine (``sum(x) = 0``) stays
feasible. The degree caps and the gap rows still force one simple chain
through every operation the machine actually hosts.

The model stores no names: each row makes the variable names it uses where
it uses them. The three fields of :class:`MilpModel` are views that keep no
state: each pass, ``len()``'s counting pass too, makes their names or rows
anew from index data and, per machine, a setup object and hosted operation
records. The index data holds the decimal text of every operation and machine
id, made once per :func:`build_model` call, so the ``yI`` declarations and the
rows quadratic in co-eligible pairs join strings and format no integer per
name. :func:`lp_lines`, :func:`emit_lp` and :func:`evaluate_schedule` hold
one row at a time, plus one line of LP text or, in :func:`emit_lp`, all of it.
:func:`schedule_values` makes its own id text and the same names on its own on
purpose: it is the independent side of the row check, and a mismatch shows up
as violated rows on a proven optimum.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import islice, starmap
from typing import NamedTuple

from .model import Instance, Schedule, makespan


class _View:
    """A sized view that makes its items anew on each pass and keeps none of them; ``len()`` counts a fresh pass."""

    __slots__ = ("_make",)

    def __init__(self, make: Callable[[], Iterator]):
        self._make = make

    def __iter__(self) -> Iterator:
        return self._make()

    def __len__(self) -> int:
        return sum(1 for _ in self._make())


@dataclass(frozen=True)
class MilpModel:
    """Variable declarations and the rows over them.

    Each row is a plain ``(name, terms, sense, rhs)`` tuple, its ``terms``
    ``(coefficient, variable)`` pairs and its ``sense`` ``"<="``, ``"="`` or
    ``">="``. All three of :func:`build_model`'s fields are views that make the
    same names or rows in the same order on each pass and keep none; ``len()``
    counts a fresh pass.
    """

    binaries: Iterable[str]  # variable names in declaration order
    continuous: Iterable[str]  # every variable, binary or not, is non-negative
    constraints: Iterable[tuple[str, tuple[tuple[int, str], ...], str, int]]


@dataclass(frozen=True)
class RowViolation:
    name: str
    lhs: int
    sense: str
    rhs: int


class BigM(NamedTuple):
    m1: int
    m2: int
    m3: int


def big_m_constants(inst: Instance) -> BigM:
    """The three model constants, from the instance data alone.

    m1 bounds every setup length. m3 bounds every unavailability-window end.
    m2 bounds any sensible schedule horizon: the latest of the last window
    end, every release and every pinned start, plus, for each operation, its
    worst eligible processing time plus the worst setup that could precede
    it there. After that first time no window, release or pin delays
    anything, so a left-tight schedule completes by m2, which the
    ``machine_gap`` and window rows need. Empty maxima count as 0 so the
    formulas stay total on window-free or setup-free instances.
    """
    m1 = 0
    m3 = 0
    for mc in inst.machines:
        m3 = max(m3, mc.last_window_end())
        m1 = max(m1, mc.setup.longest())

    m2 = max([m3, *(op.release for op in inst.operations), *(op.fixed[1] for op in inst.operations if op.fixed)])
    for op in inst.operations:
        m2 += max((p + inst.machines_by_id[k].setup.worst_into(op, inst.eligible_ops[k])
                   for k, p in op.eligible.items()), default=0)
    return BigM(m1=m1, m2=m2, m3=m3)


def build_model(inst: Instance) -> MilpModel:
    m1, m2, m3 = big_m_constants(inst)

    ops = sorted(op.id for op in inst.operations)
    op_of = inst.ops_by_id
    eligible = {i: sorted(op_of[i].eligible) for i in ops}
    hosts = {k: inst.eligible_ops[k] for k in sorted(inst.machines_by_id)}
    windows = {k: inst.machines_by_id[k].windows for k in hosts}
    # the decimal text of each id, made once: the yI declarations and the quadratic
    # row families join these strings and format no integer for each name
    text = {i: str(i) for i in ops}
    k_text = {k: str(k) for k in hosts}
    host_ops = {k: [(op_of[i], text[i]) for i in here] for k, here in hosts.items()}
    has_succ = sorted({i for i, _ in inst.arcs})
    arcs = sorted(inst.arcs)

    per_ik = [(i, k) for i in ops for k in eligible[i]]

    def binaries() -> Iterator[str]:  # names in declaration order, as in continuous()
        yield from (f"x_{i}_{k}" for i, k in per_ik)
        for k, here in host_ops.items():
            sk = k_text[k]
            yield from (f"yI_{si}_{sj}_{sk}" for opi, si in here for opj, sj in here if opi is not opj)
        for p in ("v", "w", "wb"):
            yield from (f"{p}_{i}_{k}_{ell}" for i, k in per_ik for ell in range(1, len(windows[k]) + 1))

    def continuous() -> Iterator[str]:
        yield from (f"{p}_{i}" for p in ("s", "c", "cb", "pp", "ppb", "u", "ub") for i in ops)
        yield from (f"{p}_{i}_{k}" for p in ("xih", "xib") for i, k in per_ik)
        yield from (f"xi_{i}" for i in ops)
        yield "Cmax"

    def rows() -> Iterator[tuple]:
        for i in ops:
            yield f"assign_{i}", tuple([(1, f"x_{i}_{k}") for k in eligible[i]]), "=", 1
        for i in ops:
            yield (f"proc_def_{i}",
                   ((1, f"pp_{i}"), *[(-op_of[i].eligible[k], f"x_{i}_{k}") for k in eligible[i]]), "=", 0)
        for i in ops:
            yield f"release_{i}", ((1, f"s_{i}"),), ">=", op_of[i].release
        for i in ops:
            if op_of[i].fixed is not None:
                yield f"fix_start_{i}", ((1, f"s_{i}"),), "=", op_of[i].fixed[1]
        for i in has_succ:
            yield (f"overlap_def_{i}",
                   ((1, f"ppb_{i}"), *[(-op_of[i].partial_units(k), f"x_{i}_{k}") for k in eligible[i]]), "=", 0)

        for row, slack, past in (("unavail_sum", "u", "w"), ("overlap_unavail_sum", "ub", "wb")):
            for i in ops:
                terms: list[tuple[int, str]] = [(1, f"{slack}_{i}")]
                for k in eligible[i]:
                    for ell, (b, e) in enumerate(windows[k], start=1):
                        terms += (e - b, f"v_{i}_{k}_{ell}"), (-(e - b), f"{past}_{i}_{k}_{ell}")
                yield f"{row}_{i}", tuple(terms), "=", 0

        for i in ops:
            yield f"start_before_partial_{i}", ((1, f"s_{i}"), (-1, f"cb_{i}")), "<=", 0
        for i in ops:
            yield f"partial_before_completion_{i}", ((1, f"cb_{i}"), (-1, f"c_{i}")), "<=", 0
        for i in ops:
            yield f"completion_def_{i}", ((1, f"s_{i}"), (1, f"pp_{i}"), (1, f"u_{i}"), (-1, f"c_{i}")), "=", 0
        for i in ops:
            yield (f"partial_completion_def_{i}",
                   ((1, f"s_{i}"), (1, f"ppb_{i}"), (1, f"ub_{i}"), (-1, f"cb_{i}")), "=", 0)
        for i in ops:
            yield f"makespan_{i}", ((1, f"c_{i}"), (-1, "Cmax")), "<=", 0

        for i, j in arcs:
            yield f"overlap_start_{i}_{j}", ((1, f"cb_{i}"), (-1, f"s_{j}")), "<=", 0
        for i, j in arcs:
            yield f"end_order_{i}_{j}", ((1, f"c_{i}"), (-1, f"c_{j}")), "<=", 0

        for k, here in host_ops.items():  # pairs in the declaration order of yI; both rows share their terms
            sk = k_text[k]
            minus_x = [(opi, si, (-1, f"x_{si}_{sk}")) for opi, si in here]
            for opi, si, minus_xi in minus_x:
                for opj, sj, minus_xj in minus_x:
                    if opi is not opj:
                        tag = f"{si}_{sj}_{sk}"
                        plus_y = 1, f"yI_{tag}"
                        yield f"imm_x_pred_{tag}", (plus_y, minus_xi), "<=", 0
                        yield f"imm_x_succ_{tag}", (plus_y, minus_xj), "<=", 0
        for k, here in host_ops.items():
            sk = k_text[k]
            terms = [(1, f"yI_{si}_{sj}_{sk}") for opi, si in here for opj, sj in here if opi is not opj]
            terms += [(-1, f"x_{si}_{sk}") for _, si in here]
            if terms:
                yield f"chain_count_{sk}", tuple(terms), ">=", -1
        for k, here in host_ops.items():
            sk = k_text[k]
            for opi, si in here:
                if succ := tuple([(1, f"yI_{si}_{sj}_{sk}") for opj, sj in here if opj is not opi]):
                    yield f"succ_once_{sk}_{si}", succ, "<=", 1
            for opj, sj in here:
                if pred := tuple([(1, f"yI_{si}_{sj}_{sk}") for opi, si in here if opi is not opj]):
                    yield f"pred_once_{sk}_{sj}", pred, "<=", 1

        for j, k in per_ik:
            opj, setup = op_of[j], inst.machines_by_id[k].setup
            gf, between, jk = setup.first(opj), setup.between, f"{text[j]}_{k_text[k]}"
            terms = [(1, f"xih_{jk}")]
            for opi, si in host_ops[k]:
                if opi is not opj and (diff := between(opi, opj) - gf):
                    terms.append((-diff, f"yI_{si}_{jk}"))
            yield f"setup_pick_def_{jk}", tuple(terms), "=", gf
        for j, k in per_ik:
            xjk, xih, xib = f"x_{j}_{k}", f"xih_{j}_{k}", f"xib_{j}_{k}"
            yield f"setup_sel_ub_{j}_{k}", ((1, xib), (-m1, xjk)), "<=", 0
            yield f"setup_sel_lb_{j}_{k}", ((1, xih), (-1, xib), (m1, xjk)), "<=", m1
            yield f"setup_sel_cap_{j}_{k}", ((1, xib), (-1, xih)), "<=", 0
        for j in ops:
            yield f"setup_len_def_{j}", ((1, f"xi_{j}"), *[(-1, f"xib_{j}_{k}") for k in eligible[j]]), "=", 0

        for i in ops:
            plus_c, on_i, si = (1, f"c_{i}"), eligible[i], text[i]
            for j in sorted({h for k in on_i for h in hosts[k]} - {i}):  # the ops sharing a machine with i
                on_j, sj = op_of[j].eligible, text[j]
                yield (f"machine_gap_{si}_{sj}", (plus_c, (-1, f"s_{sj}"), (1, f"xi_{sj}"),
                                                  *[(m2, f"yI_{si}_{sj}_{k_text[k]}") for k in on_i if k in on_j]),
                       "<=", m2)
        for i in ops:
            yield f"setup_within_start_{i}", ((1, f"s_{i}"), (-1, f"xi_{i}")), ">=", 0

        for i, k in per_ik:
            xik, si, ci, cbi, xii = f"x_{i}_{k}", f"s_{i}", f"c_{i}", f"cb_{i}", f"xi_{i}"
            for ell, (b, e) in enumerate(windows[k], start=1):
                tag = f"{i}_{k}_{ell}"
                vl, wl, wbl = f"v_{tag}", f"w_{tag}", f"wb_{tag}"
                yield f"win_sv_{tag}", ((1, vl), (-1, xik)), "<=", 0
                yield f"win_s_ub_{tag}", ((1, si), (-m2, vl), (m2, xik)), "<=", b - 1 + m2
                yield f"win_setup_lb_{tag}", ((1, si), (-1, xii), (-m3, vl), (-m3, xik)), ">=", e - 2 * m3
                yield f"win_cw_{tag}", ((1, wl), (-1, xik)), "<=", 0
                yield f"win_c_ub_{tag}", ((1, ci), (-m2, wl), (m2, xik)), "<=", b + m2
                yield f"win_c_lb_{tag}", ((1, ci), (-m3, wl), (-m3, xik)), ">=", e + 1 - 2 * m3
                yield f"win_pw_{tag}", ((1, wbl), (-1, xik)), "<=", 0
                yield f"win_pc_ub_{tag}", ((1, cbi), (-m2, wbl), (m2, xik)), "<=", b + m2
                yield f"win_pc_lb_{tag}", ((1, cbi), (-m3, wbl), (-m3, xik)), ">=", e + 1 - 2 * m3

    return MilpModel(binaries=_View(binaries), continuous=_View(continuous), constraints=_View(rows))


# ---------------------------------------------------------------------------
# LP-format text
# ---------------------------------------------------------------------------


def _row_line(name: str, terms: tuple[tuple[int, str], ...], sense: str, rhs: int) -> str:
    parts = []
    for coef, var in terms:
        if coef < 0:
            parts.append(f"- {var}" if coef == -1 else f"- {-coef} {var}")
        else:
            parts.append(f"+ {var}" if coef == 1 else f"+ {coef} {var}")
    return f" {name}: {' '.join(parts).removeprefix('+ ')} {sense} {rhs}\n"  # no sign before a leading plus


def lp_lines(model: MilpModel) -> Iterator[str]:
    """The text of :func:`emit_lp`, one line at a time, each ending in a newline.

    One pass over the rows; only the line being yielded is held.
    """
    yield from ("Minimize\n", " obj: Cmax\n", "Subject To\n")
    yield from starmap(_row_line, model.constraints)
    yield "Bounds\n"
    yield from (f" {name} >= 0\n" for name in model.continuous)
    yield "Binaries\n"
    yield from (f" {name}\n" for name in model.binaries)
    yield "End\n"


def emit_lp(model: MilpModel) -> str:
    """CPLEX-style LP text. Deterministic; every coefficient an integer.

    Continuous variables each get an explicit (default) bound line so the
    declaration list survives a round trip through the text form.
    """
    lines = lp_lines(model)  # joined in batches: a list of every line would outweigh the text
    return "".join(iter(lambda: "".join(islice(lines, 4096)), ""))


# ---------------------------------------------------------------------------
# Evaluating a schedule against the rows
# ---------------------------------------------------------------------------


def schedule_values(inst: Instance, sched: Schedule) -> dict[str, int]:
    """Variable values a schedule induces, honest wherever it is inconsistent.

    Indicator binaries are set from the actual times (a window counts as
    passed when the relevant time has cleared its end), setup-pick values
    follow the immediate-predecessor pairs in the sequences, and the slack
    quantities (u, ub) are the literal residuals of the schedule's own times,
    so any internal inconsistency surfaces as a violated row rather than
    being patched over. One pass over the sequences collects each listed
    operation's predecessors, the last listing naming its setup predecessor;
    one pass over the operations then sets every value an operation indexes.
    """
    val: dict[str, int] = {}
    text = {op.id: str(op.id) for op in inst.operations}  # each id's text, made here, not taken from build_model
    hosts = {k: {a: text[a] for a in here} for k, here in inst.eligible_ops.items()}  # hosted id -> its text
    pred_on_machine: dict[int, int | None] = {}
    listed_after: dict[tuple[int, int], list[int | None]] = {}  # (op, machine) -> what each listing there follows
    for k, seq in sched.sequences.items():
        for a, j in zip((None, *seq), seq):
            pred_on_machine[j] = a
            listed_after.setdefault((j, k), []).append(a)

    for op in inst.operations:
        i = op.id
        so = sched.ops.get(i)
        k_here = None if so is None else so.machine
        if so is not None:
            val[f"s_{i}"] = so.start
            val[f"c_{i}"] = so.completion
            val[f"cb_{i}"] = so.partial_completion
            pp = op.eligible.get(k_here, 0)
            ppb = op.partial_units(k_here) if k_here in op.eligible else 0
            val[f"pp_{i}"] = pp
            val[f"ppb_{i}"] = ppb
            val[f"u_{i}"] = so.completion - so.start - pp
            val[f"ub_{i}"] = so.partial_completion - so.start - ppb
            val[f"xi_{i}"] = so.setup_len
        prev = pred_on_machine.get(i)
        for k in sorted(op.eligible):
            on_k, mc = k == k_here, inst.machines_by_id[k]
            here, ik = hosts[k], f"{text[i]}_{k}"
            val[f"x_{ik}"] = 1 if on_k else 0
            for a, sa in here.items():
                if a != i:
                    val[f"yI_{sa}_{ik}"] = 0
            for a in listed_after.get((i, k), ()):
                if a != i and a in here:
                    val[f"yI_{here[a]}_{ik}"] = 1
            pick = mc.setup.between(inst.ops_by_id[prev], op) if on_k and prev != i and prev in here \
                else mc.setup.first(op)  # prev None, i itself (listed twice) or not eligible on k: no pair
            val[f"xih_{ik}"] = pick
            val[f"xib_{ik}"] = pick if on_k else 0
            if so is not None:
                for ell, (b, e) in enumerate(mc.windows, start=1):
                    val[f"v_{i}_{k}_{ell}"] = 1 if on_k and so.start >= e else 0
                    val[f"w_{i}_{k}_{ell}"] = 1 if on_k and so.completion > e else 0
                    val[f"wb_{i}_{k}_{ell}"] = 1 if on_k and so.partial_completion > e else 0

    val["Cmax"] = makespan(sched)
    return val


def evaluate_schedule(inst: Instance, sched: Schedule) -> list[RowViolation]:
    """All model rows and continuous-variable bounds the schedule's values violate.

    Bounds come first, then rows in model order; each row is checked as it is
    made and only the violations are kept.
    """
    model = build_model(inst)
    val = schedule_values(inst, sched)
    get = val.get
    # binaries need no bound check: schedule_values sets them to 0 or 1
    out = [RowViolation(f"bound_{name}", val[name], "in", 0) for name in model.continuous if get(name, 0) < 0]
    for name, terms, sense, rhs in model.constraints:
        lhs = 0
        for coef, var in terms:
            lhs += coef * get(var, 0)
        if lhs > rhs if sense == "<=" else lhs < rhs if sense == ">=" else lhs != rhs:
            out.append(RowViolation(name, lhs, sense, rhs))
    return out
