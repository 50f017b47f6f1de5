"""A deterministic SVG 1.1 Gantt view of a schedule.

One row per machine. Setup intervals are blue, operation bars take a color
from the operation's job, unavailability windows are translucent red and
drawn last so a bar crossing a window visibly suspends. The x axis maps
time linearly; all coordinates are formatted to two decimals so equal
inputs yield byte-equal output.
"""

from __future__ import annotations

import itertools

from .model import MAX_TIME, Instance, Schedule, brief, makespan, refuse_unknown_ids

_LEFT, _TOP, _WIDTH = 70.0, 34.0, 960.0
_ROW, _GAP = 26.0, 10.0


def _job_fill(job: int) -> str:
    return f"hsl({(job * 137) % 360},62%,58%)"


def render_svg(inst: Instance, sched: Schedule) -> str:
    refuse_unknown_ids(inst, sched)
    for i, so in sched.ops.items():
        drawn = (("setup_start", so.setup_start),) if so.setup_len > 0 else ()
        for label, t in (*drawn, ("start", so.start), ("completion", so.completion)):
            if not -MAX_TIME <= t <= MAX_TIME:
                raise ValueError(f"gantt: operation {i} {label} {brief(t)} is outside ±{MAX_TIME}")
    machines = sorted(mc.id for mc in inst.machines)
    horizon = max([makespan(sched), 1] + [mc.last_window_end() for mc in inst.machines])
    scale = _WIDTH / horizon

    def x(t: float) -> str:
        return f"{_LEFT + t * scale:.2f}"

    def w(dt: float) -> str:
        return f"{max(dt * scale, 0.5):.2f}"

    height = _TOP + len(machines) * (_ROW + _GAP) + 24
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_LEFT + _WIDTH + 20:.0f}" height="{height:.0f}" '
        f'font-family="sans-serif" font-size="11">',
        f'<rect x="0" y="0" width="{_LEFT + _WIDTH + 20:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{_LEFT:.0f}" y="16" fill="#333">makespan {makespan(sched)}</text>',
    ]

    # the first of 1, 2, 5, 10, 20, 50, ... that covers the horizon in 12 steps: at most 13 ticks
    step = next(m * 10**n for n in itertools.count() for m in (1, 2, 5) if horizon <= 12 * m * 10**n)
    t = 0
    while t <= horizon:
        parts.append(f'<line x1="{x(t)}" y1="{_TOP:.2f}" x2="{x(t)}" '
                     f'y2="{height - 22:.2f}" stroke="#ddd" stroke-width="1"/>')
        parts.append(f'<text x="{x(t)}" y="{height - 8:.2f}" fill="#666" '
                     f'text-anchor="middle">{t}</text>')
        t += step

    rows = {k: _TOP + pos * (_ROW + _GAP) for pos, k in enumerate(machines)}
    for k in machines:
        y = rows[k]
        parts.append(f'<text x="8" y="{y + _ROW - 8:.2f}" fill="#333">M{k}</text>')

    for i in sorted(sched.ops):
        so = sched.ops[i]
        y = rows[so.machine]
        if so.setup_len > 0:
            parts.append(f'<rect x="{x(so.setup_start)}" y="{y + 5:.2f}" '
                         f'width="{w(so.start - so.setup_start)}" height="{_ROW - 10:.2f}" '
                         f'fill="#3366cc"/>')
        job = inst.ops_by_id[i].job
        parts.append(f'<rect x="{x(so.start)}" y="{y:.2f}" '
                     f'width="{w(so.completion - so.start)}" height="{_ROW:.2f}" '
                     f'fill="{_job_fill(job)}" stroke="#333" stroke-width="0.5"/>')
        if (so.completion - so.start) * scale >= 14:
            mid = _LEFT + (so.start + so.completion) / 2 * scale
            parts.append(f'<text x="{mid:.2f}" y="{y + _ROW - 8:.2f}" '
                         f'text-anchor="middle" fill="#222">{i}</text>')

    for k in machines:
        y = rows[k]
        for b, e in inst.machines_by_id[k].windows:
            parts.append(f'<rect x="{x(b)}" y="{y - 2:.2f}" width="{w(e - b)}" '
                         f'height="{_ROW + 4:.2f}" fill="#cc3333" fill-opacity="0.45"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
