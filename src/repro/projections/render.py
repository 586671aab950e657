"""ASCII rendering of time profiles (the Fig. 12 stand-in).

Each output column is one (or more) time bins; the vertical axis is CPU
utilization stacked the way Projections draws it: useful ('#', the paper's
yellow), overhead ('!', black), idle (' ', white).
"""

from __future__ import annotations

import numpy as np

from repro.projections.profile import TimeProfile
from repro.units import fmt_time


def render_profile(profile: TimeProfile, width: int = 78, height: int = 12,
                   title: str = "") -> str:
    n = profile.n_bins
    if n == 0:
        return f"{title}\n(empty profile)"
    # resample to `width` columns
    cols = min(width, n)
    idx = np.linspace(0, n, cols + 1).astype(int)
    useful = np.array([profile.useful[a:b].mean() if b > a else 0.0
                       for a, b in zip(idx, idx[1:])])
    over = np.array([profile.overhead[a:b].mean() if b > a else 0.0
                     for a, b in zip(idx, idx[1:])])
    lines = []
    if title:
        lines.append(title)
    for row in range(height, 0, -1):
        threshold = (row - 0.5) / height
        chars = []
        for u, o in zip(useful, over):
            if u >= threshold:
                chars.append("#")
            elif u + o >= threshold:
                chars.append("!")
            else:
                chars.append(" ")
        lines.append("|" + "".join(chars) + "|")
    lines.append("+" + "-" * cols + "+")
    total = n * profile.bin_width
    s = profile.summary()
    lines.append(
        f" 0 {'':>{max(0, cols - 18)}} {fmt_time(total)}   "
    )
    lines.append(
        f" legend: '#'=useful  '!'=overhead  ' '=idle   "
        f"(run: useful={s['useful']:.0%} overhead={s['overhead']:.0%} "
        f"idle={s['idle']:.0%})"
    )
    return "\n".join(lines)

