#!/usr/bin/env python3
"""Largest covered objective: the closed-form answer against a bisection
cross-check built from the decision procedure."""

import numpy as np

from pupilcover import Point, Pupil, PupilConfig, build_acs, decide, max_objective

cfg = PupilConfig(
    [
        Pupil(Point(0.0, 0.0), 0.35),
        Pupil(Point(0.55, 0.1), 0.2),
        Pupil(Point(-0.2, 0.5), 0.15),
    ],
    objective_radius=1.0,
)

r_star = max_objective(cfg)
print(f"max objective radius: {r_star:.6f}")
print(f"decide at R* * (1 - 1e-4): {decide(PupilConfig(cfg.pupils, r_star * (1 - 1e-4)))[0]}")
print(f"decide at R* + 1e-4:       {decide(PupilConfig(cfg.pupils, r_star + 1e-4))[0]}")

acs = build_acs(cfg)
lo = 2.0 * max(cfg.radii)
hi = float(np.max(np.hypot(acs.centers[:, 0], acs.centers[:, 1]) + acs.radii)) + 0.05
for _ in range(30):
    mid = 0.5 * (lo + hi)
    if decide(PupilConfig(cfg.pupils, mid))[0]:
        lo = mid
    else:
        hi = mid
print(f"bisection cross-check:     {0.5 * (lo + hi):.6f}")

solo = PupilConfig([Pupil(Point(2.0, -1.0), 0.4)], 1.0)
print(f"single pupil of radius 0.4 -> R* = {max_objective(solo)} (exactly twice the radius)")
