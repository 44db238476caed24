#!/usr/bin/env python3
"""Equal-radius designs from prime difference covers: the 4p-term sequence,
its verification, and the 16 p^2 pupil construction with its approximation
ratio against the area lower bound ceil((1 + sqrt(R^2 / rho^2 - 3)) / 2)."""

import math

from pupilcover import (
    coverage_oracle,
    difference_cover_sequence,
    prime_design,
    verify_difference_cover,
)

for p in (2, 3, 5):
    seq = difference_cover_sequence(p)
    print(f"p = {p}: x = {list(seq.values)}")
    print(f"       differences cover (-{p * p}, {p * p}): {verify_difference_cover(seq)}")

rho = 1.0 / math.sqrt(2.0)
for p in (2, 3):
    design = prime_design(float(p * p), rho)
    ok, _ = coverage_oracle(design.config, 512)
    print(
        f"\nR = {p * p}, pupil radius 1/sqrt(2): {design.count} pupils "
        f"(16 p^2 with p = {design.p}), covered = {ok}, "
        f"count / area bound = {design.approximation_ratio:.3f}"
    )

# A non-canonical radius: the prime rounds up, the ratio reports the slack.
design = prime_design(3.0, 0.4)
print(
    f"\nR = 3, rho = 0.4 -> p = {design.p}, {design.count} pupils, "
    f"ratio {design.approximation_ratio:.2f}"
)
