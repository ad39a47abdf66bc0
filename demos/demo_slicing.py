#!/usr/bin/env python3
"""Show the grid packer at work: ASCII layouts and the capacity band.

URLLC channels are 10-RB single-slot strips; mMTC channels are numerology
boxes that get wider and shorter (1x15, 2x8, 4x4, 8x2) as the packer runs out
of long free runs. The sweep at the end shows how the total channel count
moves between 31 and 41 as the URLLC share of a fixed demand grows.
"""

from rasim.slicing import (
    GridConfig,
    fixed_grid_slice,
    maxrect_slice,
    render_plan_grid,
    validate_constraints,
)

grid = GridConfig()  # 50 RB x 10 slots

print("Baseline without slicing: identical 16x1 channels")
fixed = fixed_grid_slice(grid)
print(f"  {fixed.l_total} channels ({fixed.l_u} URLLC / {fixed.l_m} mMTC)\n")

for ku, km in ((5, 49), (20, 21), (40, 1)):
    plan = maxrect_slice(grid, ku, km)
    bad = validate_constraints(plan, grid)
    print(f"maxrect demand ({ku} URLLC, {km} mMTC) -> "
          f"{plan.l_u}+{plan.l_m} = {plan.l_total} channels, {len(bad)} violations")
    print(render_plan_grid(plan))
    print()

print("Total channels as the URLLC share of a 41-channel demand varies:")
row = [maxrect_slice(grid, ku, 41 - ku).l_total for ku in range(1, 41)]
print("  " + " ".join(f"{t}" for t in row))
print(f"  min {min(row)}, max {max(row)}")
