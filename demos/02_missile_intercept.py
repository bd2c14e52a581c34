"""
Proportional-navigation intercepts
==================================

Launch the missile model against straight-flying targets on three
geometries: head-on, a 90-degree crossing shot, and the head-on case
rotated 180 degrees so the chase runs down the -x axis.  The guidance
law is direction-blind, so the westward hit time matches the eastward
one.
"""

from dogfight import AircraftState, MissileStatus, missile_step
from dogfight.missile import launch_missile

DT = 0.02


def chase(shooter, target_pos, target_vel):
    """Fly one missile against a linear target until it resolves."""
    m = launch_missile(shooter, "blue", "red")
    pos = target_pos
    while m.status is MissileStatus.IN_FLIGHT:
        m = missile_step(m, pos, target_vel, DT)
        pos = tuple(p + v * DT for p, v in zip(pos, target_vel))
    return m


shooter = AircraftState(0.0, 0.0, 5000.0, 300.0, 0.0, 0.0)
m = chase(shooter, (5000.0, 0.0, 5000.0), (-300.0, 0.0, 0.0))
print(f"head-on 5 km:   {m.status.name}  t={m.t:5.2f} s  speed {m.vm:5.1f} m/s")

m = chase(shooter, (4000.0, 0.0, 5000.0), (0.0, 300.0, 0.0))
print(f"crossing 4 km:  {m.status.name}  t={m.t:5.2f} s  speed {m.vm:5.1f} m/s")

import math
shooter_w = AircraftState(0.0, 0.0, 5000.0, 300.0, 0.0, math.pi)
m = chase(shooter_w, (-5000.0, 0.0, 5000.0), (300.0, 0.0, 0.0))
print(f"westward 5 km:  {m.status.name}  t={m.t:5.2f} s  speed {m.vm:5.1f} m/s")

# Out of the envelope the motor burns out, drag bleeds the speed below
# 200 m/s, and the round expires without a kill.
m = chase(shooter, (40000.0, 0.0, 5000.0), (300.0, 0.0, 0.0))
print(f"fleeing 40 km:  {m.status.name}  t={m.t:5.2f} s  speed {m.vm:5.1f} m/s")
