"""Seeded workload generator.

Each workload is a list of scenes; a scene is one `ltvmpc` CLI command on one
generated YAML config. The default seed gives the shipped configs byte for
byte (tracking.yaml with `N: 50` for track_n50). Any other seed perturbs the
start pose of the tracking scene and the obstacle placements of the avoidance
scenes, within ranges that keep every scene's documented outcome; the
terminal-set scene has neither, so every seed gives its shipped config. The
program only ever sees the generated YAML; `Scenario.seed` is not used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# Physical robot radius of the primary robot; the velocity scenes pad their
# configured robot_radius above it, the clearance gate uses the real one.
ROBOT_RADIUS = 0.2


@dataclass(frozen=True)
class Scene:
    """One CLI command of a workload and the outcome it must show."""

    stem: str  # config file stem; the config's `name` prefixes its outputs
    command: str  # run | terminal-set
    text: str
    collision_free: bool = False  # centre distance >= sum of physical radii
    expects_slack: bool = False  # documented failure mode: slack must be used


_TRACKING = """\
# Nominal tracking: sinusoidal reference, robot starts 1 m off the path.
name: tracking
trajectory:
  kind: sinusoid
  T: 0.05
  x_speed: 0.5
  amplitude: 1.0
  angular_freq: 0.5
duration: 600
initial_state: [{x}, {y}, {theta}]
Q_diag: [1.0, 1.0, 0.5]
R_diag: [0.1, 0.05]
mpc:
  N: 50
  beta: 2.0
  u_max: [2.0, 10.0]
"""

_TERMINAL_SET = """\
# Standalone terminal-level sizing along the nominal sinusoid: largest c per
# step whose outer vertex box satisfies the state box and, through the LQR
# gain, the input box.
name: terminal_levels
trajectory:
  kind: sinusoid
duration: 600
mpc:
  N: 10
  u_max: [2.0, 10.0]
terminal_set:
  e_max: [1.0, 1.0, 3.141592653589793]
  c0: 10.0
  shrink: 1.01
"""

_FACE_TO_FACE = """\
# Two robots on the same line, opposite headings. Only the primary robot
# carries avoidance constraints; the other tracks its reference open-loop.
name: face_to_face
trajectory:
  kind: line
  heading: 0.0
  speed: 0.5
duration: 300
R_diag: [1.0, 0.05]
mpc:
  N: 10
  avoidance: velocity_space
  d_activate: 3.0
  robot_radius: 0.22
obstacles:
  - kind: unicycle
    radius: 0.2
    control: open_loop
    trajectory:
      kind: line
      start: [{x}, {y}]
      heading: 3.141592653589793
      speed: 0.5
"""

_INTERSECTION = """\
# Crossing paths: the second robot drives up the y-axis through the
# primary robot's straight reference. Primary yields, passes, re-converges.
name: intersection
trajectory:
  kind: line
  heading: 0.0
  speed: 0.5
duration: 300
R_diag: [1.0, 0.05]
mpc:
  N: 10
  avoidance: velocity_space
  d_activate: 3.0
  robot_radius: 0.22
obstacles:
  - kind: unicycle
    radius: 0.2
    control: open_loop
    trajectory:
      kind: line
      start: [{x}, {y}]
      heading: 1.5707963267948966
      speed: 0.5
"""

_STATIC_HYPERPLANE = """\
# Static disc avoided with the rotated-hyperplane rows. The rotated plane
# cuts through the current position whenever the robot is inside r_safe of
# the plane, so the inflated r_safe buys the turn enough room; residual
# violations are absorbed by the reported slack.
name: static_hyperplane
trajectory:
  kind: line
  heading: 0.0
  speed: 0.5
duration: 300
R_diag: [1.0, 0.05]
mpc:
  N: 10
  avoidance: state_space
  theta_s_deg: 45.0
  r_safe: 1.1
  d_activate: 3.0
obstacles:
  - kind: static
    radius: 0.3
    position: [{x}, {y}]
"""

_STATIC_HYPERPLANE_90 = """\
# The 90-degree safety angle turns the plane parallel to the line of sight,
# which a forward-only vehicle cannot satisfy one step ahead: the hard QP
# goes infeasible and the shared-slack fallback takes over. Shipped as the
# documented failure mode — slack usage is reported, clearance is not
# guaranteed.
name: static_hyperplane_90
trajectory:
  kind: line
  heading: 0.0
  speed: 0.5
duration: 300
R_diag: [1.0, 0.05]
mpc:
  N: 10
  avoidance: state_space
  theta_s_deg: 90.0
  r_safe: 0.5
  d_activate: 3.0
obstacles:
  - kind: static
    radius: 0.3
    position: [{x}, {y}]
"""

_STATIC_VELOCITY = """\
# Static disc on a straight reference, velocity-cone avoidance. The input
# weights make steering much cheaper than speed changes so the bypass is a
# swerve, not a stall; robot_radius is padded slightly above the physical
# 0.2 m so the tangent-riding optimum keeps real clearance.
name: static_velocity
trajectory:
  kind: line
  heading: 0.0
  speed: 0.5
duration: 300
R_diag: [1.0, 0.05]
mpc:
  N: 10
  avoidance: velocity_space
  r_safe: 0.5
  d_activate: 3.0
  robot_radius: 0.22
obstacles:
  - kind: static
    radius: 0.3
    position: [{x}, {y}]
"""

# Seeded obstacle shifts move an obstacle's start along its encounter by j
# sampling periods of travel, j in 0..max_shift: the robot then meets it j
# steps later in the same relative geometry, so each scene keeps its
# documented outcome while the inputs change. Continuous or lateral offsets
# do not keep it: shifts of a few centimetres cost the velocity-space scenes
# up to 4 cm of surface clearance. face_to_face is head-on, the side it
# swerves to hangs on rounding, and every shift tried lost clearance, so it
# keeps its shipped placement.
_AVOID_SCENES = (
    # stem, template, shipped (x, y), shift per step (dx, dy), max_shift,
    # collision_free, expects_slack
    ("avoid_static_velocity", _STATIC_VELOCITY, (3.0, 0.0), (0.025, 0.0), 8, True, False),
    ("avoid_static_hyperplane", _STATIC_HYPERPLANE, (3.0, 0.0), (0.025, 0.0), 8,
     True, False),
    ("avoid_static_hyperplane_90", _STATIC_HYPERPLANE_90, (3.0, 0.0), (0.025, 0.0), 8,
     False, True),
    ("avoid_face_to_face", _FACE_TO_FACE, (4.0, 0.0), (0.05, 0.0), 0, True, False),
    ("avoid_intersection", _INTERSECTION, (2.0, -2.0), (0.025, -0.025), 8, True, False),
)
# Shipped start pose of the tracking scene and the half-width of its
# uniform perturbation per component; every start in range converges.
_TRACKING_START = ((0.0, 0.1), (1.0, 0.1), (0.0, 0.1))

WORKLOADS = ("track_n50", "avoid_scenes", "terminal_levels")


def _start_pose(rng: random.Random | None) -> list:
    """Shipped start for the default seed, a uniform perturbation otherwise.

    Values are rounded so the YAML stays short; shipped values keep their
    repr, which is how the configs spell them.
    """
    if rng is None:
        return [repr(v) for v, _ in _TRACKING_START]
    return [repr(round(v + rng.uniform(-d, d), 3)) for v, d in _TRACKING_START]


def generate(workload: str, seed: int) -> list:
    """The scenes of a workload for a seed; the same seed gives the same text."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload '{workload}' (known: {', '.join(WORKLOADS)})")
    rng = None if seed == DEFAULT_SEED else random.Random(f"{workload}:{seed}")
    if workload == "track_n50":
        x, y, theta = _start_pose(rng)
        return [Scene("tracking", "run", _TRACKING.format(x=x, y=y, theta=theta))]
    if workload == "terminal_levels":
        return [Scene("terminal_set", "terminal-set", _TERMINAL_SET)]
    scenes = []
    for stem, template, (x, y), (dx, dy), max_shift, free, slack in _AVOID_SCENES:
        j = 0 if rng is None else rng.randint(0, max_shift)
        text = template.format(x=repr(round(x + j * dx, 6)), y=repr(round(y + j * dy, 6)))
        scenes.append(Scene(stem, "run", text, free, slack))
    return scenes
