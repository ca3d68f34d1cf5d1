"""Partial-visibility scenes for the sparse workload, built from the public scene types.

``balm.generate_synthetic`` makes every camera see every point. Real BAL
problems do not: each point is seen by a few cameras (2-5 in Agarwal et al.
2010, *Bundle Adjustment in the Large*). These scenes follow the suite's
geometry and noise (cameras on a 10-15 shell aimed at the origin, points in
a 10-wide cube, focal 500, pixel sigma 250, pixel noise 0.5, initial
perturbation 0.1 on points and translations and 0.05 on rotations) but give
each point 2-5 distinct cameras drawn uniformly. Pixels come from the
benchmark's own reference projection.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.transform import Rotation

from reference import project

SHELL_RADIUS = (10.0, 15.0)
POINT_HALF_EXTENT = 5.0
FOCAL = 500.0
ROLL_RANGE = 0.2
PIXEL_SIGMA = 250.0
NOISE_STD = 0.5
INIT_NOISE = 0.1
ROTATION_NOISE = 0.05
VIEWS = (2, 5)


def _look_at(center: np.ndarray, roll: float) -> np.ndarray:
    """World-to-camera rotation of a camera at ``center`` looking along -z at the origin."""
    z_axis = center / np.linalg.norm(center)
    up = np.array([0.0, 1.0, 0.0]) if abs(z_axis[2]) > 0.99 else np.array([0.0, 0.0, 1.0])
    x_axis = np.cross(up, z_axis)
    x_axis /= np.linalg.norm(x_axis)
    y_axis = np.cross(z_axis, x_axis)
    c, s = np.cos(roll), np.sin(roll)
    return np.vstack([c * x_axis + s * y_axis, -s * x_axis + c * y_axis, z_axis])


def sparse_scene(num_cameras: int, num_points: int, seed: int):
    """A ``balm.BAProblem`` with ``ground_truth`` attached; every camera sees some point."""
    from balm import BAProblem, CameraPose, Observation, Point3

    rng = np.random.default_rng(seed)
    truth = np.zeros((num_cameras, 9))
    truth[:, 6] = FOCAL
    for ci in range(num_cameras):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        center = rng.uniform(*SHELL_RADIUS) * direction
        rot = _look_at(center, rng.uniform(-ROLL_RANGE, ROLL_RANGE))
        truth[ci, 0:3] = Rotation.from_matrix(rot).as_rotvec()
        truth[ci, 3:6] = -rot @ center
    points = rng.uniform(-POINT_HALF_EXTENT, POINT_HALF_EXTENT, size=(num_points, 3))

    views = [
        np.sort(rng.choice(num_cameras, rng.integers(VIEWS[0], VIEWS[1] + 1), replace=False))
        for _ in range(num_points)
    ]
    unseen = set(range(num_cameras)).difference(*[set(v.tolist()) for v in views])
    for ci in sorted(unseen):  # hand an unseen camera to the first point with room
        pj = next(j for j, v in enumerate(views) if len(v) < VIEWS[1] and ci not in v)
        views[pj] = np.sort(np.append(views[pj], ci))
    cam_idx = np.concatenate(views)
    pt_idx = np.repeat(np.arange(num_points), [len(v) for v in views])
    pixels = project(truth, points, cam_idx, pt_idx)
    pixels += rng.normal(0.0, NOISE_STD, size=pixels.shape)

    initial = truth.copy()
    initial[:, 0:3] += rng.normal(0.0, ROTATION_NOISE, size=(num_cameras, 3))
    initial[:, 3:6] += rng.normal(0.0, INIT_NOISE, size=(num_cameras, 3))
    initial_points = points + rng.normal(0.0, INIT_NOISE, size=points.shape)

    observations = [
        Observation(int(c), int(p), pix) for c, p, pix in zip(cam_idx, pt_idx, pixels)
    ]

    def problem(cams, pts, ground_truth=None):
        return BAProblem(
            cameras=[CameraPose.from_array(c) for c in cams],
            points=[Point3(p.copy()) for p in pts],
            observations=observations,
            pixel_sigma=PIXEL_SIGMA,
            ground_truth=ground_truth,
        )

    return problem(initial, initial_points, ground_truth=problem(truth, points))
