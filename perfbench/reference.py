"""Independent BAL projection and whitened error, written without ``balm.scene``.

The benchmark's checks compare every solve's final error with the error of
the scene's generating ground truth, computed here. The rotation uses the
normalized Rodrigues formula ``R = I + sin(t) K + (1 - cos(t)) K^2`` with
``K`` the skew matrix of the unit axis, a different route from the
unnormalized row-wise form the package uses, so a fault in one does not
hide in the other.
"""

from __future__ import annotations

import numpy as np

SMALL_ANGLE = 1e-12


def skew(v: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def rodrigues(rotvec: np.ndarray) -> np.ndarray:
    """3x3 rotation matrix of one axis-angle vector (angle = its norm)."""
    rotvec = np.asarray(rotvec, dtype=float)
    theta = float(np.linalg.norm(rotvec))
    if theta < SMALL_ANGLE:
        k = skew(rotvec)
        return np.eye(3) + k + 0.5 * k @ k
    k = skew(rotvec / theta)
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * k @ k


def project(cameras: np.ndarray, points: np.ndarray, cam_idx, pt_idx) -> np.ndarray:
    """Pixels of ``points[pt_idx]`` seen by ``cameras[cam_idx]``; cameras are (n, 9).

    A camera row is (rotvec, translation, focal, k1, k2); a point ``X`` maps
    to ``P = R X + t``, ``p = -P_xy / P_z`` and
    ``pixel = f (1 + k1 |p|^2 + k2 |p|^4) p``.
    """
    cameras = np.asarray(cameras, dtype=float)
    points = np.asarray(points, dtype=float)
    rotations = np.stack([rodrigues(c[0:3]) for c in cameras])
    cams = cameras[cam_idx]
    cam_frame = np.einsum("nij,nj->ni", rotations[cam_idx], points[pt_idx]) + cams[:, 3:6]
    plane = -cam_frame[:, :2] / cam_frame[:, 2:3]
    r2 = np.sum(plane * plane, axis=1)
    distortion = 1.0 + cams[:, 7] * r2 + cams[:, 8] * r2 * r2
    return (cams[:, 6] * distortion)[:, None] * plane


def whitened_error(cameras, points, cam_idx, pt_idx, pixels, pixel_sigma: float) -> float:
    """Sum over observations of |pixel - projection|^2 / sigma^2."""
    residual = np.asarray(pixels, dtype=float) - project(cameras, points, cam_idx, pt_idx)
    return float(np.sum(residual * residual) / (pixel_sigma * pixel_sigma))


def problem_arrays(problem):
    """(cameras, points, cam_idx, pt_idx, pixels) read from a problem's fields."""
    cameras = np.array(
        [np.concatenate([c.rotation, c.translation, [c.focal, c.k1, c.k2]]) for c in problem.cameras]
    )
    points = np.array([p.position for p in problem.points], dtype=float)
    cam_idx = np.array([o.camera_index for o in problem.observations])
    pt_idx = np.array([o.point_index for o in problem.observations])
    pixels = np.array([o.pixel for o in problem.observations], dtype=float)
    return cameras, points, cam_idx, pt_idx, pixels


def ground_truth_error(problem) -> float:
    """Whitened error of a synthetic problem's ground truth against its observations."""
    truth = problem.ground_truth
    if truth is None:
        raise ValueError("problem carries no ground truth")
    cameras, points, _, _, _ = problem_arrays(truth)
    _, _, cam_idx, pt_idx, pixels = problem_arrays(problem)
    return whitened_error(cameras, points, cam_idx, pt_idx, pixels, problem.pixel_sigma)
