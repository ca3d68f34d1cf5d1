"""Bundle-adjustment problem container, camera model, and scene sources.

The camera model follows the BAL dataset convention: a point ``X`` in world
coordinates maps to camera coordinates ``P = R(rot) @ X + t`` where ``rot``
is an axis-angle vector, then projects through ``p = -P_xy / P_z`` and a
two-coefficient radial distortion scaled by the focal length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEPTH_EPS = 1e-12

# Sampling ranges for synthetic scenes: points in a cube, cameras on a
# spherical shell looking at the origin.
POINT_HALF_EXTENT = 5.0
SHELL_RADIUS = (10.0, 15.0)
DEFAULT_FOCAL = 500.0
ROLL_RANGE = 0.2
DEFAULT_ROTATION_NOISE = 0.05
MIN_GENERATED_DEPTH = 0.5


class DegenerateDepthError(ValueError):
    """Raised when a projection's camera-frame depth is numerically zero."""


class SceneGenerationError(RuntimeError):
    """Raised when synthetic sampling cannot satisfy the depth precondition."""


class BalParseError(ValueError):
    """Malformed BAL-format text. Carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class CameraPose:
    """Nine-parameter camera: axis-angle rotation, translation, focal, k1, k2."""

    rotation: np.ndarray
    translation: np.ndarray
    focal: float
    k1: float
    k2: float

    def as_array(self) -> np.ndarray:
        return np.concatenate(
            [self.rotation, self.translation, [self.focal, self.k1, self.k2]]
        ).astype(float)

    @staticmethod
    def from_array(values: np.ndarray) -> "CameraPose":
        values = np.asarray(values, dtype=float)
        if values.shape != (9,):
            raise ValueError(f"camera block must have 9 values, got {values.shape}")
        return CameraPose(
            rotation=values[0:3].copy(),
            translation=values[3:6].copy(),
            focal=float(values[6]),
            k1=float(values[7]),
            k2=float(values[8]),
        )


@dataclass
class Point3:
    position: np.ndarray

    def as_array(self) -> np.ndarray:
        return np.asarray(self.position, dtype=float)


@dataclass
class Observation:
    camera_index: int
    point_index: int
    pixel: np.ndarray


@dataclass
class BAProblem:
    """A bundle-adjustment instance: estimates, observations, and noise scale.

    ``ground_truth`` optionally carries the generating scene for synthetic
    problems; it plays no role in solving.
    """

    cameras: list[CameraPose]
    points: list[Point3]
    observations: list[Observation]
    pixel_sigma: float = 1.0
    ground_truth: "BAProblem | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if len(self.cameras) < 2:
            raise ValueError("problem needs at least 2 cameras")
        if len(self.points) < 1:
            raise ValueError("problem needs at least 1 point")
        if self.pixel_sigma <= 0:
            raise ValueError("pixel_sigma must be positive")
        cam_idx = np.array([o.camera_index for o in self.observations], dtype=int)
        pt_idx = np.array([o.point_index for o in self.observations], dtype=int)
        bad_camera = (cam_idx < 0) | (cam_idx >= self.num_cameras)
        bad_point = (pt_idx < 0) | (pt_idx >= self.num_points)
        # A pair is a duplicate unless it is its key's first occurrence; keys
        # of out-of-range indices may collide, but those are faults already.
        _, first = np.unique(cam_idx * self.num_points + pt_idx, return_index=True)
        duplicate = np.ones(len(cam_idx), dtype=bool)
        duplicate[first] = False
        faults = np.flatnonzero(bad_camera | bad_point | duplicate)
        if faults.size:
            i = int(faults[0])
            obs = self.observations[i]
            if bad_camera[i]:
                raise ValueError(f"observation {i}: camera index {obs.camera_index} out of range")
            if bad_point[i]:
                raise ValueError(f"observation {i}: point index {obs.point_index} out of range")
            pair = (obs.camera_index, obs.point_index)
            raise ValueError(f"observation {i}: duplicate camera/point pair {pair}")
        if np.unique(cam_idx).size != self.num_cameras:
            raise ValueError("every camera must appear in at least one observation")
        if np.unique(pt_idx).size != self.num_points:
            raise ValueError("every point must appear in at least one observation")

    @property
    def num_cameras(self) -> int:
        return len(self.cameras)

    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def num_observations(self) -> int:
        return len(self.observations)

    def camera_array(self) -> np.ndarray:
        return np.array([c.as_array() for c in self.cameras], dtype=float)

    def point_array(self) -> np.ndarray:
        return np.array([p.as_array() for p in self.points], dtype=float)

    def observation_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cam_idx = np.array([o.camera_index for o in self.observations], dtype=int)
        pt_idx = np.array([o.point_index for o in self.observations], dtype=int)
        pixels = np.array([o.pixel for o in self.observations], dtype=float)
        return cam_idx, pt_idx, pixels


def _rotation_coefficients(theta2: np.ndarray):
    """Rodrigues coefficients cos(t), sin(t)/t, (1-cos(t))/t^2, series-safe at 0."""
    theta = np.sqrt(theta2)
    small = theta2 < 1e-12
    safe = np.where(small, 1.0, theta)
    cos_t = np.where(small, 1.0 - theta2 / 2.0, np.cos(theta))
    sinc = np.where(small, 1.0 - theta2 / 6.0, np.sin(safe) / safe)
    one_minus_cos = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(safe)) / (safe * safe))
    return cos_t, sinc, one_minus_cos


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` over the last axis, to the bit, without its axis bookkeeping.

    Each component is the same two products and one difference.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=-1)


def rotate_points(rotvecs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply axis-angle rotations row-wise: result[i] = R(rotvecs[i]) @ points[i]."""
    rotvecs = np.asarray(rotvecs, dtype=float)
    points = np.asarray(points, dtype=float)
    theta2 = np.sum(rotvecs * rotvecs, axis=-1, keepdims=True)
    cos_t, sinc, omc = _rotation_coefficients(theta2)
    cross = _cross(rotvecs, points)
    dot = np.sum(rotvecs * points, axis=-1, keepdims=True)
    return cos_t * points + sinc * cross + omc * dot * rotvecs


def rotation_matrix(rotvec: np.ndarray) -> np.ndarray:
    """Dense 3x3 rotation matrix for one axis-angle vector."""
    return rotate_points(np.broadcast_to(rotvec, (3, 3)), np.eye(3).T).T


def project(camera: CameraPose, point: Point3 | np.ndarray) -> np.ndarray:
    """Project one world point through one camera; returns a 2-vector pixel."""
    position = point.as_array() if isinstance(point, Point3) else np.asarray(point, dtype=float)
    cam_frame = rotate_points(camera.rotation, position) + camera.translation
    depth = cam_frame[2]
    if abs(depth) <= DEPTH_EPS:
        raise DegenerateDepthError(f"camera-frame depth {depth!r} is numerically zero")
    plane = -cam_frame[:2] / depth
    r2 = float(plane @ plane)
    distortion = 1.0 + camera.k1 * r2 + camera.k2 * r2 * r2
    return camera.focal * distortion * plane


def project_many(
    camera_blocks: np.ndarray,
    point_blocks: np.ndarray,
    cam_idx: np.ndarray,
    pt_idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection over observation index arrays.

    Returns (pixels, depths) so callers can detect degenerate depths without
    paying for a second pass.
    """
    cams = camera_blocks[cam_idx]
    pts = point_blocks[pt_idx]
    cam_frame = rotate_points(cams[:, 0:3], pts) + cams[:, 3:6]
    depth = cam_frame[:, 2]
    safe_depth = np.where(np.abs(depth) <= DEPTH_EPS, 1.0, depth)
    plane = -cam_frame[:, :2] / safe_depth[:, None]
    r2 = np.sum(plane * plane, axis=1)
    distortion = 1.0 + cams[:, 7] * r2 + cams[:, 8] * r2 * r2
    pixels = cams[:, 6, None] * distortion[:, None] * plane
    return pixels, depth


def _look_at_rotation(center: np.ndarray, roll: float) -> np.ndarray:
    """World-to-camera rotation for a camera at ``center`` aimed at the origin.

    The camera looks along its -z axis (BAL convention), with an in-plane
    roll applied about the optical axis.
    """
    z_axis = center / np.linalg.norm(center)
    up = np.array([0.0, 0.0, 1.0])
    if abs(z_axis @ up) > 0.99:
        up = np.array([0.0, 1.0, 0.0])
    x_axis = _cross(up, z_axis)
    x_axis /= np.linalg.norm(x_axis)
    y_axis = _cross(z_axis, x_axis)
    c, s = np.cos(roll), np.sin(roll)
    x_rolled = c * x_axis + s * y_axis
    y_rolled = -s * x_axis + c * y_axis
    return np.vstack([x_rolled, y_rolled, z_axis])


def generate_synthetic(
    num_cameras: int,
    num_points: int,
    pixel_sigma: float = 1.0,
    init_noise: float = 0.1,
    seed: int = 0,
    rotation_noise: float = DEFAULT_ROTATION_NOISE,
    focal: float = DEFAULT_FOCAL,
    noise_std: float | None = None,
    max_retries: int = 50,
) -> BAProblem:
    """Sample a fully-visible synthetic scene with noisy initial estimates.

    Ground-truth points fill a cube, cameras sit on a spherical shell looking
    at the origin with a small random roll, and every camera observes every
    point. Observations are ground-truth projections plus Gaussian pixel
    noise (``noise_std``, defaulting to ``pixel_sigma``). Initial estimates
    perturb points and translations by ``init_noise`` and rotations by
    ``rotation_noise``; points whose depth precondition fails are resampled
    up to ``max_retries`` times.
    """
    if num_cameras < 2 or num_points < 1:
        raise ValueError("need at least 2 cameras and 1 point")
    from scipy.spatial.transform import Rotation

    if noise_std is None:
        noise_std = pixel_sigma
    rng = np.random.default_rng(seed)

    rotation_matrices = []
    translations = []
    for _ in range(num_cameras):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        radius = rng.uniform(*SHELL_RADIUS)
        center = radius * direction
        roll = rng.uniform(-ROLL_RANGE, ROLL_RANGE)
        rot_mat = _look_at_rotation(center, roll)
        rotation_matrices.append(rot_mat)
        translations.append(-rot_mat @ center)
    rotvecs = Rotation.from_matrix(np.array(rotation_matrices)).as_rotvec()
    gt_cameras = [
        CameraPose(rotation=rotvec, translation=translation, focal=focal, k1=0.0, k2=0.0)
        for rotvec, translation in zip(rotvecs, translations)
    ]
    depth_offsets = np.array(translations)[:, 2]

    gt_points = []
    for _ in range(num_points):
        for attempt in range(max_retries + 1):
            candidate = rng.uniform(-POINT_HALF_EXTENT, POINT_HALF_EXTENT, size=3)
            depths = rotate_points(rotvecs, candidate)[:, 2] + depth_offsets
            if np.all(np.abs(depths) > MIN_GENERATED_DEPTH):
                gt_points.append(Point3(candidate))
                break
        else:
            raise SceneGenerationError(
                f"could not sample a point satisfying the depth precondition "
                f"after {max_retries} retries"
            )

    # Observations are camera-major, the order of the pixel-noise draws.
    # With k1 = k2 = 0 the distortion is exactly 1, so these pixels equal
    # ``project`` per observation to the bit.
    cam_idx = np.repeat(np.arange(num_cameras), num_points)
    pt_idx = np.tile(np.arange(num_points), num_cameras)
    camera_blocks = np.array([c.as_array() for c in gt_cameras])
    point_blocks = np.array([p.position for p in gt_points])
    clean, _ = project_many(camera_blocks, point_blocks, cam_idx, pt_idx)
    pixels = clean + rng.normal(0.0, noise_std, size=clean.shape)
    observations = [
        Observation(ci, pi, pixel)
        for ci, pi, pixel in zip(cam_idx.tolist(), pt_idx.tolist(), pixels)
    ]

    init_cameras = []
    for cam in gt_cameras:
        init_cameras.append(
            CameraPose(
                rotation=cam.rotation + rng.normal(0.0, rotation_noise, size=3),
                translation=cam.translation + rng.normal(0.0, init_noise, size=3),
                focal=cam.focal,
                k1=cam.k1,
                k2=cam.k2,
            )
        )
    point_noise = rng.normal(0.0, init_noise, size=point_blocks.shape)
    init_points = [Point3(position) for position in point_blocks + point_noise]

    ground_truth = BAProblem(
        cameras=gt_cameras,
        points=gt_points,
        observations=observations,
        pixel_sigma=pixel_sigma,
    )
    return BAProblem(
        cameras=init_cameras,
        points=init_points,
        observations=observations,
        pixel_sigma=pixel_sigma,
        ground_truth=ground_truth,
    )


def _format_value(value: float) -> str:
    return format(float(value), ".17g")


def serialize_bal(problem: BAProblem) -> str:
    """Render a problem in BAL text format (parameters one value per line)."""
    lines = [f"{problem.num_cameras} {problem.num_points} {problem.num_observations}"]
    for obs in problem.observations:
        lines.append(
            f"{obs.camera_index} {obs.point_index} "
            f"{_format_value(obs.pixel[0])} {_format_value(obs.pixel[1])}"
        )
    for cam in problem.cameras:
        lines.extend(_format_value(v) for v in cam.as_array())
    for pt in problem.points:
        lines.extend(_format_value(v) for v in pt.as_array())
    return "\n".join(lines) + "\n"


class _TokenStream:
    """Whitespace-tolerant token reader that remembers line numbers."""

    def __init__(self, text: str):
        self.tokens: list[tuple[str, int]] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            for token in line.split():
                self.tokens.append((token, lineno))
        self.pos = 0
        self.last_line = self.tokens[-1][1] if self.tokens else 1

    def next(self, what: str) -> tuple[str, int]:
        if self.pos >= len(self.tokens):
            raise BalParseError(f"file ended while reading {what}", self.last_line)
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def next_int(self, what: str) -> tuple[int, int]:
        token, line = self.next(what)
        try:
            return int(token), line
        except ValueError:
            raise BalParseError(f"expected integer for {what}, got {token!r}", line) from None

    def next_float(self, what: str) -> tuple[float, int]:
        token, line = self.next(what)
        try:
            return float(token), line
        except ValueError:
            raise BalParseError(f"expected number for {what}, got {token!r}", line) from None

    def expect_end(self) -> None:
        if self.pos < len(self.tokens):
            token, line = self.tokens[self.pos]
            raise BalParseError(f"unexpected trailing token {token!r}", line)


def parse_bal(text: str, pixel_sigma: float = 1.0) -> BAProblem:
    """Parse BAL-format text into a problem (no ground truth attached)."""
    stream = _TokenStream(text)
    if not stream.tokens:
        raise BalParseError("empty input, expected header", 1)
    header_line = stream.tokens[0][1]
    counts = []
    for name in ("camera count", "point count", "observation count"):
        try:
            value, _ = stream.next_int(name)
        except BalParseError:
            raise BalParseError(f"malformed header: {name} is not an integer", header_line) from None
        if value < 0:
            raise BalParseError(f"malformed header: negative {name}", header_line)
        counts.append(value)
    num_cameras, num_points, num_observations = counts

    observations = []
    for i in range(num_observations):
        cam_idx, cam_line = stream.next_int(f"observation {i} camera index")
        pt_idx, pt_line = stream.next_int(f"observation {i} point index")
        x, _ = stream.next_float(f"observation {i} pixel x")
        y, _ = stream.next_float(f"observation {i} pixel y")
        if not 0 <= cam_idx < num_cameras:
            raise BalParseError(
                f"camera index {cam_idx} out of range [0, {num_cameras})", cam_line
            )
        if not 0 <= pt_idx < num_points:
            raise BalParseError(f"point index {pt_idx} out of range [0, {num_points})", pt_line)
        observations.append(Observation(cam_idx, pt_idx, np.array([x, y])))

    cameras = []
    for i in range(num_cameras):
        block = [stream.next_float(f"camera {i} parameter {j}")[0] for j in range(9)]
        cameras.append(CameraPose.from_array(np.array(block)))
    points = []
    for i in range(num_points):
        block = [stream.next_float(f"point {i} coordinate {j}")[0] for j in range(3)]
        points.append(Point3(np.array(block)))
    stream.expect_end()
    return BAProblem(
        cameras=cameras,
        points=points,
        observations=observations,
        pixel_sigma=pixel_sigma,
    )
