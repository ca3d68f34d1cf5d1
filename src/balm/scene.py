"""Bundle-adjustment problem container, camera model, and scene sources.

The camera model follows the BAL dataset convention: a point ``X`` in world
coordinates maps to camera coordinates ``P = R(rot) @ X + t`` where ``rot``
is an axis-angle vector, then projects through ``p = -P_xy / P_z`` and a
two-coefficient radial distortion scaled by the focal length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
GENERATION_RETRIES = 50  # resamplings of a point before generate_synthetic gives up


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


class BAProblem:
    """A bundle-adjustment instance: five arrays and the observation noise scale.

    ``camera_blocks`` (n, 9) holds each camera's rotation, translation, focal,
    k1 and k2, ``point_blocks`` (m, 3) the points, and observation k sees point
    ``pt_idx[k]`` from camera ``cam_idx[k]`` at ``pixels[k]`` (k, 2). The
    constructor converts ``CameraPose``/``Point3``/``Observation`` records
    once; ``from_arrays`` keeps the arrays it is given, converting only a
    differing dtype. Blocks and indices become read-only; ``pixels`` stays
    writable. ``ground_truth`` optionally carries the generating scene for
    synthetic problems; it plays no role in solving.
    """

    def __init__(self, cameras, points, observations, pixel_sigma=1.0, ground_truth=None):
        self._store(
            np.array([c.as_array() for c in cameras], dtype=float).reshape(len(cameras), 9),
            np.array([p.as_array() for p in points], dtype=float).reshape(len(points), 3),
            np.array([o.camera_index for o in observations], dtype=int),
            np.array([o.point_index for o in observations], dtype=int),
            np.array([o.pixel for o in observations], dtype=float).reshape(len(observations), 2),
            pixel_sigma, ground_truth,
        )

    @classmethod
    def from_arrays(
        cls, camera_blocks, point_blocks, cam_idx, pt_idx, pixels, pixel_sigma=1.0,
        ground_truth=None,
    ) -> "BAProblem":
        problem = cls.__new__(cls)
        problem._store(
            np.asarray(camera_blocks, dtype=float), np.asarray(point_blocks, dtype=float),
            _index_array(cam_idx, "cam_idx"), _index_array(pt_idx, "pt_idx"),
            np.asarray(pixels, dtype=float), pixel_sigma, ground_truth,
        )
        return problem

    def _store(self, cameras, points, cam_idx, pt_idx, pixels, pixel_sigma, ground_truth):
        """Validate, then keep, the arrays; the first fault raises ``ValueError``."""
        if cameras.ndim != 2 or cameras.shape[1] != 9:
            raise ValueError(f"camera_blocks must have shape (n, 9), got {cameras.shape}")
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"point_blocks must have shape (m, 3), got {points.shape}")
        k = cam_idx.shape[:1]
        if cam_idx.ndim != 1 or pt_idx.shape != k or pixels.shape != k + (2,):
            raise ValueError(
                f"cam_idx, pt_idx and pixels must have shapes (k,), (k,) and (k, 2), "
                f"got {cam_idx.shape}, {pt_idx.shape} and {pixels.shape}"
            )
        if len(cameras) < 2:
            raise ValueError("problem needs at least 2 cameras")
        if len(points) < 1:
            raise ValueError("problem needs at least 1 point")
        if not (np.isfinite(pixel_sigma) and pixel_sigma > 0):
            raise ValueError(f"pixel_sigma must be finite and positive, got {pixel_sigma}")
        for name, array in (("camera block", cameras), ("point block", points), ("pixel", pixels)):
            if not np.isfinite(array).all():
                row = int(np.argmin(np.isfinite(array).all(axis=1)))
                raise ValueError(f"{name} {row} is not finite: {array[row].tolist()}")
        bad_camera = (cam_idx < 0) | (cam_idx >= len(cameras))
        bad_point = (pt_idx < 0) | (pt_idx >= len(points))
        # A pair is a duplicate unless it is its key's first occurrence; keys
        # of out-of-range indices may collide, but those are faults already.
        _, first = np.unique(cam_idx * len(points) + pt_idx, return_index=True)
        duplicate = np.ones(len(cam_idx), dtype=bool)
        duplicate[first] = False
        faults = np.flatnonzero(bad_camera | bad_point | duplicate)
        if faults.size:
            i = int(faults[0])
            pair = (int(cam_idx[i]), int(pt_idx[i]))
            if bad_camera[i]:
                raise ValueError(f"observation {i}: camera index {pair[0]} out of range")
            if bad_point[i]:
                raise ValueError(f"observation {i}: point index {pair[1]} out of range")
            raise ValueError(f"observation {i}: duplicate camera/point pair {pair}")
        if np.unique(cam_idx).size != len(cameras):
            raise ValueError("every camera must appear in at least one observation")
        if np.unique(pt_idx).size != len(points):
            raise ValueError("every point must appear in at least one observation")
        for array in (cameras, points, cam_idx, pt_idx):
            array.flags.writeable = False
        self.camera_blocks, self.point_blocks = cameras, points
        self.cam_idx, self.pt_idx, self.pixels = cam_idx, pt_idx, pixels
        self.pixel_sigma, self.ground_truth = pixel_sigma, ground_truth

    @property
    def num_cameras(self) -> int:
        return len(self.camera_blocks)

    @property
    def num_points(self) -> int:
        return len(self.point_blocks)

    @property
    def num_observations(self) -> int:
        return len(self.cam_idx)

    # Fresh records on every read: editing one leaves the problem as it is.
    @property
    def cameras(self) -> list[CameraPose]:
        return [CameraPose.from_array(block) for block in self.camera_blocks]

    @property
    def points(self) -> list[Point3]:
        return [Point3(block.copy()) for block in self.point_blocks]

    @property
    def observations(self) -> list[Observation]:
        index = zip(self.cam_idx.tolist(), self.pt_idx.tolist())
        return [Observation(c, p, pixel.copy()) for (c, p), pixel in zip(index, self.pixels)]

    def observation_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.cam_idx, self.pt_idx, self.pixels


def _index_array(values, name: str) -> np.ndarray:
    array = np.asarray(values)
    if array.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, got dtype {array.dtype}")
    return array.astype(int, copy=False)


class _Workspace:
    """One reusable buffer that a call carves its temporary arrays from.

    ``frame()`` starts a call. Each request ``ws(*shape)`` then takes the
    next stretch of the buffer, in whole 64-byte lines, and
    ``ws.release(mark)`` hands back everything taken since ``mark =
    ws.used``. A request past the end of the buffer gets a new array, and
    the next frame starts with a buffer as long as the longest frame so far,
    so once each kind of call has run, none allocates. The same request at
    the same place returns the same view, made once. An array stays valid
    until its stretch is handed out again: never return one from the call,
    and never use a workspace from two threads.
    """

    LINE = 8  # float64 items per 64-byte line

    def __init__(self):
        self.buffer = np.empty(0)
        self.used = self.longest = 0
        self.views = {}  # (start, shape, dtype) -> (view, end)

    def frame(self) -> "_Workspace":
        if self.longest > len(self.buffer):
            self.buffer = np.empty(self.longest)
            self.views.clear()
        self.used = 0
        return self

    def release(self, mark: int) -> None:
        self.used = mark

    def __call__(self, *shape: int, dtype=np.float64) -> np.ndarray:
        """An uninitialized array of ``shape`` and an 8-byte ``dtype``."""
        key = (self.used, shape, dtype)
        made = self.views.get(key)
        if made is not None:
            view, self.used = made
            return view
        size = math.prod(shape)
        start = self.used
        self.used += -(-size // self.LINE) * self.LINE
        if self.used > len(self.buffer):
            self.longest = max(self.longest, self.used)
            return np.empty(shape, dtype)
        view = self.buffer[start : start + size].view(dtype).reshape(shape)
        self.views[key] = (view, self.used)
        return view

    def take(self, array: np.ndarray, index: np.ndarray, axis: int) -> np.ndarray:
        """``array.take(index, axis)`` into the workspace; ``index`` must be in range."""
        out = self(*array.shape[:axis], len(index), *array.shape[axis + 1 :])
        # mode="clip" skips the bounds check, for which mode="raise" would
        # first copy the output.
        return array.take(index, axis=axis, out=out, mode="clip")


def _cross(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.cross`` over the first axis, to the bit, without its axis bookkeeping.

    Component-major: ``a[i]`` is the i-th component of every vector. Each
    component is the same two products and one difference, written straight
    into ``out``.
    """
    first = a[1] * b[2] - a[2] * b[1]
    if out is None:
        out = np.empty((3, *first.shape))
    out[0, ...] = first
    out[1, ...] = a[2] * b[0] - a[0] * b[2]
    out[2, ...] = a[0] * b[1] - a[1] * b[0]
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over the first axis of ``a * b``: 0.0 + a[0] b[0] + a[1] b[1] + ..., in order.

    On component-major arrays this is, to the bit, what ``np.sum`` over a
    2- or 3-long last axis gives on row-major ones.
    """
    total = 0.0 + a[0] * b[0]
    for k in range(1, len(a)):
        total += a[k] * b[k]
    return total


def _rotation_table(w: np.ndarray) -> tuple:
    """The angle math of R(w), once per rotation vector of the component-major ``w``.

    With t = |w|, returns the angles (t^2, ``small`` where t^2 < 1e-12,
    ``safe`` = 1 there and t elsewhere, sin(safe), cos(safe)) and the
    coefficients cos(t), sin(t)/t and (1-cos(t))/t^2 that ``_rotate``
    takes, each with its series where ``small``; elsewhere safe = t.
    """
    theta2 = _dot(w, w)
    small = theta2 < 1e-12
    safe = np.where(small, 1.0, np.sqrt(theta2))
    sin, cos = np.sin(safe), np.cos(safe)
    cos_t = np.where(small, 1.0 - theta2 / 2.0, cos)
    sinc = np.where(small, 1.0 - theta2 / 6.0, sin / safe)
    omc = np.where(small, 0.5 - theta2 / 24.0, (1.0 - cos) / (safe * safe))
    return (theta2, small, safe, sin, cos), (cos_t, sinc, omc)


def _rotate(w: np.ndarray, p: np.ndarray, coefficients) -> np.ndarray:
    """R(w) p for component-major rotation vectors and points, shape (3, ...).

    ``coefficients`` are the ``_rotation_table`` coefficients of ``w``.
    """
    cos_t, sinc, omc = coefficients
    rotated = cos_t * p
    rotated += sinc * _cross(w, p)
    rotated += omc * _dot(w, p) * w
    return rotated


def rotate_points(rotvecs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply axis-angle rotations row-wise: result[i] = R(rotvecs[i]) @ points[i]."""
    rotvecs, points = np.broadcast_arrays(
        np.asarray(rotvecs, dtype=float), np.asarray(points, dtype=float)
    )
    # Reversing every axis puts the vector axis first; the math is elementwise.
    w = rotvecs.T
    return _rotate(w, points.T, _rotation_table(w)[1]).T


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
    projection = _project_rows(camera_blocks, point_blocks, cam_idx, pt_idx)
    return projection[6], projection[2][2]


def _project_rows(camera_blocks, point_blocks, cam_idx, pt_idx):
    """Project every observation, keeping the intermediates.

    Works component-major, observation index last. Returns the gathered
    cameras (9, n) and points (3, n), the camera-frame points (3, n), the
    image-plane points (2, n), their squared radius, the distortion factor,
    the pixels, which alone are row-major (n, 2), and the cameras'
    ``_rotation_table``, made once per camera. A numerically zero depth
    divides by 1 instead; the caller detects it. Every array is new.
    """
    cams = np.ascontiguousarray(camera_blocks.T).take(cam_idx, axis=1)
    pts = np.ascontiguousarray(point_blocks.T).take(pt_idx, axis=1)
    rotation = _rotation_table(camera_blocks[:, 0:3].T)
    cam_frame = _rotate(cams[0:3], pts, [c[cam_idx] for c in rotation[1]])
    cam_frame += cams[3:6]
    depth = cam_frame[2]
    safe_depth = np.where(np.abs(depth) <= DEPTH_EPS, 1.0, depth)
    plane = np.negative(cam_frame[:2])
    plane /= safe_depth
    r2 = _dot(plane, plane)
    distortion = 1.0 + cams[7] * r2 + cams[8] * r2 * r2
    pixels = np.empty((len(cam_idx), 2))
    np.multiply(cams[6] * distortion, plane, out=pixels.T)
    return cams, pts, cam_frame, plane, r2, distortion, pixels, rotation


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


def _matrix_rotvec(matrix: np.ndarray) -> list[float]:
    """scipy's ``Rotation.from_matrix(matrix).as_rotvec()`` of an orthonormal
    ``matrix``, to the bit: scipy's steps in order, in libm as its compiled
    backend does (quaternion from the largest of diagonal and trace,
    normalization, canonical sign, ``2 atan2`` and the Taylor branch)."""
    m = matrix.tolist()
    trace = m[0][0] + m[1][1] + m[2][2]
    decision = [m[0][0], m[1][1], m[2][2], trace]
    i = decision.index(max(decision))
    if i == 3:
        q = [m[2][1] - m[1][2], m[0][2] - m[2][0], m[1][0] - m[0][1], 1 + trace]
    else:
        j, k = (i + 1) % 3, (i + 2) % 3
        q = [0.0, 0.0, 0.0, m[k][j] - m[j][k]]
        q[i], q[j], q[k] = 1 - trace + 2 * m[i][i], m[j][i] + m[i][j], m[k][i] + m[i][k]
    norm = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    x, y, z, w = (c / norm for c in q)
    if w < 0 or (w == 0 and (x < 0 or (x == 0 and (y < 0 or (y == 0 and z < 0))))):
        x, y, z, w = -x, -y, -z, -w
    angle = 2 * math.atan2(math.sqrt(x * x + y * y + z * z), w)
    if angle <= 1e-3:
        angle2 = angle * angle
        scale = 2 + angle2 / 12 + 7 * angle2 * angle2 / 2880
    else:
        scale = angle / math.sin(angle / 2)
    return [scale * x, scale * y, scale * z]


def generate_synthetic(
    num_cameras: int,
    num_points: int,
    pixel_sigma: float = 1.0,
    init_noise: float = 0.1,
    seed: int = 0,
    rotation_noise: float = DEFAULT_ROTATION_NOISE,
    focal: float = DEFAULT_FOCAL,
    noise_std: float | None = None,
) -> BAProblem:
    """Sample a fully-visible synthetic scene with noisy initial estimates.

    Ground-truth points fill a cube, cameras sit on a spherical shell looking
    at the origin with a small random roll, and every camera observes every
    point. Observations are ground-truth projections plus Gaussian pixel
    noise (``noise_std``, defaulting to ``pixel_sigma``). Initial estimates
    perturb points and translations by ``init_noise`` and rotations by
    ``rotation_noise``; points whose depth precondition fails are resampled
    up to ``GENERATION_RETRIES`` times.
    """
    if not all(isinstance(n, (int, np.integer)) for n in (num_cameras, num_points)):
        raise ValueError(f"scene sizes must be integers, got {num_cameras!r} and {num_points!r}")
    if num_cameras < 2 or num_points < 1:
        raise ValueError("need at least 2 cameras and 1 point")
    if noise_std is None:
        noise_std = pixel_sigma
    rng = np.random.default_rng(seed)

    camera_blocks = np.zeros((num_cameras, 9))  # k1 = k2 = 0
    camera_blocks[:, 6] = focal
    rotvecs = np.empty((num_cameras, 3))
    for ci in range(num_cameras):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        radius = rng.uniform(*SHELL_RADIUS)
        center = radius * direction
        roll = rng.uniform(-ROLL_RANGE, ROLL_RANGE)
        rotation = _look_at_rotation(center, roll)
        rotvecs[ci] = _matrix_rotvec(rotation)
        camera_blocks[ci, 3:6] = -rotation @ center
    camera_blocks[:, 0:3] = rotvecs

    point_blocks = np.empty((num_points, 3))
    for pj in range(num_points):
        for attempt in range(GENERATION_RETRIES + 1):
            candidate = rng.uniform(-POINT_HALF_EXTENT, POINT_HALF_EXTENT, size=3)
            depths = rotate_points(rotvecs, candidate)[:, 2] + camera_blocks[:, 5]
            if (np.abs(depths) > MIN_GENERATED_DEPTH).all():
                point_blocks[pj] = candidate
                break
        else:
            raise SceneGenerationError(
                f"could not sample a point satisfying the depth precondition "
                f"after {GENERATION_RETRIES} retries"
            )

    # Observations are camera-major, the order of the pixel-noise draws.
    # With k1 = k2 = 0 the distortion is exactly 1, so these pixels equal
    # ``project`` per observation to the bit.
    cam_idx = np.repeat(np.arange(num_cameras), num_points)
    pt_idx = np.tile(np.arange(num_points), num_cameras)
    clean, _ = project_many(camera_blocks, point_blocks, cam_idx, pt_idx)
    pixels = clean + rng.normal(0.0, noise_std, size=clean.shape)
    ground_truth = BAProblem.from_arrays(
        camera_blocks, point_blocks, cam_idx, pt_idx, pixels, pixel_sigma
    )

    init_cameras = camera_blocks.copy()
    for block in init_cameras:  # rotation then translation noise, camera by camera
        block[0:3] += rng.normal(0.0, rotation_noise, size=3)
        block[3:6] += rng.normal(0.0, init_noise, size=3)
    init_points = point_blocks + rng.normal(0.0, init_noise, size=point_blocks.shape)
    return BAProblem.from_arrays(  # sharing its observation arrays with its ground truth
        init_cameras, init_points, cam_idx, pt_idx, pixels, pixel_sigma, ground_truth
    )


def _format_value(value: float) -> str:
    return format(float(value), ".17g")


def serialize_bal(problem: BAProblem) -> str:
    """Render a problem in BAL text format (parameters one value per line)."""
    lines = [f"{problem.num_cameras} {problem.num_points} {problem.num_observations}"]
    rows = zip(problem.cam_idx.tolist(), problem.pt_idx.tolist(), problem.pixels.tolist())
    lines.extend(f"{c} {p} {_format_value(x)} {_format_value(y)}" for c, p, (x, y) in rows)
    lines.extend(map(_format_value, problem.camera_blocks.ravel().tolist()))
    lines.extend(map(_format_value, problem.point_blocks.ravel().tolist()))
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

    def next_blocks(self, what: str, count: int, width: int) -> np.ndarray:
        """``count`` rows of ``width`` numbers; ``what.format(i, j)`` names entry (i, j)."""
        names = (what.format(i, j) for i in range(count) for j in range(width))
        return np.reshape([self.next_float(name)[0] for name in names], (count, width))

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

    pairs, pixels = [], []
    for i in range(num_observations):
        ci, cam_line = stream.next_int(f"observation {i} camera index")
        pj, pt_line = stream.next_int(f"observation {i} point index")
        x, _ = stream.next_float(f"observation {i} pixel x")
        y, _ = stream.next_float(f"observation {i} pixel y")
        if not 0 <= ci < num_cameras:
            raise BalParseError(f"camera index {ci} out of range [0, {num_cameras})", cam_line)
        if not 0 <= pj < num_points:
            raise BalParseError(f"point index {pj} out of range [0, {num_points})", pt_line)
        pairs.append((ci, pj))
        pixels.append((x, y))

    cameras = stream.next_blocks("camera {} parameter {}", num_cameras, 9)
    points = stream.next_blocks("point {} coordinate {}", num_points, 3)
    stream.expect_end()
    cam_idx, pt_idx = np.array(pairs, dtype=int).reshape(-1, 2).T.copy()
    pixels = np.reshape(pixels, (num_observations, 2))
    return BAProblem.from_arrays(cameras, points, cam_idx, pt_idx, pixels, pixel_sigma)
