import hashlib
import re

import numpy as np
import pytest
from conftest import suite_problem
from scipy.spatial.transform import Rotation

from balm import scene
from balm.scene import (
    BAProblem,
    BalParseError,
    CameraPose,
    DegenerateDepthError,
    Observation,
    Point3,
    generate_synthetic,
    parse_bal,
    project,
    project_many,
    rotate_points,
    serialize_bal,
)


def reference_rotate(rotvec, point):
    """Textbook Rodrigues formula with an explicitly normalized axis."""
    theta = np.linalg.norm(rotvec)
    if theta == 0.0:
        return np.asarray(point, dtype=float)
    axis = rotvec / theta
    point = np.asarray(point, dtype=float)
    return (
        np.cos(theta) * point
        + np.sin(theta) * np.cross(axis, point)
        + (1.0 - np.cos(theta)) * (axis @ point) * axis
    )


def scene_digest(problems) -> str:
    """sha256 over the camera, point and observation arrays of problems and ground truths."""
    digest = hashlib.sha256()
    for problem in problems:
        for part in (problem, problem.ground_truth):
            for array in (part.camera_array(), part.point_array(), *part.observation_arrays()):
                digest.update(array.tobytes())
    return digest.hexdigest()


# Suite scenes 0-9 and 100-109 and criterion 3's three scenes, as the
# per-observation generator built them before it became array-at-a-time.
GOLDEN_SCENE_DIGEST = "26c8c931b6b88cba4627c250aa1430fbf469bd08d4437f2671ecc0de66ab85cb"
CRITERION_3_SCENES = ((6, 40, 0), (12, 100, 1), (20, 200, 2))


def make_camera(rotation=(0, 0, 0), translation=(0, 0, 0), focal=1.0, k1=0.0, k2=0.0):
    return CameraPose(
        rotation=np.array(rotation, dtype=float),
        translation=np.array(translation, dtype=float),
        focal=focal,
        k1=k1,
        k2=k2,
    )


class TestRotation:
    def test_cross_matches_numpy_bytes(self):
        rng = np.random.default_rng(11)
        a, b = rng.normal(0, 3, (200, 3)), rng.normal(0, 3, (200, 3))
        assert scene._cross(a, b).tobytes() == np.cross(a, b).tobytes()
        assert scene._cross(a[0], b[0]).tobytes() == np.cross(a[0], b[0]).tobytes()
        assert scene._cross(a, b[0]).tobytes() == np.cross(a, b[0]).tobytes()
        stacked, eye = a[:, None, :], np.eye(3)
        assert scene._cross(stacked, eye).shape == (200, 3, 3)
        assert scene._cross(stacked, eye).tobytes() == np.cross(stacked, eye).tobytes()

    def test_matches_normalized_axis_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rotvec = rng.normal(0, 1.5, 3)
            point = rng.normal(0, 5, 3)
            expected = reference_rotate(rotvec, point)
            np.testing.assert_allclose(rotate_points(rotvec, point), expected, atol=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(8)
        rotvecs = rng.normal(0, 1, (20, 3))
        points = rng.normal(0, 3, (20, 3))
        expected = np.stack(
            [Rotation.from_rotvec(r).apply(p) for r, p in zip(rotvecs, points)]
        )
        np.testing.assert_allclose(rotate_points(rotvecs, points), expected, atol=1e-12)

    def test_quarter_turn_about_z(self):
        out = rotate_points(np.array([0.0, 0.0, np.pi / 2]), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-15)

    def test_zero_angle_is_identity(self):
        point = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(rotate_points(np.zeros(3), point), point)

    def test_tiny_angle_series_branch(self):
        # Below the series switch the first-order term must still be present.
        rotvec = np.array([1e-9, 0.0, 0.0])
        point = np.array([0.0, 1.0, 0.0])
        out = rotate_points(rotvec, point)
        np.testing.assert_allclose(out, [0.0, 1.0, 1e-9], rtol=0, atol=1e-18)

    def test_continuity_at_series_switch(self):
        point = np.array([0.3, -1.2, 0.7])
        below = rotate_points(np.array([0.0, 9.9e-7, 0.0]), point)
        above = rotate_points(np.array([0.0, 1.1e-6, 0.0]), point)
        np.testing.assert_allclose(below, above, atol=1e-6)
        np.testing.assert_allclose(below, reference_rotate([0.0, 9.9e-7, 0.0], point), atol=1e-15)


class TestProjection:
    def test_on_axis_point_maps_to_image_origin(self):
        camera = make_camera(focal=1.0)
        np.testing.assert_array_equal(project(camera, np.array([0.0, 0.0, -2.0])), [0.0, 0.0])

    def test_pinhole_formula_without_distortion(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            camera = make_camera(
                rotation=rng.normal(0, 1, 3),
                translation=rng.normal(0, 2, 3),
                focal=rng.uniform(100, 800),
            )
            point = rng.normal(0, 4, 3)
            cam_frame = reference_rotate(camera.rotation, point) + camera.translation
            if abs(cam_frame[2]) < 1e-6:
                continue
            expected = -camera.focal * cam_frame[:2] / cam_frame[2]
            np.testing.assert_allclose(project(camera, point), expected, rtol=1e-12)

    def test_distortion_hand_computed(self):
        camera = make_camera(focal=100.0, k1=0.01, k2=0.001)
        pixel = project(camera, np.array([1.0, -2.0, -10.0]))
        # p = (0.1, -0.2), r2 = 0.05, scale = 1 + 0.01*0.05 + 0.001*0.0025
        np.testing.assert_allclose(pixel, [10.005025, -20.01005], rtol=1e-13)

    def test_degenerate_depth_raises(self):
        camera = make_camera()
        with pytest.raises(DegenerateDepthError):
            project(camera, np.array([1.0, 1.0, 0.0]))

    def test_project_many_matches_scalar(self):
        problem = generate_synthetic(3, 5, seed=3)
        cam_idx, pt_idx, _ = problem.observation_arrays()
        pixels, depths = project_many(
            problem.camera_array(), problem.point_array(), cam_idx, pt_idx
        )
        for k, obs in enumerate(problem.observations):
            expected = project(problem.cameras[obs.camera_index], problem.points[obs.point_index])
            np.testing.assert_allclose(pixels[k], expected, rtol=1e-13)
        assert np.all(np.abs(depths) > scene.DEPTH_EPS)


class TestSynthetic:
    def test_structure_and_full_visibility(self):
        problem = generate_synthetic(4, 6, seed=0)
        assert problem.num_cameras == 4
        assert problem.num_points == 6
        assert problem.num_observations == 24
        pairs = {(o.camera_index, o.point_index) for o in problem.observations}
        assert len(pairs) == 24
        assert problem.ground_truth is not None
        assert problem.ground_truth.observations is problem.observations
        assert problem.pixel_sigma == 1.0
        for cam in problem.ground_truth.cameras:
            assert cam.focal == scene.DEFAULT_FOCAL
            assert cam.k1 == 0.0 and cam.k2 == 0.0

    def test_same_seed_reproduces_scene(self):
        a = generate_synthetic(3, 4, seed=42)
        b = generate_synthetic(3, 4, seed=42)
        np.testing.assert_array_equal(a.camera_array(), b.camera_array())
        np.testing.assert_array_equal(a.point_array(), b.point_array())
        np.testing.assert_array_equal(
            a.observation_arrays()[2], b.observation_arrays()[2]
        )

    def test_distinct_seeds_differ(self):
        a = generate_synthetic(3, 4, seed=1)
        b = generate_synthetic(3, 4, seed=2)
        assert not np.array_equal(a.point_array(), b.point_array())

    def test_noiseless_scene_reproduces_ground_truth(self):
        problem = generate_synthetic(
            3, 5, seed=9, init_noise=0.0, rotation_noise=0.0, noise_std=0.0
        )
        gt = problem.ground_truth
        np.testing.assert_array_equal(problem.camera_array(), gt.camera_array())
        np.testing.assert_array_equal(problem.point_array(), gt.point_array())
        for obs in problem.observations:
            predicted = project(gt.cameras[obs.camera_index], gt.points[obs.point_index])
            np.testing.assert_allclose(obs.pixel, predicted, atol=1e-12)

    def test_points_in_front_of_all_cameras(self):
        problem = generate_synthetic(5, 10, seed=5)
        gt = problem.ground_truth
        for cam in gt.cameras:
            for pt in gt.points:
                depth = rotate_points(cam.rotation, pt.position)[2] + cam.translation[2]
                # Looking down -z: visible points have negative depth.
                assert depth < -scene.MIN_GENERATED_DEPTH

    def test_custom_focal_and_decoupled_noise(self):
        problem = generate_synthetic(
            2, 3, seed=1, pixel_sigma=250.0, noise_std=1.0, focal=500.0
        )
        assert problem.pixel_sigma == 250.0
        gt = problem.ground_truth
        for obs in problem.observations:
            clean = project(gt.cameras[obs.camera_index], gt.points[obs.point_index])
            assert np.linalg.norm(obs.pixel - clean) < 10.0  # 1px-scale noise, not 250

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            generate_synthetic(1, 5, seed=0)

    def test_scenes_are_byte_stable(self):
        problems = [suite_problem(s) for s in (*range(10), *range(100, 110))]
        problems += [
            generate_synthetic(nc, npts, seed=seed, focal=1.0, noise_std=0.01)
            for nc, npts, seed in CRITERION_3_SCENES
        ]
        assert scene_digest(problems) == GOLDEN_SCENE_DIGEST


class TestProblemInvariants:
    def make_valid(self):
        cameras = [make_camera(translation=(0, 0, -12), focal=500.0) for _ in range(2)]
        points = [Point3(np.array([1.0, 2.0, -3.0])), Point3(np.array([-1.0, 0.5, 2.0]))]
        observations = [
            Observation(0, 0, np.array([1.5, -2.0])),
            Observation(0, 1, np.array([0.5, 0.25])),
            Observation(1, 0, np.array([-1.0, 3.0])),
            Observation(1, 1, np.array([2.25, -0.5])),
        ]
        return cameras, points, observations

    def test_valid_problem_accepted(self):
        cameras, points, observations = self.make_valid()
        problem = BAProblem(cameras, points, observations)
        assert problem.num_observations == 4

    def test_too_few_cameras(self):
        cameras, points, observations = self.make_valid()
        with pytest.raises(ValueError, match="2 cameras"):
            BAProblem(cameras[:1], points, [o for o in observations if o.camera_index == 0])

    def test_duplicate_pair(self):
        cameras, points, observations = self.make_valid()
        observations.append(Observation(0, 0, np.array([9.0, 9.0])))
        with pytest.raises(ValueError, match="duplicate"):
            BAProblem(cameras, points, observations)

    def test_unreferenced_point(self):
        cameras, points, observations = self.make_valid()
        points.append(Point3(np.array([0.0, 0.0, 5.0])))
        with pytest.raises(ValueError, match="every point"):
            BAProblem(cameras, points, observations)

    def test_out_of_range_index(self):
        cameras, points, observations = self.make_valid()
        observations[0] = Observation(5, 0, np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="out of range"):
            BAProblem(cameras, points, observations)

    @pytest.mark.parametrize(
        "faults, message",
        [
            (
                [(1, 0, 0), (2, 7, 9), (3, 0, 9)],
                "observation 1: duplicate camera/point pair (0, 0)",
            ),
            ([(1, 7, 9), (2, 0, 0)], "observation 1: camera index 7 out of range"),
            ([(2, 5, 0), (1, 0, -1)], "observation 1: point index -1 out of range"),
        ],
    )
    def test_first_fault_is_reported(self, faults, message):
        cameras, points, observations = self.make_valid()
        for position, cam, pt in faults:
            observations.insert(position, Observation(cam, pt, np.zeros(2)))
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            BAProblem(cameras, points, observations)

    def test_nonpositive_sigma(self):
        cameras, points, observations = self.make_valid()
        with pytest.raises(ValueError, match="pixel_sigma"):
            BAProblem(cameras, points, observations, pixel_sigma=0.0)


SAMPLE_BAL = """\
2 2 4
0 0 1.5 -2.0
0 1 0.5 0.25
1 0 -1.0 3.0
1 1 2.25 -0.5
"""


def sample_bal_text():
    cam0 = [0, 0, 0, 0, 0, -12, 500, 0, 0]
    cam1 = [0.1, -0.2, 0.3, 1, 0, -14, 480, 1e-4, -2e-7]
    pt0 = [1, 2, -3]
    pt1 = [-1, 0.5, 2]
    params = "\n".join(str(float(v)) for v in cam0 + cam1 + pt0 + pt1)
    return SAMPLE_BAL + params + "\n"


class TestBalFormat:
    def test_parse_sample(self):
        problem = parse_bal(sample_bal_text())
        assert problem.num_cameras == 2
        assert problem.num_points == 2
        assert problem.num_observations == 4
        np.testing.assert_array_equal(problem.observations[2].pixel, [-1.0, 3.0])
        assert problem.cameras[1].focal == 480.0
        np.testing.assert_array_equal(problem.points[1].position, [-1.0, 0.5, 2.0])
        assert problem.pixel_sigma == 1.0

    def test_round_trip_preserves_values(self):
        problem = generate_synthetic(3, 7, seed=13)
        recovered = parse_bal(serialize_bal(problem))
        np.testing.assert_allclose(
            recovered.camera_array(), problem.camera_array(), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            recovered.point_array(), problem.point_array(), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            recovered.observation_arrays()[2],
            problem.observation_arrays()[2],
            rtol=0,
            atol=1e-12,
        )
        assert [o.camera_index for o in recovered.observations] == [
            o.camera_index for o in problem.observations
        ]

    def test_serialized_layout(self):
        problem = parse_bal(sample_bal_text())
        text = serialize_bal(problem)
        lines = text.splitlines()
        assert lines[0] == "2 2 4"
        for line in lines[1:5]:
            assert len(line.split()) == 4
        # One value per line for parameters: 2 cameras * 9 + 2 points * 3.
        assert len(lines) == 1 + 4 + 18 + 6

    def test_whitespace_tolerant(self):
        text = sample_bal_text()
        jumbled = " ".join(text.split()[:7]) + "\n" + "\n\n".join(text.split()[7:])
        a = parse_bal(text)
        b = parse_bal(jumbled)
        np.testing.assert_array_equal(a.camera_array(), b.camera_array())

    def test_malformed_header(self):
        with pytest.raises(BalParseError, match="line 1.*header"):
            parse_bal("two 2 4\n")

    def test_empty_input(self):
        with pytest.raises(BalParseError, match="line 1"):
            parse_bal("")

    def test_truncated_file_reports_count_mismatch(self):
        text = sample_bal_text()
        truncated = "\n".join(text.splitlines()[:8]) + "\n"
        with pytest.raises(BalParseError, match="ended while reading"):
            parse_bal(truncated)

    def test_out_of_range_index_reports_line(self):
        text = sample_bal_text().replace("1 1 2.25 -0.5", "1 7 2.25 -0.5")
        with pytest.raises(BalParseError, match="line 5.*point index 7"):
            parse_bal(text)

    def test_non_numeric_token_reports_line(self):
        text = sample_bal_text().replace("0 1 0.5 0.25", "0 1 abc 0.25")
        with pytest.raises(BalParseError, match="line 3.*abc"):
            parse_bal(text)

    def test_trailing_tokens_rejected(self):
        with pytest.raises(BalParseError, match="trailing"):
            parse_bal(sample_bal_text() + "42\n")

    def test_structurally_invalid_file_rejected(self):
        # Parses fine but violates the problem invariant (single camera).
        text = "1 1 1\n0 0 1.0 2.0\n" + "\n".join(["0"] * 5 + ["-12", "500", "0", "0"]) + "\n1\n2\n-3\n"
        with pytest.raises(ValueError, match="2 cameras"):
            parse_bal(text)
