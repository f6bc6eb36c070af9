import os
import pickle
import re
from types import SimpleNamespace

import numpy as np
import pytest

from zoht.core import spawn_stream
from zoht.problems import (
    PIXEL_HI,
    PIXEL_LO,
    BlackBoxClassifier,
    CwAttackProblem,
    LinearSoftmaxClassifier,
    RidgeProblem,
    attack_surrogate_problem,
    ridge_from_csv,
    ridge_synthetic,
    standardize_columns,
    surrogate_classifier,
)

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def test_rows_inside_unit_ball():
    problem = ridge_synthetic(50, 6, 0.1, spawn_stream(0, "data-gen"), standardize=False)
    norms = np.linalg.norm(problem.X, axis=1)
    assert np.all(norms <= 1.0 + 1e-12)


def test_standardized_columns():
    problem = ridge_synthetic(40, 5, 0.1, spawn_stream(1, "data-gen"))
    assert np.all(np.abs(problem.X.mean(axis=0)) <= 1e-10)
    assert np.allclose(problem.X.std(axis=0, ddof=1), 1.0, atol=1e-10)


def test_value_at_zero_is_mean_squared_target():
    problem = ridge_synthetic(10, 5, 0.5, spawn_stream(2, "data-gen"))
    assert problem.mean_value(np.zeros(5)) == pytest.approx(
        float(np.mean(problem.y**2)), abs=1e-12
    )


def test_sparse_kstar_forces_sparsity():
    problem = ridge_synthetic(
        10, 8, 0.0, spawn_stream(3, "data-gen"), sparse_kstar=3, standardize=False
    )
    assert int(np.count_nonzero(problem.minimizer)) == 3
    assert problem.mean_value(problem.minimizer) == pytest.approx(0.0, abs=1e-24)
    for bad in (-1, 9):
        with pytest.raises(ValueError, match="^sparse_kstar out of range, got %d for d=8$" % bad):
            ridge_synthetic(10, 8, 0.0, spawn_stream(3, "data-gen"), sparse_kstar=bad)
    with pytest.raises(ValueError, match="^sparse_kstar must be an integer, got 1.5$"):
        ridge_synthetic(10, 8, 0.0, spawn_stream(3, "data-gen"), sparse_kstar=1.5)


def test_standardized_instance_has_no_minimizer():
    # the generating model fits the raw columns, not the standardized ones
    problem = ridge_synthetic(10, 5, 0.0, spawn_stream(0, "data-gen"))
    assert problem.minimizer is None


def test_gradient_matches_central_differences():
    problem = ridge_synthetic(12, 5, 0.3, spawn_stream(4, "data-gen"))
    rng = spawn_stream(5, "data-gen")
    h = 1e-6
    for _ in range(100):
        theta = rng.standard_normal(5)
        i = int(rng.integers(problem.n))
        grad = problem.component_gradient(i, theta)
        for j in range(5):
            e = np.zeros(5)
            e[j] = h
            fd = (problem.component(i, theta + e) - problem.component(i, theta - e)) / (2 * h)
            assert fd == pytest.approx(grad[j], rel=1e-5, abs=1e-7)


def test_mean_consistency():
    problem = ridge_synthetic(9, 4, 0.2, spawn_stream(6, "data-gen"))
    theta = np.array([0.3, -0.2, 0.5, 0.0])
    loop = np.mean([problem.component(i, theta) for i in range(9)])
    assert problem.mean_value(theta) == pytest.approx(loop, abs=1e-12 * 9)


def test_csv_loader_toy_linear():
    problem = ridge_from_csv(os.path.join(DATA, "toy_linear.csv"), "y", 0.5)
    assert (problem.n, problem.d) == (3, 2)
    # direct evaluation oracle on the standardized matrix
    theta = np.array([2.0, 0.0])
    expected = float(np.mean((problem.X @ theta - problem.y) ** 2)) + 0.5 / 2 * 4.0
    assert problem.mean_value(theta) == pytest.approx(expected, abs=1e-12)


def test_csv_loader_committed_datasets():
    bodyfat = ridge_from_csv(os.path.join(DATA, "toy_bodyfat.csv"), "class", 0.5)
    assert bodyfat.d == 14
    auto = ridge_from_csv(os.path.join(DATA, "toy_autoprice.csv"), "price", 0.5)
    assert auto.d == 15


def test_csv_missing_target_names_headers(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="available.*'a'"):
        ridge_from_csv(str(path), "zz", 0.1)


def test_csv_repeated_target_refused(tmp_path):
    # either 'a' could be the target, so the loader names the clash
    # instead of picking one
    path = tmp_path / "t.csv"
    path.write_text("a,a,y\n1,2,3\n4,5,7\n6,8,9\n")
    with pytest.raises(ValueError, match="^target column 'a' appears 2 times in the header$"):
        ridge_from_csv(str(path), "a", 0.1)
    # a repeated feature name is still accepted
    problem = ridge_from_csv(str(path), "y", 0.1)
    assert (problem.n, problem.d) == (3, 2)
    np.testing.assert_array_equal(problem.y, [3.0, 7.0, 9.0])


def test_csv_with_byte_order_mark(tmp_path):
    # Spreadsheet exports start the file with a BOM; it is not part of the
    # first column's name.
    path = tmp_path / "t.csv"
    path.write_bytes(b"\xef\xbb\xbfy,a,b\n1,2,3\n4,5,7\n")
    problem = ridge_from_csv(str(path), "y", 0.1)
    assert (problem.n, problem.d) == (2, 2)
    np.testing.assert_array_equal(problem.y, [1.0, 4.0])


def test_csv_header_only(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n")
    with pytest.raises(ValueError, match="no data rows"):
        ridge_from_csv(str(path), "b", 0.1)
    path.write_text("")
    with pytest.raises(ValueError, match="^empty file: "):
        ridge_from_csv(str(path), "b", 0.1)


def test_csv_blank_row_skipped_and_short_row_refused(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n\n3,5\n")
    problem = ridge_from_csv(str(path), "b", 0.1)
    assert (problem.n, problem.d) == (2, 1)
    np.testing.assert_array_equal(problem.y, [2.0, 5.0])
    # a skipped blank row still counts in the row numbers
    path.write_text("a,b\n1,2\n\n3\n")
    with pytest.raises(ValueError, match="^row 4 has 1 cells, expected 2$"):
        ridge_from_csv(str(path), "b", 0.1)


def test_csv_non_numeric_cell_reports_position(tmp_path):
    path = tmp_path / "t.csv"
    for cell in ("oops", "nan", "inf"):
        path.write_text("a,b\n1,2\n1,%s\n" % cell)
        with pytest.raises(ValueError, match="row 3, column 'b'"):
            ridge_from_csv(str(path), "b", 0.1)


def test_constant_column_warns_and_zeroes():
    with pytest.warns(UserWarning, match="constant column"):
        out = standardize_columns(np.array([[1.0, 2.0], [1.0, 4.0], [1.0, 6.0]]))
    np.testing.assert_array_equal(out[:, 0], 0.0)


def test_surrogate_log_probs_normalized_and_deterministic():
    c1 = surrogate_classifier(12, 5, spawn_stream(7, "data-gen"))
    c2 = surrogate_classifier(12, 5, spawn_stream(7, "data-gen"))
    x = spawn_stream(8, "data-gen").uniform(-0.5, 0.5, 12)
    lp1, lp2 = c1.log_probs(x), c2.log_probs(x)
    np.testing.assert_array_equal(lp1, lp2)
    np.testing.assert_array_equal(lp1, c1.log_probs(x))
    assert abs(np.sum(np.exp(lp1)) - 1.0) <= 1e-10


class _FixedClassifier(BlackBoxClassifier):
    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=np.float64)
        self.num_classes = len(scores)

    def log_probs(self, x):
        return self.scores


def _tiny_attack(scores, label):
    images = np.zeros((1, 3))
    return CwAttackProblem(images, np.array([label]), _FixedClassifier(scores))


def test_log_probs_count_must_match_num_classes():
    # a short output would give label 0 a wrong hinge and label 2 an
    # IndexError; both are refused when the problem is built
    class Short(_FixedClassifier):
        num_classes = 3

        def __init__(self):
            self.scores = np.array([1.5, 1.0])

    for label in range(3):
        with pytest.raises(ValueError) as exc:
            CwAttackProblem(np.zeros((1, 3)), np.array([label]), Short())
        assert str(exc.value) == "classifier returned 2 log-probs for num_classes=3"


def test_cw_loss_hand_value():
    problem = _tiny_attack([1.5, 1.0], 0)
    assert problem.component(0, np.zeros(3)) == pytest.approx(0.5, abs=1e-12)


def test_cw_loss_hinge_floor():
    problem = _tiny_attack([0.2, 1.0, 0.5], 0)  # true class already loses
    assert problem.component(0, np.zeros(3)) == 0.0


def test_cw_loss_clipping_saturates():
    rng = spawn_stream(9, "data-gen")
    classifier = surrogate_classifier(3, 4, rng)
    images = np.full((1, 3), 0.4)
    problem = CwAttackProblem(images, np.array([1]), classifier)
    theta = np.array([0.3, 0.0, 0.0])  # pixel 0 already past the box
    more = np.array([5.0, 0.0, 0.0])
    assert problem.component(0, theta) == problem.component(0, more)


def test_cw_loss_nonnegative_everywhere():
    rng = spawn_stream(10, "data-gen")
    problem = attack_surrogate_problem(5, 8, 6, rng)
    for _ in range(300):
        theta = rng.uniform(-2, 2, 8)
        i = int(rng.integers(5))
        assert problem.component(i, theta) >= 0.0


def test_attack_problem_starts_at_decision_margin():
    problem = attack_surrogate_problem(6, 10, 4, spawn_stream(11, "data-gen"))
    # labels are the surrogate's own argmax, so every initial hinge is the
    # (nonnegative) margin, and generically positive
    losses = [problem.component(i, np.zeros(10)) for i in range(6)]
    assert all(v >= 0.0 for v in losses)
    assert np.mean(losses) > 0.0


def test_attack_problem_validation():
    classifier = surrogate_classifier(4, 3, spawn_stream(12, "data-gen"))
    with pytest.raises(ValueError):
        CwAttackProblem(np.full((2, 4), 0.7), np.array([0, 1]), classifier)
    # NaN compares false both ways, so it must fail the range check too.
    nan_pixel = np.zeros((2, 4))
    nan_pixel[1, 2] = np.nan
    with pytest.raises(ValueError, match=r"images must lie in \[-0.5, 0.5\]"):
        CwAttackProblem(nan_pixel, np.array([0, 1]), classifier)
    with pytest.raises(ValueError, match=r"^labels\[1\] must be < 3, got 5$"):
        CwAttackProblem(np.zeros((2, 4)), np.array([0, 5]), classifier)
    for labels in ([0, 1, 1], [[0], [1]]):
        with pytest.raises(ValueError, match=r"^labels must be \(n,\)$"):
            CwAttackProblem(np.zeros((2, 4)), np.array(labels), classifier)
    with pytest.raises(ValueError, match="n >= 1"):
        CwAttackProblem(np.zeros((0, 4)), np.zeros(0, dtype=int), classifier)
    one_class = surrogate_classifier(4, 1, spawn_stream(12, "data-gen"))
    with pytest.raises(ValueError, match="num_classes >= 2"):
        CwAttackProblem(np.zeros((2, 4)), np.array([0, 0]), one_class)
    # A subclass that never sets num_classes keeps the class default None.
    with pytest.raises(ValueError, match="need num_classes >= 2, got None"):
        CwAttackProblem(np.zeros((2, 4)), np.array([0, 0]), BlackBoxClassifier())
    # labels are class indices, so a float, bool or string is refused, not cast
    for labels, message in (([0.7, 1.2], "labels[0] must be an integer, got 0.7"),
                            ([True, False], "labels[0] must be an integer, got True"),
                            (["1", "2"], "labels[0] must be an integer, got '1'"),
                            ([0, -1], "labels[1] must be >= 0, got -1")):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            CwAttackProblem(np.zeros((2, 4)), labels, classifier)
    # the builders' counts go through core.require_numbers
    for args, message in (((4, 48, 0), "num_classes must be >= 2, got 0"),
                          ((4, 48, 1), "num_classes must be >= 2, got 1"),
                          ((4, 48, 1.5), "num_classes must be an integer, got 1.5"),
                          ((0, 48, 10), "n must be >= 1, got 0"),
                          ((-1, 48, 10), "n must be >= 1, got -1"),
                          ((True, 48, 10), "n must be an integer, got True"),
                          ((4, -1, 10), "d must be >= 1, got -1")):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            attack_surrogate_problem(*args, spawn_stream(0, "data-gen"))
    for args, message in (((2.5, 3, 0.5), "n must be an integer, got 2.5"),
                          ((True, 3, 0.5), "n must be an integer, got True"),
                          ((4, 0, 0.5), "d must be >= 1, got 0")):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            ridge_synthetic(*args, spawn_stream(0, "data-gen"))
    with pytest.raises(ValueError, match="n >= 1"):
        RidgeProblem(np.zeros((0, 4)), np.zeros(0), 0.1)
    with pytest.raises(ValueError, match=r"^need d >= 1 features, got d=0$"):
        RidgeProblem(np.zeros((3, 0)), np.ones(3), 0.1)
    with pytest.raises(ValueError, match=r"^need d >= 1 pixels, got d=0$"):
        CwAttackProblem(np.zeros((2, 0)), np.array([0, 1]), surrogate_classifier(
            0, 3, spawn_stream(12, "data-gen")))
    with pytest.raises(ValueError, match=r"X must be finite, got X\[0, 0\]=nan"):
        RidgeProblem([[np.nan, 1], [1, 2]], [1, np.inf], 0.1)
    with pytest.raises(ValueError, match=r"y must be finite, got y\[1\]=inf"):
        RidgeProblem([[1, 1], [1, 2]], [1, np.inf], 0.1)


# -- bit pins for the oracles' fast paths -------------------------------------
# component() runs once per IZO and so avoids numpy's wrapper functions;
# these tests pin it to the plain numpy formulas, byte for byte.

def _bits(value):
    return np.float64(value).tobytes()


def _cw_reference(problem, i, theta):
    x = np.clip(problem.images[i] + theta, PIXEL_LO, PIXEL_HI)
    lp = np.asarray(problem.classifier.log_probs(x), dtype=np.float64)
    true = problem.labels[i]
    return max(float(lp[true] - np.max(np.delete(lp, true))), 0.0)


@pytest.mark.parametrize("num_classes", [2, 10])
def test_cw_loss_bits_match_reference(num_classes):
    rng = spawn_stream(13, "data-gen")
    problem = attack_surrogate_problem(4, 48, num_classes, rng)
    saturated = floored = 0
    for scale in (0.0, 0.01, 0.1, 0.5, 1.0, 3.0, 10.0):
        for _ in range(150):
            theta = scale * rng.standard_normal(48)
            i = int(rng.integers(problem.n))
            got = problem.component(i, theta)
            assert _bits(got) == _bits(_cw_reference(problem, i, theta))
            raw = problem.images[i] + theta
            saturated += np.any((raw < PIXEL_LO) | (raw > PIXEL_HI))
            floored += got == 0.0
    assert saturated > 100 and floored > 10 and floored < 1000


@pytest.mark.parametrize("scores", [[-0.0, 0.0], [0.0, -0.0],
                                    [-0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]])
@pytest.mark.parametrize("label", [0, 1])
def test_cw_loss_signed_zero_bits_match_reference(scores, label):
    # numpy's max keeps the last of equal floats, the builtin max the first
    problem = _tiny_attack(scores, label)
    got = problem.component(0, np.zeros(3))
    assert _bits(got) == _bits(_cw_reference(problem, 0, np.zeros(3)))


def _log_probs_reference(classifier, x):
    scores = classifier.weights @ x + classifier.bias
    m = np.max(scores)
    return scores - (m + np.log(np.exp(scores - m).sum()))


@pytest.mark.parametrize("num_classes", [2, 10])
def test_log_probs_bits_match_reference(num_classes):
    rng = spawn_stream(20, "data-gen")
    classifier = surrogate_classifier(48, num_classes, rng)
    saturated = 0
    for scale in (0.0, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e6):
        for _ in range(100):
            raw = rng.standard_normal(48) * scale
            for x in (raw, np.clip(raw, PIXEL_LO, PIXEL_HI)):
                got = classifier.log_probs(x)
                assert got.tobytes() == _log_probs_reference(classifier, x).tobytes()
                saturated += np.max(got) == 0.0  # the other classes underflow
    assert saturated > 100


def test_attacked_image_matches_clip_bits_and_is_fresh():
    images = np.array([[0.0, -0.0, 0.5, -0.5, 0.25, 0.1, -0.1]])
    classifier = surrogate_classifier(7, 3, spawn_stream(14, "data-gen"))
    problem = CwAttackProblem(images, np.array([0]), classifier)
    theta = np.array([-0.0, -0.0, 1.0, -np.inf, np.nan, -0.1, 0.1])
    x = problem.attacked_image(0, theta)
    assert x.tobytes() == np.clip(images[0] + theta, PIXEL_LO, PIXEL_HI).tobytes()
    assert not np.shares_memory(x, images) and not np.shares_memory(x, theta)
    np.testing.assert_array_equal(images, [[0.0, -0.0, 0.5, -0.5, 0.25, 0.1, -0.1]])


def test_cw_loss_never_writes_log_probs_output():
    cases = [([1.5, 1.0], 0), ([1.0, 1.5], 1), ([0.2, 1.0, 0.5], 0),
             ([0.2, 1.0, 0.5], 1), ([3.0, -1.0, 2.0, 2.5], 2)]
    for scores, label in cases:
        problem = _tiny_attack(scores, label)
        stored = problem.classifier.scores
        before = stored.copy()
        got = problem.component(0, np.zeros(3))
        assert _bits(got) == _bits(_cw_reference(problem, 0, np.zeros(3)))
        assert stored.tobytes() == before.tobytes()
        assert problem.classifier.scores is stored


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_log_probs_refused_at_every_position(bad):
    for pos in range(3):
        scores = [0.5, -1.0, 0.25]
        scores[pos] = bad
        for label in range(3):
            with pytest.raises(ArithmeticError, match="non-finite log-probs"):
                _tiny_attack(scores, label).component(0, np.zeros(3))
    with pytest.raises(ArithmeticError, match="non-finite log-probs"):
        _tiny_attack([np.inf, -np.inf, 0.0], 2).component(0, np.zeros(3))


@pytest.mark.parametrize("scores, label", [
    ([-1e308, -1e308, 0.0], 2), ([1e308, 1e308, 0.0], 0),
    ([1.5e308, -0.5, 1e308], 1), ([-1e308, -1.7e308, -1e308], 0),
])
def test_finite_log_probs_whose_sum_overflows_are_accepted(scores, label):
    assert not np.isfinite(sum(scores))
    problem = _tiny_attack(scores, label)
    got = problem.component(0, np.zeros(3))
    assert _bits(got) == _bits(_cw_reference(problem, 0, np.zeros(3)))


def test_linear_classifier_keeps_read_only_copies():
    rng = spawn_stream(21, "data-gen")
    W = rng.standard_normal((3, 5))
    b = rng.standard_normal(3)
    x = rng.uniform(PIXEL_LO, PIXEL_HI, 5)
    for weights in (W.copy(), np.asfortranarray(W)):
        bias = b.copy()
        classifier = LinearSoftmaxClassifier(weights, bias)
        # Same layout as the caller's array, so the same gemv bits.
        assert classifier.weights.flags.f_contiguous == weights.flags.f_contiguous
        want = _log_probs_reference(SimpleNamespace(weights=weights, bias=bias), x)
        assert classifier.log_probs(x).tobytes() == want.tobytes()
        weights *= 2.0
        bias += 1.0
        assert classifier.log_probs(x).tobytes() == want.tobytes()
        # a pickled copy, as a spawn or forkserver pool worker gets one
        for kept in (classifier, pickle.loads(pickle.dumps(classifier))):
            assert kept.weights.flags.f_contiguous == weights.flags.f_contiguous
            assert kept.log_probs(x).tobytes() == want.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                kept.weights[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                kept.bias[0] = 1.0


def test_ridge_component_bits_match_reference():
    rng = spawn_stream(15, "data-gen")
    for lam in (0.0, 0.3, 0.5, 1.7):
        problem = ridge_synthetic(7, 6, lam, rng)
        X, y = problem.X, problem.y
        for _ in range(200):
            theta = rng.standard_normal(6) * 10.0 ** rng.integers(-3, 4)
            i = int(rng.integers(problem.n))
            r = float(X[i] @ theta) - y[i]
            want = r * r + 0.5 * lam * float(theta @ theta)
            assert _bits(problem.component(i, theta)) == _bits(want)


def test_ridge_value_and_gradient_bits_match_reference_across_widths():
    # d = 1, 2, 15-17, 31-33 cover BLAS ddot's scalar tail around its
    # unrolled blocks; d = 1000 runs the SIMD kernel on long rows
    rng = spawn_stream(16, "data-gen")
    for d in (1, 2, 15, 16, 17, 31, 32, 33, 1000):
        X = rng.standard_normal((4, d))
        y = rng.standard_normal(4)
        lam = 0.7
        problem = RidgeProblem(X, y, lam)
        for _ in range(25):
            theta = rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4)
            i = int(rng.integers(4))
            r = float(X[i] @ theta) - y[i]
            want = r * r + 0.5 * lam * float(theta @ theta)
            assert _bits(problem.component(i, theta)) == _bits(want)
            grad = problem.component_gradient(i, theta)
            assert grad.tobytes() == (2.0 * r * X[i] + lam * theta).tobytes()


class _TaggedRidge(RidgeProblem):
    def __init__(self, X, y, lam, tag):
        super().__init__(X, y, lam)
        self.tag = tag


def test_ridge_pickles_to_the_same_bits_and_carries_x_once():
    problem = ridge_synthetic(2000, 100, 0.5, spawn_stream(0, "data-gen"))
    blob = pickle.dumps(problem)
    # The size before the row cache existed; the cached row views must
    # not add a second copy of X.
    assert len(blob) <= 1_634_316
    copy = pickle.loads(blob)
    rng = spawn_stream(20, "data-gen")
    for _ in range(10):
        theta = rng.standard_normal(100)
        i = int(rng.integers(problem.n))
        assert _bits(copy.component(i, theta)) == _bits(problem.component(i, theta))
        assert (copy.component_gradient(i, theta).tobytes()
                == problem.component_gradient(i, theta).tobytes())

    # A subclass's own attributes survive the round trip.
    tagged = _TaggedRidge(problem.X[:3], problem.y[:3], 0.5, "t")
    twin = pickle.loads(pickle.dumps(tagged))
    assert twin.tag == "t" and type(twin) is _TaggedRidge
    assert _bits(twin.component(2, theta)) == _bits(tagged.component(2, theta))


def test_ridge_data_is_read_only():
    problem = ridge_synthetic(4, 3, 0.5, spawn_stream(17, "data-gen"))
    # A pickled copy too: component reads the cached _y and mean_value
    # reads y, so a write to the copy's y would split the two.
    for kept in (problem, pickle.loads(pickle.dumps(problem))):
        with pytest.raises(ValueError, match="read-only"):
            kept.X[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            kept.y[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            kept._rows[0][0] = 1.0
    # an array a subclass adds is left as it was
    tagged = _TaggedRidge(problem.X, problem.y, 0.5, np.zeros(2))
    pickle.loads(pickle.dumps(tagged)).tag[0] = 1.0


def test_ridge_ignores_later_writes_to_caller_arrays():
    rng = spawn_stream(18, "data-gen")
    X = rng.standard_normal((3, 4))
    y = rng.standard_normal(3)
    problem = RidgeProblem(X, y, 0.5)
    theta = rng.standard_normal(4)
    before = [_bits(problem.component(i, theta)) for i in range(3)]
    X *= 2.0
    y += 1.0
    assert [_bits(problem.component(i, theta)) for i in range(3)] == before


def test_cw_attack_ignores_later_writes_to_caller_arrays():
    rng = spawn_stream(19, "data-gen")
    classifier = surrogate_classifier(4, 3, rng)
    images = rng.uniform(PIXEL_LO, PIXEL_HI, size=(3, 4))
    labels = np.array([0, 1, 2])
    problem = CwAttackProblem(images, labels, classifier)
    theta = 0.1 * rng.standard_normal(4)
    before = [_bits(problem.component(i, theta)) for i in range(3)]
    images[:] = 7.0  # outside the pixel box the constructor checks
    labels[:] = 5    # no such class
    assert [_bits(problem.component(i, theta)) for i in range(3)] == before
    # the copies stay read-only, also in a pickled copy of the problem
    for kept in (problem, pickle.loads(pickle.dumps(problem))):
        assert [_bits(kept.component(i, theta)) for i in range(3)] == before
        for array in (kept.images, kept.labels, kept.classifier.weights, kept.classifier.bias):
            assert not array.flags.writeable
