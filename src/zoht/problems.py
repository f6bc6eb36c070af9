"""Concrete objectives: ridge regression (synthetic generator and CSV
loader) and a universal sparse-perturbation attack loss against a
pluggable black-box classifier, with a shipped linear-softmax surrogate.
"""

import csv
import math
import warnings

import numpy as np

from .core import FunctionOracle, require_numbers


class RidgeProblem(FunctionOracle):
    """f_i(theta) = (x_i . theta - y_i)^2 + (lam/2) ||theta||^2.

    Exact per-component gradients 2 (x_i . theta - y_i) x_i + lam * theta
    are exposed for the exact twin ``vr.ExactComponentEstimator``.

    The data are fixed at construction: X and y are read-only copies,
    and ``_y`` and ``_half_lam`` cache y and lam / 2 as Python floats.
    ``_rows`` holds the rows of X as views, one ``X[i]`` fewer per call;
    pickles leave it out, as each view would pickle a copy of its row.
    """

    def __init__(self, X, y, lam, theta_star=None):
        X = np.array(X, dtype=np.float64)
        y = np.array(y, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] < 1 or y.shape != (X.shape[0],):
            raise ValueError("X must be (n, d) with n >= 1 and y must be (n,)")
        if X.shape[1] < 1:
            raise ValueError("need d >= 1 features, got d=%d" % X.shape[1])
        for name, values in (("X", X), ("y", y)):
            bad = np.argwhere(~np.isfinite(values))
            if len(bad):
                raise ValueError("%s must be finite, got %s[%s]=%s" % (
                    name, name, ", ".join(map(str, bad[0])), values[tuple(bad[0])]))
        require_numbers(**{"lambda": lam}, least=0)
        X.flags.writeable = False
        y.flags.writeable = False
        self.X = X
        self._rows = tuple(X)
        self.y = y
        self._y = tuple(y.tolist())
        self.lam = float(lam)
        self._half_lam = 0.5 * self.lam
        self.n, self.d = X.shape
        self.minimizer = None if theta_star is None else np.asarray(theta_star, float)

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_rows"}

    def __setstate__(self, state):
        self.__dict__.update(state, _rows=tuple(state["X"]))

    # ``a.dot(b)`` is the same BLAS ddot as ``a @ b`` on 1-D float64
    # arrays, with half the call overhead; Python floats give the same
    # IEEE results as numpy scalars, faster.
    def component(self, i, theta):
        r = float(self._rows[i].dot(theta)) - self._y[i]
        return r * r + self._half_lam * float(theta.dot(theta))

    def component_gradient(self, i, theta):
        x = self._rows[i]
        return 2.0 * (float(x.dot(theta)) - self._y[i]) * x + self.lam * theta

    def mean_value(self, theta):
        r = self.X @ theta - self.y
        return float(r @ r) / self.n + 0.5 * self.lam * float(theta @ theta)

    def mean_gradient(self, theta):
        r = self.X @ theta - self.y
        return (2.0 / self.n) * (self.X.T @ r) + self.lam * theta

    def rho_bounds(self):
        """(rho_minus, rho_plus) proxy: extreme eigenvalues of
        (2/n) X^T X + lam I. A conservative stand-in for the restricted
        constants, which are intractable to compute exactly.
        """
        hess = (2.0 / self.n) * (self.X.T @ self.X) + self.lam * np.eye(self.d)
        eigs = np.linalg.eigvalsh(hess)
        return float(eigs[0]), float(eigs[-1])


def standardize_columns(X):
    """Center each column and scale to unit sample std (n-1 denominator).
    Constant columns are left at zero with a warning.
    """
    X = np.array(X, dtype=np.float64)
    mean = X.mean(axis=0)
    X -= mean
    std = X.std(axis=0, ddof=1) if X.shape[0] > 1 else np.zeros(X.shape[1])
    constant = std == 0.0
    if np.any(constant):
        warnings.warn(
            "constant column(s) %s left at zero after centering"
            % np.flatnonzero(constant).tolist()
        )
        std = np.where(constant, 1.0, std)
    return X / std


def ridge_synthetic(n, d, lam, rng, sparse_kstar=None, standardize=True):
    """Synthetic ridge instance: rows x_i uniform in the unit l2 ball
    (normal direction times U^(1/d) radius), generating model from a
    standard normal, targets y_i = x_i . theta_star, then columns
    standardized. Pass ``sparse_kstar`` to zero all but that many random
    coordinates of the generating model, and ``standardize=False`` to
    keep y = X theta_star exact (sparse-recovery diagnostics). Only then is
    the generating model the instance's ``minimizer``: standardized
    instances carry none, since it fits the raw columns, not theirs.
    """
    if n < 1 or d < 1:
        raise ValueError("need n, d >= 1, got n=%s d=%s" % (n, d))
    directions = rng.standard_normal((n, d))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    radii = rng.uniform(size=n) ** (1.0 / d)
    X = directions * radii[:, None]
    theta_star = rng.standard_normal(d)
    if sparse_kstar is not None:
        if not 0 <= sparse_kstar <= d:
            raise ValueError("sparse_kstar out of range, got %s for d=%s" % (sparse_kstar, d))
        keep = rng.choice(d, size=sparse_kstar, replace=False)
        sparse = np.zeros(d)
        sparse[keep] = theta_star[keep]
        theta_star = sparse
    y = X @ theta_star
    if standardize:
        X = standardize_columns(X)
    return RidgeProblem(X, y, lam, None if standardize else theta_star)


def ridge_from_csv(path, target_column, lam):
    """Load a ridge instance from a headered all-numeric CSV.

    Feature columns are standardized; the target column is used as-is.
    Parse failures report the offending row and column.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty file: %s" % path)
        header = [h.strip() for h in header]
        if target_column not in header:
            raise ValueError(
                "target column %r not found; available: %s" % (target_column, header)
            )
        if header.count(target_column) > 1:
            raise ValueError("target column %r appears %d times in the header"
                             % (target_column, header.count(target_column)))
        if len(header) < 2:
            raise ValueError("no feature column besides the target %r in %s"
                             % (target_column, path))
        target_idx = header.index(target_column)
        rows = []
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    "row %d has %d cells, expected %d" % (row_num, len(row), len(header))
                )
            parsed = []
            for col, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        "non-numeric cell at row %d, column %r: %r"
                        % (row_num, header[col], cell)
                    )
                if not math.isfinite(value):
                    raise ValueError("non-finite cell at row %d, column %r: %r"
                                     % (row_num, header[col], cell))
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise ValueError("no data rows in %s" % path)
    data = np.asarray(rows, dtype=np.float64)
    y = data[:, target_idx]
    X = np.delete(data, target_idx, axis=1)
    return RidgeProblem(standardize_columns(X), y, lam)


# -- black-box attack objective ----------------------------------------------

PIXEL_LO, PIXEL_HI = -0.5, 0.5
# Read-only 0-d arrays: clipping converts no Python float per call.
_LO, _HI = np.array(PIXEL_LO), np.array(PIXEL_HI)
_LO.flags.writeable = _HI.flags.writeable = False


class BlackBoxClassifier:
    """Score oracle over flattened images in [-0.5, 0.5]^d: exposes only
    log-probabilities, never gradients."""

    num_classes = None

    def log_probs(self, x):
        raise NotImplementedError


class LinearSoftmaxClassifier(BlackBoxClassifier):
    """Fixed random-weight linear scorer with log-softmax outputs. The
    weights and bias are read-only copies in the caller's memory layout."""

    def __init__(self, weights, bias):
        self.weights = np.array(weights, dtype=np.float64)
        self.bias = np.array(bias, dtype=np.float64)
        self.weights.flags.writeable = self.bias.flags.writeable = False
        self.num_classes = self.weights.shape[0]

    def log_probs(self, x):
        # scores - logsumexp(scores) with numpy's bits: ``.dot`` is the
        # same gemv as ``@``, and ``np.add.reduce`` keeps the pairwise sum
        # order. The builtin ``max`` can differ from numpy's only in the
        # sign of a zero maximum, which the result does not depend on, or
        # with a nan score, which makes every output nan either way.
        scores = self.weights.dot(x)
        scores += self.bias
        m = max(scores.tolist())
        t = scores - m
        np.exp(t, out=t)
        scores -= m + np.log(np.add.reduce(t))
        return scores


def surrogate_classifier(d_image, num_classes, rng):
    """Deterministic-per-seed linear-softmax stand-in for a pretrained
    network."""
    weights = rng.standard_normal((num_classes, d_image))
    bias = 0.1 * rng.standard_normal(num_classes)
    return LinearSoftmaxClassifier(weights, bias)


class CwAttackProblem(FunctionOracle):
    """Universal sparse-perturbation objective: for each image,
    f_i(theta) = max(F_true(clip(x_i + theta)) - max_other F_j(...), 0).

    Driving the hinge to zero flips the prediction, so the solvers'
    descent orientation applies directly. Values are always >= 0. The
    images and labels are fixed at construction as read-only copies.
    ``component`` is the attack loss f_i: it clips through
    ``attacked_image`` and computes the hinge itself.
    """

    def __init__(self, images, labels, classifier):
        images = np.array(images, dtype=np.float64)
        if images.ndim != 2 or images.shape[0] < 1:
            raise ValueError("images must be (n, d) with n >= 1")
        if images.shape[1] < 1:
            raise ValueError("need d >= 1 pixels, got d=%d" % images.shape[1])
        num_classes = classifier.num_classes
        if num_classes is None or num_classes < 2:
            raise ValueError("need num_classes >= 2, got %s" % (num_classes,))
        if not ((images >= PIXEL_LO) & (images <= PIXEL_HI)).all():
            raise ValueError("images must lie in [%g, %g]" % (PIXEL_LO, PIXEL_HI))
        labels = np.array(labels, dtype=np.intp)
        if labels.shape != (images.shape[0],):
            raise ValueError("labels must be (n,)")
        if np.any(labels < 0) or np.any(labels >= classifier.num_classes):
            raise ValueError("label out of range")
        # component pops the true class and takes the max of the rest, so a
        # short output would misread or lose a class on every probe.
        got = np.size(classifier.log_probs(images[0].copy()))
        if got != num_classes:
            raise ValueError("classifier returned %d log-probs for num_classes=%d"
                             % (got, num_classes))
        images.flags.writeable = False
        labels.flags.writeable = False
        self.images = images
        self.labels = labels
        self._labels = labels.tolist()
        self.classifier = classifier
        self.n, self.d = images.shape

    def component(self, i, theta):
        """Hinge margin of the true class over the best other class at the
        clipped perturbed image.

        The classifier sees a fresh array, and the array its ``log_probs``
        returns is only read, never written, so a classifier may hand back
        its own storage.
        """
        x = self.attacked_image(i, theta)
        lp = np.asarray(self.classifier.log_probs(x), dtype=np.float64).tolist()
        # A finite sum proves every entry finite (see FunctionOracle).
        if not math.isfinite(sum(lp)) and not all(map(math.isfinite, lp)):
            raise ArithmeticError("classifier returned non-finite log-probs")
        true = lp.pop(self._labels[i])
        # lp now holds the rivals in class order. Of equal floats the builtin
        # max keeps the first and numpy's max the last, which differ only for
        # a best rival of +-0.0; that one comes from numpy.
        rival = max(lp)
        if rival == 0.0:
            rival = float(np.max(lp))
        return max(true - rival, 0.0)

    def attacked_image(self, i, theta):
        """images[i] + theta clipped to the pixel box, as a fresh array
        (the values of ``np.clip``, nan and -0.0 included)."""
        x = self.images[i] + theta
        np.maximum(x, _LO, out=x)
        np.minimum(x, _HI, out=x)
        return x


def attack_surrogate_problem(n, d_image, num_classes, rng):
    """Random images labeled by the surrogate's own prediction, so every
    hinge starts at the classifier's decision margin (> 0 generically)."""
    if num_classes < 2:
        raise ValueError("need num_classes >= 2, got %d" % num_classes)
    if d_image < 1:
        raise ValueError("need d >= 1 pixels, got d=%d" % d_image)
    classifier = surrogate_classifier(d_image, num_classes, rng)
    images = rng.uniform(PIXEL_LO, PIXEL_HI, size=(n, d_image))
    labels = np.array(
        [int(np.argmax(classifier.log_probs(images[i]))) for i in range(n)]
    )
    return CwAttackProblem(images, labels, classifier)
