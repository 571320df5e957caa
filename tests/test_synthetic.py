import numpy as np
import numpy.testing as npt
import pytest

from kssnet import synthetic


@pytest.mark.parametrize("n_labels, size, weak_amp", [
    (8, 16, 0.35), (16, 16, 0.5), (6, 12, 0.35), (4, 18, 2.0),
])
def test_render_images_paints_each_present_label_in_its_own_block(n_labels, size, weak_amp):
    # without noise, each present label adds its amplitude to its own 4x4
    # block on channel label % 3, and every other pixel is 0
    rng = np.random.default_rng(n_labels)
    y = synthetic.sample_label_matrix(30, n_labels, rng)
    x = synthetic.render_images(y, rng, size, weak_amp, 0.0)
    ref = np.zeros((len(y), 3, size, size))
    for i, label in zip(*np.nonzero(y)):
        r, c = divmod(label, size // 4)
        amp = synthetic._STRONG_AMP if label < n_labels // 2 else weak_amp
        for u in range(4):
            for v in range(4):
                ref[i, label % 3, 4 * r + u, 4 * c + v] += amp
    assert 0 < y.sum() < y.size
    npt.assert_array_equal(x, ref)
