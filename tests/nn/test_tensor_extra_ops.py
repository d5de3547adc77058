"""Index ops that return plain numpy: argmax/argmin."""

import numpy as np

from repro.nn import Tensor


class TestArgOps:
    def test_argmax_plain_numpy(self, rng):
        data = rng.normal(size=(3, 4))
        x = Tensor(data)
        np.testing.assert_array_equal(x.argmax(axis=1), data.argmax(axis=1))
        np.testing.assert_array_equal(x.argmin(), data.argmin())
