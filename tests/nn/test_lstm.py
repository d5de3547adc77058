"""The LSTM cell and the model summary utility."""

import numpy as np
import pytest

from repro.nn import LSTMCell, Tensor
from repro.nn.summary import summarize


@pytest.fixture
def gen():
    return np.random.default_rng(3)


class TestLSTMCell:
    def test_output_shapes(self, gen):
        cell = LSTMCell(4, 6, rng=gen)
        h, c = cell(Tensor(np.ones((2, 4))),
                    (Tensor(np.zeros((2, 6))), Tensor(np.zeros((2, 6)))))
        assert h.shape == (2, 6)
        assert c.shape == (2, 6)

    def test_forget_bias_initialised_to_one(self, gen):
        cell = LSTMCell(3, 5, rng=gen)
        np.testing.assert_array_equal(cell.bias.data[5:10], 1.0)
        np.testing.assert_array_equal(cell.bias.data[:5], 0.0)

    def test_hidden_bounded_by_tanh(self, gen):
        cell = LSTMCell(3, 4, rng=gen)
        h, c = (Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4))))
        for _ in range(20):
            h, c = cell(Tensor(np.full((1, 3), 10.0)), (h, c))
        assert np.all(np.abs(h.data) <= 1.0)

    def test_cell_state_accumulates(self, gen):
        """With saturated input/forget gates, c integrates g over time."""
        cell = LSTMCell(2, 3, rng=gen)
        h = Tensor(np.zeros((1, 3)))
        c = Tensor(np.zeros((1, 3)))
        _, c1 = cell(Tensor(np.ones((1, 2))), (h, c))
        _, c2 = cell(Tensor(np.ones((1, 2))), (h, c1))
        assert not np.allclose(c1.data, c2.data)


def own_params_by_path(text):
    """``{module path: own params}`` read back from a :func:`summarize`
    table, whose labels are indented two spaces per depth."""
    stack, own = [], {}
    for line in text.splitlines()[1:-1]:
        label, count, _ = line.rsplit(None, 2)
        depth = (len(label) - len(label.lstrip(" "))) // 2
        stack[depth:] = [label.strip()]
        own[".".join(stack[1:])] = int(count.replace(",", ""))
    return own


class TestSummary:
    def test_breakdown_sums_to_total(self, ci_dataset):
        from repro.models import create_model
        model = create_model("gman", ci_dataset.num_nodes,
                             ci_dataset.adjacency, seed=0)
        breakdown = own_params_by_path(summarize(model))
        assert sum(breakdown.values()) == model.num_parameters()

    def test_stsgcn_heads_dominate(self, ci_dataset):
        """The summary attributes STSGCN's Table III param count to the
        per-horizon heads."""
        from repro.models import create_model
        model = create_model("stsgcn", ci_dataset.num_nodes,
                             ci_dataset.adjacency, seed=0)
        breakdown = own_params_by_path(summarize(model))
        heads_total = sum(count for path, count in breakdown.items()
                          if path.startswith("heads"))
        assert heads_total > 0.5 * model.num_parameters()

    def test_render_contains_total(self, gen):
        from repro.nn import Linear, ModuleList
        model = ModuleList([Linear(4, 8, rng=gen), Linear(8, 2, rng=gen)])
        text = summarize(model)
        assert "TOTAL" in text
        assert f"{model.num_parameters():,}" in text

    def test_max_depth_truncates(self, ci_dataset):
        from repro.models import create_model
        model = create_model("dcrnn", ci_dataset.num_nodes,
                             ci_dataset.adjacency, seed=0)
        shallow = summarize(model, max_depth=1)
        deep = summarize(model)
        assert len(shallow.splitlines()) < len(deep.splitlines())
