"""Op census profiler."""

import numpy as np
import pytest

from repro.nn import Linear, Tensor, no_grad
from repro.nn.profiler import profile


class TestProfile:
    def test_counts_ops(self):
        with profile() as report:
            x = Tensor(np.ones((4, 4)), requires_grad=True)
            y = (x * 2 + 1).relu()
            y.sum().backward()
        assert report.ops["mul"].count == 1
        assert report.ops["add"].count == 1
        assert report.ops["relu"].count == 1
        assert report.ops["sum"].count == 1
        assert report.total_nodes == 4

    def test_element_accounting(self):
        with profile() as report:
            x = Tensor(np.ones((3, 5)))
            _ = x * 2
        assert report.ops["mul"].elements == 15
        assert report.total_elements == 15

    def test_wall_time_positive(self):
        with profile() as report:
            _ = Tensor(np.ones(10)) + 1
        assert report.wall_seconds > 0

    def test_fault_and_system_time_deltas(self):
        pytest.importorskip("resource")
        with profile() as report:
            arrays = [np.ones(2 * 1024 * 1024 // 8) for _ in range(8)]
            del arrays
        assert isinstance(report.minor_faults, int)
        assert report.minor_faults >= 0
        assert report.system_seconds >= 0.0
        assert "minor faults" in report.render()

    def test_restores_make_after_block(self):
        original = Tensor.__dict__["_make"].__func__
        with profile():
            pass
        assert Tensor.__dict__["_make"].__func__ is original

    def test_restores_after_exception(self):
        original = Tensor.__dict__["_make"].__func__
        with pytest.raises(RuntimeError):
            with profile():
                raise RuntimeError("boom")
        assert Tensor.__dict__["_make"].__func__ is original

    def test_works_under_no_grad(self):
        with profile() as report:
            with no_grad():
                _ = Tensor(np.ones(3)).tanh()
        assert report.ops["tanh"].count == 1

    def test_nested_model_profile(self, rng):
        layer = Linear(8, 4, rng=np.random.default_rng(0))
        with profile() as report:
            layer(Tensor(np.ones((2, 8)))).sum().backward()
        # one fused linear node (matmul and bias add) + sum
        assert report.ops["linear"].count == 1
        assert report.total_nodes == 2

    def test_render_and_top(self):
        with profile() as report:
            x = Tensor(np.ones((100,)))
            _ = x * 2
            _ = x + 1
            _ = x + 2
        top = report.top(1, by="count")
        assert top[0][0] == "add"
        text = report.render()
        assert "add" in text and "mul" in text
        assert "wall time" in text
        with pytest.raises(ValueError):
            report.top(by="speed")

    def test_architecture_contrast(self, ci_dataset):
        """Sequential RNN creates far more graph nodes than a TCN."""
        from repro.models import create_model
        x = Tensor(ci_dataset.supervised.train.x[:2])
        dcrnn = create_model("dcrnn", ci_dataset.num_nodes,
                             ci_dataset.adjacency, seed=0)
        gwnet = create_model("graph-wavenet", ci_dataset.num_nodes,
                             ci_dataset.adjacency, seed=0)
        with no_grad():
            dcrnn.eval(), gwnet.eval()
            with profile() as rnn_report:
                dcrnn(x)
            with profile() as tcn_report:
                gwnet(x)
        assert rnn_report.total_nodes > 2 * tcn_report.total_nodes
