"""The unified training engine: parity, callbacks, resume, schedules."""

import dataclasses

import numpy as np
import pytest

from repro.core import TrainingConfig, mae, predict, train_model
from repro.models import create_model
from repro.nn import Module, Parameter, Tensor
from repro.obs import EventBus, MemorySink
from repro.train import (Callback, CheckpointCallback, Engine,
                         default_callbacks)

FAST = TrainingConfig(epochs=2, batch_size=32, max_batches_per_epoch=3,
                      learning_rate=0.01)


def linear(ci_dataset, seed=0):
    return create_model("linear", ci_dataset.num_nodes,
                        ci_dataset.adjacency, seed=seed)


class CaptureOptimizer(Callback):
    """Exposes the engine's optimizer as ``self.optimizer``."""

    optimizer = None

    def on_fit_start(self, state):
        self.optimizer = state.optimizer


def capturing_engine(config):
    """An engine with the default callbacks plus a :class:`CaptureOptimizer`;
    returns ``(engine, capture)``."""
    capture = CaptureOptimizer()
    engine = Engine(config, callbacks=default_callbacks(config) + [capture])
    return engine, capture


class TestEngineParity:
    def test_fit_equals_train_model(self, ci_dataset):
        """``train_model`` is the engine; identical seeds, identical runs."""
        model_a = linear(ci_dataset)
        history_a = train_model(model_a, ci_dataset, FAST, seed=0)
        model_b = linear(ci_dataset)
        history_b = Engine(FAST).fit(model_b, ci_dataset, seed=0)
        assert history_a.train_losses == history_b.train_losses
        assert history_a.val_maes == history_b.val_maes
        assert history_a.best_epoch == history_b.best_epoch
        for (name, pa), (_, pb) in zip(model_a.named_parameters(),
                                       model_b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data, err_msg=name)

    def test_event_sequence_matches_legacy_loop(self, ci_dataset):
        """Three ``batch_end`` then one ``epoch_end`` per epoch, 1-based."""
        config = dataclasses.replace(FAST, grad_clip=1e9)   # never rescales
        sink = MemorySink()
        history = Engine(config).fit(linear(ci_dataset), ci_dataset,
                                     seed=0, bus=EventBus([sink]))
        kinds = [e.kind for e in sink.events if e.kind != "span"]
        assert kinds == (["batch_end"] * 3 + ["epoch_end"]) * 2

        batches = sink.of_kind("batch_end")
        assert [(e.epoch, e.batch) for e in batches] == [
            (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]
        for epoch_index, event in enumerate(sink.of_kind("epoch_end")):
            assert event.epoch == epoch_index + 1
            assert event.total_epochs == config.epochs
            assert event.train_loss == history.train_losses[epoch_index]
            assert event.val_mae == history.val_maes[epoch_index]
            assert event.seconds == history.epoch_seconds[epoch_index]

    def test_verbose_console_output_byte_identical(self, ci_dataset,
                                                   capsys):
        config = dataclasses.replace(FAST, verbose=True)
        history = Engine(config).fit(linear(ci_dataset), ci_dataset, seed=0)
        out = capsys.readouterr().out
        expected = "".join(
            f"  epoch {epoch + 1}/{config.epochs} "
            f"loss={history.train_losses[epoch]:.4f} "
            f"val_mae={history.val_maes[epoch]:.4f} "
            f"({history.epoch_seconds[epoch]:.1f}s)\n"
            for epoch in range(config.epochs))
        assert out == expected

    def test_default_optimizer_is_fused_arena_adam(self, ci_dataset):
        engine, capture = capturing_engine(FAST)
        model = linear(ci_dataset)
        engine.fit(model, ci_dataset, seed=0)
        optimizer = capture.optimizer
        assert optimizer.arena is not None
        assert optimizer.arena.covers(model.parameters())
        assert optimizer.weight_decay == FAST.weight_decay


class TestGradClipTelemetry:
    def test_emitted_only_when_rescaling(self, ci_dataset):
        sink = MemorySink()
        config = dataclasses.replace(FAST, grad_clip=1e-9)  # always clips
        Engine(config).fit(linear(ci_dataset), ci_dataset, seed=0,
                           bus=EventBus([sink]))
        kinds = [e.kind for e in sink.events if e.kind != "span"]
        assert kinds == ((["grad_clip", "batch_end"] * 3 + ["epoch_end"])
                         * 2)
        for event in sink.of_kind("grad_clip"):
            assert event.norm > event.max_norm
            assert event.max_norm == 1e-9

    def test_silent_when_inside_ball(self, ci_dataset):
        sink = MemorySink()
        config = dataclasses.replace(FAST, grad_clip=1e9)
        Engine(config).fit(linear(ci_dataset), ci_dataset, seed=0,
                           bus=EventBus([sink]))
        assert sink.of_kind("grad_clip") == []

    def test_disabled_clipping_skips_entirely(self, ci_dataset):
        sink = MemorySink()
        config = dataclasses.replace(FAST, grad_clip=0.0)
        history = Engine(config).fit(linear(ci_dataset), ci_dataset,
                                     seed=0, bus=EventBus([sink]))
        assert sink.of_kind("grad_clip") == []
        assert len(history.train_losses) == config.epochs


class FrozenModel(Module):
    """Has parameters, but its training loss is a constant (no gradient)."""

    def __init__(self):
        super().__init__()
        self.w = Parameter(np.ones(3))

    def forward(self, x):
        return x

    def training_loss(self, x, y):
        return Tensor(np.asarray(1.0))


class TestUntrainableModels:
    def test_detected_before_first_epoch(self, ci_dataset):
        sink = MemorySink()
        model = FrozenModel()
        model.eval()
        history = Engine(FAST).fit(model, ci_dataset, seed=0,
                                   bus=EventBus([sink]))
        assert history.train_losses == []
        assert history.val_maes == []
        assert sink.events == []                 # not a single batch ran
        assert model.training is False           # no stale train() mode

    def test_parameter_free_baseline_skipped(self, ci_dataset):
        model = create_model("last-value", ci_dataset.num_nodes,
                             ci_dataset.adjacency)
        history = Engine(FAST).fit(model, ci_dataset, seed=0)
        assert history.train_losses == []


class Recorder(Callback):
    def __init__(self):
        self.calls = []

    def on_fit_start(self, state):
        self.calls.append("fit_start")

    def on_epoch_start(self, state):
        self.calls.append("epoch_start")

    def on_after_backward(self, state):
        self.calls.append("after_backward")

    def on_batch_end(self, state):
        self.calls.append("batch_end")

    def on_epoch_train_end(self, state):
        self.calls.append("epoch_train_end")

    def on_epoch_end(self, state):
        self.calls.append("epoch_end")

    def on_fit_end(self, state):
        self.calls.append("fit_end")


class TestCallbackProtocol:
    def test_hook_order(self, ci_dataset):
        recorder = Recorder()
        config = TrainingConfig(epochs=1, max_batches_per_epoch=1)
        Engine(config, callbacks=[recorder]).fit(linear(ci_dataset),
                                                 ci_dataset, seed=0)
        assert recorder.calls == [
            "fit_start", "epoch_start", "after_backward", "batch_end",
            "epoch_train_end", "epoch_end", "fit_end"]

    def test_callback_stop_request_honoured(self, ci_dataset):
        class StopNow(Callback):
            def on_epoch_end(self, state):
                state.stop = True

        config = TrainingConfig(epochs=5, max_batches_per_epoch=1)
        callbacks = default_callbacks(config) + [StopNow()]
        history = Engine(config, callbacks=callbacks).fit(
            linear(ci_dataset), ci_dataset, seed=0)
        assert len(history.train_losses) == 1

    def test_unknown_schedule_rejected_at_fit_start(self, ci_dataset):
        config = TrainingConfig(epochs=1, lr_schedule="linear-warmup")
        with pytest.raises(ValueError, match="unknown lr_schedule"):
            Engine(config).fit(linear(ci_dataset), ci_dataset, seed=0)


class TestScheduleAndPatience:
    def test_best_restore_keeps_scheduled_lr(self, ci_dataset):
        """Restoring the best weights must not resurrect the pre-schedule
        learning rate: the optimizer stays where the schedule left it."""
        config = TrainingConfig(epochs=4, max_batches_per_epoch=3,
                                learning_rate=0.1,
                                lr_schedule="exponential")
        engine, capture = capturing_engine(config)
        model = linear(ci_dataset)
        history = engine.fit(model, ci_dataset, seed=0)
        assert capture.optimizer.lr == pytest.approx(0.1 * 0.9 ** 4,
                                                         rel=1e-12)
        prediction, _ = predict(model, ci_dataset.supervised.val,
                                ci_dataset.supervised.scaler)
        final_val = mae(prediction, ci_dataset.supervised.val.y)
        assert final_val == pytest.approx(min(history.val_maes), rel=1e-9)

    def test_early_stop_leaves_lr_at_stopping_epoch(self, ci_dataset):
        config = TrainingConfig(epochs=50, max_batches_per_epoch=2,
                                learning_rate=0.3, patience=1,
                                lr_schedule="exponential")
        engine, capture = capturing_engine(config)
        history = engine.fit(linear(ci_dataset), ci_dataset, seed=0)
        epochs_ran = len(history.train_losses)
        assert epochs_ran < 50                  # patience actually fired
        assert capture.optimizer.lr == pytest.approx(
            0.3 * 0.9 ** epochs_ran, rel=1e-12)


class TestCheckpointResume:
    def test_resume_continues_epochs_and_schedule(self, ci_dataset,
                                                  tmp_path):
        path = tmp_path / "run.npz"
        full = TrainingConfig(epochs=4, max_batches_per_epoch=2,
                              learning_rate=0.1, lr_schedule="exponential")
        half = dataclasses.replace(full, epochs=2)

        callbacks = default_callbacks(half) + [CheckpointCallback(path)]
        Engine(half, callbacks=callbacks).fit(linear(ci_dataset),
                                              ci_dataset, seed=0)
        metadata = _peek_metadata(path, linear(ci_dataset))
        assert metadata["epoch"] == 2
        assert metadata["scheduler_epoch"] == 2
        assert "val_mae" in metadata

        engine, capture = capturing_engine(full)
        resumed = engine.fit(linear(ci_dataset, seed=5), ci_dataset,
                             seed=0, resume_from=path)
        assert len(resumed.train_losses) == 2   # epochs 3 and 4 only
        # The schedule continued from the restored counter: four total
        # decay steps, not a restart from the config learning rate.
        assert capture.optimizer.lr == pytest.approx(0.1 * 0.9 ** 4,
                                                         rel=1e-12)

    def test_checkpoint_every_n_epochs(self, ci_dataset, tmp_path):
        path = tmp_path / "run.npz"
        config = TrainingConfig(epochs=3, max_batches_per_epoch=1)
        sink = MemorySink()
        callbacks = default_callbacks(config) + [
            CheckpointCallback(path, every=2)]
        Engine(config, callbacks=callbacks).fit(
            linear(ci_dataset), ci_dataset, seed=0, bus=EventBus([sink]))
        saves = sink.of_kind("checkpoint_saved")
        assert len(saves) == 1                  # only epoch 2 qualifies
        assert _peek_metadata(path, linear(ci_dataset))["epoch"] == 2


def _peek_metadata(path, model):
    from repro.nn.checkpoint import load_checkpoint
    return load_checkpoint(path, model)


class TestEmptyEpochGuard:
    def test_max_batches_zero_rejected_upfront(self, ci_dataset):
        config = TrainingConfig(epochs=1, max_batches_per_epoch=0)
        with pytest.raises(ValueError, match="max_batches_per_epoch"):
            Engine(config).fit(linear(ci_dataset), ci_dataset, seed=0)

    def test_max_batches_negative_rejected(self, ci_dataset):
        config = TrainingConfig(epochs=1, max_batches_per_epoch=-3)
        with pytest.raises(ValueError, match="must be >= 1"):
            Engine(config).fit(linear(ci_dataset), ci_dataset, seed=0)

    def test_tiny_split_with_drop_last_loader_raises(self, ci_dataset):
        """A split smaller than one batch used to yield NaN epoch losses
        (np.mean of an empty list); now it fails loudly."""
        import repro.train.engine as engine_module
        from repro.datasets import DataLoader

        class DropLastLoader(DataLoader):
            def __init__(self, split, **kwargs):
                kwargs["drop_last"] = True
                super().__init__(split, **kwargs)

        config = TrainingConfig(epochs=1, batch_size=10 ** 6)
        engine = Engine(config)
        original = engine_module.DataLoader
        engine_module.DataLoader = DropLastLoader
        try:
            with pytest.raises(RuntimeError,
                               match="produced no training batches"):
                engine.fit(linear(ci_dataset), ci_dataset, seed=0)
        finally:
            engine_module.DataLoader = original


class TestTargetScalingHoist:
    def test_loader_targets_match_per_batch_transform(self, ci_dataset):
        """The hoisted target scaling must equal the historical per-batch
        ``scaler.transform(y)`` bit for bit."""
        from repro.datasets import DataLoader

        supervised = ci_dataset.supervised
        loader = DataLoader(supervised.train, batch_size=32, shuffle=True,
                            seed=0, target_scaler=supervised.scaler)
        reference = DataLoader(supervised.train, batch_size=32, shuffle=True,
                               seed=0)
        for (x, y_scaled, s), (x_ref, y_raw, s_ref) in zip(loader, reference):
            np.testing.assert_array_equal(x, x_ref)
            np.testing.assert_array_equal(s, s_ref)
            np.testing.assert_array_equal(
                y_scaled, supervised.scaler.transform(y_raw))

    def test_loss_parity_with_per_batch_transform(self, ci_dataset):
        """Training with hoisted scaling reproduces the legacy loop's
        losses exactly (same floats into the same loss)."""
        from repro.datasets import DataLoader
        from repro.nn.optim import Adam, clip_grad_norm

        supervised = ci_dataset.supervised
        config = FAST

        engine_model = linear(ci_dataset)
        engine_history = Engine(config).fit(engine_model, ci_dataset, seed=0)

        legacy_model = linear(ci_dataset)
        optimizer = Adam(legacy_model.flatten_parameters(),
                         lr=config.learning_rate,
                         weight_decay=config.weight_decay)
        loader = DataLoader(supervised.train, batch_size=config.batch_size,
                            shuffle=True, seed=0)
        legacy_losses = []
        for epoch in range(config.epochs):
            legacy_model.train()
            epoch_losses = []
            for batch_index, (x, y, _) in enumerate(loader):
                if batch_index >= config.max_batches_per_epoch:
                    break
                y_scaled = supervised.scaler.transform(y)   # per batch
                loss = legacy_model.training_loss(Tensor(x), Tensor(y_scaled))
                optimizer.zero_grad()
                loss.backward(free_graph=True)
                clip_grad_norm(optimizer.arena, config.grad_clip)
                optimizer.step()
                epoch_losses.append(loss.item())
            legacy_losses.append(float(np.mean(epoch_losses)))
        assert engine_history.train_losses == legacy_losses
        for (name, pa), (_, pb) in zip(engine_model.named_parameters(),
                                       legacy_model.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data, err_msg=name)
