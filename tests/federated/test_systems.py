"""Tests for the wall-clock system model (time-to-accuracy)."""

import numpy as np
import pytest

from repro.federated import SystemModel
from repro.federated.history import History, RoundRecord


def record(round_index, accuracy, participants, steps, nbytes, **extra):
    return RoundRecord(
        round_index=round_index,
        test_accuracy=accuracy,
        train_loss=1.0,
        participants=participants,
        bytes_communicated=nbytes,
        client_steps=steps,
        **extra,
    )


def charge(model, participants, steps, nbytes, **extra):
    """``model``'s charge for one round with these fields."""
    return model.round_duration(record(0, None, participants, steps, nbytes, **extra))


def history(*records):
    h = History()
    for r in records:
        h.append(r)
    return h


class TestValidation:
    def test_step_time_positive(self):
        with pytest.raises(ValueError):
            SystemModel(step_time=0.0)

    def test_speeds_positive(self):
        with pytest.raises(ValueError):
            SystemModel(compute_speeds=(1.0, 0.0))

    def test_bandwidths_positive(self):
        with pytest.raises(ValueError):
            SystemModel(bandwidths=(-1.0,))

    def test_overhead_nonnegative(self):
        with pytest.raises(ValueError):
            SystemModel(server_overhead=-1.0)

    def test_steps_participants_alignment(self):
        model = SystemModel()
        with pytest.raises(ValueError):
            charge(model, [0, 1], [5], 100)


class TestRoundDuration:
    def test_homogeneous_round(self):
        model = SystemModel(step_time=0.1, default_bandwidth=1000.0)
        # 2 parties, 10 steps each, 2000 bytes total => 1000 bytes each.
        duration = charge(model, [0, 1], [10, 10], 2000)
        assert duration == pytest.approx(10 * 0.1 + 1.0)

    def test_waits_for_slowest_party(self):
        model = SystemModel(step_time=0.1, compute_speeds=(1.0, 0.25))
        duration = charge(model, [0, 1], [10, 10], 0)
        # party 1 runs at quarter speed: 10 * 0.1 / 0.25 = 4 seconds.
        assert duration == pytest.approx(4.0)

    def test_bandwidth_matters(self):
        fast = SystemModel(step_time=1e-9, default_bandwidth=1e6)
        slow = SystemModel(step_time=1e-9, default_bandwidth=1e3)
        nbytes = 10_000
        assert charge(slow, [0], [1], nbytes) > charge(fast, [0], [1], nbytes)

    def test_server_overhead_added(self):
        model = SystemModel(step_time=0.1, server_overhead=5.0)
        assert charge(model, [0], [1], 0) == pytest.approx(5.1)

    def test_empty_round(self):
        model = SystemModel(server_overhead=2.0)
        assert charge(model, [], [], 0) == 2.0


class TestDirectionalCharging:
    """Regression: per-direction byte fields must drive the transfer time.

    The old model split ``bytes_communicated`` evenly regardless of the
    ``bytes_down``/``bytes_up`` breakdown PR 2 started recording, which
    under-charged parties with asymmetric or per-client-varying uplinks.
    """

    def test_uses_direction_fields_over_aggregate(self):
        model = SystemModel(step_time=1e-12, default_bandwidth=100.0)
        # When the breakdown is present, the aggregate (here deliberately
        # inconsistent) must be ignored in favour of down/up fields.
        duration = charge(
            model, [0, 1], [1, 1], 1000, bytes_down=200, bytes_up=0
        )
        assert duration == pytest.approx(100 / 100.0)

    def test_per_client_uplink_charged_to_its_party(self):
        model = SystemModel(step_time=1e-12, default_bandwidth=100.0)
        uneven = charge(
            model, [0, 1], [1, 1], 400,
            bytes_down=200, bytes_up=200, client_bytes_up=[190, 10],
        )
        # The slowest party carries 100 (down) + 190 (its uplink).
        assert uneven == pytest.approx(290 / 100.0)
        even = charge(
            model, [0, 1], [1, 1], 400, bytes_down=200, bytes_up=200
        )
        assert even == pytest.approx(200 / 100.0)

    def test_completer_pays_one_broadcast_when_parties_drop(self):
        # The broadcast went to all four sampled parties; the two that
        # dropped do not hand their downlink to the two completers.
        model = SystemModel(step_time=1e-12, default_bandwidth=100.0)
        duration = charge(
            model, [0, 2], [1, 1], 400, bytes_down=400, sampled=[0, 1, 2, 3]
        )
        assert duration == pytest.approx(100 / 100.0)

    def test_legacy_records_keep_even_split(self):
        model = SystemModel(step_time=1e-12, default_bandwidth=100.0)
        legacy = charge(model, [0, 1], [1, 1], 400)
        assert legacy == pytest.approx(200 / 100.0)

    def test_straggler_slowdown_charged(self):
        model = SystemModel(step_time=0.1)
        slowed = charge(
            model, [0, 1], [10, 10], 0, slowdowns=[1.0, 3.0]
        )
        assert slowed == pytest.approx(3.0)

    def test_mismatched_lengths_rejected(self):
        model = SystemModel()
        with pytest.raises(ValueError):
            charge(model, [0, 1], [1, 1], 0, slowdowns=[1.0])
        with pytest.raises(ValueError):
            charge(
                model, [0, 1], [1, 1], 0, bytes_down=10, client_bytes_up=[5]
            )

    def test_replay_scaffold_history(self):
        # SCAFFOLD's uplink carries the control-variate delta on top of
        # the model state; the directional replay must charge its real
        # per-client uplink, not an even split of the aggregate.
        from repro import run_federated_experiment
        from repro.experiments.scale import SMOKE

        outcome = run_federated_experiment(
            "adult", "iid", "scaffold", preset=SMOKE, seed=0
        )
        rec = outcome.history.records[0]
        assert rec.client_bytes_up and sum(rec.client_bytes_up) == rec.bytes_up
        model = SystemModel(step_time=1e-12, default_bandwidth=1e3)
        duration = model.round_duration(rec)
        n = len(rec.participants)
        expected = (rec.bytes_down / n + max(rec.client_bytes_up)) / 1e3
        assert duration == pytest.approx(expected)
        assert model.replay(outcome.history)[0] == duration


class TestReplay:
    def test_cumulative(self):
        h = history(
            record(0, 0.5, [0], [10], 0),
            record(1, 0.6, [0], [10], 0),
        )
        model = SystemModel(step_time=0.1)
        np.testing.assert_allclose(model.replay(h), [1.0, 2.0])

    def test_time_to_accuracy(self):
        h = history(
            record(0, 0.5, [0], [10], 0),
            record(1, 0.8, [0], [10], 0),
        )
        model = SystemModel(step_time=0.1)
        assert model.time_to_accuracy(h, 0.7) == pytest.approx(2.0)
        assert model.time_to_accuracy(h, 0.4) == pytest.approx(1.0)

    def test_unreached_target_is_inf(self):
        h = history(record(0, 0.5, [0], [10], 0))
        assert SystemModel().time_to_accuracy(h, 0.99) == float("inf")

    def test_accuracy_time_curve_skips_unevaluated(self):
        h = history(
            record(0, None, [0], [10], 0),
            record(1, 0.8, [0], [10], 0),
        )
        times, accs = SystemModel(step_time=0.1).accuracy_time_curve(h)
        assert len(times) == 1
        np.testing.assert_allclose(accs, [0.8])

    def test_doubled_bytes_double_transfer_time(self):
        # SCAFFOLD's 2x payload becomes 2x transfer time per round.
        model = SystemModel(step_time=1e-12, default_bandwidth=100.0)
        h1 = history(record(0, 0.5, [0], [1], 100))
        h2 = history(record(0, 0.5, [0], [1], 200))
        assert model.replay(h2)[0] == pytest.approx(2 * model.replay(h1)[0])


class TestEndToEnd:
    def test_replay_real_history(self):
        from repro import run_federated_experiment
        from repro.experiments.scale import SMOKE

        outcome = run_federated_experiment("adult", "iid", "fedavg", preset=SMOKE, seed=0)
        model = SystemModel(step_time=0.01, default_bandwidth=1e6)
        times = model.replay(outcome.history)
        assert len(times) == len(outcome.history)
        assert (np.diff(times) > 0).all()
