"""Tests for availability accounting and ``ElectLeader_r`` under fault bursts.

The accounting tests drive :class:`AvailabilityAccounting` with scripted
bursts (no corruption), so repair times can be checked exactly.  The
availability tests run the ``scramble_burst`` model — the object-layout
single-agent scrambler for ``ElectLeader_r`` — through
:class:`~repro.sim.fault_engine.FaultEngine` on the object backend.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")

from repro.adversary.initializers import correct_verifier_configuration  # noqa: E402
from repro.core.elect_leader import ElectLeader  # noqa: E402
from repro.core.params import ProtocolParams  # noqa: E402
from repro.sim.backends import make_simulation  # noqa: E402
from repro.sim.fault_engine import FaultEngine  # noqa: E402
from repro.sim.faults import AvailabilityAccounting, FaultEvent  # noqa: E402
from repro.sim.initial_state import ObjectConfig  # noqa: E402


@pytest.fixture
def protocol() -> ElectLeader:
    return ElectLeader(ProtocolParams(n=16, r=4))


def verified_sim(protocol: ElectLeader, seed: int):
    """An object-engine simulation started from a correct configuration."""
    return make_simulation(
        protocol, init=ObjectConfig(correct_verifier_configuration(protocol)), seed=seed
    )


def scramble_engine(protocol: ElectLeader, *, rate: float, burst_size: int, seed: int):
    return FaultEngine(
        "scramble_burst", protocol, n=protocol.n, rate=rate,
        burst_size=burst_size, seed=seed,
    )


def unique_leader(protocol: ElectLeader):
    return lambda config: protocol.leader_count(config) == 1


def scripted_report(bursts, *, total_interactions: int, checkpoint_every: int):
    """Account scripted bursts against always-correct checkpoints."""
    accounting = AvailabilityAccounting()
    events: list[FaultEvent] = []
    for now in range(checkpoint_every, total_interactions + 1, checkpoint_every):
        events.extend(
            FaultEvent(burst) for burst in bursts if now - checkpoint_every < burst <= now
        )
        accounting.note_events(events)
        accounting.checkpoint(now, True)
    return accounting.report(
        total_interactions=total_interactions, fault_bursts=len(events)
    )


class TestScrambleBursts:
    def test_bursts_arrive_at_roughly_the_requested_rate(self, protocol):
        engine = scramble_engine(protocol, rate=0.01, burst_size=1, seed=1)
        # 80 000 interactions = 5000 parallel time → expect ~50 bursts.
        engine.measure_availability(
            verified_sim(protocol, 2), unique_leader(protocol),
            total_interactions=80_000, checkpoint_every=80_000,
        )
        assert 20 <= engine.fault_bursts <= 100

    def test_burst_corrupts_requested_number_of_agents(self, protocol):
        sim = verified_sim(protocol, 4)
        before = list(sim.config)
        engine = scramble_engine(protocol, rate=1.0, burst_size=3, seed=3)
        engine.fire(0, sim.apply_fault)
        assert sum(old is not new for old, new in zip(before, sim.config)) == 3
        assert [event.interaction for event in engine.events] == [0]

    def test_corrupted_states_remain_well_formed(self, protocol):
        sim = verified_sim(protocol, 6)
        engine = scramble_engine(protocol, rate=0.5, burst_size=2, seed=5)
        engine.measure_availability(
            sim, unique_leader(protocol), total_interactions=2_000, checkpoint_every=500
        )
        assert engine.events
        assert all(agent.consistent() for agent in sim.config)


class TestAvailability:
    def test_low_fault_rate_high_availability(self, protocol):
        engine = scramble_engine(protocol, rate=0.002, burst_size=1, seed=7)
        report = engine.measure_availability(
            verified_sim(protocol, 8), unique_leader(protocol),
            total_interactions=60_000, checkpoint_every=500,
        )
        assert report.checkpoints == 120
        assert report.availability > 0.7

    def test_availability_decreases_with_fault_rate(self, protocol):
        availabilities = []
        for rate, seed in ((0.001, 10), (0.3, 11)):
            engine = scramble_engine(protocol, rate=rate, burst_size=2, seed=seed)
            report = engine.measure_availability(
                verified_sim(protocol, seed + 1), unique_leader(protocol),
                total_interactions=60_000, checkpoint_every=500,
            )
            availabilities.append(report.availability)
        assert availabilities[0] > availabilities[1]

    def test_one_repair_sample_per_burst(self):
        # Regression: the checkpoint loop used to overwrite its pending
        # burst with the *latest* one, so of several bursts landing before
        # a correct checkpoint only the last produced a repair sample and
        # earlier bursts were silently dropped.  The docstring contract is
        # one sample per burst, measured to the first correct checkpoint.
        report = scripted_report(
            [100, 300], total_interactions=1_000, checkpoint_every=500
        )
        assert report.fault_bursts == 2
        # Both bursts repair at the checkpoint after interaction 500:
        # 500 - 100 and 500 - 300 — not just the latest burst's 200.
        assert report.repair_times == [400, 200]
        assert report.availability == 1.0

    def test_repair_measured_from_each_bursts_own_checkpoint(self):
        report = scripted_report(
            [100, 700], total_interactions=1_000, checkpoint_every=500
        )
        # Bursts in different checkpoint windows repair independently.
        assert report.repair_times == [400, 300]

    def test_repair_times_recorded(self, protocol):
        engine = scramble_engine(protocol, rate=0.05, burst_size=2, seed=12)
        report = engine.measure_availability(
            verified_sim(protocol, 13), unique_leader(protocol),
            total_interactions=100_000, checkpoint_every=500,
        )
        assert report.fault_bursts > 0
        assert report.repair_times, "no repairs were ever observed"
        assert report.median_repair_interactions > 0
