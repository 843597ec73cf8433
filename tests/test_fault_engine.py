"""Tests for the backend-generic fault engine (models, schedule, drivers).

The headline contracts:

* the burst *schedule* (interaction indices and count) is bit-identical
  across the object/array/counts backends for a fixed seed — only the
  corruption realization is representation-shaped;
* the three appliers of each model are law-matched: the config and codes
  appliers consume identical draws (bit-identical bursts), and the counts
  applier's mass moves match the per-agent corruption marginals;
* the availability workload produces statistically indistinguishable
  results on every backend (overlapping bootstrap CIs).
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.analysis.stats import bootstrap_ci  # noqa: E402
from repro.baselines.cai_izumi_wada import CaiIzumiWada  # noqa: E402
from repro.baselines.loosely_stabilizing import (  # noqa: E402
    LooselyStabilizingLeaderElection,
)
from repro.core.elect_leader import ElectLeader  # noqa: E402
from repro.core.params import BaselineParams, ProtocolParams  # noqa: E402
from repro.sim.backends import make_simulation  # noqa: E402
from repro.sim.counts_backend import goal_counts_predicate  # noqa: E402
from repro.sim.fault_engine import (  # noqa: E402
    DEFAULT_FAULT_MODEL,
    FAULT_MODELS,
    FaultEngine,
    FaultEngineError,
    FaultModel,
    fault_model_names,
    get_fault_model,
    initial_state_code,
    leader_code_mask,
    register_fault_model,
)
from repro.sim.initial_state import CodeArray  # noqa: E402
from repro.substrates.epidemics import EpidemicProtocol  # noqa: E402

BACKENDS = ("object", "array", "counts")


def fresh_generator(seed: int):
    return np.random.Generator(np.random.PCG64(seed))


def infected_codes(n: int):
    return np.ones(n, dtype=np.int64)


@pytest.fixture
def epidemic() -> EpidemicProtocol:
    return EpidemicProtocol()


@pytest.fixture
def ciw() -> CaiIzumiWada:
    return CaiIzumiWada(BaselineParams(n=8))


class TestRegistry:
    def test_builtin_models_registered_default_first(self):
        names = fault_model_names()
        assert names[0] == DEFAULT_FAULT_MODEL
        assert set(names) >= {
            "scramble_burst", "kill_leaders", "plant_minority", "crash_reset",
        }

    def test_unknown_model_lists_known(self):
        with pytest.raises(ValueError, match="unknown fault model 'emp'.*scramble_burst"):
            get_fault_model("emp")

    def test_register_rejects_duplicates_and_bad_names(self):
        with pytest.raises(ValueError, match="already registered"):
            register_fault_model(get_fault_model("crash_reset"))
        bad = FaultModel()
        bad.name = "not a name"
        with pytest.raises(ValueError, match="simple identifier"):
            register_fault_model(bad)

    def test_new_model_is_one_registration(self):
        model = type("CrashTwice", (FaultModel,), {"name": "crash_twice"})()
        register_fault_model(model)
        try:
            assert get_fault_model("crash_twice") is model
        finally:
            del FAULT_MODELS["crash_twice"]


class TestSupports:
    def test_code_models_reject_elect_leader(self):
        elect = ElectLeader(ProtocolParams(n=16, r=2))
        for name in ("kill_leaders", "plant_minority"):
            assert get_fault_model(name).supports(elect) is not None

    def test_scramble_and_crash_accept_elect_leader(self):
        elect = ElectLeader(ProtocolParams(n=16, r=2))
        assert get_fault_model("scramble_burst").supports(elect) is None
        assert get_fault_model("crash_reset").supports(elect) is None

    def test_all_models_accept_finite_state(self, ciw):
        for name in fault_model_names():
            assert get_fault_model(name).supports(ciw) is None

    def test_engine_requires_support(self):
        elect = ElectLeader(ProtocolParams(n=16, r=2))
        with pytest.raises(FaultEngineError, match="kill_leaders"):
            FaultEngine("kill_leaders", elect, n=16, rate=1.0)

    def test_engine_rejects_bad_parameters(self, epidemic):
        with pytest.raises(ValueError, match="rate"):
            FaultEngine(get_fault_model("crash_reset"), epidemic, n=8, rate=0.0)
        with pytest.raises(ValueError, match="burst size"):
            FaultEngine(get_fault_model("crash_reset"), epidemic, n=8, rate=1.0,
                        burst_size=0)

    @pytest.mark.parametrize("rate", [float("inf"), float("nan")])
    def test_engine_rejects_non_finite_rates(self, epidemic, rate):
        # An infinite rate makes every gap 0 (the schedule never advances)
        # and NaN cannot be ceiled to a burst position.
        with pytest.raises(ValueError, match="finite"):
            FaultEngine("crash_reset", epidemic, n=8, rate=rate)


class TestLeaderMask:
    def test_mask_matches_output(self, ciw):
        mask = leader_code_mask(ciw)
        expected = [bool(ciw.output(ciw.decode_state(code))) for code in range(ciw.n)]
        assert mask.tolist() == expected
        assert int(mask.sum()) == 1  # exactly the rank-1 code

    def test_initial_state_code_round_trips(self, epidemic):
        assert initial_state_code(epidemic) == 0


class TestBurstSchedule:
    def test_bit_identical_across_backends(self, epidemic):
        predicate = goal_counts_predicate(epidemic)
        schedules = {}
        for backend in BACKENDS:
            sim = make_simulation(
                epidemic, init=CodeArray(infected_codes(256)), seed=11, backend=backend
            )
            engine = FaultEngine(
                "crash_reset", epidemic, n=256, rate=2.0, burst_size=2, seed=77
            )
            engine.measure_availability(
                sim, predicate, total_interactions=10_000, checkpoint_every=250
            )
            schedules[backend] = [event.interaction for event in engine.events]
        assert schedules["object"] == schedules["array"] == schedules["counts"]
        assert len(schedules["object"]) > 5

    def test_schedule_is_a_pure_function_of_the_seed(self, epidemic):
        runs = []
        for _ in range(2):
            sim = make_simulation(epidemic, init=CodeArray(infected_codes(128)), seed=3,
                                  backend="counts")
            engine = FaultEngine("scramble_burst", epidemic, n=128, rate=1.0,
                                 seed=5)
            engine.measure_availability(
                sim, goal_counts_predicate(epidemic),
                total_interactions=5_000, checkpoint_every=100,
            )
            runs.append([event.interaction for event in engine.events])
        assert runs[0] == runs[1]

    def test_rate_scales_burst_count(self, epidemic):
        counts = {}
        for rate in (0.5, 4.0):
            sim = make_simulation(epidemic, init=CodeArray(infected_codes(128)), seed=3,
                                  backend="counts")
            engine = FaultEngine("crash_reset", epidemic, n=128, rate=rate, seed=9)
            engine.measure_availability(
                sim, goal_counts_predicate(epidemic),
                total_interactions=40_000, checkpoint_every=1_000,
            )
            counts[rate] = engine.fault_bursts
        # 8x the rate: expect roughly 8x the bursts (wide tolerance).
        assert 3 * counts[0.5] < counts[4.0] < 20 * max(1, counts[0.5])


class TestApplierEquivalence:
    """Object/array bursts are bit-identical; counts matches in law."""

    @pytest.mark.parametrize("name", ["scramble_burst", "kill_leaders",
                                      "plant_minority", "crash_reset"])
    def test_config_and_codes_appliers_consume_identical_draws(self, ciw, name):
        model = get_fault_model(name)
        start = np.arange(8, dtype=np.int64)  # a permutation: one leader
        codes = start.copy()
        config = [ciw.decode_state(int(code)) for code in start]
        model.apply_codes(ciw, codes, 3, fresh_generator(42))
        model.apply_config(ciw, config, 3, fresh_generator(42))
        assert [ciw.encode_state(state) for state in config] == codes.tolist()

    @pytest.mark.parametrize("name", ["scramble_burst", "kill_leaders",
                                      "plant_minority", "crash_reset"])
    def test_counts_marginals_match_per_agent_corruption(self, ciw, name):
        """Monte-Carlo: mean post-burst counts agree between the codes
        applier (per-agent corruption on a concrete arrangement) and the
        counts applier (hypergeometric mass moves)."""
        model = get_fault_model(name)
        start = np.arange(8, dtype=np.int64)
        rounds = 600
        mean_codes = np.zeros(8)
        mean_counts = np.zeros(8)
        for seed in range(rounds):
            codes = start.copy()
            model.apply_codes(ciw, codes, 3, fresh_generator(seed))
            mean_codes += np.bincount(codes, minlength=8)
            counts = np.bincount(start, minlength=8).astype(np.int64)
            model.apply_counts(ciw, counts, 3, fresh_generator(10_000 + seed))
            assert int(counts.sum()) == 8
            assert int(counts.min()) >= 0
            mean_counts += counts
        mean_codes /= rounds
        mean_counts /= rounds
        assert np.abs(mean_codes - mean_counts).max() < 0.15, (
            name, mean_codes, mean_counts,
        )

    def test_kill_leaders_demotes_the_leader(self, ciw):
        codes = np.arange(8, dtype=np.int64)
        get_fault_model("kill_leaders").apply_codes(ciw, codes, 1, fresh_generator(0))
        assert int((codes == 0).sum()) == 0  # rank-1 code vacated
        assert int((codes == 1).sum()) == 2  # demoted to the first non-leader

        counts = np.bincount(np.arange(8), minlength=8).astype(np.int64)
        get_fault_model("kill_leaders").apply_counts(ciw, counts, 1, fresh_generator(0))
        assert counts.tolist() == [0, 2, 1, 1, 1, 1, 1, 1]

    def test_kill_leaders_with_no_leaders_is_a_noop(self):
        loose = LooselyStabilizingLeaderElection(BaselineParams(n=8))
        codes = np.zeros(8, dtype=np.int64)  # all followers
        before = codes.copy()
        get_fault_model("kill_leaders").apply_codes(loose, codes, 2, fresh_generator(1))
        assert np.array_equal(codes, before)

    def test_crash_reset_moves_mass_to_the_initial_code(self, epidemic):
        counts = np.array([0, 64], dtype=np.int64)  # everyone infected
        get_fault_model("crash_reset").apply_counts(
            epidemic, counts, 5, fresh_generator(2)
        )
        assert counts.tolist() == [5, 59]

    def test_plant_minority_is_coordinated(self, ciw):
        codes = np.arange(8, dtype=np.int64)
        get_fault_model("plant_minority").apply_codes(ciw, codes, 4, fresh_generator(3))
        values, tallies = np.unique(codes, return_counts=True)
        assert int(tallies.max()) >= 4  # all four victims agree

    def test_scramble_burst_wraps_object_scrambler_for_elect_leader(self):
        protocol = ElectLeader(ProtocolParams(n=12, r=2))
        config = protocol.clean_configuration(12)
        get_fault_model("scramble_burst").apply_config(
            protocol, config, 3, fresh_generator(4)
        )
        assert all(agent.consistent() for agent in config)


class TestCountsMassProperties:
    @given(
        counts=st.lists(st.integers(min_value=0, max_value=40), min_size=2,
                        max_size=8),
        burst=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
        name=st.sampled_from(["scramble_burst", "plant_minority", "crash_reset",
                              "kill_leaders"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_mass_is_conserved_and_non_negative(self, counts, burst, seed, name):
        total = sum(counts)
        if total < 2:
            return
        protocol = CaiIzumiWada(BaselineParams(n=len(counts)))
        vector = np.array(counts, dtype=np.int64)
        get_fault_model(name).apply_counts(protocol, vector, burst,
                                           fresh_generator(seed))
        assert int(vector.sum()) == total
        assert int(vector.min()) >= 0


class TestDrivers:
    def test_run_until_converges_under_mild_faults(self, epidemic):
        for backend in BACKENDS:
            sim = make_simulation(epidemic, init=CodeArray(infected_codes(128)), seed=1,
                                  backend=backend)
            # One uninfected plant: run_until must re-converge despite rare
            # crash_reset bursts.
            sim.apply_fault(get_fault_model("crash_reset"), 4, fresh_generator(0))
            engine = FaultEngine("crash_reset", epidemic, n=128, rate=0.01,
                                 seed=2)
            result = engine.run_until(
                sim, goal_counts_predicate(epidemic),
                max_interactions=200_000, check_interval=64,
            )
            assert result.converged, backend

    def test_run_until_already_converged_short_circuits(self, epidemic):
        sim = make_simulation(epidemic, init=CodeArray(infected_codes(64)), seed=1,
                              backend="counts")
        engine = FaultEngine("crash_reset", epidemic, n=64, rate=1.0, seed=3)
        result = engine.run_until(
            sim, goal_counts_predicate(epidemic),
            max_interactions=10_000, check_interval=100,
        )
        assert result.converged and result.interactions == 0
        assert engine.fault_bursts == 0

    def test_availability_rejects_negative_budget(self, epidemic):
        sim = make_simulation(epidemic, init=CodeArray(infected_codes(64)), seed=1,
                              backend="counts")
        engine = FaultEngine("crash_reset", epidemic, n=64, rate=0.1, seed=3)
        with pytest.raises(ValueError, match="total_interactions must be non-negative"):
            engine.measure_availability(
                sim, goal_counts_predicate(epidemic),
                total_interactions=-5, checkpoint_every=10,
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_drivers_reject_a_simulation_that_already_ran(self, epidemic, backend):
        # Burst positions and the budget count from zero, so a used engine
        # would report absolute interactions against relative bursts.
        sim = make_simulation(epidemic, init=CodeArray(infected_codes(64)), seed=1,
                              backend=backend)
        sim.run(10)
        engine = FaultEngine("crash_reset", epidemic, n=64, rate=1.0, seed=3)
        predicate = goal_counts_predicate(epidemic)
        with pytest.raises(ValueError, match="fresh simulation.*10 interactions"):
            engine.run_until(sim, predicate, max_interactions=1_000, check_interval=10)
        with pytest.raises(ValueError, match="fresh simulation"):
            engine.measure_availability(
                sim, predicate, total_interactions=1_000, checkpoint_every=10
            )
        assert engine.fault_bursts == 0
        assert sim.metrics.interactions == 10

    def test_availability_report_shape(self, epidemic):
        sim = make_simulation(epidemic, init=CodeArray(infected_codes(128)), seed=4,
                              backend="array")
        engine = FaultEngine("crash_reset", epidemic, n=128, rate=1.0,
                             burst_size=2, seed=5)
        report = engine.measure_availability(
            sim, goal_counts_predicate(epidemic),
            total_interactions=10_000, checkpoint_every=300,
        )
        assert report.checkpoints == -(-10_000 // 300)
        assert 0 <= report.available_checkpoints <= report.checkpoints
        assert report.fault_bursts == engine.fault_bursts
        assert all(repair >= 0 for repair in report.repair_times)

    def test_availability_cis_overlap_across_backends(self, epidemic):
        """The availability distribution is backend-independent: bootstrap
        CIs of mean availability over independent seeds overlap pairwise."""
        predicate = goal_counts_predicate(epidemic)
        intervals = {}
        for backend in BACKENDS:
            samples = []
            for seed in range(10):
                sim = make_simulation(
                    epidemic, init=CodeArray(infected_codes(256)), seed=100 + seed,
                    backend=backend,
                )
                engine = FaultEngine(
                    "crash_reset", epidemic, n=256, rate=1.0, burst_size=4,
                    seed=200 + seed,
                )
                report = engine.measure_availability(
                    sim, predicate, total_interactions=20_000,
                    checkpoint_every=256,
                )
                samples.append(report.availability)
            intervals[backend] = bootstrap_ci(
                samples, statistic=lambda values: sum(values) / len(values)
            )
        for first in BACKENDS:
            for second in BACKENDS:
                low = max(intervals[first].low, intervals[second].low)
                high = min(intervals[first].high, intervals[second].high)
                assert low <= high, (first, second, intervals)
