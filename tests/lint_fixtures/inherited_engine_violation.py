"""Lint fixture: an engine that inherits most of its surface but lacks apply_fault (L002)."""

from repro.sim.metrics import Metrics
from repro.sim.simulation import TrialEngine


class ForgetfulEngine(TrialEngine):
    """run / run_until / predicate_holds / instrument_steps come from the
    shared base; apply_fault is missing."""

    def __init__(self, n: int):
        self.n = n
        self.config: list = []
        self.metrics = Metrics(n=n)

    def run_batch(self, count: int) -> None:
        self.metrics.interactions += count

    def _native_predicate(self, predicate) -> bool:
        return bool(predicate(self.config))
