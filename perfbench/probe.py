"""The traced pass: wrappers around each layer's public calls, installed from outside.

A :class:`Probe` replaces a layer's function or method with a wrapper that
counts calls and accumulates the seconds spent inside, then puts the original
back on :meth:`Probe.close`.  Nothing in the program changes: the wrappers only
read :func:`repro.obs.perf_counter`, so every RNG stream is consumed exactly as
in an untraced run.  Calls that happen a handful of times per drive (engine
drives, table builds, adversary starts, fault bursts) are also kept as spans in
memory; :meth:`Probe.dump` writes them out once the run has ended.

The engines' own step-phase accounting (``instrument_steps``) is switched on by
wrapping their drive methods, which is what ``repro.obs`` does inside sweeps.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

from repro.obs import STEP_PHASES, perf_counter

#: Keep at most this many individual spans; beyond it only the totals grow.
MAX_SPANS = 20_000


class Probe:
    """Call counts, busy seconds and coarse spans for wrapped layer calls."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.sizes: dict[str, int] = defaultdict(int)
        self.spans: list[dict[str, Any]] = []
        self._epoch = perf_counter()
        self._open: list[str] = []
        self._restore: list[Callable[[], None]] = []

    # -- recording -------------------------------------------------------

    def _record(self, name: str, start: float, end: float, span: bool) -> None:
        self.calls[name] += 1
        self.seconds[name] += end - start
        if span and len(self.spans) < MAX_SPANS:
            self.spans.append({
                "name": name,
                "start": start - self._epoch,
                "dur": end - start,
                "parent": self._open[-1] if self._open else None,
            })

    def _wrapper(
        self, name: str, original: Callable, *, span: bool, size_arg: Optional[int],
        materialize: bool,
    ) -> Callable:
        probe = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if size_arg is not None:
                probe.sizes[name] += int(args[size_arg])
            if span:
                probe._open.append(name)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                if materialize:
                    # A generator's work happens while it is consumed; drain it
                    # here so the time lands on this call.
                    result = iter(list(result))
                return result
            finally:
                end = perf_counter()
                if span:
                    probe._open.pop()
                probe._record(name, start, end, span)

        return wrapper

    # -- installing ------------------------------------------------------

    def wrap_attr(
        self, owner: Any, attr: str, name: str, *, span: bool = False,
        size_arg: Optional[int] = None, materialize: bool = False,
    ) -> None:
        """Wrap ``owner.attr`` (a class's method or a module's function)."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrapper(
            name, original, span=span, size_arg=size_arg, materialize=materialize,
        ))
        if had_own:
            self._restore.append(lambda: setattr(owner, attr, original))
        else:
            self._restore.append(lambda: delattr(owner, attr))

    def wrap_everywhere(self, function: Callable, name: str) -> None:
        """Wrap every module-level binding of ``function`` inside ``repro``.

        ``from module import function`` copies the binding, so patching the
        defining module alone would miss the engines that imported it.
        """
        wrapper = self._wrapper(name, function, span=True, size_arg=None, materialize=False)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attr, wrapper)
                    self._restore.append(
                        lambda module=module, attr=attr: setattr(module, attr, function)
                    )

    def wrap_values(self, mapping: dict, name: str) -> None:
        """Wrap every callable value of a registry dict, in place."""
        for key, original in list(mapping.items()):
            mapping[key] = self._wrapper(
                name, original, span=True, size_arg=None, materialize=False,
            )
            self._restore.append(
                lambda key=key, original=original: mapping.__setitem__(key, original)
            )

    def wrap_drive(self, owner: type, attr: str, prefix: str) -> None:
        """Wrap an engine's drive method: switch on its step-phase accounting
        and add the phases to ``<prefix>.step.<phase>`` when the drive ends."""
        original = getattr(owner, attr)
        probe = self
        name = f"{prefix}.drive"

        def drive(engine: Any, *args: Any, **kwargs: Any) -> Any:
            timings = engine.instrument_steps()
            before = dict(timings)
            probe._open.append(name)
            start = perf_counter()
            try:
                return original(engine, *args, **kwargs)
            finally:
                end = perf_counter()
                probe._open.pop()
                probe._record(name, start, end, True)
                for phase in STEP_PHASES:
                    probe.seconds[f"{prefix}.step.{phase}"] += timings[phase] - before[phase]

        setattr(owner, attr, drive)
        self._restore.append(lambda: setattr(owner, attr, original))

    def close(self) -> None:
        """Put every wrapped original back (in reverse order)."""
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def dump(self, path: Path) -> None:
        """Write the totals and the kept spans as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "totals": {
                name: {"calls": self.calls.get(name, 0), "seconds": self.seconds[name]}
                for name in sorted(set(self.calls) | set(self.seconds))
            },
            "sizes": dict(self.sizes),
            "spans": self.spans,
        }
        path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


def install_layer_probes(probe: Probe) -> None:
    """Wrap the public calls of every layer the workloads run through."""
    from repro.adversary import ADVERSARIES
    from repro.core.elect_leader import ElectLeader
    from repro.scheduler.scheduler import CollisionRunSampler, RandomScheduler
    from repro.sim.array_backend import transition_table_for
    from repro.sim.batch_backend import BatchCountsEngine
    from repro.sim.counts_backend import CountsSimulation
    from repro.sim.fault_engine import FaultModel

    probe.wrap_attr(ElectLeader, "transition", "core.transition")
    probe.wrap_attr(ElectLeader, "is_safe_configuration", "core.safe_check")
    probe.wrap_values(ADVERSARIES, "adversary.init")
    probe.wrap_everywhere(transition_table_for, "array_backend.table_build")
    # next_pairs draws through pairs, so wrapping pairs counts both.
    probe.wrap_attr(RandomScheduler, "pairs", "scheduler.pairs", size_arg=1, materialize=True)
    probe.wrap_attr(CollisionRunSampler, "next_run_length", "scheduler.run_length")
    probe.wrap_attr(
        CollisionRunSampler, "next_run_lengths", "scheduler.run_lengths", size_arg=1,
    )
    probe.wrap_attr(CountsSimulation, "predicate_holds", "counts.predicate")
    probe.wrap_drive(CountsSimulation, "run_until", "counts")
    probe.wrap_drive(BatchCountsEngine, "measure_rows_availability", "batch")
    # Every fault model class that defines its own counts applier.
    classes = [FaultModel]
    while classes:
        cls = classes.pop()
        classes.extend(cls.__subclasses__())
        if "apply_counts" in vars(cls):
            probe.wrap_attr(cls, "apply_counts", "faults.apply", span=True)
