"""Outside-in per-layer wall-clock tracer for the ``repro`` simulator.

The tracer changes no file of the program.  While active it replaces each
traced function with a timing wrapper at every place a caller looks the
function up -- the class attribute for methods, and every loaded module
namespace that binds a module-level function (``from x import f`` copies
the binding) -- and it puts every original back on exit.

Each wrapper takes two ``perf_counter_ns`` readings and keeps a stack of
child time, so a function's *self* time excludes the traced calls it
makes: a ``pick_column`` inside an ``advance_to`` is counted once, in
``pick_column``.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: Traced functions, as ``"<layer module>:<qualified name>"`` under
#: :data:`PACKAGE`.  The metric prefix is ``<layer module>.<function>``.
TARGETS: Tuple[str, ...] = (
    "workloads.scenarios:serving_plan",
    "workloads.scenarios:build_schedule",
    "workloads.driver:rate_sweep",
    "workloads.serving:ClosedLoopServer.begin_iteration",
    "workloads.serving:ClosedLoopServer.finish_iteration",
    "controller.mc:ConventionalMemoryController.enqueue",
    "controller.mc:ConventionalMemoryController.advance_to",
    "controller.mc:ConventionalMemoryController.run_until_idle",
    "controller.scheduler:FrFcfsScheduler.pick_column",
    "controller.scheduler:FrFcfsScheduler.pick_row",
    "controller.scheduler:FrFcfsScheduler.pick_refresh",
    "controller.scheduler:FrFcfsScheduler.plan_train",
    "dram.channel:Channel.can_issue",
    "dram.channel:Channel.issue",
    "core.controller:RoMeMemoryController.enqueue",
    "core.controller:RoMeMemoryController.advance_to",
    "core.controller:RoMeMemoryController.run_until_idle",
    "reliability.ras:RasEngine.on_read",
    "reliability.ras:RasEngine.run_scrub",
    "reliability.faults:DeviceFaultModel.draw",
    "fleet.health:ReplicaFaultProcess.timeline",
    "fleet.health:ReplicaTimeline.health_at",
    "fleet.router:route_requests",
    "sim.sweep:run_sweep",
    "sim.checkpoint:make_checkpoint",
    "sim.checkpoint:Checkpoint.state",
)

PACKAGE = "repro"

#: Functions whose useful outcomes are counted: a non-``None`` pick or
#: plan, a ``True`` issue check.
COUNT_USEFUL = frozenset({
    "controller.scheduler.pick_column",
    "controller.scheduler.pick_row",
    "controller.scheduler.pick_refresh",
    "controller.scheduler.plan_train",
    "dram.channel.can_issue",
})

#: Methods whose receiving objects are kept, so their ``stats`` can be
#: read after the pass.
KEEP_OWNERS = frozenset({
    "controller.mc.advance_to",
    "controller.mc.run_until_idle",
    "core.controller.advance_to",
    "core.controller.run_until_idle",
    "reliability.ras.on_read",
    "reliability.ras.run_scrub",
})

#: Functions returning a checkpoint whose payload size is summed.
SUM_PAYLOAD = frozenset({"sim.checkpoint.make_checkpoint"})


class LayerStat:
    """Per-function accumulators of one traced pass."""

    __slots__ = ("calls", "self_ns", "useful", "payload_bytes", "owners")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.useful = 0
        self.payload_bytes = 0
        self.owners: Dict[int, Any] = {}


def _resolve(package: str, target: str) -> Tuple[Any, str, str, Any]:
    """``(owner, attribute, metric name, original)`` of one target."""
    module_name, qualname = target.split(":")
    module = importlib.import_module(f"{package}.{module_name}")
    *path, attribute = qualname.split(".")
    owner: Any = module
    for part in path:
        owner = getattr(owner, part)
    try:
        original = vars(owner)[attribute]
    except KeyError:
        raise LookupError(f"{target}: {attribute} is not defined on "
                          f"{owner.__name__} itself") from None
    return owner, attribute, f"{module_name}.{attribute}", original


class LayerTracer:
    """Context manager that times ``targets`` while active.

    ``stats`` maps each metric prefix (``"controller.mc.enqueue"``) to its
    :class:`LayerStat`.  ``targets`` and ``package`` default to the
    simulator's layers; tests substitute their own.
    """

    def __init__(self, targets: Sequence[str] = TARGETS,
                 package: str = PACKAGE) -> None:
        self.targets = tuple(targets)
        self.package = package
        self.stats: Dict[str, LayerStat] = {}
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        #: id(wrapper) -> (wrapper, original), for unwrapping stray copies.
        self._originals: Dict[int, Tuple[Callable, Any]] = {}

    def __enter__(self) -> "LayerTracer":
        try:
            for target in self.targets:
                owner, attribute, name, original = _resolve(self.package,
                                                            target)
                stat = self.stats[name] = LayerStat()
                wrapper = self._wrap(name, original, stat)
                self._originals[id(wrapper)] = (wrapper, original)
                if isinstance(owner, type):
                    self._patch(owner, attribute, wrapper)
                else:
                    self._patch_bindings(original, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original binding back, newest patch first.

        A module first imported while tracing may have copied a wrapper
        with ``from x import f``; such copies are unwrapped as well.
        """
        while self._patches:
            container, attribute, original = self._patches.pop()
            setattr(container, attribute, original)
        for module in self._package_modules():
            for attribute, value in list(vars(module).items()):
                original = self._originals.get(id(value))
                if original is not None and value is original[0]:
                    setattr(module, attribute, original[1])
        self._originals.clear()

    def _package_modules(self) -> List[Any]:
        prefix = self.package + "."
        return [module for name, module in list(sys.modules.items())
                if module is not None
                and (name == self.package or name.startswith(prefix))]

    def _patch(self, container: Any, attribute: str, wrapper: Any) -> None:
        self._patches.append((container, attribute,
                              vars(container)[attribute]))
        setattr(container, attribute, wrapper)

    def _patch_bindings(self, original: Callable, wrapper: Callable) -> None:
        """Rebind ``original`` in every loaded module of the package."""
        for module in self._package_modules():
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, wrapper)

    def _wrap(self, name: str, original: Callable,
              stat: LayerStat) -> Callable:
        stack = self._stack
        clock = time.perf_counter_ns
        count_useful = name in COUNT_USEFUL
        keep_owner = name in KEEP_OWNERS
        sum_payload = name in SUM_PAYLOAD

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.self_ns += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if count_useful and result is not None and result is not False:
                stat.useful += 1
            if keep_owner:
                stat.owners[id(args[0])] = args[0]
            if sum_payload:
                stat.payload_bytes += len(result.payload)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        traced.__name__ = getattr(original, "__name__", name)
        traced.__qualname__ = getattr(original, "__qualname__", name)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    # ----------------------------------------------------------- reporting

    def owners(self, *names: str) -> List[Any]:
        """Distinct objects seen as ``self`` by the named methods."""
        seen: Dict[int, Any] = {}
        for name in names:
            seen.update(self.stats[name].owners)
        return list(seen.values())

    def layer_metrics(self, pass_wall_s: float) -> Dict[str, float]:
        """``<name>.calls``, ``.self_s`` and ``.share`` for every target,
        plus ``traced.coverage`` (summed self time over pass wall time)."""
        metrics: Dict[str, float] = {}
        total_ns = 0
        for name, stat in self.stats.items():
            self_s = stat.self_ns / 1e9
            total_ns += stat.self_ns
            metrics[f"{name}.calls"] = stat.calls
            metrics[f"{name}.self_s"] = self_s
            metrics[f"{name}.share"] = self_s / pass_wall_s
        metrics["traced.coverage"] = total_ns / 1e9 / pass_wall_s
        return metrics

    def useful_fraction(self, *names: str) -> float:
        """Useful outcomes over calls, summed over ``names`` (0 if none)."""
        calls = sum(self.stats[name].calls for name in names)
        useful = sum(self.stats[name].useful for name in names)
        return useful / calls if calls else 0.0

    def payload_bytes(self, name: str) -> int:
        return self.stats[name].payload_bytes

