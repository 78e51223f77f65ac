"""The tunable serving configuration: engine knobs + a query override.

An :class:`EngineConfig` is one point in the knob space the tuner
searches.  It splits into two kinds of knobs:

* **engine knobs** — constructor arguments of
  :class:`~repro.service.SelectionEngine` (cache capacities, scheduler
  workers, execution mode, shard workers, incremental republish);
* **query override** — the fixed-worlds world count, applied over each
  replayed query's recorded value when set (``None`` keeps the
  recording).

Engine knobs never change results (the repo's bit-identity invariant);
the ``worlds`` override *does* change the objective the fixed-worlds
capture model optimises — :attr:`EngineConfig.exact` is ``False`` in
that case and the tuner reports it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from ..capture import CaptureSpec
from ..service import SelectionEngine, SelectionQuery


@dataclass(frozen=True)
class EngineConfig:
    """One candidate serving configuration (defaults match the engine's)."""

    max_workers: int = 4
    max_queued: int = 64
    prepared_cache_size: int = 16
    result_cache_size: int = 4096
    incremental: bool = True
    execution: str = "threaded"
    shard_workers: int = 0
    worlds: Optional[int] = None

    @property
    def exact(self) -> bool:
        """Whether replays under this config reproduce recorded selections."""
        return self.worlds is None

    # ------------------------------------------------------------------
    def engine_kwargs(self) -> Dict[str, Any]:
        """Constructor arguments for :class:`~repro.service.SelectionEngine`."""
        return {
            "max_workers": self.max_workers,
            "max_queued": self.max_queued,
            "prepared_cache_size": self.prepared_cache_size,
            "result_cache_size": self.result_cache_size,
            "incremental": self.incremental,
            "execution": self.execution,
            "shard_workers": self.shard_workers,
        }

    def make_engine(self, snapshot: Any = None) -> SelectionEngine:
        """A fresh engine configured with these knobs."""
        return SelectionEngine(snapshot, **self.engine_kwargs())

    def apply(self, query: SelectionQuery) -> SelectionQuery:
        """The query with this config's world-count override applied."""
        if (
            self.worlds is None
            or query.capture is None
            or query.capture.model != "fixed-worlds"
            or query.capture.worlds == self.worlds
        ):
            return query
        return replace(
            query,
            capture=CaptureSpec(
                model="fixed-worlds",
                mnl_beta=query.capture.mnl_beta,
                worlds=self.worlds,
                world_seed=query.capture.world_seed,
            ),
        )

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """JSON-portable form (the tuner's output schema)."""
        return {
            "max_workers": self.max_workers,
            "max_queued": self.max_queued,
            "prepared_cache_size": self.prepared_cache_size,
            "result_cache_size": self.result_cache_size,
            "incremental": self.incremental,
            "execution": self.execution,
            "shard_workers": self.shard_workers,
            "worlds": self.worlds,
            "exact": self.exact,
        }

    @classmethod
    def from_dict(cls, spec: Dict[str, Any]) -> "EngineConfig":
        """Rebuild a config serialised by :meth:`as_dict`.

        Keys this version no longer reads, such as the retired kernel
        toggles of older ``tune`` outputs, are ignored.
        """
        fields = {
            k: spec[k]
            for k in (
                "max_workers",
                "max_queued",
                "prepared_cache_size",
                "result_cache_size",
                "incremental",
                "execution",
                "shard_workers",
                "worlds",
            )
            if k in spec
        }
        return cls(**fields)
