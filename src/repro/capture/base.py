"""The set-aware customer-choice capture contract.

The paper's evenly-split model makes one strong assumption: the share of
a user a candidate captures is independent of *which other candidates*
were selected — ``w_o = 1/(|F_o|+1)`` depends only on the user's
competitor context.  Every fast path in this repository (the CSR
:class:`~repro.solvers.CoverageMatrix` kernel, CELF, the sharded
distinct-weight merge) exploits exactly that independence.

Richer customer-choice models break it: under an MNL choice model a
second nearby selected site *cannibalises* the first one's capture, and
under simulation-based capture a user's choice is only defined relative
to the whole offer set.  :class:`CaptureModel` is the strategy contract
that makes the competition layer pluggable across both regimes:

* ``set_independent`` models expose a per-user weight
  (:attr:`CaptureModel.weight_model`) and keep every existing kernel —
  evenly-split is just the degenerate case, adapted through
  :class:`SetIndependentCapture` with **bit-identical** outputs.
* set-aware models expose a vectorized marginal-gain oracle
  (:meth:`CaptureModel.make_state`) that the CELF loop in
  :mod:`repro.capture.select` drives; the documented
  :attr:`CaptureModel.submodular` flag says whether lazy (CELF)
  evaluation — and with it the greedy ``(1 − 1/e)`` guarantee — is
  sound.

Every model also implements the *scalar reference API*
(:meth:`CaptureModel.capture_weights` / :meth:`CaptureModel.objective` /
:meth:`CaptureModel.gain`), deliberately slow and set-based: it is the
differential-test oracle the vectorized paths are checked against,
mirroring how :func:`~repro.solvers.greedy_select` anchors the CSR
kernel.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Iterable, Sequence, Set, Tuple

import numpy as np

from ..competition import CompetitionModel, InfluenceTable, covered_users
from ..exceptions import CaptureError


class CaptureState(ABC):
    """Mutable per-selection oracle state of a set-aware capture model.

    Produced by :meth:`CaptureModel.make_state`; consumed by the CELF
    loop in :func:`repro.capture.select.capture_select`.  Candidates are
    addressed by their *index* ``j`` into :attr:`candidate_ids`
    (ascending-cid order) so gains vectorize over CSR segments.
    """

    #: Selectable candidates in ascending-id order.
    candidate_ids: Tuple[int, ...]

    @abstractmethod
    def gain(self, j: int) -> float:
        """Marginal objective gain of adding candidate index ``j`` now.

        Defined only for candidates not yet :meth:`add`-ed — the
        selection loop never queries a selected index, and states (e.g.
        MNL's utility masses) need not model re-adding as a no-op."""

    @abstractmethod
    def add(self, j: int) -> None:
        """Commit candidate index ``j`` to the selection."""


class CaptureModel(ABC):
    """Maps (user, selected set, competitor context) to captured demand.

    Class attributes document the model's structure for the execution
    layers:

    Attributes:
        name: Registry / display name.
        submodular: The objective ``Σ_o capture(o, G)`` is monotone
            submodular in ``G``.  CELF lazy evaluation is sound and
            greedy carries the ``(1 − 1/e)`` guarantee.  All models
            shipped here are exactly submodular; a future
            non-submodular model must set this ``False`` so selection
            falls back to full per-round rescans.
        set_independent: ``capture(o, G)`` is ``weight(o)·[o covered by
            G]`` — the weight does not depend on ``G``.  Such models run
            through the existing one-pass ``reduceat``-screened CSR
            kernel via :attr:`weight_model` (and the sharded
            distinct-weight merge remains exact for the evenly-split
            case); set-aware models run the CELF loop over
            :meth:`make_state`.
    """

    name: str = "capture"
    submodular: bool = True
    set_independent: bool = False

    # ------------------------------------------------------------------
    @abstractmethod
    def cache_key(self) -> Tuple[object, ...]:
        """Hashable identity: model id plus every objective-relevant
        parameter (and the world seed for sampled models).  Joins the
        serving engine's ``(snapshot, solver, PF, τ)`` cache keys, so two
        queries share cached work only when their capture semantics are
        identical."""

    # ------------------------------------------------------------------
    # Scalar reference API (the differential-test oracle).
    # ------------------------------------------------------------------
    @abstractmethod
    def capture_weights(
        self,
        table: InfluenceTable,
        user_ids: Sequence[int],
        selected: Set[int],
    ) -> np.ndarray:
        """Per-user captured demand under selection ``G`` (float64).

        ``out[i]`` is the share of user ``user_ids[i]`` that the selected
        set captures — 0 for users no selected candidate covers.  This is
        the contract's ground truth; vectorized states must agree with it
        (bit-identically for set-independent models, to numerical noise
        for set-aware ones)."""

    def objective(self, table: InfluenceTable, selected: Iterable[int]) -> float:
        """Total captured demand ``Σ_o capture(o, G)`` (correctly-rounded
        ``fsum``, hence independent of user enumeration order)."""
        sel = set(int(c) for c in selected)
        uids = sorted(covered_users(table, sel))
        if not uids:
            return 0.0
        return math.fsum(self.capture_weights(table, uids, sel).tolist())

    def gain(self, table: InfluenceTable, selected: Iterable[int], cid: int) -> float:
        """Marginal objective gain of adding ``cid`` to ``G`` (scalar)."""
        sel = set(int(c) for c in selected)
        return self.objective(table, sel | {int(cid)}) - self.objective(table, sel)

    # ------------------------------------------------------------------
    # Vectorized execution hooks.
    # ------------------------------------------------------------------
    def make_state(
        self, table: InfluenceTable, candidate_ids: Sequence[int]
    ) -> CaptureState:
        """A fresh vectorized oracle over ``candidate_ids`` (set-aware
        models override; set-independent models never need one)."""
        raise CaptureError(
            f"capture model {self.name!r} is set-independent; selection "
            "routes through its weight_model and the CSR kernel"
        )

    @property
    def weight_model(self) -> CompetitionModel:
        """The per-user weight model of a set-independent capture model
        (feeds :class:`~repro.solvers.CoverageMatrix` densification)."""
        raise CaptureError(
            f"capture model {self.name!r} is set-aware; it has no "
            "selection-independent per-user weights"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.cache_key()!r})"


class SetIndependentCapture(CaptureModel):
    """Adapter presenting a legacy :class:`CompetitionModel` as capture.

    The wrapped model's ``user_share`` supplies the per-user weight;
    capture is ``share(o)`` when ``G`` covers ``o`` and 0 otherwise.
    Selection through :func:`~repro.solvers.run_selection` routes to the
    unchanged CSR kernel with :attr:`weight_model`, which is what makes
    evenly-split through this contract **bit-identical** to the legacy
    path (the differential suite pins it across every solver and against
    the scalar reference greedy).
    """

    set_independent = True
    submodular = True

    def __init__(
        self,
        weight_model: CompetitionModel,
        name: str,
        key: Tuple[object, ...],
    ) -> None:
        self._model = weight_model
        self.name = name
        self._key = tuple(key)

    @property
    def weight_model(self) -> CompetitionModel:
        return self._model

    def cache_key(self) -> Tuple[object, ...]:
        return self._key

    def capture_weights(
        self,
        table: InfluenceTable,
        user_ids: Sequence[int],
        selected: Set[int],
    ) -> np.ndarray:
        covered = covered_users(table, selected)
        return np.fromiter(
            (
                self._model.user_share(table, int(uid)) if uid in covered else 0.0
                for uid in user_ids
            ),
            dtype=np.float64,
            count=len(user_ids),
        )

    def objective(self, table: InfluenceTable, selected: Iterable[int]) -> float:
        # group_value fsums the identical weight multiset — bit-equal.
        return self._model.group_value(table, selected)

    def gain(self, table: InfluenceTable, selected: Iterable[int], cid: int) -> float:
        excluded = covered_users(table, selected)
        return self._model.candidate_value(table, int(cid), excluded=excluded)
