"""Output gate: checks every timed job's outputs before its time counts.

Each check is one attempt; a failed check or a failed cell counts towards
``fail_ratio``. The checks:

``cells``       the job produced at least one cell
``cell``        the cell ran (no failure marker)
``pooling``     on every pooled hour ``total == within + (1 + 1/B) * between``
                to 1e-12 relative, ``between == 0`` when B == 1, and both
                variance parts finite and non-negative
``bounds``      interval bounds finite and ordered; gamma lower bounds >= 0
``reproduce``   the independent path (``pvmi report``, or a numpy
                recomputation) gives the same coverage and NRMSE
``scored``      the number of scored hours equals the number of observed
                target hours the benchmark counted itself
``determinism`` the output digest equals that of an earlier job on the same
                inputs (the traced run repeats its job untraced and traced)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from workloads import CellResult, Inputs, Outcome

POOL_RTOL = 1e-12
METRIC_RTOL = 1e-9  # summary.json rounds metrics to 12 significant digits


@dataclass
class GateResult:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    @property
    def failed(self) -> int:
        return len(self.failures)


def pooling_ok(cell: CellResult) -> bool:
    w, b, t = cell.within_var, cell.between_var, cell.total_var
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b)) and np.all(np.isfinite(t))):
        return False
    if np.any(w < 0) or np.any(b < 0) or cell.n_rounds < 1:
        return False
    if cell.n_rounds == 1 and np.any(b != 0.0):
        return False
    expected = w + (1.0 + 1.0 / cell.n_rounds) * b
    return bool(np.all(np.abs(t - expected) <= POOL_RTOL * np.abs(t)))


def bounds_ok(cell: CellResult) -> bool:
    lo, hi = cell.lower, cell.upper
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(lo <= hi)):
        return False
    return cell.interval_family != "gamma" or bool(np.all(lo >= 0.0))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= METRIC_RTOL * max(abs(a), abs(b))


def check_outcome(outcome: Outcome, inputs: Inputs, expected_digest: str | None = None
                  ) -> GateResult:
    """Run every check on one job's outcome; the determinism check runs when
    the digest of an earlier job on the same inputs is given."""
    gate = GateResult()
    gate.check("cells", bool(outcome.cells))
    for cell in outcome.cells:
        gate.check(f"{cell.cell_id}: cell", cell.status == "ok")
        if cell.status != "ok":
            continue
        gate.check(f"{cell.cell_id}: pooling", pooling_ok(cell))
        gate.check(f"{cell.cell_id}: bounds", bounds_ok(cell))
        gate.check(f"{cell.cell_id}: reproduce",
                   _close(cell.coverage, cell.check_coverage)
                   and _close(cell.nrmse, cell.check_nrmse))
        gate.check(f"{cell.cell_id}: scored", cell.n_evaluated == inputs.observed_targets)
    if expected_digest is not None:
        gate.check("determinism", outcome.digest == expected_digest)
    return gate
