"""``repro.serve``: the resilient query-serving layer.

A zero-dependency asyncio HTTP/JSON service answering the paper's
queries -- "n players, capacity delta: what does strategy beta win?
what is the optimal strategy?" -- under explicit robustness contracts:

* **bounded admission** -- a concurrency limiter plus a bounded queue;
  overload sheds with 429 + Retry-After instead of queueing unboundedly
  (:mod:`repro.serve.admission`);
* **deadline budgets** -- every request's budget is propagated into the
  tier ladder of :mod:`repro.serve.degrade`: the compiled piecewise
  table's value with its a-posteriori bound (``tier: "certified"``),
  then the exact ``Fraction`` kernel only while budget remains
  (``"exact"``), else the table's value served with its bound
  (``"degraded"``); beyond ``max_n`` the asymptotic regime engine
  answers (``"asymptotic"``);
* **circuit breaking** -- sustained slow exact fallbacks trip the exact
  tier open; the service keeps answering, explicitly degraded;
* **graceful drain** -- SIGTERM/SIGINT stop intake and let in-flight
  requests finish inside a drain deadline
  (:mod:`repro.serve.server`).

Entry points: :func:`run_server` (the CLI's ``repro serve``),
:class:`ReproServer` for embedding, :class:`ServeConfig` for both.
"""

from repro.serve.admission import AdmissionController, CircuitBreaker
from repro.serve.degrade import Deadline, certified_grid_optimum
from repro.serve.handlers import Coalescer, Response, handle_request
from repro.serve.server import (
    ReproServer,
    ServeConfig,
    ServeReport,
    run_server,
)

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "Coalescer",
    "Deadline",
    "ReproServer",
    "Response",
    "ServeConfig",
    "ServeReport",
    "certified_grid_optimum",
    "handle_request",
    "run_server",
]
