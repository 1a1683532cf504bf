"""Static scheduling algorithms: serve a fixed request set, slot by slot.

These are the building blocks the paper's transformation consumes: an
algorithm ``A(I, n)`` that, run on at most ``n`` single-hop transmission
requests of interference measure at most ``I``, delivers everything
within its slot budget with high probability.

All algorithms share the :class:`~repro.staticsched.base.StaticAlgorithm`
interface — ``run(model, requests, budget, rng)`` — and carry a
:class:`~repro.staticsched.base.LengthBound` describing the budget they
need in the ``f(m) * I + g(m, n)`` form the Section-4 protocol sizes its
frames with.

Each randomized scheduler (kv, decay, fkv, hm, single-hop) is defined
once, as a :class:`~repro.staticsched.runloop.FusedPolicy` driven by
the fused slot loop in :mod:`repro.staticsched.runloop`. The ``numpy``
backend (the default) evaluates slots with chunked Bernoulli draws,
sparse attempter-set bookkeeping, lazy history and the model's own
batch evaluator;
:func:`scalar_reference` pins runs to the ``scalar`` backend — the same
loop asking the model's scalar ``successes()`` once per slot — for
verification. Both replay each other bit-for-bit from one seed.

Included algorithms (paper references in each module):

========================  =====================================  =======================
module                    algorithm                              length (whp)
========================  =====================================  =======================
``decay``                 random 1/(4I) transmission (Thm 19)    ``O(I log n)``
``fkv``                   phased decay, FKV-style [21]           ``O(I + log^2 n)``
``kv``                    ack-based contention resolution [33]   ``O(A-bar log n)``
``mac_backoff``           Algorithm 2 (symmetric MAC)            ``(1+d) e n + O(log^2 n)``
``round_robin``           Round-Robin-Withholding (Lemma 17)     ``n + m`` exact
``power_control``         capacity selection [32]                ``O(I log n)``
``single_hop``            trivial packet-routing scheduler       ``I`` exact
``oracle``                omniscient greedy (baseline)           model-dependent
========================  =====================================  =======================
"""

from repro.staticsched.base import (
    LazySlotHistory,
    LengthBound,
    LinkQueues,
    RunResult,
    StaticAlgorithm,
)
from repro.staticsched.runloop import (
    BACKENDS,
    available_backends,
    default_backend,
    resolve_backend,
    scalar_reference,
    set_default_backend,
    use_backend,
)
from repro.staticsched.decay import DecayScheduler
from repro.staticsched.fkv import FkvScheduler
from repro.staticsched.hm import HmScheduler
from repro.staticsched.kv import KvScheduler
from repro.staticsched.mac_backoff import MacBackoffScheduler
from repro.staticsched.round_robin import RoundRobinScheduler
from repro.staticsched.power_control import PowerControlScheduler
from repro.staticsched.single_hop import SingleHopScheduler
from repro.staticsched.oracle import OracleScheduler
from repro.staticsched.max_weight import MaxWeightScheduler

__all__ = [
    "StaticAlgorithm",
    "RunResult",
    "LazySlotHistory",
    "LengthBound",
    "LinkQueues",
    "scalar_reference",
    "BACKENDS",
    "available_backends",
    "default_backend",
    "resolve_backend",
    "set_default_backend",
    "use_backend",
    "DecayScheduler",
    "FkvScheduler",
    "HmScheduler",
    "KvScheduler",
    "MacBackoffScheduler",
    "RoundRobinScheduler",
    "PowerControlScheduler",
    "SingleHopScheduler",
    "OracleScheduler",
    "MaxWeightScheduler",
]
