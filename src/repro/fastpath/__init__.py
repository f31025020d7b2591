"""repro.fastpath: the vector execution backend, the default simulation path.

A struct-of-arrays fast path over the reference out-of-order model —
packed-bitmask SPT rule evaluation, decode-time metadata tables, and
quiescent-cycle fast-forwarding — verified bit-identical against the
reference backend by the differential suite in ``tests/fastpath`` and by
the ``repro backend-diff`` command.  Pure Python: its tables are lists
and its window state is Python-int bitmasks, so it has no third-party
dependency.  ``MachineParams(backend="reference")`` selects the
reference :class:`~repro.pipeline.core.OoOCore` instead.
"""

from repro.fastpath.spt_vector import VectorSPTEngine, vectorize_engine
from repro.fastpath.vector_core import VectorCore

__all__ = ["VectorCore", "VectorSPTEngine", "vectorize_engine"]
