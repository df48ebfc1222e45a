"""The name of a client transport that is gone.

``tcp://...?async=1`` once opened a pipelined asyncio proxy; every
``tcp://`` URL now opens the pooled blocking
:class:`~repro.net.client.RemoteServerProxy`, and the ``async`` key has no
effect.  The frozen end-to-end benchmark harness
(``benchmarks/e2e/e2ebench/harness.py``) still imports this name in its
traced pass; the alias goes with that import at the next change to the
benchmark.
"""

from repro.net.client import RemoteServerProxy

AsyncRemoteServerProxy = RemoteServerProxy
