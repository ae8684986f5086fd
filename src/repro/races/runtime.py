"""Compatibility stub: the runtime race detector has been removed.

``benchmarks/e2e/cli.py`` imports this module and refuses to measure
while ``enabled`` is set; it is never set any more.  Delete this
package once that import is gone.
"""

#: Always False: nothing arms a race detector.
enabled: bool = False
