"""Benchmark: snapshot create/delete latency (paper §6.2.1).

Runs the experiment once and asserts its virtual-time rows against
the paper's shape; the rows are saved to results/.
"""

from repro.bench import exp_create_delete


def test_create_delete_latency():
    result = exp_create_delete()
    print()
    print(result.render())
    result.save()
    assert result.passed(), "\n".join(
        check.render() for check in result.failures())
