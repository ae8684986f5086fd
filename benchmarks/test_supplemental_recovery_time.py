"""Benchmark: crash-recovery mount time (supplemental; paper §5.5
describes the mechanism but does not measure it).

Runs the experiment once and asserts its virtual-time rows against
the expected shape; the rows are saved to results/.
"""

from repro.bench import exp_recovery_time


def test_supplemental_recovery_time():
    result = exp_recovery_time()
    print()
    print(result.render())
    result.save()
    assert result.passed(), "\n".join(
        check.render() for check in result.failures())
