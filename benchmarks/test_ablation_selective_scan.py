"""Benchmark: selective activation scans via epoch summaries (paper §7 extension).

Runs the experiment once and asserts its virtual-time rows against
the expected shape; the rows are saved to results/.
"""

from repro.bench import exp_ablation_selective_scan


def test_ablation_selective_scan():
    result = exp_ablation_selective_scan()
    print()
    print(result.render())
    result.save()
    assert result.passed(), "\n".join(
        check.render() for check in result.failures())
