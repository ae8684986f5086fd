"""Benchmark: snapshot-create impact vs disk-optimized baseline (paper Figure 11).

Runs the experiment once and asserts its virtual-time rows against
the paper's shape; the rows are saved to results/.
"""

from repro.bench import exp_fig11


def test_fig11_btrfs_create_impact():
    result = exp_fig11()
    print()
    print(result.render())
    result.save()
    assert result.passed(), "\n".join(
        check.render() for check in result.failures())
