"""Extension ablation: sub-block buffer budget sweep.

The paper fixes the memory budget at 5% of the graph (§5.1) and shows
buffering helps up to 21% (Fig. 12). This sweep varies the buffer's
share from 0 to 100% of the edge data on UKUnion/PR and checks the
expected saturation curve: monotone non-increasing execution time, with
the marginal benefit vanishing once every secondary sub-block fits.
"""

from conftest import print_report

from repro.algorithms import PageRank
from repro.bench.reporting import ExperimentReport
from repro.core import GraphSDConfig, GraphSDEngine
from repro.datasets import load_dataset
from repro.graph import preprocess_graphsd
from repro.storage import Device, SimulatedDisk

FRACTIONS = (0.0, 0.05, 0.15, 0.5, 1.0)


def run_sweep(tmp_root):
    edges = load_dataset("ukunion")
    device = Device(tmp_root / "store", SimulatedDisk())
    store = preprocess_graphsd(edges, device, P=8).store
    report = ExperimentReport(
        "ablation-budget",
        "Buffer budget sweep: PR on ukunion",
        ["buffer share", "time (s)", "I/O (MiB)", "cache hits"],
    )
    times = []
    for fraction in FRACTIONS:
        config = GraphSDConfig(buffer_bytes=int(fraction * store.logical_edge_bytes))
        result = GraphSDEngine(store, config=config).run(PageRank(iterations=6))
        times.append(result.sim_seconds)
        report.add_row(
            f"{int(100 * fraction)}%",
            result.sim_seconds,
            result.io_traffic / (1 << 20),
            result.io.cache_hits,
        )
    return report, times


def test_buffer_budget_sweep(benchmark, tmp_path):
    report, times = benchmark.pedantic(
        lambda: run_sweep(tmp_path), rounds=1, iterations=1
    )
    print_report(report)

    # Monotone non-increasing in the budget (tiny float tolerance).
    for a, b in zip(times, times[1:]):
        assert b <= a * (1 + 1e-9), times
    # A full-size buffer genuinely beats no buffer.
    assert times[-1] < times[0]
    # Saturation: going from 50% to 100% buys little.
    assert (times[-2] - times[-1]) < 0.25 * max(times[0] - times[-1], 1e-12)

    benchmark.extra_info["times"] = [round(t, 4) for t in times]
