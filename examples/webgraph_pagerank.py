#!/usr/bin/env python
"""Web-graph ranking: PageRank vs PageRank-Delta, and what FCIU saves.

The paper's intro motivates cross-iteration computation with exactly
this workload: ranking pages on a web crawl, where every full PageRank
iteration re-reads the whole multi-GB edge set. This example runs both
PR and PR-D on the UK2007 web-crawl proxy and shows

* how FCIU's cross-iteration propagation cuts the bytes re-read in the
  second iteration of each round (only the secondary sub-blocks return
  to disk),
* how PR-Delta's shrinking frontier lets the scheduler move from full
  sweeps to selective loads as ranks converge,
* that both formulations agree on the ranking.

Run:  python examples/webgraph_pagerank.py
"""

import numpy as np

from repro.bench import Harness
from repro.datasets import load_dataset


def main() -> None:
    edges = load_dataset("uk2007")
    print(f"uk2007 proxy: |V|={edges.num_vertices:,} |E|={edges.num_edges:,}")

    with Harness(P=8) as harness:
        pr = harness.run("graphsd", "pr", "uk2007")
        pr_nocross = harness.run("graphsd-b1", "pr", "uk2007")
        prd = harness.run("graphsd", "pr-d", "uk2007")

    print("\nPageRank, 5 iterations:")
    print(f"  with FCIU cross-iteration: {pr.sim_seconds:6.2f}s "
          f"({pr.io_traffic / (1 << 20):7.1f} MiB)")
    print(f"  without (ablation b1):     {pr_nocross.sim_seconds:6.2f}s "
          f"({pr_nocross.io_traffic / (1 << 20):7.1f} MiB)")
    print(f"  cross-iteration update saves "
          f"{100 * (1 - pr.io_traffic / pr_nocross.io_traffic):.0f}% of the I/O traffic")
    per_iter = [f"{r.io_bytes / (1 << 20):.0f}" for r in pr.per_iteration]
    print(f"  MiB read per iteration: {per_iter} "
          "(every 2nd iteration re-reads only secondary sub-blocks)")

    print("\nPageRank-Delta, up to 20 iterations:")
    print(f"  {prd.summary()}")
    print(f"  frontier sizes: {prd.frontier_history}")
    print(f"  I/O models:     {prd.model_history}")

    # The two formulations converge to the same ranking.
    top_pr = np.argsort(pr.values)[::-1][:10]
    top_prd = np.argsort(prd.values)[::-1][:10]
    overlap = len(set(top_pr.tolist()) & set(top_prd.tolist()))
    print(f"\ntop-10 overlap between PR and PR-Delta rankings: {overlap}/10")


if __name__ == "__main__":
    main()
