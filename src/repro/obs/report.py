"""`graphsd trace report`: digest a trace into a human-readable summary.

The report answers the questions the paper's Fig. 10 raises: how well
did the §4.1 cost model's predictions (``C_s``/``C_r``) track the
simulated cost that actually materialised, and where did the scheduler
flip between the full and on-demand I/O models? It also prints the
per-iteration phase table and the final metrics snapshot so one command
gives the whole run's story.
"""

from __future__ import annotations

from typing import Any, List

from repro.obs.schema import validate_trace_file


def _fmt(value: Any, width: int = 10) -> str:
    if isinstance(value, float):
        return f"{value:>{width}.4f}"
    return f"{value!s:>{width}}"


def render_report(path: str) -> str:
    """Validate the trace at ``path`` and render the report text."""
    events = validate_trace_file(path)
    meta = events[0]
    iterations = [e for e in events if e["type"] == "iteration"]
    audits = [e for e in events if e["type"] == "audit"]
    recoveries = [e for e in events if e["type"] == "recovery"]
    priorities = [e for e in events if e["type"] == "priority"]
    sends = [e for e in events if e["type"] == "send"]
    runs = [e for e in events if e["type"] == "run"]
    final_metrics = [
        e for e in events if e["type"] == "metrics" and e.get("scope") == "final"
    ]

    lines: List[str] = []
    ident = {k: v for k, v in meta.items() if k not in ("type", "schema", "version")}
    lines.append(f"trace: {meta['schema']} v{meta['version']}")
    if ident:
        lines.append("  " + "  ".join(f"{k}={v}" for k, v in sorted(ident.items())))

    if iterations:
        lines.append("")
        lines.append(
            f"{'it':>4} {'model':>8} {'frontier':>9} {'edges':>10} "
            f"{'sim_s':>10} {'io_s':>10} {'net_s':>10} {'read_MB':>9}"
        )
        for it in iterations:
            sim, io = it["sim"], it["io"]
            io_s = sim.get("io_read", 0.0) + sim.get("io_write", 0.0)
            net_s = sim.get("network", 0.0)
            read_mb = (io.get("bytes_read_seq", 0) + io.get("bytes_read_ran", 0)) / 1e6
            lines.append(
                f"{it['iteration']:>4} {it['model']:>8} {it['frontier_size']:>9} "
                f"{it['edges_processed']:>10} {it['sim_seconds']:>10.4f} "
                f"{io_s:>10.4f} {net_s:>10.4f} {read_mb:>9.2f}"
            )

    if audits:
        lines.append("")
        lines.append("scheduler decisions (§4.1):")
        lines.append(
            f"{'it':>4} {'chosen':>10} {'C_s':>10} {'C_r':>10} "
            f"{'predicted':>10} {'actual':>10} {'rel_err':>8} {'ran':>6}"
        )
        rel_errors: List[float] = []
        abs_errors: List[float] = []
        prev_choice = None
        flips: List[int] = []
        for a in audits:
            actual = a["actual_sim_seconds"]
            rel = a.get("rel_error")
            if actual is not None and a.get("abs_error") is not None:
                abs_errors.append(a["abs_error"])
            if rel is not None:
                rel_errors.append(rel)
            if prev_choice is not None and a["chosen"] != prev_choice:
                flips.append(a["iteration"])
            prev_choice = a["chosen"]
            lines.append(
                f"{a['iteration']:>4} {a['chosen']:>10} "
                f"{_fmt(a['c_full'])} {_fmt(a['c_on_demand'])} "
                f"{_fmt(a['predicted_seconds'])} "
                f"{_fmt(actual if actual is not None else '-')} "
                f"{_fmt(rel if rel is not None else '-', 8)} "
                f"{(a['actual_model'] or '-'):>6}"
            )
        lines.append("")
        if rel_errors:
            mean_rel = sum(rel_errors) / len(rel_errors)
            lines.append(
                f"prediction error: mean_rel={mean_rel:.4f} "
                f"max_rel={max(rel_errors):.4f} "
                f"mean_abs={sum(abs_errors) / len(abs_errors):.4f}s "
                f"max_abs={max(abs_errors):.4f}s "
                f"over {len(rel_errors)} closed decisions"
            )
        else:
            lines.append("prediction error: no closed decisions")
        if flips:
            lines.append(
                "model flips at iterations: " + ", ".join(str(i) for i in flips)
            )
        else:
            lines.append("model flips: none")

    if recoveries:
        lines.append("")
        lines.append(f"recovery events ({len(recoveries)}):")
        for r in recoveries:
            detail = r["detail"]
            extras = "  ".join(f"{k}={detail[k]}" for k in sorted(detail))
            lines.append(
                f"  s{r['superstep']:<3} w{r['worker']} {r['event']:<9} {extras}"
            )

    if priorities:
        lines.append("")
        sweeps = {p["sweep"] for p in priorities}
        selective = sum(p["selective_blocks"] for p in priorities)
        full = sum(p["full_blocks"] for p in priorities)
        activations = sum(p["new_activations"] for p in priorities)
        lines.append(
            f"priority scheduling: {len(priorities)} pops over "
            f"{len(sweeps)} sweeps, {activations} new activations, "
            f"blocks selective/full = {selective}/{full}"
        )

    if sends:
        lines.append("")
        accepted = sum(1 for s in sends if s["status"] == "accepted")
        nbytes = sum(s["nbytes"] for s in sends)
        lines.append(
            f"messages: {len(sends)} sends ({accepted} accepted, "
            f"{len(sends) - accepted} duplicate), {nbytes / 1e6:.2f} MB payload"
        )

    if runs:
        run = runs[-1]
        lines.append("")
        lines.append(
            f"run: engine={run['engine']} iterations={run['iterations']} "
            f"converged={run['converged']} sim_seconds={run['sim_seconds']:.4f}"
        )
        recovery_counters = run.get("recovery") or {}
        if recovery_counters:
            summary = "  ".join(
                f"{k}={recovery_counters[k]}" for k in sorted(recovery_counters)
            )
            lines.append(f"  recovery: {summary}")

    if final_metrics:
        snap = final_metrics[-1]["metrics"]
        counters = snap["counters"]
        hists = snap["histograms"]
        if counters:
            lines.append("")
            lines.append("counters:")
            for name in sorted(counters):
                lines.append(f"  {name} = {counters[name]}")
        if hists:
            lines.append("histograms:")
            for name in sorted(hists):
                h = hists[name]
                lines.append(
                    f"  {name}: count={h['count']} sum={h['sum']:.4g} "
                    f"min={h['min']:.4g} max={h['max']:.4g}"
                )

    return "\n".join(lines) + "\n"
