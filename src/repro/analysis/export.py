"""Machine-readable exports: JSON for simulation results, CSV for
figures, JSONL/CSV for observability traces (see :mod:`repro.obs`),
and a bundle writer that materializes every reproduced figure into a
directory (text + CSV side by side) for downstream plotting.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import Callable, Dict, Iterable, List, Optional

from ..core.results import OffloadSummary, SimulationResult
from ..energy.model import EnergyBreakdown
from ..errors import AnalysisError
from ..interconnect.links import TrafficBreakdown
from .figures import FigureResult


def result_to_dict(result: SimulationResult) -> Dict:
    """A flat, JSON-safe view of one simulation run.

    Lossless: :func:`result_from_dict` reconstructs an identical
    :class:`SimulationResult`. Derived values (ipc, totals, rates) are
    included for readers; the persistent result cache stores the
    shorter :meth:`SimulationResult.to_row` instead.
    """
    return {
        "workload": result.workload,
        "policy": result.policy_label,
        "cycles": result.cycles,
        "warp_instructions": result.warp_instructions,
        "warp_size": result.warp_size,
        "thread_instructions": result.thread_instructions,
        "ipc": result.ipc,
        "traffic": {
            "gpu_memory_rx": result.traffic.gpu_memory_rx,
            "gpu_memory_tx": result.traffic.gpu_memory_tx,
            "memory_memory": result.traffic.memory_memory,
            "pcie": result.traffic.pcie,
            "off_chip_total": result.traffic.off_chip_total,
        },
        "energy_j": {
            "sm": result.energy.sm_j,
            "links": result.energy.links_j,
            "dram": result.energy.dram_j,
            "total": result.energy.total_j,
        },
        "offload": {
            "candidates_considered": result.offload.candidates_considered,
            "candidates_offloaded": result.offload.candidates_offloaded,
            "offload_rate": result.offload.offload_rate,
            "offloaded_warp_instructions": (
                result.offload.offloaded_warp_instructions
            ),
            "total_warp_instructions": result.offload.total_warp_instructions,
            "offloaded_instruction_fraction": (
                result.offload.offloaded_instruction_fraction
            ),
            "decisions": dict(result.offload.decision_breakdown),
            "dirty_lines_reported": result.offload.dirty_lines_reported,
        },
        "learned_bit_position": result.learned_bit_position,
        "learned_colocation": result.learned_colocation,
        "l1_load_miss_rate": result.l1_load_miss_rate,
        "l2_load_miss_rate": result.l2_load_miss_rate,
        "dram_row_hit_rate": result.dram_row_hit_rate,
        "extra": dict(result.extra),
    }


def result_from_dict(payload: Dict) -> SimulationResult:
    """Inverse of :func:`result_to_dict`.

    Raises ``KeyError``/``TypeError`` on malformed payloads.
    """
    traffic = payload["traffic"]
    energy = payload["energy_j"]
    offload = payload["offload"]
    return SimulationResult(
        workload=payload["workload"],
        policy_label=payload["policy"],
        cycles=payload["cycles"],
        warp_instructions=payload["warp_instructions"],
        warp_size=payload["warp_size"],
        traffic=TrafficBreakdown(
            gpu_memory_rx=traffic["gpu_memory_rx"],
            gpu_memory_tx=traffic["gpu_memory_tx"],
            memory_memory=traffic["memory_memory"],
            pcie=traffic["pcie"],
        ),
        energy=EnergyBreakdown(
            sm_j=energy["sm"],
            links_j=energy["links"],
            dram_j=energy["dram"],
        ),
        offload=OffloadSummary(
            candidates_considered=offload["candidates_considered"],
            candidates_offloaded=offload["candidates_offloaded"],
            decision_breakdown=dict(offload["decisions"]),
            offloaded_warp_instructions=offload["offloaded_warp_instructions"],
            total_warp_instructions=offload["total_warp_instructions"],
            dirty_lines_reported=offload["dirty_lines_reported"],
        ),
        learned_bit_position=payload["learned_bit_position"],
        learned_colocation=payload["learned_colocation"],
        l1_load_miss_rate=payload["l1_load_miss_rate"],
        l2_load_miss_rate=payload["l2_load_miss_rate"],
        dram_row_hit_rate=payload["dram_row_hit_rate"],
        extra=dict(payload.get("extra", {})),
    )


def result_to_json(result: SimulationResult, indent: int = 2) -> str:
    return json.dumps(result_to_dict(result), indent=indent, sort_keys=True)


def trace_to_jsonl(events: Iterable) -> str:
    """One JSON object per line, one line per trace event (the
    :mod:`repro.obs.events` schema); inverse of
    :func:`trace_from_jsonl`."""
    return "".join(
        json.dumps(event.to_dict(), sort_keys=True) + "\n" for event in events
    )


def trace_from_jsonl(text: str) -> List:
    """Parse a JSONL trace back into event objects; blank lines are
    skipped, malformed lines raise (a truncated trace should be loud)."""
    from ..obs.events import event_from_dict

    events = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            events.append(event_from_dict(json.loads(line)))
    return events


def write_trace_jsonl(events: Iterable, path: str) -> int:
    """Write a trace to ``path``; returns the number of events."""
    events = list(events)
    with open(path, "w") as handle:
        handle.write(trace_to_jsonl(events))
    return len(events)


def read_trace_jsonl(path: str) -> List:
    with open(path) as handle:
        return trace_from_jsonl(handle.read())


def trace_samples_to_csv(events: Iterable) -> str:
    """The trace's :class:`~repro.obs.events.MetricSample` time series
    as CSV — one row per window, one column per channel/metric — for
    plotting per-channel utilization timelines outside the CLI."""
    samples = [event for event in events if event.kind == "sample"]
    if not samples:
        raise AnalysisError("trace contains no metric samples")
    n_channels = len(samples[0].tx_utilization)
    n_stacks = len(samples[0].vault_backlog)
    header = (
        ["time", "window"]
        + [f"tx{i}_util" for i in range(n_channels)]
        + [f"rx{i}_util" for i in range(n_channels)]
        + ["pcie_util"]
        + [f"stack{i}_vault_backlog" for i in range(n_stacks)]
        + [f"stack{i}_dram_requests" for i in range(n_stacks)]
        + ["l1_load_hit_rate", "l2_load_hit_rate"]
    )
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    for sample in samples:
        writer.writerow(
            [sample.time, sample.window]
            + list(sample.tx_utilization)
            + list(sample.rx_utilization)
            + [sample.pcie_utilization]
            + list(sample.vault_backlog)
            + list(sample.dram_requests)
            + [sample.l1_load_hit_rate, sample.l2_load_hit_rate]
        )
    return buffer.getvalue()


def figure_to_csv(figure: FigureResult) -> str:
    """One row per series, one column per figure column; blank cells
    for values a series does not define."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["series"] + list(figure.columns))
    for series, values in figure.rows.items():
        writer.writerow(
            [series] + [values.get(column, "") for column in figure.columns]
        )
    return buffer.getvalue()


def figure_to_dict(figure: FigureResult) -> Dict:
    return {
        "figure_id": figure.figure_id,
        "title": figure.title,
        "columns": list(figure.columns),
        "rows": {name: dict(values) for name, values in figure.rows.items()},
        "note": figure.note,
    }


def write_figure(figure: FigureResult, directory: str) -> List[str]:
    """Write ``<figure-id>.txt``, ``.csv``, and ``.json`` into
    ``directory``; returns the paths written."""
    os.makedirs(directory, exist_ok=True)
    slug = figure.figure_id.lower().replace(" ", "").replace(".", "_")
    paths = []
    for extension, content in (
        ("txt", figure.render() + "\n"),
        ("csv", figure_to_csv(figure)),
        ("json", json.dumps(figure_to_dict(figure), indent=2) + "\n"),
    ):
        path = os.path.join(directory, f"{slug}.{extension}")
        with open(path, "w") as handle:
            handle.write(content)
        paths.append(path)
    return paths


def write_bundle(
    directory: str,
    figure_names: Optional[Iterable[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[str]:
    """Regenerate figures (all by default) into ``directory``.

    Shares the Figure 8 simulations across figures 8/9/10 and the
    capacity sweep across 11/12, exactly like the benchmark harness.
    """
    from . import figures

    drivers = figures.FIGURE_BUILDERS
    chosen = list(figure_names) if figure_names is not None else list(drivers)
    unknown = [name for name in chosen if name not in drivers]
    if unknown:
        raise AnalysisError(f"unknown figures {unknown}; pick from {list(drivers)}")

    shared = None
    sweep = None
    written: List[str] = []
    for name in chosen:
        if progress:
            progress(name)
        if name in ("fig8", "fig9", "fig10"):
            shared = shared or figures.run_figure8_suite()
            figure = drivers[name](results=shared)
        elif name in ("fig11", "fig12"):
            sweep = sweep or figures.warp_capacity_sweep()
            figure = drivers[name](sweeps=sweep)
        else:
            figure = drivers[name]()
        written.extend(write_figure(figure, directory))
    return written
