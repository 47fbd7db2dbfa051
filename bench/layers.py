"""Per-layer metrics of a traced run, named ``<module>.<function>.<what>``.

Layers are statediv's modules.  Counts cover one set-up and one pass of the
op list, so they repeat exactly from run to run; times add the set-up's to
the median over the traced passes.
Every metric is reported on every workload: a layer a workload never calls
reads 0.
"""

from __future__ import annotations

import statistics

# Span names that get ``.calls`` and ``.self_s`` metrics.
TIMED_SPANS = (
    "hermitian.cluster_overlaps",
    "hermitian.from_matrix",
    "hermitian.decompose",
    "hermitian.apply_function",
    "bregman.bregman",
    "bregman.bregman_trace_form",
    "jensen.jensen",
    "jensen.midpoint_state",
    "preserver.probe_transitions_via_divergence",
    "preserver.transition_from_jensen",
    "preserver.max_divergence_functional",
    "preserver.recover_rank_two_spectrum",
    "preserver.wigner_reconstruct",
    "preserver.oracle",
    "preserver.verify_preserver",
    "sampling.random_state",
    "sampling.haar_unitary",
    "files.read_state",
    "files.write_state",
    "suites.run_suite",
) + tuple(f"cli.{sub}" for sub in ("div", "gen", "table", "probes", "reconstruct", "verify", "suite"))

BYTES = ("files.read_state", "files.write_state")

# Metrics a workload computes itself (``layer_extras``); 0 where not measured.
EXTRAS = (
    ("hermitian.from_matrix.alloc_peak_mb.d128", "MB"),
    ("bregman.eigh_multiple.d128", "ratio"),
    ("bregman.finite_median_ms.d128", "ms"),
    ("bregman.eigh_median_ms.d128", "ms"),
) + tuple(
    (f"kernel.eigh_{what}.d{d}", unit)
    for d in (16, 64, 128)
    for what, unit in (("flops", "flop"), ("bytes", "B"))
)


def names_and_units() -> list[tuple[str, str]]:
    """Every per-layer metric, in report order."""
    out = []
    for span in TIMED_SPANS:
        out += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
        if span in BYTES:
            out.append((f"{span}.bytes", "B"))
    out += [
        ("bregman.bregman.inf_share", "ratio"),
        ("generators.scalar_evals", "count"),
        ("generators.scalar_self_s", "s"),
        ("jensen.jensen_rank_one.calls", "count"),
        ("preserver.divergence_evals_per_unique_pair", "ratio"),
        ("preserver.unique_pairs", "count"),
    ]
    out += list(EXTRAS)
    out.append(("trace.overhead_s", "s"))
    return out


def pass_summary(tracer, first_span: int, counters_before, counted_before) -> dict:
    """Calls, self times and counters of the traced pass whose spans start at first_span."""
    counters = tracer.counters.copy()
    counters.subtract(counters_before)
    counted = tracer.counted_s.copy()
    counted.subtract(counted_before)
    return {
        "calls": tracer.call_counts(first_span),
        "self_s": tracer.self_times(first_span),
        "counters": counters,
        "counted_s": counted,
        "probe_divergence_evals": tracer.divergence_evals_in_probes(first_span),
    }


def metrics(setup: dict, passes: list[dict], overhead_s: float, extras: dict) -> dict:
    """The per-layer metric dict of a traced run: one set-up plus one pass.

    Counts come from the set-up and the first traced pass; times are the
    set-up's plus the median over traced passes.
    """
    first = passes[0]

    def count(key: str, name: str) -> float:
        return setup[key].get(name, 0) + first[key].get(name, 0)

    def seconds(key: str, name: str) -> float:
        return setup[key].get(name, 0.0) + statistics.median(p[key].get(name, 0.0) for p in passes)

    values: dict[str, float] = {}
    for span in TIMED_SPANS:
        values[f"{span}.calls"] = count("calls", span)
        values[f"{span}.self_s"] = seconds("self_s", span)
        if span in BYTES:
            values[f"{span}.bytes"] = count("counters", f"{span}.bytes")
    calls = values["bregman.bregman.calls"]
    values["bregman.bregman.inf_share"] = count("counters", "bregman.bregman.inf") / calls if calls else 0.0
    values["generators.scalar_evals"] = count("counters", "generators.scalar_evals")
    values["generators.scalar_self_s"] = seconds("counted_s", "generators.scalar")
    values["jensen.jensen_rank_one.calls"] = count("counters", "jensen.jensen_rank_one.calls")
    pairs = count("counters", "preserver.unique_pairs")
    values["preserver.unique_pairs"] = pairs
    evals = setup["probe_divergence_evals"] + first["probe_divergence_evals"]
    values["preserver.divergence_evals_per_unique_pair"] = evals / pairs if pairs else 0.0
    for name, _ in EXTRAS:
        values[name] = extras.get(name, 0.0)
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values[name], "unit": unit} for name, unit in names_and_units()}
