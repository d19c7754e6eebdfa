"""Alternating timed rounds for the tools that time a baseline checkout
against this one.

Each case makes RUNS rounds, and each round times every side in turn,
in process and then cold, so drift in the host's speed reaches the
sides alike; each figure is the minimum of its RUNS times.
"""

RUNS = 5


def alternate(by_side: dict) -> dict:
    """Each side's minimum in-process and cold times over RUNS rounds
    that alternate the sides; ``by_side`` maps a side to its two timed
    runs, by field."""
    times: dict = {(name, field): [] for field in ("in_process_s", "cold_s") for name in by_side}
    for _ in range(RUNS):
        for name, field in times:
            times[name, field].append(by_side[name][field]())
    return {name: {"in_process_s": round(min(times[name, "in_process_s"]), 4),
                   "cold_s": round(min(times[name, "cold_s"]), 3),
                   "runs": [RUNS, RUNS]} for name in by_side}
