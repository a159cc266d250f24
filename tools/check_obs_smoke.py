#!/usr/bin/env python3
"""CI smoke check for the observability surface.

Validates the artifacts of `threatraptor_cli hunt ... --explain-analyze
--profile-json profile.json --metrics-export`:

- the profile JSONL parses, and its first span tree is rooted at `hunt`
  with a non-negative duration and an `execute` child;
- every relational pattern span has a `plan` child (SQL candidate
  materialization), and when the pattern emitted rows, `base_rows_scanned`
  summed over the plan span, the serial pipeline and the morsel workers is
  above 0;
- every graph pattern span not answered from the subresult cache has a
  `plan` child whose `seed` note names the seed access path and which
  counts `seed_candidates` and `dict_strings_checked`;
- the captured stdout contains the expected Prometheus metric families.

Usage: check_obs_smoke.py PROFILE.jsonl CAPTURED_STDOUT.txt
"""
import json
import sys

EXPECTED_METRICS = (
    "raptor_hunts_submitted_total",
    "raptor_hunt_latency_micros",
    "raptor_admission_queue_depth",
    "raptor_wal_bytes_total",
)


def walk(span):
    yield span
    for child in span.get("children", []):
        yield from walk(child)


def check_relational_patterns(root):
    """Plan span present and scan counters attributed; returns the count of
    relational pattern spans checked."""
    checked = 0
    for span in walk(root):
        if not span["name"].startswith("pattern["):
            continue
        if span.get("notes", {}).get("backend") != "relational":
            continue
        counters = span.get("counters", {})
        if cache_answered(span):
            continue  # answered from the subresult cache: nothing planned
        checked += 1
        children = span.get("children", [])
        plans = [c for c in children if c["name"] == "plan"]
        assert plans, f"{span['name']}: no plan span: " + str(
            [c["name"] for c in children])
        workers = [c for c in children
                   if c["name"].startswith("morsel_worker[")
                   or c["name"] == "pipeline"]
        scanned = sum(c.get("counters", {}).get("base_rows_scanned", 0)
                      for c in plans + workers)
        emitted = sum(c.get("counters", {}).get("rows_emitted", 0)
                      for c in workers)
        emitted = max(emitted, counters.get("match_count", 0))
        assert emitted == 0 or scanned > 0, (
            f"{span['name']}: {emitted} rows emitted with base_rows_scanned "
            f"0 over plan + morsel workers")
    return checked


def cache_answered(span):
    counters = span.get("counters", {})
    return bool(counters.get("subresult_cache_hits", 0)
                and not counters.get("subresult_cache_misses", 0))


def check_graph_patterns(root):
    """Plan span with the seed access path under every graph pattern that
    ran; returns the count of graph pattern spans checked."""
    checked = 0
    for span in walk(root):
        if not span["name"].startswith("pattern["):
            continue
        if span.get("notes", {}).get("backend") != "graph":
            continue
        if cache_answered(span):
            continue
        checked += 1
        children = span.get("children", [])
        plans = [c for c in children if c["name"] == "plan"]
        assert plans, f"{span['name']}: no graph plan span: " + str(
            [c["name"] for c in children])
        for plan in plans:
            assert plan.get("notes", {}).get("seed"), (
                f"{span['name']}: graph plan span without a seed note")
            counters = plan.get("counters", {})
            for counter in ("seed_candidates", "dict_strings_checked"):
                assert counter in counters, (
                    f"{span['name']}: graph plan span lacks {counter}")
    return checked


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8") as f:
        trees = [json.loads(line) for line in f if line.strip()]
    assert trees, "profile JSONL is empty"
    root = trees[0]
    assert root["name"] == "hunt", f"root span is {root.get('name')!r}"
    assert root["duration_us"] >= 0, root
    children = root.get("children", [])
    assert any(c.get("name") == "execute" for c in children), (
        f"no execute child under hunt: {[c.get('name') for c in children]}"
    )
    relational = check_relational_patterns(root)
    assert relational > 0, "no relational pattern span in the profile"
    graph = sum(check_graph_patterns(tree) for tree in trees)
    with open(sys.argv[2], encoding="utf-8") as f:
        metrics = f.read()
    missing = [m for m in EXPECTED_METRICS if m not in metrics]
    assert not missing, f"missing metric families: {missing}"
    print(
        f"profile ok ({len(trees)} span tree(s), root {root['duration_us']} "
        f"us, {relational} relational pattern(s) with plan spans, {graph} "
        f"graph pattern(s) with seed plans); "
        f"{len(EXPECTED_METRICS)} expected metric families present"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
