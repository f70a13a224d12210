#!/usr/bin/env python3
"""Diff BENCH_*.json artifacts against a previous run's.

Walks every numeric metric in the old and new artifact trees, keyed by
its JSON path (array elements keyed by their "id"/"name"/sweep-knob
field when present, so reordering a table does not misalign rows), and:

  - FAILS (exit 1) when a deterministic throughput metric
    (*aligns_per_sec*) regresses by more than --threshold percent —
    these come from the cycle model, so any drop is a real model or
    pipeline regression, not measurement noise;
  - FAILS when the lane engine's *active_lane_cells_per_sec* regresses
    beyond the threshold AND both artifacts report the same
    isa_tiers.active tier — if the active tier changed (different
    runner hardware), the comparison is demoted to a notice;
  - reports other wall-clock metrics (*cells_per_sec*, *_speedup*) as
    notices only — shared CI runners make them too noisy to gate on;
  - prints a notice for every hard- or soft-gated metric that is in the
    old artifact but missing from the new one, so a reshaped bench
    section cannot drop a gate silently.

When the old directory is missing, empty, or has no matching files the
script soft-passes with a notice (first run, expired artifacts).

Usage:
  bench_diff.py --old PREV_DIR --new NEW_DIR [--threshold 10]
"""

import argparse
import json
import os
import sys

HARD_SUFFIXES = ("aligns_per_sec",)
SOFT_SUFFIXES = ("cells_per_sec", "_speedup")
# The lane engine's throughput at the *active* ISA tier is gated like a
# deterministic metric (one pinned workload, one pinned tier), but only
# when both runs resolved the same tier — a runner swap (an avx512 box
# replaced by an avx2 one) legitimately moves the number, so a tier
# change demotes the comparison to a notice.
TIER_GATED_SUFFIX = "active_lane_cells_per_sec"
ACTIVE_TIER_KEY = "isa_tiers.active"
# Keys that name an array element better than its position.
ELEMENT_KEYS = ("id", "name", "npe", "nb", "band", "length")


def flatten(node, path, out, strings):
    """Collect {json-path: number} (and string leaves) per leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            flatten(value, f"{path}.{key}" if path else key, out, strings)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            label = str(index)
            if isinstance(value, dict):
                for key in ELEMENT_KEYS:
                    if key in value:
                        label = f"{key}={value[key]}"
                        break
            flatten(value, f"{path}[{label}]", out, strings)
    elif isinstance(node, bool):
        pass  # true/false are not throughput metrics
    elif isinstance(node, (int, float)):
        out[path] = float(node)
    elif isinstance(node, str):
        strings[path] = node


def load_metrics(path):
    with open(path) as handle:
        data = json.load(handle)
    metrics, strings = {}, {}
    flatten(data, "", metrics, strings)
    return metrics, strings


def classify(path, tier_matched=False):
    if path.endswith(TIER_GATED_SUFFIX):
        return "hard" if tier_matched else "soft"
    if path.endswith(HARD_SUFFIXES):
        return "hard"
    if path.endswith(SOFT_SUFFIXES):
        return "soft"
    return None


def diff_file(name, old, new, threshold_pct, old_strings, new_strings):
    """Return (regressions, notices) for one metric-dict pair."""
    regressions, notices = [], []
    tier_matched = (new_strings.get(ACTIVE_TIER_KEY) is not None and
                    old_strings.get(ACTIVE_TIER_KEY) ==
                    new_strings.get(ACTIVE_TIER_KEY))
    if (not tier_matched and ACTIVE_TIER_KEY in new_strings and
            ACTIVE_TIER_KEY in old_strings):
        notices.append(
            f"{name}: active ISA tier changed "
            f"{old_strings[ACTIVE_TIER_KEY]} -> "
            f"{new_strings[ACTIVE_TIER_KEY]} — lane throughput gate "
            "demoted to notice")
    # Gated metrics that only exist in the new run (a bench gained a
    # section, or an artifact landed for the first time with new keys):
    # nothing to diff against, so soft-pass with a notice instead of
    # silently skipping — the next run will have the baseline.
    for path in sorted(new.keys() - old.keys()):
        if classify(path, tier_matched) is not None:
            notices.append(f"{name}:{path}: {new[path]:.4g} "
                           "(new metric, no baseline — soft pass)")
    # Gated metrics the new run no longer reports (a bench section was
    # reshaped or renamed): nothing to gate on any more, which must be
    # visible rather than a silent skip.
    for path in sorted(old.keys() - new.keys()):
        if classify(path, tier_matched) is not None:
            notices.append(f"{name}:{path}: {old[path]:.4g} -> missing "
                           "(gated metric disappeared)")
    for path in sorted(old.keys() & new.keys()):
        kind = classify(path, tier_matched)
        if kind is None:
            continue
        before, after = old[path], new[path]
        if before <= 0:
            # A zero/negative baseline means the previous run crashed or
            # skipped this bench — there is nothing sane to divide by,
            # so treat it as soft: report, never gate.
            notices.append(f"{name}:{path}: baseline {before:.4g} "
                           f"-> {after:.4g} (no usable baseline, soft)")
            continue
        change_pct = 100.0 * (after - before) / before
        line = (f"{name}:{path}: {before:.4g} -> {after:.4g} "
                f"({change_pct:+.1f}%)")
        if change_pct < -threshold_pct:
            (regressions if kind == "hard" else notices).append(line)
        elif abs(change_pct) > threshold_pct:
            notices.append(line)
    return regressions, notices


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--old", required=True,
                        help="directory with the previous run's BENCH_*.json")
    parser.add_argument("--new", required=True,
                        help="directory with this run's BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="regression threshold in percent (default 10)")
    args = parser.parse_args()

    if not os.path.isdir(args.new):
        print(f"bench_diff: new artifact directory {args.new!r} missing")
        return 1
    new_files = sorted(f for f in os.listdir(args.new)
                       if f.startswith("BENCH_") and f.endswith(".json"))
    if not new_files:
        print(f"bench_diff: no BENCH_*.json under {args.new!r}")
        return 1

    if not os.path.isdir(args.old):
        print(f"bench_diff: no previous artifacts at {args.old!r} — "
              "soft pass (first run or expired artifacts)")
        return 0

    compared = 0
    regressions, notices = [], []
    for name in new_files:
        old_path = os.path.join(args.old, name)
        if not os.path.isfile(old_path):
            print(f"bench_diff: {name} has no previous artifact — skipped")
            continue
        try:
            old, old_strings = load_metrics(old_path)
        except (json.JSONDecodeError, OSError) as exc:
            # A truncated/corrupt previous artifact (interrupted upload)
            # is a missing baseline, not a regression: note and skip.
            print(f"bench_diff: {name} previous artifact unreadable "
                  f"({exc}) — skipped")
            continue
        # A corrupt NEW artifact is this run's bug: let it fail loudly.
        new, new_strings = load_metrics(os.path.join(args.new, name))
        file_regressions, file_notices = diff_file(
            name, old, new, args.threshold, old_strings, new_strings)
        regressions += file_regressions
        notices += file_notices
        compared += 1

    if compared == 0:
        print("bench_diff: no comparable artifacts — soft pass")
        return 0

    for line in notices:
        print(f"notice: {line}")
    if regressions:
        print(f"bench_diff: {len(regressions)} gated regression(s) "
              f"beyond {args.threshold:.0f}%:")
        for line in regressions:
            print(f"FAIL: {line}")
        return 1
    print(f"bench_diff: {compared} artifact(s) compared, no gated "
          f"regression beyond {args.threshold:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
