"""Metric definitions and statistics for the pnc_analyze / pncd benchmark.

Everything here is pure: run.py feeds it the raw samples pnc_perf wrote,
and the self-tests in test_perfbench.py exercise it directly.
"""

import json
import statistics

WORKLOADS = ("cold_cli", "warm_dir", "tree_10k")

# The op kinds each workload times.  Every end-to-end metric named a_*,
# b_* or c_* is measured on that workload's kind of the same letter.
KINDS = {
    "cold_cli": {
        "a": "fresh pnc_analyze --format=sarif --dir over ~2,000 small units",
        "b": "fresh pnc_analyze --format=sarif over three >= 1 MiB units",
        "c": "fresh pnc_analyze --format=sarif over one small unit",
    },
    "warm_dir": {
        "a": "warm ANALYZE_DIR (JSON) of the 104-file tree, one connection",
        "b": "warm ANALYZE_DIR (JSON) of the 104-file tree, four connections",
        "c": "warm ANALYZE_DIR (SARIF) of the 104-file tree, one connection",
    },
    "tree_10k": {
        "a": "TREE_REANALYZE with nothing edited (nochange)",
        "b": "TREE_REANALYZE after one file is rewritten (edit)",
        "c": "ANALYZE_DIR over the whole 10k-file tree (full)",
    },
}

# name -> (unit, better, bound, what it is).  The bounds are wide because
# the host's speed drifts by 10-30% over minutes (same seed, same binary),
# which no run length averages away; see README.md.
END_TO_END = {
    "a_ms": ("ms", "lower", 0.25,
             "latency of op kind a at the workload's CENTERS percentile"),
    "a_tail_ms": ("ms", "lower", 0.25,
                  "latency of op kind a at the workload's TAILS percentile"),
    "b_ms": ("ms", "lower", 0.25,
             "latency of op kind b at the workload's CENTERS percentile"),
    "c_ms": ("ms", "lower", 0.25,
             "latency of op kind c at the workload's CENTERS percentile"),
    "throughput_rps": ("1/s", "higher", 0.25,
                       "ops completed per second by the closed loop"),
    "peak_rss_mib": ("MiB", "lower", 0.25,
                     "ru_maxrss of pnc_analyze, or VmHWM of pncd"),
    "setup_s": ("s", "lower", 0.25, "median of the workload's set-ups"),
}

# The percentile of a_ms, b_ms and c_ms: workload -> kind -> percentile,
# by nearest rank.  The median, except for the few-millisecond ops:
# warm_dir's one-connection kinds and cold_cli's one-unit run.  Their
# latencies are bimodal on a shared host: in episodes of 0.2-1 s that
# cover 20-45% of a run, other tenants' cache and memory traffic slows an
# op by ~40%, so the median moves with the share of slow episodes (15-27%
# between runs of one binary) while p10 stays on the fast mode (under
# 10%).  A slower program moves both modes.  Ops of ~50 ms and more span
# many episodes, so their medians hold.
CENTERS = {
    "cold_cli": {"a": 50, "b": 50, "c": 10},
    "warm_dir": {"a": 10, "b": 50, "c": 10},
    "tree_10k": {"a": 50, "b": 50, "c": 50},
}

# Workload-specific names for the headline numbers, printed beside the
# metrics above but not gated: alias -> (workload, unit, how it is
# derived).  "median of X" is the median latency of op kind X.
ALIASES = {
    "files_per_s": ("cold_cli", "files/s", "files of kind a / median of a"),
    "mib_per_s": ("cold_cli", "MiB/s", "MiB of kind b / median of b"),
    "p50_ms": ("warm_dir", "ms", "median of a"),
    "tail_ms": ("warm_dir", "ms", "a_tail_ms"),
    "throughput_rps": ("warm_dir", "req/s", "throughput_rps"),
    "nochange_p50_ms": ("tree_10k", "ms", "median of a"),
    "nochange_tail_ms": ("tree_10k", "ms", "a_tail_ms"),
    "edit_p50_ms": ("tree_10k", "ms", "median of b"),
    "full_p50_ms": ("tree_10k", "ms", "median of c"),
}

# name -> (unit, better).  Reported by every traced run; a layer a
# workload bypasses reports 0.
PER_LAYER = {
    "cli.startup_ms": ("ms", "lower"),
    "cli.cpu_ms_per_op": ("ms", "lower"),
    "cli.parallelism": ("ratio", "higher"),
    "pncd.ready_ms": ("ms", "lower"),
    "pncd.cpu_ms_per_op": ("ms", "lower"),
    "pncd.write_bytes_per_op": ("B", "lower"),
    "pncd.write_calls_per_op": ("count", "lower"),
    "analysis.walk.ms": ("ms", "lower"),
    "analysis.walk.files": ("count", "lower"),
    "analysis.mapped_buffer.open_us": ("us", "lower"),
    "analysis.mapped_buffer.mapped_share": ("ratio", "lower"),
    "analysis.mapped_buffer.failures": ("count", "lower"),
    "analysis.hash.mib_per_s": ("MiB/s", "higher"),
    "analysis.lexer.mib_per_s_small": ("MiB/s", "higher"),
    "analysis.lexer.mib_per_s_large": ("MiB/s", "higher"),
    "analysis.lexer.tokens_per_kib": ("count", "lower"),
    "analysis.parser.mib_per_s_small": ("MiB/s", "higher"),
    "analysis.parser.mib_per_s_large": ("MiB/s", "higher"),
    "analysis.parser.ast_nodes_per_kib": ("count", "lower"),
    "analysis.parser.arena_bytes_per_kib": ("B", "lower"),
    "analysis.sema.us_per_file": ("us", "lower"),
    "analysis.sema.classes_per_file": ("count", "lower"),
    "analysis.checkers.us_per_file": ("us", "lower"),
    "analysis.checkers.mib_per_s_large": ("MiB/s", "higher"),
    "analysis.checkers.placement_sites": ("count", "lower"),
    "analysis.checkers.diagnostics": ("count", "lower"),
    "analysis.analyzer.overhead_us_per_file": ("us", "lower"),
    "analysis.cache.find_hit_us": ("us", "lower"),
    "analysis.cache.find_hit_us_4t": ("us", "lower"),
    "analysis.cache.hit_ratio": ("ratio", "higher"),
    "analysis.cache.evictions_per_op": ("count", "lower"),
    "analysis.scheduler.call_us": ("us", "lower"),
    "analysis.scheduler.steals_per_call": ("count", "lower"),
    "analysis.driver.run_warm_ms_1t": ("ms", "lower"),
    "analysis.driver.run_warm_ms": ("ms", "lower"),
    "analysis.render.json_ms": ("ms", "lower"),
    "analysis.render.sarif_ms": ("ms", "lower"),
    "analysis.render.bytes": ("B", "lower"),
    "analysis.tree_manifest.scan_ms": ("ms", "lower"),
    "analysis.tree_manifest.stat_calls": ("count", "lower"),
    "analysis.tree_manifest.rehashes": ("count", "lower"),
    "analysis.tree_manifest.commit_ms": ("ms", "lower"),
    "service.manifest_codec.save_ms": ("ms", "lower"),
    "service.manifest_codec.bytes": ("B", "lower"),
    "service.disk_cache.load_us": ("us", "lower"),
    "service.disk_cache.load_us_4t": ("us", "lower"),
    "service.disk_cache.store_us": ("us", "lower"),
    "service.disk_cache.hit_ratio": ("ratio", "higher"),
    "service.result_codec.encode_us": ("us", "lower"),
    "service.result_codec.decode_us": ("us", "lower"),
    "service.protocol.encode_us": ("us", "lower"),
    "service.protocol.decode_us": ("us", "lower"),
    "service.protocol.frame_bytes": ("B", "lower"),
    "service.client.ping_rtt_us": ("us", "lower"),
    "service.client.ping_rtt_us_4c": ("us", "lower"),
    "service.server.handle_ms": ("ms", "lower"),
    "service.server.dispatch_overhead_ms": ("ms", "lower"),
    "service.server.loaded_p50_ms": ("ms", "lower"),
    "service.server.sheds": ("count", "lower"),
    "service.server.deadline_rejects": ("count", "lower"),
}
for _kind in "abc":
    PER_LAYER[_kind + ".unattributed_pct"] = ("%", "lower")
    PER_LAYER[_kind + ".tracing_overhead_pct"] = ("%", "lower")

TAIL_BEYOND = 10
# Candidate tail percentiles.  Capped at p95: above it a 20-second run's
# tail is set by a handful of host hiccups (warm_dir's p99 spread 0.18-0.23
# over ten seeds, against 0.08 for its median).
TAIL_LADDER = (95, 90, 85, 80, 75, 50)

# The percentile of a_tail_ms, fixed per workload so that every run of a
# workload reports the same one, whatever its sample count: workload ->
# (percentile, fewest kind-a samples seen in a 20-second run).  Each
# percentile is the tail rule (highest_percentile) applied to that count
# divided by TAIL_SLACK — the host's speed was seen to halve between runs
# minutes apart — so a slow run still leaves TAIL_BEYOND samples beyond
# it.  A run with fewer fails.
TAIL_SLACK = 2
TAILS = {
    "cold_cli": (75, 96),
    "warm_dir": (95, 2632),
    "tree_10k": (75, 97),
}


class TailRefused(ValueError):
    """Fewer samples beyond the tail's percentile than the rule needs."""


def samples_beyond(n, pct):
    """Samples above the nearest-rank @p pct percentile of @p n samples."""
    return n - -(-pct * n // 100)


def highest_percentile(n, beyond=TAIL_BEYOND):
    """The tail rule: the highest ladder percentile that has at least
    @p beyond of @p n samples above it, or None when none has."""
    for pct in TAIL_LADDER:
        if n and samples_beyond(n, pct) >= beyond:
            return pct
    return None


def tail(samples, pct, beyond=TAIL_BEYOND):
    """The nearest-rank @p pct percentile of @p samples.

    Raises TailRefused when fewer than @p beyond samples lie above it.
    """
    n = len(samples)
    if samples_beyond(n, pct) < beyond:
        raise TailRefused(f"{n} samples leave {samples_beyond(n, pct)} beyond "
                          f"p{pct}; the tail needs {beyond}")
    return percentile(samples, pct)


def percentile(samples, pct):
    """The nearest-rank @p pct percentile (0 < pct <= 100) of @p samples."""
    n = len(samples)
    if not n:
        raise ValueError("no samples")
    return sorted(samples)[n - samples_beyond(n, pct) - 1]


def median(samples):
    return statistics.median(samples) if samples else 0.0


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def end_to_end(workload, raw):
    """name -> {"value", "unit", "samples", ...} from a raw pnc_perf result."""
    out = {}
    kinds = raw["kinds"]
    for k, pct in CENTERS[workload].items():
        lat = kinds[k]["lat_ms"]
        out[k + "_ms"] = {"value": percentile(lat, pct), "samples": len(lat),
                          "percentile": pct}
    lat = kinds["a"]["lat_ms"]
    pct = TAILS[workload][0]
    out["a_tail_ms"] = {"value": tail(lat, pct), "samples": len(lat),
                        "percentile": pct}
    out["throughput_rps"] = {
        "value": raw["throughput_ops"] / raw["throughput_s"],
        "samples": int(raw["throughput_ops"]),
    }
    out["peak_rss_mib"] = {"value": raw["peak_rss_kib"] / 1024.0,
                           "samples": 1}
    out["setup_s"] = {"value": median(raw["setup_s"]),
                      "samples": len(raw["setup_s"])}
    for name, m in out.items():
        m["unit"] = END_TO_END[name][0]
    return out


def aliases(workload, metrics, raw):
    """The workload-specific names that apply to @p workload."""
    out = {}
    for name, (wl, unit, how) in ALIASES.items():
        if wl != workload:
            continue
        if how in metrics:
            out[name] = dict(metrics[how], unit=unit, of=how)
            continue
        kind = raw["kinds"][how[-1]]
        lat = kind["lat_ms"]
        value = median(lat)
        if name == "files_per_s":
            value = kind["files_per_op"] / (value / 1e3)
        elif name == "mib_per_s":
            value = kind["bytes_per_op"] / 2**20 / (value / 1e3)
        out[name] = {"value": value, "unit": unit, "samples": len(lat), "of": how}
    return out


def layers(raw):
    """name -> {"value", "unit"} for every per-layer metric.

    A layer the workload bypasses is not measured and reports 0 — the
    "no change" prediction for that pairing.
    """
    got = raw.get("layers", {})
    unknown = sorted(set(got) - set(PER_LAYER))
    if unknown:
        raise KeyError("traced run reports unknown metrics: " + ", ".join(unknown))
    return {name: {"value": got.get(name, 0.0), "unit": unit}
            for name, (unit, _) in PER_LAYER.items()}


def check_codes(body_text, body_format, expect, scope=""):
    """Per-file PN-code check of one body; returns a list of problems.

    @p expect maps each generated file to {"codes": [...], "clean": bool}:
    every expected code must fire in that file, and a clean file may
    carry no error or warning.  Only files whose path starts with
    @p scope are checked.
    """
    expect = {p: w for p, w in expect.items() if p.startswith(scope)}
    if not expect:
        return ["no generated file falls under " + scope]
    doc = json.loads(body_text)
    found = {}
    if body_format == "sarif":
        for result in doc["runs"][0]["results"]:
            uri = result["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
            found.setdefault(uri, []).append((result["ruleId"], result["level"]))
    else:
        for finding in doc["findings"]:
            found.setdefault(finding["file"], []).append(
                (finding["code"], finding["severity"]))
    files = {f["file"] for f in doc["files"]} if "files" in doc else None
    problems = []
    for path, want in expect.items():
        if files is not None and path not in files:
            continue
        got = found.get(path, [])
        codes = {code for code, _ in got}
        for code in want["codes"]:
            if code not in codes:
                problems.append(f"{path}: expected {code}, got {sorted(codes)}")
        if want["clean"]:
            loud = [code for code, level in got if level in ("error", "warning")]
            if loud:
                problems.append(f"{path}: expected clean, got {sorted(set(loud))}")
    return problems
