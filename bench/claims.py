#!/usr/bin/env python3
"""Shape claims over the gated BENCH files.

Usage: python3 bench/claims.py <dir>

Reads the six gated BENCH_*.json files from <dir> (the repo root, or the
directory bench/run_all.sh has just regenerated them in) and checks the
shape each experiment exists to show.  Prints one line per claim with the
measured value, its bound and the margin (how far inside the bound the
value sits; negative outside), then exits 1 listing every failed claim.
Every row that carries dropped_spans or a critpath must show no dropped
span and no unmatched recv: either means a timeline with holes.
"""
import json
import operator
import os
import sys

OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
       ">=": operator.ge, "==": operator.eq}


def fmt(x):
    return f"{x:.6g}" if isinstance(x, float) else str(x)


class Claims:
    def __init__(self):
        self.count, self.failed, self.file = 0, [], ""

    def check(self, what, value, op, bound):
        self.count += 1
        line = f"{self.file} {what}: {fmt(value)} {op} {fmt(bound)}"
        if op != "==":
            line += f" (margin {fmt(bound - value if op[0] == '<' else value - bound)})"
        ok = OPS[op](value, bound)
        print(("ok   " if ok else "FAIL ") + line)
        if not ok:
            self.failed.append(line)

    def near(self, what, a, b, tol):
        self.check(what, abs(a - b), "<=", tol)

    def no_holes(self, where, row):
        if "dropped_spans" in row:
            self.check(f"{where}: dropped_spans", row["dropped_spans"], "==", 0)
        if "critpath" in row:
            self.check(f"{where}: critpath recvs_unmatched",
                       row["critpath"]["diag"]["recvs_unmatched"], "==", 0)


def overlap(c, bench):
    pairs = {}
    for p in bench["points"]:
        pairs.setdefault((p["gpus"], p["bucket_bytes"]), {})[p["overlap"]] = p
    for (gpus, bucket), pair in sorted(pairs.items()):
        on, off = pair[True], pair[False]
        at = f"{gpus} GPUs / {bucket >> 20} MiB"
        c.check(f"{at}: exposed fraction, overlap on < off",
                on["exposed_fraction"], "<", off["exposed_fraction"])
        c.check(f"{at}: step time, overlap on <= off",
                on["step_time_s"], "<=", off["step_time_s"] * (1 + 1e-9))
        for p in (on, off):
            c.no_holes(f"{at} overlap {'on' if p['overlap'] else 'off'}", p)
    c.check("128 GPUs / 4 MiB: exposed fraction with overlap",
            pairs[(128, 4 << 20)][True]["exposed_fraction"], "<=", 0.04)


def hybrid(c, bench):
    by_scale = {}
    for p in bench["points"]:
        by_scale.setdefault(p["gpus"], {})[p["strategy"]] = p
    for gpus, s in sorted(by_scale.items()):
        hy = s["hybrid"]
        c.check(f"{gpus} devices: hybrid mesh stages x replicas",
                f"{hy['stages']}x{hy['replicas']}", "==", f"2x{gpus // 2}")
        if gpus >= 64:
            c.check(f"{gpus} devices: hybrid img/s > best single axis",
                    hy["images_per_s"], ">",
                    max(s["dp"]["images_per_s"], s["pp"]["images_per_s"]))
    big = max(by_scale)
    c.check(f"{big} devices: hybrid img/s > 2 x pp",
            by_scale[big]["hybrid"]["images_per_s"], ">",
            2 * by_scale[big]["pp"]["images_per_s"])


def recovery(c, bench):
    runs = {}
    for r in bench["rows"]:
        a = r["attribution"]
        # Six fields, each rounded to 1e-6 in the JSON.
        c.near(f"MTBF {r['mtbf_steps']} / interval {r['checkpoint_interval']}:"
               " |attribution categories - total_s|",
               a["comm_s"] + a["compute_s"] + a["io_s"] + a["fault_s"] +
               a["other_s"], a["total_s"], 3e-6)
        runs.setdefault(r["checkpoint_interval"], []).append(r)
    for interval, rows in sorted(runs.items()):
        rows.sort(key=lambda r: -(r["mtbf_steps"] or float("inf")))  # 0: no fault
        for lo, hi in zip(rows, rows[1:]):
            c.check(f"interval {interval}: overhead at MTBF {hi['mtbf_steps']}"
                    f" > MTBF {lo['mtbf_steps']}", hi["overhead"], ">",
                    lo["overhead"])


def resnet_scaling(c, bench):
    rows = bench["rows"]
    for r in rows:
        cp, w = r["critpath"], r["critpath"]["waits"]
        at = f"{r['gpus']} GPUs"
        # The critical path partitions [0, T] exactly; the JSON rounds each
        # field to 1e-9, so a sum of k rounded terms may drift by k/2 ulps.
        path, end, sim = cp["path_length_s"], cp["end_time_s"], r["total_sim_time_s"]
        c.near(f"{at}: |path_length_s - end_time_s|", path, end, 1e-8 + 1e-9 * end)
        c.near(f"{at}: |end_time_s - total_sim_time_s|", end, sim, 1e-8 + 1e-9 * sim)
        c.near(f"{at}: |wait categories - blocked_s|",
               w["late_sender_s"] + w["late_receiver_s"] + w["collective_skew_s"]
               + w["nic_occupancy_s"] + w["pipeline_bubble_s"], cp["blocked_s"],
               1e-8)
        c.near(f"{at}: |local + blocked - path|",
               cp["local"]["total_s"] + cp["blocked_s"], path, 1e-8 + 1e-9 * path)
        # Two independent accountings of exposed comm.
        c.near(f"{at}: |critpath - attribution comm fraction|",
               cp["exposed_comm_fraction"], r["attribution"]["comm_fraction"],
               0.01)
        c.no_holes(at, r)
    c.check(f"comm fraction at {rows[-1]['gpus']} GPUs > at {rows[0]['gpus']}",
            rows[-1]["attribution"]["comm_fraction"], ">",
            rows[0]["attribution"]["comm_fraction"])


def serve(c, bench):
    sweep = {(p["multiplier"], p["policy"]): p for p in bench["load_sweep"]}
    for m in sorted({m for m, _ in sweep if m >= 2.0}):
        c.check(f"{m:g}x load: goodput rps, continuous > batch-1",
                sweep[(m, "continuous")]["goodput_rps"], ">",
                sweep[(m, "batch1")]["goodput_rps"])
    deg = {p["mode"]: p for p in bench["degraded"]}
    healthy = deg["health-healthy"]["p99_s"]
    ha, rr = deg["health-degraded"], deg["roundrobin-degraded"]
    c.check("health-aware p99 / healthy p99", ha["p99_s"] / healthy, "<=", 1.5)
    c.check("round-robin p99 / healthy p99", rr["p99_s"] / healthy, ">", 3.0)
    c.check("health-aware flags a replica",
            any(r["flagged"] for r in ha["replicas"]), "==", True)
    c.check("health-aware completed == admitted", ha["completed"], "==",
            ha["admitted"])
    for p in bench["degraded"]:
        c.no_holes(p["mode"], p)


def failslow(c, bench):
    rows = bench["rows"]
    by_key = {(r["mode"], r["slowdown"]): r for r in rows}
    for s in sorted({s for _, s in by_key if s > 1.0}):
        none = by_key[("none", s)]
        for mode in ("reshard", "demote", "full"):
            c.check(f"{s:g}x: {mode} throughput > none",
                    by_key[(mode, s)]["throughput"], ">", none["throughput"])
        # Detection alone mitigates nothing: it costs one small allgather
        # per window and leaves the training trajectory as it was.
        detect = by_key[("detect", s)]
        c.check(f"{s:g}x: detect mean_loss == none", detect["mean_loss"], "==",
                none["mean_loss"])
        c.near(f"{s:g}x: |detect / none sim_time_s - 1|",
               detect["sim_time_s"] / none["sim_time_s"], 1.0, 0.01)
    clean = bench["clean_throughput"]
    c.check("4x: full / fault-free throughput",
            by_key[("full", 4.0)]["throughput"] / clean, ">=", 0.80)
    none4 = by_key[("none", 4.0)]["throughput"] / clean
    c.check("4x: none / fault-free throughput", none4, ">=", 0.20)
    c.check("4x: none / fault-free throughput", none4, "<=", 0.35)
    for r in rows:
        c.no_holes(f"{r['mode']}@{r['slowdown']:g}x", r)


FILES = {
    "BENCH_overlap.json": overlap,
    "BENCH_hybrid.json": hybrid,
    "BENCH_recovery.json": recovery,
    "BENCH_resnet_scaling.json": resnet_scaling,
    "BENCH_serve.json": serve,
    "BENCH_failslow.json": failslow,
}


def main():
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} <dir>")
    c = Claims()
    for name, claims in FILES.items():
        c.file = name[len("BENCH_"):-len(".json")]
        try:
            with open(os.path.join(sys.argv[1], name)) as f:
                claims(c, json.load(f))
        except Exception as e:  # a missing file or field fails its claims
            c.failed.append(f"{name}: cannot check: {type(e).__name__}: {e}")
            print("FAIL " + c.failed[-1])
    print(f"claims: {c.count} checked, {len(c.failed)} failed")
    if c.failed:
        print("failed claims:", *c.failed, sep="\n  ")
        sys.exit(1)


if __name__ == "__main__":
    main()
