#!/usr/bin/env python3
"""Seconds-long smoke of every workload; exits non-zero on the first failure.

    python3 perfbench/selftest.py

Run from the root of a checkout (run.py builds the benchmark if needed).
Asserts, for each workload at half its nominal rate:
  - every metric BENCHMARK.json names is reported, end-to-end and traced;
  - no op fails and every check passes;
  - cpu_share.* sums to 100;
  - crypto.pbkdf2_iters_per_op is 0 on password-round and above 0 on
    login-kdf;
and that the oracle rejects a deliberately corrupted expected password.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "8", "--trace", str(trace),
           "--smoke"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    return proc.returncode, proc.stdout, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            tag = "%s trace=%d" % (workload, trace)
            code, out, result = run(workload, trace)
            check(code == 0 and result is not None and result["correct"],
                  tag + ": run passes its checks")
            if result is None:
                sys.stdout.write(out)
                continue
            check(set(result["metrics"]) == names[trace],
                  tag + ": every named metric is present")
            check(result["failed"] == 0 and result["attempted"] > 0,
                  tag + ": fail_ratio is 0 at a low rate")
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                share = sum(v for k, v in m.items()
                            if k.startswith("cpu_share."))
                check(abs(share - 100) < 1e-6, tag + ": cpu_share.* sums to 100")
                iters = m["crypto.pbkdf2_iters_per_op"]
                if workload == "password-round":
                    check(iters == 0, tag + ": no PBKDF2 work per op")
                if workload == "login-kdf":
                    check(iters > 0, tag + ": PBKDF2 work per op")

    code, out, result = run("password-round", 0, "--corrupt-oracle")
    check(code != 0 and result is not None and not result["correct"]
          and "differs from the oracle" in out,
          "password-round: the oracle rejects a corrupted password")

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
