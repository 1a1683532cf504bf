"""Fresh-process probe for the set-up and peak-memory metrics.

Reads ``{"specs", "workload", "seed", "work_dir", "pass"}`` as JSON on
stdin, imports ``repro``, decodes the specs and builds every unit, then
prints ``built``; the parent times the process from launch to that
line. With ``pass`` true it then runs one executor pass and prints its
peak resident memory in MiB.
"""

import json
import sys


def main():
    request = json.loads(sys.stdin.read())

    import repro  # noqa: F401  (the import is part of set-up)
    from repro.scenario import ScenarioSpec

    specs = [ScenarioSpec.from_dict(data) for data in request["specs"]]
    for spec in specs:
        spec.build()
    print("built", flush=True)

    if request["pass"]:
        import resource

        from workloads import Workload, load_config

        name = request["workload"]
        workload = Workload(
            name, load_config()["workloads"][name], request["seed"],
            request["work_dir"],
        )
        workload.run_pass()
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"peak_rss_mib": peak_kib / 1024.0}), flush=True)


if __name__ == "__main__":
    main()
