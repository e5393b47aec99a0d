"""Fresh-process measurement: cold set-up and first result.

Run by ``run.py`` as ``python3 lqbench/cold.py JOB.json``, one child at a
time. The child times ``import lqdisc`` plus ``load_model``,
``realize_plant`` and ``build_deq`` on every model of the job (set-up),
then one full op written to disk (first result), then the speed probe. In
``blas1`` mode it then also measures the traced layers after a warm-up. It
prints one JSON line; the parent checks the files it wrote.
"""

import json
import sys
import time

T0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lqdisc import build_deq, load_model, realize_plant  # noqa: E402


def main(job_path: str) -> dict:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    paths = [Path(p) for p in job["models"]]
    for path in paths:
        plant, cost = load_model(path)
        build_deq(realize_plant(plant, cost.Ts), cost)
    setup_s = time.perf_counter() - T0

    from workloads import WORKLOADS, run_op
    workload = WORKLOADS[job["workload"]]
    out_dir = Path(job["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    run_op(paths[0], workload.methods[0], workload.scheme, out_dir)
    first_result_s = time.perf_counter() - t0
    from measure import probe, warm_layers
    out = {"setup_s": setup_s, "first_result_s": first_result_s,
           "probe_s": probe()}
    if job["mode"] == "blas1":
        out["layers"] = warm_layers(workload, paths, out_dir,
                                    job["seconds"])
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
