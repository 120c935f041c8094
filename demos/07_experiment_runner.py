"""Running a reproducible sweep through the experiment runner.

Configs are plain JSON; every trial's seed is derived from the master seed
and the trial index, so re-running a config reproduces the CSV and summary
byte for byte, whether it runs in this process (threads=1) or in worker
processes forked from it (threads=4 below, capped at the CPU count; the
schedule contexts and then the trials are tasks of the pool).  The same run
is available from the shell:

    dmlab run demos/configs/gaussian_sanity.json --out-dir /tmp/dm-out
    dmlab plot /tmp/dm-out/summary.json --kind ratioVsN
    dmlab diag demos/configs/uniform_ensemble.json --trials 20000
"""

import json
import tempfile
from pathlib import Path

from dmlab import emit_plot_data, run_experiment
from dmlab.runner import verify_summary

cfg_path = Path(__file__).parent / "configs" / "gaussian_sanity.json"
config = json.loads(cfg_path.read_text())
out_dir = Path(tempfile.mkdtemp(prefix="dmlab-demo-"))

result = run_experiment(config, out_dir=out_dir, threads=4)
print(f"wrote {result.csv_path}")
print(f"wrote {result.summary_path}")
print(f"trial failures: {result.failures}")

for entry in result.summary["series"]:
    print(f"n={entry['n']:5d} d={entry['d']:3d}: median sup/inf = "
          f"{entry['medianRatio']:.4f}  IQR [{entry['q25']:.4f}, {entry['q75']:.4f}]")

print("every series statistic rechecked from the CSV:",
      verify_summary(result.csv_path, result.summary))

plot = emit_plot_data(result.summary, "ratioVsN", out_dir / "ratio_vs_n.csv")
print(f"plot-ready table at {plot}:")
print(plot.read_text())

rerun = run_experiment(config, out_dir=out_dir / "again", threads=1)
print("byte-identical re-run:",
      rerun.csv_path.read_bytes() == result.csv_path.read_bytes())
