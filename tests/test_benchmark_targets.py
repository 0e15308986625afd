"""Every name the benchmark's tracer wraps exists after `import gamemac.cli`.

perfbench/spans.py lists them in TARGETS (module -> attributes; a dotted
attribute names a method), and `Tracer.install` fetches each one from
`sys.modules["gamemac.<module>"]`.  A module that `import gamemac` does not
load fails there with a bare KeyError, a missing attribute with a bare
AttributeError, and only in a traced benchmark run.  This test names the
missing target instead.

It is also why code stays in src/ that gamemac itself no longer needs,
because the benchmark wraps or counts it:
- the `qkernel` module, which the built-in boxes no longer simulate with
  (`gamemac/__init__.py` imports it, so it is loaded);
- `capacity.resource_dependent_bound`, `capacity.sum_rate_objective` and
  `capacity.best_vertex_rate_at_pi`;
- `verify.random_product_distribution`, `random_vertex_encoder`,
  `random_mixture_encoder` and `random_channel`, with their `_mixture`;
- the always-zero `grid_points` diagnostic of `maximize_over_pi`, which the
  tracer sums;
- the `e_star(box)` call that `capacity._prepare_symmetric_encoder` makes
  only for the rows' `argmax_encoder` name, whose one call per `NS-exact`
  sweep perfbench/test_perfbench.py pins.
They can go once the benchmark stops wrapping or counting them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# run in a fresh interpreter: in this one, other tests may already have
# imported modules that `import gamemac` alone does not load
_UNRESOLVED = """
import importlib.util, json, sys
import gamemac.cli  # what the benchmark child imports before installing the tracer
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
unresolved = []
for module, attrs in spans.TARGETS.items():
    holder = sys.modules.get(f"gamemac.{module}")
    if holder is None:
        unresolved.append(f"gamemac.{module}")
        continue
    for attr in attrs:
        value = holder
        for part in attr.split("."):
            value = getattr(value, part, None)
        if value is None:
            unresolved.append(f"gamemac.{module}.{attr}")
print(json.dumps(unresolved))
"""


def test_every_benchmark_target_resolves():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", _UNRESOLVED, str(SPANS)], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    unresolved = json.loads(out.stdout)
    assert unresolved == [], f"perfbench/spans.py wraps names gamemac lacks: {unresolved}"
