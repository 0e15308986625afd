"""One workload repetition in a fresh Python process.

    python3 child.py '<json spec>'

The spec holds `commands` (CLI argument lists), `trace` (bool), `spans`
(where a traced run writes its spans) and `import_only` (bool).  The
child times `import gamemac.cli`, runs each command in process through
`gamemac.cli.main(args, standalone_mode=False)` with stdout captured, and
prints one JSON object: the set-up time, peak_rss_mb, the outputs with
each command's time, the wall time of all commands, and the per-layer
metrics when traced.

Both times are reported raw and speed-corrected.  The cores of a shared
machine run the same code up to 1.5x slower for tens of seconds at a time,
so raw times of identical runs spread by 20-30%.  A SpeedProbe samples a
fixed probe on this process's cores while each timed region (the import,
each command) runs, and the corrected time is the raw time scaled by the
time-averaged speed relative to the probe's PROBE_REF_S: the seconds the
region takes on an uncontended core.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import threading
import time

PROBE_PERIOD_S = 0.05


def python_probe() -> float:
    """Seconds taken by a fixed pure-Python loop; it needs no import, so
    it can time the import of gamemac.cli."""
    start = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    return time.perf_counter() - start


def numpy_probe() -> float:
    """Seconds taken by a fixed mix of a Python loop and small-array numpy
    calls, the instruction mix of the workloads.  A shared core slows
    small numpy calls more than a plain loop: over eight identical
    chsh-sweep runs the raw time spread by 0.23, by 0.12 corrected with
    python_probe and by 0.03 with this probe."""
    import numpy as np

    vec = np.arange(1.0, 5.0) / 10
    start = time.perf_counter()
    acc = 0
    for i in range(1_500):
        acc += i * i % 7
    for _ in range(30):
        joint = np.outer(vec, vec).ravel()
        np.where(joint > 0, joint * np.log2(np.where(joint > 0, joint, 1.0)), 0.0).sum()
    return time.perf_counter() - start


# Each probe's time on an uncontended core of a 2-core x86-64 VM under
# CPython 3.11 and numpy 2.4: the 10th percentile of its samples there,
# taken alone for python_probe and during workload runs for numpy_probe.
PROBE_REF_S = {python_probe: 6.3e-4, numpy_probe: 3.2e-4}


class SpeedProbe:
    """Speed of this process's cores during a `with` block, as a share of
    the reference speed.  A daemon thread runs the probe every
    PROBE_PERIOD_S, and the block runs it once at entry and once at exit.

    A probe takes about 1% of the block's time and never holds the
    interpreter lock long enough to be preempted, so it reads the core's
    speed, not the program's.
    """

    def __init__(self, probe):
        self.probe = probe
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            self.samples.append(self.probe())

    def __enter__(self) -> "SpeedProbe":
        self.samples.append(self.probe())
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.samples.append(self.probe())

    def speed(self) -> float:
        """Mean of reference time / sample, the top and bottom tenth trimmed."""
        ratios = sorted(PROBE_REF_S[self.probe] / t for t in self.samples)
        cut = len(ratios) // 10
        kept = ratios[cut : len(ratios) - cut]
        return sum(kept) / len(kept)


def run(spec: dict) -> dict:
    with SpeedProbe(python_probe) as setup_probe:
        t0 = time.perf_counter()
        import gamemac.cli

        setup_raw_s = time.perf_counter() - t0
    result = {
        "gamemac": gamemac.cli.__file__,
        "setup_raw_s": setup_raw_s,
        "setup_s": setup_raw_s * setup_probe.speed(),
    }
    if spec.get("import_only"):
        return result

    main = gamemac.cli.main
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        main = tracer.wrap("cli", main)

    outputs = []
    for args in spec["commands"]:
        buf = io.StringIO()
        exit_code, error = 0, None
        with SpeedProbe(numpy_probe) as probe, contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            try:
                main(args, standalone_mode=False)
            except SystemExit as exc:
                exit_code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # reported as a failed check, not a crash
                exit_code, error = 1, f"{type(exc).__name__}: {exc}"
            raw_s = time.perf_counter() - start
        outputs.append({"args": args, "exit_code": exit_code, "stdout": buf.getvalue(), "error": error,
                        "raw_s": raw_s, "wall_s": raw_s * probe.speed()})

    wall_raw_s = sum(out["raw_s"] for out in outputs)
    wall_s = sum(out["wall_s"] for out in outputs)
    result.update(
        wall_raw_s=wall_raw_s,
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        outputs=outputs,
    )
    if tracer is not None:
        result["layers"] = tracer.metrics(wall_s / wall_raw_s)
        tracer.save(spec["spans"])
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
