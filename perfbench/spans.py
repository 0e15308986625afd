"""In-memory span tracer over gamemac's public functions.

The tracer wraps functions from the benchmark's side and changes nothing
under src/.  gamemac modules import functions by name (capacity holds its
own `type_ii`, `e_star` and `entropy`; verify holds `compose` and
`depolarizing_mac`), so a wrapper is bound in place of every attribute of
every loaded gamemac module that is the same object as the wrapped
function, and of every module-level dict value that is.  Patching the
defining module alone would miss those calls.

A span is (name, start, end, parent), kept in flat arrays while the run
lasts and written out when it ends.  Self time is a span's duration minus
the time its direct child spans cover; calls within one thread nest, so
that is the sum of the children's durations.

Per-element helpers (`pack_tuple`, `unpack_index`,
`question_index_of_input`, `noise_f`, `simplex_grid`, the
ProductDistribution and MacChannel methods) are not wrapped: they run
hundreds of thousands of times inside the loops of their callers, whose
self time includes them.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# module -> {attribute: span name}.  A dotted attribute names a method.
TARGETS = {
    "games": {
        "NonlocalGame.win_table": "games.win_table",
        "input_win_mask": "games.input_win_mask",
    },
    "qkernel": {
        fn: f"qkernel.{fn}"
        for fn in (
            "state_vector", "unitary", "tensor", "num_qubits", "apply_local_unitary",
            "measurement_distribution", "eigenprojectors_pm1", "projective_binary_measurement",
        )
    },
    "correlations": {
        "e_star": "correlations.e_star",
        **{
            fn: "correlations.boxes"
            for fn in (
                "pr_box", "tsirelson_box", "magic_square_box", "mpp_box",
                "deterministic_box", "boxes_from_csv",
            )
        },
        **{
            fn: "correlations.checks"
            for fn in ("box_win_probabilities", "support_marginal_uniformity_error", "validate_box")
        },
    },
    "channels": {
        fn: "channels.build" for fn in ("two_branch_mac", "depolarizing_mac", "type_i", "type_ii")
    },
    "infotheory": {
        fn: f"infotheory.{fn}"
        for fn in (
            "entropy", "mutual_information", "conditional_mutual_information", "compose",
            "message_output_kernel", "sum_rate", "input_distribution", "win_probability",
            "prop3_rate",
        )
    },
    "capacity": {
        "channel_for": "channels.build",
        "maximize_over_pi": "capacity.maximize_over_pi",
        "classical_capacity_exact": "capacity.exact",
        "classical_upper_bound": "capacity.bound",
        "bruteforce_classical_game_value": "capacity.bound",
        "pseudo_telepathy_capacity": "capacity.pt",
        **{
            fn: "capacity.other"
            for fn in (
                "sweep", "quantum_lower_bound_chsh", "pseudo_telepathy_box", "sum_rate_objective",
                "resource_dependent_bound", "vertex_file_bound", "best_vertex_rate_at_pi",
            )
        },
    },
    "verify": {
        fn: "verify"
        for fn in (
            "run_verification", "proposition_residuals", "pseudo_telepathy_checks",
            "random_product_distribution", "random_vertex_encoder", "random_mixture_encoder",
            "random_channel", "constant_noise_residual", "format_report",
        )
    },
}

class Tracer:
    """Records spans around wrapped functions, plus counters read from
    their arguments and results."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn, before=None, after=None):
        """Return fn timed as a span; before may rewrite (args, kwargs),
        after sees (result, args, kwargs)."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    # -- hooks that read counters at layer boundaries -----------------------

    def _wrap_objective(self, args, kwargs):
        if args:
            args = (self.wrap("capacity.objective", args[0]),) + args[1:]
        else:
            kwargs = dict(kwargs, objective=self.wrap("capacity.objective", kwargs["objective"]))
        return args, kwargs

    def _optimizer_diagnostics(self, result, args, kwargs):
        diag = result[2]
        self.counters["capacity.grid_points"] += diag["grid_points"]
        self.counters["capacity.nm_iterations"] += diag["iterations"]

    def _exact_diagnostics(self, result, args, kwargs):
        self.counters["capacity.exact.candidates"] += result.diagnostics["candidates"]
        self.counters["capacity.exact.vertices"] += result.diagnostics["vertices"]

    def _matrix_size(self, result, args, kwargs):
        mb = result.matrix.nbytes / 1e6
        self.counters["channels.matrix_mb"] = max(self.counters["channels.matrix_mb"], mb)

    def _count_triples(self, args, kwargs):
        self.counters["verify.triples"] += kwargs["count"] if "count" in kwargs else args[2]
        return args, kwargs

    def _hooks(self, attr: str):
        if attr == "maximize_over_pi":
            return self._wrap_objective, self._optimizer_diagnostics
        if attr == "classical_capacity_exact":
            return None, self._exact_diagnostics
        if attr in TARGETS["channels"] or attr == "channel_for":
            return None, self._matrix_size
        if attr == "proposition_residuals":
            return self._count_triples, None
        return None, None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind each gamemac reference to it."""
        loaded = [m for n, m in sys.modules.items() if n == "gamemac" or n.startswith("gamemac.")]
        # The wrappers keep every original alive, so its id stays unique.
        wrapper_of = {}
        for mod_name, attrs in TARGETS.items():
            module = sys.modules[f"gamemac.{mod_name}"]
            for attr, span in attrs.items():
                owner, _, leaf = attr.rpartition(".")
                holder = getattr(module, owner) if owner else module
                original = getattr(holder, leaf)
                wrapped = self.wrap(span, original, *self._hooks(leaf))
                if owner:
                    setattr(holder, leaf, wrapped)
                else:
                    wrapper_of[id(original)] = wrapped
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapper_of:
                    setattr(module, attr, wrapper_of[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrapper_of:
                            value[key] = wrapper_of[id(item)]

    # -- results ------------------------------------------------------------

    def layer_times(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, self seconds, total seconds)."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = end - start
        covered = np.zeros(len(dur) + 1)
        np.add.at(covered, parent, dur)  # parent -1 lands in the spare last slot
        own = dur - covered[:-1]
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            out[label] = (int(sel.sum()), float(own[sel].sum()), float(dur[sel].sum()))
        return out

    def metrics(self, speed: float) -> dict[str, float]:
        """Every per-layer metric of BENCHMARK.json but the trace.* ones,
        which need an untraced run; a layer the workload never calls reads
        0.  Times are multiplied by `speed`, the run's speed-correction
        factor."""
        times = defaultdict(lambda: (0, 0.0, 0.0))
        for label, (calls, own, total) in self.layer_times().items():
            times[label] = (calls, own * speed, total * speed)

        def group(prefix: str) -> tuple[int, float, float]:
            rows = [v for k, v in times.items() if k == prefix or k.startswith(prefix + ".")]
            return (sum(r[0] for r in rows), sum(r[1] for r in rows), sum(r[2] for r in rows))

        c = self.counters
        objective = times["capacity.objective"]
        return {
            "games.win_table.self_s": times["games.win_table"][1],
            "games.input_win_mask.calls": times["games.input_win_mask"][0],
            "games.input_win_mask.self_s": times["games.input_win_mask"][1],
            "qkernel.calls": group("qkernel")[0],
            "qkernel.self_s": group("qkernel")[1],
            "correlations.e_star.calls": times["correlations.e_star"][0],
            "correlations.e_star.self_s": times["correlations.e_star"][1],
            "correlations.boxes.self_s": times["correlations.boxes"][1],
            "correlations.checks.self_s": times["correlations.checks"][1],
            "channels.build.calls": times["channels.build"][0],
            "channels.build.self_s": times["channels.build"][1],
            "channels.matrix_mb": c["channels.matrix_mb"],
            "infotheory.calls": group("infotheory")[0],
            "infotheory.self_s": group("infotheory")[1],
            "capacity.maximize_over_pi.calls": times["capacity.maximize_over_pi"][0],
            "capacity.maximize_over_pi.self_s": times["capacity.maximize_over_pi"][1],
            "capacity.objective.evals": objective[0],
            "capacity.objective.self_s": objective[1],
            "capacity.objective.evals_per_s": objective[0] / objective[2] if objective[2] else 0.0,
            "capacity.grid_points": c["capacity.grid_points"],
            "capacity.nm_iterations": c["capacity.nm_iterations"],
            "capacity.exact.self_s": times["capacity.exact"][1],
            "capacity.exact.candidate_ratio": (
                c["capacity.exact.candidates"] / c["capacity.exact.vertices"]
                if c["capacity.exact.vertices"] else 0.0
            ),
            "capacity.bound.self_s": times["capacity.bound"][1],
            "capacity.pt.self_s": times["capacity.pt"][1],
            "capacity.other.self_s": times["capacity.other"][1],
            "verify.self_s": times["verify"][1],
            "verify.triples": c["verify.triples"],
            "cli.self_s": times["cli"][1],
        }

    def save(self, path) -> None:
        """Write every span: name index, parent span index, start, end."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
